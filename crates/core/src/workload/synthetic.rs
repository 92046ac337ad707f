//! Parameterised synthetic workloads.

use ossd_block::{BlockOpKind, BlockRequest, Priority};
use ossd_sim::{SimDuration, SimRng};

use super::push;

/// The arrival process of a synthetic workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterArrival {
    /// All requests are available immediately; the replay layer decides the
    /// pacing (used with closed-loop bandwidth measurements).
    Closed,
    /// Inter-arrival times uniformly distributed in `[lo, hi)` — the process
    /// used by the paper's QoS experiment (0–0.1 ms, §3.6).
    Uniform {
        /// Lower bound (inclusive).
        lo: SimDuration,
        /// Upper bound (exclusive).
        hi: SimDuration,
    },
    /// Exponential (Poisson) inter-arrival times with the given mean.
    Exponential {
        /// Mean inter-arrival time.
        mean: SimDuration,
    },
}

/// Offsets of non-sequential requests are aligned to this many bytes.
const ALIGN_BYTES: u64 = 4096;

/// Configuration of a synthetic block workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticConfig {
    /// Number of requests to generate.
    pub request_count: usize,
    /// Size of every request in bytes.
    pub request_bytes: u64,
    /// Fraction of requests that are reads (the rest are writes).
    pub read_fraction: f64,
    /// Probability that a request continues the previous one sequentially
    /// (the paper's "probability of sequential access", Table 3).
    pub sequential_prob: f64,
    /// Size of the address region the workload touches.
    pub working_set_bytes: u64,
    /// Arrival process.
    pub inter_arrival: InterArrival,
    /// Fraction of requests marked high priority (foreground).
    pub priority_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            request_count: 1000,
            request_bytes: 4096,
            read_fraction: 0.5,
            sequential_prob: 0.0,
            working_set_bytes: 64 * 1024 * 1024,
            inter_arrival: InterArrival::Closed,
            priority_fraction: 0.0,
            seed: 1,
        }
    }
}

impl SyntheticConfig {
    /// A uniformly random stream of `count` accesses of `bytes` each over a
    /// `working_set_bytes` region.
    pub fn random(count: usize, bytes: u64, read_fraction: f64, working_set_bytes: u64) -> Self {
        SyntheticConfig {
            request_count: count,
            request_bytes: bytes,
            read_fraction,
            sequential_prob: 0.0,
            working_set_bytes,
            ..SyntheticConfig::default()
        }
    }

    /// The random 4 KB workload of §3.2 (two-thirds reads, one-third
    /// writes) used to compare SWTF with FCFS.
    pub fn swtf_workload(count: usize, working_set_bytes: u64, mean_gap: SimDuration) -> Self {
        SyntheticConfig {
            request_count: count,
            request_bytes: 4096,
            read_fraction: 2.0 / 3.0,
            sequential_prob: 0.0,
            working_set_bytes,
            inter_arrival: InterArrival::Exponential { mean: mean_gap },
            ..SyntheticConfig::default()
        }
    }

    /// The QoS workload of §3.6: 4 KB requests, inter-arrival uniform in
    /// `[0, 0.1 ms)`, 10% high-priority, with the given write fraction.
    pub(crate) fn qos_workload(count: usize, write_fraction: f64, working_set_bytes: u64) -> Self {
        SyntheticConfig {
            request_count: count,
            request_bytes: 4096,
            read_fraction: 1.0 - write_fraction,
            sequential_prob: 0.0,
            working_set_bytes,
            inter_arrival: InterArrival::Uniform {
                lo: SimDuration::ZERO,
                hi: SimDuration::from_micros(100),
            },
            priority_fraction: 0.10,
            ..SyntheticConfig::default()
        }
    }

    /// Generates the requests.
    pub fn generate(&self) -> Vec<BlockRequest> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut requests = Vec::with_capacity(self.request_count);
        let span = self.working_set_bytes.max(self.request_bytes);
        let slots = (span / ALIGN_BYTES).max(1);
        let max_start = span.saturating_sub(self.request_bytes);
        let mut now_micros = 0u64;
        let mut next_offset = 0u64;
        for _ in 0..self.request_count {
            let sequential = rng.chance(self.sequential_prob);
            let offset = if sequential {
                if next_offset + self.request_bytes > span {
                    0
                } else {
                    next_offset
                }
            } else {
                (rng.next_u64_below(slots) * ALIGN_BYTES).min(max_start)
            };
            next_offset = offset + self.request_bytes;
            let kind = if rng.chance(self.read_fraction) {
                BlockOpKind::Read
            } else {
                BlockOpKind::Write
            };
            let priority = if rng.chance(self.priority_fraction) {
                Priority::High
            } else {
                Priority::Normal
            };
            push(&mut requests, now_micros, kind, offset, self.request_bytes).priority = priority;
            let gap = match self.inter_arrival {
                InterArrival::Closed => SimDuration::ZERO,
                InterArrival::Uniform { lo, hi } => rng.uniform_duration(lo, hi),
                InterArrival::Exponential { mean } => rng.exponential_duration(mean),
            };
            now_micros += (gap.as_micros_f64().round() as u64).max(match self.inter_arrival {
                InterArrival::Closed => 0,
                _ => 1,
            });
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(requests: &[BlockRequest], pick: impl Fn(&BlockRequest) -> bool) -> f64 {
        requests.iter().filter(|r| pick(r)).count() as f64 / requests.len() as f64
    }

    #[test]
    fn generates_requested_count_and_mix() {
        let cfg = SyntheticConfig {
            request_count: 2000,
            read_fraction: 0.75,
            ..SyntheticConfig::default()
        };
        let requests = cfg.generate();
        assert_eq!(requests.len(), 2000);
        let read_frac = share(&requests, |r| r.kind == BlockOpKind::Read);
        assert!((read_frac - 0.75).abs() < 0.05, "read fraction {read_frac}");
    }

    #[test]
    fn sequential_config_produces_contiguous_offsets() {
        let cfg = SyntheticConfig {
            request_count: 100,
            request_bytes: 8192,
            read_fraction: 0.0,
            sequential_prob: 1.0,
            working_set_bytes: 100 * 8192,
            ..SyntheticConfig::default()
        };
        let requests = cfg.generate();
        for pair in requests.windows(2) {
            assert_eq!(pair[1].range.offset, pair[0].range.offset + 8192);
        }
        assert!(requests.iter().all(|r| r.kind == BlockOpKind::Write));
    }

    #[test]
    fn random_offsets_stay_inside_working_set_and_are_aligned() {
        let cfg = SyntheticConfig::random(1000, 4096, 0.5, 1 << 20);
        let requests = cfg.generate();
        for r in &requests {
            assert!(r.range.end() <= 1 << 20);
            assert_eq!(r.range.offset % 4096, 0);
        }
        // The stream must actually be scattered (not all the same offset).
        let distinct: std::collections::HashSet<u64> =
            requests.iter().map(|r| r.range.offset).collect();
        assert!(distinct.len() > 100);
    }

    #[test]
    fn qos_workload_matches_paper_parameters() {
        let cfg = SyntheticConfig::qos_workload(5000, 0.5, 1 << 24);
        let requests = cfg.generate();
        let write_frac = share(&requests, |r| r.kind == BlockOpKind::Write);
        assert!((write_frac - 0.5).abs() < 0.05);
        let hp_frac = share(&requests, |r| r.priority == Priority::High);
        assert!((hp_frac - 0.10).abs() < 0.02, "priority fraction {hp_frac}");
        // Mean inter-arrival ≈ 50 µs.
        let span = requests.last().unwrap().arrival.as_nanos() as f64 / 1e3;
        let mean_gap = span / (requests.len() - 1) as f64;
        assert!((mean_gap - 50.0).abs() < 5.0, "mean gap {mean_gap} µs");
    }

    #[test]
    fn swtf_workload_mix() {
        let cfg = SyntheticConfig::swtf_workload(3000, 1 << 24, SimDuration::from_micros(80));
        let read_frac = share(&cfg.generate(), |r| r.kind == BlockOpKind::Read);
        assert!((read_frac - 2.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn sequentiality_parameter_controls_contiguity() {
        let count_contiguous = |p: f64| -> usize {
            let cfg = SyntheticConfig {
                sequential_prob: p,
                request_count: 2000,
                seed: 7,
                ..SyntheticConfig::default()
            };
            (cfg.generate().windows(2))
                .filter(|w| w[1].range.offset == w[0].range.end())
                .count()
        };
        let none = count_contiguous(0.0);
        let half = count_contiguous(0.5);
        let most = count_contiguous(0.9);
        assert!(none < half && half < most);
    }

    #[test]
    fn same_seed_reproduces_the_requests() {
        let cfg = SyntheticConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = SyntheticConfig {
            seed: 999,
            ..SyntheticConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }
}
