//! Parameterised synthetic workloads.

use ossd_block::{Priority, Trace, TraceKind, TraceOp};
use ossd_sim::{SimDuration, SimRng};

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

/// Configuration of a synthetic block workload.
#[derive(Clone, Debug, PartialEq)]
pub struct SyntheticConfig {
    /// Trace name.
    pub name: String,
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
    /// Offsets of non-sequential requests are aligned to this many bytes.
    pub align_bytes: u64,
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
            name: "synthetic".to_string(),
            request_count: 1000,
            request_bytes: 4096,
            read_fraction: 0.5,
            sequential_prob: 0.0,
            working_set_bytes: 64 * 1024 * 1024,
            align_bytes: 4096,
            inter_arrival: InterArrival::Closed,
            priority_fraction: 0.0,
            seed: 1,
        }
    }
}

impl SyntheticConfig {
    /// A fully sequential stream of `count` accesses of `bytes` each.
    pub fn sequential(count: usize, bytes: u64, read_fraction: f64) -> Self {
        SyntheticConfig {
            name: "sequential".to_string(),
            request_count: count,
            request_bytes: bytes,
            read_fraction,
            sequential_prob: 1.0,
            working_set_bytes: (count as u64 * bytes).max(bytes),
            ..SyntheticConfig::default()
        }
    }

    /// A uniformly random stream of `count` accesses of `bytes` each over a
    /// `working_set_bytes` region.
    pub fn random(count: usize, bytes: u64, read_fraction: f64, working_set_bytes: u64) -> Self {
        SyntheticConfig {
            name: "random".to_string(),
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
            name: "swtf-random".to_string(),
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
            name: format!("qos-{}pct-writes", (write_fraction * 100.0).round()),
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

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut trace = Trace::new(self.name.clone());
        let align = self.align_bytes.max(1);
        let span = self.working_set_bytes.max(self.request_bytes);
        let slots = (span / align).max(1);
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
                (rng.next_u64_below(slots) * align).min(max_start)
            };
            next_offset = offset + self.request_bytes;
            let kind = if rng.chance(self.read_fraction) {
                TraceKind::Read
            } else {
                TraceKind::Write
            };
            let priority = if rng.chance(self.priority_fraction) {
                Priority::High
            } else {
                Priority::Normal
            };
            trace.push(
                TraceOp::new(now_micros, kind, offset, self.request_bytes).with_priority(priority),
            );
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
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count_and_mix() {
        let cfg = SyntheticConfig {
            request_count: 2000,
            read_fraction: 0.75,
            ..SyntheticConfig::default()
        };
        let trace = cfg.generate();
        assert_eq!(trace.len(), 2000);
        let stats = trace.stats();
        let read_frac = stats.reads as f64 / trace.len() as f64;
        assert!((read_frac - 0.75).abs() < 0.05, "read fraction {read_frac}");
        assert!(trace.is_time_ordered());
    }

    #[test]
    fn sequential_config_produces_contiguous_offsets() {
        let cfg = SyntheticConfig::sequential(100, 8192, 0.0);
        let trace = cfg.generate();
        for pair in trace.ops.windows(2) {
            assert_eq!(pair[1].offset, pair[0].offset + 8192);
        }
        assert!(trace.ops.iter().all(|o| o.kind == TraceKind::Write));
    }

    #[test]
    fn random_offsets_stay_inside_working_set_and_are_aligned() {
        let cfg = SyntheticConfig::random(1000, 4096, 0.5, 1 << 20);
        let trace = cfg.generate();
        for op in &trace.ops {
            assert!(op.offset + op.len <= 1 << 20);
            assert_eq!(op.offset % 4096, 0);
        }
        // The stream must actually be scattered (not all the same offset).
        let distinct: std::collections::HashSet<u64> = trace.ops.iter().map(|o| o.offset).collect();
        assert!(distinct.len() > 100);
    }

    #[test]
    fn qos_workload_matches_paper_parameters() {
        let cfg = SyntheticConfig::qos_workload(5000, 0.5, 1 << 24);
        let trace = cfg.generate();
        let stats = trace.stats();
        let write_frac = stats.writes as f64 / trace.len() as f64;
        assert!((write_frac - 0.5).abs() < 0.05);
        let hp_frac = stats.high_priority as f64 / trace.len() as f64;
        assert!((hp_frac - 0.10).abs() < 0.02, "priority fraction {hp_frac}");
        // Mean inter-arrival ≈ 50 µs.
        let span = trace.ops.last().unwrap().at_micros;
        let mean_gap = span as f64 / (trace.len() - 1) as f64;
        assert!((mean_gap - 50.0).abs() < 5.0, "mean gap {mean_gap} µs");
    }

    #[test]
    fn swtf_workload_mix() {
        let cfg = SyntheticConfig::swtf_workload(3000, 1 << 24, SimDuration::from_micros(80));
        let trace = cfg.generate();
        let stats = trace.stats();
        let read_frac = stats.reads as f64 / trace.len() as f64;
        assert!((read_frac - 2.0 / 3.0).abs() < 0.05);
        assert!(trace.is_time_ordered());
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
            let trace = cfg.generate();
            trace
                .ops
                .windows(2)
                .filter(|w| w[1].offset == w[0].offset + w[0].len)
                .count()
        };
        let none = count_contiguous(0.0);
        let half = count_contiguous(0.5);
        let most = count_contiguous(0.9);
        assert!(none < half && half < most);
    }

    #[test]
    fn same_seed_reproduces_trace() {
        let cfg = SyntheticConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
        let other = SyntheticConfig {
            seed: 999,
            ..SyntheticConfig::default()
        };
        assert_ne!(cfg.generate(), other.generate());
    }
}
