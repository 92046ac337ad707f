//! IOzone-style large-file workload model.
//!
//! IOzone's automatic mode writes a large file sequentially with a given
//! record size, rewrites it, reads it back sequentially, and finishes with
//! a random read/write phase.  Because its writes are large and sequential,
//! it benefits the most from device-side stripe alignment — the paper
//! reports a 36.54% response-time improvement (Table 4), an order of
//! magnitude more than the small-write workloads.

use ossd_block::{Trace, TraceKind, TraceOp};
use ossd_sim::SimRng;

/// IOzone model parameters.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct IozoneConfig {
    /// Size of the test file in bytes.
    pub file_bytes: u64,
    /// Record (request) size in bytes.
    pub record_bytes: u64,
    /// Number of operations in the final random phase.
    pub random_ops: usize,
    /// Whether to include the sequential re-write phase.
    pub include_rewrite: bool,
    /// Whether to include the sequential read phase.
    pub include_read: bool,
    /// Mean gap between requests in microseconds.
    pub mean_gap_micros: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IozoneConfig {
    fn default() -> Self {
        IozoneConfig {
            file_bytes: 64 * 1024 * 1024,
            record_bytes: 1024 * 1024,
            random_ops: 64,
            include_rewrite: true,
            include_read: true,
            mean_gap_micros: 200,
            seed: 0x102,
        }
    }
}

impl IozoneConfig {
    /// Generates the block trace: write, rewrite, read, then random mix.
    pub(crate) fn generate(&self) -> Trace {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut trace = Trace::new("iozone".to_string());
        let record = self.record_bytes.max(4096);
        let records = (self.file_bytes / record).max(1);
        let mut now = 0u64;
        let gap = |rng: &mut SimRng, now: &mut u64| {
            *now += 1 + rng.next_u64_below(2 * self.mean_gap_micros.max(1));
        };

        // Phase 1: sequential write.
        for i in 0..records {
            trace.push(TraceOp::new(now, TraceKind::Write, i * record, record));
            gap(&mut rng, &mut now);
        }
        // Phase 2: sequential rewrite.
        if self.include_rewrite {
            for i in 0..records {
                trace.push(TraceOp::new(now, TraceKind::Write, i * record, record));
                gap(&mut rng, &mut now);
            }
        }
        // Phase 3: sequential read.
        if self.include_read {
            for i in 0..records {
                trace.push(TraceOp::new(now, TraceKind::Read, i * record, record));
                gap(&mut rng, &mut now);
            }
        }
        // Phase 4: random read/write of records.
        for _ in 0..self.random_ops {
            let rec = rng.next_u64_below(records);
            let kind = if rng.chance(0.5) {
                TraceKind::Read
            } else {
                TraceKind::Write
            };
            trace.push(TraceOp::new(now, kind, rec * record, record));
            gap(&mut rng, &mut now);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_present_and_sized() {
        let cfg = IozoneConfig {
            file_bytes: 8 * 1024 * 1024,
            record_bytes: 1024 * 1024,
            random_ops: 10,
            ..IozoneConfig::default()
        };
        let trace = cfg.generate();
        let stats = trace.stats();
        // 8 writes + 8 rewrites + 8 reads + ~10 random.
        assert_eq!(trace.len(), 8 + 8 + 8 + 10);
        assert!(stats.writes >= 16);
        assert!(stats.reads >= 8);
        assert_eq!(stats.frees, 0);
        assert!(stats.max_offset <= cfg.file_bytes);
        assert!(trace.is_time_ordered());
    }

    #[test]
    fn writes_are_large_and_sequential_in_phase_one() {
        let cfg = IozoneConfig::default();
        let trace = cfg.generate();
        let records = (cfg.file_bytes / cfg.record_bytes) as usize;
        for (i, op) in trace.ops.iter().take(records).enumerate() {
            assert_eq!(op.kind, TraceKind::Write);
            assert_eq!(op.len, cfg.record_bytes);
            assert_eq!(op.offset, i as u64 * cfg.record_bytes);
        }
    }

    #[test]
    fn phases_can_be_disabled() {
        let cfg = IozoneConfig {
            file_bytes: 4 * 1024 * 1024,
            record_bytes: 1024 * 1024,
            include_rewrite: false,
            include_read: false,
            random_ops: 0,
            ..IozoneConfig::default()
        };
        let trace = cfg.generate();
        assert_eq!(trace.len(), 4);
        assert!(trace.ops.iter().all(|o| o.kind == TraceKind::Write));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = IozoneConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn tiny_record_sizes_are_clamped() {
        let cfg = IozoneConfig {
            file_bytes: 64 * 1024,
            record_bytes: 512,
            random_ops: 0,
            include_read: false,
            include_rewrite: false,
            ..IozoneConfig::default()
        };
        let trace = cfg.generate();
        assert!(trace.ops.iter().all(|o| o.len >= 4096));
    }
}
