//! IOzone-style large-file workload model.
//!
//! IOzone's automatic mode writes a large file sequentially with a given
//! record size, rewrites it, reads it back sequentially, and finishes with
//! a random read/write phase.  Because its writes are large and sequential,
//! it benefits the most from device-side stripe alignment — the paper
//! reports a 36.54% response-time improvement (Table 4), an order of
//! magnitude more than the small-write workloads.

use ossd_block::{BlockOpKind, BlockRequest};
use ossd_sim::SimRng;

use super::push;

/// Record (request) size in bytes.
const RECORD_BYTES: u64 = 1024 * 1024;

/// IOzone model parameters.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct IozoneConfig {
    /// Size of the test file in bytes.
    pub file_bytes: u64,
    /// Number of operations in the final random phase.
    pub random_ops: usize,
    /// Mean gap between requests in microseconds.
    pub mean_gap_micros: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IozoneConfig {
    fn default() -> Self {
        IozoneConfig {
            file_bytes: 64 * 1024 * 1024,
            random_ops: 64,
            mean_gap_micros: 200,
            seed: 0x102,
        }
    }
}

impl IozoneConfig {
    /// Generates the requests: write, rewrite, read, then random mix.
    pub(crate) fn generate(&self) -> Vec<BlockRequest> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut requests = Vec::new();
        let records = (self.file_bytes / RECORD_BYTES).max(1);
        let mut now = 0u64;
        let gap = |rng: &mut SimRng, now: &mut u64| {
            *now += 1 + rng.next_u64_below(2 * self.mean_gap_micros.max(1));
        };

        // Phases 1-3: sequential write, rewrite and read of every record.
        for kind in [BlockOpKind::Write, BlockOpKind::Write, BlockOpKind::Read] {
            for i in 0..records {
                push(&mut requests, now, kind, i * RECORD_BYTES, RECORD_BYTES);
                gap(&mut rng, &mut now);
            }
        }
        // Phase 4: random read/write of records.
        for _ in 0..self.random_ops {
            let rec = rng.next_u64_below(records);
            let kind = if rng.chance(0.5) {
                BlockOpKind::Read
            } else {
                BlockOpKind::Write
            };
            push(&mut requests, now, kind, rec * RECORD_BYTES, RECORD_BYTES);
            gap(&mut rng, &mut now);
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_present_and_sized() {
        let cfg = IozoneConfig {
            file_bytes: 8 * 1024 * 1024,
            random_ops: 10,
            ..IozoneConfig::default()
        };
        let requests = cfg.generate();
        let count = |kind| requests.iter().filter(|r| r.kind == kind).count();
        // 8 writes + 8 rewrites + 8 reads + ~10 random.
        assert_eq!(requests.len(), 8 + 8 + 8 + 10);
        assert!(count(BlockOpKind::Write) >= 16);
        assert!(count(BlockOpKind::Read) >= 8);
        assert_eq!(count(BlockOpKind::Free), 0);
        assert!(requests.iter().all(|r| r.range.end() <= cfg.file_bytes));
    }

    #[test]
    fn writes_are_large_and_sequential_in_phase_one() {
        let cfg = IozoneConfig::default();
        let requests = cfg.generate();
        let records = (cfg.file_bytes / RECORD_BYTES) as usize;
        for (i, r) in requests.iter().take(records).enumerate() {
            assert_eq!(r.kind, BlockOpKind::Write);
            assert_eq!(r.range.len, RECORD_BYTES);
            assert_eq!(r.range.offset, i as u64 * RECORD_BYTES);
        }
    }

    #[test]
    fn phases_run_write_rewrite_read_in_order() {
        let cfg = IozoneConfig {
            file_bytes: 4 * 1024 * 1024,
            random_ops: 0,
            ..IozoneConfig::default()
        };
        let requests = cfg.generate();
        let (w, r) = (BlockOpKind::Write, BlockOpKind::Read);
        let kinds: Vec<BlockOpKind> = requests.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [w, w, w, w, w, w, w, w, r, r, r, r]);
        let offsets: Vec<u64> = requests.iter().map(|r| r.range.offset >> 20).collect();
        assert_eq!(offsets, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = IozoneConfig::default();
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn every_request_is_one_whole_record() {
        let cfg = IozoneConfig {
            file_bytes: 8 * 1024 * 1024,
            ..IozoneConfig::default()
        };
        let whole = |r: &BlockRequest| {
            r.range.len == RECORD_BYTES && r.range.offset.is_multiple_of(RECORD_BYTES)
        };
        assert!(cfg.generate().iter().all(whole));
    }
}
