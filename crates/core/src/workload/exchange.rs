//! Exchange-server-style workload model.
//!
//! Microsoft Exchange's storage behaviour sits between OLTP and a file
//! server: random database page I/O (32 KB pages in a large mailbox
//! database), a sequential transaction log, and periodic bursts of larger
//! maintenance writes.  Table 4 of the paper reports a 4.89% response-time
//! improvement from stripe-aligned writes on its Exchange trace — more than
//! TPC-C (larger writes merge better) but far less than IOzone.

use ossd_block::{BlockOpKind, BlockRequest};
use ossd_sim::SimRng;

use super::push;

/// Database page size (Exchange uses 32 KB pages in this era).
const PAGE_BYTES: u64 = 32 * 1024;
/// Fraction of database operations that are reads.
const READ_FRACTION: f64 = 0.55;
/// Probability that an operation is a maintenance burst (a larger
/// sequential write of several pages).
const BURST_PROBABILITY: f64 = 0.05;
/// Pages per maintenance burst.
const BURST_PAGES: u64 = 8;
/// Access skew towards hot mailboxes (0 = uniform).
const SKEW: f64 = 0.5;

/// Exchange model parameters.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ExchangeConfig {
    /// Number of client operations.
    pub operations: usize,
    /// Mailbox database size in bytes.
    pub database_bytes: u64,
    /// Log region size.
    pub log_bytes: u64,
    /// Mean gap between operations in microseconds.
    pub mean_gap_micros: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            operations: 3000,
            database_bytes: 512 * 1024 * 1024,
            log_bytes: 64 * 1024 * 1024,
            mean_gap_micros: 400,
            seed: 0xE8C,
        }
    }
}

impl ExchangeConfig {
    /// Generates the requests.
    pub(crate) fn generate(&self) -> Vec<BlockRequest> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut requests = Vec::new();
        let size = PAGE_BYTES;
        let pages = (self.database_bytes / size).max(1) as usize;
        let log_base = self.database_bytes;
        let mut log_cursor = 0u64;
        let mut now = 0u64;
        for _ in 0..self.operations {
            if rng.chance(BURST_PROBABILITY) {
                // Maintenance burst: several contiguous pages rewritten.
                let start = rng.zipf_usize(pages.saturating_sub(BURST_PAGES as usize), SKEW) as u64;
                for i in 0..BURST_PAGES {
                    let offset = (start + i) * size;
                    push(&mut requests, now, BlockOpKind::Write, offset, size);
                }
            } else {
                let page = rng.zipf_usize(pages, SKEW) as u64;
                let kind = if rng.chance(READ_FRACTION) {
                    BlockOpKind::Read
                } else {
                    BlockOpKind::Write
                };
                push(&mut requests, now, kind, page * size, size);
                if kind == BlockOpKind::Write {
                    // Each database write is accompanied by a log append.
                    if log_cursor + 4096 > self.log_bytes {
                        log_cursor = 0;
                    }
                    let offset = log_base + log_cursor;
                    push(&mut requests, now, BlockOpKind::Write, offset, 4096);
                    log_cursor += 4096;
                }
            }
            now += 1 + rng.next_u64_below(2 * self.mean_gap_micros.max(1));
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_mixed_io_with_larger_pages_than_tpcc() {
        let cfg = ExchangeConfig {
            operations: 1000,
            ..ExchangeConfig::default()
        };
        let requests = cfg.generate();
        let has = |kind| requests.iter().any(|r| r.kind == kind);
        assert!(has(BlockOpKind::Read) && has(BlockOpKind::Write));
        assert!(!has(BlockOpKind::Free));
        let volume = cfg.database_bytes + cfg.log_bytes;
        assert!(requests.iter().all(|r| r.range.end() <= volume));
        // Database accesses are 32 KB.
        assert!((requests.iter())
            .filter(|r| r.range.offset < cfg.database_bytes)
            .all(|r| r.range.len == 32 * 1024));
    }

    #[test]
    fn bursts_generate_contiguous_runs() {
        let cfg = ExchangeConfig {
            operations: 2000,
            ..ExchangeConfig::default()
        };
        let requests = cfg.generate();
        // At least one run of 8 contiguous 32 KB writes must exist.
        let mut best_run = 1;
        let mut run = 1;
        for pair in requests.windows(2) {
            if pair[1].kind == BlockOpKind::Write
                && pair[0].kind == BlockOpKind::Write
                && pair[1].range.offset == pair[0].range.end()
            {
                run += 1;
                best_run = best_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(best_run >= BURST_PAGES as usize, "best run {best_run}");
    }

    #[test]
    fn read_fraction_is_respected() {
        // Every read is one single-page operation that is not a burst.
        let cfg = ExchangeConfig {
            operations: 4000,
            ..ExchangeConfig::default()
        };
        let requests = cfg.generate();
        let reads = (requests.iter())
            .filter(|r| r.kind == BlockOpKind::Read)
            .count();
        let frac = reads as f64 / cfg.operations as f64;
        let expected = (1.0 - BURST_PROBABILITY) * READ_FRACTION;
        assert!((frac - expected).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ExchangeConfig {
            operations: 200,
            ..ExchangeConfig::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
    }
}
