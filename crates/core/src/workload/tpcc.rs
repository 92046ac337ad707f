//! TPC-C-style OLTP workload model.
//!
//! The block-level signature of a TPC-C run is a stream of small (8 KB)
//! page reads and writes scattered over a large database with significant
//! hot/cold skew, plus a strictly sequential write-ahead log.  Table 4 of
//! the paper replays such a trace to measure how much device-side
//! stripe-aligned write merging helps (answer: a little — 3.08% — because
//! most writes are small and random).
//!
//! The log is rewritten constantly as it wraps: a textbook hot stream.  A
//! block request cannot say so; a host that can sends its writes with a
//! `StreamTemperature::Hot` hint through `HostCommand::Write`.

use ossd_block::{BlockOpKind, BlockRequest};
use ossd_sim::SimRng;

use super::push;

/// Database page size (8 KB is the classic OLTP page).
const PAGE_BYTES: u64 = 8192;
/// Pages read per transaction.
const READS_PER_TXN: usize = 4;
/// Pages written per transaction.
const WRITES_PER_TXN: usize = 2;
/// Log bytes written per transaction.
const LOG_WRITE_BYTES: u64 = 2048;
/// Zipf-like skew of page accesses (0 = uniform).
const SKEW: f64 = 0.6;

/// TPC-C model parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct TpccConfig {
    /// Number of transactions.
    pub transactions: usize,
    /// Database size in bytes (the data region of the volume).
    pub database_bytes: u64,
    /// Size of the log region appended to sequentially.
    pub log_bytes: u64,
    /// Mean gap between transactions in microseconds.
    pub mean_gap_micros: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TpccConfig {
    fn default() -> Self {
        TpccConfig {
            transactions: 2000,
            database_bytes: 512 * 1024 * 1024,
            log_bytes: 64 * 1024 * 1024,
            mean_gap_micros: 500,
            seed: 0x7CC,
        }
    }
}

impl TpccConfig {
    /// Generates the requests.  The log region is laid out after the
    /// database region.
    pub fn generate(&self) -> Vec<BlockRequest> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut requests = Vec::new();
        let size = PAGE_BYTES;
        let pages = (self.database_bytes / size).max(1) as usize;
        let log_base = self.database_bytes;
        let mut log_cursor = 0u64;
        let mut now = 0u64;
        for _ in 0..self.transactions {
            for _ in 0..READS_PER_TXN {
                let page = rng.zipf_usize(pages, SKEW) as u64;
                push(&mut requests, now, BlockOpKind::Read, page * size, size);
            }
            for _ in 0..WRITES_PER_TXN {
                let page = rng.zipf_usize(pages, SKEW) as u64;
                push(&mut requests, now, BlockOpKind::Write, page * size, size);
            }
            // Sequential commit record in the log (wraps around).
            let len = LOG_WRITE_BYTES;
            if log_cursor + len > self.log_bytes {
                log_cursor = 0;
            }
            push(
                &mut requests,
                now,
                BlockOpKind::Write,
                log_base + log_cursor,
                len,
            );
            log_cursor += len;
            now += 1 + rng.next_u64_below(2 * self.mean_gap_micros.max(1));
        }
        requests
    }

    /// Total volume size the requests assume (database plus log).
    pub fn volume_bytes(&self) -> u64 {
        self.database_bytes + self.log_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_and_sizes_match_oltp_shape() {
        let cfg = TpccConfig {
            transactions: 500,
            ..TpccConfig::default()
        };
        let requests = cfg.generate();
        let count = |kind| requests.iter().filter(|r| r.kind == kind).count();
        // 4 reads + 2 data writes + 1 log write per transaction.
        assert_eq!(count(BlockOpKind::Read), 500 * 4);
        assert_eq!(count(BlockOpKind::Write), 500 * 3);
        assert_eq!(count(BlockOpKind::Free), 0);
        assert!(requests.iter().all(|r| r.range.end() <= cfg.volume_bytes()));
    }

    #[test]
    fn log_writes_are_sequential() {
        let cfg = TpccConfig {
            transactions: 200,
            ..TpccConfig::default()
        };
        let requests = cfg.generate();
        let log: Vec<&BlockRequest> = (requests.iter())
            .filter(|r| r.range.offset >= cfg.database_bytes)
            .collect();
        assert_eq!(log.len(), 200);
        for pair in log.windows(2) {
            // Either contiguous or wrapped back to the start of the log.
            let contiguous = pair[1].range.offset == pair[0].range.end();
            let wrapped = pair[1].range.offset == cfg.database_bytes;
            assert!(contiguous || wrapped);
        }
    }

    #[test]
    fn accesses_are_skewed_towards_hot_pages() {
        let cfg = TpccConfig::default();
        let requests = cfg.generate();
        let pages = cfg.database_bytes / PAGE_BYTES;
        let hot_cutoff = pages / 10;
        let data: Vec<&BlockRequest> = (requests.iter())
            .filter(|r| r.range.offset < cfg.database_bytes)
            .collect();
        let hot = (data.iter())
            .filter(|r| r.range.offset / PAGE_BYTES < hot_cutoff)
            .count();
        let frac = hot as f64 / data.len() as f64;
        assert!(frac > 0.25, "hot-decile fraction {frac} not skewed");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TpccConfig {
            transactions: 100,
            ..TpccConfig::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
    }
}
