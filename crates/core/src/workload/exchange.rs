//! Exchange-server-style workload model.
//!
//! Microsoft Exchange's storage behaviour sits between OLTP and a file
//! server: random database page I/O (32 KB pages in a large mailbox
//! database), a sequential transaction log, and periodic bursts of larger
//! maintenance writes.  Table 4 of the paper reports a 4.89% response-time
//! improvement from stripe-aligned writes on its Exchange trace — more than
//! TPC-C (larger writes merge better) but far less than IOzone.

use ossd_block::{Trace, TraceKind, TraceOp};
use ossd_sim::SimRng;

/// Exchange model parameters.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ExchangeConfig {
    /// Number of client operations.
    pub operations: usize,
    /// Mailbox database size in bytes.
    pub database_bytes: u64,
    /// Database page size (Exchange uses 32 KB pages in this era).
    pub page_bytes: u64,
    /// Log region size.
    pub log_bytes: u64,
    /// Fraction of database operations that are reads.
    pub read_fraction: f64,
    /// Probability that an operation is a maintenance burst (a larger
    /// sequential write of several pages).
    pub burst_probability: f64,
    /// Pages per maintenance burst.
    pub burst_pages: u64,
    /// Access skew towards hot mailboxes (0 = uniform).
    pub skew: f64,
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
            page_bytes: 32 * 1024,
            log_bytes: 64 * 1024 * 1024,
            read_fraction: 0.55,
            burst_probability: 0.05,
            burst_pages: 8,
            skew: 0.5,
            mean_gap_micros: 400,
            seed: 0xE8C,
        }
    }
}

impl ExchangeConfig {
    /// Generates the block trace.
    pub(crate) fn generate(&self) -> Trace {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut trace = Trace::new(format!("exchange-{}", self.operations));
        let pages = (self.database_bytes / self.page_bytes).max(1) as usize;
        let log_base = self.database_bytes;
        let mut log_cursor = 0u64;
        let mut now = 0u64;
        for _ in 0..self.operations {
            if rng.chance(self.burst_probability) {
                // Maintenance burst: several contiguous pages rewritten.
                let start = rng
                    .zipf_usize(pages.saturating_sub(self.burst_pages as usize), self.skew)
                    as u64;
                for i in 0..self.burst_pages {
                    trace.push(TraceOp::new(
                        now,
                        TraceKind::Write,
                        (start + i) * self.page_bytes,
                        self.page_bytes,
                    ));
                }
            } else {
                let page = rng.zipf_usize(pages, self.skew) as u64;
                let kind = if rng.chance(self.read_fraction) {
                    TraceKind::Read
                } else {
                    TraceKind::Write
                };
                trace.push(TraceOp::new(
                    now,
                    kind,
                    page * self.page_bytes,
                    self.page_bytes,
                ));
                if kind == TraceKind::Write {
                    // Each database write is accompanied by a log append.
                    if log_cursor + 4096 > self.log_bytes {
                        log_cursor = 0;
                    }
                    trace.push(TraceOp::new(
                        now,
                        TraceKind::Write,
                        log_base + log_cursor,
                        4096,
                    ));
                    log_cursor += 4096;
                }
            }
            now += 1 + rng.next_u64_below(2 * self.mean_gap_micros.max(1));
        }
        trace
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
        let trace = cfg.generate();
        let stats = trace.stats();
        assert!(stats.reads > 0 && stats.writes > 0);
        assert_eq!(stats.frees, 0);
        assert!(stats.max_offset <= cfg.database_bytes + cfg.log_bytes);
        // Database accesses are 32 KB.
        let db_sizes: Vec<u64> = trace
            .ops
            .iter()
            .filter(|o| o.offset < cfg.database_bytes)
            .map(|o| o.len)
            .collect();
        assert!(db_sizes.iter().all(|&s| s == 32 * 1024));
        assert!(trace.is_time_ordered());
    }

    #[test]
    fn bursts_generate_contiguous_runs() {
        let cfg = ExchangeConfig {
            operations: 2000,
            burst_probability: 0.2,
            ..ExchangeConfig::default()
        };
        let trace = cfg.generate();
        // At least one run of 8 contiguous 32 KB writes must exist.
        let mut best_run = 1;
        let mut run = 1;
        for pair in trace.ops.windows(2) {
            if pair[1].kind == TraceKind::Write
                && pair[0].kind == TraceKind::Write
                && pair[1].offset == pair[0].offset + pair[0].len
            {
                run += 1;
                best_run = best_run.max(run);
            } else {
                run = 1;
            }
        }
        assert!(best_run >= cfg.burst_pages as usize, "best run {best_run}");
    }

    #[test]
    fn read_fraction_is_respected() {
        let cfg = ExchangeConfig {
            operations: 4000,
            burst_probability: 0.0,
            read_fraction: 0.7,
            ..ExchangeConfig::default()
        };
        let trace = cfg.generate();
        let db_ops: Vec<_> = trace
            .ops
            .iter()
            .filter(|o| o.offset < cfg.database_bytes)
            .collect();
        let reads = db_ops.iter().filter(|o| o.kind == TraceKind::Read).count();
        let frac = reads as f64 / db_ops.len() as f64;
        assert!((frac - 0.7).abs() < 0.05, "read fraction {frac}");
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
