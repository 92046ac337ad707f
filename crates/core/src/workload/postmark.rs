//! Postmark-style small-file workload model.
//!
//! Postmark (Katcher, 1997) simulates a mail/news server: it creates a pool
//! of small files and then runs transactions, each of which either reads,
//! appends to, creates or deletes a file.  The paper replays Postmark traces
//! with 5 000–8 000 transactions against an 8 GB SSD to evaluate informed
//! cleaning (Table 5) and also uses it in the alignment study (Table 4).
//! File deletion is what produces the stream of block-free notifications
//! informed cleaning feeds on.

use ossd_block::{Trace, TraceKind, TraceOp};
use ossd_sim::SimRng;

use super::fslite::FsLite;

/// Postmark model parameters (defaults follow the benchmark's classic
/// configuration scaled to the paper's transaction counts).
#[derive(Clone, Debug, PartialEq)]
pub struct PostmarkConfig {
    /// Number of transactions to run after the initial file pool is built.
    pub transactions: usize,
    /// Number of files created up front.
    pub initial_files: usize,
    /// Minimum file size in bytes.
    pub min_file_bytes: u64,
    /// Maximum file size in bytes.
    pub max_file_bytes: u64,
    /// Size of the volume the files live on.
    pub volume_bytes: u64,
    /// File-system allocation block size.
    pub block_bytes: u64,
    /// Probability that a transaction is a read (vs. an append).
    pub read_bias: f64,
    /// Probability that a transaction also creates one file and deletes
    /// another (keeping the pool size roughly constant).
    pub create_delete_bias: f64,
    /// Mean gap between transactions in microseconds.
    pub mean_gap_micros: u64,
    /// Whether each create/append/delete also emits a small metadata write
    /// (inode table / block bitmap / journal), as an Ext3-backed trace
    /// contains.  Metadata writes land in the first sixteenth of the volume
    /// and break the contiguity of the data stream.
    pub metadata_writes: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            transactions: 5000,
            initial_files: 500,
            min_file_bytes: 512,
            max_file_bytes: 16 * 1024,
            volume_bytes: 256 * 1024 * 1024,
            block_bytes: 4096,
            read_bias: 0.5,
            create_delete_bias: 0.5,
            mean_gap_micros: 300,
            metadata_writes: true,
            seed: 0xB05,
        }
    }
}

impl PostmarkConfig {
    /// Generates the block trace (reads, writes and frees).
    pub fn generate(&self) -> Trace {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut fs = FsLite::new(self.volume_bytes, self.block_bytes);
        let mut trace = Trace::new(format!("postmark-{}", self.transactions));
        let mut now: u64 = 0;
        let metadata_region = (self.volume_bytes / 16).max(self.block_bytes);
        let metadata_slots = (metadata_region / self.block_bytes).max(1);

        let emit_write_extents =
            |trace: &mut Trace, now: u64, extents: &[ossd_block::ByteRange]| {
                for e in extents {
                    trace.push(TraceOp::new(now, TraceKind::Write, e.offset, e.len));
                }
            };
        let emit_metadata = |trace: &mut Trace, rng: &mut SimRng, now: u64, enabled: bool| {
            if !enabled {
                return;
            }
            let slot = rng.next_u64_below(metadata_slots);
            trace.push(TraceOp::new(
                now,
                TraceKind::Write,
                slot * self.block_bytes,
                self.block_bytes,
            ));
        };

        // Initial pool.
        for _ in 0..self.initial_files {
            let size = rng.uniform_u64(self.min_file_bytes, self.max_file_bytes + 1);
            if let Ok((_, extents)) = fs.create(size) {
                emit_write_extents(&mut trace, now, &extents);
                emit_metadata(&mut trace, &mut rng, now, self.metadata_writes);
                now += 1 + rng.next_u64_below(self.mean_gap_micros.max(1));
            }
        }

        // Transactions.
        for _ in 0..self.transactions {
            let files = fs.file_ids();
            if files.is_empty() {
                let size = rng.uniform_u64(self.min_file_bytes, self.max_file_bytes + 1);
                if let Ok((_, extents)) = fs.create(size) {
                    emit_write_extents(&mut trace, now, &extents);
                }
                now += 1 + rng.next_u64_below(self.mean_gap_micros.max(1));
                continue;
            }
            let target = *rng.choose(&files).expect("files is non-empty");
            if rng.chance(self.read_bias) {
                // Read the whole file.
                if let Ok(extents) = fs.extents(target) {
                    for e in extents.iter().copied() {
                        trace.push(TraceOp::new(now, TraceKind::Read, e.offset, e.len));
                    }
                }
            } else {
                // Append a small amount.
                let grow = rng.uniform_u64(512, 8 * 1024);
                if let Ok(extents) = fs.append(target, grow) {
                    emit_write_extents(&mut trace, now, &extents);
                    emit_metadata(&mut trace, &mut rng, now, self.metadata_writes);
                }
            }
            if rng.chance(self.create_delete_bias) {
                // Delete one file (emitting frees) and create a fresh one.
                let victim = *rng.choose(&files).expect("files is non-empty");
                if let Ok(freed) = fs.delete(victim) {
                    for e in freed {
                        trace.push(TraceOp::new(now, TraceKind::Free, e.offset, e.len));
                    }
                }
                let size = rng.uniform_u64(self.min_file_bytes, self.max_file_bytes + 1);
                if let Ok((_, extents)) = fs.create(size) {
                    emit_write_extents(&mut trace, now, &extents);
                    emit_metadata(&mut trace, &mut rng, now, self.metadata_writes);
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
    fn produces_reads_writes_and_frees() {
        let trace = PostmarkConfig {
            transactions: 500,
            initial_files: 100,
            ..PostmarkConfig::default()
        }
        .generate();
        let stats = trace.stats();
        assert!(stats.reads > 0, "no reads generated");
        assert!(stats.writes > 0, "no writes generated");
        assert!(stats.frees > 0, "no free notifications generated");
        assert!(trace.is_time_ordered());
        assert!(stats.max_offset <= 256 * 1024 * 1024);
    }

    #[test]
    fn more_transactions_mean_more_operations() {
        let with = |transactions| PostmarkConfig {
            transactions,
            ..PostmarkConfig::default()
        };
        let small = with(1000).generate();
        let large = with(2000).generate();
        assert!(large.len() > small.len());
        assert!(large.name.contains("2000"));
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PostmarkConfig {
            transactions: 300,
            ..PostmarkConfig::default()
        };
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn frees_match_previously_written_space() {
        // Every freed byte range must have been written at some earlier
        // point in the trace (the file existed before it was deleted).
        let trace = PostmarkConfig {
            transactions: 400,
            initial_files: 50,
            ..PostmarkConfig::default()
        }
        .generate();
        use std::collections::HashSet;
        let mut written: HashSet<u64> = HashSet::new();
        for op in &trace.ops {
            match op.kind {
                TraceKind::Write => {
                    let mut b = op.offset;
                    while b < op.offset + op.len {
                        written.insert(b / 4096);
                        b += 4096;
                    }
                }
                TraceKind::Free => {
                    let mut b = op.offset;
                    while b < op.offset + op.len {
                        assert!(
                            written.contains(&(b / 4096)),
                            "freed block {b} was never written"
                        );
                        b += 4096;
                    }
                }
                TraceKind::Read | TraceKind::Flush | TraceKind::Barrier => {}
            }
        }
    }

    #[test]
    fn small_files_dominate_write_sizes() {
        let trace = PostmarkConfig {
            transactions: 500,
            ..PostmarkConfig::default()
        }
        .generate();
        let mut write_sizes: Vec<u64> = trace
            .ops
            .iter()
            .filter(|o| o.kind == TraceKind::Write)
            .map(|o| o.len)
            .collect();
        write_sizes.sort_unstable();
        let median = write_sizes[write_sizes.len() / 2];
        assert!(median <= 32 * 1024, "median write {median} too large");
    }
}
