//! Postmark-style small-file workload model.
//!
//! Postmark (Katcher, 1997) simulates a mail/news server: it creates a pool
//! of small files and then runs transactions, each of which either reads,
//! appends to, creates or deletes a file.  The paper replays Postmark traces
//! with 5 000–8 000 transactions against an 8 GB SSD to evaluate informed
//! cleaning (Table 5) and also uses it in the alignment study (Table 4).
//! File deletion is what produces the stream of block-free notifications
//! informed cleaning feeds on.

use ossd_block::{BlockOpKind, BlockRequest, ByteRange};
use ossd_sim::SimRng;

use super::fslite::FsLite;
use super::push;

/// File-system allocation block size.
const BLOCK_BYTES: u64 = 4096;
/// Smallest file size in bytes.
const MIN_FILE_BYTES: u64 = 512;
/// Largest file size in bytes.
const MAX_FILE_BYTES: u64 = 16 * 1024;
/// Probability that a transaction is a read (vs. an append).
const READ_BIAS: f64 = 0.5;
/// Probability that a transaction also creates one file and deletes
/// another (keeping the pool size roughly constant).
const CREATE_DELETE_BIAS: f64 = 0.5;

/// Postmark model parameters (defaults follow the benchmark's classic
/// configuration scaled to the paper's transaction counts).
#[derive(Clone, Debug, PartialEq)]
pub struct PostmarkConfig {
    /// Number of transactions to run after the initial file pool is built.
    pub transactions: usize,
    /// Number of files created up front.
    pub initial_files: usize,
    /// Size of the volume the files live on.
    pub volume_bytes: u64,
    /// Mean gap between transactions in microseconds.
    pub mean_gap_micros: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PostmarkConfig {
    fn default() -> Self {
        PostmarkConfig {
            transactions: 5000,
            initial_files: 500,
            volume_bytes: 256 * 1024 * 1024,
            mean_gap_micros: 300,
            seed: 0xB05,
        }
    }
}

impl PostmarkConfig {
    /// Generates the requests (reads, writes and frees).  Each create and
    /// append also emits a small metadata write (inode table / block bitmap
    /// / journal), as an Ext3-backed trace contains: it lands in the first
    /// sixteenth of the volume and breaks the contiguity of the data stream.
    pub fn generate(&self) -> Vec<BlockRequest> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut fs = FsLite::new(self.volume_bytes, BLOCK_BYTES);
        let mut requests = Vec::new();
        let mut now: u64 = 0;
        let metadata_slots = (self.volume_bytes / 16 / BLOCK_BYTES).max(1);

        let emit_extents = |requests: &mut Vec<BlockRequest>,
                            now: u64,
                            kind: BlockOpKind,
                            extents: &[ByteRange]| {
            for e in extents {
                push(requests, now, kind, e.offset, e.len);
            }
        };
        let emit_metadata = |requests: &mut Vec<BlockRequest>, rng: &mut SimRng, now: u64| {
            let offset = rng.next_u64_below(metadata_slots) * BLOCK_BYTES;
            push(requests, now, BlockOpKind::Write, offset, BLOCK_BYTES);
        };

        // Initial pool.
        for _ in 0..self.initial_files {
            let size = rng.uniform_u64(MIN_FILE_BYTES, MAX_FILE_BYTES + 1);
            if let Ok((_, extents)) = fs.create(size) {
                emit_extents(&mut requests, now, BlockOpKind::Write, &extents);
                emit_metadata(&mut requests, &mut rng, now);
                now += 1 + rng.next_u64_below(self.mean_gap_micros.max(1));
            }
        }

        // Transactions.
        for _ in 0..self.transactions {
            let files = fs.file_ids();
            if files.is_empty() {
                let size = rng.uniform_u64(MIN_FILE_BYTES, MAX_FILE_BYTES + 1);
                if let Ok((_, extents)) = fs.create(size) {
                    emit_extents(&mut requests, now, BlockOpKind::Write, &extents);
                }
                now += 1 + rng.next_u64_below(self.mean_gap_micros.max(1));
                continue;
            }
            let target = *rng.choose(&files).expect("files is non-empty");
            if rng.chance(READ_BIAS) {
                // Read the whole file.
                if let Ok(extents) = fs.extents(target) {
                    emit_extents(&mut requests, now, BlockOpKind::Read, extents);
                }
            } else {
                // Append a small amount.
                let grow = rng.uniform_u64(512, 8 * 1024);
                if let Ok(extents) = fs.append(target, grow) {
                    emit_extents(&mut requests, now, BlockOpKind::Write, &extents);
                    emit_metadata(&mut requests, &mut rng, now);
                }
            }
            if rng.chance(CREATE_DELETE_BIAS) {
                // Delete one file (emitting frees) and create a fresh one.
                let victim = *rng.choose(&files).expect("files is non-empty");
                if let Ok(freed) = fs.delete(victim) {
                    emit_extents(&mut requests, now, BlockOpKind::Free, &freed);
                }
                let size = rng.uniform_u64(MIN_FILE_BYTES, MAX_FILE_BYTES + 1);
                if let Ok((_, extents)) = fs.create(size) {
                    emit_extents(&mut requests, now, BlockOpKind::Write, &extents);
                    emit_metadata(&mut requests, &mut rng, now);
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
    fn produces_reads_writes_and_frees() {
        let requests = PostmarkConfig {
            transactions: 500,
            initial_files: 100,
            ..PostmarkConfig::default()
        }
        .generate();
        for kind in [BlockOpKind::Read, BlockOpKind::Write, BlockOpKind::Free] {
            assert!(
                requests.iter().any(|r| r.kind == kind),
                "no {kind:?} generated"
            );
        }
        assert!(requests.iter().all(|r| r.range.end() <= 256 * 1024 * 1024));
    }

    #[test]
    fn more_transactions_mean_more_operations() {
        let with = |transactions| PostmarkConfig {
            transactions,
            ..PostmarkConfig::default()
        };
        assert!(with(2000).generate().len() > with(1000).generate().len());
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
        // point in the stream (the file existed before it was deleted).
        let requests = PostmarkConfig {
            transactions: 400,
            initial_files: 50,
            ..PostmarkConfig::default()
        }
        .generate();
        use std::collections::HashSet;
        let mut written: HashSet<u64> = HashSet::new();
        for r in &requests {
            let blocks = (r.range.offset..r.range.end()).step_by(4096);
            match r.kind {
                BlockOpKind::Write => written.extend(blocks.map(|b| b / 4096)),
                BlockOpKind::Free => {
                    for b in blocks {
                        assert!(
                            written.contains(&(b / 4096)),
                            "freed block {b} was never written"
                        );
                    }
                }
                BlockOpKind::Read => {}
            }
        }
    }

    #[test]
    fn small_files_dominate_write_sizes() {
        let requests = PostmarkConfig {
            transactions: 500,
            ..PostmarkConfig::default()
        }
        .generate();
        let mut write_sizes: Vec<u64> = (requests.iter())
            .filter(|r| r.kind == BlockOpKind::Write)
            .map(|r| r.range.len)
            .collect();
        write_sizes.sort_unstable();
        let median = write_sizes[write_sizes.len() / 2];
        assert!(median <= 32 * 1024, "median write {median} too large");
    }
}
