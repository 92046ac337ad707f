//! Property-based tests of the core invariants the simulators rely on.
//!
//! The workspace has no external property-testing dependency; these tests
//! hand-roll the same discipline with the deterministic [`SimRng`]: each
//! property is checked over a few hundred seeded random cases, and every
//! failure message includes the case seed so a counterexample reproduces
//! exactly.

use ossd::block::{BlockDevice, BlockRequest, ByteRange};
use ossd::flash::{ElementId, FlashElement, FlashGeometry};
use ossd::ftl::{Ftl, FtlConfig, Lpn, PageFtl, WriteContext};
use ossd::sim::{SimDuration, SimRng, SimTime, Summary};
use ossd::ssd::{Ssd, SsdConfig};

/// Runs `property` on `cases` seeded random cases.
fn for_each_case(cases: u64, mut property: impl FnMut(u64, &mut SimRng)) {
    for seed in 0..cases {
        let mut rng = SimRng::seed_from_u64(0xB10C_0000 ^ seed);
        property(seed, &mut rng);
    }
}

/// Splitting a byte range at chunk boundaries loses no bytes and keeps
/// every piece inside one chunk.
#[test]
fn byte_range_chunking_is_lossless() {
    for_each_case(300, |seed, rng| {
        let offset = rng.next_u64_below(1_000_000);
        let len = 1 + rng.next_u64_below(100_000);
        let unit = 1 + rng.next_u64_below(65_535);
        let range = ByteRange::new(offset, len);
        let pieces = range.split_by_chunk(unit);
        assert_eq!(
            pieces.iter().map(|p| p.len).sum::<u64>(),
            len,
            "case {seed}: bytes lost splitting {range:?} by {unit}"
        );
        assert_eq!(pieces.first().unwrap().offset, offset, "case {seed}");
        assert_eq!(pieces.last().unwrap().end(), range.end(), "case {seed}");
        for piece in pieces {
            assert_eq!(
                piece.first_chunk(unit),
                piece.last_chunk(unit),
                "case {seed}: piece {piece:?} spans chunks of {unit}"
            );
        }
    });
}

/// A flash block's page-state counters always sum to the block size, no
/// matter what sequence of programs and invalidates is applied.
#[test]
fn flash_block_counters_are_consistent() {
    for_each_case(200, |seed, rng| {
        // Block 0 of a one-block element: the element owns its blocks' page
        // bitmap, so a block is driven through it.
        let mut element = FlashElement::new(ElementId(0), 1, 32);
        let ops = 1 + rng.next_usize_below(199);
        for _ in 0..ops {
            let block = element.block(0).unwrap().clone();
            match rng.next_u64_below(3) {
                0 => {
                    let _ = element.program_run(0, 1);
                }
                1 => {
                    if block.write_ptr() > 0 {
                        let _ = element.invalidate(0, block.write_ptr() - 1);
                    }
                }
                _ => {
                    if block.valid_count() == 0 && block.write_ptr() > 0 {
                        let _ = element.erase(0);
                    }
                }
            }
            let block = element.block(0).unwrap();
            assert_eq!(
                block.valid_count() + block.invalid_count() + block.free_count(),
                block.pages(),
                "case {seed}: counters diverged from block size"
            );
        }
    });
}

/// The page-mapped FTL keeps exactly one valid physical page per mapped
/// logical page, across arbitrary write/free sequences.
#[test]
fn page_ftl_mapping_invariant() {
    for_each_case(120, |seed, rng| {
        let config = FtlConfig::informed()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut ftl = PageFtl::new(
            FlashGeometry::tiny(),
            ossd::flash::FlashTiming::slc(),
            config,
        )
        .unwrap();
        let logical = ftl.logical_pages();
        let mut mapped = std::collections::HashSet::new();
        let ops = 1 + rng.next_usize_below(299);
        for _ in 0..ops {
            let lpn = rng.next_u64_below(logical);
            if rng.chance(0.5) {
                ftl.write(Lpn(lpn), 4096, &WriteContext::idle()).unwrap();
                mapped.insert(lpn);
            } else {
                ftl.free(Lpn(lpn)).unwrap();
                mapped.remove(&lpn);
            }
        }
        assert_eq!(
            ftl.flash().valid_pages(),
            mapped.len() as u64,
            "case {seed}: valid pages diverged from the mapped set"
        );
        for lpn in 0..logical {
            assert_eq!(
                ftl.is_mapped(Lpn(lpn)),
                mapped.contains(&lpn),
                "case {seed}: mapping of lpn {lpn} diverged"
            );
        }
    });
}

/// No cleaning policy ever relocates-and-loses a valid page: after an
/// arbitrary interleaving of writes, frees, overwrites and budgeted
/// background-cleaning steps, every mapped logical page is still mapped
/// and backed by exactly one valid physical page, for all four policies.
#[test]
fn no_policy_loses_a_valid_page_under_clean_write_interleavings() {
    for kind in ossd::gc::CleaningPolicyKind::all() {
        for_each_case(60, |seed, rng| {
            let config = FtlConfig::informed()
                .with_overprovisioning(0.25)
                .with_watermarks(0.3, 0.1)
                .with_cleaning_policy(kind);
            let mut ftl = PageFtl::new(
                FlashGeometry::tiny(),
                ossd::flash::FlashTiming::slc(),
                config,
            )
            .unwrap();
            let logical = ftl.logical_pages();
            let mut mapped = std::collections::HashSet::new();
            let ops = 50 + rng.next_usize_below(250);
            for _ in 0..ops {
                let lpn = rng.next_u64_below(logical);
                match rng.next_u64_below(4) {
                    // Writes (and overwrites) dominate so cleaning stays
                    // busy.
                    0 | 1 => {
                        ftl.write(Lpn(lpn), 4096, &WriteContext::idle()).unwrap();
                        mapped.insert(lpn);
                    }
                    2 => {
                        ftl.free(Lpn(lpn)).unwrap();
                        mapped.remove(&lpn);
                    }
                    // An idle window: budgeted background cleaning
                    // interleaved at an arbitrary point.
                    _ => {
                        let budget = 1 + rng.next_u64_below(3) as u32;
                        ftl.background_clean(budget, 0.5).unwrap();
                    }
                }
                // The invariant holds at every step, not just at the end.
                assert_eq!(
                    ftl.flash().valid_pages(),
                    mapped.len() as u64,
                    "{} case {seed}: cleaning lost or duplicated a page",
                    kind.name()
                );
            }
            for lpn in 0..logical {
                assert_eq!(
                    ftl.is_mapped(Lpn(lpn)),
                    mapped.contains(&lpn),
                    "{} case {seed}: mapping of lpn {lpn} diverged",
                    kind.name()
                );
            }
        });
    }
}

/// Completions from the SSD are causally ordered: finish >= start >=
/// arrival, and time never runs backwards across a request stream.
#[test]
fn ssd_completions_are_causal() {
    for_each_case(100, |seed, _rng| {
        let mut ssd = Ssd::new(SsdConfig::tiny_page_mapped()).unwrap();
        let capacity = ssd.capacity_bytes();
        let mut arrival = SimTime::ZERO;
        for i in 0..50u64 {
            let offset =
                ((seed.wrapping_mul(31).wrapping_add(i * 7919)) % (capacity / 4096)) * 4096;
            let req = if i % 3 == 0 {
                BlockRequest::read(i, offset, 4096, arrival)
            } else {
                BlockRequest::write(i, offset, 4096, arrival)
            };
            let completion = ssd.submit(&req).unwrap();
            assert!(completion.start >= req.arrival, "case {seed} request {i}");
            assert!(
                completion.finish >= completion.start,
                "case {seed} request {i}"
            );
            arrival += SimDuration::from_micros(50);
        }
    });
}

/// The online summary matches a direct computation of mean and extrema.
#[test]
fn summary_matches_reference() {
    for_each_case(300, |seed, rng| {
        let n = 1 + rng.next_usize_below(199);
        let values: Vec<f64> = (0..n).map(|_| (rng.next_f64() - 0.5) * 2e6).collect();
        let mut summary = Summary::new();
        for &v in &values {
            summary.record(v);
        }
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (summary.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0),
            "case {seed}: mean {} vs reference {mean}",
            summary.mean()
        );
        assert_eq!(summary.min(), min, "case {seed}");
        assert_eq!(summary.max(), max, "case {seed}");
        assert_eq!(summary.count(), values.len() as u64, "case {seed}");
    });
}
