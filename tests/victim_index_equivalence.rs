//! Property suite for the incremental victim-selection index.
//!
//! The index (`ossd_gc::VictimIndex`) is maintained incrementally by the
//! FTLs on every page invalidation, relocation, erase, free hint and block
//! retirement.  These seeded tests drive both FTLs through randomized
//! write/free/read/background-GC sequences — with fault injection *on*, so
//! program failures, burned pages, grown bad blocks and retirements all
//! occur — and repeatedly assert, via the FTLs' `check_victim_index`
//! validation hook, that
//!
//! 1. the incremental index equals a from-scratch full-scan recompute of
//!    the candidate set, and
//! 2. all four cleaning policies pick the same victim from the index as
//!    from the recomputed legacy candidate slice.
//!
//! A final pair of regression tests pins the Greedy victim trace of the
//! page-mapped FTL against the pre-index sequence (the stripe FTL's pin
//! lives next to its implementation).

use ossd::flash::{FaultConfig, FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd::ftl::{
    CleaningPolicyKind, Ftl, FtlConfig, FtlError, Lpn, PageFtl, StripeFtl, WriteContext,
};
use ossd::sim::SimRng;

fn geometry() -> FlashGeometry {
    // 2 elements x 16 blocks x 8 pages: small enough for the O(blocks)
    // recompute to run often, large enough for real cleaning pressure.
    FlashGeometry {
        packages: 2,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 8,
        page_bytes: 4096,
    }
}

fn faulty_reliability(seed: u64) -> ReliabilityConfig {
    ReliabilityConfig {
        faults: FaultConfig {
            seed,
            factory_bad_prob: 0.03,
            program_fail_base: 0.0015,
            erase_fail_base: 0.0015,
            ..FaultConfig::none()
        },
        ..ReliabilityConfig::none()
    }
}

fn config(kind: CleaningPolicyKind) -> FtlConfig {
    FtlConfig::default()
        .with_overprovisioning(0.25)
        .with_watermarks(0.3, 0.1)
        .with_honor_free(true)
        .with_cleaning_policy(kind)
}

/// One randomized op against an FTL; `NoFreeBlocks` (spares exhausted
/// under fault injection) ends the sequence gracefully.
fn random_op(ftl: &mut dyn Ftl, rng: &mut SimRng, logical: u64) -> Result<bool, FtlError> {
    let lpn = Lpn(rng.next_u64_below(logical));
    let mut ops = Vec::new();
    let outcome = match rng.next_u64_below(10) {
        // Writes dominate so cleaning and wear-leveling actually run.
        0..=5 => ftl.write_into(lpn, 4096, &WriteContext::idle(), &mut ops),
        6 => ftl.write_into(lpn, 4096, &WriteContext::with_priority_pending(), &mut ops),
        7 => ftl.free(lpn).map(|_| ()),
        8 => ftl.read_into(lpn, 4096, &mut ops).map(|_| ()),
        _ => ftl.background_clean_into(2, 0.5, &mut ops),
    };
    match outcome {
        Ok(()) => Ok(true),
        Err(FtlError::NoFreeBlocks { .. }) => Ok(false),
        Err(e) => Err(e),
    }
}

#[test]
fn page_ftl_index_equals_full_scan_recompute_under_randomized_churn() {
    for kind in CleaningPolicyKind::all() {
        for seed in 0..3u64 {
            let mut ftl = PageFtl::with_reliability(
                geometry(),
                FlashTiming::slc(),
                config(kind),
                faulty_reliability(11 + seed),
            )
            .expect("valid config");
            let logical = ftl.logical_pages();
            let mut rng =
                SimRng::seed_from_u64(0xF00D_0000 + seed * 131 + kind.name().len() as u64);
            ftl.check_victim_index().expect("fresh index");
            'seq: for round in 0..60 {
                for _ in 0..25 {
                    match random_op(&mut ftl, &mut rng, logical) {
                        Ok(true) => {}
                        Ok(false) => break 'seq, // spares exhausted
                        Err(e) => panic!("{}: unexpected FTL error: {e}", kind.name()),
                    }
                }
                ftl.check_victim_index()
                    .unwrap_or_else(|e| panic!("{} seed {seed} round {round}: {e}", kind.name()));
            }
            ftl.check_victim_index()
                .unwrap_or_else(|e| panic!("{} seed {seed} final: {e}", kind.name()));
        }
    }
}

#[test]
fn stripe_ftl_index_equals_full_scan_recompute_under_randomized_churn() {
    for kind in CleaningPolicyKind::all() {
        for seed in 0..3u64 {
            let mut ftl = StripeFtl::with_reliability(
                geometry(),
                FlashTiming::slc(),
                config(kind),
                8192,
                faulty_reliability(23 + seed),
            )
            .expect("valid config");
            let logical = ftl.logical_pages();
            let mut rng =
                SimRng::seed_from_u64(0xBEEF_0000 + seed * 193 + kind.name().len() as u64);
            ftl.check_victim_index().expect("fresh index");
            'seq: for round in 0..60 {
                for _ in 0..25 {
                    match random_op(&mut ftl, &mut rng, logical) {
                        Ok(true) => {}
                        Ok(false) => break 'seq,
                        Err(e) => panic!("{}: unexpected stripe FTL error: {e}", kind.name()),
                    }
                }
                ftl.check_victim_index()
                    .unwrap_or_else(|e| panic!("{} seed {seed} round {round}: {e}", kind.name()));
            }
            ftl.check_victim_index()
                .unwrap_or_else(|e| panic!("{} seed {seed} final: {e}", kind.name()));
        }
    }
}

/// Regression pin: the index-backed Greedy victim sequence on a
/// deterministic fault-free churn must equal the sequence the pre-index
/// full-scan selection produced (captured before the index landed).  The
/// page-mapped FTL's seed-exact pin (478 victims, fingerprint
/// `0x396967ec7d10dc88`) lives in `ossd-ftl`'s unit tests; this one runs a
/// different, longer trace through the public `Ftl` interface.
#[test]
fn greedy_victim_trace_matches_pre_index_sequence() {
    let mut ftl = PageFtl::new(
        geometry(),
        FlashTiming::slc(),
        config(CleaningPolicyKind::Greedy),
    )
    .expect("valid config");
    ftl.enable_victim_trace();
    let logical = ftl.logical_pages();
    for round in 0..10u64 {
        for i in 0..logical {
            let lpn = (i * 29 + round) % logical;
            ftl.write_into(Lpn(lpn), 4096, &WriteContext::idle(), &mut Vec::new())
                .expect("fault-free write");
        }
    }
    let trace = ftl.victim_trace();
    assert_eq!(
        trace.len(),
        1683,
        "victim count diverged from the pre-index sequence"
    );
    let fingerprint = trace.iter().fold(0u64, |h, &(e, b)| {
        h.wrapping_mul(1_000_003)
            .wrapping_add(((e as u64) << 32) | b as u64)
    });
    assert_eq!(
        fingerprint, 0xbb25_6be7_55ac_f96d,
        "victim fingerprint diverged from the pre-index sequence"
    );
}
