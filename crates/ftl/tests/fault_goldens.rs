//! Goldens of both FTLs *under faults*: everything a seeded
//! write/overwrite/free/flush stream makes observable — the emitted
//! [`FlashOp`] stream and each command's outcome, then the statistics, the
//! reliability counters, the wear summary, the victim trace and the free
//! fraction — hashed and pinned.  The constants were captured before the
//! block-lifecycle bookkeeping of the two FTLs moved into one pool, with
//! program failures, erase failures and factory-bad blocks all on, so a
//! change to which block is allocated, burned, picked, recycled or retired,
//! or to when, moves them.

use std::fmt::{Debug, Write};

use ossd_flash::{FaultConfig, FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::{
    CleaningPolicyKind, FlashOp, Ftl, FtlConfig, FtlError, Lpn, MapCacheConfig, PageFtl, StripeFtl,
    WearLevelConfig, WriteContext,
};

/// FNV-1a over the `Debug` rendering of what is fed to it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for byte in s.bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, value: &dyn Debug) {
        write!(self, "{value:?};").expect("hashing cannot fail");
    }
}

/// xorshift64*, as in the crate's other seeded suites.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound
    }
}

/// 4 elements × 32 blocks × 16 pages of 512 bytes.
fn geometry() -> FlashGeometry {
    FlashGeometry {
        packages: 4,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: 32,
        pages_per_block: 16,
        page_bytes: 512,
    }
}

fn faults(seed: u64, program_fail_base: f64, erase_fail_base: f64) -> ReliabilityConfig {
    ReliabilityConfig {
        faults: FaultConfig {
            seed,
            factory_bad_prob: 0.005,
            program_fail_base,
            erase_fail_base,
            ..FaultConfig::none()
        },
        ..ReliabilityConfig::none()
    }
}

/// What one stream did that the pins are there to cover.
#[derive(Default)]
struct Coverage {
    program_fails: u64,
    erase_fails: u64,
    retired: u64,
    victims: usize,
    refused: u64,
    wear_moves: u64,
    map_moves: u64,
}

/// Drives `commands` seeded commands — 70 % of them on a hot eighth of the
/// logical space — and returns the hash of everything observable.  A
/// command refused with `NoFreeBlocks` (the spares ran out) is part of the
/// pinned behaviour, not a test failure.
fn drive<F: Ftl>(
    ftl: &mut F,
    seed: u64,
    commands: u32,
    background: bool,
    coverage: &mut Coverage,
) -> Fnv {
    let mut rng = Rng::new(seed);
    let mut hash = Fnv::new();
    let mut ops: Vec<FlashOp> = Vec::new();
    let logical = ftl.logical_pages();
    let bytes = ftl.logical_page_bytes();
    let hot = (logical / 8).max(1);
    for _ in 0..commands {
        ops.clear();
        let lpn = Lpn(if rng.below(10) < 7 {
            rng.below(hot)
        } else {
            rng.below(logical)
        });
        let outcome: Result<bool, FtlError> = match rng.below(100) {
            0..=9 => ftl.free(lpn),
            10..=14 => ftl.read_into(lpn, bytes, &mut ops),
            15..=16 => ftl.flush_into(&mut ops).map(|()| false),
            17..=22 if background => ftl
                .background_clean_into(1 + rng.below(3) as u32, 0.4, &mut ops)
                .map(|()| false),
            // Whole, half and quarter coverage: the stripe FTL coalesces,
            // read-modify-writes and flushes on these.
            roll => {
                let covered = bytes >> (roll % 3);
                ftl.write_into(lpn, covered, &WriteContext::idle(), &mut ops)
                    .map(|()| false)
            }
        };
        coverage.refused += matches!(outcome, Err(FtlError::NoFreeBlocks { .. })) as u64;
        hash.feed(&outcome);
        hash.feed(&ops);
    }
    let counters = ftl.reliability_counters();
    coverage.program_fails += counters.program_fails;
    coverage.erase_fails += counters.erase_fails;
    coverage.retired += counters.retired_blocks;
    coverage.wear_moves += ftl.stats().wear_level_moves;
    coverage.map_moves += ftl.map_stats().map_gc_moves;
    hash.feed(&ftl.stats());
    hash.feed(&ftl.map_stats());
    hash.feed(&counters);
    hash.feed(&ftl.wear_summary());
    hash.feed(&ftl.free_page_fraction().to_bits());
    hash.feed(&(ftl.gc_backlog_blocks(), ftl.gc_stale_pages()));
    hash
}

fn stripe_golden(seed: u64, stripe_bytes: u64, coverage: &mut Coverage) -> u64 {
    let config = FtlConfig::default()
        .with_overprovisioning(0.25)
        .with_watermarks(0.2, 0.05)
        .with_honor_free(true)
        .with_cleaning_policy(CleaningPolicyKind::all()[(seed % 4) as usize]);
    // A stripe makes one failure draw per page it spans.
    let pages = stripe_bytes / geometry().page_bytes as u64;
    let reliability = faults(seed, 0.0012 / pages as f64, 0.0004);
    let mut ftl = StripeFtl::with_reliability(
        geometry(),
        FlashTiming::slc(),
        config,
        stripe_bytes,
        reliability,
    )
    .unwrap();
    ftl.enable_victim_trace();
    let mut hash = drive(&mut ftl, seed, 3_000, false, coverage);
    hash.feed(&ftl.victim_trace());
    coverage.victims += ftl.victim_trace().len();
    ftl.check_victim_index().unwrap();
    hash.0
}

fn page_golden(seed: u64, coverage: &mut Coverage) -> u64 {
    // Translation pages of 64 entries against a 24-entry budget, and a
    // wear-leveling bound tight enough to migrate every few hundred writes:
    // the cell where a wear-level drain's queued translation-page rewrites
    // force a clean of their own.
    let mut config = FtlConfig::default()
        .with_overprovisioning(0.25)
        .with_watermarks(0.3, 0.1)
        .with_honor_free(true)
        .with_cleaning_policy(CleaningPolicyKind::all()[(seed % 4) as usize])
        .with_map_cache(MapCacheConfig::default().with_budget(24));
    config.wear_leveling = Some(WearLevelConfig {
        max_erase_spread: 1,
    });
    let mut ftl = PageFtl::with_reliability(
        geometry(),
        FlashTiming::slc(),
        config,
        faults(seed, 0.0008, 0.004),
    )
    .unwrap();
    ftl.enable_victim_trace();
    let mut hash = drive(&mut ftl, seed, 6_000, true, coverage);
    hash.feed(&ftl.victim_trace());
    coverage.victims += ftl.victim_trace().len();
    ftl.check_victim_index().unwrap();
    hash.0
}

/// Prints what the streams covered and asserts the part both FTLs share.
fn assert_covered(coverage: &Coverage) {
    let Coverage {
        program_fails,
        erase_fails,
        retired,
        victims,
        refused,
        wear_moves,
        map_moves,
    } = *coverage;
    println!(
        "{program_fails} program failures, {erase_fails} erase failures, {retired} blocks \
         retired, {victims} victims, {refused} commands refused, {wear_moves} wear-level \
         moves, {map_moves} translation pages moved"
    );
    assert!(program_fails > 20 && erase_fails > 5 && retired > 20 && victims > 300);
}

#[test]
fn stripe_ftl_under_faults_is_pinned() {
    let mut coverage = Coverage::default();
    let got: Vec<(u64, u64, u64)> = [1u64, 2, 3]
        .into_iter()
        .flat_map(|seed| [(seed, 2_048), (seed, 8_192)])
        .map(|(seed, stripe)| (seed, stripe, stripe_golden(seed, stripe, &mut coverage)))
        .collect();
    println!("{got:x?}");
    assert_covered(&coverage);
    assert!(coverage.refused > 100, "the spares never ran out");
    assert_eq!(
        got,
        [
            (1, 2_048, 0xb1d3_4aff_973d_ac57),
            (1, 8_192, 0xa3d7_d7f9_d371_5047),
            (2, 2_048, 0x001a_1879_0156_a51c),
            (2, 8_192, 0xb91a_0df0_0c4d_59fe),
            (3, 2_048, 0x4c68_f7a2_c83e_e673),
            (3, 8_192, 0x16bd_7aa1_3d8b_a8e9),
        ]
    );
}

#[test]
fn page_ftl_with_paged_map_and_wear_leveling_under_faults_is_pinned() {
    let mut coverage = Coverage::default();
    let got: Vec<(u64, u64)> = [1u64, 2, 3]
        .into_iter()
        .map(|seed| (seed, page_golden(seed, &mut coverage)))
        .collect();
    println!("{got:x?}");
    assert_covered(&coverage);
    assert!(coverage.wear_moves > 100, "wear-leveling never ran");
    assert!(coverage.map_moves > 100, "no translation page moved");
    assert_eq!(
        got,
        [
            (1, 0xc038_9bb7_84cb_b555),
            (2, 0xef2f_9bc5_65da_cf70),
            (3, 0x3c13_5c1b_4f7b_5244),
        ]
    );
}
