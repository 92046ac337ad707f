//! The relocation oracle: the per-page loop `clean_one_block` and
//! `maybe_wear_level` each carried a copy of before the run-based
//! [`PageFtl::drain_block`], and the seeded differential suite that drives
//! two clones of one FTL — one draining through each — in lockstep.
//!
//! The reference is the cleaning copy of the loop: one `program_page`, one
//! `invalidate` and one `on_invalidate` per moved page, the source block
//! never detached.  Like the run-based drain, it leaves a moved page's
//! reverse-map tag in place (the tag of a stale page is never read), so the
//! two `rmap`s stay comparable.

use ossd_flash::{FaultConfig, PageState, PhysPageAddr};
use ossd_gc::CleaningPolicyKind;
use ossd_mapcache::MapCacheConfig;

use super::*;
use crate::config::WearLevelConfig;

impl PageFtl {
    pub(super) fn drain_block_reference(
        &mut self,
        element: usize,
        victim: u32,
        purpose: OpPurpose,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        // Relocated data keeps the victim block's age (LFS convention).
        let victim_timestamp = self.pools[element].last_write(victim);
        let element_id = ElementId(element as u32);
        let pages_per_block = self.flash.geometry().pages_per_block;
        // Move every valid page.
        for page in 0..pages_per_block {
            let addr = PhysPageAddr {
                element: element_id,
                block: victim,
                page,
            };
            let state = self.flash.element(element_id)?.page_state(victim, page)?;
            if state != PageState::Valid {
                continue;
            }
            let old_ppn = self.layout.ppn(addr);
            let lpn = self.rmap[old_ppn.index()];
            if lpn & MAP_TAG != 0 {
                // A live translation page: relocate it through the map
                // area.  The program supersedes this copy via the GTD,
                // invalidating it in passing.
                let tpn = (lpn & !MAP_TAG) as u64;
                self.program_map_page(element, tpn, purpose, false, ops)?;
                self.paging
                    .as_mut()
                    .expect("tagged page implies paging")
                    .map_gc_moves += 1;
                continue;
            }
            debug_assert_eq!(self.map[lpn as usize], old_ppn);
            // Copy the page to the element's append point.
            let new_ppn = self.program_page(element, true, victim_timestamp, purpose, ops)?;
            let change = self.flash.invalidate(addr)?;
            if change.newly_stale {
                self.pools[element].moved_out(victim, 1);
            }
            self.rmap[new_ppn.index()] = lpn;
            self.map[lpn as usize] = new_ppn;
            self.note_relocation(lpn, new_ppn);
            ops.push(FlashOp {
                element: element_id,
                kind: FlashOpKind::CopybackPage,
                purpose,
            });
            match purpose {
                OpPurpose::WearLevel => self.stats.wear_level_moves += 1,
                OpPurpose::BackgroundClean => self.stats.bg_pages_moved += 1,
                _ => self.stats.gc_pages_moved += 1,
            }
        }
        Ok(())
    }
}

thread_local! {
    /// What the run-based drain did on this thread: `[runs, pages asked
    /// for, runs cut short by a failure on their first page, runs cut
    /// short further in]`.  The differential suite asserts it covered all
    /// of them.
    static RUNS: std::cell::Cell<[u64; 4]> = const { std::cell::Cell::new([0; 4]) };
}

/// Records one `program_run` of the drain: `want` pages asked for, `moved`
/// landed.
pub(super) fn note_run(want: u32, moved: u32) {
    let mut runs = RUNS.get();
    runs[0] += 1;
    runs[1] += want as u64;
    runs[2] += (moved == 0) as u64;
    runs[3] += (0 < moved && moved < want) as u64;
    RUNS.set(runs);
}

/// A small deterministic generator for the streams (xorshift64*).
pub(super) struct Rng(u64);

impl Rng {
    pub(super) fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    pub(super) fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound
    }
}

/// The device and configuration of stream `seed`.  The cleaning policy
/// cycles so every block of four streams covers all four; everything else
/// is drawn: resident map / map cache (translation pages in the victims, relocations queueing rewrites), fault model off or
/// on with program failures frequent enough to land inside runs, free
/// hints honoured or not, and a wear-leveling bound tight enough to trigger
/// within a few hundred writes.
fn scenario(seed: u64, rng: &mut Rng) -> PageFtl {
    let mut config = FtlConfig::default()
        .with_overprovisioning(0.25)
        .with_watermarks(0.3, 0.1)
        .with_cleaning_policy(CleaningPolicyKind::all()[(seed % 4) as usize])
        .with_honor_free(rng.below(2) == 0);
    config.wear_leveling = Some(WearLevelConfig {
        max_erase_spread: 1 + rng.below(3) as u32,
    });
    let mut geometry = FlashGeometry::tiny();
    match rng.below(2) {
        0 => {}
        _ => {
            // 64-entry translation pages against a 24-entry budget.
            geometry = FlashGeometry {
                packages: 2,
                dies_per_package: 1,
                planes_per_die: 1,
                blocks_per_plane: 24,
                pages_per_block: 16,
                page_bytes: 512,
            };
            config = config.with_map_cache(MapCacheConfig::default().with_budget(24));
        }
    }
    let mut reliability = ReliabilityConfig::none();
    if rng.below(2) == 0 {
        reliability = ReliabilityConfig::wearout(seed);
        reliability.faults = FaultConfig {
            program_fail_base: 0.04,
            erase_fail_base: 0.004,
            ..reliability.faults
        };
    }
    PageFtl::with_reliability(geometry, FlashTiming::slc(), config, reliability).unwrap()
}

/// Asserts that the two FTLs are in the same state, as far as anything but
/// the map cache's private recency order can show.
fn assert_lockstep(run: &PageFtl, reference: &PageFtl, at: &str) {
    assert_eq!(run.map, reference.map, "{at}: map");
    assert_eq!(run.rmap, reference.rmap, "{at}: rmap");
    assert_eq!(run.stats, reference.stats, "{at}: FtlStats");
    assert_eq!(run.map_stats(), reference.map_stats(), "{at}: MapStats");
    assert_eq!(
        run.reliability_counters(),
        reference.reliability_counters(),
        "{at}: ReliabilityCounters"
    );
    assert_eq!(
        run.flash.counters(),
        reference.flash.counters(),
        "{at}: ElementCounters"
    );
    assert_eq!(
        run.victim_trace(),
        reference.victim_trace(),
        "{at}: victims"
    );
    assert_eq!(
        (run.cursor, run.clock, run.writes_since_wear_check),
        (
            reference.cursor,
            reference.clock,
            reference.writes_since_wear_check
        ),
        "{at}"
    );
    if let (Some(a), Some(b)) = (&run.paging, &reference.paging) {
        assert_eq!(a.gtd, b.gtd, "{at}: GTD");
        assert_eq!(a.pending_tpns, b.pending_tpns, "{at}: queued rewrites");
    }
    for (e, (a, b)) in run.pools.iter().zip(&reference.pools).enumerate() {
        a.assert_lockstep(b, &format!("{at}: element {e}"));
        let id = ElementId(e as u32);
        let (fa, fb) = (
            run.flash.element(id).unwrap(),
            reference.flash.element(id).unwrap(),
        );
        for ((block, x), (_, y)) in fa.iter_blocks().zip(fb.iter_blocks()) {
            assert_eq!(x, y, "{at}: block {e}/{block}");
            assert_eq!(
                fa.valid_words(block),
                fb.valid_words(block),
                "{at}: pages of {e}/{block}"
            );
        }
        // The wear-leveling gate's input against the scan it stands for.
        let in_service = || fa.iter_blocks().filter(|(_, b)| !b.is_bad());
        let least = in_service().map(|(_, b)| b.erase_count()).min();
        let most = in_service().map(|(_, b)| b.erase_count()).max();
        assert_eq!(
            fa.erase_count_bounds(),
            least.zip(most),
            "{at}: wear of {e}"
        );
    }
}

/// Drives stream `seed` through both drains in lockstep; returns the
/// run-based FTL's final statistics and program-failure count.
fn drive_stream(seed: u64, commands: u32) -> (FtlStats, MapStats, u64) {
    let mut rng = Rng::new(seed);
    let mut run = scenario(seed, &mut rng);
    run.enable_victim_trace();
    let mut reference = run.clone();
    reference.reference_drain = true;
    let logical = run.logical_pages();
    let hot = (logical / 8).max(1);
    let (mut ops_run, mut ops_ref) = (Vec::new(), Vec::new());
    for step in 0..commands {
        ops_run.clear();
        ops_ref.clear();
        let lpn = if rng.below(10) < 7 {
            Lpn(rng.below(hot))
        } else {
            Lpn(rng.below(logical))
        };
        let at = format!("stream {seed} step {step}");
        match rng.below(100) {
            0..=9 => assert_eq!(run.free(lpn), reference.free(lpn), "{at}: free"),
            10..=17 => {
                let (erases, target) = (1 + rng.below(3) as u32, 0.2 + rng.below(5) as f64 / 10.0);
                assert_eq!(
                    run.background_clean_into(erases, target, &mut ops_run),
                    reference.background_clean_into(erases, target, &mut ops_ref),
                    "{at}: background clean"
                );
            }
            18..=23 => assert_eq!(
                run.read_into(lpn, 512, &mut ops_run),
                reference.read_into(lpn, 512, &mut ops_ref),
                "{at}: read"
            ),
            24 => assert_eq!(
                run.flush_into(&mut ops_run),
                reference.flush_into(&mut ops_ref),
                "{at}: flush"
            ),
            _ => assert_eq!(
                run.write_into(lpn, 512, &WriteContext::idle(), &mut ops_run),
                reference.write_into(lpn, 512, &WriteContext::idle(), &mut ops_ref),
                "{at}: write"
            ),
        }
        assert_eq!(ops_run, ops_ref, "{at}: ops");
        assert_lockstep(&run, &reference, &at);
        // The reference's tables and bitmaps are equal, so one check covers
        // both.
        run.check_reverse_map(&at);
    }
    let fails = run.reliability_counters().program_fails;
    (run.stats(), run.map_stats(), fails)
}

/// Drives `streams` streams and asserts that between them they exercised
/// what the drain has to get right.
fn drive_streams(streams: std::ops::Range<u64>, commands: u32) {
    RUNS.set([0; 4]);
    let (mut wear_moves, mut bg_moves, mut gc_moves) = (0, 0, 0);
    let (mut map_moves, mut fails) = (0, 0);
    for seed in streams {
        let (stats, map_stats, program_fails) = drive_stream(seed, commands);
        wear_moves += stats.wear_level_moves;
        bg_moves += stats.bg_pages_moved;
        gc_moves += stats.gc_pages_moved;
        map_moves += map_stats.map_gc_moves;
        fails += program_fails;
    }
    let [runs, wanted, failed_first, failed_inside] = RUNS.get();
    println!(
        "{runs} runs of {:.1} pages, {failed_first} failed on their first page, \
         {failed_inside} further in; moves: {gc_moves} gc, {bg_moves} background, \
         {wear_moves} wear-level, {map_moves} translation pages; {fails} program \
         failures",
        wanted as f64 / runs as f64
    );
    assert!(wanted > 2 * runs, "runs are no longer than a page");
    assert!(failed_first > 20 && failed_inside > 20);
    assert!(wear_moves > 100 && bg_moves > 100 && gc_moves > 100);
    assert!(map_moves > 100, "no translation page split a run");
}

#[test]
fn run_based_drain_matches_the_per_page_reference() {
    drive_streams(0..240, 700);
}

/// The long form; CI runs it in release (`cargo test --release -p ossd-ftl
/// -- --ignored`).
#[test]
#[ignore = "long: run in release"]
fn run_based_drain_matches_the_per_page_reference_long() {
    drive_streams(1_000..6_200, 1_500);
}
