//! The incremental victim-selection index.
//!
//! Before this module, every victim pick re-scanned every block of the
//! element and heap-allocated a fresh candidate vector — quadratic-ish in
//! device size for the GC-heavy sweeps the paper's cleaning study rests on
//! (§4, Figures 2–3, Table 5).  Nagel et al. (*Time-efficient Garbage
//! Collection in SSDs*) make the case that victim selection must be
//! sub-linear to matter at scale; [`VictimIndex`] is that structure:
//!
//! * **Invalid-count buckets.**  Bucket `i` holds the blocks with exactly
//!   `i` stale pages as `(erase_count, block)` keys in no particular order,
//!   and each block remembers its position, so moving a block between
//!   buckets — what every host invalidation does — is a `push` and a
//!   `swap_remove`: O(1), no search, no shift.  The greedy tie-break (most
//!   stale pages, then fewest erases, then the lowest block index) is the
//!   minimum key of the highest non-empty bucket, found through the
//!   `max_invalid` cursor and one scan of that bucket: a greedy pick is
//!   O(top bucket), paid once per victim where the ordered buckets this
//!   replaces paid a search and a shift of a much fuller bucket once per
//!   invalidated page.
//! * **Incremental maintenance.**  The FTL notifies the index on every
//!   program, invalidation, burned/padded page, erase and retirement; no
//!   operation ever walks all blocks.
//! * **Reusable scratch.**  Policies whose score genuinely drifts with age
//!   ([`CostBenefit`](crate::CleaningPolicyKind::CostBenefit),
//!   [`CostAge`](crate::CleaningPolicyKind::CostAge)) select over a
//!   scratch buffer filled from the non-empty buckets only — no per-pick
//!   allocation once the buffer has warmed up, and candidates are presented
//!   in the ascending-block order the pre-index scan used, so victim
//!   sequences stay bit-for-bit identical.
//!
//! A block is a *candidate* (an index member) exactly when it is not
//! retired and holds at least one stale page; the currently active (append)
//! block is excluded at pick time via [`PickContext::exclude`] rather than
//! by membership, because it can become eligible (a full append block) and
//! ineligible without any page-state change.
//!
//! One exception, for the block an FTL is draining: between
//! [`VictimIndex::detach`] and [`VictimIndex::attach`] it is in no bucket,
//! so no pick returns it and events on it only update its counts; `attach`
//! files it under what those have become.  Relocating a victim's pages
//! thus moves no bucket entry: buckets cost per host invalidation only.

use crate::policies::select_greedy;
use crate::policy::BlockInfo;

/// Everything a pick needs beyond the index itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PickContext {
    /// The FTL's logical clock (host writes served); candidate ages are
    /// `clock - last_write`.
    pub clock: u64,
    /// Block excluded from this pick (the element's active append block,
    /// unless the caller deliberately admits it once full).
    pub exclude: Option<u32>,
    /// Second excluded block: an FTL with a separate append point for
    /// metadata (the demand-paged map area's translation-page log) excludes
    /// that block too, for the same reason as [`PickContext::exclude`].
    pub exclude2: Option<u32>,
}

impl PickContext {
    /// A pick context with the given clock and no exclusion.
    pub fn at(clock: u64) -> Self {
        PickContext {
            clock,
            exclude: None,
            exclude2: None,
        }
    }

    /// Whether `block` is excluded from this pick.
    pub fn excludes(&self, block: u32) -> bool {
        Some(block) == self.exclude || Some(block) == self.exclude2
    }
}

/// Per-block state mirrored by the index.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    valid: u32,
    invalid: u32,
    erase: u32,
    last_write: u64,
    bad: bool,
    /// Taken out of its bucket by [`VictimIndex::detach`].
    detached: bool,
    /// Where the block's key sits in its bucket, while it is a member.
    pos: u32,
}

impl Slot {
    /// Candidate membership: neither retired nor detached, and holding a
    /// stale page.  (A block with a stale page is necessarily not erased.)
    fn is_member(&self) -> bool {
        !self.bad && !self.detached && self.invalid > 0
    }
}

/// `(erase_count, block)` as one integer that orders the same way, so the
/// greedy pick is a plain minimum.
fn bucket_key(erase: u32, block: u32) -> u64 {
    (erase as u64) << 32 | block as u64
}

/// The block of a [`bucket_key`].
fn key_block(key: u64) -> u32 {
    key as u32
}

/// Incremental invalid-count index over the blocks of one element (or the
/// superblocks of a stripe-mapped FTL).
#[derive(Clone, Debug)]
pub struct VictimIndex {
    /// Pages per block, reported as `BlockInfo::total_pages` (slots per
    /// superblock on the stripe FTL).
    pages_per_block: u32,
    slots: Vec<Slot>,
    /// `buckets[i]`: the [`bucket_key`]s, unordered, of the blocks with
    /// exactly `i` stale pages (`Slot::pos` points back); entries carry
    /// their key so a pick scans contiguous memory.  Bucket 0 is never
    /// populated.
    buckets: Vec<Vec<u64>>,
    /// Upper bound on the highest non-empty bucket, settled lazily.
    max_invalid: usize,
    /// Number of candidate blocks across all buckets.
    members: usize,
    /// Reusable candidate buffer for scan-tier policies.
    scratch: Vec<BlockInfo>,
}

impl VictimIndex {
    /// An index over `blocks` erased blocks of `pages_per_block` pages.
    pub fn new(blocks: u32, pages_per_block: u32) -> Self {
        VictimIndex {
            pages_per_block,
            slots: vec![Slot::default(); blocks as usize],
            buckets: vec![Vec::new(); pages_per_block as usize + 1],
            max_invalid: 0,
            members: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of candidate blocks currently indexed.
    pub fn len(&self) -> usize {
        self.members
    }

    /// Whether no block is a cleaning candidate.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// Total stale (invalid) pages across all candidate blocks — the
    /// reclaimable backlog a cleaning pass is working against.  O(blocks);
    /// intended for periodic telemetry sampling, not the pick hot path.
    pub fn stale_pages(&self) -> u64 {
        self.slots
            .iter()
            .filter(|s| s.is_member())
            .map(|s| s.invalid as u64)
            .sum()
    }

    /// Number of candidates a pick under `ctx`'s exclusions would consider.
    pub(crate) fn candidates_excluding(&self, ctx: &PickContext) -> usize {
        let mut excluded = 0usize;
        let mut counted: Option<u32> = None;
        for block in [ctx.exclude, ctx.exclude2].into_iter().flatten() {
            if counted == Some(block) {
                continue;
            }
            if let Some(slot) = self.slots.get(block as usize) {
                excluded += slot.is_member() as usize;
            }
            counted = Some(block);
        }
        self.members - excluded
    }

    /// The block's logical-clock timestamp of its youngest data.
    pub fn last_write(&self, block: u32) -> u64 {
        self.slots[block as usize].last_write
    }

    /// The block's erase count as tracked by the index.
    pub fn erase_count(&self, block: u32) -> u32 {
        self.slots[block as usize].erase
    }

    /// Pages of `block` consumed since its last erase: valid plus stale
    /// (where the block's write pointer stands).
    pub fn written(&self, block: u32) -> u32 {
        let slot = &self.slots[block as usize];
        slot.valid + slot.invalid
    }

    /// Whether `block` is currently a cleaning candidate.
    pub fn is_member(&self, block: u32) -> bool {
        self.slots[block as usize].is_member()
    }

    fn bucket_insert(&mut self, block: u32) {
        let slot = &mut self.slots[block as usize];
        let invalid = slot.invalid as usize;
        debug_assert!(invalid > 0 && invalid < self.buckets.len());
        let bucket = &mut self.buckets[invalid];
        slot.pos = bucket.len() as u32;
        bucket.push(bucket_key(slot.erase, block));
        self.max_invalid = self.max_invalid.max(invalid);
    }

    fn bucket_remove(&mut self, block: u32, invalid: u32) {
        let pos = self.slots[block as usize].pos as usize;
        let bucket = &mut self.buckets[invalid as usize];
        debug_assert_eq!(key_block(bucket[pos]), block, "block not where it points");
        bucket.swap_remove(pos);
        if let Some(&moved) = bucket.get(pos) {
            self.slots[key_block(moved) as usize].pos = pos as u32;
        }
    }

    /// Takes `block` out of its bucket until [`VictimIndex::attach`]: no
    /// pick returns it and events on it only update its counts.  For a
    /// block being drained, which each page would move up one bucket.
    pub fn detach(&mut self, block: u32) {
        let slot = self.slots[block as usize];
        debug_assert!(!slot.detached, "block {block} detached twice");
        if slot.is_member() {
            self.bucket_remove(block, slot.invalid);
            self.members -= 1;
        }
        self.slots[block as usize].detached = true;
    }

    /// Puts a detached `block` back: into the bucket of its current
    /// stale-page count if it is a candidate.
    pub fn attach(&mut self, block: u32) {
        debug_assert!(self.slots[block as usize].detached);
        self.slots[block as usize].detached = false;
        if self.slots[block as usize].is_member() {
            self.members += 1;
            self.bucket_insert(block);
        }
    }

    /// Marks a block permanently out of service at construction time
    /// (factory-marked bad).  For blocks retiring mid-life use
    /// [`VictimIndex::on_retire`].
    pub fn mark_bad(&mut self, block: u32) {
        debug_assert!(!self.slots[block as usize].is_member());
        self.slots[block as usize].bad = true;
    }

    /// One page of `block` was programmed with data stamped `last_write`
    /// (the block's new youngest-data timestamp, which the FTL computes —
    /// host clock for host writes, the source block's timestamp for
    /// relocations).
    pub fn on_program(&mut self, block: u32, last_write: u64) {
        self.on_program_run(block, 1, last_write);
    }

    /// `pages` pages of `block` were programmed, the youngest data among
    /// them stamped `last_write`.
    pub fn on_program_run(&mut self, block: u32, pages: u32, last_write: u64) {
        let slot = &mut self.slots[block as usize];
        slot.valid += pages;
        slot.last_write = last_write;
    }

    /// A previously valid page of `block` went stale.
    pub fn on_invalidate(&mut self, block: u32) {
        self.on_invalidate_run(block, 1);
    }

    /// `pages` previously valid pages of `block` went stale: one bucket
    /// move however many.
    pub fn on_invalidate_run(&mut self, block: u32, pages: u32) {
        let slot = &mut self.slots[block as usize];
        debug_assert!(0 < pages && pages <= slot.valid, "more than is valid");
        slot.valid -= pages;
        self.restale(block, pages);
    }

    /// A free page of `block` was consumed as stale without being
    /// programmed (a burned page after a program failure, or lockstep
    /// padding past a failed row).
    pub fn on_skip(&mut self, block: u32) {
        self.restale(block, 1);
    }

    /// Adds `pages` stale pages to `block` and moves it to its new bucket.
    fn restale(&mut self, block: u32, pages: u32) {
        let slot = &mut self.slots[block as usize];
        let (was_member, old_invalid) = (slot.is_member(), slot.invalid);
        slot.invalid += pages;
        if slot.bad || slot.detached {
            return;
        }
        if was_member {
            self.bucket_remove(block, old_invalid);
        } else {
            self.members += 1;
        }
        self.bucket_insert(block);
    }

    /// `block` was erased and recycled.
    pub fn on_erase(&mut self, block: u32) {
        let slot = self.slots[block as usize];
        debug_assert_eq!(slot.valid, 0, "erase with valid pages");
        if slot.is_member() {
            self.bucket_remove(block, slot.invalid);
            self.members -= 1;
        }
        let slot = &mut self.slots[block as usize];
        slot.valid = 0;
        slot.invalid = 0;
        slot.erase += 1;
    }

    /// `block` was permanently retired (grown bad).
    pub fn on_retire(&mut self, block: u32) {
        let slot = self.slots[block as usize];
        if slot.bad {
            return;
        }
        if slot.is_member() {
            self.bucket_remove(block, slot.invalid);
            self.members -= 1;
        }
        let slot = &mut self.slots[block as usize];
        slot.valid = 0;
        slot.invalid = 0;
        slot.bad = true;
    }

    /// Settles the lazy `max_invalid` cursor onto the highest non-empty
    /// bucket (amortized O(1): every decrement is paid for by an earlier
    /// insertion that raised the cursor).
    fn settle_max(&mut self) {
        while self.max_invalid > 0 && self.buckets[self.max_invalid].is_empty() {
            self.max_invalid -= 1;
        }
    }

    /// The greedy victim: most stale pages, then fewest erases, then the
    /// lowest block index — the minimum key of the highest non-empty bucket,
    /// skipping the excluded blocks.  One scan of that bucket.
    pub fn pick_greedy(&mut self, exclude: Option<u32>, exclude2: Option<u32>) -> Option<u32> {
        self.settle_max();
        let admitted = |&key: &u64| {
            let block = Some(key_block(key));
            block != exclude && block != exclude2
        };
        // A level holding only excluded blocks yields nothing; look lower.
        self.buckets[1..=self.max_invalid]
            .iter()
            .rev()
            .find_map(|bucket| bucket.iter().copied().filter(admitted).min())
            .map(key_block)
    }

    /// Fills the scratch buffer with every candidate except the excluded
    /// blocks.  When `by_block` is set the candidates are sorted into the
    /// ascending block order of the pre-index scan (required for bit-for-bit
    /// victim sequences on tie-breaking scan policies).
    fn fill_scratch(&mut self, ctx: &PickContext, by_block: bool) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for bucket in &self.buckets[1..=self.max_invalid] {
            for block in bucket.iter().copied().map(key_block) {
                if ctx.excludes(block) {
                    continue;
                }
                let slot = &self.slots[block as usize];
                scratch.push(BlockInfo {
                    block,
                    valid_pages: slot.valid,
                    invalid_pages: slot.invalid,
                    total_pages: self.pages_per_block,
                    erase_count: slot.erase,
                    age: ctx.clock.saturating_sub(slot.last_write),
                });
            }
        }
        if by_block {
            scratch.sort_unstable_by_key(|c| c.block);
        }
        self.scratch = scratch;
    }

    /// The candidate snapshot a scan-tier policy selects over: every
    /// candidate except the excluded block, in ascending block order,
    /// built in the index's reusable scratch buffer (no allocation once
    /// the buffer is warm).
    pub(crate) fn scan_candidates(&mut self, ctx: &PickContext) -> &[BlockInfo] {
        self.settle_max();
        self.fill_scratch(ctx, true);
        &self.scratch
    }

    /// The windowed-greedy victim: greedy restricted to the `window` oldest
    /// candidates (largest age, ties towards the lower block index).  Cost
    /// is O(candidates) via `select_nth_unstable` on the scratch buffer —
    /// no allocation, no full-device scan.
    ///
    /// Callers should fall back to [`VictimIndex::pick_greedy`] when the
    /// candidate count (excluding `exclude`) does not exceed the window;
    /// [`crate::CleaningPolicyKind::select_from_index`] does.
    pub(crate) fn pick_windowed(&mut self, window: usize, ctx: &PickContext) -> Option<u32> {
        self.settle_max();
        self.fill_scratch(ctx, false);
        let mut scratch = std::mem::take(&mut self.scratch);
        let pick = windowed_best(&mut scratch, window);
        self.scratch = scratch;
        pick
    }

    /// A debug/validation snapshot of every candidate as
    /// `(block, valid, invalid, erase_count, last_write)`, sorted by block.
    /// Used by the FTLs' index-verification helpers and property tests.
    pub fn snapshot(&self) -> Vec<(u32, u32, u32, u32, u64)> {
        let mut out: Vec<(u32, u32, u32, u32, u64)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_member())
            .map(|(b, s)| (b as u32, s.valid, s.invalid, s.erase, s.last_write))
            .collect();
        out.sort_unstable_by_key(|&(b, ..)| b);
        out
    }

    /// Verifies the index's internal invariants (bucket placement and
    /// back-pointers, member count, cursor bound).  Test/validation aid.
    pub fn verify_internal(&self) -> Result<(), String> {
        let mut counted = 0usize;
        for (invalid, bucket) in self.buckets.iter().enumerate() {
            for (pos, &key) in bucket.iter().enumerate() {
                let block = key_block(key);
                let slot = &self.slots[block as usize];
                if slot.invalid as usize != invalid
                    || !slot.is_member()
                    || key != bucket_key(slot.erase, block)
                {
                    return Err(format!(
                        "entry {key:#x} in bucket {invalid} has invalid={} erase={} bad={} detached={}",
                        slot.invalid, slot.erase, slot.bad, slot.detached
                    ));
                }
                if slot.pos as usize != pos {
                    return Err(format!(
                        "block {block} sits at {pos} of bucket {invalid} but points back to {}",
                        slot.pos
                    ));
                }
                counted += 1;
            }
            if invalid > self.max_invalid && !bucket.is_empty() {
                return Err(format!("bucket {invalid} above the max_invalid cursor"));
            }
        }
        // Every entry is a member pointing back at itself, so an equal count
        // means every member has exactly one entry.
        if counted != self.members {
            return Err(format!(
                "member count {} != bucketed blocks {counted}",
                self.members
            ));
        }
        let members = self.slots.iter().filter(|s| s.is_member()).count();
        if members != self.members {
            return Err(format!(
                "member count {} != member blocks {members}",
                self.members
            ));
        }
        Ok(())
    }
}

/// Greedy over the `window` oldest entries of `candidates` (which is
/// consumed as scratch): the age order is `(age descending, block
/// ascending)`, matching the pre-index windowed scan.  The window is then
/// re-sorted into the ascending block order the greedy scan expects and
/// handed to it, so the greedy tie-break lives in exactly one place.
fn windowed_best(candidates: &mut [BlockInfo], window: usize) -> Option<u32> {
    if candidates.is_empty() || window == 0 {
        return None;
    }
    let cmp_age =
        |a: &BlockInfo, b: &BlockInfo| b.age.cmp(&a.age).then_with(|| a.block.cmp(&b.block));
    if candidates.len() > window {
        // Partition so the first `window` entries are exactly the `window`
        // oldest candidates; the comparator is a total order (the block
        // index breaks age ties), so the partition set is deterministic.
        candidates.select_nth_unstable_by(window - 1, cmp_age);
    }
    let pool_len = window.min(candidates.len());
    let pool = &mut candidates[..pool_len];
    pool.sort_unstable_by_key(|c| c.block);
    select_greedy(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CleaningPolicyKind;

    /// Builds the legacy candidate slice (ascending block order) from the
    /// index's own snapshot, for equivalence checks.
    fn legacy_candidates(index: &VictimIndex, ctx: &PickContext) -> Vec<BlockInfo> {
        index
            .snapshot()
            .into_iter()
            .filter(|&(b, ..)| !ctx.excludes(b))
            .map(|(b, valid, invalid, erase, lw)| BlockInfo {
                block: b,
                valid_pages: valid,
                invalid_pages: invalid,
                total_pages: index.pages_per_block,
                erase_count: erase,
                age: ctx.clock.saturating_sub(lw),
            })
            .collect()
    }

    #[test]
    fn greedy_pick_matches_the_linear_scan() {
        let mut index = VictimIndex::new(8, 4);
        // Block 1: 2 stale; block 3: 3 stale; block 5: 3 stale, more worn.
        for (block, programs, stales) in [(1, 4, 2), (3, 4, 3), (5, 4, 3)] {
            for _ in 0..programs {
                index.on_program(block, 7);
            }
            for _ in 0..stales {
                index.on_invalidate(block);
            }
        }
        // Give block 5 a higher erase count by cycling it once first is not
        // possible post-hoc; instead check the base tie-break: equal stale
        // counts break towards the lower block.
        assert_eq!(index.pick_greedy(None, None), Some(3));
        assert_eq!(index.pick_greedy(Some(3), None), Some(5));
        // A second exclusion slot skips both append points.
        assert_eq!(index.pick_greedy(Some(3), Some(5)), Some(1));
        let ctx = PickContext::at(10);
        let legacy = legacy_candidates(&index, &ctx);
        assert_eq!(select_greedy(&legacy), index.pick_greedy(None, None));
        assert_eq!(index.len(), 3);
        assert_eq!(
            index.candidates_excluding(&PickContext {
                exclude: Some(3),
                ..ctx
            }),
            2
        );
        assert_eq!(
            index.candidates_excluding(&PickContext {
                exclude: Some(0),
                ..ctx
            }),
            3
        );
        assert_eq!(
            index.candidates_excluding(&PickContext {
                exclude: Some(3),
                exclude2: Some(5),
                ..ctx
            }),
            1
        );
        assert_eq!(
            index.candidates_excluding(&PickContext {
                exclude: Some(3),
                exclude2: Some(3),
                ..ctx
            }),
            2,
            "the same block in both slots is excluded once"
        );
        index.verify_internal().unwrap();
    }

    /// The pick scans an unordered bucket: over a 500-block top level in
    /// scrambled order, with erase counts that repeat, it returns what the
    /// sorted keys say — the smallest `(erase, block)` not excluded — and it
    /// drops a level when the top one holds nothing but the excluded blocks.
    #[test]
    fn greedy_pick_scans_an_unordered_top_bucket() {
        const TOP: u32 = 500;
        let mut index = VictimIndex::new(TOP + 2, 4);
        let cycle = |index: &mut VictimIndex, block: u32, stales: u32| {
            for _ in 0..4 {
                index.on_program(block, 1);
            }
            for _ in 0..stales {
                index.on_invalidate(block);
            }
        };
        // Blocks in a scrambled order, each erased 0-6 times first, all
        // ending with 3 stale pages; two more blocks one level down.
        for i in 0..TOP {
            let block = (i * 271) % TOP;
            for _ in 0..(block * 5 + 3) % 7 {
                cycle(&mut index, block, 4);
                index.on_erase(block);
            }
            cycle(&mut index, block, 3);
        }
        cycle(&mut index, TOP, 2);
        cycle(&mut index, TOP + 1, 2);
        index.verify_internal().unwrap();
        let mut sorted: Vec<(u32, u32)> = (0..TOP).map(|b| (index.erase_count(b), b)).collect();
        sorted.sort_unstable();
        assert!(sorted[0].0 == sorted[1].0 && sorted[0].0 < sorted[TOP as usize - 1].0);
        assert!(
            !index.buckets[3].is_sorted(),
            "the bucket is not in key order"
        );
        let reference = |exclude: Option<u32>, exclude2: Option<u32>| {
            sorted
                .iter()
                .map(|&(_, block)| block)
                .find(|&block| Some(block) != exclude && Some(block) != exclude2)
        };
        let (first, second, third) = (sorted[0].1, sorted[1].1, sorted[2].1);
        for (exclude, exclude2) in [
            (None, None),
            (Some(first), None),
            (Some(first), Some(second)),
            (Some(second), Some(first)),
            (Some(third), Some(first)),
            (Some(sorted[250].1), Some(TOP)),
        ] {
            assert_eq!(
                index.pick_greedy(exclude, exclude2),
                reference(exclude, exclude2),
                "excluding {exclude:?} and {exclude2:?}"
            );
        }
        assert_eq!(index.pick_greedy(Some(first), Some(second)), Some(third));
        // Drain the top level down to two blocks and exclude both.
        for &(_, block) in &sorted[2..] {
            index.on_invalidate(block);
            index.on_erase(block);
        }
        index.verify_internal().unwrap();
        assert_eq!(index.pick_greedy(Some(first), None), Some(second));
        assert_eq!(index.pick_greedy(Some(second), Some(first)), Some(TOP));
        assert_eq!(index.pick_greedy(Some(first), Some(second)), Some(TOP));
    }

    #[test]
    fn stale_pages_sums_candidate_backlog() {
        let mut index = VictimIndex::new(8, 4);
        assert_eq!(index.stale_pages(), 0);
        for (block, programs, stales) in [(1, 4, 2), (3, 4, 4)] {
            for _ in 0..programs {
                index.on_program(block, 7);
            }
            for _ in 0..stales {
                index.on_invalidate(block);
            }
        }
        assert_eq!(index.stale_pages(), 6);
        index.on_erase(3);
        assert_eq!(index.stale_pages(), 2);
    }

    #[test]
    fn erase_tie_break_prefers_less_worn_blocks() {
        let mut index = VictimIndex::new(4, 4);
        // Cycle block 0 once so its erase count is 1.
        for _ in 0..4 {
            index.on_program(0, 1);
        }
        for _ in 0..4 {
            index.on_invalidate(0);
        }
        index.on_erase(0);
        assert_eq!(index.erase_count(0), 1);
        // Now blocks 0 and 2 both reach 2 stale pages; block 2 has fewer
        // erases and must win despite the higher index.
        for block in [0, 2] {
            for _ in 0..3 {
                index.on_program(block, 2);
            }
            index.on_invalidate(block);
            index.on_invalidate(block);
        }
        assert_eq!(index.pick_greedy(None, None), Some(2));
        let ctx = PickContext::at(5);
        let mut idx2 = index.clone();
        let legacy = legacy_candidates(&index, &ctx);
        assert_eq!(select_greedy(&legacy), idx2.pick_greedy(None, None));
    }

    #[test]
    fn erase_and_retire_remove_membership() {
        let mut index = VictimIndex::new(4, 4);
        for block in 0..3 {
            index.on_program(block, 1);
            index.on_invalidate(block);
        }
        assert_eq!(index.len(), 3);
        index.on_erase(0);
        assert!(!index.is_member(0));
        index.on_retire(1);
        assert!(!index.is_member(1));
        // Retire is idempotent; further events on a bad block do not
        // resurrect it.
        index.on_retire(1);
        index.on_skip(1);
        assert!(!index.is_member(1));
        assert_eq!(index.len(), 1);
        assert_eq!(index.pick_greedy(None, None), Some(2));
        assert_eq!(index.pick_greedy(Some(2), None), None);
        index.verify_internal().unwrap();
    }

    #[test]
    fn skip_counts_as_stale_without_valid_pages() {
        let mut index = VictimIndex::new(2, 4);
        index.on_skip(0);
        assert!(index.is_member(0));
        assert_eq!(index.pick_greedy(None, None), Some(0));
        let snap = index.snapshot();
        assert_eq!(snap, vec![(0, 0, 1, 0, 0)]);
    }

    #[test]
    fn scan_candidates_are_in_ascending_block_order() {
        let mut index = VictimIndex::new(16, 4);
        for block in [9, 2, 13, 4] {
            index.on_program(block, block as u64);
            index.on_invalidate(block);
        }
        let ctx = PickContext {
            exclude: Some(4),
            ..PickContext::at(20)
        };
        let blocks: Vec<u32> = index
            .scan_candidates(&ctx)
            .iter()
            .map(|c| c.block)
            .collect();
        assert_eq!(blocks, vec![2, 9, 13]);
        let ages: Vec<u64> = index.scan_candidates(&ctx).iter().map(|c| c.age).collect();
        assert_eq!(ages, vec![18, 11, 7]);
    }

    #[test]
    fn windowed_pick_matches_the_legacy_windowed_scan() {
        let mut index = VictimIndex::new(32, 8);
        // Ages descend with the block index; staleness ascends, so the
        // overall-stalest block is the youngest.
        for block in 0..8u32 {
            for _ in 0..(block + 1) {
                index.on_program(block, (block as u64) * 10);
            }
            for _ in 0..(block + 1) {
                index.on_invalidate(block);
            }
        }
        let ctx = PickContext::at(100);
        let legacy = legacy_candidates(&index, &ctx);
        for window in [1usize, 2, 3, 5, 8, 16] {
            let policy = CleaningPolicyKind::WindowedGreedy {
                window: window as u32,
            };
            let expected = policy.select_victim(&legacy);
            let got = if legacy.len() <= window {
                index.pick_greedy(ctx.exclude, ctx.exclude2)
            } else {
                index.pick_windowed(window, &ctx)
            };
            assert_eq!(got, expected, "window {window}");
        }
    }

    #[test]
    fn windowed_best_handles_degenerate_inputs() {
        assert_eq!(windowed_best(&mut [], 4), None);
        let mut one = [BlockInfo {
            block: 3,
            valid_pages: 1,
            invalid_pages: 2,
            total_pages: 4,
            erase_count: 0,
            age: 5,
        }];
        assert_eq!(windowed_best(&mut one, 0), None);
        assert_eq!(windowed_best(&mut one, 1), Some(3));
        assert_eq!(windowed_best(&mut one, 9), Some(3));
    }

    #[test]
    fn bucket_moves_track_invalidation_counts() {
        let mut index = VictimIndex::new(2, 8);
        for _ in 0..8 {
            index.on_program(0, 3);
        }
        for expected in 1..=8u32 {
            index.on_invalidate(0);
            assert_eq!(index.snapshot()[0].2, expected);
            index.verify_internal().unwrap();
        }
        index.on_erase(0);
        assert!(index.is_empty());
        index.verify_internal().unwrap();
    }

    /// Seeded property loop: programs, single and bulk invalidations,
    /// burned pages, erases and retirements, with blocks detached and
    /// re-attached around them, against a from-scratch recompute of the
    /// candidate set after every step.  No pick of any tier may return a
    /// detached block, and each must match the legacy scan over the
    /// recompute.
    #[test]
    fn detach_and_attach_keep_the_index_equal_to_a_recompute() {
        const BLOCKS: u32 = 24;
        const PAGES: u32 = 8;
        #[derive(Clone, Copy, Default)]
        struct Model {
            valid: u32,
            invalid: u32,
            erase: u32,
            last_write: u64,
            bad: bool,
            detached: bool,
        }
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u32| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        let mut index = VictimIndex::new(BLOCKS, PAGES);
        let mut model = [Model::default(); BLOCKS as usize];
        let mut detached_events = 0;
        for step in 0..20_000u64 {
            let block = next(BLOCKS);
            let m = &mut model[block as usize];
            let room = PAGES - m.valid - m.invalid;
            match next(10) {
                0..=2 if !m.bad && room > 0 => {
                    let pages = 1 + next(room);
                    index.on_program_run(block, pages, step);
                    m.valid += pages;
                    m.last_write = step;
                }
                3..=4 if m.valid > 0 => {
                    let pages = 1 + next(m.valid);
                    if pages == 1 {
                        index.on_invalidate(block);
                    } else {
                        index.on_invalidate_run(block, pages);
                    }
                    m.valid -= pages;
                    m.invalid += pages;
                    detached_events += m.detached as u32;
                }
                5 if !m.bad && room > 0 => {
                    index.on_skip(block);
                    m.invalid += 1;
                    detached_events += m.detached as u32;
                }
                6 if !m.bad && m.valid == 0 && m.invalid > 0 => {
                    index.on_erase(block);
                    // The timestamp survives until the next program.
                    (m.invalid, m.erase) = (0, m.erase + 1);
                    detached_events += m.detached as u32;
                }
                7 if m.valid == 0 && next(8) == 0 => {
                    index.on_retire(block);
                    (m.invalid, m.bad) = (0, true);
                    detached_events += m.detached as u32;
                }
                8 if !m.detached => {
                    index.detach(block);
                    m.detached = true;
                }
                9 if m.detached => {
                    index.attach(block);
                    m.detached = false;
                }
                _ => continue,
            }
            let expected: Vec<(u32, u32, u32, u32, u64)> = (0..BLOCKS)
                .map(|b| (b, model[b as usize]))
                .filter(|(_, m)| !m.bad && !m.detached && m.invalid > 0)
                .map(|(b, m)| (b, m.valid, m.invalid, m.erase, m.last_write))
                .collect();
            index.verify_internal().unwrap();
            assert_eq!(index.snapshot(), expected, "step {step}");
            assert_eq!(index.len(), expected.len());
            assert_eq!(index.erase_count(block), model[block as usize].erase);
            let ctx = PickContext {
                exclude: Some(next(BLOCKS)),
                ..PickContext::at(step + 1)
            };
            let legacy = legacy_candidates(&index, &ctx);
            let greedy = index.pick_greedy(ctx.exclude, ctx.exclude2);
            assert_eq!(greedy, select_greedy(&legacy), "step {step}");
            let windowed = CleaningPolicyKind::WindowedGreedy { window: 3 };
            let from_index = windowed.select_from_index(&mut index, &ctx);
            assert_eq!(from_index, windowed.select_victim(&legacy), "step {step}");
            assert_eq!(index.scan_candidates(&ctx), &legacy[..], "step {step}");
            for pick in [greedy, from_index].into_iter().flatten() {
                assert!(!model[pick as usize].detached, "picked a detached block");
            }
        }
        assert!(
            detached_events > 500,
            "{detached_events} events hit a detached block"
        );
    }
}
