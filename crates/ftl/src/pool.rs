//! The block lifecycle both FTLs share.
//!
//! A [`BlockPool`] is one allocation domain of N blocks × P pages: a flash
//! element for [`crate::PageFtl`], the lockstep gang for
//! [`crate::StripeFtl`] (whose "block" is a superblock and whose "page" is
//! a stripe slot).  The two FTLs differ in mapping granularity; how a block
//! lives and dies is the same in both, and lives here:
//!
//! ```text
//!   free list ──allocate──▶ append point ──fills up, burns or is picked──▶ closed
//!       ▲                                                                   │
//!       └──recycled (erased)── drained ◀──detach … attach── victim ◀──pick──┘
//!                                 └──retired (deferred, or the erase failed)──▶ out of service
//! ```
//!
//! The pool never touches flash and emits neither an op nor a telemetry
//! event.  The FTL performs the flash call — one block for the page FTL,
//! the same block on every element for the stripe FTL — and reports what
//! happened, so fault draws, ops and events stay in the order the FTL makes
//! them.  What holds when each event returns:
//!
//! * **Always.**  `free_pages` is the sum of the unwritten pages of the
//!   blocks in service; a block in service is in the free list (erased), at
//!   one append point, or closed — exactly one of the three;
//!   `retire_pending` implies not in the free list; the [`VictimIndex`]
//!   holds every block in service with a stale page under its current
//!   counts, bar a detached one.
//! * [`BlockPool::allocate`] returns a block with room, taking the least
//!   worn erased block when the append point has none: lowest erase count,
//!   first in list order.  `reserve` erased blocks are withheld from it.
//! * [`BlockPool::programmed`] / [`BlockPool::burned`] consume pages of an
//!   append block; a burn also closes the append point and schedules the
//!   block for retirement.  A burned page is stale, so the block is a
//!   cleaning candidate from then on.
//! * [`BlockPool::invalidated`] makes cleaning worth trying again
//!   (`clean_stalled` is cleared); [`BlockPool::moved_out`], the same count
//!   change for the pages a drain moves, does not — the drained block is
//!   about to leave the index for good.
//! * [`BlockPool::pick`] never returns an append block with room, returns
//!   a full one only when asked to, and closes the append point it picked.
//! * [`BlockPool::recycled`] / [`BlockPool::retired`] take a block with no
//!   valid page: the first credits the pages it had consumed and files it
//!   in the free list one erase older, the second forfeits the pages it had
//!   not and drops it from every structure.

use std::ops::Range;

use ossd_gc::{CleaningPolicyKind, PickContext, VictimIndex};

use crate::indexcheck::{self, CandidateRow};

/// Maximum victims reclaimed by one watermark-triggered cleaning pass; keeps
/// a single host write from stalling behind an unbounded amount of cleaning.
pub(crate) const MAX_VICTIMS_PER_PASS: u32 = 4;

/// The two logs a pool appends to.  Translation pages get their own append
/// block so they and host data do not share blocks; it stays unused unless
/// demand paging runs (and always on the stripe FTL).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AppendPoint {
    /// Host data, and data relocated by cleaning or wear-leveling.
    Data,
    /// The map area: translation pages.
    Map,
}

/// A pool's erased blocks, handed out least worn first (dynamic wear
/// leveling of the allocation pool): the lowest erase count, and among
/// equals the first in list order.  [`FreeList::push`] and
/// [`FreeList::take_least_worn`] are the only mutations, which is what
/// keeps the heap in step with the list.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct FreeList {
    /// `(erase_count, block)` in the order pushes and the allocations'
    /// `swap_remove`s leave behind.
    list: Vec<(u32, u32)>,
    /// The list positions as a binary min-heap on `(erase_count, position)`,
    /// so the allocation is the root instead of two passes over the list.
    heap: Vec<u32>,
    /// `slot[position]`: where that position sits in `heap`.
    slot: Vec<u32>,
}

impl FreeList {
    fn len(&self) -> usize {
        self.list.len()
    }

    fn key(&self, pos: u32) -> (u32, u32) {
        (self.list[pos as usize].0, pos)
    }

    fn place(&mut self, at: usize, pos: u32) {
        self.heap[at] = pos;
        self.slot[pos as usize] = at as u32;
    }

    /// Moves the position at heap index `at` up to where its key belongs.
    fn sift_up(&mut self, mut at: usize) {
        let pos = self.heap[at];
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.key(self.heap[parent]) < self.key(pos) {
                break;
            }
            self.place(at, self.heap[parent]);
            at = parent;
        }
        self.place(at, pos);
    }

    /// Moves the position at heap index `at` down to where its key belongs.
    fn sift_down(&mut self, mut at: usize) {
        let pos = self.heap[at];
        loop {
            let mut child = 2 * at + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len()
                && self.key(self.heap[child + 1]) < self.key(self.heap[child])
            {
                child += 1;
            }
            if self.key(pos) < self.key(self.heap[child]) {
                break;
            }
            self.place(at, self.heap[child]);
            at = child;
        }
        self.place(at, pos);
    }

    /// Appends an erased block.
    fn push(&mut self, erases: u32, block: u32) {
        let pos = self.list.len() as u32;
        self.list.push((erases, block));
        self.slot.push(0);
        self.heap.push(pos);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the `(erase_count, block)` with the lowest erase
    /// count, the first such in list order; the last entry takes its place.
    fn take_least_worn(&mut self) -> Option<(u32, u32)> {
        let pos = *self.heap.first()?;
        let sinking = self.heap.pop().expect("the heap has a root");
        if !self.heap.is_empty() {
            self.place(0, sinking);
            self.sift_down(0);
        }
        // The list's last entry takes `pos`: its key shrinks with its
        // position, so it can only rise.
        let taken = self.list.swap_remove(pos as usize);
        let at = self.slot.pop().expect("one slot per entry");
        if (pos as usize) < self.list.len() {
            self.place(at as usize, pos);
            self.sift_up(at as usize);
        }
        Some(taken)
    }
}

/// One allocation domain's block lifecycle; see the module docs.
#[derive(Clone, Debug)]
pub(crate) struct BlockPool {
    pages_per_block: u32,
    /// Erased blocks available for allocation.
    free_blocks: FreeList,
    /// Block currently being appended to at each [`AppendPoint`], if any.
    active: [Option<u32>; 2],
    /// Free (programmable) pages of the blocks in service.
    free_pages: u64,
    /// Set by the FTL when a cleaning pass here reclaimed nothing; while
    /// set, its watermark trigger is skipped so a pool full of valid data is
    /// not re-scanned on every write.  Cleared by the next invalidation —
    /// the only event that can create a victim.
    pub(crate) clean_stalled: bool,
    /// Blocks that suffered a program failure and must be retired instead
    /// of recycled the next time they are reclaimed.
    retire_pending: Vec<bool>,
    /// The cleaning candidates, kept on every page-state change.  It also
    /// carries each block's counts, erase count and youngest-data timestamp
    /// (age = `clock - last_write`).
    index: VictimIndex,
}

impl BlockPool {
    /// A pool of `blocks` erased blocks of `pages_per_block` pages.  The
    /// blocks `is_bad` names (factory-marked) never enter service.
    pub(crate) fn new(blocks: u32, pages_per_block: u32, is_bad: impl Fn(u32) -> bool) -> Self {
        let mut free_blocks = FreeList::default();
        let mut index = VictimIndex::new(blocks, pages_per_block);
        for block in (0..blocks).rev() {
            if is_bad(block) {
                index.mark_bad(block);
            } else {
                free_blocks.push(0, block);
            }
        }
        BlockPool {
            pages_per_block,
            free_pages: free_blocks.len() as u64 * pages_per_block as u64,
            free_blocks,
            active: [None; 2],
            clean_stalled: false,
            retire_pending: vec![false; blocks as usize],
            index,
        }
    }

    /// Free (programmable) pages of the blocks in service.
    pub(crate) fn free_pages(&self) -> u64 {
        self.free_pages
    }

    /// [`BlockPool::free_pages`] over every page of the pool, factory-bad
    /// and retired blocks included.
    pub(crate) fn free_fraction(&self) -> f64 {
        let total = self.retire_pending.len() as u64 * self.pages_per_block as u64;
        if total == 0 {
            return 0.0;
        }
        self.free_pages as f64 / total as f64
    }

    /// Whether `block` is at an append point.
    pub(crate) fn is_active(&self, block: u32) -> bool {
        self.active.contains(&Some(block))
    }

    /// The timestamp of the youngest data in `block`.
    pub(crate) fn last_write(&self, block: u32) -> u64 {
        self.index.last_write(block)
    }

    /// Whether a program failed in `block` since its last erase.
    pub(crate) fn retire_pending(&self, block: u32) -> bool {
        self.retire_pending[block as usize]
    }

    /// Blocks holding a stale page: the cleaning backlog.
    pub(crate) fn backlog_blocks(&self) -> u64 {
        self.index.len() as u64
    }

    /// Stale pages across the backlog.  O(blocks).
    pub(crate) fn stale_pages(&self) -> u64 {
        self.index.stale_pages()
    }

    fn is_full(&self, block: u32) -> bool {
        self.index.written(block) == self.pages_per_block
    }

    /// The block `point` appends to, one with at least a free page: the
    /// current one, or else the least worn erased block unless only
    /// `reserve` of them are left.
    pub(crate) fn allocate(&mut self, point: AppendPoint, reserve: u32) -> Option<u32> {
        if let Some(block) = self.active[point as usize] {
            if !self.is_full(block) {
                return Some(block);
            }
        }
        if self.free_blocks.len() <= reserve as usize {
            return None;
        }
        let (erases, block) = self.free_blocks.take_least_worn()?;
        debug_assert_eq!(erases, self.index.erase_count(block));
        self.active[point as usize] = Some(block);
        Some(block)
    }

    /// `pages` of the append block `block` were programmed, the youngest
    /// data among them stamped `stamp`: the current clock for host writes,
    /// the *source block's* timestamp for relocations — data keeps its age
    /// across cleaning and wear-leveling (the LFS convention), otherwise a
    /// block compacted full of cold data would look hot to age-based
    /// policies.  A block's timestamp is that of its youngest data.
    pub(crate) fn programmed(&mut self, block: u32, pages: Range<u32>, stamp: u64) {
        let count = pages.len() as u32;
        self.free_pages -= count as u64;
        let youngest = if pages.start == 0 {
            // First program after an erase: the stale timestamp of the
            // block's previous life no longer applies.
            stamp
        } else {
            self.index.last_write(block).max(stamp)
        };
        self.index.on_program_run(block, count, youngest);
    }

    /// A program failed on `block`, the append block of `point`, and burned
    /// its page: the page is consumed, the suspect block is scheduled for
    /// retirement and nothing more is appended to it.  The burned page is
    /// stale, so cleaning will reclaim — and then retire — the block.
    pub(crate) fn burned(&mut self, point: AppendPoint, block: u32) {
        debug_assert_eq!(self.active[point as usize], Some(block));
        self.free_pages -= 1;
        self.retire_pending[block as usize] = true;
        self.index.on_skip(block);
        self.active[point as usize] = None;
    }

    /// `pages` valid pages of `block` went stale.
    pub(crate) fn invalidated(&mut self, block: u32, pages: u32) {
        self.index.on_invalidate_run(block, pages);
        self.clean_stalled = false;
    }

    /// `pages` valid pages of `block`, which is being drained, were moved
    /// to an append block.
    pub(crate) fn moved_out(&mut self, block: u32, pages: u32) {
        self.index.on_invalidate_run(block, pages);
    }

    /// The context of a pick, which must skip each append block unless
    /// `include_full_active` and it is full (a closed log segment in all
    /// but name).
    fn pick_context(&self, clock: u64, include_full_active: bool) -> PickContext {
        let [exclude, exclude2] = self
            .active
            .map(|active| active.filter(|&b| !(include_full_active && self.is_full(b))));
        PickContext {
            clock,
            exclude,
            exclude2,
        }
    }

    /// Asks `policy` for the block to reclaim next (no block scan, no
    /// allocation), or `None` when no eligible block holds a stale page.
    ///
    /// A watermark pass keeps the strict exclusion of both append blocks, so
    /// the greedy victim sequence stays seed-exact; forced and background
    /// cleaning pass `include_full_active`, without which a completely full
    /// pool whose only stale page was relocated into the append block can
    /// wedge permanently.  An append point whose (full) block is picked is
    /// closed: after the erase the block goes back to the free list, and an
    /// append point left on it would hand out its pages twice.
    pub(crate) fn pick(
        &mut self,
        policy: CleaningPolicyKind,
        clock: u64,
        include_full_active: bool,
    ) -> Option<u32> {
        let ctx = self.pick_context(clock, include_full_active);
        let victim = policy.select_from_index(&mut self.index, &ctx)?;
        for active in &mut self.active {
            if *active == Some(victim) {
                *active = None;
            }
        }
        Some(victim)
    }

    /// Takes `block` out of the candidates for the length of its drain: no
    /// pick returns it and moving its pages out moves no index entry.
    pub(crate) fn detach(&mut self, block: u32) {
        self.index.detach(block);
    }

    /// Ends a drain, *however* it ended: `block` is a candidate again under
    /// its current counts, so an aborted drain leaves the index truthful.
    pub(crate) fn attach(&mut self, block: u32) {
        self.index.attach(block);
    }

    /// `block`, holding no valid page, was erased: the pages it had
    /// consumed are free again (and returned) and it is allocatable, one
    /// erase older.
    pub(crate) fn recycled(&mut self, block: u32) -> u64 {
        debug_assert!(!self.is_active(block), "erased under an append point");
        let (written, erases) = (self.index.written(block), self.index.erase_count(block));
        self.index.on_erase(block);
        self.free_pages += written as u64;
        self.free_blocks.push(erases + 1, block);
        written as u64
    }

    /// `block`, holding no valid page, went out of service — retirement
    /// deferred from a program failure, or a failed erase.  The pages it had
    /// not consumed were counted free and can never be programmed: they are
    /// forfeited (and returned).
    pub(crate) fn retired(&mut self, block: u32) -> u64 {
        let forfeited = (self.pages_per_block - self.index.written(block)) as u64;
        self.retire_pending[block as usize] = false;
        self.index.on_retire(block);
        self.free_pages -= forfeited;
        forfeited
    }

    /// Validates the candidate index against `rows`, the FTL's from-scratch
    /// recompute of the candidate set (see [`crate::indexcheck`]), and proves
    /// every built-in policy picks the same victim from both under either
    /// exclusion rule of [`BlockPool::pick`].
    pub(crate) fn check(
        &mut self,
        rows: &[CandidateRow],
        clock: u64,
        what: &str,
    ) -> Result<(), String> {
        indexcheck::check_against_recompute(&self.index, rows, what)?;
        for include_full_active in [false, true] {
            let ctx = self.pick_context(clock, include_full_active);
            indexcheck::check_policy_equivalence(
                &mut self.index,
                rows,
                self.pages_per_block,
                &ctx,
                what,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use ossd_gc::{BlockInfo, CleaningPolicyKind};

    use super::*;

    /// What the FTLs' own tests look at or rig.
    impl BlockPool {
        pub(crate) fn active(&self, point: AppendPoint) -> Option<u32> {
            self.active[point as usize]
        }

        pub(crate) fn is_candidate(&self, block: u32) -> bool {
            self.index.is_member(block)
        }

        /// Empties the free list; [`BlockPool::put_free_blocks`] undoes it.
        pub(crate) fn take_free_blocks(&mut self) -> FreeList {
            std::mem::take(&mut self.free_blocks)
        }

        pub(crate) fn put_free_blocks(&mut self, free_blocks: FreeList) {
            self.free_blocks = free_blocks;
        }

        /// Asserts that two pools are in the same state.
        pub(crate) fn assert_lockstep(&self, other: &BlockPool, at: &str) {
            assert_eq!(self.free_blocks, other.free_blocks, "{at}: free list");
            assert_eq!(self.active, other.active, "{at}: append points");
            assert_eq!(
                (self.free_pages, self.clean_stalled),
                (other.free_pages, other.clean_stalled),
                "{at}"
            );
            assert_eq!(self.retire_pending, other.retire_pending, "{at}");
            self.index.verify_internal().unwrap();
            other.index.verify_internal().unwrap();
            assert_eq!(
                self.index.snapshot(),
                other.index.snapshot(),
                "{at}: VictimIndex"
            );
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

    /// The pool hands out the block the scans it replaced would have: the
    /// old block scan of both FTLs — every listed block dereferenced for
    /// its count, the first strict minimum taken with `swap_remove` — and
    /// the two-pass walk over the keyed list (minimum count, then its first
    /// position) that the heap stands in for.  Counts repeat all the time:
    /// the blocks cycle within a few erases of each other.  Run in the page
    /// FTL's shape (an element's blocks) and the stripe FTL's (one domain of
    /// superblocks, a page per stripe slot, factory-bad ones left out).
    #[test]
    fn keyed_free_list_allocates_like_the_block_scan() {
        let stripe_bad = |sb| sb % 7 == 3;
        allocates_like_the_block_scan(BlockPool::new(48, 64, |_| false), 4_000, 1_000);
        allocates_like_the_block_scan(BlockPool::new(24, 2, stripe_bad), 4_000, 1_000);
    }

    fn allocates_like_the_block_scan(mut pool: BlockPool, min_allocations: u32, min_ties: u32) {
        let pages = pool.pages_per_block;
        let mut erases = vec![0u32; pool.retire_pending.len()];
        let mut two_pass = pool.free_blocks.list.clone();
        let mut old: Vec<u32> = two_pass.iter().map(|&(_, b)| b).collect();
        assert!(
            old.windows(2).all(|w| w[0] > w[1]),
            "seeded in descending order"
        );
        // Closed blocks; the append block is not erased under the pool.
        let mut in_use: Vec<u32> = Vec::new();
        let mut rng = Rng::new(0x1234_5678);
        let mut next = |bound: usize| rng.below(bound as u64) as usize;
        let (mut allocations, mut ties, mut appending) = (0, 0, None);
        for clock in 0..10_000 {
            if !in_use.is_empty() && (old.is_empty() || next(2) == 0) {
                // An erase returns a block.
                let block = in_use.swap_remove(next(in_use.len()));
                erases[block as usize] += 1;
                old.push(block);
                two_pass.push((erases[block as usize], block));
                assert_eq!(pool.recycled(block), pages as u64);
            } else {
                let mut best = (0, u32::MAX);
                for (i, &b) in old.iter().enumerate() {
                    if erases[b as usize] < best.1 {
                        best = (i, erases[b as usize]);
                    }
                }
                let expected = old.swap_remove(best.0);
                let least = two_pass.iter().map(|&(e, _)| e).min().unwrap();
                ties += (two_pass.iter().filter(|&&(e, _)| e == least).count() > 1) as u32;
                let idx = two_pass.iter().position(|&(e, _)| e == least).unwrap();
                assert_eq!(two_pass.swap_remove(idx), (best.1, expected));
                assert_eq!(pool.allocate(AppendPoint::Data, 0), Some(expected));
                // Filled and gone stale at once: the next allocation needs
                // a new block, and closes this one.
                pool.programmed(expected, 0..pages, clock);
                pool.invalidated(expected, pages);
                in_use.extend(appending.replace(expected));
                allocations += 1;
            }
            assert_eq!(pool.free_blocks.list, two_pass);
            assert_eq!(pool.free_blocks.heap.len(), pool.free_blocks.len());
        }
        assert!(
            allocations > min_allocations && ties > min_ties,
            "{allocations} {ties}"
        );
        let free = &mut pool.free_blocks;
        while free.take_least_worn().is_some() {}
        assert_eq!((free.len(), free.heap.len(), free.slot.len()), (0, 0, 0));
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Page {
        Free,
        Valid,
        Stale,
    }

    /// The deliberately naive model the pool is checked against: a state
    /// per page, a plain list of erased blocks scanned in full for the
    /// least worn, and every count recomputed from the page table.
    struct Naive {
        pages: Vec<Vec<Page>>,
        bad: Vec<bool>,
        retire_pending: Vec<bool>,
        erases: Vec<u32>,
        last_write: Vec<u64>,
        free: Vec<u32>,
        active: [Option<u32>; 2],
        stalled: bool,
    }

    impl Naive {
        fn count(&self, block: u32, state: Page) -> u32 {
            let pages = &self.pages[block as usize];
            pages.iter().filter(|&&p| p == state).count() as u32
        }

        fn written(&self, block: u32) -> u32 {
            self.pages[block as usize].len() as u32 - self.count(block, Page::Free)
        }

        fn free_pages(&self) -> u64 {
            (0..self.bad.len() as u32)
                .filter(|&b| !self.bad[b as usize])
                .map(|b| self.count(b, Page::Free) as u64)
                .sum()
        }

        fn allocate(&mut self, point: AppendPoint, reserve: u32) -> Option<u32> {
            if let Some(block) = self.active[point as usize] {
                if self.count(block, Page::Free) > 0 {
                    return Some(block);
                }
            }
            if self.free.len() <= reserve as usize {
                return None;
            }
            let mut best = 0;
            for (i, &b) in self.free.iter().enumerate() {
                if self.erases[b as usize] < self.erases[self.free[best] as usize] {
                    best = i;
                }
            }
            let block = self.free.swap_remove(best);
            self.active[point as usize] = Some(block);
            Some(block)
        }

        /// Turns the next `n` pages of `block` in state `from` into `to`;
        /// returns the index of the first.
        fn turn(&mut self, block: u32, n: u32, from: Page, to: Page) -> u32 {
            let pages = &mut self.pages[block as usize];
            let first = pages.iter().position(|&p| p == from).unwrap();
            let mut left = n;
            for page in pages.iter_mut().filter(|p| **p == from) {
                if left > 0 {
                    *page = to;
                    left -= 1;
                }
            }
            assert_eq!(left, 0, "block {block} has no {n} {from:?} pages");
            first as u32
        }

        fn program(&mut self, block: u32, n: u32, stamp: u64) -> Range<u32> {
            let first = self.turn(block, n, Page::Free, Page::Valid);
            let last_write = &mut self.last_write[block as usize];
            *last_write = if first == 0 {
                stamp
            } else {
                stamp.max(*last_write)
            };
            first..first + n
        }

        fn burn(&mut self, point: AppendPoint, block: u32) {
            self.turn(block, 1, Page::Free, Page::Stale);
            self.retire_pending[block as usize] = true;
            self.active[point as usize] = None;
        }

        /// The candidate rows, recomputed: every block in service with a
        /// stale page, in ascending order.
        fn rows(&self) -> Vec<CandidateRow> {
            (0..self.bad.len() as u32)
                .filter(|&b| !self.bad[b as usize] && self.count(b, Page::Stale) > 0)
                .map(|b| {
                    let (valid, stale) = (self.count(b, Page::Valid), self.count(b, Page::Stale));
                    let at = b as usize;
                    (b, valid, stale, self.erases[at], self.last_write[at])
                })
                .collect()
        }

        /// The victim `kind` picks from the recomputed rows, an append block
        /// left out unless it is full and `include_full_active`.
        fn pick(
            &self,
            kind: CleaningPolicyKind,
            clock: u64,
            include_full_active: bool,
        ) -> Option<u32> {
            let candidates: Vec<BlockInfo> = self
                .rows()
                .into_iter()
                .filter(|&(b, ..)| {
                    let full = self.count(b, Page::Free) == 0;
                    !self.active.contains(&Some(b)) || (include_full_active && full)
                })
                .map(|(block, valid, stale, erases, last_write)| BlockInfo {
                    block,
                    valid_pages: valid,
                    invalid_pages: stale,
                    total_pages: valid + stale + self.count(block, Page::Free),
                    erase_count: erases,
                    age: clock.saturating_sub(last_write),
                })
                .collect();
            kind.select_victim(&candidates)
        }
    }

    /// What the streams exercised.
    #[derive(Default, Debug)]
    struct Seen {
        burns: u32,
        deferred_retires: u32,
        erase_failures: u32,
        recycles: u32,
        full_append_victims: u32,
        exhausted: u32,
        aborted_drains: u32,
        unstalls: u32,
    }

    struct Differential {
        pool: BlockPool,
        naive: Naive,
        kind: CleaningPolicyKind,
        rng: Rng,
        clock: u64,
        seen: Seen,
    }

    impl Differential {
        /// Stream `seed`: 6–17 blocks of 2, 4, 8 or 16 pages (the small ones
        /// are the stripe FTL's superblocks), some factory-bad, the policy
        /// cycling with the seed.
        fn new(seed: u64) -> Self {
            let mut rng = Rng::new(seed);
            let blocks = 6 + rng.below(12) as u32;
            let pages = 2 << rng.below(4);
            let bad: Vec<bool> = (0..blocks).map(|_| rng.below(12) == 0).collect();
            let kind = CleaningPolicyKind::all()[(seed % 4) as usize];
            Differential {
                pool: BlockPool::new(blocks, pages, |b| bad[b as usize]),
                naive: Naive {
                    pages: vec![vec![Page::Free; pages as usize]; blocks as usize],
                    retire_pending: vec![false; blocks as usize],
                    erases: vec![0; blocks as usize],
                    last_write: vec![0; blocks as usize],
                    free: (0..blocks).rev().filter(|&b| !bad[b as usize]).collect(),
                    bad,
                    active: [None; 2],
                    stalled: false,
                },
                kind,
                rng,
                clock: 0,
                seen: Seen::default(),
            }
        }

        fn allocate(&mut self, point: AppendPoint, reserve: u32) -> Option<u32> {
            let block = self.pool.allocate(point, reserve);
            assert_eq!(block, self.naive.allocate(point, reserve), "allocation");
            self.seen.exhausted += block.is_none() as u32;
            block
        }

        /// Programs up to `want` pages at `point`, or burns one (1 %).
        /// Returns how many landed.
        fn append(&mut self, point: AppendPoint, block: u32, want: u32, stamp: u64) -> u32 {
            if self.rng.below(100) == 0 {
                self.pool.burned(point, block);
                self.naive.burn(point, block);
                self.seen.burns += 1;
                return 0;
            }
            let n = want.min(self.naive.count(block, Page::Free));
            let pages = self.naive.program(block, n, stamp);
            self.pool.programmed(block, pages, stamp);
            n
        }

        fn host_write(&mut self) {
            self.clock += 1;
            let point = if self.rng.below(10) == 0 {
                AppendPoint::Map
            } else {
                AppendPoint::Data
            };
            match self.allocate(point, 1) {
                Some(block) => {
                    let want = 1 + self.rng.below(3) as u32;
                    self.append(point, block, want, self.clock);
                }
                // Out of unreserved blocks: the forced clean of the FTLs.
                None => self.clean(true),
            }
        }

        fn invalidate(&mut self) {
            let holders: Vec<u32> = (0..self.naive.bad.len() as u32)
                .filter(|&b| self.naive.count(b, Page::Valid) > 0)
                .collect();
            if holders.is_empty() {
                return;
            }
            let block = holders[self.rng.below(holders.len() as u64) as usize];
            let n = 1 + self
                .rng
                .below(self.naive.count(block, Page::Valid).min(3) as u64)
                as u32;
            self.naive.turn(block, n, Page::Valid, Page::Stale);
            self.seen.unstalls += self.naive.stalled as u32;
            self.naive.stalled = false;
            self.pool.invalidated(block, n);
        }

        fn clean(&mut self, include_full_active: bool) {
            let expected = self.naive.pick(self.kind, self.clock, include_full_active);
            let pick = self.pool.pick(self.kind, self.clock, include_full_active);
            assert_eq!(pick, expected, "{:?} pick", self.kind);
            let Some(victim) = pick else {
                // A fruitless pass stalls the trigger until an invalidation.
                self.pool.clean_stalled = true;
                self.naive.stalled = true;
                return;
            };
            for active in &mut self.naive.active {
                if *active == Some(victim) {
                    *active = None;
                    self.seen.full_append_victims += 1;
                }
            }
            self.pool.detach(victim);
            let stamp = self.pool.last_write(victim);
            assert_eq!(stamp, self.naive.last_write[victim as usize]);
            let mut drained = true;
            while self.naive.count(victim, Page::Valid) > 0 {
                let Some(dest) = self.allocate(AppendPoint::Data, 0) else {
                    self.seen.aborted_drains += 1;
                    drained = false;
                    break;
                };
                let want = self.naive.count(victim, Page::Valid);
                let moved = self.append(AppendPoint::Data, dest, want, stamp);
                if moved > 0 {
                    self.naive.turn(victim, moved, Page::Valid, Page::Stale);
                    self.pool.moved_out(victim, moved);
                }
            }
            self.pool.attach(victim);
            if !drained {
                return;
            }
            let at = victim as usize;
            let deferred = self.naive.retire_pending[at];
            assert_eq!(self.pool.retire_pending(victim), deferred);
            if deferred || self.rng.below(100) < 2 {
                let unwritten = self.naive.count(victim, Page::Free) as u64;
                assert_eq!(self.pool.retired(victim), unwritten, "forfeited pages");
                self.naive.bad[at] = true;
                self.naive.retire_pending[at] = false;
                self.seen.deferred_retires += deferred as u32;
                self.seen.erase_failures += !deferred as u32;
            } else {
                let written = self.naive.written(victim) as u64;
                assert_eq!(self.pool.recycled(victim), written, "recycled pages");
                self.naive.pages[at].fill(Page::Free);
                self.naive.erases[at] += 1;
                self.naive.free.push(victim);
                self.seen.recycles += 1;
            }
        }

        /// Compares everything the pool holds with the model's recompute,
        /// and checks the invariants the module docs promise.
        fn agree(&mut self, at: &str) {
            let (pool, naive) = (&mut self.pool, &self.naive);
            assert_eq!(pool.free_pages(), naive.free_pages(), "{at}: free pages");
            assert_eq!(pool.active, naive.active, "{at}: append points");
            assert_eq!(pool.retire_pending, naive.retire_pending, "{at}");
            assert_eq!(pool.clean_stalled, naive.stalled, "{at}: stall flag");
            let listed: Vec<(u32, u32)> = (naive.free.iter())
                .map(|&b| (naive.erases[b as usize], b))
                .collect();
            assert_eq!(pool.free_blocks.list, listed, "{at}: free list");
            pool.check(&naive.rows(), self.clock, at).unwrap();
            let blocks = naive.bad.len() as u32;
            let total = blocks as u64 * pool.pages_per_block as u64;
            let fraction = naive.free_pages() as f64 / total as f64;
            assert_eq!(pool.free_fraction().to_bits(), fraction.to_bits());
            for block in 0..blocks {
                let b = block as usize;
                let listed = naive.free.iter().filter(|&&f| f == block).count();
                let appended = naive.active.iter().filter(|&&a| a == Some(block)).count();
                assert!(listed + appended <= 1, "{at}: block {block} held twice");
                if naive.bad[b] || naive.retire_pending[b] {
                    assert_eq!(listed, 0, "{at}: block {block} is not allocatable");
                }
                if naive.bad[b] {
                    assert_eq!(appended, 0, "{at}: retired block {block} appended to");
                    continue;
                }
                let written = naive.written(block);
                assert_eq!(pool.index.written(block), written, "{at}: block {block}");
                // Listed means erased; erased means listed or just allocated.
                assert!(listed == 0 || written == 0, "{at}: block {block} listed");
                assert!(
                    written > 0 || listed + appended == 1,
                    "{at}: block {block} lost"
                );
            }
        }

        fn run(mut self, events: u32, seed: u64) -> Seen {
            for step in 0..events {
                match self.rng.below(100) {
                    0..=39 => self.host_write(),
                    40..=79 => self.invalidate(),
                    80..=91 => self.clean(false),
                    _ => self.clean(true),
                }
                self.agree(&format!("stream {seed} step {step}"));
            }
            self.seen
        }
    }

    fn drive_streams(streams: Range<u64>, events: u32) {
        let mut total = Seen::default();
        for seed in streams {
            let seen = Differential::new(seed).run(events, seed);
            total.burns += seen.burns;
            total.deferred_retires += seen.deferred_retires;
            total.erase_failures += seen.erase_failures;
            total.recycles += seen.recycles;
            total.full_append_victims += seen.full_append_victims;
            total.exhausted += seen.exhausted;
            total.aborted_drains += seen.aborted_drains;
            total.unstalls += seen.unstalls;
        }
        println!("{total:?}");
        assert!(total.burns > 100 && total.deferred_retires > 50 && total.erase_failures > 50);
        assert!(total.recycles > 1_000 && total.full_append_victims > 20);
        assert!(total.exhausted > 100 && total.aborted_drains > 5 && total.unstalls > 50);
    }

    #[test]
    fn pool_matches_the_naive_model() {
        drive_streams(0..200, 600);
    }

    /// The long form; CI runs it in release (`cargo test --release -p ossd-ftl
    /// -- --ignored`).
    #[test]
    #[ignore = "long: run in release"]
    fn pool_matches_the_naive_model_long() {
        drive_streams(1_000..4_000, 3_000);
    }
}
