//! Page-mapped, log-structured FTL with pluggable cleaning and
//! wear-leveling.
//!
//! This is the FTL architecture the paper attributes to "modern SSDs"
//! (§2): writes always go to the next free page of a per-element append
//! point, a full page map translates logical to physical pages, a garbage
//! collector reclaims stale blocks, and wear-leveling bounds the
//! erase-count spread across blocks.  How a block goes from the free list
//! to an append point, to a cleaning candidate and back (or out of service)
//! is kept per element by the crate's `pool` module, which the stripe FTL
//! shares; which element a page or a translation page goes to, and when
//! to clean, is decided here.
//!
//! Victim selection is delegated to the [`ossd_gc::CleaningPolicyKind`]
//! chosen by [`FtlConfig::cleaning_policy`], and the cleaning trigger is the
//! paper's watermark scheme ([`ossd_gc::watermark_trigger`]); the default
//! policy ([`ossd_gc::CleaningPolicyKind::Greedy`]) reproduces the
//! historical hard-coded greedy cleaner bit-for-bit.  Cleaning runs in the
//! write path when free space falls below the watermark, and additionally
//! through [`Ftl::background_clean_into`] when the device donates idle
//! windows.
//!
//! Two of the paper's proposals are implemented as configuration switches:
//!
//! * **Informed cleaning** ([`FtlConfig::honor_free`]): when the host (file
//!   system or object store) notifies the FTL that a logical page is free,
//!   the physical page is invalidated immediately, so cleaning never wastes
//!   time migrating dead data (§3.5, Table 5).
//! * **Priority-aware cleaning** ([`CleaningMode::PriorityAware`]): when
//!   high-priority requests are outstanding, cleaning is postponed until
//!   the critical watermark (§3.6, Figure 3, Table 6).
//!
//! # Tables
//!
//! The forward map, the translation directory and the reverse map hold
//! 32-bit entries (`crate::ppn`): a physical page number is a page's index
//! in `(element, block, page)` order, below 2³¹ on every accepted geometry,
//! and converts to a flash address by multiplication.  Page state is not
//! the FTL's to store either: the flash array derives it from each block's
//! write pointer and one valid bit per page ([`ossd_flash::block`]).
//!
//! The reverse map is the simulator's copy of what a real device keeps in
//! each page's out-of-band (OOB) spare area: the tag a program writes with
//! the data (the logical page, or `MAP_TAG | tpn` for a translation page)
//! and nothing rewrites until the page is programmed again.  Invalidation
//! leaves it, so a stale page still carries the tag of what it once held,
//! and it is read only where the valid bitmap is set — by the drain, which
//! walks valid pages only.  A valid page's tag maps back to it (`map[l]` or
//! the GTD entry of the translation page); a seeded churn suite checks that
//! after every command.  The host path therefore writes the table once per
//! program and never at random to clear an entry.
//!
//! # Block relocation
//!
//! Cleaning (foreground, forced, background) and wear-leveling empty a
//! block through one routine, `PageFtl::drain_block`, which moves pages in
//! *runs*: the valid data pages from a point on, stale pages between them
//! passed over, as far as the append block has room.  The drain works on a
//! copy of the block's valid-bitmap words taken as it starts: stale and
//! free pages are zero bits stepped over with `trailing_zeros`, stretches
//! of valid pages are found with `trailing_ones`, and the host-freed marks
//! of the pages passed are cleared and counted by one
//! [`FixedBitset::take_range`] per block.  A run costs one
//! `ensure_active_block`, one [`FlashArray::program_run`], one bulk
//! invalidation, one update each of the free-page counters, the
//! [`ossd_gc::VictimIndex`], the statistics and the op list, and a page-order loop
//! over `rmap`/`map`.  A live translation page ends a run and moves through
//! the map area on its own.  What the per-page loop it replaced guaranteed
//! still holds (a seeded differential suite checks it against that loop):
//!
//! * **Draw order.**  The fault model makes one failure draw per page in
//!   page order; a run stops at the first failure, which burns its page,
//!   retires the append block and restarts the rest on a fresh one.
//! * **Op order.**  Ops read `[copies…, failed attempt, copies…]` in page
//!   order, each `MapWrite` where its translation page stood.
//! * **Detach rule.**  The source block is out of its victim-index
//!   bucket for the drain — no bucket move per page, no pick returns it —
//!   and back under its current counts when the drain ends, *however* it
//!   ends: an aborted drain leaves the index truthful.

use std::ops::Range;

use ossd_flash::{
    bitmap, ElementId, FlashArray, FlashError, FlashGeometry, FlashTiming, ReliabilityConfig,
};
use ossd_gc::{watermark_trigger, TriggerContext, TriggerDecision};
use ossd_mapcache::{MapCache, MapStats, ENTRY_BYTES};
use ossd_telemetry::{EventKind, TelemetryHandle, Track};

use crate::bitset::FixedBitset;
use crate::config::{CleaningMode, FtlConfig};
use crate::error::FtlError;
use crate::pool::{AppendPoint, BlockPool, MAX_VICTIMS_PER_PASS};
use crate::ppn::{Ppn, PpnLayout};
use crate::types::{FlashOp, FlashOpKind, Ftl, FtlStats, Lpn, OpPurpose, WriteContext};

/// Reverse-map value of a physical page never programmed.
const UNMAPPED: u32 = u32::MAX;

/// Reverse-map tag marking a physical page as a *translation page* of the
/// demand-paged map area: the tagged value is `MAP_TAG | tpn`.  A device has
/// at most 2³¹ physical pages ([`crate::ppn::MAX_PAGES`]) and fewer logical
/// ones, so logical page numbers never reach bit 31 and a translation page
/// number never reaches 2³¹ − 1: tagged values collide neither with
/// untagged ones nor with [`UNMAPPED`].
const MAP_TAG: u32 = 1 << 31;

/// How often (in host writes) the wear-leveler checks the erase spread.
const WEAR_CHECK_INTERVAL: u64 = 256;

/// Demand-paged mapping state (DFTL-style): the translation table lives
/// in on-flash *translation pages* (one per `entries_per_tp` consecutive
/// lpns), an SRAM-budgeted [`MapCache`] holds the hot entries, and a
/// global translation directory (GTD) pins the current flash location of
/// each translation page.
///
/// The authoritative `map`/`rmap` arrays stay resident: the cache and the
/// translation pages model the *traffic and timing* of demand paging (a
/// miss costs a map read, a dirty eviction costs a read-modify-write
/// program), while mapping values are always served from the authoritative
/// arrays.  This keeps correctness independent of the paging model.
#[derive(Clone, Debug)]
struct DemandPaging {
    cache: MapCache,
    /// Global translation directory: current physical page of each
    /// translation page, `UNMAPPED` while the tp has never been written
    /// back (its entries exist only in the cache / are all unmapped).
    gtd: Vec<Ppn>,
    /// Translation-page reads issued (map-cache misses on materialized
    /// tps, plus the read half of each writeback's read-modify-write).
    map_reads: u64,
    /// Translation-page programs issued (writebacks and flushes).
    map_writes: u64,
    /// Valid translation pages relocated by cleaning or wear-leveling.
    map_gc_moves: u64,
    /// The tpns whose on-flash translation page was made stale by a
    /// relocation of an *uncached* entry and must be rewritten before the
    /// pass ends: a set over the GTD's indices.
    pending_tpns: FixedBitset,
    /// Scratch: the set [`PageFtl::flush_pending_tpns`] is rewriting,
    /// swapped with an empty `pending_tpns` so neither is reallocated.
    flushing: FixedBitset,
    /// Queued translation pages a completed flush discarded (see
    /// [`PageFtl::flush_pending_tpns`]).
    #[cfg(test)]
    discarded_rewrites: u64,
}

/// A page-mapped log-structured FTL over a [`FlashArray`].
#[derive(Clone, Debug)]
pub struct PageFtl {
    flash: FlashArray,
    config: FtlConfig,
    logical_pages: u64,
    /// The page-number layout of the geometry.
    layout: PpnLayout,
    /// Logical-to-physical map; [`Ppn::UNMAPPED`] for never-written pages.
    map: Vec<Ppn>,
    /// Physical-to-logical reverse map, indexed by page number: each page's
    /// OOB tag, the logical page it was programmed with or `MAP_TAG | tpn`
    /// for a translation page (`UNMAPPED` until first programmed).  Valid
    /// only where the page's valid bit is set: invalidation leaves the tag,
    /// so a stale page's entry names data that has moved on.
    rmap: Vec<u32>,
    /// Each element's block lifecycle: free list, append points, free-page
    /// count, deferred retirements and the incremental victim index.
    pools: Vec<BlockPool>,
    /// Round-robin allocation cursor over elements.
    cursor: usize,
    /// Physical pages invalidated because the host freed their logical page;
    /// used to report how much work informed cleaning avoided.  A flat
    /// bitset over the (dense, geometry-bounded) physical page numbers, so
    /// the free-hint path of every write costs a mask instead of a hash.
    freed_phys: FixedBitset,
    total_free_pages: u64,
    total_pages: u64,
    stats: FtlStats,
    writes_since_wear_check: u64,
    /// Logical clock: host writes served so far.  Block ages are measured
    /// against it.
    clock: u64,
    /// When enabled, every cleaning victim is appended here as
    /// `(element, block)`; used by tests to compare victim sequences across
    /// policy implementations.
    victim_trace: Option<Vec<(u32, u32)>>,
    /// Telemetry sink for GC and reliability instants; detached (free) by
    /// default.
    telemetry: TelemetryHandle,
    /// Demand-paged mapping (DFTL-style map cache + on-flash translation
    /// pages); `None` keeps the historical fully resident table.
    paging: Option<DemandPaging>,
    /// Blocks per element withheld from host-path allocation: the
    /// configured GC reserve, plus one for the map-area append point when
    /// the translation table spills to flash (demand paging).
    data_reserve_blocks: u32,
    /// Scratch: the valid-page bitmap of the block being drained, as it
    /// stood when the drain began.
    drain_valid: Vec<u64>,
    /// Routes [`PageFtl::drain_block`] to the per-page reference loop.
    #[cfg(test)]
    reference_drain: bool,
}

impl PageFtl {
    /// Builds a page-mapped FTL over a fresh, fault-free flash array.
    pub fn new(
        geometry: FlashGeometry,
        timing: FlashTiming,
        config: FtlConfig,
    ) -> Result<Self, FtlError> {
        Self::with_reliability(geometry, timing, config, ReliabilityConfig::none())
    }

    /// Builds a page-mapped FTL over a flash array with the given
    /// reliability model.  Factory-marked bad blocks are excluded from the
    /// allocation pools (and from the exported capacity) up front.
    pub fn with_reliability(
        geometry: FlashGeometry,
        timing: FlashTiming,
        config: FtlConfig,
        reliability: ReliabilityConfig,
    ) -> Result<Self, FtlError> {
        config.validate()?;
        reliability
            .validate()
            .map_err(|reason| FtlError::InvalidConfig { reason })?;
        // Before anything is sized by the geometry: more pages than a page
        // number addresses is an error, not a truncation.
        let layout = PpnLayout::new(&geometry)?;
        let flash = FlashArray::with_reliability(geometry, timing, reliability)?;
        let total_pages = geometry.total_pages();
        let usable_pages = flash.free_pages();
        let factory_bad_pages = total_pages - usable_pages;
        // Exported capacity is bounded both by the over-provisioning factor
        // and by what is physically placeable without cleaning: the blocks
        // reserved for GC can never hold host data, factory-bad blocks hold
        // nothing at all, and a device must survive a pure sequential fill
        // of everything it advertises (no overwrites means no stale pages,
        // so cleaning cannot help there).
        // A map cache spills the table to flash, and the map area appends
        // through its own per-element block: one extra reserved block per
        // element funds that append point so map writebacks and host data
        // never fight over the last free block.
        let data_reserve_blocks = config.gc_reserved_blocks + u32::from(config.map_cache.is_some());
        let reserved_pages = geometry.elements() as u64
            * data_reserve_blocks as u64
            * geometry.pages_per_block as u64;
        let placeable = total_pages
            .saturating_sub(reserved_pages)
            .saturating_sub(factory_bad_pages);
        let mut logical_pages = (((total_pages as f64) * (1.0 - config.overprovisioning)).floor()
            as u64)
            .min(placeable);
        let mut paging = None;
        if let Some(map_cache) = config.map_cache {
            let entries_per_tp = (geometry.page_bytes as u64 / ENTRY_BYTES).max(1);
            // The map area comes out of the exported capacity: one
            // translation page per `entries_per_tp` logical pages, doubled
            // because the map is itself a log — superseded translation-page
            // versions linger as stale pages until cleaning reclaims them,
            // so the map log needs its own over-provisioning.  (The
            // per-element append block is funded by `data_reserve_blocks`
            // above.)
            let tp_pages = logical_pages.div_ceil(entries_per_tp);
            logical_pages = logical_pages.saturating_sub(tp_pages * 2);
            if logical_pages == 0 {
                return Err(FtlError::InvalidConfig {
                    reason: "geometry too small for the demand-paged map area".to_string(),
                });
            }
            let gtd_len = logical_pages.div_ceil(entries_per_tp) as usize;
            paging = Some(DemandPaging {
                cache: MapCache::new(map_cache, entries_per_tp),
                gtd: vec![Ppn::UNMAPPED; gtd_len],
                map_reads: 0,
                map_writes: 0,
                map_gc_moves: 0,
                pending_tpns: FixedBitset::with_capacity(gtd_len as u64),
                flushing: FixedBitset::with_capacity(gtd_len as u64),
                #[cfg(test)]
                discarded_rewrites: 0,
            });
        }
        if logical_pages == 0 {
            return Err(FtlError::InvalidConfig {
                reason: "geometry too small: no logical pages exported".to_string(),
            });
        }
        // Factory-bad blocks never enter service.
        let pools = (0..geometry.elements())
            .map(|e| {
                let flash_element = flash.element(ElementId(e)).expect("element in range");
                let is_bad = |b| flash_element.block(b).expect("block in range").is_bad();
                BlockPool::new(
                    geometry.blocks_per_element(),
                    geometry.pages_per_block,
                    is_bad,
                )
            })
            .collect();
        Ok(PageFtl {
            flash,
            config,
            logical_pages,
            layout,
            map: vec![Ppn::UNMAPPED; logical_pages as usize],
            rmap: vec![UNMAPPED; total_pages as usize],
            pools,
            cursor: 0,
            freed_phys: FixedBitset::with_capacity(total_pages),
            total_free_pages: usable_pages,
            total_pages,
            stats: FtlStats::default(),
            writes_since_wear_check: 0,
            clock: 0,
            victim_trace: None,
            telemetry: TelemetryHandle::noop(),
            paging,
            data_reserve_blocks,
            drain_valid: Vec::new(),
            #[cfg(test)]
            reference_drain: false,
        })
    }

    /// Starts recording every cleaning victim as `(element, block)`.
    ///
    /// A validation/debugging aid: tests use it to assert that a cleaning
    /// policy reproduces an expected victim sequence on a deterministic
    /// trace.  Recording is off by default and unbounded when on, so enable
    /// it only for bounded test traces.
    pub fn enable_victim_trace(&mut self) {
        self.victim_trace = Some(Vec::new());
    }

    /// The victims recorded since [`PageFtl::enable_victim_trace`].
    pub fn victim_trace(&self) -> &[(u32, u32)] {
        self.victim_trace.as_deref().unwrap_or(&[])
    }

    /// The FTL configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Read-only access to the underlying flash array (used by reports).
    pub fn flash(&self) -> &FlashArray {
        &self.flash
    }

    /// Validates the incremental victim index against a from-scratch
    /// full-scan recompute of the candidate set, and proves every built-in
    /// policy picks the same victim from both representations.
    ///
    /// A test/validation aid like [`PageFtl::enable_victim_trace`]: the
    /// seeded property suite calls it throughout randomized
    /// write/free/GC/wear-level/retire sequences with fault injection on.
    pub fn check_victim_index(&mut self) -> Result<(), String> {
        for (element, pool) in self.pools.iter_mut().enumerate() {
            let flash_element = self
                .flash
                .element(ElementId(element as u32))
                .map_err(|e| e.to_string())?;
            // The recompute mirrors the pre-index candidate scan: every
            // non-retired block holding at least one stale page, in
            // ascending block order.  Block timestamps live only in the
            // index (they are not flash state), so `last_write` is read
            // back from it; counts and membership are fully cross-checked.
            let rows: Vec<crate::indexcheck::CandidateRow> = flash_element
                .iter_blocks()
                .filter(|(_, block)| !block.is_bad() && block.invalid_count() > 0)
                .map(|(b, block)| {
                    (
                        b,
                        block.valid_count(),
                        block.invalid_count(),
                        block.erase_count(),
                        pool.last_write(b),
                    )
                })
                .collect();
            pool.check(&rows, self.clock, &format!("element {element}"))?;
        }
        Ok(())
    }

    /// Asserts the reverse map's contract, the mapping half of ROADMAP item
    /// 1(a)'s invariants: every valid page's tag maps back to it — a data
    /// tag `l` through `map[l]`, a `MAP_TAG | tpn` tag through `gtd[tpn]` —
    /// and the valid pages number the mapped logical pages plus the live
    /// translation pages.  Stale and free pages' tags are not looked at.
    #[cfg(test)]
    fn check_reverse_map(&self, at: &str) {
        let gtd = self.paging.as_ref().map_or(&[][..], |p| &p.gtd[..]);
        let mut valid = 0;
        for element in 0..self.pools.len() {
            let flash_element = self.flash.element(ElementId(element as u32)).unwrap();
            for (block, _) in flash_element.iter_blocks() {
                let base = self.layout.block_base(element, block);
                let words = flash_element.valid_words(block).unwrap();
                for p in bitmap::runs_of_ones(words, 0)
                    .flatten()
                    .map(|page| base + page)
                {
                    let tag = self.rmap[p];
                    let (table, index) = match tag & MAP_TAG {
                        0 => ("map", self.map.get(tag as usize)),
                        _ => ("GTD", gtd.get((tag & !MAP_TAG) as usize)),
                    };
                    assert_eq!(
                        index.map(|ppn| ppn.index()),
                        Some(p),
                        "{at}: valid page {p} has tag {tag:#x}, which the {table} does not map to it"
                    );
                    valid += 1;
                }
            }
        }
        let live = |table: &[Ppn]| table.iter().filter(|&&ppn| ppn != Ppn::UNMAPPED).count();
        assert_eq!(
            valid,
            live(&self.map) + live(gtd),
            "{at}: valid pages against mapped logical pages plus live translation pages"
        );
    }

    /// The element with the most free pages, ties broken in round-robin
    /// order from the cursor.  Free pages of retired blocks were forfeited
    /// at retirement, so a heavily degraded element stops attracting writes.
    fn most_free_element(&self) -> usize {
        let n = self.pools.len();
        let mut best = self.cursor % n;
        let mut best_free = self.pools[best].free_pages();
        for k in 1..n {
            let idx = (self.cursor + k) % n;
            if self.pools[idx].free_pages() > best_free {
                best = idx;
                best_free = self.pools[idx].free_pages();
            }
        }
        best
    }

    /// Picks the element the next host write is allocated on: the one with
    /// the most free pages, with ties broken round-robin so balanced
    /// elements are striped evenly (which is what gives sequential *and*
    /// random writes their parallelism on a page-mapped SSD).
    fn pick_element(&mut self) -> usize {
        let best = self.most_free_element();
        self.cursor = (best + 1) % self.pools.len();
        best
    }

    /// The block the element's `point` appends to, one with at least a
    /// free page (see [`BlockPool::allocate`]).  `allow_reserve` lets
    /// relocation (cleaning, a retry after a program failure) dip into the
    /// reserved blocks.
    fn ensure_active_block(
        &mut self,
        element: usize,
        point: AppendPoint,
        allow_reserve: bool,
    ) -> Result<u32, FtlError> {
        let reserve = if allow_reserve {
            0
        } else {
            self.data_reserve_blocks
        };
        self.pools[element]
            .allocate(point, reserve)
            .ok_or(FtlError::NoFreeBlocks {
                element: element as u32,
            })
    }

    /// A program failed on `block`, the active block of the element's
    /// `point`, and burned its page (see [`BlockPool::burned`]).  `failed`
    /// bills the attempt, which still occupied the element for a full
    /// program pass.  The caller re-programs elsewhere under its own reserve
    /// policy.
    fn abandon_after_program_failure(
        &mut self,
        element: usize,
        point: AppendPoint,
        block: u32,
        failed: FlashOp,
        ops: &mut Vec<FlashOp>,
    ) {
        ops.push(failed);
        self.total_free_pages -= 1;
        self.pools[element].burned(point, block);
        self.telemetry.instant_now(
            Track::Element(element as u32),
            EventKind::ProgramFail,
            block as u64,
            element as u64,
        );
    }

    /// Programs the next page of the element's active block and returns its
    /// page number, updating the incremental free-page counters and the
    /// block's age clock.  `data_timestamp` is the logical-clock value of
    /// the data being written (see [`BlockPool::programmed`]).
    ///
    /// `purpose`/`ops` bill the latency of *failed* program attempts (the
    /// successful program's op is the caller's to emit, as before): a
    /// failed program consumes a full program pass before the status is
    /// reported, matching the erase-failure convention.
    fn program_page(
        &mut self,
        element: usize,
        allow_reserve: bool,
        data_timestamp: u64,
        purpose: OpPurpose,
        ops: &mut Vec<FlashOp>,
    ) -> Result<Ppn, FtlError> {
        let mut allow_reserve = allow_reserve;
        loop {
            let block = self.ensure_active_block(element, AppendPoint::Data, allow_reserve)?;
            let Some(ppn) = self.program_one(element, block, data_timestamp)? else {
                let failed = FlashOp::program_for(ElementId(element as u32), purpose);
                self.abandon_after_program_failure(element, AppendPoint::Data, block, failed, ops);
                // The retry may dip into the GC reserve even on the host
                // path: re-programming after a failure is relocation of data
                // that would otherwise be lost — exactly what the reserve
                // exists for.  Without this a device at its steady-state
                // watermark dies on the first program failure instead of
                // retiring the block.
                allow_reserve = true;
                continue;
            };
            return Ok(ppn);
        }
    }

    /// Programs the next page of `block` and accounts it; `None` is a
    /// program failure (the page is burned, the caller abandons the block).
    ///
    /// The page comes from [`FlashArray::program_run`]'s range, whose two
    /// 4-byte fields the caller reads back as they were stored.  Not from
    /// [`FlashArray::program`]: the host write path read its block and page
    /// back as one 8-byte load over two 4-byte stores, which no store can
    /// forward to, so the load waited for every older store to reach the
    /// cache.
    fn program_one(
        &mut self,
        element: usize,
        block: u32,
        stamp: u64,
    ) -> Result<Option<Ppn>, FtlError> {
        let pages = self
            .flash
            .program_run(ElementId(element as u32), block, 1)?;
        if pages.is_empty() {
            return Ok(None);
        }
        self.note_programmed(element, block, pages.clone(), stamp);
        Ok(Some(Ppn(
            self.layout.block_base(element, block) as u32 + pages.start
        )))
    }

    /// Accounts the `pages` just programmed into `block`, where `stamp` is
    /// the timestamp of the youngest data among them.
    fn note_programmed(&mut self, element: usize, block: u32, pages: Range<u32>, stamp: u64) {
        self.total_free_pages -= pages.len() as u64;
        self.pools[element].programmed(block, pages, stamp);
    }

    /// Accounts a retirement of `block` the flash has carried out.
    fn note_retired(&mut self, element: usize, block: u32) {
        self.total_free_pages -= self.pools[element].retired(block);
        self.telemetry.instant_now(
            Track::Element(element as u32),
            EventKind::BlockRetired,
            block as u64,
            element as u64,
        );
    }

    /// Finishes reclaiming `block` once its valid pages have been moved
    /// out: a block scheduled for retirement by the bad-block manager is
    /// retired (no erase is spent on it); otherwise the block is erased
    /// and recycled, with an erase *failure* retiring it on the spot.
    /// Returns whether an erase was attempted — the caller schedules the
    /// erase latency and accounts its statistics.  Shared by cleaning and
    /// wear-leveling so the two reclamation paths cannot drift.
    fn recycle_or_retire(&mut self, element: usize, block: u32) -> Result<bool, FtlError> {
        let element_id = ElementId(element as u32);
        if self.pools[element].retire_pending(block) {
            self.flash.retire(element_id, block)?;
            self.note_retired(element, block);
            return Ok(false);
        }
        match self.flash.erase(element_id, block) {
            Ok(()) => self.total_free_pages += self.pools[element].recycled(block),
            Err(FlashError::EraseFailed { .. }) => {
                // Grown bad block: the flash retired it on the spot and it
                // never returns to the free list; the failed erase still
                // took the erase latency, so the caller schedules the op.
                self.telemetry.instant_now(
                    Track::Element(element as u32),
                    EventKind::EraseFail,
                    block as u64,
                    element as u64,
                );
                self.note_retired(element, block);
            }
            Err(e) => return Err(e.into()),
        }
        Ok(true)
    }

    /// Invalidates the physical page currently mapped to `lpn`, if any.  The
    /// page keeps its reverse-map tag: a stale page's tag is never read.
    fn invalidate_mapping(&mut self, lpn: Lpn, freed_by_host: bool) -> Result<(), FtlError> {
        let ppn = self.map[lpn.index()];
        if ppn == Ppn::UNMAPPED {
            return Ok(());
        }
        let addr = self.layout.addr(ppn);
        let change = self.flash.invalidate(addr)?;
        debug_assert!(change.newly_stale, "a mapped page is a valid page");
        self.pools[addr.element.index()].invalidated(addr.block, 1);
        self.map[lpn.index()] = Ppn::UNMAPPED;
        if freed_by_host {
            self.freed_phys.insert(ppn.0 as u64);
        }
        Ok(())
    }

    // ---- Demand-paged mapping (DFTL-style) -----------------------------

    /// Programs the next version of translation page `tpn` into the map
    /// area of `element`, superseding (invalidating) the previous on-flash
    /// version and updating the GTD and reverse map.  Emits the `MapWrite`
    /// op; program failures are handled exactly like [`PageFtl::program_page`]
    /// (burned page billed, block scheduled for retirement, retry on a
    /// fresh block).
    ///
    /// `forced_clean_allowed` lets an out-of-blocks element clean its way
    /// to a free block first (host-path writebacks); relocation callers
    /// already run inside cleaning and pass `false` — their headroom is
    /// the extra reserved block.
    fn program_map_page(
        &mut self,
        mut element: usize,
        tpn: u64,
        purpose: OpPurpose,
        forced_clean_allowed: bool,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let point = AppendPoint::Map;
        loop {
            let block = match self.ensure_active_block(element, point, !forced_clean_allowed) {
                Ok(block) => block,
                Err(FtlError::NoFreeBlocks { .. }) if forced_clean_allowed => {
                    if self.clean_one_block(element, OpPurpose::Clean, true, ops)? {
                        continue;
                    }
                    // No victim on this element (its stale pages may all
                    // sit elsewhere): metadata cannot be refused, so dip
                    // into the reserve — the next cleaning pass restores
                    // the headroom.
                    match self.ensure_active_block(element, point, true) {
                        Ok(block) => block,
                        Err(FtlError::NoFreeBlocks { .. }) => {
                            // Last resort: place this translation-page
                            // version on any element with headroom (the
                            // GTD tracks it wherever it lands).
                            let n = self.pools.len();
                            let mut found = None;
                            for k in 1..n {
                                let alt = (element + k) % n;
                                if let Ok(block) = self.ensure_active_block(alt, point, true) {
                                    found = Some((alt, block));
                                    break;
                                }
                            }
                            let Some((alt, block)) = found else {
                                return Err(FtlError::NoFreeBlocks {
                                    element: element as u32,
                                });
                            };
                            element = alt;
                            block
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => return Err(e),
            };
            // Translation pages are metadata written now: they carry the
            // current clock, not a relocated-data age.
            let Some(new_ppn) = self.program_one(element, block, self.clock)? else {
                let failed = FlashOp::map_write(ElementId(element as u32), purpose);
                self.abandon_after_program_failure(element, point, block, failed, ops);
                continue;
            };
            let old_ppn = {
                let paging = self.paging.as_mut().expect("demand paging enabled");
                paging.map_writes += 1;
                std::mem::replace(&mut paging.gtd[tpn as usize], new_ppn)
            };
            // The superseded version keeps its tag, as a stale page does.
            if old_ppn != Ppn::UNMAPPED {
                let old_addr = self.layout.addr(old_ppn);
                let change = self.flash.invalidate(old_addr)?;
                debug_assert!(change.newly_stale, "the GTD points at a valid page");
                self.pools[old_addr.element.index()].invalidated(old_addr.block, 1);
            }
            debug_assert!(tpn < (MAP_TAG - 1) as u64, "see MAP_TAG");
            self.rmap[new_ppn.index()] = MAP_TAG | tpn as u32;
            ops.push(FlashOp::map_write(ElementId(element as u32), purpose));
            return Ok(());
        }
    }

    /// Read-modify-write of translation page `tpn`: the read half costs a
    /// `MapRead` when a previous version is materialized on flash; the
    /// write half programs the merged page into the tpn's home element
    /// (`tpn % elements`, striping the map area like host data).
    fn map_writeback(
        &mut self,
        tpn: u64,
        purpose: OpPurpose,
        forced_clean_allowed: bool,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let tp_ppn = self.paging.as_ref().expect("demand paging enabled").gtd[tpn as usize];
        if tp_ppn != Ppn::UNMAPPED {
            let element = self.layout.addr(tp_ppn).element;
            self.paging
                .as_mut()
                .expect("demand paging enabled")
                .map_reads += 1;
            ops.push(FlashOp::map_read(element, purpose));
        }
        let home = (tpn % self.pools.len() as u64) as usize;
        self.program_map_page(home, tpn, purpose, forced_clean_allowed, ops)
    }

    /// Map-cache lookup ahead of a host access: counts the hit or miss
    /// and, on a miss whose translation page is materialized on flash,
    /// issues the demand `MapRead`.  Returns whether the entry was cached.
    fn map_lookup(&mut self, lpn: Lpn, purpose: OpPurpose, ops: &mut Vec<FlashOp>) -> bool {
        let tp_ppn = {
            let Some(paging) = self.paging.as_mut() else {
                return true;
            };
            if paging.cache.lookup(lpn.0).is_some() {
                return true;
            }
            let tpn = paging.cache.tpn_of(lpn.0);
            paging.gtd[tpn as usize]
        };
        if tp_ppn != Ppn::UNMAPPED {
            let element = self.layout.addr(tp_ppn).element;
            self.paging
                .as_mut()
                .expect("demand paging enabled")
                .map_reads += 1;
            ops.push(FlashOp::map_read(element, purpose));
        }
        false
    }

    /// Installs (or refreshes) `lpn → ppn` in the map cache after the
    /// access resolved its value.  A dirty eviction triggers the batched
    /// writeback of every dirty sibling of the evicted entry's translation
    /// page — one read-modify-write covers them all.
    fn map_install(
        &mut self,
        lpn: Lpn,
        ppn: Ppn,
        dirty: bool,
        hit: bool,
        purpose: OpPurpose,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let evicted = {
            let Some(paging) = self.paging.as_mut() else {
                return Ok(());
            };
            // The cache holds the modelled device's 8-byte entries; which
            // value an entry carries decides nothing (see `DemandPaging`).
            if hit {
                if dirty {
                    paging.cache.update(lpn.0, ppn.0 as u64, true);
                }
                return Ok(());
            }
            paging.cache.insert(lpn.0, ppn.0 as u64, dirty)
        };
        if let Some(evicted) = evicted {
            if evicted.dirty {
                let paging = self.paging.as_mut().expect("demand paging enabled");
                let tpn = paging.cache.tpn_of(evicted.lpn);
                paging.cache.writeback(tpn, true);
                self.map_writeback(tpn, purpose, true, ops)?;
            }
        }
        Ok(())
    }

    /// Notes a relocation (cleaning/wear-leveling) of `lpn` to `new_ppn`
    /// for the paging model: a cached entry is updated in place and goes
    /// dirty (its on-flash translation page now points at the old
    /// location); an uncached entry whose translation page is materialized
    /// stales that page, which is queued for a rewrite at the end of the
    /// pass ([`PageFtl::flush_pending_tpns`]).
    fn note_relocation(&mut self, lpn: u32, new_ppn: Ppn) {
        let Some(paging) = self.paging.as_mut() else {
            return;
        };
        if paging.cache.update(lpn as u64, new_ppn.0 as u64, true) {
            return;
        }
        let tpn = paging.cache.tpn_of(lpn as u64);
        if paging.gtd[tpn as usize] != Ppn::UNMAPPED {
            paging.pending_tpns.insert(tpn);
        }
    }

    /// Rewrites every translation page queued by
    /// [`PageFtl::note_relocation`] in ascending tpn order — one
    /// read-modify-write per distinct translation page, however many of
    /// its entries the pass relocated.
    ///
    /// A rewrite may find its home element out of blocks and clean one
    /// (`program_map_page`'s forced clean), and that clean queues the
    /// translation pages it stales in turn.  A flush that completes
    /// discards those: they are never rewritten, and the on-flash map keeps
    /// pointing at the pages the nested clean relocated.  A flush that
    /// fails keeps them queued and loses its own untried rest.  The fault
    /// goldens pin both, so the fix is left to ROADMAP item 1(c); the
    /// ignored `flush_keeps_what_its_nested_clean_queued` test counts the
    /// discarded rewrites.
    fn flush_pending_tpns(
        &mut self,
        purpose: OpPurpose,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let mut tpns = {
            let Some(paging) = self.paging.as_mut() else {
                return Ok(());
            };
            if paging.pending_tpns.is_empty() {
                return Ok(());
            }
            let empty = std::mem::take(&mut paging.flushing);
            std::mem::replace(&mut paging.pending_tpns, empty)
        };
        let mut flushed = Ok(());
        for tpn in tpns.drain_ascending() {
            // Dirty cached siblings of this tp ride along in the rewrite.
            let paging = self.paging.as_mut().expect("demand paging enabled");
            paging.cache.writeback(tpn, false);
            flushed = self.map_writeback(tpn, purpose, true, ops);
            if flushed.is_err() {
                break;
            }
        }
        tpns.clear();
        let paging = self.paging.as_mut().expect("demand paging enabled");
        if flushed.is_ok() {
            #[cfg(test)]
            {
                paging.discarded_rewrites += paging.pending_tpns.len();
            }
            paging.pending_tpns.clear();
        }
        paging.flushing = tpns;
        flushed
    }

    /// Reclaims one victim block on `element`, appending the flash
    /// operations performed to `ops`.  Returns `false` when no block could
    /// be reclaimed (no stale pages anywhere).  `include_full_active`
    /// relaxes the candidate filter (see [`BlockPool::pick`]).
    fn clean_one_block(
        &mut self,
        element: usize,
        purpose: OpPurpose,
        include_full_active: bool,
        ops: &mut Vec<FlashOp>,
    ) -> Result<bool, FtlError> {
        let pick =
            self.pools[element].pick(self.config.cleaning_policy, self.clock, include_full_active);
        let Some(victim) = pick else {
            return Ok(false);
        };
        if let Some(trace) = self.victim_trace.as_mut() {
            trace.push((element as u32, victim));
        }
        self.telemetry.instant_now(
            Track::Element(element as u32),
            EventKind::GcVictimPick,
            victim as u64,
            purpose.telemetry_code(),
        );
        self.drain_block(element, victim, purpose, ops)?;
        // All pages are now stale or free: retire (deferred bad-block
        // retirement, no erase scheduled) or erase-and-recycle the victim.
        if !self.recycle_or_retire(element, victim)? {
            return Ok(true);
        }
        ops.push(FlashOp {
            element: ElementId(element as u32),
            kind: FlashOpKind::EraseBlock,
            purpose,
        });
        match purpose {
            OpPurpose::WearLevel => {}
            OpPurpose::BackgroundClean => self.stats.bg_blocks_erased += 1,
            _ => self.stats.gc_blocks_erased += 1,
        }
        Ok(true)
    }

    /// Moves every live page out of `block` — a cleaning victim or a
    /// wear-leveling source, never an append block — so that it can be
    /// erased or retired.  The one relocation routine: the module docs say
    /// how it works and what it guarantees.
    fn drain_block(
        &mut self,
        element: usize,
        block: u32,
        purpose: OpPurpose,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        #[cfg(test)]
        if self.reference_drain {
            return self.drain_block_reference(element, block, purpose, ops);
        }
        let source = self.flash.element(ElementId(element as u32))?;
        let mut valid = std::mem::take(&mut self.drain_valid);
        valid.clear();
        valid.extend_from_slice(source.valid_words(block)?);
        self.pools[element].detach(block);
        let mut passed = 0;
        let drained = self.drain_pages(element, block, &valid, &mut passed, purpose, ops);
        self.pools[element].attach(block);
        self.drain_valid = valid;
        // The stale pages the drain passed over whose logical page the host
        // had freed are moves informed cleaning avoided.  (Only stale pages
        // carry the bit: it is set at invalidation and cleared here.)
        let base = self.layout.block_base(element, block) as u64;
        let skipped = self.freed_phys.take_range(base..base + passed as u64);
        self.stats.gc_pages_skipped_free += skipped as u64;
        drained
    }

    /// The body of [`PageFtl::drain_block`], over the snapshot `valid` of
    /// the detached block's bitmap (only the drain changes it meanwhile).
    /// `passed` is left at the number of leading source pages dealt with:
    /// all of them, unless the drain fails part-way.
    fn drain_pages(
        &mut self,
        element: usize,
        block: u32,
        valid: &[u64],
        passed: &mut usize,
        purpose: OpPurpose,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let element_id = ElementId(element as u32);
        let copy = FlashOp {
            purpose,
            ..FlashOp::gc_copyback(element_id)
        };
        // Relocated data keeps the source block's age (LFS convention).
        let timestamp = self.pools[element].last_write(block);
        let base = self.layout.block_base(element, block);
        // Only the valid pages' tags are read, and a valid page's tag is a
        // logical page or a translation page, never `UNMAPPED`.
        let is_map_page = |tag: u32| tag & MAP_TAG != 0;
        // Stale and free pages have no bit and are stepped over a word at a
        // time.
        while let Some(first) = bitmap::runs_of_ones(valid, *passed).next() {
            let page = first.start;
            *passed = page;
            let tag = self.rmap[base + page];
            if is_map_page(tag) {
                // A live translation page: relocate it through the map
                // area.  The program supersedes this copy via the GTD,
                // invalidating it in passing.
                let tpn = (tag & !MAP_TAG) as u64;
                let paging = self.paging.as_ref().expect("tagged page implies paging");
                debug_assert_eq!(paging.gtd[tpn as usize].index(), base + page);
                self.program_map_page(element, tpn, purpose, false, ops)?;
                self.paging
                    .as_mut()
                    .expect("tagged page implies paging")
                    .map_gc_moves += 1;
                *passed += 1;
                continue;
            }
            // A run: the valid data pages from here on — stale pages
            // between them passed over, a translation page ending it — as
            // far as the append block has room.
            let dest = self.ensure_active_block(element, AppendPoint::Data, true)?;
            let room = self.flash.element(element_id)?.block(dest)?.free_count();
            let mut want = 0;
            for stretch in bitmap::runs_of_ones(valid, page) {
                let tags = &self.rmap[base + stretch.start..base + stretch.end];
                let fit = tags.iter().take((room - want) as usize);
                let data = fit.take_while(|&&tag| !is_map_page(tag)).count();
                want += data as u32;
                if data < stretch.len() {
                    break;
                }
            }
            let landed = self.flash.program_run(element_id, dest, want)?;
            let moved = landed.len() as u32;
            #[cfg(test)]
            oracle::note_run(want, moved);
            if moved > 0 {
                self.note_programmed(element, dest, landed.clone(), timestamp);
                let mut new_ppn = self.layout.block_base(element, dest) + landed.start as usize;
                let mut left = moved as usize;
                let mut end = page;
                for stretch in bitmap::runs_of_ones(valid, page) {
                    end = stretch.end.min(stretch.start + left);
                    for old_ppn in base + stretch.start..base + end {
                        let lpn = self.rmap[old_ppn];
                        debug_assert_eq!(
                            self.map[lpn as usize].index(),
                            old_ppn,
                            "a valid page's tag maps back to it"
                        );
                        self.rmap[new_ppn] = lpn;
                        self.map[lpn as usize] = Ppn(new_ppn as u32);
                        self.note_relocation(lpn, Ppn(new_ppn as u32));
                        new_ppn += 1;
                    }
                    left -= end - stretch.start;
                    if left == 0 {
                        break;
                    }
                }
                let span = page as u32..end as u32;
                let staled = (self.flash.element_mut(element_id)?).invalidate_span(block, span)?;
                debug_assert_eq!(staled, moved, "a run stales exactly what it moved");
                *passed = end;
                self.pools[element].moved_out(block, moved);
                ops.extend(std::iter::repeat_n(copy, moved as usize));
                match purpose {
                    OpPurpose::WearLevel => self.stats.wear_level_moves += moved as u64,
                    OpPurpose::BackgroundClean => self.stats.bg_pages_moved += moved as u64,
                    _ => self.stats.gc_pages_moved += moved as u64,
                }
            }
            if moved < want {
                // The program after the last landed page failed; the rest
                // of the run starts over on a fresh block.
                self.abandon_after_program_failure(element, AppendPoint::Data, dest, copy, ops);
            }
        }
        *passed = self.flash.geometry().pages_per_block as usize;
        Ok(())
    }

    /// Applies the cleaning policy ahead of a host write to `element`.
    fn maybe_clean(
        &mut self,
        element: usize,
        ctx: &WriteContext,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let low = self.config.gc_low_watermark;
        let trigger = TriggerContext {
            free_fraction: self.pools[element].free_fraction(),
            low_watermark: low,
            critical_watermark: self.config.gc_critical_watermark,
            priority_pending: ctx.priority_pending,
            priority_aware: self.config.cleaning_mode == CleaningMode::PriorityAware,
        };
        let free_ppm = (trigger.free_fraction * 1e6) as u64;
        match watermark_trigger(&trigger) {
            TriggerDecision::Idle => return Ok(()),
            TriggerDecision::Postponed => {
                self.stats.gc_postponements += 1;
                self.telemetry.instant_now(
                    Track::Element(element as u32),
                    EventKind::GcPostponed,
                    free_ppm,
                    element as u64,
                );
                return Ok(());
            }
            TriggerDecision::Clean => {}
        }
        // No-progress fast path: a previous pass on this element found no
        // block with a stale page, and nothing has been invalidated since,
        // so another scan cannot succeed either.
        if self.pools[element].clean_stalled {
            return Ok(());
        }
        self.stats.gc_invocations += 1;
        self.telemetry.instant_now(
            Track::Element(element as u32),
            EventKind::GcTrigger,
            free_ppm,
            element as u64,
        );
        let mut victims = 0;
        while self.pools[element].free_fraction() < low && victims < MAX_VICTIMS_PER_PASS {
            if !self.clean_one_block(element, OpPurpose::Clean, false, ops)? {
                break;
            }
            victims += 1;
        }
        // Rewrite the translation pages staled by relocating uncached
        // entries — once per pass, so tps shared across victims cost one
        // read-modify-write.
        self.flush_pending_tpns(OpPurpose::Clean, ops)?;
        if victims == 0 {
            self.stats.gc_fruitless_passes += 1;
            self.pools[element].clean_stalled = true;
            self.telemetry.instant_now(
                Track::Element(element as u32),
                EventKind::GcFruitless,
                element as u64,
                0,
            );
        }
        Ok(())
    }

    /// Performs up to `max_erases` background block reclamations towards
    /// `target_free_fraction`, neediest element first.
    fn background_clean_impl(
        &mut self,
        max_erases: u32,
        target_free_fraction: f64,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let mut budget = max_erases;
        while budget > 0 {
            // Elements below the free-space target, neediest first; ties
            // break towards the lower element index for determinism.
            let mut needy: Vec<(usize, f64)> = (0..self.pools.len())
                .map(|e| (e, self.pools[e].free_fraction()))
                .filter(|&(_, f)| f < target_free_fraction)
                .collect();
            needy.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("free fractions are finite"));
            let mut progressed = false;
            for (element, _) in needy {
                if self.clean_one_block(element, OpPurpose::BackgroundClean, true, ops)? {
                    progressed = true;
                    budget -= 1;
                    break;
                }
            }
            if !progressed {
                break;
            }
        }
        // Batched rewrite of translation pages staled by this pass.
        self.flush_pending_tpns(OpPurpose::BackgroundClean, ops)?;
        Ok(())
    }

    /// Periodic explicit wear-leveling: when the erase spread on an element
    /// exceeds the configured bound, migrate the valid data out of the
    /// least-worn (coldest) block so the block returns to the allocation
    /// pool.
    fn maybe_wear_level(&mut self, element: usize, ops: &mut Vec<FlashOp>) -> Result<(), FtlError> {
        let Some(wl) = self.config.wear_leveling else {
            return Ok(());
        };
        self.writes_since_wear_check += 1;
        if self.writes_since_wear_check < WEAR_CHECK_INTERVAL {
            return Ok(());
        }
        self.writes_since_wear_check = 0;
        let element_id = ElementId(element as u32);
        let pool = &self.pools[element];
        let flash_element = self.flash.element(element_id)?;
        // The source found below has at least the element's lowest erase
        // count, so a spread within the bound rules a migration out without
        // visiting a block.
        let Some((least, most)) = flash_element.erase_count_bounds() else {
            return Ok(());
        };
        if most - least <= wl.max_erase_spread {
            return Ok(());
        }
        let mut min_block: Option<(u32, u32)> = None;
        for (idx, block) in flash_element.iter_blocks() {
            // Retired blocks take no further erases and are no migration
            // source; neither is an append point (host data or map area):
            // erasing a block still being appended to would hand its pages
            // out twice.
            if block.is_bad() || pool.is_active(idx) || block.valid_count() == 0 {
                continue;
            }
            let erases = block.erase_count();
            if min_block.is_none_or(|(_, best)| erases < best) {
                min_block = Some((idx, erases));
            }
        }
        let Some((cold_block, cold_erases)) = min_block else {
            return Ok(());
        };
        if most - cold_erases <= wl.max_erase_spread {
            return Ok(());
        }
        self.drain_block(element, cold_block, OpPurpose::WearLevel, ops)?;
        // Rewrite translation pages staled by migrating uncached entries.
        self.flush_pending_tpns(OpPurpose::WearLevel, ops)?;
        // Retire (a cold block that previously failed a program must not
        // return to service) or erase-and-recycle the migrated block; the
        // shared helper keeps wear-leveling's reclamation identical to
        // cleaning's.
        if self.recycle_or_retire(element, cold_block)? {
            ops.push(FlashOp {
                element: element_id,
                kind: FlashOpKind::EraseBlock,
                purpose: OpPurpose::WearLevel,
            });
        }
        Ok(())
    }
}

/// The per-page relocation loop [`PageFtl::drain_block`] replaced, kept as
/// the reference the run-based drain is differentially tested against.
#[cfg(test)]
mod oracle;

impl Ftl for PageFtl {
    fn geometry(&self) -> &FlashGeometry {
        self.flash.geometry()
    }

    fn logical_page_bytes(&self) -> u64 {
        self.flash.geometry().page_bytes as u64
    }

    fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    fn read_into(
        &mut self,
        lpn: Lpn,
        _covered_bytes: u64,
        ops: &mut Vec<FlashOp>,
    ) -> Result<bool, FtlError> {
        lpn.check(self.logical_pages)?;
        self.stats.host_reads += 1;
        // Demand paging: the mapping entry must be in the cache before the
        // data read can be addressed; a miss on a materialized translation
        // page costs a map read first.
        let map_hit = self.map_lookup(lpn, OpPurpose::HostRead, ops);
        let ppn = self.map[lpn.index()];
        if ppn == Ppn::UNMAPPED {
            // Reading a never-written page returns zeroes without touching
            // the flash array (the FTL still had to consult the map to
            // know that, so the unmapped verdict is cached too).
            self.map_install(lpn, ppn, false, map_hit, OpPurpose::HostRead, ops)?;
            return Ok(false);
        }
        let addr = self.layout.addr(ppn);
        let status = self.flash.read(addr)?;
        self.stats.pages_read_host += 1;
        ops.push(FlashOp::host_read(addr.element));
        for _ in 0..status.retries {
            ops.push(FlashOp::host_read_retry(addr.element));
        }
        if status.retries > 0 {
            self.telemetry.instant_now(
                Track::Element(addr.element.0),
                EventKind::EccRetry,
                status.retries as u64,
                addr.element.0 as u64,
            );
        }
        if status.uncorrectable {
            self.telemetry.instant_now(
                Track::Element(addr.element.0),
                EventKind::ReadUncorrectable,
                lpn.0,
                0,
            );
        }
        self.map_install(lpn, ppn, false, map_hit, OpPurpose::HostRead, ops)?;
        Ok(status.uncorrectable)
    }

    fn write_into(
        &mut self,
        lpn: Lpn,
        _covered_bytes: u64,
        ctx: &WriteContext,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        lpn.check(self.logical_pages)?;
        self.stats.host_writes += 1;
        self.clock += 1;
        // Demand paging: consult the map cache up front — the old mapping
        // must be known before it can be superseded, so a miss on a
        // materialized translation page costs a map read before anything
        // else proceeds.
        let map_hit = self.map_lookup(lpn, OpPurpose::HostWrite, ops);
        let element = self.pick_element();

        // Watermark-driven cleaning and wear-leveling happen before the
        // write so their cost lands ahead of the host page program, exactly
        // as the paper's "foreground requests wait for cleaning" framing.
        self.maybe_clean(element, ctx, ops)?;
        self.maybe_wear_level(element, ops)?;

        // Forced cleaning: allocation must be able to make progress even if
        // the watermark policy decided not to clean (e.g. priority-aware
        // postponement) but the element is genuinely out of blocks.
        let mut element = element;
        let mut invalidated_early = false;
        loop {
            match self.ensure_active_block(element, AppendPoint::Data, false) {
                Ok(_) => break,
                Err(FtlError::NoFreeBlocks { .. }) => {
                    if !self.clean_one_block(element, OpPurpose::Clean, true, ops)? {
                        // No block on this element holds a stale page.  If
                        // this write supersedes an older copy, invalidate it
                        // now (it would be invalidated below anyway) and
                        // retry on the element that holds it — this is the
                        // only way a completely full device can absorb an
                        // overwrite.
                        let old_ppn = self.map[lpn.index()];
                        if !invalidated_early && old_ppn != Ppn::UNMAPPED {
                            element = self.layout.addr(old_ppn).element.index();
                            self.invalidate_mapping(lpn, false)?;
                            invalidated_early = true;
                            continue;
                        }
                        // With demand paging the picked element's free pages
                        // can be locked inside its two append blocks while a
                        // sibling element still has allocatable blocks or
                        // cleanable victims — retry there before giving up.
                        // (Only reachable in states that previously errored,
                        // so pinned sequences are unaffected.)
                        let n = self.pools.len();
                        let mut switched = false;
                        for k in 1..n {
                            let alt = (element + k) % n;
                            match self.ensure_active_block(alt, AppendPoint::Data, false) {
                                Ok(_) => {
                                    element = alt;
                                    switched = true;
                                    break;
                                }
                                Err(FtlError::NoFreeBlocks { .. }) => {
                                    if self.clean_one_block(alt, OpPurpose::Clean, true, ops)? {
                                        element = alt;
                                        switched = true;
                                        break;
                                    }
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        if switched {
                            continue;
                        }
                        return Err(FtlError::NoFreeBlocks {
                            element: element as u32,
                        });
                    }
                }
                Err(e) => return Err(e),
            }
        }

        // Translation pages staled by forced cleaning are rewritten before
        // the host program proceeds.
        self.flush_pending_tpns(OpPurpose::Clean, ops)?;

        // Supersede any previous version of this logical page (unless the
        // forced-cleaning fallback already did).
        if !invalidated_early {
            self.invalidate_mapping(lpn, false)?;
        }
        let ppn = self.program_page(element, false, self.clock, OpPurpose::HostWrite, ops)?;
        self.map[lpn.index()] = ppn;
        // `check_lpn` bounds it by the logical page count, itself below 2³¹.
        self.rmap[ppn.index()] = lpn.0 as u32;
        self.stats.pages_programmed_host += 1;
        ops.push(FlashOp::host_program(ElementId(element as u32)));
        // The new mapping enters the cache dirty; a dirty eviction here
        // emits the batched translation-page writeback.
        self.map_install(lpn, ppn, true, map_hit, OpPurpose::HostWrite, ops)?;
        Ok(())
    }

    fn free(&mut self, lpn: Lpn) -> Result<bool, FtlError> {
        lpn.check(self.logical_pages)?;
        if !self.config.honor_free {
            return Ok(false);
        }
        self.stats.frees_accepted += 1;
        if self.map[lpn.index()] == Ppn::UNMAPPED {
            return Ok(false);
        }
        self.invalidate_mapping(lpn, true)?;
        // Demand paging: a cached entry goes (dirty) unmapped.  An uncached
        // entry's stale on-flash translation page is left for the next
        // natural rewrite — TRIM is advisory and mapping values are always
        // served authoritatively, so deferring costs nothing.
        if let Some(paging) = self.paging.as_mut() {
            paging.cache.update(lpn.0, Ppn::UNMAPPED.0 as u64, true);
        }
        Ok(true)
    }

    fn background_clean_into(
        &mut self,
        max_erases: u32,
        target_free_fraction: f64,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        self.background_clean_impl(max_erases, target_free_fraction, ops)
    }

    fn flush_into(&mut self, ops: &mut Vec<FlashOp>) -> Result<(), FtlError> {
        // Staled tps queued by earlier relocations drain first, then every
        // dirty cached entry.  A resident table has neither.
        self.flush_pending_tpns(OpPurpose::HostWrite, ops)?;
        let Some(paging) = self.paging.as_mut() else {
            return Ok(());
        };
        for (tpn, _entries) in paging.cache.drain_dirty() {
            self.map_writeback(tpn, OpPurpose::HostWrite, true, ops)?;
        }
        Ok(())
    }

    fn stats(&self) -> FtlStats {
        self.stats
    }

    fn free_page_fraction(&self) -> f64 {
        if self.total_pages == 0 {
            return 0.0;
        }
        self.total_free_pages as f64 / self.total_pages as f64
    }

    fn is_mapped(&self, lpn: Lpn) -> bool {
        lpn.0 < self.logical_pages && self.map[lpn.index()] != Ppn::UNMAPPED
    }

    fn locate(&self, lpn: Lpn) -> Option<u32> {
        if lpn.0 >= self.logical_pages {
            return None;
        }
        let ppn = self.map[lpn.index()];
        if ppn == Ppn::UNMAPPED {
            None
        } else {
            Some(self.layout.addr(ppn).element.0)
        }
    }

    fn next_write_element(&self) -> Option<u32> {
        // `pick_element` without advancing the round-robin cursor.
        Some(self.most_free_element() as u32)
    }

    fn reliability_counters(&self) -> ossd_flash::ReliabilityCounters {
        self.flash.reliability_counters()
    }

    fn wear_summary(&self) -> ossd_flash::WearSummary {
        self.flash.wear_summary()
    }

    fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.telemetry = telemetry;
    }

    fn map_stats(&self) -> MapStats {
        let total = self.logical_pages * ENTRY_BYTES;
        match &self.paging {
            None => MapStats {
                bytes_resident: total,
                bytes_total: total,
                ..MapStats::default()
            },
            Some(paging) => {
                let mut stats = MapStats {
                    bytes_total: total,
                    // SRAM the paged design holds besides the cached
                    // entries: the GTD.
                    bytes_resident: paging.gtd.len() as u64 * ENTRY_BYTES,
                    map_reads: paging.map_reads,
                    map_writes: paging.map_writes,
                    map_gc_moves: paging.map_gc_moves,
                    ..MapStats::default()
                };
                paging.cache.stats_into(&mut stats);
                stats
            }
        }
    }

    fn gc_backlog_blocks(&self) -> u64 {
        self.pools.iter().map(BlockPool::backlog_blocks).sum()
    }

    fn gc_stale_pages(&self) -> u64 {
        self.pools.iter().map(BlockPool::stale_pages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossd_flash::FlashGeometry;

    fn tiny_ftl(config: FtlConfig) -> PageFtl {
        PageFtl::new(FlashGeometry::tiny(), FlashTiming::slc(), config).unwrap()
    }

    fn write_all(ftl: &mut PageFtl, lpns: impl Iterator<Item = u64>) {
        for lpn in lpns {
            ftl.write_into(Lpn(lpn), 4096, &WriteContext::idle(), &mut Vec::new())
                .unwrap();
            ftl.check_reverse_map(&format!("write {lpn}"));
        }
    }

    /// Regression test: a device must survive a pure sequential fill of
    /// everything it advertises.  With zero stale pages cleaning cannot
    /// free anything, so exported capacity must never exceed the pages
    /// placeable outside the GC reserve (at 10% OP the tiny geometry's
    /// nominal 115 logical pages exceed the 112 placeable ones; the
    /// exported capacity is capped accordingly).
    #[test]
    fn full_sequential_fill_of_advertised_capacity_succeeds() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        let logical = ftl.logical_pages();
        assert_eq!(logical, 112, "2 reserved blocks cap the export");
        write_all(&mut ftl, 0..logical);
        assert_eq!(ftl.flash().valid_pages(), logical);
        // The device stays writable afterwards (overwrites create stale
        // pages for cleaning).
        write_all(&mut ftl, 0..logical);
        assert_eq!(ftl.flash().valid_pages(), logical);
    }

    #[test]
    fn exported_capacity_respects_overprovisioning() {
        let ftl = tiny_ftl(FtlConfig::default().with_overprovisioning(0.25));
        // tiny geometry = 128 physical pages; 25% OP leaves 96 logical.
        assert_eq!(ftl.logical_pages(), 96);
        assert_eq!(ftl.logical_page_bytes(), 4096);
        assert_eq!(ftl.exported_bytes(), 96 * 4096);
        assert!((ftl.free_page_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn read_of_unwritten_page_returns_no_ops() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        let mut ops = Vec::new();
        ftl.read_into(Lpn(0), 4096, &mut ops).unwrap();
        assert!(ops.is_empty());
        assert!(!ftl.is_mapped(Lpn(0)));
    }

    #[test]
    fn write_then_read_maps_and_reads_flash() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        let mut ops = Vec::new();
        ftl.write_into(Lpn(5), 4096, &WriteContext::idle(), &mut ops)
            .unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, FlashOpKind::ProgramPage);
        assert!(ftl.is_mapped(Lpn(5)));
        let mut ops = Vec::new();
        let uncorrectable = ftl.read_into(Lpn(5), 4096, &mut ops).unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, FlashOpKind::ReadPage);
        assert!(!uncorrectable);
        let s = ftl.stats();
        assert_eq!(s.host_writes, 1);
        assert_eq!(s.host_reads, 1);
        assert_eq!(s.pages_programmed_host, 1);
    }

    #[test]
    fn out_of_range_lpns_are_rejected() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        let bad = Lpn(ftl.logical_pages());
        assert!(matches!(
            ftl.read_into(bad, 4096, &mut Vec::new()),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        assert!(matches!(
            ftl.write_into(bad, 4096, &WriteContext::idle(), &mut Vec::new()),
            Err(FtlError::LpnOutOfRange { .. })
        ));
        assert!(ftl.free(bad).is_err());
    }

    #[test]
    fn overwrite_invalidates_previous_mapping() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        ftl.write_into(Lpn(1), 4096, &WriteContext::idle(), &mut Vec::new())
            .unwrap();
        let before = ftl.flash().invalid_pages();
        ftl.write_into(Lpn(1), 4096, &WriteContext::idle(), &mut Vec::new())
            .unwrap();
        assert_eq!(ftl.flash().invalid_pages(), before + 1);
        // The logical page is still mapped (to the new location).
        assert!(ftl.is_mapped(Lpn(1)));
        assert_eq!(ftl.flash().valid_pages(), 1);
    }

    #[test]
    fn writes_spread_across_elements() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        let mut elements_touched = std::collections::HashSet::new();
        for lpn in 0..8 {
            let mut ops = Vec::new();
            ftl.write_into(Lpn(lpn), 4096, &WriteContext::idle(), &mut ops)
                .unwrap();
            elements_touched.insert(ops.last().unwrap().element);
        }
        // The tiny geometry has 2 elements; round-robin must use both.
        assert_eq!(elements_touched.len(), 2);
    }

    #[test]
    fn next_write_element_predicts_the_allocation_target() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        for lpn in 0..12 {
            let predicted = ftl.next_write_element().unwrap();
            let mut ops = Vec::new();
            ftl.write_into(Lpn(lpn), 4096, &WriteContext::idle(), &mut ops)
                .unwrap();
            let landed = ops.last().unwrap().element.0;
            assert_eq!(predicted, landed, "write {lpn} landed off the prediction");
        }
    }

    /// Writes the LPNs of `range` in a strided (permuted) order so that
    /// consecutive allocations come from scattered logical pages; later
    /// overwrites then leave blocks with a mix of valid and stale pages,
    /// which is what forces cleaning to migrate data.
    fn write_strided(ftl: &mut PageFtl, lpns: &[u64], stride: u64) {
        let n = lpns.len() as u64;
        for i in 0..n {
            let idx = ((i * stride) % n) as usize;
            ftl.write_into(Lpn(lpns[idx]), 4096, &WriteContext::idle(), &mut Vec::new())
                .unwrap();
            ftl.check_reverse_map(&format!("write {}", lpns[idx]));
        }
    }

    /// The refactored, policy-driven cleaner must reproduce the seed's
    /// hard-coded greedy cleaner bit-for-bit.  The expected victim sequence
    /// below was captured from the pre-refactor implementation on this
    /// exact deterministic trace (6 strided overwrite rounds on the tiny
    /// geometry): 478 victims with the given order-sensitive fingerprint,
    /// moving 3346 pages.
    #[test]
    fn greedy_policy_reproduces_seed_victim_sequence_bit_for_bit() {
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        assert_eq!(config.cleaning_policy, ossd_gc::CleaningPolicyKind::Greedy);
        let mut ftl = tiny_ftl(config);
        ftl.enable_victim_trace();
        let logical = ftl.logical_pages();
        let lpns: Vec<u64> = (0..logical).collect();
        for _ in 0..6 {
            write_strided(&mut ftl, &lpns, 13);
        }
        let trace = ftl.victim_trace();
        assert_eq!(trace.len(), 478, "victim count diverged from the seed");
        assert_eq!(
            &trace[..12],
            &[
                (0, 7),
                (1, 7),
                (0, 5),
                (1, 5),
                (0, 6),
                (1, 6),
                (0, 7),
                (1, 7),
                (0, 5),
                (1, 5),
                (0, 6),
                (1, 6)
            ],
            "leading victims diverged from the seed"
        );
        let fingerprint = trace.iter().fold(0u64, |h, &(e, b)| {
            h.wrapping_mul(1_000_003)
                .wrapping_add(((e as u64) << 32) | b as u64)
        });
        assert_eq!(
            fingerprint, 0x396967ec7d10dc88,
            "victim sequence fingerprint diverged from the seed"
        );
        let s = ftl.stats();
        assert_eq!(s.gc_blocks_erased, 478);
        assert_eq!(s.gc_pages_moved, 3346);
        assert_eq!(s.wear_level_moves, 8);
        assert!((s.write_amplification() - 6.822917).abs() < 1e-6);
    }

    /// Regression test for the unbounded-stall edge: when free space is
    /// below the watermark but no block holds a stale page (a device filled
    /// once with all-valid data), every write used to re-run a full
    /// fruitless victim scan.  The no-progress fast path must trigger at
    /// most one fruitless pass per element until an invalidation creates a
    /// victim, after which cleaning must resume.
    #[test]
    fn fruitless_cleaning_pass_is_not_retried_until_an_invalidation() {
        // 25% OP with a 0.4 low watermark: the initial fill (all first
        // writes, so zero stale pages) ends below the watermark.
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.4, 0.1);
        let mut ftl = tiny_ftl(config);
        let logical = ftl.logical_pages();
        write_all(&mut ftl, 0..logical);
        let after_fill = ftl.stats();
        assert!(
            ftl.free_page_fraction() < 0.4,
            "fill must end below the watermark"
        );
        assert_eq!(after_fill.gc_blocks_erased, 0, "nothing was reclaimable");
        // One fruitless pass per element at most — not one per write.
        assert!(
            after_fill.gc_fruitless_passes <= 2,
            "{} fruitless passes for a 2-element device",
            after_fill.gc_fruitless_passes
        );
        assert_eq!(after_fill.gc_invocations, after_fill.gc_fruitless_passes);

        // Overwrites invalidate pages, which un-stalls cleaning on the
        // elements holding the stale pages.
        for lpn in 0..8 {
            ftl.write_into(Lpn(lpn), 4096, &WriteContext::idle(), &mut Vec::new())
                .unwrap();
        }
        let after_overwrite = ftl.stats();
        assert!(
            after_overwrite.gc_invocations > after_fill.gc_invocations,
            "cleaning must resume once an invalidation creates a victim"
        );
        assert!(after_overwrite.gc_blocks_erased > 0);
    }

    /// Background cleaning reclaims blocks without being driven by host
    /// writes, respects its erase budget, and stops at the free-space
    /// target.
    #[test]
    fn background_clean_is_budgeted_and_targets_free_space() {
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.05, 0.02); // foreground cleaning mostly idle
        let mut ftl = tiny_ftl(config);
        let logical = ftl.logical_pages();
        // Fill the device, then overwrite an eighth of it: enough stale
        // pages for background work, but free space stays above the (low)
        // foreground watermark on every element so only background cleaning
        // can reclaim.
        write_all(&mut ftl, 0..logical);
        write_all(&mut ftl, 0..logical / 8);
        let free_before = ftl.free_page_fraction();

        // Budget of one erase: exactly one block reclaimed.
        let mut ops = Vec::new();
        ftl.background_clean_into(1, 0.9, &mut ops).unwrap();
        let erases = ops
            .iter()
            .filter(|o| o.kind == FlashOpKind::EraseBlock)
            .count();
        assert_eq!(erases, 1);
        assert!(ops.iter().all(|o| o.purpose == OpPurpose::BackgroundClean));
        let s = ftl.stats();
        assert_eq!(s.bg_blocks_erased, 1);
        assert_eq!(s.gc_blocks_erased, 0, "foreground cleaning never ran");
        assert!(ftl.free_page_fraction() > free_before);

        // An unreachably high target with a huge budget cleans until no
        // block holds a stale page, then stops rather than spinning.
        ftl.background_clean_into(10_000, 0.9, &mut Vec::new())
            .unwrap();
        assert!(ftl.free_page_fraction() > free_before);
        // Nothing reclaimable is left, so another call is a no-op...
        let mut ops = Vec::new();
        ftl.background_clean_into(4, 0.9, &mut ops).unwrap();
        assert!(ops.is_empty());
        // ...and a target at or below the current free fraction gates the
        // work off entirely.
        let reached = ftl.free_page_fraction();
        ftl.background_clean_into(4, reached, &mut ops).unwrap();
        assert!(ops.is_empty());
        // Mapping integrity is preserved throughout.
        assert_eq!(ftl.flash().valid_pages(), logical);
    }

    /// Every built-in policy keeps the device writable and every logical
    /// page intact under heavy overwrite churn.
    #[test]
    fn all_policies_survive_churn_with_consistent_mappings() {
        for kind in ossd_gc::CleaningPolicyKind::all() {
            let config = FtlConfig::default()
                .with_overprovisioning(0.25)
                .with_watermarks(0.3, 0.1)
                .with_cleaning_policy(kind);
            let mut ftl = tiny_ftl(config);
            let logical = ftl.logical_pages();
            let lpns: Vec<u64> = (0..logical).collect();
            for round in 0..6 {
                write_strided(&mut ftl, &lpns, 13);
                assert!(
                    ftl.free_page_fraction() > 0.0,
                    "{}: round {round} exhausted free pages",
                    kind.name()
                );
            }
            let s = ftl.stats();
            assert!(
                s.gc_blocks_erased > 0,
                "{}: cleaning never ran",
                kind.name()
            );
            assert_eq!(
                ftl.flash().valid_pages(),
                logical,
                "{}: lost or duplicated logical pages",
                kind.name()
            );
        }
    }

    #[test]
    fn steady_overwrites_trigger_cleaning_and_stay_consistent() {
        // The tiny geometry has only 8 pages per block, so use watermarks
        // that are a few blocks wide.
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut ftl = tiny_ftl(config);
        let logical = ftl.logical_pages();
        let lpns: Vec<u64> = (0..logical).collect();
        // Fill the device once, then overwrite it several times over with a
        // strided pattern; GC must keep the device writable for the run.
        for round in 0..6 {
            write_strided(&mut ftl, &lpns, 13);
            assert!(
                ftl.free_page_fraction() > 0.0,
                "round {round} exhausted free pages"
            );
        }
        let s = ftl.stats();
        assert!(s.gc_blocks_erased > 0, "cleaning never ran");
        assert!(s.gc_pages_moved > 0, "cleaning never moved valid data");
        assert!(s.write_amplification() > 1.0);
        // Every logical page must still map to exactly one valid physical
        // page.
        assert_eq!(ftl.flash().valid_pages(), logical);
    }

    #[test]
    fn informed_cleaning_moves_fewer_pages() {
        // Two identical FTLs; one receives free notifications before the
        // overwrite churn, the other does not (the paper's Table 5 setup).
        // The prefill interleaves "cold" pages (later freed) with "hot"
        // pages (later overwritten) so every block contains both, as file
        // deletion under Postmark produces.
        let run = |honor_free: bool| -> FtlStats {
            let config = FtlConfig::default()
                .with_overprovisioning(0.25)
                .with_watermarks(0.3, 0.1)
                .with_honor_free(honor_free);
            let mut ftl = tiny_ftl(config);
            let logical = ftl.logical_pages();
            let half = logical / 2;
            let interleaved: Vec<u64> = (0..half).flat_map(|i| [i, i + half]).collect();
            write_strided(&mut ftl, &interleaved, 1);
            // The host frees the cold half of the address space.
            for lpn in 0..half {
                ftl.free(Lpn(lpn)).unwrap();
            }
            // Churn on the hot half forces cleaning of blocks that also
            // contain the freed (but physically still "valid"-looking) data.
            let hot: Vec<u64> = (half..logical).collect();
            for _ in 0..6 {
                write_strided(&mut ftl, &hot, 7);
            }
            ftl.stats()
        };
        let uninformed = run(false);
        let informed = run(true);
        assert!(uninformed.gc_pages_moved > 0);
        assert!(
            informed.gc_pages_moved < uninformed.gc_pages_moved,
            "informed {} should move fewer pages than uninformed {}",
            informed.gc_pages_moved,
            uninformed.gc_pages_moved
        );
        assert!(informed.frees_accepted > 0);
        assert_eq!(uninformed.frees_accepted, 0);
    }

    #[test]
    fn priority_aware_cleaning_postpones_under_priority_load() {
        // Watermarks sized in whole blocks for the tiny geometry.
        let config = FtlConfig::priority_aware()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.05);
        let mut ftl = tiny_ftl(config);
        let logical = ftl.logical_pages();
        write_all(&mut ftl, 0..logical);
        // Drive free space below the low watermark with priority requests
        // outstanding; cleaning must be postponed at least once (visible as
        // gc_postponements) as long as free space stays above critical.
        let mut postponed = 0;
        for round in 0..8 {
            for lpn in 0..logical {
                ftl.write_into(
                    Lpn(lpn),
                    4096,
                    &WriteContext::with_priority_pending(),
                    &mut Vec::new(),
                )
                .unwrap();
            }
            postponed = ftl.stats().gc_postponements;
            if postponed > 0 {
                break;
            }
            let _ = round;
        }
        assert!(postponed > 0, "cleaning was never postponed");

        // The same load without priority requests outstanding cleans at the
        // low watermark and never records a postponement.
        let config = FtlConfig::priority_aware()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.05);
        let mut ftl = tiny_ftl(config);
        write_all(&mut ftl, 0..logical);
        for _ in 0..4 {
            write_all(&mut ftl, 0..logical);
        }
        assert_eq!(ftl.stats().gc_postponements, 0);
        assert!(ftl.stats().gc_invocations > 0);
    }

    #[test]
    fn free_without_honor_is_ignored() {
        let mut ftl = tiny_ftl(FtlConfig::default());
        ftl.write_into(Lpn(0), 4096, &WriteContext::idle(), &mut Vec::new())
            .unwrap();
        assert!(!ftl.free(Lpn(0)).unwrap());
        assert!(ftl.is_mapped(Lpn(0)));
        assert_eq!(ftl.stats().frees_accepted, 0);
    }

    #[test]
    fn free_with_honor_unmaps_and_invalidates() {
        let mut ftl = tiny_ftl(FtlConfig::informed());
        ftl.write_into(Lpn(0), 4096, &WriteContext::idle(), &mut Vec::new())
            .unwrap();
        assert!(ftl.free(Lpn(0)).unwrap());
        assert!(!ftl.is_mapped(Lpn(0)));
        assert_eq!(ftl.flash().valid_pages(), 0);
        assert_eq!(ftl.flash().invalid_pages(), 1);
        // Freeing an unmapped page is a no-op that reports false.
        assert!(!ftl.free(Lpn(0)).unwrap());
    }

    #[test]
    fn wear_leveling_bounds_erase_spread() {
        // Hammer a single logical page; without wear-leveling only a few
        // blocks would absorb all erases.
        let config = FtlConfig::default()
            .with_overprovisioning(0.5)
            .with_watermarks(0.3, 0.1);
        let mut ftl = tiny_ftl(config);
        for _ in 0..5_000 {
            ftl.write_into(Lpn(0), 4096, &WriteContext::idle(), &mut Vec::new())
                .unwrap();
        }
        let wear = ftl.flash().wear_summary();
        assert!(wear.total_erases > 0);
        // The spread must stay well below the total number of erases, i.e.
        // erases are not all concentrated on one block.
        assert!(
            (wear.spread() as u64) < wear.total_erases / 2,
            "spread {} vs total {}",
            wear.spread(),
            wear.total_erases
        );
        assert!(ftl.stats().wear_level_moves > 0 || wear.spread() <= 32);
    }

    /// What the reverse map's three kinds of value rely on, at the limits
    /// of the largest legal device: logical pages number at most 2³¹, and a
    /// map budget takes two translation pages per translation page's
    /// worth of them out of the export, so translation pages number far
    /// fewer.
    #[test]
    fn map_tags_collide_with_neither_logical_pages_nor_unmapped() {
        let max_lpn = (crate::ppn::MAX_PAGES - 1) as u32;
        for lpn in [0, 1, max_lpn / 2, max_lpn - 1, max_lpn] {
            assert_eq!(lpn & MAP_TAG, 0);
            assert_ne!(lpn, UNMAPPED);
        }
        for tpn in [0, 1, max_lpn / 2, max_lpn - 1] {
            let tag = MAP_TAG | tpn;
            assert_ne!(tag, UNMAPPED);
            assert_ne!(tag & MAP_TAG, 0, "told from every legal lpn by the top bit");
            assert_eq!(tag & !MAP_TAG, tpn);
        }
        assert_eq!(Ppn::UNMAPPED.0, UNMAPPED);
        // More pages than a page number addresses: refused before any table
        // is sized.
        let mut oversized = FlashGeometry::tiny();
        oversized.blocks_per_plane = 1 << 28;
        assert!(oversized.total_pages() > crate::ppn::MAX_PAGES);
        assert!(matches!(
            PageFtl::new(oversized, FlashTiming::slc(), FtlConfig::default()),
            Err(FtlError::InvalidConfig { .. })
        ));
    }

    /// Regression test: wear-leveling used to pass over the stale pages of
    /// the block it migrated without clearing their host-freed bit, so the
    /// bit survived the erase and a later cleaning of the reused block
    /// counted it as a move informed cleaning had avoided.  A set bit must
    /// always sit on a stale page.
    #[test]
    fn freed_bits_do_not_survive_a_wear_level_erase() {
        let mut config = FtlConfig::informed();
        config.wear_leveling = Some(crate::config::WearLevelConfig {
            max_erase_spread: 2,
        });
        let mut ftl = tiny_ftl(config);
        let logical = ftl.logical_pages();
        write_all(&mut ftl, 0..logical);
        for lpn in (4..logical).step_by(7) {
            assert!(ftl.free(Lpn(lpn)).unwrap());
        }
        for write in 0..20_000u64 {
            ftl.write_into(Lpn(write % 4), 4096, &WriteContext::idle(), &mut Vec::new())
                .unwrap();
            if write % 50 != 0 {
                continue;
            }
            for ppn in 0..ftl.total_pages {
                let addr = ftl.layout.addr(Ppn(ppn as u32));
                let element = ftl.flash.element(addr.element).unwrap();
                let state = element.page_state(addr.block, addr.page).unwrap();
                assert!(
                    !ftl.freed_phys.contains(ppn) || state == ossd_flash::PageState::Invalid,
                    "after {write} writes page {addr:?} is {state:?} with its freed bit set"
                );
            }
        }
        assert!(
            ftl.stats().wear_level_moves > 100,
            "wear-leveling never ran"
        );
        assert!(ftl.stats().gc_pages_skipped_free > 0);
    }

    /// A drain that fails part-way must leave the victim index describing
    /// the flash: the half-drained block back in the bucket of its current
    /// stale count, and still pickable once there is room again.
    #[test]
    fn an_aborted_drain_leaves_the_victim_index_truthful() {
        // Watermarks low enough that nothing cleans during the set-up.
        let mut ftl = tiny_ftl(FtlConfig::default().with_overprovisioning(0.25));
        ftl.enable_victim_trace();
        let logical = ftl.logical_pages();
        write_all(&mut ftl, 0..logical);
        // Even lpns live on element 0: one stale page in each of two of its
        // full blocks, then a few overwrites of element 1's pages to use up
        // part of element 0's fresh append block.
        write_all(&mut ftl, [0, 16, 1, 3, 5, 7].into_iter());
        assert_eq!(ftl.stats().gc_invocations, 0);
        let block_of = |ftl: &PageFtl, block: u32| {
            let element = ftl.flash.element(ElementId(0)).unwrap();
            element.block(block).unwrap().clone()
        };
        let active = ftl.pools[0].active(AppendPoint::Data).unwrap();
        let room = block_of(&ftl, active).free_count() as usize;
        let victim = ftl.pools[0]
            .pick(ftl.config.cleaning_policy, ftl.clock, false)
            .unwrap();
        let before = block_of(&ftl, victim);
        let live = before.valid_count() as usize;
        assert!(0 < room && room < live, "room {room} for {live} live pages");

        // No free block behind the append block: the drain runs out of
        // room part-way.
        let stolen = ftl.pools[0].take_free_blocks();
        let mut ops = Vec::new();
        let aborted = ftl.clean_one_block(0, OpPurpose::Clean, false, &mut ops);
        assert_eq!(aborted, Err(FtlError::NoFreeBlocks { element: 0 }));
        assert_eq!(ftl.victim_trace(), &[(0, victim)]);
        assert_eq!(ops.len(), room, "what the append block had room for moved");
        ftl.check_victim_index().unwrap();
        let half_drained = block_of(&ftl, victim);
        assert_eq!(
            half_drained.invalid_count(),
            before.invalid_count() + room as u32
        );
        assert!(ftl.pools[0].is_candidate(victim));

        // With the free blocks back, the next pass picks the same block (it
        // is the stalest by now) and finishes the job.
        ftl.pools[0].put_free_blocks(stolen);
        ops.clear();
        assert_eq!(
            ftl.clean_one_block(0, OpPurpose::Clean, false, &mut ops),
            Ok(true)
        );
        assert_eq!(ftl.victim_trace(), &[(0, victim), (0, victim)]);
        assert_eq!(ops.len(), live - room + 1, "the rest, then the erase");
        assert_eq!(ops.last().unwrap().kind, FlashOpKind::EraseBlock);
        ftl.check_victim_index().unwrap();
        assert!(block_of(&ftl, victim).is_erased());
        assert!((0..logical).all(|lpn| ftl.is_mapped(Lpn(lpn))));
        assert_eq!(ftl.flash().valid_pages(), logical);
    }

    fn faulty_ftl(faults: ossd_flash::FaultConfig, config: FtlConfig) -> PageFtl {
        faulty_ftl_on(FlashGeometry::tiny(), faults, config)
    }

    fn faulty_ftl_on(
        geometry: FlashGeometry,
        faults: ossd_flash::FaultConfig,
        config: FtlConfig,
    ) -> PageFtl {
        let reliability = ReliabilityConfig {
            faults,
            ..ReliabilityConfig::none()
        };
        PageFtl::with_reliability(geometry, FlashTiming::slc(), config, reliability).unwrap()
    }

    /// Churns the FTL with strided overwrites, tolerating end-of-life:
    /// returns `true` when the device ran out of blocks (spares exhausted).
    fn churn_until_death_or(ftl: &mut PageFtl, rounds: usize) -> bool {
        let logical = ftl.logical_pages();
        for round in 0..rounds as u64 {
            for i in 0..logical {
                let lpn = (i * 13 + round) % logical;
                let written =
                    ftl.write_into(Lpn(lpn), 4096, &WriteContext::idle(), &mut Vec::new());
                ftl.check_reverse_map(&format!("round {round} write {lpn}"));
                match written {
                    Ok(_) => {}
                    Err(FtlError::NoFreeBlocks { .. }) => return true,
                    Err(e) => panic!("unexpected FTL error under faults: {e}"),
                }
            }
        }
        false
    }

    #[test]
    fn explicit_none_reliability_matches_the_default_bit_for_bit() {
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut plain = tiny_ftl(config.clone());
        let mut explicit = PageFtl::with_reliability(
            FlashGeometry::tiny(),
            FlashTiming::slc(),
            config,
            ReliabilityConfig::none(),
        )
        .unwrap();
        plain.enable_victim_trace();
        explicit.enable_victim_trace();
        let logical = plain.logical_pages();
        assert_eq!(logical, explicit.logical_pages());
        let lpns: Vec<u64> = (0..logical).collect();
        for _ in 0..6 {
            write_strided(&mut plain, &lpns, 13);
            write_strided(&mut explicit, &lpns, 13);
        }
        assert_eq!(plain.victim_trace(), explicit.victim_trace());
        assert_eq!(plain.stats(), explicit.stats());
        assert_eq!(
            explicit.reliability_counters(),
            ossd_flash::ReliabilityCounters::default()
        );
    }

    #[test]
    fn factory_bad_blocks_shrink_the_export_and_survive_a_full_fill() {
        let faults = ossd_flash::FaultConfig {
            seed: 9,
            factory_bad_prob: 0.2,
            ..ossd_flash::FaultConfig::none()
        };
        let mut ftl = faulty_ftl(faults, FtlConfig::default());
        let bad = ftl.wear_summary().retired_blocks;
        assert!(bad > 0, "p=0.2 over 16 blocks should mark some bad");
        let logical = ftl.logical_pages();
        assert!(
            logical <= 112 - bad * 8,
            "export {logical} must shrink by the {bad} factory-bad blocks"
        );
        // The advertised capacity must still fill sequentially.
        write_all(&mut ftl, 0..logical);
        assert_eq!(ftl.flash().valid_pages(), logical);
    }

    #[test]
    fn program_failures_reprogram_elsewhere_and_retire_the_block_later() {
        let faults = ossd_flash::FaultConfig {
            seed: 3,
            program_fail_base: 0.001,
            ..ossd_flash::FaultConfig::none()
        };
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut ftl = faulty_ftl(faults, config);
        let logical = ftl.logical_pages();
        let died = churn_until_death_or(&mut ftl, 8);
        let c = ftl.reliability_counters();
        assert!(c.program_fails > 0, "no program failures injected");
        if !died {
            // Every logical page survived the failures: the re-program
            // path kept the mapping intact.
            assert_eq!(ftl.flash().valid_pages(), logical);
        }
    }

    #[test]
    fn erase_failures_grow_bad_blocks_without_losing_data() {
        let faults = ossd_flash::FaultConfig {
            seed: 17,
            erase_fail_base: 0.02,
            ..ossd_flash::FaultConfig::none()
        };
        let config = FtlConfig::default()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut ftl = faulty_ftl(faults, config);
        let logical = ftl.logical_pages();
        let died = churn_until_death_or(&mut ftl, 8);
        let c = ftl.reliability_counters();
        assert!(c.erase_fails > 0, "no erase failures injected");
        assert_eq!(c.retired_blocks, c.erase_fails);
        assert_eq!(ftl.wear_summary().retired_blocks, c.retired_blocks);
        if !died {
            assert_eq!(ftl.flash().valid_pages(), logical);
        }
    }

    #[test]
    fn marginal_reads_surface_retries_and_uncorrectable_outcomes() {
        let faults = ossd_flash::FaultConfig {
            seed: 23,
            raw_ber_base: 200.0,
            ..ossd_flash::FaultConfig::none()
        };
        let mut ftl = faulty_ftl(faults, FtlConfig::default());
        ftl.write_into(Lpn(0), 4096, &WriteContext::idle(), &mut Vec::new())
            .unwrap();
        let mut ops = Vec::new();
        let uncorrectable = ftl.read_into(Lpn(0), 4096, &mut ops).unwrap();
        assert!(uncorrectable, "a 200-bit mean must defeat the ECC");
        let retries = ops
            .iter()
            .filter(|o| o.kind == FlashOpKind::ReadRetry)
            .count();
        assert_eq!(ops.len(), 1 + retries);
        assert!(retries > 0);
        let c = ftl.reliability_counters();
        assert_eq!(c.uncorrectable_reads, 1);
        assert_eq!(c.read_retries, retries as u64);
    }

    #[test]
    fn write_amplification_reported() {
        let mut ftl = tiny_ftl(FtlConfig::default().with_overprovisioning(0.25));
        let logical = ftl.logical_pages();
        for _ in 0..4 {
            write_all(&mut ftl, 0..logical);
        }
        let wa = ftl.stats().write_amplification();
        assert!(wa >= 1.0);
        assert!(wa < 5.0, "write amplification {wa} unreasonably high");
    }

    // ---- Demand-paged mapping ------------------------------------------

    use ossd_mapcache::MapCacheConfig;

    /// A geometry with small (512 B) pages so that a translation page
    /// holds only 64 entries and a unit test exercises many translation
    /// pages and real map-area pressure.
    fn paging_geometry() -> FlashGeometry {
        FlashGeometry {
            packages: 2,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 24,
            pages_per_block: 16,
            page_bytes: 512,
        }
    }

    /// A budget reserves the map area out of the exported capacity
    /// and issues real map reads (misses) and map writes (writebacks),
    /// while every logical page stays intact through GC of both data and
    /// translation blocks.
    #[test]
    fn finite_budget_reserves_map_area_and_issues_map_traffic() {
        let geometry = paging_geometry();
        let resident = PageFtl::new(geometry, FlashTiming::slc(), FtlConfig::default()).unwrap();
        let budget = 32u64;
        let mut ftl = PageFtl::new(
            geometry,
            FlashTiming::slc(),
            FtlConfig::default().with_map_cache(MapCacheConfig::default().with_budget(budget)),
        )
        .unwrap();
        assert!(
            ftl.logical_pages() < resident.logical_pages(),
            "the map area must come out of the exported capacity"
        );
        let logical = ftl.logical_pages();
        let entries_per_tp = geometry.page_bytes as u64 / 8;
        let gtd_entries = logical.div_ceil(entries_per_tp);
        let (mut saw_map_read, mut saw_map_write) = (false, false);
        for _ in 0..4 {
            for i in 0..logical {
                let lpn = Lpn((i * 13) % logical);
                let mut ops = Vec::new();
                ftl.write_into(lpn, 512, &WriteContext::idle(), &mut ops)
                    .unwrap();
                for op in &ops {
                    match op.kind {
                        FlashOpKind::MapRead => saw_map_read = true,
                        FlashOpKind::MapWrite => saw_map_write = true,
                        _ => {}
                    }
                }
            }
        }
        assert!(
            saw_map_write,
            "dirty evictions must program translation pages"
        );
        assert!(saw_map_read, "misses on materialized tps must read them");
        let ms = ftl.map_stats();
        assert!(ms.misses > 0 && ms.map_writes > 0 && ms.writebacks > 0);
        assert!(ms.hit_rate() < 1.0);
        assert!(
            ms.bytes_resident <= (gtd_entries + budget) * 8,
            "SRAM footprint {} exceeds GTD + budget",
            ms.bytes_resident
        );
        assert!(ms.bytes_resident < ms.bytes_total / 4);
        // Mapping integrity held through cleaning of data and translation
        // blocks alike, and the victim index stayed consistent.
        for lpn in 0..logical {
            assert!(ftl.is_mapped(Lpn(lpn)));
        }
        ftl.check_victim_index().unwrap();
        // Flush makes the dirty tail durable; a second flush is a no-op.
        let mut flush_ops = Vec::new();
        ftl.flush_into(&mut flush_ops).unwrap();
        assert!(!flush_ops.is_empty());
        assert!(flush_ops
            .iter()
            .all(|o| matches!(o.kind, FlashOpKind::MapRead | FlashOpKind::MapWrite)));
        let mut ops = Vec::new();
        ftl.flush_into(&mut ops).unwrap();
        assert!(ops.is_empty());
    }

    /// Under churn heavy enough to clean translation blocks, map pages are
    /// relocated as first-class GC citizens (counted separately from host
    /// data moves).
    #[test]
    fn translation_blocks_are_cleanable_victims() {
        let mut ftl = PageFtl::new(
            paging_geometry(),
            FlashTiming::slc(),
            FtlConfig::default()
                .with_overprovisioning(0.25)
                .with_map_cache(MapCacheConfig::default().with_budget(16)),
        )
        .unwrap();
        let logical = ftl.logical_pages();
        for _ in 0..8 {
            for i in 0..logical {
                ftl.write_into(
                    Lpn((i * 7) % logical),
                    512,
                    &WriteContext::idle(),
                    &mut Vec::new(),
                )
                .unwrap();
            }
        }
        let ms = ftl.map_stats();
        assert!(
            ms.map_gc_moves > 0,
            "sustained churn must force relocation of live translation pages"
        );
        for lpn in 0..logical {
            assert!(ftl.is_mapped(Lpn(lpn)));
        }
        ftl.check_victim_index().unwrap();
    }

    /// What `flush_pending_tpns` must not do: discard the translation-page
    /// rewrites its nested forced clean queued.  Drives the configuration
    /// and command stream of the paged-map fault golden
    /// (`tests/fault_goldens.rs`), where it does so on every seed.
    #[test]
    #[ignore = "ROADMAP item 1(c): a completed flush discards the rewrites its nested clean queued"]
    fn flush_keeps_what_its_nested_clean_queued() {
        let geometry = FlashGeometry {
            packages: 4,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_bytes: 512,
        };
        let mut discarded = Vec::new();
        for seed in 1u64..=3 {
            let mut config = FtlConfig::default()
                .with_overprovisioning(0.25)
                .with_watermarks(0.3, 0.1)
                .with_honor_free(true)
                .with_cleaning_policy(ossd_gc::CleaningPolicyKind::all()[(seed % 4) as usize])
                .with_map_cache(MapCacheConfig::default().with_budget(24));
            config.wear_leveling = Some(crate::config::WearLevelConfig {
                max_erase_spread: 1,
            });
            let faults = ossd_flash::FaultConfig {
                seed,
                factory_bad_prob: 0.005,
                program_fail_base: 0.0008,
                erase_fail_base: 0.004,
                ..ossd_flash::FaultConfig::none()
            };
            let mut ftl = faulty_ftl_on(geometry, faults, config);
            // The golden's xorshift64* stream and command mix.
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut below = |bound: u64| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % bound
            };
            let logical = ftl.logical_pages();
            let mut ops = Vec::new();
            for _ in 0..6_000 {
                ops.clear();
                let lpn = Lpn(if below(10) < 7 {
                    below(logical / 8)
                } else {
                    below(logical)
                });
                let _ = match below(100) {
                    0..=9 => ftl.free(lpn),
                    10..=14 => ftl.read_into(lpn, 512, &mut ops),
                    15..=16 => ftl.flush_into(&mut ops).map(|()| false),
                    17..=22 => ftl
                        .background_clean_into(1 + below(3) as u32, 0.4, &mut ops)
                        .map(|()| false),
                    roll => ftl
                        .write_into(lpn, 512 >> (roll % 3), &WriteContext::idle(), &mut ops)
                        .map(|()| false),
                };
                ftl.check_reverse_map(&format!("seed {seed}"));
            }
            discarded.push(ftl.paging.as_ref().unwrap().discarded_rewrites);
        }
        assert_eq!(discarded, [0, 0, 0], "rewrites discarded on seeds 1, 2, 3");
    }

    /// TRIM with paging: a freed entry is served authoritatively (no data
    /// read for freed lpns) whether or not it is cached.
    #[test]
    fn trim_with_paging_keeps_values_authoritative() {
        let mut ftl = PageFtl::new(
            paging_geometry(),
            FlashTiming::slc(),
            FtlConfig::informed().with_map_cache(MapCacheConfig::default().with_budget(16)),
        )
        .unwrap();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write_into(Lpn(lpn), 512, &WriteContext::idle(), &mut Vec::new())
                .unwrap();
        }
        for lpn in (0..logical).step_by(2) {
            assert!(ftl.free(Lpn(lpn)).unwrap());
        }
        for lpn in 0..logical {
            assert_eq!(ftl.is_mapped(Lpn(lpn)), lpn % 2 == 1);
            let mut ops = Vec::new();
            ftl.read_into(Lpn(lpn), 512, &mut ops).unwrap();
            let has_data_read = ops.iter().any(|o| o.kind == FlashOpKind::ReadPage);
            assert_eq!(has_data_read, lpn % 2 == 1, "lpn {lpn}");
        }
    }

    /// Drives seeded command streams — writes, host frees, reads, flushes,
    /// and background cleaning where the cell has it — through one cell of
    /// {resident, paged} map × faults {off, on} × wear-levelling {off, on}
    /// × background cleaning {off, on} (bits 0–3 of `cell`), checking the
    /// reverse map after every command, failed ones included.  Returns
    /// what the streams exercised: pages moved by cleaning, by
    /// wear-levelling and by background cleaning, translation pages
    /// written, and program failures.
    fn churn_checking_reverse_map(cell: u32, seeds: Range<u64>, commands: u32) -> [u64; 5] {
        let [paged, faulty, wear_level, background] = [0, 1, 2, 3].map(|bit| cell >> bit & 1 == 1);
        let mut seen = [0; 5];
        for seed in seeds {
            let mut config = FtlConfig::default()
                .with_overprovisioning(0.25)
                .with_watermarks(0.3, 0.1)
                .with_honor_free(true)
                .with_cleaning_policy(ossd_gc::CleaningPolicyKind::all()[(seed % 4) as usize]);
            let mut geometry = FlashGeometry::tiny();
            if paged {
                geometry = paging_geometry();
                config = config.with_map_cache(MapCacheConfig::default().with_budget(24));
            }
            if wear_level {
                config.wear_leveling = Some(crate::config::WearLevelConfig {
                    max_erase_spread: 1,
                });
            }
            let mut faults = ossd_flash::FaultConfig::none();
            if faulty {
                faults = ossd_flash::FaultConfig {
                    seed,
                    program_fail_base: 0.002,
                    erase_fail_base: 0.002,
                    ..faults
                };
            }
            let mut ftl = faulty_ftl_on(geometry, faults, config);
            let mut rng = super::oracle::Rng::new(seed);
            let mut below = |bound: u64| rng.below(bound);
            let logical = ftl.logical_pages();
            let mut ops = Vec::new();
            for step in 0..commands {
                ops.clear();
                let lpn = Lpn(if below(10) < 7 {
                    below(logical / 8)
                } else {
                    below(logical)
                });
                let _ = match below(100) {
                    0..=7 => ftl.free(lpn).map(drop),
                    8..=19 => ftl.read_into(lpn, 512, &mut ops).map(drop),
                    20..=21 => ftl.flush_into(&mut ops),
                    22..=25 if background => {
                        ftl.background_clean_into(1 + below(3) as u32, 0.4, &mut ops)
                    }
                    _ => ftl.write_into(lpn, 512, &WriteContext::idle(), &mut ops),
                };
                ftl.check_reverse_map(&format!("cell {cell:04b} seed {seed} step {step}"));
            }
            let stats = ftl.stats();
            seen[0] += stats.gc_pages_moved;
            seen[1] += stats.wear_level_moves;
            seen[2] += stats.bg_pages_moved;
            seen[3] += ftl.map_stats().map_writes;
            seen[4] += ftl.reliability_counters().program_fails;
        }
        seen
    }

    /// Every cell, each stream checked after every command; and each cell
    /// exercised what it switches on.
    fn reverse_map_matrix(seeds: u64, commands: u32) {
        for cell in 0..16 {
            let seen = churn_checking_reverse_map(cell, 1..1 + seeds, commands);
            println!("cell {cell:04b}: {seen:?}");
            let [moved, levelled, background, map_writes, failed] = seen;
            let wanted = [
                moved + background > 0,
                levelled > 0 || cell & 4 == 0,
                background > 0 || cell & 8 == 0,
                map_writes > 0 || cell & 1 == 0,
                failed > 0 || cell & 2 == 0,
            ];
            assert!(
                wanted.iter().all(|&w| w),
                "cell {cell:04b} exercised {seen:?}"
            );
        }
    }

    #[test]
    fn valid_pages_tags_map_back_under_seeded_churn() {
        reverse_map_matrix(2, 4_000);
    }

    /// The long form; CI runs it in release (`cargo test --release -p
    /// ossd-ftl -- --ignored`).
    #[test]
    #[ignore = "long: run in release"]
    fn valid_pages_tags_map_back_under_seeded_churn_long() {
        reverse_map_matrix(40, 5_000);
    }
}
