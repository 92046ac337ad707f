//! SRAM-budgeted demand-paged mapping cache (DFTL-style).
//!
//! A page-mapped FTL at TB-class capacity cannot hold its full
//! logical-to-physical table in controller SRAM: at 8 bytes per entry a
//! 1 TiB device with 16 KiB pages needs 512 MiB of map.  DFTL's answer —
//! and this crate's — is to keep the authoritative map in *translation
//! pages* on flash and cache only the hot entries in a budget-limited
//! SRAM cache:
//!
//! * each **translation page** packs `entries_per_tp` consecutive map
//!   entries (`page_bytes / 8`), addressed by a *translation page number*
//!   `tpn = lpn / entries_per_tp`;
//! * a small SRAM **global translation directory** (owned by the FTL, not
//!   this crate) maps each tpn to the flash page holding its current
//!   version;
//! * the **map cache** (this crate) holds individual `lpn → ppn` entries
//!   under a configurable entry budget with CLOCK eviction; a miss
//!   costs a real map-read flash operation, and evicting a *dirty* entry
//!   costs a read-modify-write of its translation page — batched, so every
//!   dirty entry of the same translation page rides along and is cleaned
//!   in one writeback.
//!
//! The cache is a pure, deterministic data structure: it never performs
//! I/O itself but tells its caller (the FTL) exactly which translation
//! pages to read and write back.
//!
//! # Layout
//!
//! Entries live in a slot array threaded by an insertion-order list, the
//! order the CLOCK hand sweeps.  An lpn finds its slot through a hash
//! index keyed with a fixed multiplicative hash — one multiply and a
//! fold, no SipHash.  The index is only ever
//! probed by key and never iterated, so its hash function cannot reach a
//! result, and seeded simulations stay bit-for-bit reproducible.  Each
//! translation page's dirty entries form a list threaded through their
//! slots, headed from a table indexed by tpn: marking an entry dirty or
//! clean is O(1) and allocates nothing, a writeback walks one list
//! ([`MapCache::writeback`]), and [`MapCache::drain_dirty`] walks the
//! table in tpn order.  Memory is O(budget + translation pages): the slots
//! and index are bounded by the entry budget and the head table holds
//! 4 bytes per translation page up to the highest one dirtied.  Nothing is
//! indexed by lpn, which at paper scale would cost more than the map the
//! cache stands in for; nor does any list keep a buffer, which would grow
//! to the peak dirty count of every translation page (whole pages, on a
//! sequential fill) — O(logical pages) again.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Bytes per map entry (a packed 64-bit physical page number).
pub const ENTRY_BYTES: u64 = 8;

const NIL: u32 = u32::MAX;

/// The index's hash: Fibonacci hashing of the `u64` lpn, with the high
/// half folded into the low half that picks the bucket.  Keys come from
/// the simulator, not an adversary, so a keyed hash buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
struct LpnHasher(u64);

impl Hasher for LpnHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(byte as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type LpnIndex = HashMap<u64, u32, BuildHasherDefault<LpnHasher>>;

/// Configuration of the demand-paged map cache.
///
/// Once the budget is full, an insert evicts by CLOCK (second chance): a
/// hand sweeps the entries oldest-first, clearing reference bits, and the
/// first unreferenced entry is evicted — O(1) amortized and within a few
/// percent of LRU's hit rate, which is what real controllers ship.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapCacheConfig {
    /// Maximum cached entries (at least 1; the default 0 is unset and
    /// fails [`MapCacheConfig::validate`]).
    pub entry_budget: u64,
}

impl MapCacheConfig {
    /// Returns this config with the entry budget set.
    pub fn with_budget(mut self, entries: u64) -> Self {
        self.entry_budget = entries;
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.entry_budget == 0 {
            return Err("map cache entry budget must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Cumulative demand-paged-mapping statistics, reported by the FTL through
/// `Ftl::map_stats` and surfaced in `SsdStats` and the telemetry series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Mapping bytes currently resident in (simulated) SRAM: the cached
    /// entries plus the global translation directory for a demand-paged
    /// FTL; the whole table for a resident FTL.
    pub bytes_resident: u64,
    /// Bytes the full mapping table would occupy resident (the SRAM the
    /// demand-paged cache is saving).
    pub bytes_total: u64,
    /// Map-cache lookups satisfied from SRAM.
    pub hits: u64,
    /// Map-cache lookups that missed (each costs a map read once the
    /// translation page is materialized on flash).
    pub misses: u64,
    /// Clean entries evicted (dropped for free).
    pub evictions_clean: u64,
    /// Dirty entries evicted (each forces a translation-page writeback).
    pub evictions_dirty: u64,
    /// Translation-page writeback programs triggered by dirty evictions
    /// and flushes (batched: one per translation page, not per entry).
    pub writebacks: u64,
    /// Dirty entries cleaned by those writebacks.
    pub entries_written_back: u64,
    /// Translation-page read operations issued to flash.
    pub map_reads: u64,
    /// Translation-page program operations issued to flash (writebacks
    /// plus GC relocations of translation pages).
    pub map_writes: u64,
    /// Valid translation pages relocated by cleaning/wear-leveling.
    pub map_gc_moves: u64,
}

impl MapStats {
    /// Total map-cache accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; a resident table (no accesses) reports 1.0.
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.accesses();
        if accesses == 0 {
            1.0
        } else {
            self.hits as f64 / accesses as f64
        }
    }
}

/// An entry pushed out of the cache by [`MapCache::insert`].
///
/// A dirty eviction obliges the caller to write the entry's translation
/// page back: call [`MapCache::writeback`] (or
/// [`MapCache::writeback_batch`] with the evicted pair) so that every
/// dirty sibling of the same translation page rides along in one batched
/// read-modify-write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    /// Logical page number of the evicted entry.
    pub lpn: u64,
    /// Cached physical page number of the evicted entry.
    pub ppn: u64,
    /// Whether the entry was dirty (newer than its on-flash translation
    /// page).
    pub dirty: bool,
}

#[derive(Clone, Copy, Debug)]
struct Slot {
    lpn: u64,
    ppn: u64,
    dirty: bool,
    referenced: bool,
    /// Insertion-order list: `prev` points towards the newest entry (the
    /// head), `next` towards the oldest (the tail).
    prev: u32,
    next: u32,
    /// Links of its translation page's dirty list while dirty.
    dirty_prev: u32,
    dirty_next: u32,
}

impl Slot {
    fn new(lpn: u64, ppn: u64) -> Slot {
        Slot {
            lpn,
            ppn,
            dirty: false,
            referenced: true,
            prev: NIL,
            next: NIL,
            dirty_prev: NIL,
            dirty_next: NIL,
        }
    }
}

/// The SRAM-budgeted map cache.  See the crate docs for the model.
#[derive(Clone, Debug)]
pub struct MapCache {
    config: MapCacheConfig,
    entries_per_tp: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// lpn → slot.  Only ever probed by key (never iterated), so the
    /// hash map cannot leak nondeterminism into the simulation.
    index: LpnIndex,
    /// Newest end of the insertion-order list.
    head: u32,
    /// Oldest end of the insertion-order list.
    tail: u32,
    /// CLOCK hand: the next slot the sweep examines (NIL restarts at the
    /// tail).
    hand: u32,
    /// tpn → first slot of that translation page's dirty list (batched
    /// writeback), NIL when it has none; grown to the highest tpn dirtied.
    dirty_heads: Vec<u32>,
    /// Dirty entries across all the dirty lists.
    dirty_count: usize,
    hits: u64,
    misses: u64,
    evictions_clean: u64,
    evictions_dirty: u64,
    writebacks: u64,
    entries_written_back: u64,
}

impl MapCache {
    /// Builds a cache from a `config` that passes
    /// [`MapCacheConfig::validate`]; `entries_per_tp` is the number of map
    /// entries one translation page packs (`page_bytes / 8`, at least 1).
    pub fn new(config: MapCacheConfig, entries_per_tp: u64) -> Self {
        MapCache {
            config,
            entries_per_tp: entries_per_tp.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            index: LpnIndex::default(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            dirty_heads: Vec::new(),
            dirty_count: 0,
            hits: 0,
            misses: 0,
            evictions_clean: 0,
            evictions_dirty: 0,
            writebacks: 0,
            entries_written_back: 0,
        }
    }

    /// Map entries per translation page.
    pub fn entries_per_tp(&self) -> u64 {
        self.entries_per_tp
    }

    /// The translation page holding `lpn`'s entry.
    pub fn tpn_of(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tp
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Dirty entries awaiting writeback.
    pub fn dirty_len(&self) -> usize {
        self.dirty_count
    }

    /// Looks `lpn` up, counting a hit or miss and setting the entry's
    /// CLOCK reference bit.  On a miss the caller fetches the entry (a
    /// map-read flash op if the translation page is materialized) and
    /// calls [`MapCache::insert`].
    pub fn lookup(&mut self, lpn: u64) -> Option<u64> {
        match self.index.get(&lpn).copied() {
            Some(slot) => {
                self.hits += 1;
                self.touch(slot);
                Some(self.slots[slot as usize].ppn)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The cached ppn of `lpn` without counting or touching (tests and
    /// assertions).
    pub fn peek(&self, lpn: u64) -> Option<u64> {
        self.index
            .get(&lpn)
            .map(|&slot| self.slots[slot as usize].ppn)
    }

    /// Whether `lpn`'s entry is currently dirty.
    pub fn is_dirty(&self, lpn: u64) -> bool {
        self.index
            .get(&lpn)
            .is_some_and(|&slot| self.slots[slot as usize].dirty)
    }

    /// Inserts (or updates) `lpn → ppn`, evicting one entry first when the
    /// budget is full.  A returned dirty [`Eviction`] obliges the caller
    /// to write back its translation page (see [`MapCache::writeback`]).
    pub fn insert(&mut self, lpn: u64, ppn: u64, dirty: bool) -> Option<Eviction> {
        if let Some(&slot) = self.index.get(&lpn) {
            self.slots[slot as usize].ppn = ppn;
            if dirty {
                self.mark_dirty(slot);
            }
            self.touch(slot);
            return None;
        }
        let evicted = if self.index.len() as u64 >= self.config.entry_budget {
            Some(self.evict_one())
        } else {
            None
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot::new(lpn, ppn);
                slot
            }
            None => {
                self.slots.push(Slot::new(lpn, ppn));
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(lpn, slot);
        self.push_front(slot);
        if dirty {
            self.mark_dirty(slot);
        }
        evicted
    }

    /// Updates `lpn`'s entry in place if cached — the FTL calls this when
    /// relocation (GC, wear-leveling) or a TRIM changes a mapping outside
    /// the host lookup path.  Does not touch the entry or count an access.
    /// Returns whether the entry was present; when it was not, the caller
    /// owns updating the on-flash translation page.
    pub fn update(&mut self, lpn: u64, ppn: u64, mark_dirty: bool) -> bool {
        let Some(&slot) = self.index.get(&lpn) else {
            return false;
        };
        self.slots[slot as usize].ppn = ppn;
        if mark_dirty {
            self.mark_dirty(slot);
        }
        true
    }

    /// Writes back translation page `tpn`: marks every dirty cached entry
    /// of that page clean (they stay cached) and counts one writeback of
    /// them, plus the just-evicted entry when `evicted`.  Returns how many
    /// entries the writeback carried.
    pub fn writeback(&mut self, tpn: u64, evicted: bool) -> usize {
        let mut written = usize::from(evicted);
        if let Some(head) = self.dirty_heads.get_mut(tpn as usize) {
            let mut slot = std::mem::replace(head, NIL);
            while slot != NIL {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.dirty);
                s.dirty = false;
                s.dirty_prev = NIL;
                slot = std::mem::replace(&mut s.dirty_next, NIL);
                written += 1;
            }
        }
        self.dirty_count -= written - usize::from(evicted);
        self.writebacks += 1;
        self.entries_written_back += written as u64;
        written
    }

    /// [`MapCache::writeback`], returning the batch written: every dirty
    /// cached entry of `tpn` plus the just-evicted pair, sorted by lpn.
    pub fn writeback_batch(&mut self, tpn: u64, evicted: Option<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut batch: Vec<(u64, u64)> = evicted.into_iter().collect();
        let mut slot = self.dirty_heads.get(tpn as usize).copied().unwrap_or(NIL);
        while slot != NIL {
            let s = &self.slots[slot as usize];
            batch.push((s.lpn, s.ppn));
            slot = s.dirty_next;
        }
        batch.sort_unstable();
        let written = self.writeback(tpn, evicted.is_some());
        debug_assert_eq!(written, batch.len());
        batch
    }

    /// Drains every dirty entry as `(tpn, batch)` groups in ascending tpn
    /// order (flush/shutdown).  All drained entries stay cached, clean.
    pub fn drain_dirty(&mut self) -> Vec<(u64, Vec<(u64, u64)>)> {
        (0..self.dirty_heads.len() as u64)
            .filter(|&tpn| self.dirty_heads[tpn as usize] != NIL)
            .collect::<Vec<u64>>()
            .into_iter()
            .map(|tpn| (tpn, self.writeback_batch(tpn, None)))
            .collect()
    }

    /// Adds the cache's counters and resident footprint to `stats`.
    pub fn stats_into(&self, stats: &mut MapStats) {
        stats.bytes_resident += self.index.len() as u64 * ENTRY_BYTES;
        stats.hits = self.hits;
        stats.misses = self.misses;
        stats.evictions_clean = self.evictions_clean;
        stats.evictions_dirty = self.evictions_dirty;
        stats.writebacks = self.writebacks;
        stats.entries_written_back = self.entries_written_back;
    }

    fn touch(&mut self, slot: u32) {
        self.slots[slot as usize].referenced = true;
    }

    fn mark_dirty(&mut self, slot: u32) {
        let (lpn, already) = {
            let s = &self.slots[slot as usize];
            (s.lpn, s.dirty)
        };
        if already {
            return;
        }
        let tpn = self.tpn_of(lpn) as usize;
        if tpn >= self.dirty_heads.len() {
            self.dirty_heads.resize(tpn + 1, NIL);
        }
        let next = std::mem::replace(&mut self.dirty_heads[tpn], slot);
        if next != NIL {
            self.slots[next as usize].dirty_prev = slot;
        }
        let s = &mut self.slots[slot as usize];
        s.dirty = true;
        s.dirty_prev = NIL;
        s.dirty_next = next;
        self.dirty_count += 1;
    }

    fn set_clean(&mut self, slot: u32) {
        let Slot {
            lpn,
            dirty,
            dirty_prev: prev,
            dirty_next: next,
            ..
        } = self.slots[slot as usize];
        if !dirty {
            return;
        }
        if prev != NIL {
            self.slots[prev as usize].dirty_next = next;
        } else {
            let tpn = self.tpn_of(lpn) as usize;
            self.dirty_heads[tpn] = next;
        }
        if next != NIL {
            self.slots[next as usize].dirty_prev = prev;
        }
        self.dirty_count -= 1;
        let s = &mut self.slots[slot as usize];
        s.dirty = false;
        s.dirty_prev = NIL;
        s.dirty_next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[slot as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn detach(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        if self.hand == slot {
            // The hand sweeps towards the head; resume past the removed
            // slot.
            self.hand = prev;
        }
    }

    /// Evicts one entry by CLOCK.  Only called with a non-empty cache.
    fn evict_one(&mut self) -> Eviction {
        // Sweep tail → head, wrapping, clearing reference bits; the first
        // unreferenced slot is the victim.  Terminates within two laps
        // (the first lap clears every bit it passes).
        let mut cursor = if self.hand != NIL {
            self.hand
        } else {
            self.tail
        };
        let victim = loop {
            if !self.slots[cursor as usize].referenced {
                break cursor;
            }
            self.slots[cursor as usize].referenced = false;
            let prev = self.slots[cursor as usize].prev;
            cursor = if prev != NIL { prev } else { self.tail };
        };
        debug_assert_ne!(victim, NIL, "evict_one on an empty cache");
        let Slot {
            lpn, ppn, dirty, ..
        } = self.slots[victim as usize];
        if dirty {
            self.evictions_dirty += 1;
        } else {
            self.evictions_clean += 1;
        }
        self.set_clean(victim);
        self.detach(victim);
        self.index.remove(&lpn);
        self.free.push(victim);
        Eviction { lpn, ppn, dirty }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: u64) -> MapCache {
        MapCache::new(MapCacheConfig::default().with_budget(budget), 4)
    }

    #[test]
    fn config_validation() {
        assert!(MapCacheConfig::default().with_budget(1).validate().is_ok());
        assert!(MapCacheConfig::default().with_budget(0).validate().is_err());
        assert!(MapCacheConfig::default().validate().is_err());
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = cache(4);
        assert_eq!(c.lookup(7), None);
        assert!(c.insert(7, 70, false).is_none());
        assert_eq!(c.lookup(7), Some(70));
        let mut stats = MapStats::default();
        c.stats_into(&mut stats);
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.bytes_resident, ENTRY_BYTES);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clock_gives_referenced_entries_a_second_chance() {
        let mut c = cache(3);
        for lpn in 0..3 {
            c.insert(lpn, lpn, false);
        }
        // All three carry the reference bit from insertion; the sweep
        // clears 0 (tail), 1, 2, wraps, and evicts 0.
        let ev = c.insert(3, 3, false).expect("budget full");
        assert_eq!(ev.lpn, 0);
        // 1 and 2 are now unreferenced; a lookup re-references 1, so the
        // next eviction (hand resumes past 0's old position) takes 2.
        assert_eq!(c.lookup(1), Some(1));
        let ev = c.insert(4, 4, false).expect("budget full");
        assert_eq!(ev.lpn, 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn upsert_updates_in_place_without_eviction() {
        let mut c = cache(2);
        c.insert(1, 10, false);
        c.insert(2, 20, false);
        assert!(c.insert(1, 11, true).is_none());
        assert_eq!(c.peek(1), Some(11));
        assert!(c.is_dirty(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn writeback_batches_every_dirty_sibling_of_the_translation_page() {
        // entries_per_tp = 4: lpns 0..4 share tpn 0, 4..8 share tpn 1.
        let mut c = cache(8);
        c.insert(0, 100, true);
        c.insert(2, 102, true);
        c.insert(3, 103, false);
        c.insert(5, 105, true);
        assert_eq!(c.tpn_of(5), 1);
        let batch = c.writeback_batch(0, Some((1, 101)));
        assert_eq!(batch, vec![(0, 100), (1, 101), (2, 102)]);
        // The batch is clean but stays cached; tpn 1 is untouched.
        assert!(!c.is_dirty(0) && !c.is_dirty(2));
        assert!(c.is_dirty(5));
        assert_eq!(c.peek(0), Some(100));
        let mut stats = MapStats::default();
        c.stats_into(&mut stats);
        assert_eq!(stats.writebacks, 1);
        assert_eq!(stats.entries_written_back, 3);
    }

    #[test]
    fn drain_dirty_flushes_in_ascending_tpn_order() {
        let mut c = cache(16);
        for lpn in [9u64, 1, 6, 14] {
            c.insert(lpn, lpn * 10, true);
        }
        c.insert(2, 20, false);
        let drained = c.drain_dirty();
        assert_eq!(
            drained,
            vec![
                (0, vec![(1, 10)]),
                (1, vec![(6, 60)]),
                (2, vec![(9, 90)]),
                (3, vec![(14, 140)]),
            ]
        );
        assert_eq!(c.dirty_len(), 0);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn update_marks_dirty_only_when_present() {
        let mut c = cache(4);
        c.insert(1, 10, false);
        assert!(c.update(1, 11, true));
        assert!(c.is_dirty(1));
        assert_eq!(c.peek(1), Some(11));
        assert!(!c.update(9, 90, true));
        assert_eq!(c.dirty_len(), 1);
        // Updates neither touch nor count accesses.
        let mut stats = MapStats::default();
        c.stats_into(&mut stats);
        assert_eq!(stats.accesses(), 0);
    }

    #[test]
    fn dirty_eviction_counters_split_clean_and_dirty() {
        let mut c = cache(1);
        c.insert(1, 10, true);
        let ev = c.insert(2, 20, false).expect("evicts 1");
        assert!(ev.dirty);
        let ev = c.insert(3, 30, false).expect("evicts 2");
        assert!(!ev.dirty);
        let mut stats = MapStats::default();
        c.stats_into(&mut stats);
        assert_eq!(stats.evictions_dirty, 1);
        assert_eq!(stats.evictions_clean, 1);
    }

    #[test]
    fn eviction_of_dirty_entry_leaves_dirty_bookkeeping_consistent() {
        let mut c = cache(2);
        c.insert(0, 1, true);
        c.insert(1, 2, true); // same tpn (entries_per_tp = 4)
        let ev = c.insert(4, 3, false).expect("evicts 0");
        assert_eq!((ev.lpn, ev.dirty), (0, true));
        // Slot 1 must still be tracked dirty under tpn 0 after slot 0 was
        // unlinked from the same list.
        let batch = c.writeback_batch(0, Some((ev.lpn, ev.ppn)));
        assert_eq!(batch, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn hit_rate_of_untouched_cache_is_one() {
        assert!((MapStats::default().hit_rate() - 1.0).abs() < 1e-12);
    }
}
