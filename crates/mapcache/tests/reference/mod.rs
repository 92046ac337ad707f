//! The map cache as it stood before its index dropped SipHash and its
//! dirty lists moved into the slots: a `HashMap` lpn → slot index, a
//! `HashMap` tpn → vector of dirty slots, and every writeback built as a
//! sorted batch.  Kept as the reference model `differential.rs` drives the
//! crate's cache against; its public surface is the one the cache had,
//! so `writeback` is `writeback_batch` with a batch the caller drops.

use std::collections::HashMap;

use ossd_mapcache::{Eviction, MapCacheConfig, MapStats, ENTRY_BYTES};

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    lpn: u64,
    ppn: u64,
    dirty: bool,
    referenced: bool,
    prev: u32,
    next: u32,
    dirty_pos: u32,
}

#[derive(Clone, Debug)]
pub struct ReferenceCache {
    config: MapCacheConfig,
    entries_per_tp: u64,
    slots: Vec<Slot>,
    free: Vec<u32>,
    index: HashMap<u64, u32>,
    head: u32,
    tail: u32,
    hand: u32,
    dirty_by_tpn: HashMap<u64, Vec<u32>>,
    hits: u64,
    misses: u64,
    evictions_clean: u64,
    evictions_dirty: u64,
    writebacks: u64,
    entries_written_back: u64,
}

impl ReferenceCache {
    pub fn new(config: MapCacheConfig, entries_per_tp: u64) -> Self {
        ReferenceCache {
            config,
            entries_per_tp: entries_per_tp.max(1),
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            head: NIL,
            tail: NIL,
            hand: NIL,
            dirty_by_tpn: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions_clean: 0,
            evictions_dirty: 0,
            writebacks: 0,
            entries_written_back: 0,
        }
    }

    pub fn tpn_of(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tp
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn dirty_len(&self) -> usize {
        self.dirty_by_tpn.values().map(Vec::len).sum()
    }

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

    pub fn peek(&self, lpn: u64) -> Option<u64> {
        self.index
            .get(&lpn)
            .map(|&slot| self.slots[slot as usize].ppn)
    }

    pub fn is_dirty(&self, lpn: u64) -> bool {
        self.index
            .get(&lpn)
            .is_some_and(|&slot| self.slots[slot as usize].dirty)
    }

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
            Some(slot) => slot,
            None => {
                self.slots.push(Slot {
                    lpn: 0,
                    ppn: 0,
                    dirty: false,
                    referenced: false,
                    prev: NIL,
                    next: NIL,
                    dirty_pos: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Slot {
            lpn,
            ppn,
            dirty: false,
            referenced: true,
            prev: NIL,
            next: NIL,
            dirty_pos: NIL,
        };
        self.index.insert(lpn, slot);
        self.push_front(slot);
        if dirty {
            self.mark_dirty(slot);
        }
        evicted
    }

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

    pub fn writeback_batch(&mut self, tpn: u64, evicted: Option<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut batch: Vec<(u64, u64)> = Vec::new();
        if let Some(slots) = self.dirty_by_tpn.remove(&tpn) {
            for slot in slots {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.dirty);
                s.dirty = false;
                s.dirty_pos = NIL;
                batch.push((s.lpn, s.ppn));
            }
        }
        if let Some(pair) = evicted {
            batch.push(pair);
        }
        batch.sort_unstable();
        self.writebacks += 1;
        self.entries_written_back += batch.len() as u64;
        batch
    }

    pub fn drain_dirty(&mut self) -> Vec<(u64, Vec<(u64, u64)>)> {
        let mut tpns: Vec<u64> = self.dirty_by_tpn.keys().copied().collect();
        tpns.sort_unstable();
        tpns.into_iter()
            .map(|tpn| (tpn, self.writeback_batch(tpn, None)))
            .collect()
    }

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
        let tpn = self.tpn_of(lpn);
        let list = self.dirty_by_tpn.entry(tpn).or_default();
        self.slots[slot as usize].dirty = true;
        self.slots[slot as usize].dirty_pos = list.len() as u32;
        list.push(slot);
    }

    fn set_clean(&mut self, slot: u32) {
        let (lpn, dirty, pos) = {
            let s = &self.slots[slot as usize];
            (s.lpn, s.dirty, s.dirty_pos)
        };
        if !dirty {
            return;
        }
        let tpn = self.tpn_of(lpn);
        let list = self
            .dirty_by_tpn
            .get_mut(&tpn)
            .expect("dirty slot has a tpn list");
        list.swap_remove(pos as usize);
        if let Some(&moved) = list.get(pos as usize) {
            self.slots[moved as usize].dirty_pos = pos;
        }
        if list.is_empty() {
            self.dirty_by_tpn.remove(&tpn);
        }
        let s = &mut self.slots[slot as usize];
        s.dirty = false;
        s.dirty_pos = NIL;
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
            self.hand = prev;
        }
    }

    fn evict_one(&mut self) -> Eviction {
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
