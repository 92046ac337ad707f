//! Seeded eviction-correctness property suite: under randomized churn the
//! cache + translation-page store must round-trip every entry — no dirty
//! update may ever be lost.
//!
//! The test drives the cache exactly the way the demand-paged FTL does:
//! lookups before every access, inserts on misses (loading from the
//! simulated on-flash translation-page store), in-place dirty updates for
//! relocations, and batched translation-page writebacks whenever a dirty
//! entry is evicted.  A reference map tracks the authoritative value of
//! every lpn; at every hit, at every writeback, and after a final drain
//! the cache/store contents are checked against it.

use std::collections::HashMap;

use ossd_mapcache::{MapCache, MapCacheConfig, MapStats};
use ossd_sim::SimRng;

const UNMAPPED: u64 = u64::MAX;
const ENTRIES_PER_TP: u64 = 8;
const LPN_SPACE: u64 = 256;
const OPS: usize = 20_000;

/// The simulated on-flash map area: tpn → (lpn → ppn).
type TpStore = HashMap<u64, HashMap<u64, u64>>;

fn store_get(store: &TpStore, tpn: u64, lpn: u64) -> u64 {
    store
        .get(&tpn)
        .and_then(|tp| tp.get(&lpn))
        .copied()
        .unwrap_or(UNMAPPED)
}

fn apply_batch(store: &mut TpStore, tpn: u64, batch: &[(u64, u64)], reference: &HashMap<u64, u64>) {
    let tp = store.entry(tpn).or_default();
    for &(lpn, ppn) in batch {
        assert_eq!(
            ppn,
            reference.get(&lpn).copied().unwrap_or(UNMAPPED),
            "writeback of lpn {lpn} carries a stale value"
        );
        tp.insert(lpn, ppn);
    }
}

fn handle_eviction(
    cache: &mut MapCache,
    store: &mut TpStore,
    reference: &HashMap<u64, u64>,
    eviction: ossd_mapcache::Eviction,
) {
    if !eviction.dirty {
        return;
    }
    let tpn = cache.tpn_of(eviction.lpn);
    let batch = cache.writeback_batch(tpn, Some((eviction.lpn, eviction.ppn)));
    assert!(batch.iter().any(|&(lpn, _)| lpn == eviction.lpn));
    apply_batch(store, tpn, &batch, reference);
}

fn churn(budget: u64, seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut cache = MapCache::new(
        MapCacheConfig::default().with_budget(budget),
        ENTRIES_PER_TP,
    );
    let mut store: TpStore = HashMap::new();
    let mut reference: HashMap<u64, u64> = HashMap::new();
    let mut next_ppn = 0u64;

    for _ in 0..OPS {
        let lpn = rng.zipf_usize(LPN_SPACE as usize, 0.9) as u64;
        let tpn = cache.tpn_of(lpn);
        let reference_value = reference.get(&lpn).copied().unwrap_or(UNMAPPED);
        match rng.next_u64_below(10) {
            // Host write: the mapping changes and the cached entry is the
            // only holder of the new value until written back.
            0..=4 => {
                let ppn = next_ppn;
                next_ppn += 1;
                reference.insert(lpn, ppn);
                if cache.lookup(lpn).is_none() {
                    if let Some(ev) = cache.insert(lpn, ppn, true) {
                        handle_eviction(&mut cache, &mut store, &reference, ev);
                    }
                } else {
                    assert!(cache.update(lpn, ppn, true));
                }
            }
            // Host read: a hit must return the authoritative value; a miss
            // reloads from the translation-page store (which must also be
            // authoritative for clean entries).
            5..=7 => match cache.lookup(lpn) {
                Some(ppn) => assert_eq!(ppn, reference_value, "hit returned a stale entry"),
                None => {
                    let loaded = store_get(&store, tpn, lpn);
                    assert_eq!(
                        loaded, reference_value,
                        "reload of lpn {lpn} lost an update"
                    );
                    if let Some(ev) = cache.insert(lpn, loaded, false) {
                        handle_eviction(&mut cache, &mut store, &reference, ev);
                    }
                }
            },
            // Relocation (GC/wear-level): the value changes outside the
            // lookup path; uncached entries update the store directly (the
            // FTL's immediate read-modify-write).
            _ => {
                if reference_value == UNMAPPED {
                    continue;
                }
                let ppn = next_ppn;
                next_ppn += 1;
                reference.insert(lpn, ppn);
                if !cache.update(lpn, ppn, true) {
                    store.entry(tpn).or_default().insert(lpn, ppn);
                }
            }
        }
    }

    // Flush: every surviving dirty entry lands in its translation page.
    for (tpn, batch) in cache.drain_dirty() {
        apply_batch(&mut store, tpn, &batch, &reference);
    }
    assert_eq!(cache.dirty_len(), 0);

    // Round-trip: the store alone (no cache) now reproduces every mapping.
    for (&lpn, &ppn) in &reference {
        let tpn = lpn / ENTRIES_PER_TP;
        assert_eq!(
            store_get(&store, tpn, lpn),
            ppn,
            "lpn {lpn} lost its last dirty update (budget {budget}, seed {seed})"
        );
    }

    // Sanity: the budget was honored and the churn actually evicted.
    assert!(cache.len() as u64 <= budget);
    let mut stats = MapStats::default();
    cache.stats_into(&mut stats);
    assert!(
        stats.evictions_clean + stats.evictions_dirty > 0,
        "churn never filled the cache; the test exercised nothing"
    );
    assert!(stats.writebacks > 0);
    assert!(stats.entries_written_back >= stats.evictions_dirty);
}

#[test]
fn randomized_churn_round_trips_every_entry() {
    for seed in [1u64, 7, 42] {
        churn(32, seed);
    }
}

#[test]
fn tiny_budget_survives_heavy_churn() {
    churn(2, 9);
}
