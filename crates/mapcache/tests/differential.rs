//! Seeded differential suite: the map cache against the reference model
//! in `reference/` — the cache as it was with a SipHash index, hash-mapped
//! dirty vectors and a sorted batch built for every writeback.  Each stream
//! mixes every public operation; after every call the two must agree on
//! the call's return value, `len`, `dirty_len` and every counter
//! `stats_into` reports.  The cells cover budgets {1, 2, 3, 64} ×
//! translation pages of {1, 4, 512} entries.

mod reference;

use ossd_mapcache::{MapCache, MapCacheConfig, MapStats};
use ossd_sim::SimRng;
use reference::ReferenceCache;

const BUDGETS: [u64; 4] = [1, 2, 3, 64];
const ENTRIES_PER_TP: [u64; 3] = [1, 4, 512];
const CELLS: u64 = (BUDGETS.len() * ENTRIES_PER_TP.len()) as u64;
const OPS: usize = 1_500;

/// What one stream exercised, summed over streams.
#[derive(Default)]
struct Coverage {
    hits: u64,
    dirty_evictions: u64,
    carried: u64,
    drained: u64,
}

fn stats(fill: impl FnOnce(&mut MapStats)) -> MapStats {
    let mut stats = MapStats::default();
    fill(&mut stats);
    stats
}

/// Runs stream `stream` in cell `stream % CELLS`.
fn run_stream(stream: u64, coverage: &mut Coverage) {
    let cell = stream % CELLS;
    let budget = BUDGETS[(cell % 4) as usize];
    let entries_per_tp = ENTRIES_PER_TP[(cell / 4) as usize];
    let config = MapCacheConfig::default().with_budget(budget);
    let mut cache = MapCache::new(config, entries_per_tp);
    let mut reference = ReferenceCache::new(config, entries_per_tp);
    let mut rng = SimRng::seed_from_u64(stream);
    // A pool of lpns a few times the budget, spread over several
    // translation pages however many entries a page holds.
    let pool_len = 2 * budget + 3;
    let span = pool_len.max(6 * entries_per_tp);
    let pool: Vec<u64> = (0..pool_len).map(|_| rng.next_u64_below(span)).collect();
    let max_tpn = (span - 1) / entries_per_tp;
    for step in 0..OPS {
        let lpn = pool[rng.next_usize_below(pool.len())];
        let ppn = rng.next_u64_below(1 << 40);
        let dirty = rng.chance(0.5);
        let at = format!("stream {stream} ({budget}, {entries_per_tp}) step {step}");
        match rng.next_u64_below(100) {
            0..=24 => {
                let got = cache.lookup(lpn);
                assert_eq!(got, reference.lookup(lpn), "lookup {lpn}: {at}");
                coverage.hits += got.is_some() as u64;
            }
            25..=49 => {
                let got = cache.insert(lpn, ppn, dirty);
                assert_eq!(got, reference.insert(lpn, ppn, dirty), "insert {lpn}: {at}");
                coverage.dirty_evictions += got.is_some_and(|e| e.dirty) as u64;
            }
            50..=64 => assert_eq!(
                cache.update(lpn, ppn, dirty),
                reference.update(lpn, ppn, dirty),
                "update {lpn}: {at}"
            ),
            65..=74 => {
                // Mostly a tpn of the pool, sometimes one past any dirtied.
                let tpn = match rng.chance(0.8) {
                    true => cache.tpn_of(lpn),
                    false => rng.next_u64_below(max_tpn + 3),
                };
                let evicted = rng.chance(0.5);
                let got = cache.writeback(tpn, evicted);
                let batch = reference.writeback_batch(tpn, evicted.then_some((lpn, ppn)));
                assert_eq!(got, batch.len(), "writeback {tpn}: {at}");
                coverage.carried += got as u64;
            }
            75..=84 => {
                let tpn = cache.tpn_of(lpn);
                let evicted = rng.chance(0.5).then_some((lpn, ppn));
                assert_eq!(
                    cache.writeback_batch(tpn, evicted),
                    reference.writeback_batch(tpn, evicted),
                    "writeback_batch {tpn}: {at}"
                );
            }
            85..=86 => {
                let got = cache.drain_dirty();
                assert_eq!(got, reference.drain_dirty(), "drain_dirty: {at}");
                coverage.drained += got.len() as u64;
            }
            87..=93 => assert_eq!(cache.peek(lpn), reference.peek(lpn), "peek {lpn}: {at}"),
            _ => assert_eq!(
                cache.is_dirty(lpn),
                reference.is_dirty(lpn),
                "is_dirty {lpn}: {at}"
            ),
        }
        assert_eq!(cache.len(), reference.len(), "len: {at}");
        assert_eq!(cache.dirty_len(), reference.dirty_len(), "dirty_len: {at}");
        assert_eq!(
            stats(|s| cache.stats_into(s)),
            stats(|s| reference.stats_into(s)),
            "stats: {at}"
        );
        assert_eq!(cache.tpn_of(lpn), reference.tpn_of(lpn));
    }
}

fn run_streams(streams: u64) {
    let mut coverage = Coverage::default();
    for stream in 0..streams {
        run_stream(stream, &mut coverage);
    }
    let Coverage {
        hits,
        dirty_evictions,
        carried,
        drained,
    } = coverage;
    println!(
        "{streams} streams: {hits} hits, {dirty_evictions} dirty evictions, {carried} entries \
         carried by writebacks, {drained} translation pages drained"
    );
    let per = streams * OPS as u64;
    assert!(
        hits > per / 20 && dirty_evictions > per / 50,
        "{hits} {dirty_evictions}"
    );
    assert!(
        carried > per / 50 && drained > streams,
        "{carried} {drained}"
    );
}

#[test]
fn map_cache_matches_the_reference_model() {
    run_streams(200);
}

/// The long form (`cargo test --release -p ossd-mapcache -- --ignored`).
#[test]
#[ignore = "long form of map_cache_matches_the_reference_model"]
fn map_cache_matches_the_reference_model_long() {
    run_streams(4_000);
}
