//! Probes of the lowest public boundaries: each drives one of the program's
//! data structures from a bench-owned instance, at the shape and counts the
//! workload actually produced, and returns host nanoseconds per operation.
//! A layer's time inside a workload is then `count x ns`.

use std::hint::black_box;
use std::time::Instant;

use ossd_block::ByteRange;
use ossd_flash::{ElementId, FlashArray, FlashGeometry, FlashTiming, PhysPageAddr};
use ossd_fleet::parity::{self, ParityGeometry, SubOpKind};
use ossd_fleet::split_striped;
use ossd_gc::VictimIndex;
use ossd_mapcache::{MapCache, MapCacheConfig};
use ossd_reliability::{ReliabilityConfig, ReliabilityModel};
use ossd_sim::engine::{self, Controller, DispatchedOp};
use ossd_sim::{EventQueue, SimDuration, SimTime};
use ossd_ssd::{DispatchView, ElementQueue, SchedulerKind};

use crate::gen::{Cmd, Pcg64};
use crate::workloads::PAGE_BYTES;

/// No probe loops more than this many times: enough for a steady mean,
/// bounded so a traced run stays inside its time budget.
const MAX_PROBE_OPS: u64 = 2_000_000;

/// Cost of one `Instant::now()` pair around nothing, subtracted from every
/// interval that times a single call.
pub fn timer_overhead_ns() -> f64 {
    let mut deltas: Vec<f64> = (0..20_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    deltas.sort_by(|a, b| a.total_cmp(b));
    deltas[deltas.len() / 2]
}

fn ns_per(begin: Instant, ops: u64) -> f64 {
    begin.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

pub struct FlashCosts {
    pub program_ns: f64,
    pub invalidate_ns: f64,
    pub erase_ns: f64,
    pub read_ns: f64,
}

/// `FlashArray::{program, read, invalidate, erase}` over whole blocks of a
/// fault-free array of the workload's geometry, cycling until `programs`
/// pages have been programmed.
pub fn flash_array(geometry: FlashGeometry, programs: u64) -> FlashCosts {
    let mut flash = FlashArray::new(geometry, FlashTiming::slc()).expect("valid geometry");
    let pages = geometry.pages_per_block as u64;
    let blocks = geometry.blocks_per_element();
    let rounds = (programs.min(MAX_PROBE_OPS) / (pages * blocks as u64)).max(1);
    let element = ElementId(0);
    let (mut program, mut read, mut invalidate, mut erase) = (0u128, 0u128, 0u128, 0u128);
    for _ in 0..rounds {
        let t = Instant::now();
        for block in 0..blocks {
            for _ in 0..pages {
                black_box(flash.program(element, block).expect("sequential program"));
            }
        }
        program += t.elapsed().as_nanos();
        let t = Instant::now();
        for block in 0..blocks {
            for page in 0..pages as u32 {
                let addr = PhysPageAddr {
                    element,
                    block,
                    page,
                };
                black_box(flash.read(addr).expect("read of a valid page"));
            }
        }
        read += t.elapsed().as_nanos();
        let t = Instant::now();
        for block in 0..blocks {
            for page in 0..pages as u32 {
                let addr = PhysPageAddr {
                    element,
                    block,
                    page,
                };
                black_box(flash.invalidate(addr).expect("invalidate of a valid page"));
            }
        }
        invalidate += t.elapsed().as_nanos();
        let t = Instant::now();
        for block in 0..blocks {
            flash.erase(element, block).expect("erase of a stale block");
        }
        erase += t.elapsed().as_nanos();
    }
    let page_ops = (rounds * pages * blocks as u64) as f64;
    FlashCosts {
        program_ns: program as f64 / page_ops,
        read_ns: read as f64 / page_ops,
        invalidate_ns: invalidate as f64 / page_ops,
        erase_ns: erase as f64 / (rounds * blocks as u64) as f64,
    }
}

pub struct GcCosts {
    pub pick_ns: f64,
    /// Mean cost of one `on_program` / `on_invalidate` / `on_erase` call.
    pub index_update_ns: f64,
}

/// A `VictimIndex` of the workload's block shape kept at steady state: fill
/// blocks, invalidate random pages, and whenever free blocks run short pick
/// the greedy victim, move its `moved_per_erase` live pages and erase it.
/// Picks are timed one by one (less the timer's own cost); updates in bulk.
pub fn victim_index(
    geometry: FlashGeometry,
    moved_per_erase: f64,
    picks: u64,
    timer_ns: f64,
) -> GcCosts {
    let blocks = geometry.blocks_per_element();
    let pages = geometry.pages_per_block;
    let mut index = VictimIndex::new(blocks, pages);
    let mut rng = Pcg64::new(0x9c, 7);
    // Shadow of each block's live pages, so the probe only makes legal calls.
    let mut valid = vec![0u32; blocks as usize];
    let mut written = vec![0u32; blocks as usize];
    let mut free: Vec<u32> = (0..blocks).rev().collect();
    let mut active = free.pop().expect("at least one block");
    let live_target = ((pages as f64 - moved_per_erase.min(pages as f64 - 1.0)).max(1.0)) as u32;
    let (mut pick_time, mut picked) = (0f64, 0u64);
    let (mut update_time, mut updates) = (0u128, 0u64);
    let mut clock = 0u64;
    let picks = picks.clamp(1_000, MAX_PROBE_OPS / 64);
    while picked < picks {
        // Append one block's worth of pages, then stale some at random.
        let t = Instant::now();
        for _ in 0..pages {
            if written[active as usize] == pages {
                active = match free.pop() {
                    Some(b) => b,
                    None => break,
                };
            }
            clock += 1;
            index.on_program(active, clock);
            written[active as usize] += 1;
            valid[active as usize] += 1;
            updates += 1;
        }
        for _ in 0..live_target {
            let b = rng.below(blocks as u64) as u32;
            if b != active && valid[b as usize] > 0 {
                index.on_invalidate(b);
                valid[b as usize] -= 1;
                updates += 1;
            }
        }
        update_time += t.elapsed().as_nanos();
        if free.len() > 2 {
            continue;
        }
        let t = Instant::now();
        let victim = black_box(index.pick_greedy(Some(active), None));
        pick_time += t.elapsed().as_nanos() as f64 - timer_ns;
        picked += 1;
        let Some(victim) = victim else { continue };
        let t = Instant::now();
        for _ in 0..valid[victim as usize] {
            index.on_invalidate(victim);
            updates += 1;
        }
        index.on_erase(victim);
        updates += 1;
        update_time += t.elapsed().as_nanos();
        valid[victim as usize] = 0;
        written[victim as usize] = 0;
        free.push(victim);
    }
    GcCosts {
        pick_ns: (pick_time / picked as f64).max(0.0),
        index_update_ns: update_time as f64 / updates.max(1) as f64,
    }
}

pub struct MapCosts {
    /// One `MapCache::lookup`, hit or miss.
    pub lookup_ns: f64,
    /// One miss's `insert`, with the eviction and any batched writeback.
    pub miss_ns: f64,
}

/// A bench-owned `MapCache` with the workload's budget, fed the logical
/// pages of `cmds` over and over: lookups are timed in bulk per pass, the
/// installs the misses lead to are timed in bulk after them.
pub fn map_cache(budget: u64, cmds: &[Cmd], lookups: u64) -> MapCosts {
    let entries_per_tp = PAGE_BYTES / ossd_mapcache::ENTRY_BYTES;
    let mut cache = MapCache::new(
        MapCacheConfig::default().with_budget(budget),
        entries_per_tp,
    );
    let mut missed: Vec<(u64, bool)> = Vec::with_capacity(cmds.len());
    let (mut lookup_time, mut looked) = (0u128, 0u64);
    let (mut miss_time, mut misses) = (0u128, 0u64);
    let target = lookups.clamp(cmds.len() as u64, MAX_PROBE_OPS);
    while looked < target {
        for chunk in cmds.chunks(1024) {
            missed.clear();
            let t = Instant::now();
            for cmd in chunk {
                if black_box(cache.lookup(cmd.lpn)).is_none() {
                    missed.push((cmd.lpn, cmd.write));
                }
            }
            lookup_time += t.elapsed().as_nanos();
            looked += chunk.len() as u64;
            let t = Instant::now();
            for &(lpn, dirty) in &missed {
                if let Some(evicted) = cache.insert(lpn, lpn, dirty) {
                    if evicted.dirty {
                        let tpn = cache.tpn_of(evicted.lpn);
                        black_box(cache.writeback_batch(tpn, Some((evicted.lpn, evicted.ppn))));
                    }
                }
            }
            miss_time += t.elapsed().as_nanos();
            misses += missed.len() as u64;
        }
    }
    MapCosts {
        lookup_ns: lookup_time as f64 / looked as f64,
        miss_ns: miss_time as f64 / misses.max(1) as f64,
    }
}

/// One `EventQueue` push plus the matching pop, with `depth` events
/// pending — the queue the engine keeps two events per in-flight op in.
pub fn event_queue(depth: u64, events: u64) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut rng = Pcg64::new(0xe7, 7);
    let mut now = 0u64;
    for i in 0..depth.max(1) {
        queue.push(SimTime::from_nanos(rng.below(100_000)), i);
    }
    let events = events.clamp(100_000, MAX_PROBE_OPS);
    let begin = Instant::now();
    for i in 0..events {
        let (at, _) = queue.pop().expect("queue holds `depth` events");
        now = now.max(at.as_nanos());
        queue.push(SimTime::from_nanos(now + rng.below(100_000)), i);
    }
    black_box(&queue);
    ns_per(begin, events)
}

/// The cheapest possible `Controller`: every arrival is dispatched at once
/// as one op of fixed length, so `engine::run` over it costs the engine's
/// own bookkeeping and nothing else.
struct StubController {
    queued: Vec<usize>,
    pending_events: usize,
}

impl Controller for StubController {
    type Error = ();

    fn on_arrival(&mut self, index: usize, _now: SimTime) -> Result<(), ()> {
        self.queued.push(index);
        Ok(())
    }

    fn poll_dispatch(&mut self, now: SimTime) -> Result<Vec<DispatchedOp>, ()> {
        let ops: Vec<DispatchedOp> = self
            .queued
            .drain(..)
            .map(|index| DispatchedOp {
                token: index as u64,
                start: now,
                complete: now + SimDuration::from_micros(100),
            })
            .collect();
        self.pending_events += 2 * ops.len();
        Ok(ops)
    }

    fn on_op_start(&mut self, _token: u64, _now: SimTime) -> Result<(), ()> {
        self.pending_events -= 1;
        Ok(())
    }

    fn on_op_complete(&mut self, _token: u64, _now: SimTime) -> Result<(), ()> {
        self.pending_events -= 1;
        Ok(())
    }

    fn in_flight(&self) -> usize {
        self.pending_events + self.queued.len()
    }
}

/// Host nanoseconds per delivered engine event, in sessions of
/// `session_cmds` arrivals spaced `gap_ns` apart (0 for a burst).
pub fn engine_per_event(session_cmds: u64, gap_ns: u64, cmds: u64) -> f64 {
    let arrivals: Vec<SimTime> = (0..session_cmds)
        .map(|i| SimTime::from_nanos(i * gap_ns))
        .collect();
    let sessions = (cmds.clamp(100_000, MAX_PROBE_OPS) / session_cmds).max(1);
    let begin = Instant::now();
    for _ in 0..sessions {
        let mut controller = StubController {
            queued: Vec::new(),
            pending_events: 0,
        };
        engine::run(&mut controller, black_box(&arrivals)).expect("stub never fails");
        black_box(&controller.pending_events);
    }
    // Arrival, op-start and op-complete per command.
    ns_per(begin, sessions * session_cmds * 3)
}

/// One `SchedulerKind::pick` over `queued` dispatchable commands spread
/// over `elements` element queues of differing backlog.
pub fn scheduler_pick(scheduler: SchedulerKind, elements: usize, queued: usize, picks: u64) -> f64 {
    let mut rng = Pcg64::new(0x5c, 7);
    let mut queues = vec![ElementQueue::new(); elements];
    for q in &mut queues {
        q.accept(SimTime::ZERO, SimDuration::from_micros(rng.below(500) + 1));
    }
    let views: Vec<DispatchView> = (0..queued.max(1))
        .map(|i| DispatchView {
            arrival: SimTime::from_nanos(i as u64),
            element: Some(rng.below(elements as u64) as usize),
        })
        .collect();
    let picks = (picks.min(MAX_PROBE_OPS) / views.len() as u64).clamp(1_000, 1_000_000);
    let now = SimTime::from_micros(10);
    let begin = Instant::now();
    for _ in 0..picks {
        black_box(scheduler.pick(black_box(&views), &queues, now));
    }
    ns_per(begin, picks)
}

/// One `ReliabilityModel::read_outcome` (raw bit-error draw plus the ECC
/// retry loop) on a fresh block under `config`.
pub fn reliability_decode(config: &ReliabilityConfig, reads: u64) -> f64 {
    let mut model = ReliabilityModel::new(config);
    let reads = reads.clamp(100_000, MAX_PROBE_OPS);
    let begin = Instant::now();
    for i in 0..reads {
        black_box(model.read_outcome(0.001, i % 64));
    }
    ns_per(begin, reads)
}

pub struct FleetCosts {
    /// One `parity::plan` of a workload command.
    pub plan_ns: f64,
    /// One `ParityGeometry::locate` + `parity_device` + `data_device`.
    pub geometry_ns: f64,
    /// One `split_striped` of the same range (the RAID-0 router, for scale).
    pub split_ns: f64,
}

/// The routing arithmetic of a parity fleet over the workload's own
/// command ranges.
pub fn fleet_routing(geom: ParityGeometry, cmds: &[Cmd]) -> FleetCosts {
    let ranges: Vec<(SubOpKind, ByteRange)> = cmds
        .iter()
        .map(|c| {
            let kind = if c.write {
                SubOpKind::Write
            } else {
                SubOpKind::Read
            };
            (
                kind,
                ByteRange::new(c.lpn * PAGE_BYTES, c.pages as u64 * PAGE_BYTES),
            )
        })
        .collect();
    let n = ranges.len() as u64;
    let begin = Instant::now();
    for &(kind, range) in &ranges {
        black_box(parity::plan(&geom, None, kind, range));
    }
    let plan_ns = ns_per(begin, n);
    let begin = Instant::now();
    for &(_, range) in &ranges {
        let (row, slot, _) = geom.locate(range.offset);
        black_box((geom.parity_device(row), geom.data_device(row, slot)));
    }
    let geometry_ns = ns_per(begin, n);
    let begin = Instant::now();
    for &(_, range) in &ranges {
        black_box(split_striped(range, geom.devices, geom.stripe_bytes));
    }
    let split_ns = ns_per(begin, n);
    FleetCosts {
        plan_ns,
        geometry_ns,
        split_ns,
    }
}
