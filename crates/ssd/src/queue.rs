//! Per-element dispatch queues.
//!
//! §3.2 of the paper describes an SSD as "a collection of parallel elements
//! with independent queues": the controller decomposes each host request
//! into per-page flash operations and hands them to the queue of the element
//! (die) they target.  An [`ElementQueue`] owns the element's busy-until-time
//! [`Server`] and additionally tracks how many accepted operations are still
//! *waiting* to start at any point in simulated time — the per-element queue
//! occupancy that NCQ-style queue depths (`SsdConfig::queue_depth`) and the
//! shortest-wait-time-first scheduler reason about.
//!
//! # Runs
//!
//! Cleaning hands a die dozens of identical copy-backs at one instant, so
//! the queue books in *runs*: [`ElementQueue::accept_run`] takes `n` ops of
//! one service time arriving together and does what `n` calls of
//! [`ElementQueue::accept`] do — same starts, same `depth_at`, same
//! `peak_queued`, same server totals — in O(1); `accept` is the run of one.
//! The ops still waiting are kept as `(first_start, stride, count)` runs
//! and counted and pruned by arithmetic, never expanded.
//!
//! A booked run stays a sequence of `count` separately addressable ops: op
//! `k` starts at `first_start + k * stride`, so a run splits at any op
//! boundary into `(first_start, stride, k)` and `(first_start + k * stride,
//! stride, count - k)` without changing a single start.  That boundary is
//! what suspend-resume would cut on: letting a later read in ahead of op `k`
//! is a split there plus a shift of the tail (and of the server's
//! `next_free`) by the read's service time.
//!
//! With latency attribution enabled (`ElementQueue::enable_blame`), each
//! queue additionally keeps a [`BlameLedger`] of the busy segments accepted
//! ops occupy, so a later op's wait can be split by *what ran ahead of it*
//! (host data vs GC vs map vs ECC traffic).  The ledger is purely
//! observational — `ElementQueue::accept_run_tagged` computes the
//! identical schedule as [`ElementQueue::accept_run`].

use std::collections::VecDeque;

use ossd_sim::{Server, Service, SimDuration, SimTime};
use ossd_telemetry::{BlameBreakdown, BlameLedger, BlameSource};

/// `count` accepted ops that had not begun when last observed, starting at
/// `first`, `first + stride`, …
#[derive(Clone, Copy, Debug)]
struct PendingRun {
    first: SimTime,
    stride: SimDuration,
    count: u64,
}

impl PendingRun {
    /// How many of the run's ops have started by `now`.
    fn started_by(&self, now: SimTime) -> u64 {
        if self.first > now {
            return 0;
        }
        let last = self.first + self.stride * (self.count - 1);
        if last <= now {
            self.count
        } else {
            // Part-way through, so the stride is not zero.
            now.saturating_since(self.first).as_nanos() / self.stride.as_nanos() + 1
        }
    }
}

/// One flash element's (or gang bus's) dispatch queue: operations accepted
/// by the controller wait here until the resource starts them.
#[derive(Clone, Debug, Default)]
pub struct ElementQueue {
    server: Server,
    /// The accepted ops that had not yet begun when last observed, in start
    /// order (the server is FIFO, so starts only grow along the deque);
    /// pruned lazily as time advances past them.
    pending: VecDeque<PendingRun>,
    /// Ops across `pending`.
    waiting: u64,
    peak_queued: usize,
    ops_accepted: u64,
    /// Busy-segment ledger for wait attribution; `None` unless the device
    /// has latency attribution enabled.
    ledger: Option<BlameLedger>,
}

impl ElementQueue {
    /// An empty queue over an idle server.
    pub fn new() -> Self {
        ElementQueue::default()
    }

    /// Accepts one operation arriving at `arrival` with service demand
    /// `service`; the embedded server assigns its start and completion.
    pub fn accept(&mut self, arrival: SimTime, service: SimDuration) -> Service {
        self.accept_run(arrival, service, 1).0
    }

    /// Accepts `n` (at least one) operations arriving together at `arrival`
    /// with service demand `service` each: op `k` starts `k * service` after
    /// the first.  Returns the first op's [`Service`] and the completion of
    /// the last, and leaves the queue exactly as `n` calls of
    /// [`ElementQueue::accept`] would (see the module docs).
    pub fn accept_run(
        &mut self,
        arrival: SimTime,
        service: SimDuration,
        n: u64,
    ) -> (Service, SimTime) {
        self.prune(arrival);
        let (first, last_completion) = self.server.serve_run(arrival, service, n);
        // An op that starts on arrival never waits: none does behind a busy
        // server, else the first — or, taking no time, all of them.
        let immediate = match (first.start > arrival, service.is_zero()) {
            (true, _) => 0,
            (false, false) => 1,
            (false, true) => n,
        };
        if immediate < n {
            self.pending.push_back(PendingRun {
                first: first.start + service * immediate,
                stride: service,
                count: n - immediate,
            });
            self.waiting += n - immediate;
            self.peak_queued = self.peak_queued.max(self.waiting as usize);
        }
        self.ops_accepted += n;
        (first, last_completion)
    }

    /// Start keeping a busy-segment ledger so
    /// [`ElementQueue::accept_run_tagged`] can attribute waits.  Idempotent;
    /// never affects schedules.
    pub(crate) fn enable_blame(&mut self) {
        if self.ledger.is_none() {
            self.ledger = Some(BlameLedger::new());
        }
    }

    /// [`ElementQueue::accept_run`], plus blame bookkeeping: the waiting
    /// interval of the run's **last** op — the only op of a run whose finish
    /// can be a batch's finish — is split over the ledger's recorded
    /// segments into `waits` (categories relative to `owner`), time behind
    /// the run's own earlier ops included, and the run's busy time is
    /// recorded as `source` work for *later* waiters to blame.  The earlier
    /// ops go in as one merged segment: same owner, same source and back to
    /// back, it splits any later wait exactly as `n - 1` separate segments
    /// would.
    ///
    /// Timing is byte-identical to the untagged path; when no ledger is
    /// enabled this *is* the untagged path.
    pub(crate) fn accept_run_tagged(
        &mut self,
        arrival: SimTime,
        service: SimDuration,
        n: u64,
        owner: u64,
        source: BlameSource,
        waits: &mut BlameBreakdown,
    ) -> (Service, SimTime) {
        let (first, last_completion) = self.accept_run(arrival, service, n);
        if let Some(ledger) = &mut self.ledger {
            let last_start = first.start + service * (n - 1);
            ledger.prune(arrival);
            ledger.record(first.start, last_start, owner, source);
            ledger.split_wait(arrival, last_start, owner, waits);
            ledger.record(last_start, last_completion, owner, source);
        }
        (first, last_completion)
    }

    fn prune(&mut self, now: SimTime) {
        while let Some(run) = self.pending.front_mut() {
            let started = run.started_by(now);
            if started == 0 {
                break;
            }
            self.waiting -= started;
            if started < run.count {
                run.first += run.stride * started;
                run.count -= started;
                break;
            }
            self.pending.pop_front();
        }
    }

    /// Number of accepted ops still waiting to start at `now`.
    pub(crate) fn depth_at(&self, now: SimTime) -> usize {
        let mut depth = self.waiting;
        for run in &self.pending {
            let started = run.started_by(now);
            if started == 0 {
                break;
            }
            depth -= started;
        }
        depth as usize
    }

    /// Largest number of ops simultaneously waiting, observed at accept
    /// instants (the high-water mark of the dispatch queue).
    pub fn peak_queued(&self) -> usize {
        self.peak_queued
    }

    /// Total operations accepted.
    pub fn ops_accepted(&self) -> u64 {
        self.ops_accepted
    }

    /// The earliest time the element can start a new operation.
    pub fn next_free(&self) -> SimTime {
        self.server.next_free()
    }

    /// How long an op arriving at `arrival` would wait before starting.
    pub fn wait_for(&self, arrival: SimTime) -> SimDuration {
        self.server.wait_for(arrival)
    }

    /// Whether the element would be idle for an op arriving at `arrival`.
    pub fn is_idle_at(&self, arrival: SimTime) -> bool {
        self.server.is_idle_at(arrival)
    }

    /// Read access to the underlying server (busy time, utilisation).
    pub fn server(&self) -> &Server {
        &self.server
    }
}

#[cfg(test)]
impl ElementQueue {
    /// Holds this queue to `reference`, which booked the same ops one at a
    /// time: server totals, counters, the waiting ops' start times one by
    /// one, and — the ledgers differ in how they cut segments, not in what
    /// they blame — how each ledger splits the wait to `next_free` of `owner`
    /// and of a stranger arriving at instants from `floor` on.
    pub(crate) fn assert_booked_like(
        &self,
        reference: &ElementQueue,
        floor: SimTime,
        owner: u64,
        what: &str,
    ) {
        let totals = |q: &ElementQueue| {
            (
                q.next_free(),
                q.server.busy_total(),
                q.server.served_ops(),
                q.ops_accepted,
                q.peak_queued,
                q.waiting,
            )
        };
        assert_eq!(totals(self), totals(reference), "{what}: totals");
        let starts = |q: &ElementQueue| -> Vec<SimTime> {
            q.pending
                .iter()
                .flat_map(|run| (0..run.count).map(move |k| run.first + run.stride * k))
                .collect()
        };
        assert_eq!(starts(self), starts(reference), "{what}: pending starts");
        assert_eq!(self.ledger.is_some(), reference.ledger.is_some(), "{what}");
        if let (Some(ledger), Some(expected)) = (&self.ledger, &reference.ledger) {
            let end = self.next_free();
            let span = end.saturating_since(floor).as_nanos();
            for step in 0..=16 {
                let arrival = floor + SimDuration::from_nanos(span / 16 * step);
                for waiter in [owner, owner + 1] {
                    let (mut a, mut b) = (BlameBreakdown::new(), BlameBreakdown::new());
                    ledger.split_wait(arrival, end, waiter, &mut a);
                    expected.split_wait(arrival, end, waiter, &mut b);
                    assert_eq!(a, b, "{what}: wait of {waiter} from {arrival:?}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_tracks_waiting_ops() {
        let mut q = ElementQueue::new();
        // Three ops arriving at t=0, 10 µs service each: the first starts
        // immediately, the next two queue.
        let a = q.accept(SimTime::ZERO, SimDuration::from_micros(10));
        let b = q.accept(SimTime::ZERO, SimDuration::from_micros(10));
        let c = q.accept(SimTime::ZERO, SimDuration::from_micros(10));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::from_micros(10));
        assert_eq!(c.start, SimTime::from_micros(20));
        assert_eq!(q.depth_at(SimTime::ZERO), 2);
        assert_eq!(q.depth_at(SimTime::from_micros(10)), 1);
        assert_eq!(q.depth_at(SimTime::from_micros(25)), 0);
        assert_eq!(q.peak_queued(), 2);
        assert_eq!(q.ops_accepted(), 3);
    }

    #[test]
    fn prune_drops_started_ops() {
        let mut q = ElementQueue::new();
        q.accept(SimTime::ZERO, SimDuration::from_micros(10));
        q.accept(SimTime::ZERO, SimDuration::from_micros(10));
        // A later accept prunes ops that started in the meantime; only the
        // new arrival's own wait is left pending.
        let c = q.accept(SimTime::from_micros(15), SimDuration::from_micros(10));
        assert_eq!(c.start, SimTime::from_micros(20));
        assert_eq!(q.depth_at(SimTime::from_micros(15)), 1);
        // Only one op was ever waiting at a time: the first of each pair
        // started immediately.
        assert_eq!(q.peak_queued(), 1);
    }

    #[test]
    fn tagged_accept_matches_untagged_and_attributes_waits() {
        use ossd_telemetry::BlameCat;
        let mut plain = ElementQueue::new();
        let mut tagged = ElementQueue::new();
        tagged.enable_blame();
        let mut sink = BlameBreakdown::new();
        // A GC erase occupies [0, 10); a host op from owner 1 arrives at 2.
        let p1 = plain.accept(SimTime::ZERO, SimDuration::from_micros(10));
        let (t1, _) = tagged.accept_run_tagged(
            SimTime::ZERO,
            SimDuration::from_micros(10),
            1,
            0,
            BlameSource::Gc,
            &mut sink,
        );
        assert_eq!((p1.start, p1.completion), (t1.start, t1.completion));
        assert_eq!(sink.total_nanos(), 0);
        let mut waits = BlameBreakdown::new();
        let p2 = plain.accept(SimTime::from_micros(2), SimDuration::from_micros(5));
        let (t2, _) = tagged.accept_run_tagged(
            SimTime::from_micros(2),
            SimDuration::from_micros(5),
            1,
            1,
            BlameSource::HostData,
            &mut waits,
        );
        assert_eq!((p2.start, p2.completion), (t2.start, t2.completion));
        // The 8 µs wait is entirely blamed on the GC segment ahead of it.
        assert_eq!(waits.get(BlameCat::GcWait), 8_000);
        assert_eq!(
            waits.total_nanos(),
            t2.start
                .saturating_since(SimTime::from_micros(2))
                .as_nanos()
        );
    }

    /// Seeded property loop: `accept_run` on one queue against `n` single
    /// accepts on a clone of it, over idle and backlogged queues, runs of
    /// one, and zero service.  The clone is in turn held to a list of
    /// pending start times kept the way the queue kept them before runs:
    /// one entry per waiting op, popped as time passes, counted by a filter.
    #[test]
    fn accept_run_leaves_the_queue_as_n_accepts_do() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut backlogged, mut idle, mut mid_run) = (0, 0, 0);
        for _ in 0..200 {
            let mut run = ElementQueue::new();
            let mut single = ElementQueue::new();
            let mut starts: VecDeque<SimTime> = VecDeque::new();
            let mut peak = 0;
            let mut now = SimTime::ZERO;
            for _ in 0..60 {
                // Arrivals only move forward; a big step lets the queue drain.
                now += SimDuration::from_nanos(match next(4) {
                    0 => 0,
                    1 | 2 => next(400),
                    _ => next(40_000),
                });
                let service = SimDuration::from_nanos(if next(6) == 0 { 0 } else { 1 + next(300) });
                let n = if next(3) == 0 { 1 } else { 1 + next(70) };
                if run.is_idle_at(now) {
                    idle += 1;
                } else {
                    backlogged += 1;
                }
                let (first, last_completion) = run.accept_run(now, service, n);
                while starts.front().is_some_and(|&s| s <= now) {
                    starts.pop_front();
                }
                for k in 0..n {
                    let svc = single.accept(now, service);
                    if svc.start > now {
                        starts.push_back(svc.start);
                        peak = peak.max(starts.len());
                    }
                    if k == 0 {
                        assert_eq!(svc, first);
                    }
                    if k == n - 1 {
                        assert_eq!(svc.completion, last_completion);
                    }
                }
                assert_eq!(run.next_free(), single.next_free());
                assert_eq!(run.peak_queued(), single.peak_queued());
                assert_eq!(run.peak_queued(), peak);
                assert_eq!(run.ops_accepted(), single.ops_accepted());
                assert_eq!(run.server().busy_total(), single.server().busy_total());
                assert_eq!(run.server().served_ops(), single.server().served_ops());
                // Depth at instants from before the arrival to past the
                // backlog, most of them inside the run just booked.
                let horizon = run.next_free().saturating_since(now).as_nanos() + 2;
                for _ in 0..8 {
                    let at = match next(8) {
                        0 => SimTime::from_nanos(next(now.as_nanos() + 1)),
                        1 => now,
                        _ => now + SimDuration::from_nanos(next(horizon)),
                    };
                    mid_run += (first.start < at && at < last_completion) as u32;
                    let expected = starts.iter().filter(|&&s| s > at).count();
                    assert_eq!(run.depth_at(at), expected, "at {at:?}, now {now:?}");
                    assert_eq!(single.depth_at(at), expected, "at {at:?}, now {now:?}");
                }
            }
        }
        assert!(
            backlogged > 2_000 && idle > 2_000 && mid_run > 20_000,
            "{backlogged} {idle} {mid_run}"
        );
    }

    /// The run's last op is the one a batch can be waiting for: its wait
    /// splits as after `n` tagged accepts, and a later waiter splits its
    /// own wait over the merged segment as over the `n` separate ones.
    #[test]
    fn tagged_run_blames_like_n_tagged_accepts() {
        use ossd_telemetry::BlameCat;
        let us = SimDuration::from_micros;
        for (n, service) in [(1, us(10)), (5, us(10)), (4, SimDuration::ZERO)] {
            let mut run = ElementQueue::new();
            run.enable_blame();
            // Host data of owner 7 occupies [0, 30); the run arrives at 5.
            let mut sink = BlameBreakdown::new();
            run.accept_run_tagged(
                SimTime::ZERO,
                us(30),
                1,
                7,
                BlameSource::HostData,
                &mut sink,
            );
            let mut single = run.clone();
            let arrival = SimTime::from_micros(5);
            let mut run_waits = BlameBreakdown::new();
            let (_, last_completion) =
                run.accept_run_tagged(arrival, service, n, 8, BlameSource::Gc, &mut run_waits);
            let mut last_waits = BlameBreakdown::new();
            for _ in 0..n {
                last_waits = BlameBreakdown::new();
                single.accept_run_tagged(arrival, service, 1, 8, BlameSource::Gc, &mut last_waits);
            }
            assert_eq!(run_waits, last_waits, "run of {n}");
            assert_eq!(run_waits.get(BlameCat::HostWait), 25_000);
            assert_eq!(
                run_waits.get(BlameCat::GcWait),
                (service * (n - 1)).as_nanos()
            );
            assert_eq!(last_completion, single.next_free());
            // A host op of owner 9 arriving inside the run.
            let late = SimTime::from_micros(42);
            let (mut a, mut b) = (BlameBreakdown::new(), BlameBreakdown::new());
            run.accept_run_tagged(late, us(1), 1, 9, BlameSource::HostData, &mut a);
            single.accept_run_tagged(late, us(1), 1, 9, BlameSource::HostData, &mut b);
            assert_eq!(a, b, "run of {n}");
            assert_eq!(
                a.total_nanos(),
                last_completion.saturating_since(late).as_nanos()
            );
        }
    }

    #[test]
    fn wait_and_idle_delegate_to_the_server() {
        let mut q = ElementQueue::new();
        assert!(q.is_idle_at(SimTime::ZERO));
        q.accept(SimTime::ZERO, SimDuration::from_micros(50));
        assert_eq!(q.next_free(), SimTime::from_micros(50));
        assert_eq!(
            q.wait_for(SimTime::from_micros(20)),
            SimDuration::from_micros(30)
        );
        assert!(!q.is_idle_at(SimTime::from_micros(20)));
        assert_eq!(q.server().served_ops(), 1);
    }
}
