//! The engine loop as it was before arrivals left the event heap: every
//! arrival is scheduled up front as a heap event, numbered before any op
//! event, so at one instant arrivals pop first and in index order.  Kept
//! as the reference [`run_observed`] is differentially tested against: a
//! scripted controller logs every callback and the ops of every poll, and
//! the two loops must produce the same log over seeded sessions.

use std::collections::VecDeque;

use super::*;
use crate::rng::SimRng;
use crate::time::SimDuration;

enum HeapEvent {
    Arrival(usize),
    OpStart(u64),
    OpComplete(u64),
}

/// The all-in-heap loop, over fresh state.
fn run_reference<C: Controller, O: EngineObserver>(
    controller: &mut C,
    arrivals: &[SimTime],
    observer: &mut O,
) -> Result<(), C::Error> {
    let mut events = EventQueue::new();
    let mut ops = Vec::new();
    for (index, &at) in arrivals.iter().enumerate() {
        events.push(at, HeapEvent::Arrival(index));
    }
    let mut now = SimTime::ZERO;
    while let Some(batch_time) = events.peek_time() {
        assert!(batch_time >= now, "event time regressed");
        if batch_time > now && controller.in_flight() == 0 {
            controller.on_idle(now, batch_time)?;
            observer.observe_idle(now, batch_time);
        }
        now = now.max(batch_time);
        while events.peek_time() == Some(batch_time) {
            let (_, event) = events.pop().expect("peeked event exists");
            match event {
                HeapEvent::Arrival(index) => {
                    controller.on_arrival(index, now)?;
                    observer.observe_arrival(index, now);
                }
                HeapEvent::OpStart(token) => {
                    controller.on_op_start(token, now)?;
                    observer.observe_op_start(token, now);
                }
                HeapEvent::OpComplete(token) => {
                    controller.on_op_complete(token, now)?;
                    observer.observe_op_complete(token, now);
                }
            }
        }
        loop {
            ops.clear();
            controller.poll_dispatch_into(now, &mut ops)?;
            if ops.is_empty() {
                break;
            }
            for op in &ops {
                events.push(op.start, HeapEvent::OpStart(op.token));
                events.push(op.complete, HeapEvent::OpComplete(op.token));
            }
        }
    }
    Ok(())
}

/// One delivered callback (or one poll and what it dispatched).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Entry {
    Arrive(usize, SimTime),
    Poll(SimTime, Vec<DispatchedOp>),
    Start(u64, SimTime),
    Complete(u64, SimTime),
    Idle(SimTime, SimTime),
}

/// What a session exercised, summed over sessions to show the seeded
/// sessions reach every case the differential is meant to cover.
#[derive(Debug, Default)]
struct Coverage {
    unsorted: u64,
    tied_arrivals: u64,
    at_arrival_instant: u64,
    zero_length: u64,
    idle_windows: u64,
    aborted: u64,
}

/// A controller whose every decision is a draw from its own generator, made
/// in callback order: two runs decide alike exactly as long as they are
/// handed the same callbacks, so equal logs mean equal event streams.
/// Optionally fails on its `fail_at`-th callback.
struct Scripted<'a> {
    rng: SimRng,
    arrivals: &'a [SimTime],
    /// Work waiting to be dispatched: arrival indices, and follow-up work
    /// (`usize::MAX`) that a completion queued.
    queue: VecDeque<usize>,
    /// Op events dispatched but not yet delivered.
    pending: usize,
    next_token: u64,
    callbacks: usize,
    fail_at: Option<usize>,
    log: Vec<Entry>,
}

impl<'a> Scripted<'a> {
    fn new(seed: u64, arrivals: &'a [SimTime], fail_at: Option<usize>) -> Self {
        Scripted {
            rng: SimRng::seed_from_u64(seed),
            arrivals,
            queue: VecDeque::new(),
            pending: 0,
            next_token: 0,
            callbacks: 0,
            fail_at,
            log: Vec::new(),
        }
    }

    /// Logs one callback; errs if it is the scripted failure.
    fn record(&mut self, entry: Entry) -> Result<(), usize> {
        self.log.push(entry);
        self.callbacks += 1;
        match self.fail_at {
            Some(at) if at == self.callbacks => Err(at),
            _ => Ok(()),
        }
    }

    /// An instant at or after `from`: `from` itself, a few nanoseconds
    /// later, or a later arrival instant.
    fn instant_from(&mut self, from: SimTime) -> SimTime {
        match self.rng.next_u64_below(4) {
            0 => from,
            1 => from + SimDuration::from_nanos(1 + self.rng.next_u64_below(40)),
            2 => from + SimDuration::from_nanos(200 + self.rng.next_u64_below(2_000)),
            _ => {
                let at = *self.rng.choose(self.arrivals).unwrap_or(&from);
                at.max(from)
            }
        }
    }
}

impl Controller for Scripted<'_> {
    type Error = usize;

    fn on_arrival(&mut self, index: usize, now: SimTime) -> Result<(), usize> {
        assert_eq!(self.arrivals[index], now, "arrival delivered off its time");
        self.queue.push_back(index);
        self.record(Entry::Arrive(index, now))
    }

    fn poll_dispatch(&mut self, _: SimTime) -> Result<Vec<DispatchedOp>, usize> {
        unreachable!("the engine calls the buffer form")
    }

    fn poll_dispatch_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<DispatchedOp>,
    ) -> Result<(), usize> {
        // Dispatch up to three queued items; hold back sometimes while
        // events are still pending (they will poll again).
        let hold = self.pending > 0 && self.rng.chance(0.25);
        let count = if hold {
            0
        } else {
            self.queue.len().min(1 + self.rng.next_usize_below(3))
        };
        for _ in 0..count {
            self.queue.pop_front();
            let start = self.instant_from(now);
            let complete = self.instant_from(start);
            out.push(DispatchedOp {
                token: self.next_token,
                start,
                complete,
            });
            self.next_token += 1;
            self.pending += 2;
        }
        self.record(Entry::Poll(now, out.clone()))
    }

    fn on_op_start(&mut self, token: u64, now: SimTime) -> Result<(), usize> {
        self.pending -= 1;
        self.record(Entry::Start(token, now))
    }

    fn on_op_complete(&mut self, token: u64, now: SimTime) -> Result<(), usize> {
        self.pending -= 1;
        if self.rng.chance(0.2) {
            self.queue.push_back(usize::MAX);
        }
        self.record(Entry::Complete(token, now))
    }

    fn on_idle(&mut self, now: SimTime, until: SimTime) -> Result<(), usize> {
        self.record(Entry::Idle(now, until))
    }

    fn in_flight(&self) -> usize {
        self.queue.len() + self.pending
    }
}

/// Mirrors what the engine hands its observer.
#[derive(Default)]
struct Recorder(Vec<Entry>);

impl EngineObserver for Recorder {
    fn observe_arrival(&mut self, index: usize, now: SimTime) {
        self.0.push(Entry::Arrive(index, now));
    }
    fn observe_op_start(&mut self, token: u64, now: SimTime) {
        self.0.push(Entry::Start(token, now));
    }
    fn observe_op_complete(&mut self, token: u64, now: SimTime) {
        self.0.push(Entry::Complete(token, now));
    }
    fn observe_idle(&mut self, now: SimTime, until: SimTime) {
        self.0.push(Entry::Idle(now, until));
    }
}

/// A session's arrival instants: sorted with gaps (some wide enough to
/// open idle windows), shuffled, or all at one instant.
fn arrivals_for(rng: &mut SimRng, coverage: &mut Coverage) -> Vec<SimTime> {
    let n = rng.next_usize_below(48);
    let mut at = SimTime::from_nanos(rng.next_u64_below(3) * 500);
    let gaps = [0, 0, 1, 7, 30, 300, 5_000];
    let mut arrivals: Vec<SimTime> = (0..n)
        .map(|_| {
            at += SimDuration::from_nanos(*rng.choose(&gaps).expect("gaps"));
            at
        })
        .collect();
    match rng.next_u64_below(4) {
        0 => shuffle(rng, &mut arrivals),
        1 => arrivals
            .iter_mut()
            .for_each(|a| *a = SimTime::from_nanos(100)),
        _ => {}
    }
    if !arrivals.is_sorted() {
        coverage.unsorted += 1;
    }
    if arrivals.windows(2).any(|w| w[0] == w[1]) {
        coverage.tied_arrivals += 1;
    }
    arrivals
}

/// Runs one scripted controller through both loops and asserts equal
/// results, controller logs and observer logs.
fn compare(arrivals: &[SimTime], seed: u64, fail_at: Option<usize>, coverage: &mut Coverage) {
    let mut cursor = Scripted::new(seed, arrivals, fail_at);
    let mut heap = Scripted::new(seed, arrivals, fail_at);
    let (mut cursor_seen, mut heap_seen) = (Recorder::default(), Recorder::default());
    let got = run_observed(&mut cursor, arrivals, &mut cursor_seen);
    let want = run_reference(&mut heap, arrivals, &mut heap_seen);
    assert_eq!(got, want, "seed {seed:#x}: results differ");
    assert_eq!(cursor.log, heap.log, "seed {seed:#x}: callbacks differ");
    assert_eq!(
        cursor_seen.0, heap_seen.0,
        "seed {seed:#x}: observers differ"
    );
    coverage.aborted += got.is_err() as u64;
    for entry in &heap.log {
        match entry {
            Entry::Idle(..) => coverage.idle_windows += 1,
            Entry::Poll(_, ops) => {
                for op in ops {
                    coverage.zero_length += (op.start == op.complete) as u64;
                    coverage.at_arrival_instant +=
                        arrivals.iter().any(|&a| a == op.start || a == op.complete) as u64;
                }
            }
            _ => {}
        }
    }
}

/// Runs `sessions` seeded sessions; about a third are preceded by a run
/// the controller aborts part-way, which both loops must abandon alike.
fn differential(sessions: std::ops::Range<u64>) -> Coverage {
    let mut coverage = Coverage::default();
    for session in sessions {
        let mut rng = SimRng::seed_from_u64(0xe1e7_0000 + session);
        let arrivals = arrivals_for(&mut rng, &mut coverage);
        let seed = rng.next_u64_below(u64::MAX);
        if rng.chance(0.35) {
            let fail_at = 1 + rng.next_usize_below(2 * arrivals.len() + 2);
            compare(&arrivals, seed, Some(fail_at), &mut coverage);
        }
        compare(&arrivals, seed, None, &mut coverage);
    }
    coverage
}

fn assert_covered(coverage: &Coverage) {
    let Coverage {
        unsorted,
        tied_arrivals,
        at_arrival_instant,
        zero_length,
        idle_windows,
        aborted,
    } = *coverage;
    assert!(
        [
            unsorted,
            tied_arrivals,
            at_arrival_instant,
            zero_length,
            idle_windows,
            aborted
        ]
        .iter()
        .all(|&count| count > 0),
        "a case went unexercised: {coverage:?}"
    );
}

#[test]
fn cursor_loop_matches_the_all_in_heap_loop() {
    assert_covered(&differential(0..200));
}

#[test]
#[ignore = "long form (~4,000 sessions); CI runs it in release with --ignored"]
fn cursor_loop_matches_the_all_in_heap_loop_long() {
    assert_covered(&differential(200..4_200));
}

/// Shuffles a slice in place (Fisher–Yates).
fn shuffle<T>(rng: &mut SimRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.next_usize_below(i + 1);
        items.swap(i, j);
    }
}
