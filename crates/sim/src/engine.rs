//! Event-driven controller engine.
//!
//! A storage controller (the SSD's flash controller in this workspace) is
//! a state machine that reacts to a small set of events: a host request
//! *arrives*, a previously dispatched operation *starts* on its resource,
//! an operation *completes*, or the device goes *idle*.  [`run`] is the generic dispatch loop that delivers those events
//! in deterministic time order — arrivals from a cursor over the arrival
//! slice, op starts and completions from an [`EventQueue`] — to anything
//! implementing [`Controller`].
//!
//! The engine is what lets requests from different hosts overlap on
//! different flash elements: instead of committing the controller to one
//! request from dispatch to completion, the loop returns to the controller
//! after every event, and the controller decides — subject to its queue
//! depth — whether more work can start *now*.  Idle events are delivered
//! whenever simulated time is about to jump across a gap with no work in
//! flight, which is precisely the window background garbage collection may
//! use (Nagel et al., *Time-efficient Garbage Collection in SSDs*).
//!
//! # Event protocol
//!
//! 1. The arrival slice must be sorted by time ([`run`] asserts it), and
//!    arrivals are delivered from a cursor over it, in index order; they
//!    never enter the event heap.  [`Controller::on_arrival`] fires when
//!    simulated time reaches an arrival; every arrival due at an instant is
//!    delivered before any op event at that instant.
//! 2. After all events at one timestamp have been delivered, the engine calls
//!    [`Controller::poll_dispatch_into`] with its own (cleared, reused)
//!    buffer, repeatedly until the controller leaves the buffer empty.  Each
//!    [`DispatchedOp`] left in it schedules an *op-start* and an
//!    *op-complete* event.  Controllers that only implement
//!    [`Controller::poll_dispatch`] are served by the default forwarding
//!    method, at the cost of one vector per poll.
//! 3. Before time advances across a gap while [`Controller::in_flight`] is
//!    zero, [`Controller::on_idle`] announces the idle window.
//!
//! Op events at equal timestamps are delivered in scheduling order (FIFO),
//! so repeated runs of the same configuration produce identical schedules.
//!
//! # Thread-safety (`Send`) audit
//!
//! The fleet layer (`ossd-fleet`) runs one engine — and the controller
//! driving it — per device, each on its own OS thread.  That works because
//! every piece of engine and controller state is owned, not shared:
//!
//! * The engine itself is [`run`]'s locals (the [`EventQueue`], the
//!   dispatch buffer and the arrival cursor), built per run and dropped
//!   with it; nothing escapes the call.
//! * Controllers ([`Controller`] implementations) own their queues, flash
//!   state, and scratch buffers.  The one trait object a device carries,
//!   `Box<dyn Ftl>`, declares `Send` as a supertrait, and the cleaning
//!   policy is a plain `Copy` value in the FTL's configuration, so a boxed
//!   device moves between threads wholesale.
//! * The telemetry seam was the one shared-ownership holdout: its recorder
//!   moved from `Rc<RefCell<…>>` to `Arc<Mutex<Recorder>>` so an attached
//!   handle no longer un-`Send`s its device (`ossd-telemetry` asserts the
//!   handle is `Send`).  Per-device recorders keep the mutex uncontended.
//! * Randomness is *sharded, never shared*: each device owns its xoshiro
//!   [`SimRng`](crate::SimRng), seeded via
//!   [`derive_stream_seed`](crate::derive_stream_seed) from the experiment
//!   seed and the device index.  Per-device streams are independent, and a
//!   device's draw sequence cannot depend on which thread runs it — which
//!   is what keeps multi-threaded fleet runs bit-identical to
//!   single-threaded ones.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A unit of work the controller has committed to, with its already-decided
/// start and completion times.
///
/// Controllers in this workspace time operations eagerly (busy-until-time
/// servers assign start/finish at dispatch), so the engine's job is to
/// deliver the *events* at those times in global order, interleaved with
/// arrivals — not to discover the times themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchedOp {
    /// Controller-chosen identifier, echoed back in
    /// [`Controller::on_op_start`] / [`Controller::on_op_complete`].
    pub token: u64,
    /// When the operation starts occupying its resource (the engine fires
    /// `on_op_start` then; controllers typically release a dispatch slot).
    pub start: SimTime,
    /// When the operation completes (`on_op_complete` fires then).
    pub complete: SimTime,
}

/// A device controller driven by the event engine.
///
/// Implementations queue arrivals, decide in [`poll_dispatch`] which queued
/// work may start at the current time (this is where scheduling policies and
/// queue-depth limits live), and account op lifecycle events.  See
/// `ossd-ssd`'s open-queue controller for the implementation in this
/// workspace.
///
/// [`poll_dispatch`]: Controller::poll_dispatch
pub trait Controller {
    /// Error type surfaced out of [`run`].
    type Error;

    /// Request `index` (into the arrival slice given to [`run`]) arrived at
    /// `now`.
    fn on_arrival(&mut self, index: usize, now: SimTime) -> Result<(), Self::Error>;

    /// Asks the controller to start new work at `now`.  Each returned op
    /// schedules its start/complete events.
    fn poll_dispatch(&mut self, now: SimTime) -> Result<Vec<DispatchedOp>, Self::Error>;

    /// Buffer form of [`poll_dispatch`](Controller::poll_dispatch), and the
    /// method the engine actually calls: after every delivered batch of
    /// events, repeatedly with `out` empty, until the controller leaves it
    /// empty.  The default hands over `poll_dispatch`'s vector; controllers
    /// on a hot path override it to push into the engine-owned buffer
    /// instead of allocating a vector per poll.
    fn poll_dispatch_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<DispatchedOp>,
    ) -> Result<(), Self::Error> {
        *out = self.poll_dispatch(now)?;
        Ok(())
    }

    /// A dispatched op began occupying its resource.
    fn on_op_start(&mut self, token: u64, now: SimTime) -> Result<(), Self::Error> {
        let _ = (token, now);
        Ok(())
    }

    /// A dispatched op completed.
    fn on_op_complete(&mut self, token: u64, now: SimTime) -> Result<(), Self::Error> {
        let _ = (token, now);
        Ok(())
    }

    /// Simulated time is about to jump from `now` to `until` with nothing in
    /// flight: the device is idle for the whole window.  Controllers may use
    /// it for background work (idle-window garbage collection).
    fn on_idle(&mut self, now: SimTime, until: SimTime) -> Result<(), Self::Error> {
        let _ = (now, until);
        Ok(())
    }

    /// Number of dispatched ops with pending events plus queued requests.
    /// The engine delivers idle windows only when this is zero.
    fn in_flight(&self) -> usize;
}

/// What the event heap holds: arrivals come from a cursor instead.
enum Event {
    OpStart(u64),
    OpComplete(u64),
}

/// Runs the dispatch loop to completion: delivers one arrival per entry of
/// `arrivals` (index order among ties) and every op event until none
/// remain.  Returns the first controller error, abandoning the remaining
/// events.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted by time.
pub fn run<C: Controller>(controller: &mut C, arrivals: &[SimTime]) -> Result<(), C::Error> {
    assert!(arrivals.is_sorted(), "arrivals must be sorted by time");
    let mut events = EventQueue::new();
    let mut ops = Vec::new();
    // Index of the next arrival to deliver.
    let mut next = 0;
    let mut now = SimTime::ZERO;
    loop {
        let next_arrival = arrivals.get(next).copied();
        let batch_time = match (next_arrival, events.peek_time()) {
            (Some(arrival), Some(event)) => arrival.min(event),
            (Some(time), None) | (None, Some(time)) => time,
            (None, None) => break,
        };
        // Simulated time must never run backwards: everything scheduled
        // during a poll at `now` carries a timestamp >= `now`.  A violation
        // would silently corrupt traces and stats, so fail loudly in debug.
        debug_assert!(
            batch_time >= now,
            "event time regressed: delivering {:?} after reaching {:?}",
            batch_time,
            now
        );
        if batch_time > now && controller.in_flight() == 0 {
            controller.on_idle(now, batch_time)?;
        }
        now = now.max(batch_time);
        // Deliver every event at this timestamp before asking for new work,
        // so schedulers see all simultaneous arrivals when they pick.
        // Arrivals due now go before op events due now (protocol step 1).
        while arrivals.get(next) == Some(&batch_time) {
            controller.on_arrival(next, now)?;
            next += 1;
        }
        while events.peek_time() == Some(batch_time) {
            let (_, event) = events.pop().expect("peeked event exists");
            match event {
                Event::OpStart(token) => controller.on_op_start(token, now)?,
                Event::OpComplete(token) => controller.on_op_complete(token, now)?,
            }
        }
        loop {
            ops.clear();
            controller.poll_dispatch_into(now, &mut ops)?;
            if ops.is_empty() {
                break;
            }
            for op in ops.iter() {
                debug_assert!(
                    op.start >= now && op.complete >= now,
                    "dispatched op scheduled in the past: now {:?}, start {:?}, complete {:?}",
                    now,
                    op.start,
                    op.complete
                );
                events.push(op.start, Event::OpStart(op.token));
                events.push(op.complete, Event::OpComplete(op.token));
            }
        }
    }
    Ok(())
}

/// The loop before arrivals left the event heap, and the differential test
/// of [`run`] against it.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::time::SimDuration;

    /// A controller with one single-op server and a dispatch window of
    /// `depth` requests issued-but-not-started.
    struct TestController {
        arrivals: Vec<SimTime>,
        queue: Vec<usize>,
        server: Server,
        depth: usize,
        slots: usize,
        pending_events: usize,
        service: SimDuration,
        finishes: Vec<Option<SimTime>>,
        idle_windows: Vec<(SimTime, SimTime)>,
        log: Vec<String>,
    }

    impl TestController {
        fn new(arrivals: Vec<SimTime>, depth: usize, service: SimDuration) -> Self {
            let n = arrivals.len();
            TestController {
                arrivals,
                queue: Vec::new(),
                server: Server::new(),
                depth,
                slots: 0,
                pending_events: 0,
                service,
                finishes: vec![None; n],
                idle_windows: Vec::new(),
                log: Vec::new(),
            }
        }
    }

    impl Controller for TestController {
        type Error = ();

        fn on_arrival(&mut self, index: usize, now: SimTime) -> Result<(), ()> {
            assert_eq!(self.arrivals[index], now);
            self.log.push(format!("arrive {index}"));
            self.queue.push(index);
            Ok(())
        }

        fn poll_dispatch(&mut self, now: SimTime) -> Result<Vec<DispatchedOp>, ()> {
            let mut out = Vec::new();
            while self.slots < self.depth && !self.queue.is_empty() {
                let index = self.queue.remove(0);
                let svc = self.server.serve(now, self.service);
                self.finishes[index] = Some(svc.completion);
                self.slots += 1;
                self.pending_events += 2;
                self.log.push(format!("issue {index}"));
                out.push(DispatchedOp {
                    token: index as u64,
                    start: svc.start,
                    complete: svc.completion,
                });
            }
            Ok(out)
        }

        fn on_op_start(&mut self, token: u64, _now: SimTime) -> Result<(), ()> {
            self.log.push(format!("start {token}"));
            self.slots -= 1;
            self.pending_events -= 1;
            Ok(())
        }

        fn on_op_complete(&mut self, token: u64, now: SimTime) -> Result<(), ()> {
            self.log.push(format!("complete {token}"));
            assert_eq!(self.finishes[token as usize], Some(now));
            self.pending_events -= 1;
            Ok(())
        }

        fn on_idle(&mut self, now: SimTime, until: SimTime) -> Result<(), ()> {
            self.idle_windows.push((now, until));
            Ok(())
        }

        fn in_flight(&self) -> usize {
            self.pending_events + self.queue.len()
        }
    }

    #[test]
    fn delivers_events_in_time_order_and_completes_all_requests() {
        let arrivals = vec![
            SimTime::from_micros(5),
            SimTime::from_micros(5),
            SimTime::from_micros(10),
        ];
        let mut c = TestController::new(arrivals.clone(), 1, SimDuration::from_micros(100));
        run(&mut c, &arrivals).unwrap();
        assert!(c.finishes.iter().all(Option::is_some));
        // Requests 0 and 1 (t=5 µs) are served before request 2 (t=10 µs);
        // the single server serializes them back to back.
        assert_eq!(c.finishes[0], Some(SimTime::from_micros(105)));
        assert_eq!(c.finishes[1], Some(SimTime::from_micros(205)));
        assert_eq!(c.finishes[2], Some(SimTime::from_micros(305)));
    }

    #[test]
    #[should_panic(expected = "arrivals must be sorted by time")]
    fn unsorted_arrivals_are_rejected() {
        let arrivals = vec![SimTime::from_micros(10), SimTime::from_micros(5)];
        let mut c = TestController::new(arrivals.clone(), 1, SimDuration::from_micros(100));
        let _ = run(&mut c, &arrivals);
    }

    #[test]
    fn simultaneous_arrivals_are_all_visible_before_dispatch() {
        let arrivals = vec![SimTime::from_micros(5); 3];
        let mut c = TestController::new(arrivals.clone(), 4, SimDuration::from_micros(10));
        run(&mut c, &arrivals).unwrap();
        // All three arrivals are delivered before the first issue.
        let first_issue = c.log.iter().position(|l| l.starts_with("issue")).unwrap();
        let arrive_count = c.log[..first_issue]
            .iter()
            .filter(|l| l.starts_with("arrive"))
            .count();
        assert_eq!(arrive_count, 3);
    }

    #[test]
    fn idle_windows_cover_gaps_with_nothing_in_flight() {
        let arrivals = vec![SimTime::from_micros(50), SimTime::from_micros(5000)];
        let mut c = TestController::new(arrivals.clone(), 1, SimDuration::from_micros(100));
        run(&mut c, &arrivals).unwrap();
        // One window before the first arrival, one across the big gap
        // (starting when request 0's completion event was delivered).
        assert_eq!(c.idle_windows.len(), 2);
        assert_eq!(c.idle_windows[0], (SimTime::ZERO, SimTime::from_micros(50)));
        assert_eq!(
            c.idle_windows[1],
            (SimTime::from_micros(150), SimTime::from_micros(5000))
        );
    }

    #[test]
    fn dispatch_window_limits_concurrent_issues() {
        // Four same-time arrivals, depth 2: the first two issue immediately;
        // the rest wait for op-start events to free slots.
        let arrivals = vec![SimTime::ZERO; 4];
        let mut c = TestController::new(arrivals.clone(), 2, SimDuration::from_micros(10));
        run(&mut c, &arrivals).unwrap();
        let issues: Vec<usize> = c
            .log
            .iter()
            .enumerate()
            .filter(|(_, l)| l.starts_with("issue"))
            .map(|(i, _)| i)
            .collect();
        let first_start = c.log.iter().position(|l| l.starts_with("start")).unwrap();
        assert!(issues[1] < first_start, "two issues before any op starts");
        assert!(issues[2] > first_start, "third issue waits for a free slot");
        assert!(c.finishes.iter().all(Option::is_some));
    }

    #[test]
    fn empty_arrivals_are_a_no_op() {
        let mut c = TestController::new(Vec::new(), 1, SimDuration::from_micros(1));
        run(&mut c, &[]).unwrap();
        assert!(c.log.is_empty());
        assert!(c.idle_windows.is_empty());
    }

    #[test]
    fn controller_errors_abort_the_run() {
        struct Failing;
        impl Controller for Failing {
            type Error = &'static str;
            fn on_arrival(&mut self, _: usize, _: SimTime) -> Result<(), &'static str> {
                Err("boom")
            }
            fn poll_dispatch(&mut self, _: SimTime) -> Result<Vec<DispatchedOp>, &'static str> {
                Ok(Vec::new())
            }
            fn in_flight(&self) -> usize {
                0
            }
        }
        assert_eq!(run(&mut Failing, &[SimTime::ZERO]), Err("boom"));
    }
}
