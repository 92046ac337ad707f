//! The SSD's event-engine command controller.
//!
//! [`SsdController`] implements [`ossd_sim::Controller`] over an [`Ssd`] and
//! one *session* of queue-pair commands: arrivals are queued, the configured
//! [`SchedulerKind`] picks which eligible command's head op is issued next
//! into the per-element dispatch queues, ordering fences (`Flush`/`Barrier`)
//! constrain per-initiator dispatch, and idle windows are donated to
//! background cleaning.  Issuing a command and offering an idle window are
//! two device steps, `Ssd::dispatch` and `Ssd::idle`, which every
//! request-processing mode shares:
//!
//! * `Ssd::submit` (closed) takes them directly: a lone command has nothing
//!   to be scheduled against, so it is offered the idle window before its
//!   arrival and dispatched at that arrival, exactly as a one-command FCFS
//!   session would be, with no engine or controller;
//! * `Ssd::simulate_open` runs the engine over a whole open-arrival trace;
//! * `HostInterface::serve` runs it over the round-robin-arbitrated streams
//!   of N initiator queue pairs.
//!
//! # Queue depth
//!
//! The controller holds a *dispatch window* of up to
//! [`SsdConfig::queue_depth`](crate::SsdConfig::queue_depth) commands that
//! have been issued but whose first flash op has not yet started on its
//! target element.  At depth 1 this reproduces the request-at-a-time
//! controller of the paper's devices: each dispatch decision waits until the
//! previous request reaches its element, which is exactly FCFS's
//! head-of-line blocking and what SWTF's element-wait knowledge shortens
//! (§3.2).  At larger depths, commands targeting different elements start
//! concurrently and their flash ops overlap across elements and gang buses
//! until a shared resource saturates — the effect the `parallelism_sweep`
//! and `multi_host` experiments measure.
//!
//! # Fences
//!
//! A `Barrier` is not dispatched until every earlier command from its
//! initiator (in this session) has finished, and no later command from that
//! initiator is dispatched before the barrier completes; `Flush` orders the
//! same way and additionally drains device-side write buffers.  Commands
//! from *other* initiators are unaffected — fences are a per-initiator
//! ordering primitive, not a global quiesce.
//!
//! # Ready classes
//!
//! Queued commands are not kept in one list.  A command that may be offered
//! to the scheduler sits in the *ready list* of its class: class 0 holds
//! commands whose head op needs no flash element (fences, frees, unwritten
//! reads, out-of-range hints), class `e + 1` those predicted to occupy
//! element `e`.  Each list is a FIFO sorted by `(arrival, command index)` —
//! the order the engine delivers arrivals in, which is the order the
//! reference picker [`SchedulerKind::pick`] breaks ties by.  So an arrival
//! is a push to the back; only a command a fence releases can belong
//! further forward (later arrivals of other initiators went ahead of it),
//! and only that push is inserted at its sorted position.  A dispatch
//! decision compares the *heads* only: FCFS takes the smallest
//! `(arrival, index)`, SWTF the smallest `(element wait, arrival, index)`.
//! That is exact, not approximate: every queued command has already arrived
//! (`arrival <= now`), so SWTF's wait — how long the element stays busy
//! past `max(now, arrival)` — is one number per class, and a class's head
//! beats everything behind it.  One decision costs O(elements), not
//! O(queued).
//!
//! # The fence gate
//!
//! Ordering is per-initiator state, not per-command state.  An initiator's
//! commands arrive in submission order (`HostQueue` enforces it; the
//! fence-free `simulate_open` traces need not), and a command that a fence holds
//! back also holds back everything the initiator submitted after it, so the
//! fence-blocked commands of an initiator are a FIFO of which only a
//! *prefix* can ever become eligible.  The gate keeps that FIFO, a count of
//! finished commands (a fence with sequence number `s` is eligible exactly
//! when `s` commands have finished — nothing after it can overtake it),
//! whether a fence is currently eligible-but-unfinished (at most one can
//! be), and the finish time of the last fence (where a data command's wait
//! stops being `Fence` blame and starts being `SqWait`).  Completions release
//! the FIFO from the front; nothing is rescanned.
//!
//! # Who owns a session's buffers
//!
//! The session does.  The controller's ready lists, gates and completions
//! and the engine's event heap and dispatch buffer are built when a session
//! starts and dropped when it ends, so no session-sized buffer outlives its
//! session (a fleet member parked between bursts holds nothing).

use std::collections::VecDeque;

use ossd_block::{BlockOpKind, BlockRequest, Completion, Priority};
use ossd_sim::engine::{run, run_observed, Controller, DispatchedOp};
use ossd_sim::{SimDuration, SimTime};
use ossd_telemetry::{EngineTrace, EventKind, ServiceClass};

use crate::device::Ssd;
use crate::error::SsdError;
use crate::queue::ElementQueue;
use crate::sched::SchedulerKind;

/// What a session command asks the device to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CommandPayload {
    /// A block data operation (read, write or free).
    Data(BlockRequest),
    /// Drain device-side write buffers; orders like a barrier.
    Flush,
    /// Ordering fence with no device work.
    Barrier,
}

impl CommandPayload {
    fn is_fence(&self) -> bool {
        matches!(self, CommandPayload::Flush | CommandPayload::Barrier)
    }

    /// The command's span kind, and its service class (a barrier has none:
    /// it is not in the per-class blame).
    pub(crate) fn trace_kind(&self) -> (EventKind, Option<ServiceClass>) {
        match self {
            CommandPayload::Data(request) => match request.kind {
                BlockOpKind::Read => (EventKind::CmdRead, Some(ServiceClass::Read)),
                BlockOpKind::Write => (EventKind::CmdWrite, Some(ServiceClass::Write)),
                BlockOpKind::Free => (EventKind::CmdFree, Some(ServiceClass::Free)),
            },
            CommandPayload::Flush => (EventKind::CmdFlush, Some(ServiceClass::Flush)),
            CommandPayload::Barrier => (EventKind::CmdBarrier, None),
        }
    }
}

/// One command of a controller session, tagged with the initiator queue it
/// came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SessionCommand {
    /// Index of the owning initiator queue (0 for the single-queue modes).
    pub initiator: usize,
    /// Position in the initiator's submission stream (fence ordering).
    pub seq: u64,
    /// Correlation id echoed in the completion.
    pub id: u64,
    /// When the command arrives at the controller.
    pub arrival: SimTime,
    /// Host-assigned priority.
    pub priority: Priority,
    /// The operation.
    pub payload: CommandPayload,
}

impl SessionCommand {
    /// A single-initiator data command wrapping a block request.
    pub(crate) fn from_request(seq: u64, request: &BlockRequest) -> Self {
        SessionCommand {
            initiator: 0,
            seq,
            id: request.id,
            arrival: request.arrival,
            priority: request.priority,
            payload: CommandPayload::Data(*request),
        }
    }
}

/// One initiator's fence gate (see the module docs).
#[derive(Default)]
struct InitiatorGate {
    /// Arrived commands held back by a fence, in submission order, each with
    /// the ready class fixed at its admission.
    blocked: VecDeque<(usize, usize)>,
    /// Commands of this initiator that have finished.
    finished: u64,
    /// Whether a fence of this initiator is eligible (ready or dispatched)
    /// and has not finished.
    fence_open: bool,
    /// Finish time of the last finished fence.  When a data command
    /// dispatches, its nearest earlier fence is the last one that finished
    /// (a later fence would have waited for the command), so this is where
    /// the command's `Fence` blame ends.
    last_fence_finish: SimTime,
    /// Running maximum finish time over finished commands.  When a fence
    /// dispatches, every earlier command has finished, so this is exactly
    /// the instant the fence stopped being fence-blocked.
    drain: SimTime,
}

impl InitiatorGate {
    /// Whether `command` — the oldest command of this initiator not yet
    /// ready — may be offered to the scheduler now; an admitted fence
    /// closes the gate behind it until it finishes.
    fn admit(&mut self, command: &SessionCommand) -> bool {
        let fence = command.payload.is_fence();
        let admitted = if fence {
            self.finished == command.seq
        } else {
            !self.fence_open
        };
        self.fence_open |= admitted && fence;
        admitted
    }
}

/// A ready list: arrived, fence-eligible commands of one class as
/// `(arrival, command index)`, sorted, smallest first.
type ReadyList = VecDeque<(SimTime, usize)>;

/// Queues a command a fence released at its sorted position in its ready
/// list: commands of other initiators that arrived after it may already be
/// there.
fn release(list: &mut ReadyList, entry: (SimTime, usize)) {
    if list.back().is_none_or(|&last| last < entry) {
        list.push_back(entry);
    } else {
        #[cfg(test)]
        oracle::SORTED_INSERTS.with(|n| n.set(n.get() + 1));
        let at = list.partition_point(|&queued| queued < entry);
        list.insert(at, entry);
    }
}

impl Ssd {
    /// Runs one session of queue-pair commands through the event engine
    /// under the given scheduler, returning one completion per command in
    /// the input order.
    ///
    /// Commands are held in a controller queue after they arrive; whenever a
    /// dispatch slot frees (see [`SsdConfig::queue_depth`]) the scheduler
    /// picks which eligible command's head op to issue next (FCFS the
    /// oldest, SWTF the one whose target element is free soonest, §3.2).
    /// Fences (`Flush`/`Barrier`) order per initiator.  While high-priority
    /// commands are outstanding the FTL's priority-aware cleaning postpones
    /// garbage collection (§3.6), and idle windows are delivered to the
    /// background cleaner.
    pub(crate) fn serve_session(
        &mut self,
        commands: &[SessionCommand],
        scheduler: SchedulerKind,
    ) -> Result<Vec<Completion>, SsdError> {
        let arrivals: Vec<SimTime> = commands.iter().map(|c| c.arrival).collect();
        let trace = self
            .telemetry()
            .is_enabled()
            .then(|| EngineTrace::new(self.telemetry().clone()));
        let mut controller = SsdController::new(self, commands, scheduler);
        match trace {
            Some(mut trace) => run_observed(&mut controller, &arrivals, &mut trace)?,
            None => run(&mut controller, &arrivals)?,
        }
        Ok(controller
            .completions
            .into_iter()
            .map(|c| c.expect("every command was dispatched"))
            .collect())
    }
}

/// Engine controller over an [`Ssd`] for one session of commands.
struct SsdController<'a> {
    ssd: &'a mut Ssd,
    commands: &'a [SessionCommand],
    scheduler: SchedulerKind,
    queue_depth: u32,
    /// Ready lists by class (0 = no element, e + 1 = element e).
    ready: Vec<ReadyList>,
    /// Fence gates by initiator.
    gates: Vec<InitiatorGate>,
    /// One completion per command, stored at dispatch.
    completions: Vec<Option<Completion>>,
    /// Commands that arrived and have not been dispatched (ready or
    /// fence-blocked).
    queued: usize,
    /// How many of those are `Priority::High`.
    queued_high: usize,
    /// Commands issued whose first op has not yet started (dispatch window).
    slots_in_use: u32,
    /// Commands issued but not yet finished.  Idle windows are delivered
    /// only when this and the queue are empty: a dispatch slot held past its
    /// command's finish (a stale element hint) does not keep the flash
    /// busy, so the gap is donated to background cleaning.
    unfinished: usize,
    #[cfg(test)]
    oracle: oracle::Oracle,
}

impl<'a> SsdController<'a> {
    fn new(ssd: &'a mut Ssd, commands: &'a [SessionCommand], scheduler: SchedulerKind) -> Self {
        let initiators = commands.iter().map(|c| c.initiator + 1).max().unwrap_or(0);
        SsdController {
            queue_depth: ssd.config().queue_depth,
            ready: vec![VecDeque::new(); ssd.element_queues().len() + 1],
            gates: (0..initiators).map(|_| InitiatorGate::default()).collect(),
            completions: vec![None; commands.len()],
            ssd,
            commands,
            scheduler,
            queued: 0,
            queued_high: 0,
            slots_in_use: 0,
            unfinished: 0,
            #[cfg(test)]
            oracle: oracle::Oracle::new(commands),
        }
    }

    /// §3.6: cleaning is postponed while high-priority commands are
    /// outstanding at the controller — the one being dispatched or any
    /// still queued.  This holds uniformly for every driver of the
    /// transport: the closed one, whose lone command is all that is
    /// outstanding, passes that command's own priority (the pre-redesign
    /// `submit` never reported pressure; the open driver and the object
    /// store always did — pinned by
    /// `closed_driver_reports_priority_pressure_uniformly`).
    fn priority_pending(&self, command: &SessionCommand) -> bool {
        command.priority == Priority::High || self.queued_high > 0
    }

    /// The instant command `index` became *eligible* — a data command when
    /// its nearest earlier fence finished, a fence when its initiator
    /// drained — where its blame splits from `Fence` into `SqWait`.
    fn eligible_instant(&self, index: usize) -> SimTime {
        let command = &self.commands[index];
        let gate = &self.gates[command.initiator];
        let eligible = command.arrival.max(match &command.payload {
            CommandPayload::Data(_) => gate.last_fence_finish,
            CommandPayload::Flush | CommandPayload::Barrier => gate.drain,
        });
        #[cfg(test)]
        self.oracle
            .check_eligible_instant(self.commands, &self.completions, index, eligible);
        eligible
    }

    /// The ready-list head the scheduler dispatches next at `now`, as
    /// `(class, command index)`, or `None` when nothing is ready (the queue
    /// is empty, or all of it is fence-blocked and the engine will poll
    /// again when events fire).
    fn pick(&self, now: SimTime) -> Option<(usize, usize)> {
        let queues = self.ssd.element_queues();
        let mut best: Option<((u64, SimTime, usize), usize)> = None;
        for (class, list) in self.ready.iter().enumerate() {
            let Some(&(arrival, index)) = list.front() else {
                continue;
            };
            let wait = match self.scheduler {
                SchedulerKind::Fcfs => 0,
                SchedulerKind::Swtf => element_wait(queues, class, now).as_nanos(),
            };
            let key = (wait, arrival, index);
            if best.is_none_or(|(best_key, _)| key < best_key) {
                best = Some((key, class));
            }
        }
        best.map(|((_, _, index), class)| (class, index))
    }
}

/// The ready class of an element hint.
fn class_of(element: Option<usize>, elements: usize) -> usize {
    match element {
        Some(e) if e < elements => e + 1,
        _ => 0,
    }
}

/// How long a head op of `class` arriving at `at` waits for its element.
fn element_wait(queues: &[ElementQueue], class: usize, at: SimTime) -> SimDuration {
    match class.checked_sub(1) {
        Some(element) => queues[element].wait_for(at),
        None => SimDuration::ZERO,
    }
}

impl Controller for SsdController<'_> {
    type Error = SsdError;

    fn on_arrival(&mut self, index: usize, _now: SimTime) -> Result<(), SsdError> {
        let command = &self.commands[index];
        // The element is fixed at admission, like the mapping lookup a real
        // controller performs when the command is accepted (see
        // [`Ssd::element_hint`]) — also for a command a fence holds back.
        let element = match &command.payload {
            CommandPayload::Data(request) => self.ssd.element_hint(request),
            CommandPayload::Flush | CommandPayload::Barrier => None,
        };
        #[cfg(test)]
        self.oracle.on_arrival(index, element);
        let class = class_of(element, self.ssd.element_queues().len());
        self.queued += 1;
        if command.priority == Priority::High {
            self.queued_high += 1;
        }
        let gate = &mut self.gates[command.initiator];
        if gate.blocked.is_empty() && gate.admit(command) {
            // Arrivals come in `(arrival, index)` order, after every release
            // at their instant: the back is the sorted position.
            let list = &mut self.ready[class];
            debug_assert!(list.back() < Some(&(command.arrival, index)));
            list.push_back((command.arrival, index));
        } else {
            debug_assert!(
                gate.blocked
                    .back()
                    .is_none_or(|&(earlier, _)| self.commands[earlier].seq < command.seq),
                "initiator {} delivered out of submission order",
                command.initiator
            );
            gate.blocked.push_back((index, class));
        }
        Ok(())
    }

    fn poll_dispatch(&mut self, now: SimTime) -> Result<Vec<DispatchedOp>, SsdError> {
        let mut out = Vec::new();
        self.poll_dispatch_into(now, &mut out)?;
        Ok(out)
    }

    fn poll_dispatch_into(
        &mut self,
        now: SimTime,
        out: &mut Vec<DispatchedOp>,
    ) -> Result<(), SsdError> {
        // Most polls find nothing queued (the engine polls after every event
        // batch, and again after every dispatch): skip the class scan then.
        while self.slots_in_use < self.queue_depth && self.queued > 0 {
            let picked = self.pick(now);
            #[cfg(test)]
            self.oracle.check_pick(
                self.scheduler,
                self.commands,
                self.ssd.element_queues(),
                now,
                picked.map(|(_, index)| index),
            );
            let Some((class, index)) = picked else {
                break;
            };
            self.ready[class].pop_front();
            let command = &self.commands[index];
            self.queued -= 1;
            if command.priority == Priority::High {
                self.queued_high -= 1;
            }
            let dispatch = now.max(command.arrival);
            let priority_pending = self.priority_pending(command);
            #[cfg(test)]
            self.oracle
                .check_priority_pending(self.commands, index, priority_pending);
            // The dispatch slot is held until the command's first op starts
            // on its target element: at queue depth 1 this is what gives
            // FCFS its head-of-line blocking and SWTF its advantage.  Class 0
            // (fences, element-less commands) waits for nothing, so its slot
            // frees when its service starts.
            let head_of_line_wait = element_wait(self.ssd.element_queues(), class, dispatch);
            let eligible = self.eligible_instant(index);
            let completion = self
                .ssd
                .dispatch(command, dispatch, eligible, priority_pending)?;
            self.completions[index] = Some(completion);
            self.slots_in_use += 1;
            self.unfinished += 1;
            out.push(DispatchedOp {
                token: index as u64,
                start: (dispatch + head_of_line_wait).max(completion.start),
                complete: completion.finish,
            });
        }
        Ok(())
    }

    fn on_op_start(&mut self, _token: u64, _now: SimTime) -> Result<(), SsdError> {
        self.slots_in_use -= 1;
        Ok(())
    }

    fn on_op_complete(&mut self, token: u64, _now: SimTime) -> Result<(), SsdError> {
        self.unfinished -= 1;
        let index = token as usize;
        #[cfg(test)]
        self.oracle.on_complete(index);
        let done = &self.commands[index];
        let finish = self.completions[index]
            .as_ref()
            .expect("completion stored at dispatch")
            .finish;
        let gate = &mut self.gates[done.initiator];
        gate.finished += 1;
        gate.drain = gate.drain.max(finish);
        if done.payload.is_fence() {
            gate.fence_open = false;
            gate.last_fence_finish = finish;
        }
        // Release the newly eligible prefix of the fence-blocked FIFO.
        while let Some(&(index, class)) = gate.blocked.front() {
            let command = &self.commands[index];
            if !gate.admit(command) {
                break;
            }
            gate.blocked.pop_front();
            release(&mut self.ready[class], (command.arrival, index));
        }
        Ok(())
    }

    fn on_idle(&mut self, now: SimTime, until: SimTime) -> Result<(), SsdError> {
        self.ssd.idle(now, until)
    }

    fn in_flight(&self) -> usize {
        self.unfinished + self.queued
    }
}

/// The dispatch decisions of the ready lists, checked against the reference
/// picker on every decision of every in-crate test.
#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use ossd_block::{
        BlockDevice, BlockRequest, ByteRange, HostCommand, HostInterface, HostQueue, WriteHint,
    };
    use ossd_flash::FlashGeometry;
    use ossd_ftl::FtlConfig;
    use ossd_sim::SimRng;

    use super::*;
    use crate::SsdConfig;

    const PAGE: u64 = 4096;

    /// Four elements on two gangs, free notifications honoured, the lower
    /// half of the space written (so reads above it are element-less).
    fn device(scheduler: SchedulerKind, depth: u32) -> (Ssd, u64, SimTime) {
        let config = SsdConfig {
            geometry: FlashGeometry {
                packages: 4,
                blocks_per_plane: 32,
                pages_per_block: 16,
                ..FlashGeometry::tiny()
            },
            gangs: 2,
            ftl: FtlConfig::default()
                .with_watermarks(0.3, 0.1)
                .with_honor_free(true),
            ..SsdConfig::tiny_page_mapped()
        }
        .with_scheduler(scheduler)
        .with_queue_depth(depth);
        let mut ssd = Ssd::new(config).unwrap();
        // The oracle also checks each blame record's fence split point.
        ssd.enable_attribution();
        let pages = ssd.info().capacity_bytes / PAGE;
        let mut now = SimTime::ZERO;
        for lpn in 0..pages / 2 {
            now = ssd
                .submit(&BlockRequest::write(lpn, lpn * PAGE, PAGE, now))
                .unwrap()
                .finish;
        }
        (ssd, pages, now)
    }

    /// Submits `count` random commands spread over the queues: writes, reads
    /// (a third of them of unwritten pages), frees, barriers and flushes,
    /// one in ten at high priority; ids are per-queue sequence numbers.
    /// `gaps` are the inter-arrival choices (all zero for a burst).  A
    /// `fence_share` above zero makes that share of the commands barriers,
    /// on top of the mix's own fences.
    fn submit_session(
        rng: &mut SimRng,
        queues: &mut [HostQueue],
        pages: u64,
        start: SimTime,
        gaps: &[u64],
        count: usize,
        fence_share: f64,
    ) {
        let mut at = start;
        let mut next_id = vec![0u64; queues.len()];
        for _ in 0..count {
            at += SimDuration::from_micros(*rng.choose(gaps).unwrap());
            let range = |lpn: u64| ByteRange::new(lpn * PAGE, PAGE);
            let written = rng.next_u64_below(pages / 2);
            let draw = if fence_share > 0.0 && rng.chance(fence_share) {
                85 // a barrier
            } else {
                rng.next_u64_below(100)
            };
            let command = match draw {
                0..=44 => HostCommand::Write {
                    range: range(written),
                    hint: WriteHint::NONE,
                },
                45..=64 => HostCommand::Read {
                    range: range(written),
                },
                65..=74 => HostCommand::Read {
                    range: range(pages / 2 + rng.next_u64_below(pages / 2)),
                },
                75..=84 => HostCommand::Free {
                    range: range(written),
                },
                85..=92 => HostCommand::Barrier,
                _ => HostCommand::Flush,
            };
            let priority = if rng.chance(0.1) {
                Priority::High
            } else {
                Priority::Normal
            };
            let initiator = rng.next_usize_below(queues.len());
            queues[initiator].submit_with_priority(next_id[initiator], command, at, priority);
            next_id[initiator] += 1;
        }
    }

    /// Serves the queues (every dispatch decision passes through the
    /// oracle) and checks the posted completions directly: each queue's
    /// come in the order a stable sort by finish over submission order
    /// gives; a fence starts after everything its initiator submitted
    /// before it finished, and nothing submitted after it starts before it
    /// finishes.  Returns the latest finish.
    fn serve_and_check(ssd: &mut Ssd, queues: &mut [HostQueue]) -> SimTime {
        let fences: Vec<Vec<bool>> = queues
            .iter()
            .map(|q| {
                let arbitrated = ossd_block::arbitrate_round_robin(std::slice::from_ref(q));
                arbitrated
                    .iter()
                    .map(|c| c.submission.command.is_fence())
                    .collect()
            })
            .collect();
        let decisions = oracle::DECISIONS.get();
        ssd.serve(queues).unwrap();
        let total: usize = fences.iter().map(Vec::len).sum();
        assert!(oracle::DECISIONS.get() - decisions >= total as u64);
        let mut latest = SimTime::ZERO;
        for (queue, is_fence) in queues.iter_mut().zip(&fences) {
            let posted = queue.drain_completions();
            assert_eq!(posted.len(), is_fence.len());
            let mut completions = posted.clone();
            completions.sort_by_key(|c| c.request_id);
            let mut by_finish = completions.clone();
            by_finish.sort_by_key(|c| c.finish);
            assert_eq!(posted, by_finish, "posted out of (finish, command) order");
            let mut drained = SimTime::ZERO;
            let mut fence_finish = SimTime::ZERO;
            for (completion, &fence) in completions.iter().zip(is_fence) {
                assert!(completion.start >= fence_finish, "overtook a fence");
                if fence {
                    assert!(completion.start >= drained, "fence overtook a command");
                    fence_finish = completion.finish;
                }
                drained = drained.max(completion.finish);
            }
            latest = latest.max(drained);
        }
        latest
    }

    #[test]
    fn ready_lists_match_the_reference_picker_on_every_decision() {
        let sorted_inserts = oracle::SORTED_INSERTS.get();
        for scheduler in [SchedulerKind::Fcfs, SchedulerKind::Swtf] {
            for depth in [1, 4, 32] {
                let (mut ssd, pages, prefilled) = device(scheduler, depth);
                let mut rng = SimRng::seed_from_u64(0x0ac1e + depth as u64);
                let mut now = prefilled;
                for initiators in 1..=4 {
                    let mut queues = vec![HostQueue::new(); initiators];
                    // Staggered arrivals, some simultaneous, faster than
                    // the device drains them.
                    let gaps = [0, 0, 40, 250];
                    submit_session(&mut rng, &mut queues, pages, now, &gaps, 160, 0.0);
                    now = serve_and_check(&mut ssd, &mut queues);
                    // One burst: everything arrives at the same instant.
                    submit_session(&mut rng, &mut queues, pages, now, &[0], 512, 0.0);
                    now = serve_and_check(&mut ssd, &mut queues);
                    // Fence-heavy: released commands land ahead of other
                    // initiators' later arrivals.
                    submit_session(&mut rng, &mut queues, pages, now, &[0, 0, 40], 256, 0.4);
                    now = serve_and_check(&mut ssd, &mut queues);
                }
            }
        }
        let sorted_inserts = oracle::SORTED_INSERTS.get() - sorted_inserts;
        assert!(
            sorted_inserts > 0,
            "no fence release took the sorted insert"
        );
    }

    /// A traced idle window is time the device had nothing to do: it starts
    /// at the device's last activity, not where the engine's clock stood
    /// (zero, at the start of every session), so it never covers a command
    /// — of the prefill, of an earlier session, or of closed submits.
    #[test]
    fn idle_spans_never_overlap_a_command() {
        use ossd_telemetry::{Recorder, RecorderConfig, TraceEvent, Track};
        let (mut ssd, pages, prefilled) = device(SchedulerKind::Swtf, 4);
        let (handle, recorder) = Recorder::shared(RecorderConfig::default());
        ssd.set_telemetry(handle);
        let mut rng = SimRng::seed_from_u64(0x1d1e);
        let mut now = prefilled;
        for session in 0..2 {
            let mut queues = vec![HostQueue::new(); 2];
            // Gaps long enough for the device to drain and idle.
            let gaps = [0, 40, 3_000];
            submit_session(&mut rng, &mut queues, pages, now, &gaps, 96, 0.1);
            now = serve_and_check(&mut ssd, &mut queues);
            if session == 0 {
                for lpn in 0..8 {
                    let at = now + SimDuration::from_millis(2);
                    let write = BlockRequest::write(lpn, lpn * PAGE, PAGE, at);
                    now = ssd.submit(&write).unwrap().finish;
                }
            }
        }
        let recorder = recorder.lock().unwrap();
        assert_eq!(recorder.dropped_events(), 0);
        let (idle, commands): (Vec<&TraceEvent>, Vec<&TraceEvent>) = recorder
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::DeviceIdle || matches!(e.track, Track::Initiator(_)))
            .partition(|e| e.kind == EventKind::DeviceIdle);
        assert!(idle.len() > 10 && commands.len() > 192, "too little traced");
        for window in &idle {
            assert!(window.start < window.end, "empty idle span {window:?}");
            for command in &commands {
                assert!(
                    command.end <= window.start || window.end <= command.start,
                    "idle {window:?} overlaps {command:?}"
                );
            }
        }
    }
}
