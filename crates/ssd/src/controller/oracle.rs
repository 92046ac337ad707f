//! The controller's test oracle: the flat command queue the controller used
//! to keep, with eligibility recomputed from the fence rules and the choice
//! delegated to [`SchedulerKind::pick`] on every decision.

use std::cell::Cell;

use super::*;
use crate::sched::DispatchView;

thread_local! {
    /// Decisions checked on this thread (tests assert the oracle ran).
    pub(super) static DECISIONS: Cell<u64> = const { Cell::new(0) };
    /// Fence releases on this thread that landed ahead of a ready list's
    /// back (tests assert the sorted insert ran).
    pub(super) static SORTED_INSERTS: Cell<u64> = const { Cell::new(0) };
}

/// The controller's queue as the flat list it used to be, with
/// eligibility recomputed from the fence rules on every decision.
pub(super) struct Oracle {
    /// Arrived, undispatched commands in arrival order, with the element
    /// hint taken at admission.
    queue: Vec<(usize, Option<usize>)>,
    finished: Vec<bool>,
    /// For each command, the nearest earlier fence of its initiator.
    prev_fence: Vec<Option<usize>>,
    /// Command indices of each initiator, in submission order.
    by_initiator: Vec<Vec<usize>>,
}

impl Oracle {
    pub(super) fn new(commands: &[SessionCommand]) -> Self {
        let initiators = commands.iter().map(|c| c.initiator + 1).max().unwrap_or(0);
        let mut by_initiator = vec![Vec::new(); initiators];
        let mut last_fence = vec![None; initiators];
        let mut prev_fence = Vec::with_capacity(commands.len());
        for (index, command) in commands.iter().enumerate() {
            assert_eq!(
                command.seq,
                by_initiator[command.initiator].len() as u64,
                "seq is the position in the initiator's stream"
            );
            by_initiator[command.initiator].push(index);
            prev_fence.push(last_fence[command.initiator]);
            if command.payload.is_fence() {
                last_fence[command.initiator] = Some(index);
            }
        }
        Oracle {
            queue: Vec::new(),
            finished: vec![false; commands.len()],
            prev_fence,
            by_initiator,
        }
    }

    pub(super) fn on_arrival(&mut self, index: usize, element: Option<usize>) {
        self.queue.push((index, element));
    }

    pub(super) fn on_complete(&mut self, index: usize) {
        self.finished[index] = true;
    }

    /// Fences wait for every earlier command of their initiator, data
    /// commands for the nearest earlier fence of their initiator.
    fn eligible(&self, commands: &[SessionCommand], index: usize) -> bool {
        let command = &commands[index];
        if command.payload.is_fence() {
            self.by_initiator[command.initiator][..command.seq as usize]
                .iter()
                .all(|&earlier| self.finished[earlier])
        } else {
            self.prev_fence[index].is_none_or(|fence| self.finished[fence])
        }
    }

    /// Offers the eligible commands to [`SchedulerKind::pick`] and
    /// asserts it chooses `picked` (a command index; `None` when the
    /// ready lists are empty), then dequeues it.
    pub(super) fn check_pick(
        &mut self,
        scheduler: SchedulerKind,
        commands: &[SessionCommand],
        queues: &[ElementQueue],
        now: SimTime,
        picked: Option<usize>,
    ) {
        let (positions, views): (Vec<usize>, Vec<DispatchView>) = self
            .queue
            .iter()
            .enumerate()
            .filter(|(_, &(index, _))| self.eligible(commands, index))
            .map(|(position, &(index, element))| {
                let arrival = commands[index].arrival;
                (position, DispatchView { arrival, element })
            })
            .unzip();
        let reference = scheduler
            .pick(&views, queues, now)
            .map(|view| positions[view]);
        assert_eq!(
            reference.map(|position| self.queue[position].0),
            picked,
            "ready lists disagree with {scheduler:?}.pick over {} eligible of {} queued at {now:?}",
            views.len(),
            self.queue.len()
        );
        if let Some(position) = reference {
            self.queue.remove(position);
        }
        DECISIONS.with(|d| d.set(d.get() + 1));
    }

    /// §3.6 pressure as the flat queue computed it: the command being
    /// dispatched (already dequeued) or any still queued is `High`.
    pub(super) fn check_priority_pending(
        &self,
        commands: &[SessionCommand],
        index: usize,
        pending: bool,
    ) {
        let reference = commands[index].priority == Priority::High
            || self
                .queue
                .iter()
                .any(|&(queued, _)| commands[queued].priority == Priority::High);
        assert_eq!(reference, pending, "priority pressure of command {index}");
    }

    /// The `Fence`/`SqWait` split point of a data command is the finish
    /// of its nearest earlier fence (fences split at the initiator's
    /// drain time, which the gate keeps as before).
    pub(super) fn check_eligible_instant(
        &self,
        commands: &[SessionCommand],
        completions: &[Option<Completion>],
        index: usize,
        eligible: SimTime,
    ) {
        if commands[index].payload.is_fence() {
            return;
        }
        let fence_finish = self.prev_fence[index].map_or(SimTime::ZERO, |fence| {
            completions[fence].expect("fence finished").finish
        });
        assert_eq!(eligible, commands[index].arrival.max(fence_finish));
    }
}
