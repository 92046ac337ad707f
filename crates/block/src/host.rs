//! The queue-pair host↔device command protocol.
//!
//! §3 of the paper argues that the narrow block interface hides the
//! information a device needs for block management, and that richer
//! interfaces — free notifications (§3.5), hints (§3.4, §3.6), object-based
//! storage (§3.7) — let the device manage its own blocks.  This module is
//! that richer interface as one transport: an NVMe-style *queue pair* per
//! initiator, carrying a [`HostCommand`] vocabulary that spans block traffic,
//! write hints, ordering fences and object management.
//!
//! ```text
//!   initiator 0        initiator 1        initiator N-1
//!   ┌─────────┐        ┌─────────┐        ┌─────────┐
//!   │ SQ │ CQ │        │ SQ │ CQ │  ...   │ SQ │ CQ │     HostQueue pairs
//!   └──┬──▲───┘        └──┬──▲───┘        └──┬──▲───┘
//!      │  │               │  │               │  │
//!      ▼  │               ▼  │               ▼  │
//!   ═══╪══╪═══════════════╪══╪═══════════════╪══╪═════    round-robin
//!      └──┼───────┐       └──┼──────┐        └──┼────┐    arbitration
//!         │       ▼          │      ▼           │    ▼
//!         │   ┌────────────────────────────────────────┐
//!         └───┤  device controller (event engine):     │
//!             │  scheduler → per-element dispatch      │
//!             │  queues → flash array / disk arm       │
//!             └────────────────────────────────────────┘
//! ```
//!
//! Commands are submitted into a per-initiator submission queue (SQ) in
//! arrival order; [`HostInterface::serve`] drains every SQ through the
//! device's event-driven controller (arbitrating round-robin among
//! initiators that submit at the same instant) and posts one completion per
//! command to the owning initiator's completion queue (CQ), in completion
//! order.  Every request-processing mode in the workspace is a driver of
//! this one transport:
//!
//! * [`BlockDevice::submit`] — the depth-1 *closed* driver: one command,
//!   served to completion as a one-command session would be (a device may
//!   serve it directly, since it has nothing to be scheduled against).
//! * [`replay_open`](crate::replay_open) / [`replay_closed`](crate::replay_closed)
//!   — incremental enqueue-and-poll over one queue pair.
//! * `Ssd::simulate_open` / `Hdd::simulate_open` — a whole arrival trace
//!   submitted up front, one initiator.
//! * The object store (`ossd-core`) — a command *translator*: object
//!   operations become block commands over the identical transport.
//!
//! # Command vocabulary (paper §3 → protocol)
//!
//! | Paper interface | Command |
//! |---|---|
//! | reads/writes of LBNs (§2) | [`HostCommand::Read`], [`HostCommand::Write`] |
//! | free notifications (§3.5) | [`HostCommand::Free`] |
//! | stream/temperature hints (§3.4, §3.6) | [`WriteHint`] on `Write` |
//! | ordering / durability control | [`HostCommand::Flush`], [`HostCommand::Barrier`] |
//! | object-based storage (§3.7) | [`HostCommand::ObjectCreate`] / [`HostCommand::ObjectDelete`] / [`HostCommand::ObjectSetAttr`] |

use std::collections::VecDeque;

use ossd_sim::SimTime;

use crate::device::{BlockDevice, DeviceError};
use crate::range::ByteRange;
use crate::request::{BlockOpKind, BlockRequest, Completion, Priority};

/// How frequently the host expects data to change: the stream-temperature
/// payload of write hints and object attributes (§3.4's "patterns of usage",
/// §3.7's read-only/cold attributes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum StreamTemperature {
    /// Frequently rewritten.
    Hot,
    /// Default: no particular expectation.
    #[default]
    Warm,
    /// Rarely or never rewritten.
    Cold,
}

impl StreamTemperature {
    /// The variant name used by the trace serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            StreamTemperature::Hot => "Hot",
            StreamTemperature::Warm => "Warm",
            StreamTemperature::Cold => "Cold",
        }
    }
}

impl std::str::FromStr for StreamTemperature {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Hot" => Ok(StreamTemperature::Hot),
            "Warm" => Ok(StreamTemperature::Warm),
            "Cold" => Ok(StreamTemperature::Cold),
            other => Err(format!("unknown stream temperature {other:?}")),
        }
    }
}

/// A multi-stream-style write hint: advisory placement information the
/// device may use to segregate data by expected lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct WriteHint {
    /// Expected rewrite frequency of the written data.
    pub temperature: StreamTemperature,
}

impl WriteHint {
    /// The unhinted default (warm).
    pub const NONE: WriteHint = WriteHint {
        temperature: StreamTemperature::Warm,
    };

    /// A hint with the given temperature.
    pub fn with_temperature(temperature: StreamTemperature) -> Self {
        WriteHint { temperature }
    }

    /// Whether the hint actually says anything (non-default temperature).
    pub fn is_hinted(&self) -> bool {
        self.temperature != StreamTemperature::Warm
    }
}

/// Host-visible attributes of an object, carried by the object management
/// commands (§3.7: attributes convey priorities and read-only/cold data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectAttrs {
    /// Priority attached to every I/O the object generates.
    pub priority: Priority,
    /// Expected update frequency.
    pub temperature: StreamTemperature,
    /// Whether the object is read-only (its pages are candidates for cold
    /// placement during wear-leveling).
    pub read_only: bool,
}

impl ObjectAttrs {
    /// Attributes of a latency-sensitive (foreground) object.
    pub fn high_priority() -> Self {
        ObjectAttrs {
            priority: Priority::High,
            ..ObjectAttrs::default()
        }
    }

    /// Attributes of cold, read-only data.
    pub fn cold_read_only() -> Self {
        ObjectAttrs {
            temperature: StreamTemperature::Cold,
            read_only: true,
            ..ObjectAttrs::default()
        }
    }
}

/// One command of the queue-pair protocol.
///
/// Block devices (`Ssd`, `Hdd`) serve the block commands and fences and
/// reject the object commands with [`DeviceError::Unsupported`]; the object
/// store accepts the object commands and translates them into block
/// commands over the same transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HostCommand {
    /// Read the addressed bytes.
    Read {
        /// Which bytes to read.
        range: ByteRange,
    },
    /// Write the addressed bytes, with an advisory placement hint.
    Write {
        /// Which bytes to write.
        range: ByteRange,
        /// Expected lifetime of the written data.
        hint: WriteHint,
    },
    /// Notify the device that the addressed bytes no longer hold live data
    /// (the TRIM-style free notification of §3.5).
    Free {
        /// Which bytes are dead.
        range: ByteRange,
    },
    /// Force device-side write buffers (open stripes, coalescing buffers)
    /// to stable media.  Orders like a [`HostCommand::Barrier`]: it is not
    /// dispatched until every earlier command from the same initiator in
    /// the session has completed.
    Flush,
    /// Ordering fence: completes only after every earlier command from the
    /// same initiator in the session has completed, and no later command
    /// from that initiator is dispatched before it completes.  Performs no
    /// device work.
    Barrier,
    /// Create an empty object with the given host-assigned id.
    ObjectCreate {
        /// Host-assigned object id.
        object: u64,
        /// Initial attributes.
        attrs: ObjectAttrs,
    },
    /// Delete an object; every byte it occupied is released to the device
    /// (informed cleaning without TRIM, §3.7).
    ObjectDelete {
        /// The object to delete.
        object: u64,
    },
    /// Replace the attributes of an object.
    ObjectSetAttr {
        /// The object to modify.
        object: u64,
        /// New attributes.
        attrs: ObjectAttrs,
    },
}

impl HostCommand {
    /// Whether this is one of the object-management commands.
    pub fn is_object_command(&self) -> bool {
        matches!(
            self,
            HostCommand::ObjectCreate { .. }
                | HostCommand::ObjectDelete { .. }
                | HostCommand::ObjectSetAttr { .. }
        )
    }

    /// Whether this command is an ordering fence (barrier or flush).
    pub fn is_fence(&self) -> bool {
        matches!(self, HostCommand::Flush | HostCommand::Barrier)
    }

    /// The byte range a block data command addresses, if any.
    pub fn range(&self) -> Option<ByteRange> {
        match self {
            HostCommand::Read { range }
            | HostCommand::Write { range, .. }
            | HostCommand::Free { range } => Some(*range),
            _ => None,
        }
    }

    /// Converts a block request into the equivalent command.
    pub fn from_request(request: &BlockRequest) -> Self {
        match request.kind {
            BlockOpKind::Read => HostCommand::Read {
                range: request.range,
            },
            BlockOpKind::Write => HostCommand::Write {
                range: request.range,
                hint: WriteHint::NONE,
            },
            BlockOpKind::Free => HostCommand::Free {
                range: request.range,
            },
        }
    }

    /// The block request a block data command corresponds to (`None` for
    /// fences and object commands).
    pub fn to_request(
        &self,
        id: u64,
        arrival: SimTime,
        priority: Priority,
    ) -> Option<BlockRequest> {
        let (kind, range) = match self {
            HostCommand::Read { range } => (BlockOpKind::Read, *range),
            HostCommand::Write { range, .. } => (BlockOpKind::Write, *range),
            HostCommand::Free { range } => (BlockOpKind::Free, *range),
            _ => return None,
        };
        Some(BlockRequest {
            id,
            kind,
            range,
            arrival,
            priority,
        })
    }
}

/// One command sitting in a submission queue, with its per-initiator
/// correlation id and submission metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmittedCommand {
    /// Caller-chosen correlation id, echoed back in the completion's
    /// `request_id`.
    pub id: u64,
    /// The command.
    pub command: HostCommand,
    /// When the command arrives at the device.
    pub arrival: SimTime,
    /// Host-assigned priority (drives priority-aware cleaning, §3.6).
    pub priority: Priority,
}

/// A submission/completion queue pair for one initiator.
///
/// Commands are pushed into the submission side in non-decreasing arrival
/// order; a device's [`HostInterface::serve`] drains the submission queue
/// and posts completions (in completion order) to the completion side,
/// where the initiator polls them back out.
#[derive(Clone, Debug, Default)]
pub struct HostQueue {
    submissions: VecDeque<SubmittedCommand>,
    completions: VecDeque<Completion>,
    last_arrival: SimTime,
    submitted: u64,
    completed: u64,
}

impl HostQueue {
    /// An empty queue pair.
    pub fn new() -> Self {
        HostQueue::default()
    }

    /// Submits one command at `arrival` with the given correlation id and
    /// priority.
    ///
    /// # Panics
    ///
    /// Panics if `arrival` precedes an earlier submission's arrival —
    /// devices require arrival-ordered submission streams.
    pub fn submit_with_priority(
        &mut self,
        id: u64,
        command: HostCommand,
        arrival: SimTime,
        priority: Priority,
    ) {
        assert!(
            arrival >= self.last_arrival,
            "commands must be submitted in non-decreasing arrival order \
             ({arrival:?} after {:?})",
            self.last_arrival
        );
        self.last_arrival = arrival;
        self.submitted += 1;
        self.submissions.push_back(SubmittedCommand {
            id,
            command,
            arrival,
            priority,
        });
    }

    /// Submits one command at normal priority.
    pub fn submit(&mut self, id: u64, command: HostCommand, arrival: SimTime) {
        self.submit_with_priority(id, command, arrival, Priority::Normal);
    }

    /// Submits a block request as the equivalent command (the request's id,
    /// arrival and priority are carried over).
    pub fn submit_request(&mut self, request: &BlockRequest) {
        self.submit_with_priority(
            request.id,
            HostCommand::from_request(request),
            request.arrival,
            request.priority,
        );
    }

    /// Pops the oldest posted completion, if any.
    pub fn poll(&mut self) -> Option<Completion> {
        self.completions.pop_front()
    }

    /// Pops every posted completion.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        self.completions.drain(..).collect()
    }

    /// Number of commands submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        (self.submitted - self.completed) as usize
    }

    /// Number of commands waiting in the submission queue.
    pub fn pending_submissions(&self) -> usize {
        self.submissions.len()
    }

    /// Total commands ever submitted.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Device side: consumes every pending submission in place (a session
    /// has already read them through [`arbitrate_round_robin`]).  The
    /// commands stay in the in-flight count until their completions are
    /// posted — devices call this only for sessions whose completions they
    /// are about to post ([`complete_session`] pairs the two).  Hosts
    /// abandoning commands use [`HostQueue::cancel_submissions`] instead.
    pub fn consume_submissions(&mut self) {
        self.submissions.clear();
    }

    /// Host side: abandons every pending submission (e.g. after a failed
    /// serve rejected one of them), removing them from the in-flight count
    /// since no completion will ever be posted for them.
    pub fn cancel_submissions(&mut self) -> Vec<SubmittedCommand> {
        let cancelled: Vec<SubmittedCommand> = self.submissions.drain(..).collect();
        self.submitted -= cancelled.len() as u64;
        cancelled
    }

    /// Device side: posts one completion to the completion queue.
    pub fn post_completion(&mut self, completion: Completion) {
        self.completed += 1;
        self.completions.push_back(completion);
    }

    /// Returns the queue pair to its freshly constructed state — both
    /// sides empty, counters zero, no arrival-order watermark — keeping
    /// the buffers' capacity.  For a router that mirrors one session after
    /// another into queues it owns: each session starts its own arrival
    /// order, as it would on [`HostQueue::new`] queues.
    pub fn reset(&mut self) {
        self.submissions.clear();
        self.completions.clear();
        self.last_arrival = SimTime::ZERO;
        self.submitted = 0;
        self.completed = 0;
    }
}

/// One arbitrated command: which initiator queue it came from, plus the
/// submission itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArbitratedCommand {
    /// Index of the owning queue in the slice given to
    /// [`HostInterface::serve`].
    pub initiator: usize,
    /// Position of this command in its initiator's submission stream (used
    /// for fence ordering).
    pub seq: u64,
    /// The submitted command.
    pub submission: SubmittedCommand,
}

/// Merges every queue's pending submissions into one globally
/// arrival-ordered command list *without consuming them* — a session
/// consumes its submissions only when it completes (see
/// [`complete_session`]), so a serve that fails validation leaves every
/// initiator's commands queued.  Commands submitted at the same instant by
/// different initiators are arbitrated *round-robin*: the merge cycles
/// through the tied initiators, taking one command from each in turn, so
/// no initiator can starve another by submitting a burst.
pub fn arbitrate_round_robin(queues: &[HostQueue]) -> Vec<ArbitratedCommand> {
    // One cursor per initiator into its (untouched) submission queue; the
    // cursor doubles as the command's position in the initiator's stream.
    let mut cursors = vec![0usize; queues.len()];
    let head = |cursors: &[usize], i: usize| queues[i].submissions.get(cursors[i]);
    let total: usize = queues.iter().map(|q| q.submissions.len()).sum();
    let mut out = Vec::with_capacity(total);
    // Rotating arbitration pointer: after serving initiator i, the next tie
    // is broken starting from initiator i+1.
    let mut rotor = 0usize;
    let n = queues.len();
    while out.len() < total {
        let earliest = (0..n)
            .filter_map(|i| head(&cursors, i).map(|c| c.arrival))
            .min()
            .expect("non-empty streams remain");
        // Pick, round-robin from the rotor, the next initiator whose head
        // command arrives at the earliest time.
        let (initiator, submission) = (0..n)
            .map(|k| (rotor + k) % n)
            .find_map(|i| {
                let submission = head(&cursors, i)?;
                (submission.arrival == earliest).then_some((i, *submission))
            })
            .expect("some stream holds the earliest arrival");
        out.push(ArbitratedCommand {
            initiator,
            seq: cursors[initiator] as u64,
            submission,
        });
        cursors[initiator] += 1;
        rotor = (initiator + 1) % n;
    }
    out
}

/// Posts completions back to their initiators' completion queues in
/// completion order (ties broken by arbitration order).
pub(crate) fn post_completions(queues: &mut [HostQueue], mut completed: Vec<(usize, Completion)>) {
    // Stable sort: completions finishing at the same instant post in
    // arbitration order.
    completed.sort_by_key(|&(_, c)| c.finish);
    for (initiator, completion) in completed {
        queues[initiator].post_completion(completion);
    }
}

/// Finishes a successful session: consumes every queue's pending
/// submissions (they were merged by [`arbitrate_round_robin`], which does
/// not drain) and posts the completions.  Device `serve` implementations
/// call this exactly once, after the whole session executed.
pub fn complete_session(queues: &mut [HostQueue], completed: Vec<(usize, Completion)>) {
    queues.iter_mut().for_each(HostQueue::consume_submissions);
    post_completions(queues, completed);
}

/// A device that speaks the queue-pair command protocol.
///
/// The provided [`serve`](HostInterface::serve) is a reference
/// implementation over [`BlockDevice::submit`]: commands are arbitrated
/// round-robin and served one at a time in arrival order, fences complete
/// when every earlier command of their initiator has (flush performs no
/// work), and object commands are rejected.  `Ssd` and `Hdd` override it to
/// feed the merged command stream through their event-driven controllers,
/// which is where queue depths, schedulers and idle-window cleaning live.
///
/// # Error semantics
///
/// The session is validated up front (bounds, object-command support); a
/// validation failure returns the failing command's error with **no**
/// submissions consumed and **no** completions posted — every initiator's
/// commands stay queued, so one initiator's malformed command never
/// destroys another initiator's traffic.  If the device nonetheless fails
/// mid-execution (e.g. the simulated FTL runs out of free blocks), the
/// serve aborts the same way, but device *state* may have advanced:
/// retrying replays the whole session against that state, as with any
/// aborted simulation run.  Fence ordering is scoped to the commands of
/// one `serve` call: commands served by an earlier call have already
/// completed from the protocol's point of view.
pub trait HostInterface: BlockDevice {
    /// Serves every submitted command in `queues`, posting completions to
    /// each initiator's completion side.
    fn serve(&mut self, queues: &mut [HostQueue]) -> Result<(), DeviceError> {
        let commands = arbitrate_round_robin(queues);
        // Validate the whole session before executing any of it.
        for cmd in &commands {
            let sub = cmd.submission;
            if sub.command.is_object_command() {
                return Err(DeviceError::Unsupported {
                    what: "object commands on a block device",
                });
            }
            if let Some(request) = sub.command.to_request(sub.id, sub.arrival, sub.priority) {
                self.check_bounds(&request)?;
            }
        }
        let mut last_finish: Vec<SimTime> = vec![SimTime::ZERO; queues.len()];
        let mut completed = Vec::with_capacity(commands.len());
        for cmd in commands {
            let sub = cmd.submission;
            let completion = match sub.command {
                HostCommand::Flush | HostCommand::Barrier => {
                    let at = sub.arrival.max(last_finish[cmd.initiator]);
                    Completion::ok(sub.id, sub.arrival, at, at)
                }
                ref c => {
                    let request = c
                        .to_request(sub.id, sub.arrival, sub.priority)
                        .expect("validated block data command");
                    self.submit(&request)?
                }
            };
            last_finish[cmd.initiator] = last_finish[cmd.initiator].max(completion.finish);
            completed.push((cmd.initiator, completion));
        }
        complete_session(queues, completed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceInfo;
    use ossd_sim::SimDuration;

    /// Fixed-service device used to exercise the default `serve`.
    struct FixedDevice {
        service: SimDuration,
        next_free: SimTime,
    }

    impl BlockDevice for FixedDevice {
        fn info(&self) -> DeviceInfo {
            DeviceInfo {
                name: "fixed".into(),
                capacity_bytes: u64::MAX,
                supports_free: true,
            }
        }

        fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
            let start = request.arrival.max(self.next_free);
            let finish = if request.kind == BlockOpKind::Free {
                start
            } else {
                start + self.service
            };
            self.next_free = finish;
            Ok(Completion::ok(request.id, request.arrival, start, finish))
        }
    }

    impl HostInterface for FixedDevice {}

    fn fixed() -> FixedDevice {
        FixedDevice {
            service: SimDuration::from_micros(100),
            next_free: SimTime::ZERO,
        }
    }

    #[test]
    fn single_queue_commands_complete_in_order() {
        let mut dev = fixed();
        let mut q = HostQueue::new();
        q.submit(
            0,
            HostCommand::Read {
                range: ByteRange::new(0, 512),
            },
            SimTime::ZERO,
        );
        q.submit(
            1,
            HostCommand::Write {
                range: ByteRange::new(512, 512),
                hint: WriteHint::NONE,
            },
            SimTime::ZERO,
        );
        assert_eq!(q.pending_submissions(), 2);
        assert_eq!(q.in_flight(), 2);
        dev.serve(std::slice::from_mut(&mut q)).unwrap();
        assert_eq!(q.pending_submissions(), 0);
        assert_eq!(q.completions.len(), 2);
        let a = q.poll().unwrap();
        let b = q.poll().unwrap();
        assert_eq!(a.request_id, 0);
        assert_eq!(b.request_id, 1);
        assert_eq!(b.finish, SimTime::from_micros(200));
        assert_eq!(q.in_flight(), 0);
        assert!(q.poll().is_none());
    }

    #[test]
    fn round_robin_arbitration_interleaves_tied_initiators() {
        let mut queues = vec![HostQueue::new(), HostQueue::new()];
        for id in 0..3u64 {
            queues[0].submit(
                id,
                HostCommand::Read {
                    range: ByteRange::new(0, 512),
                },
                SimTime::ZERO,
            );
            queues[1].submit(
                id,
                HostCommand::Read {
                    range: ByteRange::new(0, 512),
                },
                SimTime::ZERO,
            );
        }
        let merged = arbitrate_round_robin(&queues);
        let initiators: Vec<usize> = merged.iter().map(|c| c.initiator).collect();
        assert_eq!(initiators, vec![0, 1, 0, 1, 0, 1]);
        // Per-initiator submission order is preserved.
        let seqs0: Vec<u64> = merged
            .iter()
            .filter(|c| c.initiator == 0)
            .map(|c| c.seq)
            .collect();
        assert_eq!(seqs0, vec![0, 1, 2]);
    }

    #[test]
    fn arbitration_respects_arrival_order_across_initiators() {
        let mut queues = vec![HostQueue::new(), HostQueue::new()];
        queues[0].submit(0, HostCommand::Barrier, SimTime::from_micros(50));
        queues[1].submit(0, HostCommand::Barrier, SimTime::from_micros(10));
        queues[1].submit(1, HostCommand::Barrier, SimTime::from_micros(60));
        let merged = arbitrate_round_robin(&queues);
        let order: Vec<(usize, u64)> = merged
            .iter()
            .map(|c| (c.initiator, c.submission.arrival.as_nanos() / 1000))
            .collect();
        assert_eq!(order, vec![(1, 10), (0, 50), (1, 60)]);
    }

    #[test]
    fn fences_wait_for_their_initiators_earlier_commands() {
        let mut dev = fixed();
        let mut q = HostQueue::new();
        q.submit(
            0,
            HostCommand::Write {
                range: ByteRange::new(0, 512),
                hint: WriteHint::NONE,
            },
            SimTime::ZERO,
        );
        q.submit(1, HostCommand::Barrier, SimTime::ZERO);
        q.submit(2, HostCommand::Flush, SimTime::ZERO);
        dev.serve(std::slice::from_mut(&mut q)).unwrap();
        let write = q.poll().unwrap();
        let barrier = q.poll().unwrap();
        let flush = q.poll().unwrap();
        assert_eq!(barrier.request_id, 1);
        assert_eq!(barrier.start, write.finish);
        assert_eq!(barrier.finish, write.finish);
        assert_eq!(flush.finish, write.finish);
    }

    #[test]
    fn object_commands_are_rejected_by_block_devices() {
        let mut dev = fixed();
        let mut q = HostQueue::new();
        q.submit(
            0,
            HostCommand::ObjectCreate {
                object: 7,
                attrs: ObjectAttrs::default(),
            },
            SimTime::ZERO,
        );
        assert!(matches!(
            dev.serve(std::slice::from_mut(&mut q)),
            Err(DeviceError::Unsupported { .. })
        ));
    }

    #[test]
    fn failed_serve_consumes_nothing_and_posts_nothing() {
        // One initiator submits valid traffic, another a rejected command:
        // the serve fails as a whole, and the valid initiator's submission
        // must still be queued (nothing consumed, nothing completed), so a
        // bad neighbour cannot destroy its traffic.
        let mut dev = fixed();
        let mut queues = vec![HostQueue::new(), HostQueue::new()];
        queues[0].submit(
            0,
            HostCommand::Read {
                range: ByteRange::new(0, 512),
            },
            SimTime::ZERO,
        );
        queues[1].submit(0, HostCommand::ObjectDelete { object: 3 }, SimTime::ZERO);
        assert!(dev.serve(&mut queues).is_err());
        for q in &queues {
            assert_eq!(q.pending_submissions(), 1, "submissions must survive");
            assert_eq!(q.completions.len(), 0, "nothing may complete");
            assert_eq!(q.in_flight(), 1);
        }
        // Cancelling the bad command lets the good one proceed, and the
        // cancelled queue's in-flight accounting returns to zero.
        queues[1].cancel_submissions();
        assert_eq!(queues[1].in_flight(), 0);
        dev.serve(&mut queues).unwrap();
        assert_eq!(queues[0].completions.len(), 1);
        assert_eq!(queues[0].in_flight(), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing arrival order")]
    fn out_of_order_submission_panics() {
        let mut q = HostQueue::new();
        q.submit(0, HostCommand::Barrier, SimTime::from_micros(10));
        q.submit(1, HostCommand::Barrier, SimTime::from_micros(5));
    }

    #[test]
    fn reset_queue_is_as_new_and_accepts_an_earlier_arrival() {
        let mut q = HostQueue::new();
        q.submit(0, HostCommand::Barrier, SimTime::from_micros(10));
        q.post_completion(Completion::ok(
            7,
            SimTime::ZERO,
            SimTime::ZERO,
            SimTime::from_micros(1),
        ));
        q.reset();
        assert_eq!(q.pending_submissions(), 0);
        assert_eq!(q.completions.len(), 0);
        assert_eq!((q.submitted(), q.in_flight()), (0, 0));
        q.submit(1, HostCommand::Barrier, SimTime::from_micros(5));
        assert_eq!(q.pending_submissions(), 1);
    }

    #[test]
    fn command_request_round_trip() {
        let req = BlockRequest::write(9, 4096, 8192, SimTime::from_micros(3))
            .with_priority(Priority::High);
        let cmd = HostCommand::from_request(&req);
        assert_eq!(cmd.range(), Some(ByteRange::new(4096, 8192)));
        let back = cmd.to_request(9, req.arrival, req.priority).unwrap();
        assert_eq!(back, req);
        assert!(HostCommand::Barrier
            .to_request(0, SimTime::ZERO, Priority::Normal)
            .is_none());
        assert!(HostCommand::Flush.is_fence());
        assert!(!cmd.is_fence());
        assert!(HostCommand::ObjectDelete { object: 1 }.is_object_command());
    }

    #[test]
    fn write_hint_and_attrs_helpers() {
        assert!(!WriteHint::NONE.is_hinted());
        assert!(WriteHint::with_temperature(StreamTemperature::Cold).is_hinted());
        assert_eq!(ObjectAttrs::high_priority().priority, Priority::High);
        let cold = ObjectAttrs::cold_read_only();
        assert!(cold.read_only);
        assert_eq!(cold.temperature, StreamTemperature::Cold);
        for t in [
            StreamTemperature::Hot,
            StreamTemperature::Warm,
            StreamTemperature::Cold,
        ] {
            assert_eq!(t.as_str().parse::<StreamTemperature>().unwrap(), t);
        }
        assert!("Tepid".parse::<StreamTemperature>().is_err());
    }
}
