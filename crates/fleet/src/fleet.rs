//! The [`Fleet`]: an array of simulated SSDs behind one host-level router.
//!
//! # Determinism model
//!
//! A fleet serve session runs in five deterministic steps:
//!
//! 1. **Arbitrate** the initiator queues round-robin into one globally
//!    arrival-ordered command list (exactly [`arbitrate_round_robin`], the
//!    same arbiter a single device uses).
//! 2. **Validate** every command up front against the fleet's exported
//!    capacity — a rejected command aborts the serve with every submission
//!    still queued and no completions posted (the [`HostInterface`] error
//!    semantics, preserved at fleet scope).
//! 3. **Fan out** each command into per-device sub-commands.  Striping
//!    maps a contiguous exported range to at most one contiguous
//!    device-local range per device (see [`crate::router`]); rotating
//!    parity plans data + parity updates, routing around a degraded
//!    member (see [`crate::parity`]) — a parity command may issue several
//!    coalesced sub-commands per device.  Sub-commands preserve the parent's
//!    arrival, priority and write hint, and carry the parent's arbitration
//!    sequence number as their correlation id.
//! 4. **Execute** the touched members' sessions on the fleet's *engine
//!    threads*: [`FleetConfig::threads`] of them, counting the thread that
//!    called `serve`.  The others are long-lived workers the fleet spawns
//!    when a session first needs them and joins when it is dropped; between
//!    sessions they are parked on an empty channel.  A session of one
//!    command (every [`BlockDevice::submit`]) is served on the calling
//!    thread alone: its members' work is smaller than a worker's wake and
//!    hand-back.  Otherwise the touched members
//!    are dealt, in device order, into one chunk per engine; the caller
//!    keeps the first chunk and hands each other one to a worker by
//!    *moving* the members — each `Ssd` with its mirrored queues — out of
//!    their slots, through the channel, and back when the worker answers.
//!    Devices share *no* simulation state — each `Ssd` is `Send` and
//!    wholly owned by whichever thread holds its chunk, and per-device RNG
//!    streams are sharded via [`ossd_sim::derive_stream_seed`] — so the
//!    thread count and OS schedule cannot affect any device's result, only
//!    wall-clock time.  Every engine also puts its own chunk's
//!    sub-completions into canonical order (each per-initiator completion
//!    queue is already finish-ordered, so this is a merge of a few runs,
//!    done in parallel).  A member that returns an error, or panics, still
//!    comes back to its slot: the error is reported once every engine has
//!    answered, the panic resumes on the calling thread.
//! 5. **Merge** the engines' runs into one canonical order sorted by
//!    `(finish time, device index, parent sequence)` — a k-way merge of
//!    `threads` sorted runs, not a sort.  On a parity
//!    fleet, an [`CompletionStatus::UncorrectableRead`] sub-completion
//!    from a *live* member is then transparently repaired: the lost
//!    windows are re-read from the other members, XOR-reconstructed and
//!    rewritten, all in canonical order on one thread, so the repair
//!    schedule is itself deterministic (only a repair, which moves a
//!    finish later, makes the log need sorting again).  Finally one walk
//!    of the log reduces the sub-completions to per-parent completions
//!    (start = earliest sub-start, finish = latest sub-finish, status =
//!    worst sub-status; a parent is complete at its last sub-completion,
//!    so parents come out in finish order) and posts them, as
//!    [`ossd_block::complete_session`] would, in completion order with
//!    ties in arbitration order — bit-identical for every thread count,
//!    and for a 1-device fleet bit-identical to serving the standalone
//!    device.
//!
//! The session's buffers — the parent table, the parity planner's
//! scratch, every member's mirrored queues, the engines' runs, the merged
//! log and the completion list — live on the fleet from one session to
//! the next, so a session allocates nothing per command.
//!
//! A parity fleet's content model ([`crate::parity`]) follows every write
//! at step 3.  It keeps one expected word per data unit and derives what
//! each member stores from them; only a member that can hold something
//! else is materialised, one word per row, from [`Fleet::fail_device`]
//! until the [`Fleet::rebuild_range`] that reaches its last row.

use ossd_block::{
    arbitrate_round_robin, ArbitratedCommand, BlockDevice, BlockRequest, ByteRange, Completion,
    CompletionStatus, DeviceError, DeviceInfo, HostCommand, HostInterface, HostQueue, WriteHint,
};
use ossd_ftl::FtlStats;
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdConfig, SsdError, SsdStats};
use ossd_telemetry::{BlameRecord, Recorder, RecorderConfig};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::config::{FleetConfig, FleetLayout};
use crate::parity::{
    self, DegradedView, ParityGeometry, ParityModel, ScrubReport, SubOp, SubOpKind,
};
use crate::qos::{RebuildGovernor, RebuildQos};
use crate::router::{striped_capacity, striped_slices};

/// One live member: the device and the queues the fleet mirrors each
/// session into.
struct Member {
    /// The slot this member belongs to (it travels without its slot).
    device: usize,
    ssd: Ssd,
    /// One mirrored queue pair per initiator of the current session.
    queues: Vec<HostQueue>,
    /// What this member's next session does instead of serving.
    #[cfg(test)]
    fault: Option<Fault>,
}

/// A failure injected into one member's next session.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// The device returns an error.
    Error,
    /// The device panics.
    Panic,
}

impl Member {
    fn new(device: usize, ssd: Ssd) -> Self {
        Member {
            device,
            ssd,
            queues: Vec::new(),
            #[cfg(test)]
            fault: None,
        }
    }
}

/// One member device's slot in the array.
struct Slot {
    /// The member, or `None` while failed (and, inside a serve session,
    /// while an engine thread holds it).
    member: Option<Member>,
    /// Replacement generation: 0 for the original member, incremented by
    /// every [`Fleet::replace_device`] (feeds per-device seed derivation).
    generation: u64,
}

impl Slot {
    fn ssd(&self) -> Option<&Ssd> {
        self.member.as_ref().map(|m| &m.ssd)
    }

    fn ssd_mut(&mut self) -> Option<&mut Ssd> {
        self.member.as_mut().map(|m| &mut m.ssd)
    }
}

/// One sub-completion in the canonical merged order — the determinism
/// witness: two runs of the same seeded fleet are bit-identical iff their
/// merged logs are equal, regardless of thread count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetSubCompletion {
    /// Member device that served the sub-command.
    pub device: usize,
    /// Parent command's global arbitration sequence (session-local).
    pub parent_seq: u64,
    /// Parent command's host correlation id.
    pub request_id: u64,
    /// Initiator queue the parent came from.
    pub initiator: usize,
    /// When the sub-command's device work began.
    pub start: SimTime,
    /// When the sub-command completed on its device.
    pub finish: SimTime,
    /// Sub-command outcome (after any parity repair).
    pub status: CompletionStatus,
}

impl FleetSubCompletion {
    /// The canonical order of the merged log.
    fn key(&self) -> (SimTime, usize, u64) {
        (self.finish, self.device, self.parent_seq)
    }
}

/// Parity-layout bookkeeping: geometry, degraded view, the shadow content
/// model and the degraded/repair counters.
struct ParityState {
    geom: ParityGeometry,
    /// Rows per member device.
    rows: u64,
    /// Fingerprint content model (see [`crate::parity::ParityModel`]).
    model: ParityModel,
    /// The currently degraded member and its rebuild watermark, if any.
    degraded: Option<DegradedView>,
    /// Host read commands that needed XOR reconstruction.
    degraded_reads: u64,
    /// Uncorrectable sub-reads transparently repaired from parity.
    repaired_reads: u64,
    /// Survivor bytes read purely for reconstruction or repair.
    reconstructed_bytes: u64,
}

/// One engine thread's share of a session: the members it serves and what
/// came of it.  Handed to a worker and back by value (two `Vec` headers
/// and two options; the buffers keep their capacity across sessions).
#[derive(Default)]
struct Chunk {
    /// The chunk's members, ascending by device.
    members: Vec<Member>,
    /// Their sub-completions in canonical order.  `request_id` is left 0:
    /// only the calling thread sees the parent table.
    run: Vec<FleetSubCompletion>,
    /// The first member whose session returned an error.
    failed: Option<(usize, DeviceError)>,
    /// The payload of a panic inside a member's session.
    panic: Option<Box<dyn Any + Send>>,
}

impl Chunk {
    /// Serves every member's session and orders the sub-completions.  A
    /// panic is caught and carried back in the chunk, so the members
    /// return to their slots whatever happened; [`Fleet::execute`] resumes
    /// it on the calling thread before anything reads their state.
    fn serve(&mut self) {
        let Chunk {
            members,
            run,
            failed,
            panic,
        } = self;
        run.clear();
        *panic = catch_unwind(AssertUnwindSafe(|| {
            for member in members.iter_mut() {
                let device = member.device;
                #[cfg(test)]
                match member.fault.take() {
                    Some(Fault::Panic) => panic!("injected panic in member {device}"),
                    Some(Fault::Error) => {
                        let e = DeviceError::Internal("injected error".to_string());
                        failed.get_or_insert((device, e));
                        continue;
                    }
                    None => {}
                }
                if let Err(e) = member.ssd.serve(&mut member.queues) {
                    // The others still run: their sessions were accepted.
                    failed.get_or_insert((device, e));
                    continue;
                }
                for (initiator, queue) in member.queues.iter_mut().enumerate() {
                    while let Some(c) = queue.poll() {
                        run.push(FleetSubCompletion {
                            device,
                            parent_seq: c.request_id,
                            request_id: 0,
                            initiator,
                            start: c.start,
                            finish: c.finish,
                            status: c.status,
                        });
                    }
                }
            }
            // Each completion queue was posted in finish order and holds
            // one initiator's parents in arbitration order, so `run` is a
            // few sorted runs laid end to end, which this (stable,
            // run-adaptive) sort merges.
            run.sort_by_key(FleetSubCompletion::key);
        }))
        .err();
    }
}

/// A parked engine thread: it serves each [`Chunk`] it is sent and sends
/// it back.  One chunk is in flight at a time, so both channels hold one.
struct Worker {
    jobs: SyncSender<Chunk>,
    done: Receiver<Chunk>,
    handle: JoinHandle<()>,
}

impl Worker {
    fn spawn(name: String) -> std::io::Result<Worker> {
        let (jobs, inbox) = sync_channel::<Chunk>(1);
        let (outbox, done) = sync_channel::<Chunk>(1);
        let handle = std::thread::Builder::new().name(name).spawn(move || {
            // Blocks here between sessions; ends when the fleet drops
            // `jobs`.
            for mut chunk in inbox {
                chunk.serve();
                if outbox.send(chunk).is_err() {
                    break;
                }
            }
        })?;
        Ok(Worker { jobs, done, handle })
    }
}

/// One arbitrated parent command's bookkeeping through the session.
struct Parent {
    initiator: usize,
    id: u64,
    arrival: SimTime,
    command: HostCommand,
    /// Sub-commands fanned out.
    subs: u32,
    /// Sub-completions not yet seen by the step-5 reduce.
    remaining: u32,
    /// Earliest sub-start seen so far.
    start: SimTime,
    /// Worst sub-status seen so far.
    status: CompletionStatus,
}

/// The buffers of a serve session, kept between sessions for their
/// capacity (they carry no state from one session to the next).
#[derive(Default)]
struct Session {
    parents: Vec<Parent>,
    /// Live device indices, ascending.
    live: Vec<usize>,
    /// The parity planner's output for the command being fanned out.
    plan: Vec<SubOp>,
    /// Commands per initiator.
    per_initiator: Vec<u32>,
    /// One chunk per engine thread: `chunks[0]` is the calling thread's,
    /// `chunks[i]` goes to worker `i - 1`.
    chunks: Vec<Chunk>,
    /// Parent completions as `(arbitration sequence, initiator,
    /// completion)`.
    completed: Vec<(u64, usize, Completion)>,
}

/// The operation kind, range and write hint of a data command (`None` for
/// fences): what its sub-commands are built from.
fn data_op(command: &HostCommand) -> Option<(SubOpKind, ByteRange, WriteHint)> {
    match *command {
        HostCommand::Read { range } => Some((SubOpKind::Read, range, WriteHint::NONE)),
        HostCommand::Write { range, hint } => Some((SubOpKind::Write, range, hint)),
        HostCommand::Free { range } => Some((SubOpKind::Free, range, WriteHint::NONE)),
        _ => None,
    }
}

/// The device command for one sub-operation.
fn sub_command(kind: SubOpKind, range: ByteRange, hint: WriteHint) -> HostCommand {
    match kind {
        SubOpKind::Read => HostCommand::Read { range },
        SubOpKind::Write => HostCommand::Write { range, hint },
        SubOpKind::Free => HostCommand::Free { range },
    }
}

/// Merges runs that are each in canonical order into `out`, in canonical
/// order; equal keys keep run order, then position, as a stable sort of
/// the runs laid end to end would.
fn merge_runs<'a>(
    runs: impl Iterator<Item = &'a [FleetSubCompletion]>,
    out: &mut Vec<FleetSubCompletion>,
) {
    let mut heads: Vec<&[FleetSubCompletion]> = runs.filter(|r| !r.is_empty()).collect();
    while heads.len() > 1 {
        // `min_by_key` returns the first of equal minima: the earlier run.
        let (i, _) = heads
            .iter()
            .enumerate()
            .min_by_key(|(_, run)| run[0].key())
            .expect("more than one run");
        out.push(heads[i][0]);
        heads[i] = &heads[i][1..];
        if heads[i].is_empty() {
            heads.remove(i);
        }
    }
    if let Some(last) = heads.first() {
        out.extend_from_slice(last);
    }
}

/// A multi-device SSD array behind one block/queue-pair interface.
///
/// See the [module docs](self) for the determinism model.
pub struct Fleet {
    config: FleetConfig,
    slots: Vec<Slot>,
    capacity: u64,
    supports_free: bool,
    merged_log: Vec<FleetSubCompletion>,
    last_fanout: Vec<u32>,
    rebuilt_bytes: u64,
    next_rebuild_id: u64,
    /// Whether latency attribution is enabled fleet-wide (sticky, so
    /// replacement devices inherit it).
    attribution: bool,
    /// Parity bookkeeping (`None` for a striped layout).
    parity: Option<ParityState>,
    /// Admission control for rebuild traffic.
    governor: RebuildGovernor,
    /// Max per-initiator command count of the last serve session — the
    /// host-pressure signal the rebuild governor reads.
    last_pressure: u32,
    /// The parked engine threads: up to `threads - 1`, spawned when a
    /// session first needs them, joined on drop.
    workers: Vec<Worker>,
    session: Session,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for Worker { jobs, handle, .. } in self.workers.drain(..) {
            // Closing its inbox ends the worker's loop.
            drop(jobs);
            // It can only have panicked outside a member's session, and a
            // drop must not panic: nothing to report.
            let _ = handle.join();
        }
    }
}

impl Fleet {
    /// Builds the array: validates the fleet parameters and constructs one
    /// seeded device per slot from [`FleetConfig::device_config`].
    pub fn new(config: FleetConfig) -> Result<Self, SsdError> {
        config
            .validate()
            .map_err(|reason| SsdError::InvalidConfig { reason })?;
        let mut slots = Vec::with_capacity(config.devices);
        for index in 0..config.devices {
            let ssd = Ssd::new(config.device_config(index, 0))?;
            slots.push(Slot {
                member: Some(Member::new(index, ssd)),
                generation: 0,
            });
        }
        let device_info = slots[0].ssd().expect("fresh device").info();
        let mut parity = None;
        let capacity = match config.layout {
            FleetLayout::Striped { stripe_bytes } => {
                if stripe_bytes > device_info.capacity_bytes {
                    return Err(SsdError::InvalidConfig {
                        reason: format!(
                            "stripe_bytes ({stripe_bytes}) exceeds one device's capacity ({})",
                            device_info.capacity_bytes
                        ),
                    });
                }
                striped_capacity(device_info.capacity_bytes, config.devices, stripe_bytes)
            }
            FleetLayout::Parity { stripe_bytes } => {
                if stripe_bytes > device_info.capacity_bytes {
                    return Err(SsdError::InvalidConfig {
                        reason: format!(
                            "stripe_bytes ({stripe_bytes}) exceeds one device's capacity ({})",
                            device_info.capacity_bytes
                        ),
                    });
                }
                let geom = ParityGeometry {
                    devices: config.devices,
                    stripe_bytes,
                };
                let rows = geom.rows(device_info.capacity_bytes);
                parity = Some(ParityState {
                    geom,
                    rows,
                    model: ParityModel::new(geom, rows),
                    degraded: None,
                    degraded_reads: 0,
                    repaired_reads: 0,
                    reconstructed_bytes: 0,
                });
                geom.exported_capacity(device_info.capacity_bytes)
            }
        };
        let devices = config.devices;
        Ok(Fleet {
            config,
            slots,
            capacity,
            supports_free: device_info.supports_free,
            merged_log: Vec::new(),
            last_fanout: vec![0; devices],
            rebuilt_bytes: 0,
            next_rebuild_id: 1 << 48,
            attribution: false,
            parity,
            governor: RebuildGovernor::new(RebuildQos::unthrottled()),
            last_pressure: 0,
            workers: Vec::new(),
            session: Session::default(),
        })
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of member slots (live or failed).
    pub fn devices(&self) -> usize {
        self.slots.len()
    }

    /// The concrete configuration device `index` is currently running
    /// (template + derived name and fault seed for its generation).  The
    /// 1-device equivalence tests build their standalone reference `Ssd`
    /// from this, so fleet and standalone share the exact seed stream.
    pub fn device_config(&self, index: usize) -> SsdConfig {
        self.config
            .device_config(index, self.slots[index].generation)
    }

    /// Device-level request/byte counters for member `index` (`None` while
    /// failed).
    pub fn device_stats(&self, index: usize) -> Option<SsdStats> {
        self.slots[index].ssd().map(|d| d.stats())
    }

    /// FTL counters for member `index` (`None` while failed).
    pub fn device_ftl_stats(&self, index: usize) -> Option<FtlStats> {
        self.slots[index].ssd().map(|d| d.ftl_stats())
    }

    /// Wear summary for member `index` (`None` while failed).
    pub fn device_wear_summary(&self, index: usize) -> Option<ossd_flash::WearSummary> {
        self.slots[index].ssd().map(|d| d.wear_summary())
    }

    /// Attaches one fresh [`Recorder`] to every live member and returns the
    /// recorder handles, indexed by device.  Failed slots still occupy an
    /// entry (an empty recorder) so indices line up.  Each recorder renders
    /// its member's trace with [`ossd_telemetry::to_chrome_trace`].
    pub fn attach_recorders(&mut self, config: RecorderConfig) -> Vec<Arc<Mutex<Recorder>>> {
        self.slots
            .iter_mut()
            .map(|slot| {
                let (handle, recorder) = Recorder::shared(config);
                if let Some(ssd) = slot.ssd_mut() {
                    ssd.set_telemetry(handle);
                }
                recorder
            })
            .collect()
    }

    /// Turns on latency attribution on every live member (and, sticky,
    /// on any future replacement device).  Purely observational: schedules
    /// and completions are bit-identical to an attribution-off fleet.
    pub fn enable_attribution(&mut self) {
        self.attribution = true;
        for slot in self.slots.iter_mut() {
            if let Some(ssd) = slot.ssd_mut() {
                ssd.enable_attribution();
            }
        }
    }

    /// Whether [`Fleet::enable_attribution`] has been called.
    pub fn attribution_enabled(&self) -> bool {
        self.attribution
    }

    /// Drains every live member's per-request blame records, merged into
    /// the fleet's canonical order `(finish, device, initiator, id)` and
    /// tagged with the member device index.  Per-device aggregates (class
    /// totals) stay behind on each device.
    pub fn take_blame_records(&mut self) -> Vec<(usize, BlameRecord)> {
        let mut merged: Vec<(usize, BlameRecord)> = Vec::new();
        for (device, slot) in self.slots.iter_mut().enumerate() {
            if let Some(ssd) = slot.ssd_mut() {
                merged.extend(ssd.take_blame_records().into_iter().map(|r| (device, r)));
            }
        }
        merged.sort_by_key(|(device, r)| (r.finish, *device, r.initiator, r.id));
        merged
    }

    /// The canonical merged sub-completion order of the last serve session,
    /// sorted by `(finish, device, parent sequence)`.  Bit-identical across
    /// thread counts for the same seed and workload.
    pub fn last_session_log(&self) -> &[FleetSubCompletion] {
        &self.merged_log
    }

    /// Sub-commands fanned to each device in the last serve session (a
    /// per-device queue-depth signal).
    pub fn last_fanout(&self) -> &[u32] {
        &self.last_fanout
    }

    /// Total bytes copied onto rebuild targets by [`Fleet::rebuild_range`]
    /// so far.
    pub fn rebuilt_bytes(&self) -> u64 {
        self.rebuilt_bytes
    }

    /// Sets the rebuild QoS policy (token-bucket budget + pressure
    /// backoff), resetting the governor's bucket.
    pub fn set_rebuild_qos(&mut self, qos: RebuildQos) {
        self.governor = RebuildGovernor::new(qos);
    }

    /// When a `bytes`-sized rebuild chunk requested at `at` *would* be
    /// admitted under the current QoS policy and host pressure — without
    /// consuming any budget.  Callers pacing rebuild against foreground
    /// epochs use this to defer chunks that would overrun the epoch.
    pub fn preview_rebuild_admission(&self, at: SimTime, bytes: u64) -> SimTime {
        self.governor.clone().admit(at, bytes, self.last_pressure)
    }

    /// The degraded member and its rebuild watermark (rows reconstructed
    /// so far), if the parity fleet is degraded.
    pub fn degraded_device(&self) -> Option<(usize, u64)> {
        self.parity
            .as_ref()
            .and_then(|ps| ps.degraded.map(|v| (v.device, v.rebuilt_rows)))
    }

    /// Rows per member device of a parity fleet.
    pub fn parity_rows(&self) -> Option<u64> {
        self.parity.as_ref().map(|ps| ps.rows)
    }

    /// Host read commands served by XOR reconstruction so far.
    pub fn degraded_reads(&self) -> u64 {
        self.parity.as_ref().map_or(0, |ps| ps.degraded_reads)
    }

    /// Uncorrectable sub-reads transparently repaired from parity so far.
    pub fn repaired_reads(&self) -> u64 {
        self.parity.as_ref().map_or(0, |ps| ps.repaired_reads)
    }

    /// Survivor bytes read purely for reconstruction or repair so far.
    pub fn reconstructed_bytes(&self) -> u64 {
        self.parity.as_ref().map_or(0, |ps| ps.reconstructed_bytes)
    }

    /// The fingerprint a host read of the unit containing `offset` returns
    /// under the current degraded view (parity fleets only) — the shadow
    /// content model's answer, used by tests to pin degraded-read
    /// equivalence.
    pub fn read_fingerprint(&self, offset: u64) -> Option<u64> {
        self.parity
            .as_ref()
            .map(|ps| ps.model.read_word(offset, ps.degraded))
    }

    /// The oracle fingerprint for the unit containing `offset` (what the
    /// last write to it stored), parity fleets only.
    pub fn expected_fingerprint(&self, offset: u64) -> Option<u64> {
        self.parity
            .as_ref()
            .map(|ps| ps.model.expected_word(offset))
    }

    /// Recomputes parity across every row of the shadow content model and
    /// checks every readable unit against the write oracle (parity fleets
    /// only).
    pub fn scrub(&self) -> Option<ScrubReport> {
        self.parity.as_ref().map(|ps| ps.model.scrub(ps.degraded))
    }

    /// Fails member `index`: the device and its data vanish.  Striped
    /// fleets reject failure outright (no redundancy); parity fleets
    /// tolerate exactly one degraded member at a time.  Failing an already-failed device is the
    /// typed no-op [`DeviceError::AlreadyFailed`].
    pub fn fail_device(&mut self, index: usize) -> Result<(), DeviceError> {
        if index >= self.slots.len() {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "device {index} is out of range for fleet '{}' with {} devices",
                    self.config.name,
                    self.slots.len()
                ),
            });
        }
        if self.slots[index].member.is_none() {
            return Err(DeviceError::AlreadyFailed { device: index });
        }
        match self.config.layout {
            FleetLayout::Striped { .. } => Err(DeviceError::Redundancy {
                what: format!(
                    "fleet '{}' is striped (non-redundant): failing device {index} would lose data",
                    self.config.name
                ),
            }),
            FleetLayout::Parity { .. } => {
                let ps = self.parity.as_mut().expect("parity state");
                if let Some(view) = ps.degraded {
                    return Err(DeviceError::Redundancy {
                        what: format!(
                            "fleet '{}' is already degraded on device {}: failing device \
                             {index} too would exceed single-parity tolerance",
                            self.config.name, view.device
                        ),
                    });
                }
                ps.degraded = Some(DegradedView {
                    device: index,
                    rebuilt_rows: 0,
                });
                ps.model.fail(index);
                self.slots[index].member = None;
                Ok(())
            }
        }
    }

    /// Replaces failed member `index` with a factory-fresh device on the
    /// next seed-stream generation.  The replacement holds no data until
    /// [`Fleet::rebuild_range`] reconstructs it; the fleet stays degraded
    /// — serving the not-yet-rebuilt rows from the survivors — until the
    /// rebuild watermark reaches the last row.
    pub fn replace_device(&mut self, index: usize) -> Result<(), DeviceError> {
        if index >= self.slots.len() {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "device {index} is out of range for fleet '{}' with {} devices",
                    self.config.name,
                    self.slots.len()
                ),
            });
        }
        if self.slots[index].member.is_some() {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "replacing device {index} of fleet '{}': it has not failed",
                    self.config.name
                ),
            });
        }
        let generation = self.slots[index].generation + 1;
        let config = self.config.device_config(index, generation);
        let mut ssd = Ssd::new(config).map_err(|e| DeviceError::Internal(e.to_string()))?;
        if self.attribution {
            ssd.enable_attribution();
        }
        self.slots[index].member = Some(Member::new(index, ssd));
        self.slots[index].generation = generation;
        Ok(())
    }

    /// Rebuilds one range onto device `target` of a parity fleet, admitted
    /// through the rebuild QoS governor (token-bucket budget +
    /// host-pressure backoff).  `range` is *device-local* and must continue
    /// stripe-aligned at the rebuild watermark; the rows are re-read from
    /// every surviving member, XOR-reconstructed and written to the
    /// replacement, advancing the watermark (the fleet leaves degraded
    /// mode when the watermark passes the last row).
    ///
    /// Returns the `(read, write)` completions — the read is the aggregate
    /// over the survivors (earliest start, latest finish, worst status) —
    /// so callers can account rebuild bandwidth in sim time.
    pub fn rebuild_range(
        &mut self,
        target: usize,
        range: ByteRange,
        at: SimTime,
    ) -> Result<(Completion, Completion), DeviceError> {
        if target >= self.slots.len() {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "rebuild target {target} is out of range for fleet '{}' with {} devices",
                    self.config.name,
                    self.slots.len()
                ),
            });
        }
        match self.config.layout {
            FleetLayout::Striped { .. } => Err(DeviceError::Redundancy {
                what: format!(
                    "fleet '{}' is striped (non-redundant): nothing to rebuild onto device \
                     {target}",
                    self.config.name
                ),
            }),
            FleetLayout::Parity { .. } => self.rebuild_parity_range(target, range, at),
        }
    }

    /// The parity arm of [`Fleet::rebuild_range`]: XOR reconstruction of
    /// device-local rows onto the replacement, advancing the watermark.
    fn rebuild_parity_range(
        &mut self,
        target: usize,
        range: ByteRange,
        at: SimTime,
    ) -> Result<(Completion, Completion), DeviceError> {
        let ps = self.parity.as_ref().expect("parity state");
        let stripe = ps.geom.stripe_bytes;
        let rows = ps.rows;
        let Some(view) = ps.degraded else {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "fleet '{}' is not degraded: nothing to rebuild onto device {target}",
                    self.config.name
                ),
            });
        };
        if view.device != target {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "rebuild targets device {target} but fleet '{}' is degraded on device {}",
                    self.config.name, view.device
                ),
            });
        }
        if self.slots[target].member.is_none() {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "rebuild onto failed device {target} of fleet '{}': replace it first",
                    self.config.name
                ),
            });
        }
        if range.len == 0
            || !range.offset.is_multiple_of(stripe)
            || !range.len.is_multiple_of(stripe)
        {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "parity rebuild range on device {target} must be a positive multiple of \
                     the {stripe}-byte stripe (got offset {}, len {})",
                    range.offset, range.len
                ),
            });
        }
        let r0 = range.offset / stripe;
        let r1 = range.end() / stripe;
        if r0 != view.rebuilt_rows {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "parity rebuild on device {target} must continue at watermark row {} \
                     (got row {r0})",
                    view.rebuilt_rows
                ),
            });
        }
        if r1 > rows {
            return Err(DeviceError::Redundancy {
                what: format!(
                    "parity rebuild on device {target} runs past the last row ({r1} > {rows})"
                ),
            });
        }
        let admitted = self.governor.admit(at, range.len, self.last_pressure);
        // Read the rows' local bytes from every surviving member.
        let mut read_agg: Option<Completion> = None;
        for m in 0..self.slots.len() {
            if m == target {
                continue;
            }
            let id = self.next_rebuild_id;
            self.next_rebuild_id += 1;
            let ssd = self.slots[m]
                .ssd_mut()
                .ok_or_else(|| DeviceError::Redundancy {
                    what: format!(
                        "parity rebuild of device {target} needs surviving member {m} of \
                         fleet '{}', but it is failed",
                        self.config.name
                    ),
                })?;
            let c = ssd.submit(&BlockRequest::read(id, range.offset, range.len, admitted))?;
            read_agg = Some(match read_agg {
                None => c,
                Some(agg) => Completion {
                    request_id: agg.request_id,
                    arrival: agg.arrival,
                    start: agg.start.min(c.start),
                    finish: agg.finish.max(c.finish),
                    status: if agg.status.is_ok() {
                        c.status
                    } else {
                        agg.status
                    },
                },
            });
        }
        let read = read_agg.expect("parity fleet has at least two survivors");
        let write_id = self.next_rebuild_id;
        self.next_rebuild_id += 1;
        let write =
            self.slots[target]
                .ssd_mut()
                .expect("checked live")
                .submit(&BlockRequest::write(
                    write_id,
                    range.offset,
                    range.len,
                    read.finish,
                ))?;
        let ps = self.parity.as_mut().expect("parity state");
        ps.model.rebuild_rows(target, r0, r1);
        ps.reconstructed_bytes += range.len * (self.slots.len() as u64 - 1);
        ps.degraded = if r1 >= rows {
            None
        } else {
            Some(DegradedView {
                device: target,
                rebuilt_rows: r1,
            })
        };
        self.rebuilt_bytes += range.len;
        Ok((read, write))
    }

    /// Step 3: fans the validated session out into the live members'
    /// mirrored queues and fills `session.parents`.  A striped layout
    /// produces at most one sub-command per device; parity planning may
    /// produce several (coalesced, deterministic
    /// order).  Sub-commands use the parent's arbitration sequence as
    /// correlation id, and inherit arrival/priority, so each device's own
    /// arbitration sees the same arrival-ordered stream the global arbiter
    /// saw.
    fn fan_out(
        &mut self,
        session: &mut Session,
        arbitrated: &[ArbitratedCommand],
        initiators: usize,
    ) {
        let Session {
            parents,
            live,
            plan,
            per_initiator,
            completed,
            ..
        } = session;
        live.clear();
        for (device, slot) in self.slots.iter_mut().enumerate() {
            if let Some(member) = slot.member.as_mut() {
                live.push(device);
                // A session aborted by a member error leaves submissions
                // and completions behind.
                member.queues.resize_with(initiators, HostQueue::new);
                member.queues.iter_mut().for_each(HostQueue::reset);
            }
        }
        parents.clear();
        completed.clear();
        per_initiator.clear();
        per_initiator.resize(initiators, 0);
        for (seq, cmd) in arbitrated.iter().enumerate() {
            let sub = cmd.submission;
            per_initiator[cmd.initiator] += 1;
            let mut subs = 0u32;
            let mut emit = |device: usize, command: HostCommand| {
                self.slots[device]
                    .member
                    .as_mut()
                    .expect("routing only targets live devices")
                    .queues[cmd.initiator]
                    .submit_with_priority(seq as u64, command, sub.arrival, sub.priority);
                self.last_fanout[device] += 1;
                subs += 1;
            };
            match (self.config.layout, data_op(&sub.command)) {
                // Fences order the whole array.
                (_, None) => live.iter().for_each(|&d| emit(d, sub.command)),
                (FleetLayout::Striped { stripe_bytes }, Some((kind, range, hint))) => {
                    for slice in striped_slices(range, self.config.devices, stripe_bytes) {
                        emit(slice.device, sub_command(kind, slice.range, hint));
                    }
                }
                (FleetLayout::Parity { .. }, Some((kind, range, hint))) => {
                    let ps = self.parity.as_mut().expect("parity state");
                    let (degraded_rows, reconstruction_read_bytes) =
                        parity::plan_into(plan, &ps.geom, ps.degraded, kind, range);
                    for op in plan.iter() {
                        emit(op.device, sub_command(op.kind, op.range, hint));
                    }
                    // Shadow content model + reconstruction accounting.
                    if kind == SubOpKind::Write {
                        ps.model.apply_write(range, ps.degraded);
                    }
                    if kind == SubOpKind::Read && degraded_rows > 0 {
                        ps.degraded_reads += 1;
                    }
                    ps.reconstructed_bytes += reconstruction_read_bytes;
                }
            }
            // Only a parity free whose every covered unit is degraded may
            // fan to nothing (nothing live to trim); it completes at once.
            debug_assert!(
                subs > 0 || matches!(sub.command, HostCommand::Free { .. }),
                "every non-free command routes somewhere"
            );
            if subs == 0 {
                completed.push((
                    seq as u64,
                    cmd.initiator,
                    Completion::ok(sub.id, sub.arrival, sub.arrival, sub.arrival),
                ));
            }
            parents.push(Parent {
                initiator: cmd.initiator,
                id: sub.id,
                arrival: sub.arrival,
                command: sub.command,
                subs,
                remaining: subs,
                start: SimTime::MAX,
                status: CompletionStatus::Ok,
            });
        }
        // The host-pressure signal the rebuild governor reads: the busiest
        // initiator's command count this session.
        self.last_pressure = per_initiator.iter().copied().max().unwrap_or(0);
    }

    /// Step 4: deals the touched members into one chunk per engine thread,
    /// serves the first on this thread and the others on the parked
    /// workers, and puts every member back in its slot.  Returns how many
    /// of `session.chunks` hold a run.  Devices own their entire
    /// simulation state, so the partition cannot affect results.
    fn execute(&mut self, session: &mut Session) -> Result<usize, DeviceError> {
        let touched = self.last_fanout.iter().filter(|&&n| n > 0).count();
        // A one-command session is served where it was submitted: waking a
        // worker and taking its chunk back costs more than the members'
        // share of one command.
        let engines = if session.parents.len() == 1 {
            1
        } else {
            self.config.threads.min(touched).max(1)
        };
        let per_chunk = touched.div_ceil(engines).max(1);
        let used = touched.div_ceil(per_chunk);
        while self.workers.len() + 1 < used {
            let name = format!("{}-engine{}", self.config.name, self.workers.len() + 1);
            let worker = Worker::spawn(name).map_err(|e| {
                DeviceError::Internal(format!("spawning a fleet engine thread: {e}"))
            })?;
            self.workers.push(worker);
        }
        if session.chunks.len() < used {
            session.chunks.resize_with(used, Chunk::default);
        }
        let chunks = &mut session.chunks[..used];
        let mut touched_devices = (0..self.slots.len()).filter(|&d| self.last_fanout[d] > 0);
        for chunk in chunks.iter_mut() {
            for device in touched_devices.by_ref().take(per_chunk) {
                let member = self.slots[device].member.take();
                chunk
                    .members
                    .push(member.expect("routing only targets live devices"));
            }
        }
        if let Some((mine, theirs)) = chunks.split_first_mut() {
            for (worker, chunk) in self.workers.iter().zip(theirs.iter_mut()) {
                worker
                    .jobs
                    .send(std::mem::take(chunk))
                    .expect("an engine thread lives as long as its fleet");
            }
            mine.serve();
            for (worker, chunk) in self.workers.iter().zip(theirs.iter_mut()) {
                *chunk = worker
                    .done
                    .recv()
                    .expect("an engine thread answers every chunk it is sent");
            }
        }
        let (mut failed, mut panic) = (None, None);
        for chunk in chunks.iter_mut() {
            for member in chunk.members.drain(..) {
                let device = member.device;
                self.slots[device].member = Some(member);
            }
            failed = failed.or(chunk.failed.take());
            panic = panic.or(chunk.panic.take());
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        match failed {
            // Unreachable after step-2 validation; if a device still
            // errors, its session may be partially applied, so report it
            // as an internal fault rather than a clean rejection.
            Some((device, e)) => Err(DeviceError::Internal(format!(
                "device {device} failed mid-session: {e}"
            ))),
            None => Ok(used),
        }
    }

    /// Step 5: merges the engines' runs into `merged`, repairs
    /// uncorrectable parity reads, reduces the log to one completion per
    /// parent and posts them.
    fn merge_and_post(
        &mut self,
        session: &mut Session,
        runs: usize,
        merged: &mut Vec<FleetSubCompletion>,
        queues: &mut [HostQueue],
    ) -> Result<(), DeviceError> {
        let Session {
            parents,
            chunks,
            completed,
            ..
        } = session;
        merge_runs(chunks[..runs].iter().map(|c| c.run.as_slice()), merged);
        if self.parity.is_some() && self.repair_uncorrectable(merged, parents) {
            // Repairs only push finishes later; re-impose canonical order.
            merged.sort_by_key(FleetSubCompletion::key);
        }
        // The log ascends in finish time, so a parent's last
        // sub-completion carries its finish.
        for sub in merged.iter_mut() {
            let parent = &mut parents[sub.parent_seq as usize];
            sub.request_id = parent.id;
            parent.start = parent.start.min(sub.start);
            if !sub.status.is_ok() {
                parent.status = sub.status;
            }
            match parent.remaining.checked_sub(1) {
                Some(remaining) => parent.remaining = remaining,
                None => {
                    return Err(DeviceError::Internal(format!(
                        "command {} completed more than its {} sub-commands",
                        sub.parent_seq, parent.subs
                    )))
                }
            }
            if parent.remaining == 0 {
                completed.push((
                    sub.parent_seq,
                    parent.initiator,
                    Completion {
                        request_id: parent.id,
                        arrival: parent.arrival,
                        start: parent.start,
                        finish: sub.finish,
                        status: parent.status,
                    },
                ));
            }
        }
        if completed.len() < parents.len() {
            let (seq, parent) = (parents.iter().enumerate())
                .find(|(_, p)| p.remaining > 0)
                .expect("a parent without a completion has sub-commands outstanding");
            return Err(DeviceError::Internal(format!(
                "command {seq} completed {got}/{want} sub-commands",
                got = parent.subs - parent.remaining,
                want = parent.subs
            )));
        }
        // What `complete_session` does with an arbitration-ordered list:
        // consume the submissions, post in completion order with ties in
        // arbitration order.  `completed` is already in finish order but
        // for such ties and the commands that completed at fan-out.
        completed.sort_by_key(|&(seq, _, c)| (c.finish, seq));
        queues.iter_mut().for_each(HostQueue::consume_submissions);
        for &(_, initiator, completion) in completed.iter() {
            queues[initiator].post_completion(completion);
        }
        Ok(())
    }

    /// Step-5 repair pass (parity fleets): walks the canonical merged
    /// order and, for every failed sub-read whose row members all survive,
    /// re-reads the windows from the other members, XOR-reconstructs and
    /// rewrites them on the failing device, then marks the sub-completion
    /// repaired.  Runs single-threaded in canonical order, so the repair
    /// schedule is deterministic.  A repair whose own survivor reads fail
    /// (double fault) leaves the original uncorrectable status in place.
    /// Returns whether any sub-completion was repaired (and so finishes
    /// later than the order `merged` was sorted in).
    fn repair_uncorrectable(
        &mut self,
        merged: &mut [FleetSubCompletion],
        parents: &[Parent],
    ) -> bool {
        let mut repaired = false;
        let (geom, degraded) = {
            let ps = self.parity.as_ref().expect("parity fleet");
            (ps.geom, ps.degraded)
        };
        let stripe = geom.stripe_bytes;
        for sub in merged.iter_mut() {
            if sub.status.is_ok() {
                continue;
            }
            let parent = &parents[sub.parent_seq as usize];
            let Some((kind @ (SubOpKind::Read | SubOpKind::Write), range, _)) =
                data_op(&parent.command)
            else {
                continue;
            };
            let specs = parity::read_specs(&geom, degraded, kind, range, sub.device);
            if specs.is_empty() {
                continue;
            }
            // Repair needs every *other* member of each touched row: with
            // a degraded member elsewhere, only rows below its rebuild
            // watermark are reconstructible.
            let repairable = specs.iter().all(|spec| {
                let r0 = spec.offset / stripe;
                let r1 = (spec.end() - 1) / stripe;
                (r0..=r1).all(|row| match degraded {
                    None => true,
                    Some(v) => v.device == sub.device || row < v.rebuilt_rows,
                })
            });
            if !repairable {
                continue;
            }
            let mut cursor = sub.finish;
            let mut ok = true;
            let mut recon_bytes = 0u64;
            'specs: for spec in &specs {
                let mut read_max = cursor;
                for m in 0..self.slots.len() {
                    if m == sub.device {
                        continue;
                    }
                    let Some(ssd) = self.slots[m].ssd_mut() else {
                        ok = false;
                        break 'specs;
                    };
                    let id = self.next_rebuild_id;
                    self.next_rebuild_id += 1;
                    match ssd.submit(&BlockRequest::read(id, spec.offset, spec.len, cursor)) {
                        Ok(c) if c.status.is_ok() => {
                            read_max = read_max.max(c.finish);
                            recon_bytes += spec.len;
                        }
                        _ => {
                            ok = false;
                            break 'specs;
                        }
                    }
                }
                let id = self.next_rebuild_id;
                self.next_rebuild_id += 1;
                let target = self.slots[sub.device]
                    .ssd_mut()
                    .expect("failing sub-read came from a live member");
                match target.submit(&BlockRequest::write(id, spec.offset, spec.len, read_max)) {
                    Ok(w) => cursor = w.finish,
                    Err(_) => {
                        ok = false;
                        break 'specs;
                    }
                }
            }
            if ok {
                repaired = true;
                sub.status = CompletionStatus::Ok;
                sub.finish = cursor;
                let ps = self.parity.as_mut().expect("parity fleet");
                ps.repaired_reads += 1;
                ps.reconstructed_bytes += recon_bytes;
            }
        }
        repaired
    }
}

impl BlockDevice for Fleet {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: format!(
                "{} ({}x {}, {})",
                self.config.name,
                self.slots.len(),
                self.config.device.name,
                self.config.layout.name()
            ),
            capacity_bytes: self.capacity,
            supports_free: self.supports_free,
        }
    }

    // Bounds checks run per command; `info()` formats the fleet's name.
    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
        let mut queues = [HostQueue::new()];
        queues[0].submit_request(request);
        self.serve(&mut queues)?;
        queues[0]
            .poll()
            .ok_or_else(|| DeviceError::Internal("fleet serve posted no completion".to_string()))
    }
}

impl HostInterface for Fleet {
    /// Serves the initiator queues across the whole array; see the
    /// [module docs](self) for the five-step session pipeline and its
    /// determinism guarantees.
    fn serve(&mut self, queues: &mut [HostQueue]) -> Result<(), DeviceError> {
        let arbitrated = arbitrate_round_robin(queues);
        if arbitrated.is_empty() {
            self.merged_log.clear();
            self.last_fanout.fill(0);
            return Ok(());
        }
        // Step 2: validate the whole session before any device runs, so a
        // rejected command leaves every submission queued on every queue
        // and the last session's log, fan-out and pressure as they were.
        for cmd in &arbitrated {
            if let Some(range) = cmd.submission.command.range() {
                if range.len == 0 {
                    return Err(DeviceError::EmptyRequest);
                }
                if range.end() > self.capacity {
                    return Err(DeviceError::OutOfBounds {
                        end: range.end(),
                        capacity: self.capacity,
                    });
                }
            }
        }
        if self.slots.iter().all(|slot| slot.member.is_none()) {
            return Err(DeviceError::Unsupported {
                what: "serving a fleet with no live devices",
            });
        }
        self.last_fanout.fill(0);
        // Steps 3-5 borrow the fleet and the session's buffers apart.
        let mut session = std::mem::take(&mut self.session);
        let mut merged = std::mem::take(&mut self.merged_log);
        merged.clear();
        self.fan_out(&mut session, &arbitrated, queues.len());
        let served = self
            .execute(&mut session)
            .and_then(|runs| self.merge_and_post(&mut session, runs, &mut merged, queues));
        if served.is_err() {
            merged.clear();
        }
        self.session = session;
        self.merged_log = merged;
        served
    }
}

#[cfg(test)]
mod tests;
