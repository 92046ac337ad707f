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
//!    device-local range per device (see [`crate::router`]); replication
//!    mirrors writes and routes reads to one replica; rotating parity
//!    plans data + parity updates, routing around a degraded member (see
//!    [`crate::parity`]) — a parity command may issue several coalesced
//!    sub-commands per device.  Sub-commands preserve the parent's
//!    arrival, priority and write hint, and carry the parent's arbitration
//!    sequence number as their correlation id.
//! 4. **Execute** each device's session on a worker thread
//!    ([`std::thread::scope`]; devices are chunked across
//!    [`FleetConfig::threads`] workers).  Devices share *no* simulation
//!    state — each `Ssd` is `Send` and wholly owned by its work item, and
//!    per-device RNG streams are sharded via
//!    [`ossd_sim::derive_stream_seed`] — so the thread count and OS
//!    schedule cannot affect any device's result, only wall-clock time.
//! 5. **Merge** every device's completions into one canonical order sorted
//!    by `(finish time, device index, parent sequence)`.  On a parity
//!    fleet, an [`CompletionStatus::UncorrectableRead`] sub-completion
//!    from a *live* member is then transparently repaired: the lost
//!    windows are re-read from the other members, XOR-reconstructed and
//!    rewritten, all in canonical order on one thread, so the repair
//!    schedule is itself deterministic.  Finally the sub-completions are
//!    reduced to per-parent completions (start = earliest sub-start,
//!    finish = latest sub-finish, status = worst sub-status) and posted
//!    through [`complete_session`] in arbitration order — bit-identical
//!    for every thread count, and for a 1-device fleet bit-identical to
//!    serving the standalone device.

use ossd_block::{
    arbitrate_round_robin, complete_session, BlockDevice, BlockRequest, ByteRange, Completion,
    CompletionStatus, DeviceError, DeviceInfo, HostCommand, HostInterface, HostQueue, WriteHint,
};
use ossd_ftl::FtlStats;
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdConfig, SsdError, SsdStats};
use ossd_telemetry::{BlameRecord, Recorder, RecorderConfig};
use std::sync::{Arc, Mutex};

use crate::config::{FleetConfig, FleetLayout};
use crate::parity::{self, DegradedView, ParityGeometry, ParityModel, ScrubReport, SubOpKind};
use crate::qos::{RebuildGovernor, RebuildQos};
use crate::router::{split_striped, striped_capacity};
use crate::telemetry::{FleetSample, FleetSeries};

/// One member device's slot in the array.
struct Slot {
    /// The device, or `None` while failed.
    ssd: Option<Ssd>,
    /// Replacement generation: 0 for the original member, incremented by
    /// every [`Fleet::replace_device`] (feeds per-device seed derivation).
    generation: u64,
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

/// The per-device fan-out of one command plus its reconstruction
/// accounting.
struct Fanout {
    subs: Vec<(usize, HostCommand)>,
    degraded_rows: u64,
    reconstruction_read_bytes: u64,
}

impl Fanout {
    fn plain(subs: Vec<(usize, HostCommand)>) -> Self {
        Fanout {
            subs,
            degraded_rows: 0,
            reconstruction_read_bytes: 0,
        }
    }

    fn from_plan(plan: parity::ParityPlan, hint: WriteHint) -> Self {
        let subs = plan
            .ops
            .iter()
            .map(|op| {
                let cmd = match op.kind {
                    SubOpKind::Read => HostCommand::Read { range: op.range },
                    SubOpKind::Write => HostCommand::Write {
                        range: op.range,
                        hint,
                    },
                    SubOpKind::Free => HostCommand::Free { range: op.range },
                };
                (op.device, cmd)
            })
            .collect();
        Fanout {
            subs,
            degraded_rows: plan.degraded_rows,
            reconstruction_read_bytes: plan.reconstruction_read_bytes,
        }
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
    /// Routing granularity for replicated reads (one device logical page).
    route_unit: u64,
    merged_log: Vec<FleetSubCompletion>,
    last_fanout: Vec<u32>,
    rebuilt_bytes: u64,
    next_rebuild_id: u64,
    series: FleetSeries,
    /// Whether latency attribution is enabled fleet-wide (sticky, so
    /// replacement devices inherit it).
    attribution: bool,
    /// Parity bookkeeping (`None` for striped/replicated layouts).
    parity: Option<ParityState>,
    /// Admission control for rebuild traffic.
    governor: RebuildGovernor,
    /// Max per-initiator command count of the last serve session — the
    /// host-pressure signal the rebuild governor reads.
    last_pressure: u32,
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
                ssd: Some(ssd),
                generation: 0,
            });
        }
        let device_info = slots[0].ssd.as_ref().expect("fresh device").info();
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
            FleetLayout::Replicated => device_info.capacity_bytes,
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
        let route_unit = slots[0]
            .ssd
            .as_ref()
            .expect("fresh device")
            .logical_page_bytes();
        let devices = config.devices;
        Ok(Fleet {
            config,
            slots,
            capacity,
            supports_free: device_info.supports_free,
            route_unit,
            merged_log: Vec::new(),
            last_fanout: vec![0; devices],
            rebuilt_bytes: 0,
            next_rebuild_id: 1 << 48,
            series: FleetSeries::new(),
            attribution: false,
            parity,
            governor: RebuildGovernor::new(RebuildQos::unthrottled()),
            last_pressure: 0,
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

    /// Indices of the live member devices, ascending.
    pub fn live_indices(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.ssd.as_ref().map(|_| i))
            .collect()
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
        self.slots[index].ssd.as_ref().map(|d| d.stats())
    }

    /// FTL counters for member `index` (`None` while failed).
    pub fn device_ftl_stats(&self, index: usize) -> Option<FtlStats> {
        self.slots[index].ssd.as_ref().map(|d| d.ftl_stats())
    }

    /// Wear summary for member `index` (`None` while failed).
    pub fn device_wear_summary(&self, index: usize) -> Option<ossd_flash::WearSummary> {
        self.slots[index].ssd.as_ref().map(|d| d.wear_summary())
    }

    /// Attaches one fresh [`Recorder`] to every live member and returns the
    /// recorder handles, indexed by device.  Failed slots still occupy an
    /// entry (an empty recorder) so indices line up.
    pub fn attach_recorders(&mut self, config: RecorderConfig) -> Vec<Arc<Mutex<Recorder>>> {
        self.slots
            .iter_mut()
            .map(|slot| {
                let (handle, recorder) = Recorder::shared(config);
                if let Some(ssd) = slot.ssd.as_mut() {
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
            if let Some(ssd) = slot.ssd.as_mut() {
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
    /// tagged with the member device index.  Per-device aggregates
    /// (histograms, class totals) stay behind on each device.
    pub fn take_blame_records(&mut self) -> Vec<(usize, BlameRecord)> {
        let mut merged: Vec<(usize, BlameRecord)> = Vec::new();
        for (device, slot) in self.slots.iter_mut().enumerate() {
            if let Some(ssd) = slot.ssd.as_mut() {
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
    /// per-device queue-depth signal for the metrics series).
    pub fn last_fanout(&self) -> &[u32] {
        &self.last_fanout
    }

    /// Max per-initiator command count of the last serve session — the
    /// host-pressure signal fed to the rebuild governor.
    pub fn last_pressure(&self) -> u32 {
        self.last_pressure
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

    /// Fleet-level metrics series (populated by
    /// [`Fleet::sample_metrics`]).
    pub fn series(&self) -> &FleetSeries {
        &self.series
    }

    /// Pushes one fleet-level metrics sample: cumulative per-device host
    /// bytes, the last session's per-device fan-out depth, rebuild
    /// progress and degraded/repair counters.
    pub fn sample_metrics(&mut self, now: SimTime) {
        let device_bytes: Vec<u64> = self
            .slots
            .iter()
            .map(|slot| {
                slot.ssd
                    .as_ref()
                    .map(|d| {
                        let stats = d.stats();
                        stats.bytes_read + stats.bytes_written
                    })
                    .unwrap_or(0)
            })
            .collect();
        let host_bytes_total = device_bytes.iter().sum();
        self.series.push(FleetSample {
            at: now,
            host_bytes_total,
            device_bytes,
            device_depth: self.last_fanout.clone(),
            rebuilt_bytes: self.rebuilt_bytes,
            degraded_reads: self.degraded_reads(),
            repaired_reads: self.repaired_reads(),
        });
    }

    /// Fails member `index`: the device and its data vanish.  Striped
    /// fleets reject failure outright (no redundancy); replicated fleets
    /// must keep one live replica; parity fleets tolerate exactly one
    /// degraded member at a time.  Failing an already-failed device is the
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
        if self.slots[index].ssd.is_none() {
            return Err(DeviceError::AlreadyFailed { device: index });
        }
        match self.config.layout {
            FleetLayout::Striped { .. } => Err(DeviceError::Redundancy {
                what: format!(
                    "fleet '{}' is striped (non-redundant): failing device {index} would lose data",
                    self.config.name
                ),
            }),
            FleetLayout::Replicated => {
                if self.live_indices().len() <= 1 {
                    return Err(DeviceError::Redundancy {
                        what: format!(
                            "failing device {index} would leave fleet '{}' with no live replica",
                            self.config.name
                        ),
                    });
                }
                self.slots[index].ssd = None;
                Ok(())
            }
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
                self.slots[index].ssd = None;
                Ok(())
            }
        }
    }

    /// Replaces failed member `index` with a factory-fresh device on the
    /// next seed-stream generation.  The replacement holds no data until
    /// [`Fleet::rebuild_range`] copies it back (replica copy or parity
    /// reconstruction); a parity fleet stays degraded — serving the
    /// not-yet-rebuilt rows from the survivors — until the rebuild
    /// watermark reaches the last row.
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
        if self.slots[index].ssd.is_some() {
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
        self.slots[index].ssd = Some(ssd);
        self.slots[index].generation = generation;
        Ok(())
    }

    /// Rebuilds one range onto device `target`, admitted through the
    /// rebuild QoS governor (token-bucket budget + host-pressure backoff).
    ///
    /// * **Replicated**: copies the exported range from the lowest-indexed
    ///   other live replica (read, then a write arriving as the read
    ///   completes).
    /// * **Parity**: `range` is *device-local* and must continue
    ///   stripe-aligned at the rebuild watermark; the rows are re-read
    ///   from every surviving member, XOR-reconstructed and written to the
    ///   replacement, advancing the watermark (the fleet leaves degraded
    ///   mode when the watermark passes the last row).
    ///
    /// Returns the `(read, write)` completions — for parity the read is
    /// the aggregate over the survivors (earliest start, latest finish,
    /// worst status) — so callers can account rebuild bandwidth in sim
    /// time.
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
            FleetLayout::Replicated => {
                let source = self
                    .live_indices()
                    .into_iter()
                    .find(|&i| i != target)
                    .ok_or_else(|| DeviceError::Redundancy {
                        what: format!(
                            "rebuild of device {target} on fleet '{}' has no live source replica",
                            self.config.name
                        ),
                    })?;
                if self.slots[target].ssd.is_none() {
                    return Err(DeviceError::Redundancy {
                        what: format!(
                            "rebuild onto failed device {target} of fleet '{}': replace it first",
                            self.config.name
                        ),
                    });
                }
                let admitted = self.governor.admit(at, range.len, self.last_pressure);
                let read_id = self.next_rebuild_id;
                let write_id = self.next_rebuild_id + 1;
                self.next_rebuild_id += 2;
                let read = self.slots[source]
                    .ssd
                    .as_mut()
                    .expect("live source")
                    .submit(&BlockRequest::read(
                        read_id,
                        range.offset,
                        range.len,
                        admitted,
                    ))?;
                let write = self.slots[target]
                    .ssd
                    .as_mut()
                    .expect("checked live")
                    .submit(&BlockRequest::write(
                        write_id,
                        range.offset,
                        range.len,
                        read.finish,
                    ))?;
                self.rebuilt_bytes += range.len;
                Ok((read, write))
            }
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
        if self.slots[target].ssd.is_none() {
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
                .ssd
                .as_mut()
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
        let write = self.slots[target]
            .ssd
            .as_mut()
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

    /// Routes one validated command to its member devices.  Striped and
    /// replicated layouts produce at most one sub-command per device;
    /// parity planning may produce several (coalesced, deterministic
    /// order).
    fn fan_out(&self, command: &HostCommand, live: &[usize]) -> Fanout {
        match self.config.layout {
            FleetLayout::Striped { stripe_bytes } => match *command {
                HostCommand::Read { range } => Fanout::plain(
                    split_striped(range, self.slots.len(), stripe_bytes)
                        .into_iter()
                        .map(|s| (s.device, HostCommand::Read { range: s.range }))
                        .collect(),
                ),
                HostCommand::Write { range, hint } => Fanout::plain(
                    split_striped(range, self.slots.len(), stripe_bytes)
                        .into_iter()
                        .map(|s| {
                            (
                                s.device,
                                HostCommand::Write {
                                    range: s.range,
                                    hint,
                                },
                            )
                        })
                        .collect(),
                ),
                HostCommand::Free { range } => Fanout::plain(
                    split_striped(range, self.slots.len(), stripe_bytes)
                        .into_iter()
                        .map(|s| (s.device, HostCommand::Free { range: s.range }))
                        .collect(),
                ),
                // Fences order the whole array.
                _ => Fanout::plain(live.iter().map(|&d| (d, *command)).collect()),
            },
            FleetLayout::Replicated => match *command {
                // One replica serves the read; the choice is a pure
                // function of the address and the live set.
                HostCommand::Read { range } => {
                    let replica = live[(range.offset / self.route_unit) as usize % live.len()];
                    Fanout::plain(vec![(replica, *command)])
                }
                // Writes, frees and fences mirror to every live replica.
                _ => Fanout::plain(live.iter().map(|&d| (d, *command)).collect()),
            },
            FleetLayout::Parity { .. } => {
                let ps = self.parity.as_ref().expect("parity state");
                match *command {
                    HostCommand::Read { range } => Fanout::from_plan(
                        parity::plan(&ps.geom, ps.degraded, SubOpKind::Read, range),
                        WriteHint::NONE,
                    ),
                    HostCommand::Write { range, hint } => Fanout::from_plan(
                        parity::plan(&ps.geom, ps.degraded, SubOpKind::Write, range),
                        hint,
                    ),
                    HostCommand::Free { range } => Fanout::from_plan(
                        parity::plan(&ps.geom, ps.degraded, SubOpKind::Free, range),
                        WriteHint::NONE,
                    ),
                    // Fences order the whole array.
                    _ => Fanout::plain(live.iter().map(|&d| (d, *command)).collect()),
                }
            }
        }
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
            let (kind, range) = match parent.command {
                HostCommand::Read { range } => (SubOpKind::Read, range),
                HostCommand::Write { range, .. } => (SubOpKind::Write, range),
                _ => continue,
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
                    let Some(ssd) = self.slots[m].ssd.as_mut() else {
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
                    .ssd
                    .as_mut()
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

/// One arbitrated parent command's bookkeeping through the session.
struct Parent {
    initiator: usize,
    id: u64,
    arrival: SimTime,
    subs: u32,
    command: HostCommand,
}

/// One device's work for a serve session: the device, its mirrored
/// initiator queues, and the serve outcome.
struct Work<'a> {
    device: usize,
    ssd: &'a mut Ssd,
    queues: &'a mut Vec<HostQueue>,
    result: Result<(), DeviceError>,
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
        self.merged_log.clear();
        self.last_fanout.fill(0);
        if arbitrated.is_empty() {
            return Ok(());
        }
        // Step 2: validate the whole session before any device runs, so a
        // rejected command leaves every submission queued on every queue.
        for cmd in &arbitrated {
            let command = &cmd.submission.command;
            if command.is_object_command() {
                return Err(DeviceError::Unsupported {
                    what: "object commands on a block device",
                });
            }
            if let Some(range) = command.range() {
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
        let live = self.live_indices();
        if live.is_empty() {
            return Err(DeviceError::Unsupported {
                what: "serving a fleet with no live devices",
            });
        }
        // The host-pressure signal the rebuild governor reads: the busiest
        // initiator's command count this session.
        let mut per_initiator = vec![0u32; queues.len()];
        for cmd in &arbitrated {
            per_initiator[cmd.initiator] += 1;
        }
        self.last_pressure = per_initiator.iter().copied().max().unwrap_or(0);

        // Step 3: fan out to per-device mirrored queues.  Sub-commands use
        // the parent's arbitration sequence as correlation id, and inherit
        // arrival/priority, so each device's own arbitration sees the same
        // arrival-ordered stream the global arbiter saw.
        let mut parents: Vec<Parent> = Vec::with_capacity(arbitrated.len());
        let mut dev_queues: Vec<Vec<HostQueue>> = (0..self.slots.len())
            .map(|_| (0..queues.len()).map(|_| HostQueue::new()).collect())
            .collect();
        for (seq, cmd) in arbitrated.iter().enumerate() {
            let sub = cmd.submission;
            let fan = self.fan_out(&sub.command, &live);
            // Only a parity free whose every covered unit is degraded may
            // fan to nothing (nothing live to trim); it completes
            // immediately in step 5.
            debug_assert!(
                !fan.subs.is_empty() || matches!(sub.command, HostCommand::Free { .. }),
                "every non-free command routes somewhere"
            );
            for &(device, ref subcmd) in &fan.subs {
                dev_queues[device][cmd.initiator].submit_with_priority(
                    seq as u64,
                    *subcmd,
                    sub.arrival,
                    sub.priority,
                );
                self.last_fanout[device] += 1;
            }
            // Shadow content model + reconstruction accounting (parity).
            if let Some(ps) = self.parity.as_mut() {
                if let HostCommand::Write { range, .. } = sub.command {
                    ps.model.apply_write(range, ps.degraded);
                }
                if matches!(sub.command, HostCommand::Read { .. }) && fan.degraded_rows > 0 {
                    ps.degraded_reads += 1;
                }
                ps.reconstructed_bytes += fan.reconstruction_read_bytes;
            }
            parents.push(Parent {
                initiator: cmd.initiator,
                id: sub.id,
                arrival: sub.arrival,
                subs: fan.subs.len() as u32,
                command: sub.command,
            });
        }

        // Step 4: run each touched device's session, chunking devices
        // across worker threads.  Devices own their entire simulation
        // state, so the partition cannot affect results.
        let mut work: Vec<Work<'_>> = Vec::new();
        for (device, (slot, dq)) in self.slots.iter_mut().zip(dev_queues.iter_mut()).enumerate() {
            if dq.iter().all(|q| q.pending_submissions() == 0) {
                continue;
            }
            let ssd = slot
                .ssd
                .as_mut()
                .expect("routing only targets live devices");
            work.push(Work {
                device,
                ssd,
                queues: dq,
                result: Ok(()),
            });
        }
        let workers = self.config.threads.min(work.len()).max(1);
        if workers <= 1 {
            for w in work.iter_mut() {
                w.result = w.ssd.serve(w.queues);
            }
        } else {
            let chunk = work.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for ch in work.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for w in ch.iter_mut() {
                            w.result = w.ssd.serve(w.queues);
                        }
                    });
                }
            });
        }
        for w in &work {
            if let Err(e) = &w.result {
                // Unreachable after step-2 validation; if a device still
                // errors, its session may be partially applied, so report
                // it as an internal fault rather than a clean rejection.
                return Err(DeviceError::Internal(format!(
                    "device {} failed mid-session: {e}",
                    w.device
                )));
            }
        }

        // Step 5: merge sub-completions canonically, repair uncorrectable
        // parity reads, reduce to parents, post in arbitration order.
        let mut merged: Vec<FleetSubCompletion> = Vec::new();
        for w in work.iter_mut() {
            for queue in w.queues.iter_mut() {
                for c in queue.drain_completions() {
                    let parent = &parents[c.request_id as usize];
                    merged.push(FleetSubCompletion {
                        device: w.device,
                        parent_seq: c.request_id,
                        request_id: parent.id,
                        initiator: parent.initiator,
                        start: c.start,
                        finish: c.finish,
                        status: c.status,
                    });
                }
            }
        }
        merged.sort_by_key(|s| (s.finish, s.device, s.parent_seq));
        if self.parity.is_some() && self.repair_uncorrectable(&mut merged, &parents) {
            // Repairs only push finishes later; re-impose canonical order.
            merged.sort_by_key(|s| (s.finish, s.device, s.parent_seq));
        }

        struct Agg {
            start: SimTime,
            finish: SimTime,
            status: CompletionStatus,
            subs: u32,
        }
        let mut aggs: Vec<Option<Agg>> = (0..parents.len()).map(|_| None).collect();
        for s in &merged {
            let agg = aggs[s.parent_seq as usize].get_or_insert(Agg {
                start: s.start,
                finish: s.finish,
                status: s.status,
                subs: 0,
            });
            agg.start = agg.start.min(s.start);
            agg.finish = agg.finish.max(s.finish);
            if !s.status.is_ok() {
                agg.status = s.status;
            }
            agg.subs += 1;
        }

        let mut completed: Vec<(usize, Completion)> = Vec::with_capacity(parents.len());
        for (seq, parent) in parents.iter().enumerate() {
            if parent.subs == 0 {
                // A fully-degraded parity free: advisory, nothing live to
                // trim — complete immediately at arrival.
                completed.push((
                    parent.initiator,
                    Completion {
                        request_id: parent.id,
                        arrival: parent.arrival,
                        start: parent.arrival,
                        finish: parent.arrival,
                        status: CompletionStatus::Ok,
                    },
                ));
                continue;
            }
            let agg = aggs[seq].as_ref().ok_or_else(|| {
                DeviceError::Internal(format!("command {seq} produced no completions", seq = seq))
            })?;
            if agg.subs != parent.subs {
                return Err(DeviceError::Internal(format!(
                    "command {seq} completed {got}/{want} sub-commands",
                    got = agg.subs,
                    want = parent.subs
                )));
            }
            completed.push((
                parent.initiator,
                Completion {
                    request_id: parent.id,
                    arrival: parent.arrival,
                    start: agg.start,
                    finish: agg.finish,
                    status: agg.status,
                },
            ));
        }
        self.merged_log = merged;
        complete_session(queues, completed);
        Ok(())
    }
}
