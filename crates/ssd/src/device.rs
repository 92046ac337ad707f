//! The SSD device model.
//!
//! An [`Ssd`] owns a flash translation layer and a set of per-element and
//! per-gang-bus dispatch queues ([`ElementQueue`]) and turns host requests
//! into timed completions.  Requests are decomposed into per-page flash
//! operations and issued into the dispatch queues by one dispatch step;
//! sessions reach it through the event engine ([`ossd_sim::engine`]) and
//! the crate's controller module, a lone `BlockDevice::submit` directly.
//! See the crate documentation for the three drivers.
//!
//! # Flash-op timing: one stage table
//!
//! The paper's §3.2 device is elements behind shared gang buses, so every
//! flash op is array time on its die and/or a transfer on the die's gang
//! bus, in some order.  That is written down once, as data: a `Stage` is
//! `{ on_bus, service, event }` and `stage_table` maps each
//! [`FlashOpKind`] to its chain of at most two stages, built once per
//! device from [`FlashTiming`] and the page size:
//!
//! | kinds | chain |
//! |---|---|
//! | `ReadPage`, `ReadRetry`, `MapRead` | array read on the die, then bus transfer |
//! | `ProgramPage`, `MapWrite` | bus transfer, then array program on the die |
//! | `CopybackPage`, `EraseBlock` | array time on the die only |
//!
//! `Ssd::schedule_ops` has one loop over an op's chain: pick the die's or
//! the gang bus's [`ElementQueue`], accept the stage there (blaming its
//! wait and its own service when attribution is on), emit its span, and
//! start the next stage when this one completes; the op's busy time is the
//! sum of its stages.  A new kind is a new row.
//!
//! The loop walks the batch in **runs**: a run is an op and the equal ops
//! (same element, kind and purpose) right behind it when the kind's chain
//! is a single die-only stage — cleaning's copy-backs, which the FTL emits
//! dozens at a time — and one op otherwise, because a chain that crosses
//! the bus interleaves with the other dies of its gang.  A run of `n` is
//! one [`ElementQueue::accept_run`] and one stats add of `n` services; op
//! `k` of it occupies `[start + k * service, start + (k + 1) * service)`,
//! which is where its span comes from when a sink is attached, and only
//! its last op can be the one a batch finishes with, so that op's blame is
//! the run's.  Every time, counter, span and blame record is what booking
//! the ops one by one gives; the crate's tests hold every batch they
//! schedule to exactly that (the `oracle` submodule).
//!
//! A multi-plane program would be a row with one bus stage per plane and a
//! single array stage (and a wider chain array); a suspendable erase would
//! be a row of several short array stages — the slices between suspend
//! points — instead of one long one, after which letting a later read be
//! accepted between two of them, or between two ops of a booked run, is a
//! change to [`ElementQueue`] (whose runs split at any op boundary), not to
//! this loop.

use ossd_block::{
    arbitrate_round_robin, BlockDevice, BlockOpKind, BlockRequest, Completion, CompletionStatus,
    DeviceError, DeviceInfo, HostCommand, HostInterface, HostQueue, Priority, StreamTemperature,
};
use ossd_flash::FlashTiming;
use ossd_ftl::{
    FlashOp, FlashOpKind, Ftl, FtlStats, Lpn, OpPurpose, PageFtl, StripeFtl, WriteContext,
};
use ossd_sim::{Service, SimDuration, SimTime};
use ossd_telemetry::{
    BlameBreakdown, BlameCat, BlameRecord, BlameSource, EventKind, MetricsSample, TelemetryHandle,
    Track,
};

use crate::config::{MappingKind, SsdConfig};
use crate::controller::{CommandPayload, SessionCommand};
use crate::error::SsdError;
use crate::queue::ElementQueue;
use crate::stats::SsdStats;

/// A simulated solid-state device.
pub struct Ssd {
    config: SsdConfig,
    ftl: Box<dyn Ftl>,
    elements: Vec<ElementQueue>,
    buses: Vec<ElementQueue>,
    /// The timing chain of every [`FlashOpKind`], indexed by the kind.
    stages: StageTable,
    stats: SsdStats,
    last_read_end: Option<u64>,
    last_write_end: Option<u64>,
    /// When the device last finished any work; the gap to the next request
    /// is the idle window background cleaning may use.
    last_activity: SimTime,
    /// Reusable flash-op buffer: the serve path appends each command's ops
    /// here instead of allocating a fresh vector per command.
    op_scratch: Vec<FlashOp>,
    /// Telemetry sink shared with the FTL; detached (inert) by default.
    telemetry: TelemetryHandle,
    /// Latency-attribution state; `None` (zero cost beyond one pointer
    /// check) unless [`Ssd::enable_attribution`] was called.
    attribution: Option<Box<Attribution>>,
}

/// One stage of a flash op's timing chain: `service` on the op's die, or on
/// the die's gang bus when `on_bus`, traced as an `event` span.
#[derive(Clone, Copy)]
struct Stage {
    on_bus: bool,
    service: SimDuration,
    event: EventKind,
}

/// `FlashOpKind as usize` → the kind's stages in the order they run.
type StageTable = [[Option<Stage>; 2]; 7];

/// The one timing description per flash-op kind, built once per device (see
/// the module docs).  A new [`FlashOpKind`] is one more row.
fn stage_table(timing: &FlashTiming, page_bytes: u64) -> StageTable {
    let die = |service, event| {
        Some(Stage {
            on_bus: false,
            service,
            event,
        })
    };
    let bus = Some(Stage {
        on_bus: true,
        service: timing.transfer(page_bytes),
        event: EventKind::BusTransfer,
    });
    let read = timing.read_page;
    let program = timing.program_page;
    let rows = [
        // Read-like: the array read fills the die's register, then the page
        // crosses the gang bus.  An ECC retry and a translation-page fill
        // each cost a full read pass.
        (
            FlashOpKind::ReadPage,
            [die(read, EventKind::FlashRead), bus],
        ),
        (
            FlashOpKind::ReadRetry,
            [die(read, EventKind::FlashReadRetry), bus],
        ),
        (
            FlashOpKind::MapRead,
            [die(read, EventKind::FlashMapRead), bus],
        ),
        // Program-like: the page crosses the gang bus, then the die programs.
        (
            FlashOpKind::ProgramPage,
            [bus, die(program, EventKind::FlashProgram)],
        ),
        (
            FlashOpKind::MapWrite,
            [bus, die(program, EventKind::FlashMapWrite)],
        ),
        // Array-only: nothing leaves the die.
        (
            FlashOpKind::CopybackPage,
            [
                die(timing.copyback_service(), EventKind::FlashCopyback),
                None,
            ],
        ),
        (
            FlashOpKind::EraseBlock,
            [die(timing.erase_block, EventKind::FlashErase), None],
        ),
    ];
    // One slot per row, filled by discriminant so row order is free; a kind
    // without a row would leave an empty chain.
    let mut table: StageTable = rows.map(|_| [None; 2]);
    for (kind, chain) in rows {
        table[kind as usize] = chain;
    }
    debug_assert!(table.iter().all(|chain| chain[0].is_some()));
    table
}

/// Blame captured for one scheduled flash op: its queue waits (split by
/// what ran ahead) plus its own element/bus service time, and where its
/// chain finished.  Only the critical op — the one whose finish *is* the
/// batch finish — contributes to the request's breakdown; the others ran
/// in parallel under it.
struct OpBlame {
    blame: BlameBreakdown,
    finish: SimTime,
    foreground: bool,
}

/// Device-side latency-attribution state (see `ossd_telemetry::attribution`).
#[derive(Default)]
struct Attribution {
    /// The attributed completions, in completion order.
    records: Vec<BlameRecord>,
    /// Monotonic owner token for ledger self-matching.  Request ids can
    /// collide across initiators and sessions, so ledger segments are owned
    /// by this counter instead.
    next_owner: u64,
    /// Critical-chain blame of the most recent `schedule_ops` batch,
    /// covering exactly `[floor, finish)` of that batch.
    chain: BlameBreakdown,
    /// Completed device-side breakdown (dispatch → finish) of the command
    /// just issued, awaiting pickup by `Ssd::dispatch`.
    pending: Option<BlameBreakdown>,
    /// Reusable per-op blame buffer for `schedule_ops`.
    op_scratch: Vec<OpBlame>,
}

/// What a flash op's busy time *is*, for the wait-attribution ledger.
fn blame_source(op: &FlashOp) -> BlameSource {
    let gc_purpose = matches!(
        op.purpose,
        OpPurpose::Clean | OpPurpose::BackgroundClean | OpPurpose::WearLevel
    );
    match op.kind {
        FlashOpKind::CopybackPage | FlashOpKind::EraseBlock => BlameSource::Gc,
        FlashOpKind::MapRead | FlashOpKind::MapWrite => {
            if gc_purpose {
                // Translation pages relocated by cleaning are GC work.
                BlameSource::Gc
            } else {
                BlameSource::Map
            }
        }
        FlashOpKind::ReadRetry => BlameSource::Ecc,
        FlashOpKind::ReadPage | FlashOpKind::ProgramPage => {
            if gc_purpose {
                // The stripe FTL cleans with plain reads/programs.
                BlameSource::Gc
            } else {
                BlameSource::HostData
            }
        }
    }
}

/// The category an op's *own* element-array service time is blamed on.
fn own_element_cat(source: BlameSource) -> BlameCat {
    match source {
        BlameSource::HostData => BlameCat::Flash,
        BlameSource::Gc => BlameCat::GcWait,
        BlameSource::Map => BlameCat::Map,
        BlameSource::Ecc => BlameCat::Ecc,
    }
}

/// The category an op's *own* bus-transfer time is blamed on.
fn own_bus_cat(source: BlameSource) -> BlameCat {
    match source {
        BlameSource::HostData => BlameCat::Bus,
        other => own_element_cat(other),
    }
}

/// `ElementQueue::accept_run`, blaming the wait and own service of the run's
/// last op into `blame` when attribution is on (`blame` is `Some`).  Timing
/// is identical either way.
#[allow(clippy::too_many_arguments)]
fn accept_blamed(
    queue: &mut ElementQueue,
    arrival: SimTime,
    service: SimDuration,
    n: u64,
    own_cat: BlameCat,
    owner: u64,
    source: BlameSource,
    blame: Option<&mut BlameBreakdown>,
) -> (Service, SimTime) {
    match blame {
        Some(b) => {
            let booked = queue.accept_run_tagged(arrival, service, n, owner, source, b);
            b.add(own_cat, service);
            booked
        }
        None => queue.accept_run(arrival, service, n),
    }
}

// The fleet layer moves whole devices to worker threads, so `Ssd` must stay
// `Send` (its `Box<dyn Ftl>` carries a `Send` supertrait; `ossd-telemetry`
// asserts the same of the telemetry handle).  Regressing this is a compile
// error here rather than a distant one in `ossd-fleet`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Ssd>();
};

/// Splits a byte range into `(lpn, covered_bytes)` pieces at logical-page
/// granularity, lazily (no per-request allocation).
struct PageSpans {
    unit: u64,
    cursor: u64,
    end: u64,
}

impl PageSpans {
    fn new(unit: u64, offset: u64, len: u64) -> Self {
        PageSpans {
            unit,
            cursor: offset,
            end: offset + len,
        }
    }
}

impl Iterator for PageSpans {
    type Item = (Lpn, u64);

    fn next(&mut self) -> Option<(Lpn, u64)> {
        if self.cursor >= self.end {
            return None;
        }
        let lpn = self.cursor / self.unit;
        let piece_end = ((lpn + 1) * self.unit).min(self.end);
        let covered = piece_end - self.cursor;
        self.cursor = piece_end;
        Some((Lpn(lpn), covered))
    }
}

impl Ssd {
    /// Builds an SSD from a configuration.
    pub fn new(config: SsdConfig) -> Result<Self, SsdError> {
        config.validate()?;
        let ftl: Box<dyn Ftl> = match config.mapping {
            MappingKind::PageMapped => Box::new(PageFtl::with_reliability(
                config.geometry,
                config.timing,
                config.ftl.clone(),
                config.reliability,
            )?),
            MappingKind::StripeMapped {
                stripe_bytes,
                coalesce,
            } => {
                let mut ftl = StripeFtl::with_reliability(
                    config.geometry,
                    config.timing,
                    config.ftl.clone(),
                    stripe_bytes,
                    config.reliability,
                )?;
                ftl.set_coalescing(coalesce);
                Box::new(ftl)
            }
        };
        let elements = (0..config.elements())
            .map(|_| ElementQueue::new())
            .collect();
        let buses = (0..config.gangs).map(|_| ElementQueue::new()).collect();
        let stages = stage_table(&config.timing, config.geometry.page_bytes as u64);
        Ok(Ssd {
            config,
            ftl,
            elements,
            buses,
            stages,
            stats: SsdStats::default(),
            last_read_end: None,
            last_write_end: None,
            last_activity: SimTime::ZERO,
            op_scratch: Vec::new(),
            telemetry: TelemetryHandle::noop(),
            attribution: None,
        })
    }

    /// Enables per-request latency attribution: every element/bus queue
    /// keeps a blame ledger, and every completion gets a [`BlameRecord`]
    /// decomposing its end-to-end latency into components that sum exactly
    /// (see `ossd_telemetry::attribution`).  Purely observational — the
    /// schedule is bit-identical with attribution on or off.  Idempotent.
    pub fn enable_attribution(&mut self) {
        if self.attribution.is_some() {
            return;
        }
        for q in &mut self.elements {
            q.enable_blame();
        }
        for q in &mut self.buses {
            q.enable_blame();
        }
        self.attribution = Some(Box::default());
    }

    /// Whether [`Ssd::enable_attribution`] was called.
    pub fn attribution_enabled(&self) -> bool {
        self.attribution.is_some()
    }

    /// Drains the attributed completions.  Experiments drain after a
    /// prefill phase so the measured records cover only the workload of
    /// interest.
    pub fn take_blame_records(&mut self) -> Vec<BlameRecord> {
        self.attribution
            .as_mut()
            .map(|a| std::mem::take(&mut a.records))
            .unwrap_or_default()
    }

    /// Attaches a telemetry sink to the device and its FTL.  Every layer —
    /// command dispatch, flash scheduling, garbage collection, reliability —
    /// reports through the same handle, so one recorder sees the whole
    /// cross-layer picture.  Telemetry never alters timing decisions; with
    /// the default detached handle every hook compiles down to one pointer
    /// check, in this crate and in the FTL's alike: each hook is an
    /// `#[inline]` test for `None` that the calling crate compiles in, and
    /// the attached body is an outlined (`#[inline(never)]`) function of
    /// `ossd-telemetry`, so a detached hook makes no call.
    pub fn set_telemetry(&mut self, telemetry: TelemetryHandle) {
        self.ftl.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The device's telemetry handle (detached unless [`Ssd::set_telemetry`]
    /// attached a sink).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.telemetry
    }

    /// Pushes one metrics sample stamped `now` into the attached sink (no-op
    /// when detached).  The periodic samples the recorder's cadence asks for
    /// go through this too; experiments call it once more at the end of a
    /// run so the final device state is always on the time-series.
    pub fn sample_telemetry(&self, now: SimTime) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let ftl_stats = self.ftl.stats();
        self.telemetry.push_sample(MetricsSample {
            at: now,
            write_amplification: ftl_stats.write_amplification(),
            free_fraction: self.ftl.free_page_fraction(),
            gc_backlog_blocks: self.ftl.gc_backlog_blocks(),
            gc_stale_pages: self.ftl.gc_stale_pages(),
            host_bytes_written: self.stats.bytes_written,
            map_hit_rate: self.ftl.map_stats().hit_rate(),
            dropped_events: 0, // the recording sink stamps its own drop count
            element_depths: self
                .elements
                .iter()
                .map(|q| q.depth_at(now) as u32)
                .collect(),
            element_util: self
                .elements
                .iter()
                .map(|q| q.server().utilisation(now))
                .collect(),
            bus_util: self
                .buses
                .iter()
                .map(|q| q.server().utilisation(now))
                .collect(),
        });
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Cumulative device statistics (FTL and reliability counters are
    /// refreshed on access).
    pub fn stats(&self) -> SsdStats {
        let mut s = self.stats;
        s.ftl = self.ftl.stats();
        s.reliability = self.ftl.reliability_counters();
        s.map = self.ftl.map_stats();
        s
    }

    /// Aggregate wear statistics of the flash array, including the
    /// retired-block (grown bad) population.
    pub fn wear_summary(&self) -> ossd_flash::WearSummary {
        self.ftl.wear_summary()
    }

    /// FTL statistics only.
    pub fn ftl_stats(&self) -> FtlStats {
        self.ftl.stats()
    }

    /// Size of the device's logical page (the FTL mapping granularity).
    pub fn logical_page_bytes(&self) -> u64 {
        self.ftl.logical_page_bytes()
    }

    /// Fraction of physical pages currently free.
    pub fn free_page_fraction(&self) -> f64 {
        self.ftl.free_page_fraction()
    }

    /// The per-element dispatch queues (one per flash die), exposing queue
    /// occupancy and busy-time statistics.
    pub fn element_queues(&self) -> &[ElementQueue] {
        &self.elements
    }

    /// Flushes any buffered writes (the stripe FTL's open stripe) to flash,
    /// starting no earlier than `at`.  Returns the completion time of the
    /// flush (equal to `at` when there was nothing to flush).
    pub fn flush(&mut self, at: SimTime) -> Result<SimTime, SsdError> {
        if let Some(a) = self.attribution.as_deref_mut() {
            a.chain = BlameBreakdown::new();
            a.pending = None;
        }
        let mut ops = std::mem::take(&mut self.op_scratch);
        ops.clear();
        self.ftl.flush_into(&mut ops)?;
        if ops.is_empty() {
            self.op_scratch = ops;
            if let Some(a) = self.attribution.as_deref_mut() {
                a.pending = Some(BlameBreakdown::new());
            }
            return Ok(at);
        }
        let (_, finish) = self.schedule_ops(&ops, at);
        self.op_scratch = ops;
        self.last_activity = self.last_activity.max(finish);
        if let Some(a) = self.attribution.as_deref_mut() {
            // The critical chain covers `[at, finish)` exactly; any
            // remainder (none today) would be controller time.
            let mut breakdown = a.chain;
            let total = finish.saturating_since(at).as_nanos();
            let scheduled = breakdown.total_nanos();
            breakdown.add_nanos(BlameCat::Controller, total.saturating_sub(scheduled));
            a.pending = Some(breakdown);
        }
        Ok(finish)
    }

    fn ram_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_bytes_at_rate(bytes, self.config.ram_bytes_per_sec)
    }

    /// Schedules a batch of flash operations starting no earlier than
    /// `floor`; returns the time the first operation actually started (i.e.
    /// after any element/bus queueing) and the completion time of the last
    /// host-visible (foreground) operation — or of the last operation
    /// overall when the batch holds only background work.
    ///
    /// With attribution enabled, every accept additionally records its busy
    /// segment in the queue's blame ledger and splits its wait over what ran
    /// ahead; the **critical chain** — the op whose finish *is* the returned
    /// finish — becomes `Attribution::chain`, an exact decomposition of
    /// `[floor, finish)`.  None of this alters timing.
    fn schedule_ops(&mut self, ops: &[FlashOp], floor: SimTime) -> (SimTime, SimTime) {
        #[cfg(test)]
        let reference = oracle::Reference::book(self, ops, floor);
        let elements_per_gang = self.config.elements_per_gang() as usize;
        let mut host_finish = floor;
        let mut any_finish = floor;
        let mut service_begin = SimTime::MAX;
        let traced = self.telemetry.is_enabled();
        let attribution_on = self.attribution.is_some();
        let owner = match self.attribution.as_deref_mut() {
            Some(a) => {
                a.op_scratch.clear();
                a.chain = BlameBreakdown::new();
                let owner = a.next_owner;
                a.next_owner += 1;
                owner
            }
            None => 0,
        };
        let mut rest = ops;
        while let Some((op, tail)) = rest.split_first() {
            let chain = &self.stages[op.kind as usize];
            // A run: this op and the equal ops right behind it, when the
            // kind is one die-only stage (see the module docs).  What
            // follows books all `n` at once; `finish`, and the blame when
            // attribution is on, are those of the run's last op.
            let n = match chain {
                [Some(stage), None] if !stage.on_bus => {
                    1 + tail.iter().take_while(|&next| next == op).count()
                }
                _ => 1,
            };
            rest = &tail[n - 1..];
            let element = op.element.index();
            let gang = element / elements_per_gang;
            let purpose = op.purpose.telemetry_code();
            let source = blame_source(op);
            let mut op_blame = attribution_on.then(BlameBreakdown::new);
            // Walk the kind's chain: each stage queues on the die or on the
            // gang bus and the next one arrives when it completes.
            let mut finish = floor;
            let mut busy = SimDuration::ZERO;
            for stage in chain.iter().flatten() {
                let (queue, track, own_cat) = if stage.on_bus {
                    (
                        &mut self.buses[gang],
                        Track::Bus(gang as u32),
                        own_bus_cat(source),
                    )
                } else {
                    (
                        &mut self.elements[element],
                        Track::Element(element as u32),
                        own_element_cat(source),
                    )
                };
                let (first, last_completion) = accept_blamed(
                    queue,
                    finish,
                    stage.service,
                    n as u64,
                    own_cat,
                    owner,
                    source,
                    op_blame.as_mut(),
                );
                if traced {
                    // One span per op, from the run's arithmetic.
                    let mut start = first.start;
                    for _ in 0..n {
                        let end = start + stage.service;
                        self.telemetry.span(
                            start,
                            end,
                            track,
                            stage.event,
                            purpose,
                            element as u64,
                        );
                        start = end;
                    }
                }
                // Stage starts only grow along a chain and along a run, so
                // the minimum over the batch is the first stage of its
                // earliest op.
                service_begin = service_begin.min(first.start);
                finish = last_completion;
                busy += stage.service * n as u64;
            }
            any_finish = any_finish.max(finish);
            let mut foreground = false;
            match op.purpose {
                OpPurpose::Clean => {
                    self.stats.cleaning_busy = self.stats.cleaning_busy.saturating_add(busy);
                }
                OpPurpose::BackgroundClean => {
                    self.stats.background_cleaning_busy =
                        self.stats.background_cleaning_busy.saturating_add(busy);
                }
                OpPurpose::WearLevel => {
                    self.stats.wear_level_busy = self.stats.wear_level_busy.saturating_add(busy);
                }
                _ => {
                    self.stats.host_busy = self.stats.host_busy.saturating_add(busy);
                    host_finish = host_finish.max(finish);
                    foreground = true;
                }
            }
            if let Some(blame) = op_blame {
                self.attribution
                    .as_deref_mut()
                    .expect("op_blame is Some only with attribution on")
                    .op_scratch
                    .push(OpBlame {
                        blame,
                        finish,
                        foreground,
                    });
            }
        }
        if service_begin == SimTime::MAX {
            service_begin = floor;
        }
        let finish = if host_finish > floor {
            host_finish
        } else {
            any_finish
        };
        if let Some(a) = self.attribution.as_deref_mut() {
            // The batch finish is some op's chain finish; that op's waits
            // and services decompose `[floor, finish)` exactly — everything
            // else in the batch overlapped under it.  Prefer a foreground
            // op on ties (its chain is what the host actually waited for).
            let mut pick: Option<usize> = None;
            for (i, ob) in a.op_scratch.iter().enumerate() {
                if ob.finish != finish {
                    continue;
                }
                match pick {
                    None => pick = Some(i),
                    Some(p) => {
                        if ob.foreground || !a.op_scratch[p].foreground {
                            pick = Some(i);
                        }
                    }
                }
            }
            if let Some(i) = pick {
                a.chain = a.op_scratch[i].blame;
            }
        }
        #[cfg(test)]
        reference.check(self, ops, floor, (service_begin, finish));
        (service_begin, finish)
    }

    /// The `(lpn, covered_bytes)` pieces of a byte range at logical-page
    /// granularity, as a lazy iterator.
    fn split_range(&self, offset: u64, len: u64) -> PageSpans {
        PageSpans::new(self.ftl.logical_page_bytes(), offset, len)
    }

    /// The idle step, for a window with nothing in flight from `now` (where
    /// the caller's clock stands) until `until`.  Traces the time the device
    /// really was idle as a `DeviceIdle` span, from the later of `now` and
    /// its last activity, when that is not empty: an engine's clock starts
    /// every session at zero, and a fence finishes without flash work, so
    /// neither clock alone says when the device went idle.  Then, when
    /// background GC is configured, donates the window since the last
    /// activity to background cleaning under the erase budget
    /// [`BackgroundGcConfig::erase_budget()`] gives it: none for a short gap
    /// or a device already at its free-space target.  The cleaning work is
    /// scheduled inside the idle window (starting at the previous
    /// activity's end), so it only delays later requests if the window was
    /// shorter than the budgeted work.  Its erases and moves are counted in
    /// the FTL's statistics (`bg_blocks_erased`, `bg_pages_moved`); an
    /// attached sink also gets a `GcBackgroundWindow` span carrying the
    /// window's two counts.
    ///
    /// [`BackgroundGcConfig::erase_budget()`]: ossd_gc::BackgroundGcConfig::erase_budget
    pub(crate) fn idle(&mut self, now: SimTime, until: SimTime) -> Result<(), SsdError> {
        let idle_from = now.max(self.last_activity);
        if until > idle_from {
            self.telemetry
                .span(idle_from, until, Track::Device, EventKind::DeviceIdle, 0, 0);
        }
        // Checked first: without background GC nothing below is needed, and
        // the free fraction is a call through the `dyn Ftl` on every idle
        // window.
        let Some(background) = self.config.background_gc else {
            return Ok(());
        };
        let free = self.ftl.free_page_fraction();
        let idle_micros = until.saturating_since(self.last_activity).as_nanos() / 1_000;
        let budget = background.erase_budget(idle_micros, free);
        if budget == 0 {
            return Ok(());
        }
        let mut ops = std::mem::take(&mut self.op_scratch);
        ops.clear();
        self.ftl
            .background_clean_into(budget, background.target_free_fraction, &mut ops)?;
        if !ops.is_empty() {
            let floor = self.last_activity;
            let (_, bg_finish) = self.schedule_ops(&ops, floor);
            if self.telemetry.is_enabled() {
                // The FTL's statistics count the window's erases and moves;
                // the span carries them only for the trace.
                let count = |kind| ops.iter().filter(|o| o.kind == kind).count() as u64;
                self.telemetry.span(
                    floor,
                    bg_finish,
                    Track::Device,
                    EventKind::GcBackgroundWindow,
                    count(FlashOpKind::EraseBlock),
                    count(FlashOpKind::CopybackPage),
                );
            }
            // Background work is activity: fold its finish time back so the
            // next request's idle-gap measurement doesn't count time the
            // device spent erasing as idle.
            self.last_activity = self.last_activity.max(bg_finish);
        }
        self.op_scratch = ops;
        Ok(())
    }

    /// Issues one request into the dispatch queues starting no earlier than
    /// `dispatch`: splits it into logical pages, asks the FTL for the flash
    /// operations, and times them on the per-element/per-bus queues.  Does
    /// *not* run the background cleaner — the idle step ([`Ssd::idle`])
    /// does, before the dispatch.  `priority_pending` tells the FTL whether
    /// high-priority host requests are outstanding (drives priority-aware
    /// cleaning).
    // Inlined, with `dispatch`, into `submit`: it then reads the caller's
    // request in place instead of a copy in a `SessionCommand`.
    #[inline]
    fn issue_request(
        &mut self,
        request: &BlockRequest,
        dispatch: SimTime,
        priority_pending: bool,
    ) -> Result<Completion, SsdError> {
        self.check_bounds(request).map_err(SsdError::Device)?;
        let start = dispatch.max(request.arrival);
        // Keep the sink's time register current before FTL work: the FTL
        // stamps its GC and reliability instants from this register.
        self.telemetry.set_now(start);
        if let Some(a) = self.attribution.as_deref_mut() {
            // A fresh chain per command: paths that never reach the flash
            // array (frees, prefetch hits, buffered writes) leave it zero
            // and their whole service time lands on the controller.
            a.chain = BlameBreakdown::new();
            a.pending = None;
        }
        // `service_start` is refined to the moment the first flash operation
        // actually began once the request reaches the flash array; requests
        // served entirely from controller RAM keep the dispatch time.
        let mut service_start = start;
        // Media errors surface on the completion as a typed status rather
        // than aborting the request: the host waited the full (retry-laden)
        // service time and then learns the data is gone.
        let mut status = CompletionStatus::Ok;
        let finish = match request.kind {
            BlockOpKind::Free => {
                self.stats.host_frees += 1;
                for (lpn, _) in self.split_range(request.range.offset, request.range.len) {
                    self.ftl.free(lpn)?;
                }
                // Free notifications carry no data; they complete in the
                // controller without flash work.
                start + self.config.controller_overhead
            }
            BlockOpKind::Read => {
                self.stats.host_reads += 1;
                self.stats.bytes_read += request.len();
                let sequential = self.last_read_end == Some(request.range.offset);
                self.last_read_end = Some(request.range.end());
                if sequential && self.config.sequential_prefetch {
                    // Read-ahead hit: served straight from controller RAM.
                    self.stats.prefetch_hits += 1;
                    start + self.ram_transfer(request.len())
                } else {
                    let mut floor = start + self.config.controller_overhead;
                    if !sequential {
                        floor += self.config.random_penalty;
                    }
                    let mut ops = std::mem::take(&mut self.op_scratch);
                    ops.clear();
                    for (lpn, covered) in self.split_range(request.range.offset, request.range.len)
                    {
                        let uncorrectable = self.ftl.read_into(lpn, covered, &mut ops)?;
                        if uncorrectable && status.is_ok() {
                            status = CompletionStatus::UncorrectableRead;
                        }
                    }
                    let finish = if ops.is_empty() {
                        // Unwritten data (or data still in controller RAM).
                        floor + self.ram_transfer(request.len())
                    } else {
                        let (begin, finish) = self.schedule_ops(&ops, floor);
                        // The request's service begins with its first
                        // scheduled flash operation.
                        service_start = begin;
                        finish
                    };
                    self.op_scratch = ops;
                    finish
                }
            }
            BlockOpKind::Write => {
                self.stats.host_writes += 1;
                self.stats.bytes_written += request.len();
                let sequential = self.last_write_end == Some(request.range.offset);
                self.last_write_end = Some(request.range.end());
                let mut floor = start + self.config.controller_overhead;
                if !sequential {
                    floor += self.config.random_penalty;
                }
                let ctx = WriteContext { priority_pending };
                let mut ops = std::mem::take(&mut self.op_scratch);
                ops.clear();
                for (lpn, covered) in self.split_range(request.range.offset, request.range.len) {
                    self.ftl.write_into(lpn, covered, &ctx, &mut ops)?;
                }
                let finish = if ops.is_empty() {
                    self.stats.buffered_writes += 1;
                    floor + self.ram_transfer(request.len())
                } else {
                    // The host data still crosses controller RAM.
                    let (begin, finish) =
                        self.schedule_ops(&ops, floor + self.ram_transfer(request.len()));
                    service_start = begin;
                    finish
                };
                self.op_scratch = ops;
                finish
            }
        };
        self.last_activity = self.last_activity.max(finish);
        if self.telemetry.sample_due(finish) {
            self.sample_telemetry(finish);
        }
        debug_assert!(
            request.arrival <= service_start && service_start <= finish,
            "completion ordering inverted: arrival {:?} start {:?} finish {:?} (request {})",
            request.arrival,
            service_start,
            finish,
            request.id
        );
        if let Some(a) = self.attribution.as_deref_mut() {
            // Device-side breakdown of `[dispatch, finish)`: the scheduled
            // critical chain covers `[floor, finish)`; everything before the
            // floor — overhead, random penalty, RAM transfer, RAM-only
            // service — is controller time by definition, so the difference
            // is exact without re-deriving which path was taken.
            let mut breakdown = a.chain;
            let total = finish.saturating_since(start).as_nanos();
            let scheduled = breakdown.total_nanos();
            debug_assert!(
                scheduled <= total,
                "chain ({scheduled} ns) exceeds device service ({total} ns) for request {}",
                request.id
            );
            breakdown.add_nanos(BlameCat::Controller, total.saturating_sub(scheduled));
            a.pending = Some(breakdown);
        }
        Ok(Completion {
            request_id: request.id,
            arrival: request.arrival,
            start: service_start,
            finish,
            status,
        })
    }

    /// The dispatch step of every driver: serves `command` starting at
    /// `dispatch` — a data command through [`Ssd::issue_request`], a flush
    /// by draining write buffers, a barrier on the spot (its eligibility
    /// already waited for its initiator to drain).  With a sink attached
    /// it traces the command's lifecycle on its initiator's track: a
    /// `CmdQueued` span for any wait since arrival and the command span
    /// (dispatch to finish, carrying the completion status).  With attribution
    /// on it records the command's [`BlameRecord`]: the wait `[arrival,
    /// dispatch)` split at `eligible` — when the command stopped being held
    /// by a fence — into `Fence` and `SqWait`, joined with the device-side
    /// breakdown of `[dispatch, finish)`.
    #[inline] // see `issue_request`
    pub(crate) fn dispatch(
        &mut self,
        command: &SessionCommand,
        dispatch: SimTime,
        eligible: SimTime,
        priority_pending: bool,
    ) -> Result<Completion, SsdError> {
        let completion = match &command.payload {
            CommandPayload::Data(request) => {
                self.issue_request(request, dispatch, priority_pending)?
            }
            CommandPayload::Flush => {
                let finish = self.flush(dispatch)?;
                Completion::ok(command.id, command.arrival, dispatch, finish)
            }
            CommandPayload::Barrier => {
                Completion::ok(command.id, command.arrival, dispatch, dispatch)
            }
        };
        let (kind, class) = command.payload.trace_kind();
        let track = Track::Initiator(command.initiator as u32);
        if self.telemetry.is_enabled() {
            if dispatch > command.arrival {
                self.telemetry.span(
                    command.arrival,
                    dispatch,
                    track,
                    EventKind::CmdQueued,
                    command.id,
                    0,
                );
            }
            let status = match completion.status {
                CompletionStatus::Ok => 0,
                CompletionStatus::UncorrectableRead => 1,
            };
            self.telemetry
                .span(dispatch, completion.finish, track, kind, command.id, status);
        }
        if let Some(a) = self.attribution.as_deref_mut() {
            let mut breakdown = match &command.payload {
                // A barrier does no device work; its whole latency is ordering.
                CommandPayload::Barrier => BlameBreakdown::new(),
                CommandPayload::Data(_) | CommandPayload::Flush => a
                    .pending
                    .take()
                    .expect("device left a pending breakdown for the issued command"),
            };
            breakdown.add(BlameCat::Fence, eligible.saturating_since(command.arrival));
            breakdown.add(BlameCat::SqWait, dispatch.saturating_since(eligible));
            let record = BlameRecord {
                id: command.id,
                initiator: command.initiator as u32,
                class,
                arrival: command.arrival,
                finish: completion.finish,
                breakdown,
            };
            debug_assert!(
                record.is_exact(),
                "blame components ({} ns) do not sum to end-to-end latency ({} ns) for command {}",
                record.total_nanos(),
                completion
                    .finish
                    .saturating_since(command.arrival)
                    .as_nanos(),
                command.id
            );
            a.records.push(record);
        }
        Ok(completion)
    }

    /// The element a queued request's head flash op is predicted to occupy:
    /// the mapped location when the FTL knows one, otherwise — for writes —
    /// the element the FTL will allocate on next
    /// ([`ossd_ftl::Ftl::next_write_element`]), so SWTF sees truthful waits
    /// instead of a round-robin guess.  `None` (unwritten reads, frees)
    /// means no flash element is involved.
    pub(crate) fn element_hint(&self, request: &BlockRequest) -> Option<usize> {
        let (lpn, _) = self
            .split_range(request.range.offset, request.range.len)
            .next()?;
        if let Some(element) = self.ftl.locate(lpn) {
            return Some(element as usize);
        }
        if request.kind == BlockOpKind::Write {
            return self.ftl.next_write_element().map(|e| e as usize);
        }
        None
    }

    /// Records the advisory placement hint of an accepted write command.
    fn record_hint(&mut self, hint: ossd_block::WriteHint) {
        match hint.temperature {
            StreamTemperature::Hot => self.stats.hinted_hot_writes += 1,
            StreamTemperature::Cold => self.stats.hinted_cold_writes += 1,
            StreamTemperature::Warm => {}
        }
    }
}

impl BlockDevice for Ssd {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: self.config.name.clone(),
            capacity_bytes: self.ftl.exported_bytes(),
            supports_free: self.config.ftl.honor_free,
        }
    }

    // Bounds checks run per command; `info()` clones the device name.
    fn capacity_bytes(&self) -> u64 {
        self.ftl.exported_bytes()
    }

    /// The closed driver: what a one-command session does, without the
    /// engine — one command has nothing to be scheduled against.  The
    /// engine starts its clock at zero, so it offers an idle window exactly
    /// when the command arrives later than that; then the command
    /// dispatches at its arrival, under its own priority's pressure (§3.6),
    /// with no wait to blame on a fence or the queue.
    fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
        // Validate first: an invalid request must be rejected before any
        // idle window is donated to background cleaning.
        self.check_bounds(request)?;
        if request.arrival > SimTime::ZERO {
            self.idle(SimTime::ZERO, request.arrival)?;
        }
        let command = SessionCommand::from_request(request);
        let arrival = request.arrival;
        let high = request.priority == Priority::High;
        let completion = self.dispatch(&command, arrival, arrival, high)?;
        // Where the engine's last event left the sink's clock.
        self.telemetry.set_now(completion.finish);
        Ok(completion)
    }
}

impl HostInterface for Ssd {
    /// Serves the initiator queues through the event engine: submissions
    /// are arbitrated round-robin into one session, the configured
    /// scheduler and queue depth govern dispatch, and completions are
    /// posted back to each initiator's completion queue in completion
    /// order.
    fn serve(&mut self, queues: &mut [HostQueue]) -> Result<(), DeviceError> {
        let arbitrated = arbitrate_round_robin(queues);
        // Validation happens below, before any engine work: a rejected
        // command aborts the serve with every submission still queued (see
        // the trait's error semantics) and no completions posted.
        let mut initiators = Vec::with_capacity(arbitrated.len());
        let mut commands = Vec::with_capacity(arbitrated.len());
        let mut hints = Vec::new();
        for cmd in &arbitrated {
            let sub = cmd.submission;
            let payload = match sub.command {
                HostCommand::Flush => CommandPayload::Flush,
                HostCommand::Barrier => CommandPayload::Barrier,
                ref c => {
                    let request = c
                        .to_request(sub.id, sub.arrival, sub.priority)
                        .expect("block data command");
                    // Validate the whole session before the engine runs: a
                    // rejected command must have no side effects, including
                    // idle windows donated to background cleaning.
                    self.check_bounds(&request)?;
                    if let HostCommand::Write { hint, .. } = *c {
                        if hint.is_hinted() {
                            hints.push(hint);
                        }
                    }
                    CommandPayload::Data(request)
                }
            };
            initiators.push(cmd.initiator);
            commands.push(SessionCommand {
                initiator: cmd.initiator,
                seq: cmd.seq,
                id: sub.id,
                arrival: sub.arrival,
                priority: sub.priority,
                payload,
            });
        }
        self.telemetry.instant_now(
            Track::Device,
            EventKind::SessionArbitrated,
            commands.len() as u64,
            queues.len() as u64,
        );
        let completions = self.serve_session(&commands)?;
        // Hints are advisory; account for them only once the session has
        // actually executed, so an aborted serve (whose submissions stay
        // queued for a retry) never double-counts them.
        for hint in hints {
            self.record_hint(hint);
        }
        ossd_block::host::complete_session(
            queues,
            initiators.into_iter().zip(completions).collect(),
        );
        Ok(())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use ossd_block::replay_closed;

    fn page_ssd() -> Ssd {
        Ssd::new(SsdConfig::tiny_page_mapped()).unwrap()
    }

    fn stripe_ssd() -> Ssd {
        Ssd::new(SsdConfig::tiny_stripe_mapped()).unwrap()
    }

    /// Serves `requests` as one initiator's queue and returns the
    /// completions in input order (the requests' ids count up from 0).
    fn serve_open(ssd: &mut Ssd, requests: &[BlockRequest]) -> Vec<Completion> {
        let mut queue = HostQueue::new();
        requests.iter().for_each(|r| queue.submit_request(r));
        ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
        let mut completions = queue.drain_completions();
        completions.sort_by_key(|c| c.request_id);
        completions
    }

    #[test]
    fn info_reports_exported_capacity() {
        let ssd = page_ssd();
        let info = ssd.info();
        assert_eq!(info.name, "tiny-page");
        // 128 physical pages, 10% OP would nominally export 115 logical
        // pages, but the 2 GC-reserved blocks (16 pages) cap the placeable
        // capacity at 112 — a device must survive a full sequential fill of
        // what it advertises.
        assert_eq!(info.capacity_bytes, 112 * 4096);
        assert!(!info.supports_free);
        assert_eq!(ssd.logical_page_bytes(), 4096);
    }

    #[test]
    fn write_then_read_round_trip_times_are_sane() {
        let mut ssd = page_ssd();
        let w = BlockRequest::write(0, 0, 4096, SimTime::ZERO);
        let wc = ssd.submit(&w).unwrap();
        // A 4 KB SLC program takes 200 µs plus ~102 µs bus plus overheads.
        let wms = wc.response_time().as_micros_f64();
        assert!(wms > 200.0 && wms < 1000.0, "write took {wms} µs");
        let r = BlockRequest::read(1, 0, 4096, wc.finish);
        let rc = ssd.submit(&r).unwrap();
        let rus = rc.response_time().as_micros_f64();
        assert!(rus > 25.0 && rus < 500.0, "read took {rus} µs");
        // Reads are faster than writes on flash.
        assert!(rc.response_time() < wc.response_time());
        let s = ssd.stats();
        assert_eq!(s.host_writes, 1);
        assert_eq!(s.host_reads, 1);
        assert_eq!(s.bytes_written, 4096);
        assert_eq!(s.bytes_read, 4096);
    }

    #[test]
    fn out_of_bounds_requests_are_rejected() {
        let mut ssd = page_ssd();
        let cap = ssd.capacity_bytes();
        let bad = BlockRequest::read(0, cap - 1024, 8192, SimTime::ZERO);
        assert!(matches!(
            ssd.submit(&bad),
            Err(DeviceError::OutOfBounds { .. })
        ));
        let empty = BlockRequest::write(1, 0, 0, SimTime::ZERO);
        assert!(matches!(ssd.submit(&empty), Err(DeviceError::EmptyRequest)));
    }

    #[test]
    fn rejected_requests_have_no_side_effects() {
        use ossd_gc::BackgroundGcConfig;
        // A nearly full device with background GC and a long idle gap: an
        // out-of-range request arriving after the gap must be rejected
        // before the idle window is donated to cleaning.
        let mut config = SsdConfig::tiny_page_mapped();
        config.ftl = config
            .ftl
            .with_overprovisioning(0.25)
            .with_watermarks(0.15, 0.05);
        config.background_gc = Some(BackgroundGcConfig {
            min_idle_micros: 500,
            erase_budget: 2,
            target_free_fraction: 0.25,
        });
        let mut ssd = Ssd::new(config).unwrap();
        let pages = ssd.capacity_bytes() / 4096;
        let mut at = SimTime::ZERO;
        for round in 0..3 {
            for i in 0..pages {
                let lpn = (i * 13 + round) % pages;
                at = ssd
                    .submit(&BlockRequest::write(
                        round * pages + i,
                        lpn * 4096,
                        4096,
                        at,
                    ))
                    .unwrap()
                    .finish;
            }
        }
        let before = ssd.stats();
        let cap = ssd.capacity_bytes();
        let bad = BlockRequest::read(u64::MAX, cap, 4096, at + SimDuration::from_millis(10));
        assert!(ssd.submit(&bad).is_err());
        // The FTL's statistics, background cleaning's erases and moves
        // among them, are part of the device's.
        assert_eq!(ssd.stats(), before);
    }

    #[test]
    fn large_requests_span_elements_in_parallel() {
        let mut ssd = page_ssd();
        // 8 pages to one device with 2 elements: the pages overlap across
        // elements, so the total time is far less than 8 serial programs.
        let w = BlockRequest::write(0, 0, 8 * 4096, SimTime::ZERO);
        let c = ssd.submit(&w).unwrap();
        let serial_estimate = 8.0 * (200.0 + 102.4);
        assert!(
            c.response_time().as_micros_f64() < serial_estimate,
            "no parallelism: {} µs",
            c.response_time().as_micros_f64()
        );
    }

    #[test]
    fn reads_of_unwritten_data_complete_quickly() {
        let mut ssd = page_ssd();
        let r = BlockRequest::read(0, 0, 4096, SimTime::ZERO);
        let c = ssd.submit(&r).unwrap();
        assert!(c.response_time().as_micros_f64() < 100.0);
    }

    #[test]
    fn free_requests_reach_the_ftl_when_supported() {
        let mut config = SsdConfig::tiny_page_mapped();
        config.ftl = config.ftl.with_honor_free(true);
        let mut ssd = Ssd::new(config).unwrap();
        ssd.submit(&BlockRequest::write(0, 0, 4096, SimTime::ZERO))
            .unwrap();
        ssd.submit(&BlockRequest::free(1, 0, 4096, SimTime::ZERO))
            .unwrap();
        let s = ssd.stats();
        assert_eq!(s.host_frees, 1);
        assert_eq!(s.ftl.frees_accepted, 1);
        assert!(ssd.info().supports_free);
    }

    #[test]
    fn stripe_device_random_writes_are_much_slower_than_sequential() {
        // The S2slc story from Table 2: random sub-stripe writes collapse on
        // a stripe-mapped device.
        let mut seq = stripe_ssd();
        let mut requests = Vec::new();
        for i in 0..64u64 {
            requests.push(BlockRequest::write(i, i * 4096, 4096, SimTime::ZERO));
        }
        let seq_report = replay_closed(&mut seq, &requests).unwrap();

        let mut rnd = stripe_ssd();
        let mut requests = Vec::new();
        // Stride by 3 stripes so no two consecutive writes share a stripe.
        for i in 0..64u64 {
            let stripe = (i * 3) % 32;
            let offset = stripe * 8192 + (i % 2) * 4096;
            requests.push(BlockRequest::write(i, offset, 4096, SimTime::ZERO));
        }
        let rnd_report = replay_closed(&mut rnd, &requests).unwrap();
        assert!(
            rnd_report.writes.mean_millis() > 1.5 * seq_report.writes.mean_millis(),
            "random {} ms vs sequential {} ms",
            rnd_report.writes.mean_millis(),
            seq_report.writes.mean_millis()
        );
    }

    #[test]
    fn page_device_random_writes_are_close_to_sequential() {
        // The S4slc_sim story: a log-structured page-mapped FTL makes random
        // writes nearly as fast as sequential ones.
        let make_requests = |random: bool| -> Vec<BlockRequest> {
            (0..64u64)
                .map(|i| {
                    let lpn = if random { (i * 37) % 100 } else { i };
                    BlockRequest::write(i, lpn * 4096, 4096, SimTime::ZERO)
                })
                .collect()
        };
        let mut seq = page_ssd();
        let seq_report = replay_closed(&mut seq, &make_requests(false)).unwrap();
        let mut rnd = page_ssd();
        let rnd_report = replay_closed(&mut rnd, &make_requests(true)).unwrap();
        let ratio = rnd_report.writes.mean_millis() / seq_report.writes.mean_millis();
        assert!(
            ratio < 1.5,
            "random/sequential write ratio {ratio} should be near 1 on a page-mapped SSD"
        );
    }

    #[test]
    fn sequential_prefetch_accelerates_streaming_reads() {
        let mut config = SsdConfig::tiny_page_mapped();
        config.sequential_prefetch = true;
        let mut ssd = Ssd::new(config).unwrap();
        for i in 0..16u64 {
            ssd.submit(&BlockRequest::write(i, i * 4096, 4096, SimTime::ZERO))
                .unwrap();
        }
        // First read misses; the following sequential reads hit the
        // read-ahead buffer.
        let mut finish = SimTime::ZERO;
        let mut times = Vec::new();
        for i in 0..16u64 {
            let c = ssd
                .submit(&BlockRequest::read(100 + i, i * 4096, 4096, finish))
                .unwrap();
            times.push(c.response_time());
            finish = c.finish;
        }
        assert!(ssd.stats().prefetch_hits >= 14);
        assert!(times[1] < times[0]);
    }

    #[test]
    fn an_open_session_completes_every_request_after_its_arrival() {
        let mut ssd = page_ssd();
        let requests: Vec<BlockRequest> = (0..32u64)
            .map(|i| BlockRequest::write(i, (i % 50) * 4096, 4096, SimTime::from_micros(i * 50)))
            .collect();
        let completions = serve_open(&mut ssd, &requests);
        assert_eq!(completions.len(), requests.len());
        for (req, c) in requests.iter().zip(&completions) {
            assert_eq!(req.id, c.request_id);
            assert!(c.finish >= req.arrival);
            assert!(c.start >= req.arrival);
        }
    }

    #[test]
    fn swtf_is_not_worse_than_fcfs_on_random_reads() {
        // Prepare a device with data, then read it back under heavy load
        // with both schedulers.
        let prepare = |scheduler| -> (Ssd, Vec<BlockRequest>) {
            let config = SsdConfig::tiny_page_mapped().with_scheduler(scheduler);
            let mut ssd = Ssd::new(config).unwrap();
            for i in 0..100u64 {
                ssd.submit(&BlockRequest::write(i, i * 4096, 4096, SimTime::ZERO))
                    .unwrap();
            }
            let reqs: Vec<BlockRequest> = (0..200u64)
                .map(|i| {
                    let lpn = (i * 61) % 100;
                    BlockRequest::read(i, lpn * 4096, 4096, SimTime::from_micros(i * 20))
                })
                .collect();
            (ssd, reqs)
        };
        let (mut a, reqs) = prepare(crate::SchedulerKind::Fcfs);
        let fcfs = serve_open(&mut a, &reqs);
        let (mut b, reqs) = prepare(crate::SchedulerKind::Swtf);
        let swtf = serve_open(&mut b, &reqs);
        let mean = |cs: &[Completion]| -> f64 {
            cs.iter()
                .map(|c| c.response_time().as_micros_f64())
                .sum::<f64>()
                / cs.len() as f64
        };
        assert!(mean(&swtf) <= mean(&fcfs) * 1.05);
    }

    #[test]
    fn flush_drains_stripe_buffer() {
        let mut ssd = stripe_ssd();
        // Half a stripe stays in RAM until flushed.
        let c = ssd
            .submit(&BlockRequest::write(0, 0, 4096, SimTime::ZERO))
            .unwrap();
        assert_eq!(ssd.stats().buffered_writes, 1);
        let finish = ssd.flush(c.finish).unwrap();
        assert!(finish > c.finish);
        // Nothing left to flush.
        assert_eq!(ssd.flush(finish).unwrap(), finish);
    }

    #[test]
    fn idle_windows_trigger_background_cleaning() {
        use ossd_gc::BackgroundGcConfig;
        // Same churn with and without background GC; idle gaps are inserted
        // between requests so the background cleaner has windows to use.
        let run = |background: bool| -> SsdStats {
            let mut config = SsdConfig::tiny_page_mapped();
            config.ftl = config
                .ftl
                .with_overprovisioning(0.25)
                .with_watermarks(0.15, 0.05);
            if background {
                config.background_gc = Some(BackgroundGcConfig {
                    min_idle_micros: 500,
                    erase_budget: 2,
                    target_free_fraction: 0.25,
                });
            }
            let mut ssd = Ssd::new(config).unwrap();
            let logical_pages = ssd.capacity_bytes() / 4096;
            let mut id = 0u64;
            let mut at = SimTime::ZERO;
            for round in 0..6 {
                for i in 0..logical_pages {
                    let lpn = (i * 13 + round) % logical_pages;
                    let c = ssd
                        .submit(&BlockRequest::write(id, lpn * 4096, 4096, at))
                        .unwrap();
                    id += 1;
                    // A 1 ms think time between requests: plenty of idle.
                    at = c.finish + SimDuration::from_millis(1);
                }
            }
            ssd.stats()
        };

        let fg_only = run(false);
        assert_eq!(fg_only.ftl.bg_blocks_erased, 0);
        assert_eq!(fg_only.ftl.bg_pages_moved, 0);
        assert!(fg_only.cleaning_busy > SimDuration::ZERO);

        let with_bg = run(true);
        assert!(with_bg.ftl.bg_blocks_erased > 0, "background GC never ran");
        assert!(with_bg.background_cleaning_busy > SimDuration::ZERO);
        // Moving cleaning into idle windows reduces the time host writes
        // stall behind foreground cleaning.
        assert!(
            with_bg.cleaning_busy < fg_only.cleaning_busy,
            "background GC did not reduce foreground stall: {:?} vs {:?}",
            with_bg.cleaning_busy,
            fg_only.cleaning_busy
        );
    }

    #[test]
    fn uncorrectable_read_surfaces_as_typed_completion_error() {
        use ossd_flash::{FaultConfig, ReliabilityConfig};
        // A BER far beyond the ECC: every read exhausts its retries and
        // fails.  The command must complete — with the typed error status —
        // rather than abort the serve or panic.
        let mut config = SsdConfig::tiny_page_mapped();
        config.reliability = ReliabilityConfig {
            faults: FaultConfig {
                seed: 1,
                raw_ber_base: 500.0,
                ..FaultConfig::none()
            },
            ..ReliabilityConfig::none()
        };
        let mut ssd = Ssd::new(config).unwrap();
        let w = ssd
            .submit(&BlockRequest::write(0, 0, 8192, SimTime::ZERO))
            .unwrap();
        assert!(w.is_ok(), "writes carry no read-path error");
        // One two-page read: both pages stay uncorrectable, and the one
        // command completes with the error.
        let r = ssd
            .submit(&BlockRequest::read(1, 0, 8192, w.finish))
            .expect("an uncorrectable read is a completion, not a serve error");
        assert_eq!(r.status, CompletionStatus::UncorrectableRead);
        let s = ssd.stats();
        assert_eq!(s.reliability.uncorrectable_reads, 2);
        assert!(s.reliability.read_retries > 0);
        // The device remains serviceable afterwards.
        let w2 = ssd
            .submit(&BlockRequest::write(2, 8192, 4096, r.finish))
            .unwrap();
        assert!(w2.is_ok());
        // Failed commands are counted from the completions' statuses.
        let failed = [w, r, w2]
            .iter()
            .filter(|c| c.status == CompletionStatus::UncorrectableRead)
            .count();
        assert_eq!(failed, 1);
    }

    #[test]
    fn read_retries_cost_real_latency() {
        use ossd_flash::{FaultConfig, ReliabilityConfig};
        let read_time = |reliability: ReliabilityConfig| -> (SimDuration, u64) {
            let mut config = SsdConfig::tiny_page_mapped();
            config.reliability = reliability;
            let mut ssd = Ssd::new(config).unwrap();
            let w = ssd
                .submit(&BlockRequest::write(0, 0, 4096, SimTime::ZERO))
                .unwrap();
            let r = ssd
                .submit(&BlockRequest::read(1, 0, 4096, w.finish))
                .unwrap();
            (r.response_time(), ssd.stats().reliability.read_retries)
        };
        let (clean, clean_retries) = read_time(ReliabilityConfig::none());
        assert_eq!(clean_retries, 0);
        // A mean of ~30 raw errors needs retries but (at 0.5 decay) decodes
        // within the budget, so the read succeeds slower.
        let marginal = ReliabilityConfig {
            faults: FaultConfig {
                seed: 2,
                raw_ber_base: 30.0,
                ..FaultConfig::none()
            },
            ..ReliabilityConfig::none()
        };
        let (slow, retries) = read_time(marginal);
        assert!(retries > 0, "a 30-bit mean must need retries");
        assert!(
            slow > clean,
            "retries must add latency: {slow:?} vs {clean:?}"
        );
    }

    #[test]
    fn wear_summary_reports_retired_blocks_through_the_device() {
        use ossd_flash::{FaultConfig, ReliabilityConfig};
        let mut config = SsdConfig::tiny_page_mapped();
        config.ftl = config
            .ftl
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        config.reliability = ReliabilityConfig {
            faults: FaultConfig {
                seed: 3,
                erase_fail_base: 0.05,
                ..FaultConfig::none()
            },
            ..ReliabilityConfig::none()
        };
        let mut ssd = Ssd::new(config).unwrap();
        let pages = ssd.capacity_bytes() / 4096;
        let mut id = 0u64;
        'churn: for round in 0..8u64 {
            for i in 0..pages {
                let lpn = (i * 13 + round) % pages;
                if ssd
                    .submit(&BlockRequest::write(id, lpn * 4096, 4096, SimTime::ZERO))
                    .is_err()
                {
                    // Spares exhausted: acceptable end state for this rate.
                    break 'churn;
                }
                id += 1;
            }
        }
        let s = ssd.stats();
        assert!(s.reliability.erase_fails > 0);
        let wear = ssd.wear_summary();
        assert_eq!(wear.retired_blocks, s.reliability.retired_blocks);
        assert!(wear.worn_out_blocks >= wear.retired_blocks);
        assert_eq!(wear.spare_blocks + wear.retired_blocks, 16);
    }

    #[test]
    fn every_flash_op_kind_schedules_its_exact_stage_chain() {
        use ossd_flash::ElementId;
        use ossd_telemetry::{Recorder, RecorderConfig};
        // SLC timing on 4 KiB pages in ns, written out independently of
        // `FlashTiming`: (on the gang bus?, service, span kind) per stage.
        const READ: u64 = 25_000;
        const XFER: u64 = 102_400;
        const PROG: u64 = 200_000;
        let bus = (true, XFER, EventKind::BusTransfer);
        let cases = [
            (
                FlashOpKind::ReadPage,
                vec![(false, READ, EventKind::FlashRead), bus],
            ),
            (
                FlashOpKind::ReadRetry,
                vec![(false, READ, EventKind::FlashReadRetry), bus],
            ),
            (
                FlashOpKind::MapRead,
                vec![(false, READ, EventKind::FlashMapRead), bus],
            ),
            (
                FlashOpKind::ProgramPage,
                vec![bus, (false, PROG, EventKind::FlashProgram)],
            ),
            (
                FlashOpKind::MapWrite,
                vec![bus, (false, PROG, EventKind::FlashMapWrite)],
            ),
            (
                FlashOpKind::CopybackPage,
                vec![(false, READ + PROG, EventKind::FlashCopyback)],
            ),
            (
                FlashOpKind::EraseBlock,
                vec![(false, 1_500_000, EventKind::FlashErase)],
            ),
        ];
        for (kind, stages) in cases {
            let mut config = SsdConfig::tiny_page_mapped();
            config.gangs = 2; // element 1 sits alone on bus 1
            let mut ssd = Ssd::new(config).unwrap();
            let (handle, recorder) = Recorder::shared(RecorderConfig::default());
            ssd.set_telemetry(handle);
            ssd.enable_attribution();
            let floor = SimTime::from_nanos(1_000);
            // Host purpose on the idle device, then GC purpose from the same
            // floor: by then the die and the bus are busy with the first op.
            let (mut die_free, mut bus_free) = (0u64, 0u64);
            let mut expected = Vec::new();
            for purpose in [OpPurpose::HostWrite, OpPurpose::Clean] {
                let op = FlashOp {
                    element: ElementId(1),
                    kind,
                    purpose,
                };
                let mut stats = ssd.stats;
                let (begin, finish) = ssd.schedule_ops(&[op], floor);
                let mut at = floor.as_nanos();
                let mut first_start = None;
                for &(on_bus, service, event) in &stages {
                    let (free, track) = if on_bus {
                        (&mut bus_free, Track::Bus(1))
                    } else {
                        (&mut die_free, Track::Element(1))
                    };
                    let start = at.max(*free);
                    at = start + service;
                    *free = at;
                    first_start.get_or_insert(start);
                    expected.push((track, event, start, at, purpose.telemetry_code(), 1));
                }
                assert_eq!(
                    (begin.as_nanos(), finish.as_nanos()),
                    (first_start.unwrap(), at),
                    "{kind:?} {purpose:?}"
                );
                let busy = SimDuration::from_nanos(stages.iter().map(|s| s.1).sum());
                if purpose == OpPurpose::Clean {
                    stats.cleaning_busy += busy;
                } else {
                    stats.host_busy += busy;
                }
                assert_eq!(ssd.stats, stats, "{kind:?} {purpose:?}");
                let chain = ssd.attribution.as_ref().unwrap().chain;
                assert_eq!(chain.total_nanos(), at - floor.as_nanos(), "{kind:?}");
            }
            let recorded: Vec<_> = recorder
                .lock()
                .unwrap()
                .events()
                .iter()
                .map(|e| {
                    (
                        e.track,
                        e.kind,
                        e.start.as_nanos(),
                        e.end.as_nanos(),
                        e.a,
                        e.b,
                    )
                })
                .collect();
            assert_eq!(recorded, expected, "{kind:?}");
        }
        // Five copy-backs behind a busy die are one run: five back-to-back
        // spans, the busy time of five, and a critical chain that is the
        // last copy's — the wait behind the erase, the four copies ahead of
        // it, and its own.
        let mut config = SsdConfig::tiny_page_mapped();
        config.gangs = 2;
        let mut ssd = Ssd::new(config).unwrap();
        let (handle, recorder) = Recorder::shared(RecorderConfig::default());
        ssd.set_telemetry(handle);
        ssd.enable_attribution();
        let op = |kind| FlashOp {
            element: ElementId(1),
            kind,
            purpose: OpPurpose::Clean,
        };
        let floor = SimTime::from_nanos(1_000);
        let erased = floor.as_nanos() + 1_500_000;
        assert_eq!(
            ssd.schedule_ops(&[op(FlashOpKind::EraseBlock)], floor),
            (floor, SimTime::from_nanos(erased))
        );
        let (begin, finish) = ssd.schedule_ops(&[op(FlashOpKind::CopybackPage); 5], floor);
        let copy = READ + PROG;
        assert_eq!(
            (begin.as_nanos(), finish.as_nanos()),
            (erased, erased + 5 * copy)
        );
        assert_eq!(ssd.stats.cleaning_busy.as_nanos(), 1_500_000 + 5 * copy);
        let chain = ssd.attribution.as_ref().unwrap().chain;
        assert_eq!(chain.get(BlameCat::GcWait), 1_500_000 + 5 * copy);
        assert_eq!(chain.total_nanos(), finish.as_nanos() - floor.as_nanos());
        let die = &ssd.element_queues()[1];
        assert_eq!((die.ops_accepted(), die.peak_queued()), (6, 5));
        assert_eq!(die.depth_at(SimTime::from_nanos(erased + 2 * copy)), 2);
        let copies: Vec<_> = recorder.lock().unwrap().events()[1..]
            .iter()
            .map(|e| (e.track, e.kind, e.start.as_nanos(), e.end.as_nanos()))
            .collect();
        let expected: Vec<_> = (0..5)
            .map(|k| {
                let start = erased + k * copy;
                let kind = EventKind::FlashCopyback;
                (Track::Element(1), kind, start, start + copy)
            })
            .collect();
        assert_eq!(copies, expected);
    }

    /// Cleaning under load with a recorder and attribution attached: the
    /// booking oracle checks every batch's times, stats, queues and
    /// critical chain as it is scheduled; this adds the trace — the
    /// recorder holds exactly the spans per-op booking would have emitted,
    /// in order — and that copy-backs really were booked in runs.
    #[test]
    fn runs_trace_and_blame_like_per_op_booking() {
        use ossd_telemetry::{Recorder, RecorderConfig};
        let mut config = SsdConfig::tiny_page_mapped();
        config.ftl = config
            .ftl
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut ssd = Ssd::new(config).unwrap();
        let (handle, recorder) = Recorder::shared(RecorderConfig::default());
        ssd.set_telemetry(handle);
        ssd.enable_attribution();
        oracle::SPANS.take();
        let (ops_before, in_runs_before) = oracle::BOOKED.get();
        // Overwrites arriving every 150 µs, faster than the device cleans,
        // so runs land behind busy dies as well as idle ones.
        let pages = ssd.capacity_bytes() / 4096;
        let requests: Vec<BlockRequest> = (0..6 * pages)
            .map(|i| {
                let lpn = (i * 13 + i / pages) % pages;
                BlockRequest::write(i, lpn * 4096, 4096, SimTime::from_micros(i * 150))
            })
            .collect();
        serve_open(&mut ssd, &requests);
        let (ops, in_runs) = oracle::BOOKED.get();
        assert!(
            ops - ops_before > 1_000 && in_runs - in_runs_before > 200,
            "{} ops, {} in runs",
            ops - ops_before,
            in_runs - in_runs_before
        );
        let recorder = recorder.lock().unwrap();
        assert_eq!(recorder.dropped_events(), 0);
        let recorded: Vec<oracle::Span> = recorder
            .events()
            .iter()
            .filter(|e| {
                ssd.stages
                    .iter()
                    .flatten()
                    .flatten()
                    .any(|s| s.event == e.kind)
            })
            .map(|e| (e.start, e.end, e.track, e.kind, e.a, e.b))
            .collect();
        assert_eq!(recorded, oracle::SPANS.take());
        let records = ssd.take_blame_records();
        assert_eq!(records.len(), requests.len());
        assert!(records.iter().all(|r| r.is_exact()));
    }

    #[test]
    fn stats_accumulate_cleaning_time_under_churn() {
        let mut config = SsdConfig::tiny_page_mapped();
        config.ftl = config
            .ftl
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.1);
        let mut ssd = Ssd::new(config).unwrap();
        let logical_pages = ssd.capacity_bytes() / 4096;
        let mut id = 0u64;
        for round in 0..6 {
            for lpn in 0..logical_pages {
                let lpn = (lpn * 13 + round) % logical_pages;
                ssd.submit(&BlockRequest::write(id, lpn * 4096, 4096, SimTime::ZERO))
                    .unwrap();
                id += 1;
            }
        }
        let s = ssd.stats();
        assert!(s.ftl.gc_blocks_erased > 0);
        assert!(s.cleaning_busy > SimDuration::ZERO);
        assert!(s.host_busy > SimDuration::ZERO);
        assert!(s.write_amplification() >= 1.0);
    }
}
