//! Cross-layer telemetry: sim-time tracing, metrics time-series, and
//! Chrome-trace export.
//!
//! The paper's arguments (Rajimwale et al., §3–§5) are about *where time
//! goes inside the device* — cleaning stalls, element-level parallelism,
//! scheduling.  This crate makes that visible without perturbing it: every
//! layer of the simulator reports structured events through a
//! [`TelemetrySink`] reached via a [`TelemetryHandle`], and the handle's
//! default no-op state is a single `Option` check, so a detached run costs
//! (and changes) nothing.
//!
//! What a recording run captures:
//!
//! * **Spans** ([`TraceEvent`]) — the full command lifecycle (queued →
//!   dispatch → per-element flash ops → completion), GC activity, idle
//!   windows — each on a [`Track`] per element, bus, and initiator.
//! * **Counters and service-time histograms** ([`Counters`],
//!   [`LogHistogram`]) — cheap named tallies plus log-bucketed latency
//!   distributions per command class.
//! * **Time-series** ([`MetricsSeries`]) — periodic sim-time samples of
//!   write amplification, free-block watermark, GC backlog, per-element
//!   queue depth and utilization, exported as CSV.
//! * **Latency attribution** ([`attribution`]) — per-request blame
//!   accounting: every completion's `(finish − arrival)` decomposed into
//!   components (SQ wait, fences, controller, own flash/bus/ECC/map time,
//!   GC interference, plain queueing) that sum exactly, aggregated into a
//!   per-class [`TailReport`] with p99.9 blame shares.
//!
//! The [`chrome`] module renders recorded events as Chrome-trace-event JSON
//! that opens directly in Perfetto or `chrome://tracing`; the exports are
//! validated with the workspace's one parser, [`ossd_sim::json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attribution;
pub mod chrome;
pub mod event;
pub mod histogram;
pub mod metrics;
pub mod observer;
pub mod recorder;

pub use attribution::{
    to_chrome_counters, BlameBreakdown, BlameCat, BlameCollector, BlameLedger, BlameRecord,
    BlameSource, ClassTail, TailReport,
};
pub use chrome::{to_chrome_trace, to_chrome_trace_multi};
pub use event::{purpose, purpose_name, EventKind, TraceEvent, Track};
pub use histogram::LogHistogram;
pub use metrics::{Counters, MetricsSample, MetricsSeries};
pub use observer::EngineTrace;
pub use recorder::{Recorder, RecorderConfig};

use ossd_sim::SimTime;
use std::sync::{Arc, Mutex};

/// Latency classes tracked with a dedicated service-time histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceClass {
    /// Host read commands.
    Read,
    /// Host write commands.
    Write,
    /// Free (TRIM) commands.
    Free,
    /// Flush commands.
    Flush,
}

impl ServiceClass {
    /// Number of classes (histogram array size).
    pub const COUNT: usize = 4;

    /// Dense index for per-class storage.
    pub fn index(self) -> usize {
        match self {
            ServiceClass::Read => 0,
            ServiceClass::Write => 1,
            ServiceClass::Free => 2,
            ServiceClass::Flush => 3,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceClass::Read => "read",
            ServiceClass::Write => "write",
            ServiceClass::Free => "free",
            ServiceClass::Flush => "flush",
        }
    }
}

/// Receiver for telemetry emitted by the simulator's layers.
///
/// The production implementation is [`Recorder`]; tests may supply their
/// own.  All methods take `&mut self` because the sink lives behind a
/// `Mutex` the handle locks around each call.  Sinks must be `Send` so a
/// device (and the handle it holds) can run on a fleet worker thread.
pub trait TelemetrySink: Send {
    /// Update the sink's notion of "current sim time" — used to stamp
    /// events emitted by untimed layers (the FTLs), which call
    /// [`TelemetryHandle::instant_now`].
    fn set_now(&mut self, now: SimTime);

    /// The most recent time passed to [`TelemetrySink::set_now`].
    fn now(&self) -> SimTime;

    /// Record a span `[start, end)` on `track`.
    fn span(&mut self, start: SimTime, end: SimTime, track: Track, kind: EventKind, a: u64, b: u64);

    /// Record an instantaneous event at `at` on `track`.
    fn instant(&mut self, at: SimTime, track: Track, kind: EventKind, a: u64, b: u64);

    /// Add `delta` to the named counter.
    fn add(&mut self, counter: &'static str, delta: u64);

    /// Record a completed command's response time (nanoseconds) in the
    /// class histogram.
    fn observe_service(&mut self, class: ServiceClass, nanos: u64);

    /// Whether a periodic metrics sample is due at `now`.  A `true` return
    /// advances the sampling deadline, so the caller must follow up with
    /// [`TelemetrySink::push_sample`].
    fn sample_due(&mut self, now: SimTime) -> bool;

    /// Store a periodic metrics sample.
    fn push_sample(&mut self, sample: MetricsSample);
}

/// Shared, cloneable entry point the simulator layers hold.
///
/// A handle is either *detached* (the default — every call is one `Option`
/// check and returns immediately) or *attached* to a [`TelemetrySink`].
/// Handles are `Arc` clones, so the SSD, controller, and FTL can all hold
/// one and feed the same recorder — and a device carrying an attached
/// handle stays `Send`, which is what lets the fleet layer run each
/// device's engine on its own thread.  Within one device the simulator is
/// still single-threaded, so the `Mutex` is uncontended and each call is
/// one atomic lock plus the sink method.
///
/// The one check holds across crates because every hook is split in two:
/// an `#[inline]` test for `None`, which the calling crate compiles into
/// its own code, and the attached body, kept out of line (`#[inline(never)]`)
/// so the inlined part stays one compare and branch.  Without the split a
/// hook is an ordinary non-generic function of this crate, and a detached
/// call still pays a real call.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    sink: Option<Arc<Mutex<dyn TelemetrySink>>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.sink {
            Some(_) => write!(f, "TelemetryHandle(attached)"),
            None => write!(f, "TelemetryHandle(detached)"),
        }
    }
}

/// Runs `f` on the locked sink: the attached body of every hook, out of
/// line so that what a hook inlines into its caller is the `None` test.
#[inline(never)]
fn locked<R>(sink: &Mutex<dyn TelemetrySink>, f: impl FnOnce(&mut dyn TelemetrySink) -> R) -> R {
    f(&mut *sink.lock().unwrap())
}

impl TelemetryHandle {
    /// A detached handle: all operations are no-ops.
    pub fn noop() -> Self {
        TelemetryHandle { sink: None }
    }

    /// A handle attached to `sink`.
    pub fn attached(sink: Arc<Mutex<dyn TelemetrySink>>) -> Self {
        TelemetryHandle { sink: Some(sink) }
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Update the sink's current-sim-time register (no-op when detached).
    #[inline]
    pub fn set_now(&self, now: SimTime) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.set_now(now));
        }
    }

    /// Record a span (no-op when detached).
    #[inline]
    pub fn span(
        &self,
        start: SimTime,
        end: SimTime,
        track: Track,
        kind: EventKind,
        a: u64,
        b: u64,
    ) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.span(start, end, track, kind, a, b));
        }
    }

    /// Record an instant at an explicit time (no-op when detached).
    #[inline]
    pub fn instant(&self, at: SimTime, track: Track, kind: EventKind, a: u64, b: u64) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.instant(at, track, kind, a, b));
        }
    }

    /// Record an instant stamped with the sink's current-time register —
    /// used by untimed layers such as the FTLs (no-op when detached).
    #[inline]
    pub fn instant_now(&self, track: Track, kind: EventKind, a: u64, b: u64) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.instant(sink.now(), track, kind, a, b));
        }
    }

    /// Add to a named counter (no-op when detached).
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.add(counter, delta));
        }
    }

    /// Record a command response time (no-op when detached).
    #[inline]
    pub fn observe_service(&self, class: ServiceClass, nanos: u64) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.observe_service(class, nanos));
        }
    }

    /// Whether a metrics sample is due (always `false` when detached).
    #[inline]
    pub fn sample_due(&self, now: SimTime) -> bool {
        match &self.sink {
            Some(sink) => locked(sink, |sink| sink.sample_due(now)),
            None => false,
        }
    }

    /// Store a metrics sample (no-op when detached).
    #[inline]
    pub fn push_sample(&self, sample: MetricsSample) {
        if let Some(sink) = &self.sink {
            locked(sink, |sink| sink.push_sample(sample));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_inert() {
        let h = TelemetryHandle::noop();
        assert!(!h.is_enabled());
        // None of these should panic or do anything observable.
        h.set_now(SimTime::from_micros(5));
        h.span(
            SimTime::ZERO,
            SimTime::from_micros(1),
            Track::Device,
            EventKind::DeviceIdle,
            0,
            0,
        );
        h.instant_now(Track::Device, EventKind::GcTrigger, 0, 0);
        h.add("x", 1);
        h.observe_service(ServiceClass::Read, 100);
        assert!(!h.sample_due(SimTime::from_micros(10)));
    }

    #[test]
    fn default_handle_is_detached() {
        let h = TelemetryHandle::default();
        assert!(!h.is_enabled());
        assert_eq!(format!("{h:?}"), "TelemetryHandle(detached)");
    }

    #[test]
    fn service_class_indices_are_dense() {
        let classes = [
            ServiceClass::Read,
            ServiceClass::Write,
            ServiceClass::Free,
            ServiceClass::Flush,
        ];
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(classes.len(), ServiceClass::COUNT);
    }
}
