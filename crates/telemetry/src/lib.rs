//! Cross-layer telemetry: sim-time tracing, metrics time-series, and
//! Chrome-trace export.
//!
//! The paper's arguments (Rajimwale et al., §3–§5) are about *where time
//! goes inside the device* — cleaning stalls, element-level parallelism,
//! scheduling.  This crate makes that visible without perturbing it: every
//! layer of the simulator reports structured events through a
//! [`TelemetryHandle`] to the [`Recorder`] it is attached to, and the
//! handle's default no-op state is a single `Option` check, so a detached
//! run costs (and changes) nothing.
//!
//! What a recording run captures:
//!
//! * **Spans** ([`TraceEvent`]) — the full command lifecycle (queued →
//!   dispatch → per-element flash ops → completion), GC activity, idle
//!   windows — each on a [`Track`] per element, bus, and initiator.
//! * **Counters** ([`Counters`]) — cheap named tallies.
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
#![warn(missing_docs, unreachable_pub)]

pub mod attribution;
pub mod chrome;
pub mod event;
pub mod metrics;
pub mod recorder;

pub use attribution::{
    to_chrome_counters, BlameBreakdown, BlameCat, BlameCollector, BlameLedger, BlameRecord,
    BlameSource, ClassTail, TailReport,
};
pub use chrome::to_chrome_trace;
pub use event::{purpose, EventKind, TraceEvent, Track};
pub use metrics::{Counters, MetricsSample, MetricsSeries};
pub use recorder::{Recorder, RecorderConfig};

use ossd_sim::SimTime;
use std::sync::{Arc, Mutex};

/// Host command classes, the rows of the per-class blame accounting.
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
    /// Number of classes (per-class array size).
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
}

/// Shared, cloneable entry point the simulator layers hold.
///
/// A handle is either *detached* (the default — every call is one `Option`
/// check and returns immediately) or *attached* to a [`Recorder`] (see
/// [`Recorder::shared`]).  Handles are `Arc` clones, so the SSD,
/// controller, and FTL can all hold one and feed the same recorder — and a
/// device carrying an attached handle stays `Send`, which is what lets the
/// fleet layer run each device's engine on its own thread.  Within one
/// device the simulator is still single-threaded, so the `Mutex` is
/// uncontended and each call is one atomic lock plus the recorder method.
///
/// The one check holds across crates because every hook is split in two:
/// an `#[inline]` test for `None`, which the calling crate compiles into
/// its own code, and the attached body, kept out of line (`#[inline(never)]`)
/// so the inlined part stays one compare and branch.  Without the split a
/// hook is an ordinary non-generic function of this crate, and a detached
/// call still pays a real call.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    recorder: Option<Arc<Mutex<Recorder>>>,
}

// The fleet layer moves whole devices, and the handles they hold, to worker
// threads, so `TelemetryHandle` must stay `Send`.  A non-`Send` field in
// `Recorder` is a compile error here rather than a distant one in
// `ossd-fleet`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TelemetryHandle>();
};

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.recorder {
            Some(_) => write!(f, "TelemetryHandle(attached)"),
            None => write!(f, "TelemetryHandle(detached)"),
        }
    }
}

/// Runs `f` on the locked recorder: the attached body of every hook, out
/// of line so that what a hook inlines into its caller is the `None` test.
#[inline(never)]
fn locked<R>(recorder: &Mutex<Recorder>, f: impl FnOnce(&mut Recorder) -> R) -> R {
    f(&mut recorder
        .lock()
        .expect("no thread panicked holding the recorder"))
}

impl TelemetryHandle {
    /// A detached handle: all operations are no-ops.
    pub fn noop() -> Self {
        TelemetryHandle { recorder: None }
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Update the recorder's current-sim-time register (no-op when
    /// detached).
    #[inline]
    pub fn set_now(&self, now: SimTime) {
        if let Some(recorder) = &self.recorder {
            locked(recorder, |r| r.set_now(now));
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
        if let Some(recorder) = &self.recorder {
            locked(recorder, |r| r.span(start, end, track, kind, a, b));
        }
    }

    /// Record an instant at an explicit time (no-op when detached).
    #[inline]
    pub fn instant(&self, at: SimTime, track: Track, kind: EventKind, a: u64, b: u64) {
        if let Some(recorder) = &self.recorder {
            locked(recorder, |r| r.span(at, at, track, kind, a, b));
        }
    }

    /// Record an instant stamped with the recorder's current-time register —
    /// used by untimed layers such as the FTLs (no-op when detached).
    #[inline]
    pub fn instant_now(&self, track: Track, kind: EventKind, a: u64, b: u64) {
        if let Some(recorder) = &self.recorder {
            locked(recorder, |r| r.span(r.now(), r.now(), track, kind, a, b));
        }
    }

    /// Add to a named counter (no-op when detached).
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        if let Some(recorder) = &self.recorder {
            locked(recorder, |r| r.add(counter, delta));
        }
    }

    /// Whether a metrics sample is due (always `false` when detached).
    #[inline]
    pub fn sample_due(&self, now: SimTime) -> bool {
        match &self.recorder {
            Some(recorder) => locked(recorder, |r| r.sample_due(now)),
            None => false,
        }
    }

    /// Store a metrics sample (no-op when detached).
    #[inline]
    pub fn push_sample(&self, sample: MetricsSample) {
        if let Some(recorder) = &self.recorder {
            locked(recorder, |r| r.push_sample(sample));
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
