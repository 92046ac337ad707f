//! Bridge from the sim engine's [`EngineObserver`] hook to a
//! [`TelemetryHandle`].
//!
//! Attach an [`EngineTrace`] to `ossd_sim::engine::run_observed` and every
//! delivered engine event feeds an engine-level counter, and arrivals and
//! op events keep the sink's sim-time register current.  Idle windows are
//! only counted: the engine's window starts wherever its clock stood, which
//! is not when the device went idle, so the device traces its own idle
//! time (`EventKind::DeviceIdle` spans on the device track).

use crate::TelemetryHandle;
use ossd_sim::engine::EngineObserver;
use ossd_sim::SimTime;

/// An [`EngineObserver`] that forwards engine activity to a telemetry sink.
#[derive(Clone, Debug)]
pub struct EngineTrace {
    handle: TelemetryHandle,
}

impl EngineTrace {
    /// An observer feeding `handle` (inert if the handle is detached).
    pub fn new(handle: TelemetryHandle) -> Self {
        EngineTrace { handle }
    }

    /// The handle this observer feeds.
    pub fn handle(&self) -> &TelemetryHandle {
        &self.handle
    }
}

impl EngineObserver for EngineTrace {
    fn observe_arrival(&mut self, _index: usize, now: SimTime) {
        self.handle.set_now(now);
        self.handle.add("engine.arrivals", 1);
    }

    fn observe_op_start(&mut self, _token: u64, now: SimTime) {
        self.handle.set_now(now);
        self.handle.add("engine.op_starts", 1);
    }

    fn observe_op_complete(&mut self, _token: u64, now: SimTime) {
        self.handle.set_now(now);
        self.handle.add("engine.op_completes", 1);
    }

    fn observe_idle(&mut self, _now: SimTime, _until: SimTime) {
        self.handle.add("engine.idle_windows", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Recorder, RecorderConfig};

    #[test]
    fn engine_events_become_counters() {
        let (handle, recorder) = Recorder::shared(RecorderConfig::default());
        let mut trace = EngineTrace::new(handle);
        trace.observe_arrival(0, SimTime::from_micros(1));
        trace.observe_op_start(7, SimTime::from_micros(2));
        trace.observe_op_complete(7, SimTime::from_micros(5));
        trace.observe_idle(SimTime::from_micros(5), SimTime::from_micros(50));

        let r = recorder.lock().unwrap();
        assert_eq!(r.counters().get("engine.arrivals"), 1);
        assert_eq!(r.counters().get("engine.op_starts"), 1);
        assert_eq!(r.counters().get("engine.op_completes"), 1);
        assert_eq!(r.counters().get("engine.idle_windows"), 1);
        assert!(r.events().is_empty(), "the device traces its idle time");
    }

    #[test]
    fn detached_trace_is_inert() {
        let mut trace = EngineTrace::new(TelemetryHandle::noop());
        trace.observe_idle(SimTime::ZERO, SimTime::from_micros(10));
        assert!(!trace.handle().is_enabled());
    }
}
