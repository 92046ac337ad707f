//! The telemetry recorder: a bounded event ring, counter registry, and a
//! sampled metrics time-series.

use crate::event::{EventKind, TraceEvent, Track};
use crate::metrics::{Counters, MetricsSample, MetricsSeries};
use crate::TelemetryHandle;
use ossd_sim::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// Sizing and cadence knobs for a [`Recorder`].
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Maximum trace events retained.  Once full, further events are
    /// dropped (oldest events are kept) and counted in
    /// [`Recorder::dropped_events`].
    pub ring_capacity: usize,
    /// Sim-time interval between metrics samples.
    pub sample_interval: SimDuration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            ring_capacity: 1 << 20,
            sample_interval: SimDuration::from_millis(1),
        }
    }
}

/// Records everything the simulator emits through its [`TelemetryHandle`].
///
/// Build one with [`Recorder::shared`], attach the returned handle to the
/// device, run the workload, then read back events, counters and the
/// metrics series for export.
#[derive(Debug)]
pub struct Recorder {
    config: RecorderConfig,
    events: Vec<TraceEvent>,
    dropped: u64,
    now: SimTime,
    next_sample: SimTime,
    counters: Counters,
    series: MetricsSeries,
}

impl Recorder {
    /// A recorder with the given sizing.
    pub fn new(config: RecorderConfig) -> Self {
        Recorder {
            config,
            events: Vec::new(),
            dropped: 0,
            now: SimTime::ZERO,
            next_sample: SimTime::ZERO,
            counters: Counters::new(),
            series: MetricsSeries::new(),
        }
    }

    /// A shared recorder plus a [`TelemetryHandle`] attached to it.
    pub fn shared(config: RecorderConfig) -> (TelemetryHandle, Arc<Mutex<Recorder>>) {
        let recorder = Arc::new(Mutex::new(Recorder::new(config)));
        let handle = TelemetryHandle {
            recorder: Some(recorder.clone()),
        };
        (handle, recorder)
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events discarded because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// The counter registry.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The sampled metrics time-series.
    pub fn series(&self) -> &MetricsSeries {
        &self.series
    }

    /// The recorder's sizing knobs.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    // What the handle's hooks call, under the recorder's lock.

    /// Advances the current-sim-time register that stamps the instants of
    /// untimed layers (the FTLs).  It never moves backwards.
    pub(crate) fn set_now(&mut self, now: SimTime) {
        self.now = self.now.max(now);
    }

    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Records the span `[start, end)` on `track` (an instant when `start ==
    /// end`), or counts it dropped once the ring is full.
    pub(crate) fn span(
        &mut self,
        start: SimTime,
        end: SimTime,
        track: Track,
        kind: EventKind,
        a: u64,
        b: u64,
    ) {
        if self.events.len() >= self.config.ring_capacity {
            self.dropped += 1;
        } else {
            self.events.push(TraceEvent {
                start,
                end,
                track,
                kind,
                a,
                b,
            });
        }
    }

    pub(crate) fn add(&mut self, counter: &'static str, delta: u64) {
        self.counters.add(counter, delta);
    }

    /// Whether a periodic metrics sample is due at `now`.  A `true` return
    /// advances the sampling deadline, so the caller must follow up with
    /// [`Recorder::push_sample`].
    pub(crate) fn sample_due(&mut self, now: SimTime) -> bool {
        if now < self.next_sample {
            return false;
        }
        self.next_sample = now.saturating_add(self.config.sample_interval);
        true
    }

    pub(crate) fn push_sample(&mut self, mut sample: MetricsSample) {
        // The producer can't know how full this recorder's ring is; stamp
        // the running overflow count so the exported CSV records, sample by
        // sample, whether (and since when) the span trace is lossy.
        sample.dropped_events = self.dropped;
        self.series.push(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_at(us: u64) -> TraceEvent {
        TraceEvent {
            start: SimTime::from_micros(us),
            end: SimTime::from_micros(us + 1),
            track: Track::Element(0),
            kind: EventKind::FlashRead,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let (handle, recorder) = Recorder::shared(RecorderConfig {
            ring_capacity: 3,
            ..RecorderConfig::default()
        });
        for i in 0..5 {
            let e = event_at(i);
            handle.span(e.start, e.end, e.track, e.kind, e.a, e.b);
        }
        let r = recorder.lock().unwrap();
        assert_eq!(r.events().len(), 3);
        assert_eq!(r.dropped_events(), 2);
        // The earliest events are the ones retained.
        assert_eq!(r.events()[0].start, SimTime::from_micros(0));
        assert_eq!(r.events()[2].start, SimTime::from_micros(2));
    }

    #[test]
    fn sampling_cadence_advances_with_interval() {
        let (handle, _recorder) = Recorder::shared(RecorderConfig {
            sample_interval: SimDuration::from_micros(100),
            ..RecorderConfig::default()
        });
        assert!(handle.sample_due(SimTime::ZERO));
        assert!(!handle.sample_due(SimTime::from_micros(50)));
        assert!(!handle.sample_due(SimTime::from_micros(99)));
        assert!(handle.sample_due(SimTime::from_micros(100)));
        // Deadline advances from the sampled instant, not accumulated drift.
        assert!(!handle.sample_due(SimTime::from_micros(150)));
        assert!(handle.sample_due(SimTime::from_micros(450)));
        assert!(!handle.sample_due(SimTime::from_micros(500)));
        assert!(handle.sample_due(SimTime::from_micros(550)));
    }

    #[test]
    fn push_sample_stamps_running_drop_count() {
        let (handle, recorder) = Recorder::shared(RecorderConfig {
            ring_capacity: 1,
            ..RecorderConfig::default()
        });
        for i in 0..3 {
            let e = event_at(i);
            handle.span(e.start, e.end, e.track, e.kind, e.a, e.b);
        }
        handle.push_sample(MetricsSample {
            at: SimTime::from_micros(5),
            write_amplification: 1.0,
            free_fraction: 1.0,
            gc_backlog_blocks: 0,
            gc_stale_pages: 0,
            host_bytes_written: 0,
            map_hit_rate: 1.0,
            dropped_events: 0, // producers leave this 0; the recorder stamps it
            element_depths: Vec::new(),
            element_util: Vec::new(),
            bus_util: Vec::new(),
        });
        let r = recorder.lock().unwrap();
        assert_eq!(r.series().samples()[0].dropped_events, 2);
        assert!(r.series().to_csv().contains(",2\n"));
    }

    #[test]
    fn now_register_is_monotonic() {
        let (handle, recorder) = Recorder::shared(RecorderConfig::default());
        handle.set_now(SimTime::from_micros(10));
        handle.set_now(SimTime::from_micros(5)); // stale update is ignored
        handle.instant_now(Track::Device, EventKind::GcTrigger, 1, 2);
        let r = recorder.lock().unwrap();
        assert_eq!(r.events()[0].start, SimTime::from_micros(10));
        assert_eq!(r.events()[0].end, SimTime::from_micros(10));
    }

    #[test]
    fn counters_accumulate() {
        let (handle, recorder) = Recorder::shared(RecorderConfig::default());
        handle.add("ops", 2);
        handle.add("ops", 1);
        let r = recorder.lock().unwrap();
        assert_eq!(r.counters().get("ops"), 3);
    }
}
