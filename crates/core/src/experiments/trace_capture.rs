//! Cross-layer trace capture: one instrumented TPC-C run exported as a
//! Perfetto-loadable Chrome trace plus a metrics-CSV time-series.
//!
//! This is the telemetry subsystem's end-to-end driver: it attaches an
//! [`ossd_telemetry::Recorder`] to an 8-element page-mapped device, replays
//! a TPC-C slice through four initiator queue pairs of the queue-pair host
//! interface, and exports everything the recorder saw — the command
//! lifecycle on per-initiator tracks, every flash array/bus operation on
//! per-element and per-bus tracks, garbage-collection and reliability
//! instants, and the sampled metrics series (write amplification, free
//! space, GC backlog, queue depths, utilisations).
//!
//! The result self-validates with the crate's own vendored JSON parser: the
//! exported trace must parse, and every element and initiator track must
//! carry at least one complete (`"ph":"X"`) span.  `ossd-exp trace_capture`
//! writes the two artifacts to disk and fails on any validation error,
//! which is what the CI smoke step runs.

use ossd_block::DeviceError;
use ossd_sim::json;
use ossd_ssd::Ssd;
use ossd_telemetry::{to_chrome_trace, Recorder, RecorderConfig};

use super::{col, latency_blame, ExperimentError, Report, Scale, Table};

pub use super::latency_blame::INITIATORS;

/// The capture artifacts plus the summary numbers the binary prints and the
/// tests assert on.
#[derive(Clone, Debug)]
pub(crate) struct TraceCapture {
    /// The Chrome-trace-event JSON document (open it in Perfetto).
    pub trace_json: String,
    /// The metrics time-series as CSV.
    pub metrics_csv: String,
    /// Trace events recorded (spans and instants).
    pub events: usize,
    /// Events dropped by the bounded ring (0 unless the ring overflowed).
    pub dropped_events: usize,
    /// Metrics samples on the time-series.
    pub samples: usize,
    /// Distinct series per sample (columns after the timestamp).
    pub series: usize,
    /// Flash elements of the captured device.
    pub elements: u32,
    /// Commands completed across all initiators.
    pub completions: usize,
    /// Final write amplification of the run.
    pub write_amplification: f64,
}

/// Runs the capture and validates the artifacts.  The device is the
/// telemetry experiments' GC-active one (see [`latency_blame`]), which puts
/// GC spans and instants, ECC retries and (late in life) block retirements
/// on the trace.  The recorder is attached after the prefill: the capture
/// shows the steady-state workload, and the bounded ring keeps the earliest
/// events when it overflows.
pub(crate) fn run(scale: Scale) -> Result<TraceCapture, ExperimentError> {
    let config = latency_blame::device_config(scale, "trace-capture", None);
    let elements = config.elements();
    let mut ssd = Ssd::new(config).map_err(DeviceError::from)?;
    let (handle, recorder) = Recorder::shared(RecorderConfig::default());
    let attach = |ssd: &mut Ssd| ssd.set_telemetry(handle);
    let (completions, base) = latency_blame::serve_tpcc_slice(scale, &mut ssd, attach)?;

    // Stamp the final device state onto the series so even a capture
    // shorter than one sampling interval exports a non-empty CSV.
    let end = {
        let r = recorder.lock().unwrap();
        r.events().iter().map(|e| e.end).max().unwrap_or(base)
    };
    ssd.sample_telemetry(end);

    let r = recorder.lock().unwrap();
    let capture = TraceCapture {
        trace_json: to_chrome_trace(r.events()),
        metrics_csv: r.series().to_csv(),
        events: r.events().len(),
        dropped_events: r.dropped_events() as usize,
        samples: r.series().samples().len(),
        series: r.series().series_count(),
        elements,
        completions,
        write_amplification: ssd.ftl_stats().write_amplification(),
    };
    checked(capture)
}

/// `capture`, or its first [`validate`] violation as a failed check.
fn checked(capture: TraceCapture) -> Result<TraceCapture, ExperimentError> {
    match validate(&capture) {
        Ok(()) => Ok(capture),
        Err(what) => Err(ExperimentError::Check {
            experiment: "trace_capture",
            what,
        }),
    }
}

/// The capture as a report: its summary row, with the trace and the
/// metrics CSV as artifacts.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let capture = run(scale)?;
    let table = Table::of(
        &[&capture],
        &[
            (col("events", "", 0), |c| c.events.into()),
            (col("dropped_events", "", 0), |c| c.dropped_events.into()),
            (col("completions", "", 0), |c| c.completions.into()),
            (col("initiators", "", 0), |_| INITIATORS.into()),
            (col("samples", "", 0), |c| c.samples.into()),
            (col("series", "", 0), |c| c.series.into()),
            (col("write_amp", "x", 3), |c| c.write_amplification.into()),
        ],
    );
    let title = "Trace capture: cross-layer telemetry export";
    let mut report = Report::new("trace_capture", title, scale, vec![table]);
    if capture.dropped_events > 0 {
        report = report.note(format!(
            "WARNING: event ring overflowed; the span trace is missing {} events (raise \
             RecorderConfig::ring_capacity for a complete capture; the dropped_events \
             column of the metrics CSV marks the lossy region)",
            capture.dropped_events
        ));
    }
    report.artifacts = vec![
        ("BENCH_trace.trace.json".into(), capture.trace_json),
        ("BENCH_trace_metrics.csv".into(), capture.metrics_csv),
    ];
    Ok(report.note("Open the trace in https://ui.perfetto.dev."))
}

/// Checks the exported artifacts with the vendored JSON parser: the trace
/// must parse, every element track and every initiator track must carry at
/// least one complete (`"ph":"X"`) span, and the CSV must hold at least
/// five sampled series.  Returns a description of the first violation.
pub(crate) fn validate(capture: &TraceCapture) -> Result<(), String> {
    let doc = json::Value::parse(&capture.trace_json)
        .map_err(|e| format!("trace JSON does not parse: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("trace JSON has no traceEvents array")?;
    // Complete spans per thread-track id (see `ossd_telemetry::chrome` for
    // the tid layout: elements at 1.., initiators at 2001..).
    let mut span_tids = Vec::new();
    for event in events {
        let ph = event.get("ph").and_then(|v| v.as_str());
        let tid = event.get("tid").and_then(|v| v.as_f64());
        if let (Some("X"), Some(tid)) = (ph, tid) {
            span_tids.push(tid as u64);
        }
    }
    for element in 0..capture.elements as u64 {
        if !span_tids.contains(&(1 + element)) {
            return Err(format!("element {element} has no complete spans"));
        }
    }
    for initiator in 0..INITIATORS as u64 {
        if !span_tids.contains(&(2001 + initiator)) {
            return Err(format!("initiator {initiator} has no complete spans"));
        }
    }
    if capture.series < 5 {
        return Err(format!(
            "metrics CSV has only {} series (expected at least 5)",
            capture.series
        ));
    }
    if capture.samples == 0 {
        return Err("metrics CSV has no samples".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_capture_is_perfetto_valid_and_sampled() {
        let capture = run(Scale::Quick).expect("capture");
        assert!(capture.events > 0);
        assert!(capture.completions > 0);
        assert!(capture.samples >= 1);
        assert!(capture.series >= 5);
        // run() already validated; re-validate to pin the helper itself.
        validate(&capture).expect("valid capture");
    }

    #[test]
    fn validation_rejects_garbage() {
        let capture = TraceCapture {
            trace_json: "not json".to_string(),
            metrics_csv: String::new(),
            events: 0,
            dropped_events: 0,
            samples: 0,
            series: 0,
            elements: 1,
            completions: 0,
            write_amplification: 0.0,
        };
        assert!(validate(&capture).is_err());
    }

    #[test]
    fn a_failed_validation_is_a_check_with_its_message() {
        let capture = TraceCapture {
            trace_json: "{\"traceEvents\":[]}".to_string(),
            metrics_csv: String::new(),
            events: 0,
            dropped_events: 0,
            samples: 1,
            series: 5,
            elements: 1,
            completions: 0,
            write_amplification: 0.0,
        };
        match checked(capture) {
            Err(ExperimentError::Check { experiment, what }) => {
                assert_eq!(experiment, "trace_capture");
                assert_eq!(what, "element 0 has no complete spans");
            }
            other => panic!("expected a check failure, got {other:?}"),
        }
    }
}
