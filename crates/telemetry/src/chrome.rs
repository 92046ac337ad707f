//! Chrome-trace-event JSON export.
//!
//! Renders recorded [`TraceEvent`]s in the Trace Event Format understood by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`: a single
//! process whose threads are the device's timeline rows — one per flash
//! element, gang bus, and host initiator, plus a device-scope row.  Spans
//! become complete (`"ph":"X"`) events, instants become `"ph":"i"` events,
//! and thread-name metadata labels every row.

use crate::event::{purpose_name, TraceEvent, Track};

/// The process id used for every emitted event.
const PID: u32 = 1;

/// Map a track to a stable Chrome-trace thread id.
///
/// Device = 0, elements from 1, buses from 1001, initiators from 2001 —
/// disjoint ranges so sorting by tid groups rows by resource type.
pub(crate) fn track_tid(track: Track) -> u32 {
    match track {
        Track::Device => 0,
        Track::Element(e) => 1 + e,
        Track::Bus(b) => 1001 + b,
        Track::Initiator(i) => 2001 + i,
    }
}

fn metadata_entries(track: Track, entries: &mut Vec<String>) {
    let tid = track_tid(track);
    entries.push(format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        track.label()
    ));
    entries.push(format!(
        "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
         \"args\":{{\"sort_index\":{tid}}}}}"
    ));
}

fn event_name(event: &TraceEvent) -> String {
    if event.kind.first_arg_is_purpose() {
        format!("{}/{}", event.kind.name(), purpose_name(event.a))
    } else {
        event.kind.name().to_string()
    }
}

fn push_args(out: &mut String, event: &TraceEvent) {
    let names = event.kind.arg_names();
    out.push('{');
    let mut first = true;
    for (name, value) in names.iter().zip([event.a, event.b]) {
        if let Some(name) = name {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\"{name}\":{value}"));
        }
    }
    out.push('}');
}

/// Render events as a Chrome-trace JSON document (`{"traceEvents":[...]}`):
/// process-name metadata, thread metadata once per distinct track in tid
/// order, then the events.
///
/// Timestamps are microseconds with nanosecond precision (fractional `ts`
/// values are valid trace-event JSON and Perfetto keeps the precision).
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::with_capacity(events.len() + 16);
    entries.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\
         \"args\":{{\"name\":\"ossd\"}}}}"
    ));

    let mut tracks: Vec<Track> = events.iter().map(|e| e.track).collect();
    tracks.sort_by_key(|t| track_tid(*t));
    tracks.dedup();
    for track in tracks {
        metadata_entries(track, &mut entries);
    }

    for event in events {
        let tid = track_tid(event.track);
        let ts_us = event.start.as_nanos() as f64 / 1_000.0;
        let mut entry = format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{PID},\"tid\":{tid},\
             \"ts\":{ts_us:.3},",
            event_name(event),
            event.kind.category(),
        );
        if event.kind.is_span() {
            let dur_us = event.end.saturating_since(event.start).as_nanos() as f64 / 1_000.0;
            entry.push_str(&format!("\"ph\":\"X\",\"dur\":{dur_us:.3},"));
        } else {
            entry.push_str("\"ph\":\"i\",\"s\":\"t\",");
        }
        entry.push_str("\"args\":");
        push_args(&mut entry, event);
        entry.push('}');
        entries.push(entry);
    }

    let mut out = String::with_capacity(entries.len() * 128 + 64);
    out.push_str("{\"traceEvents\":[\n");
    out.push_str(&entries.join(",\n"));
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{purpose, EventKind};
    use ossd_sim::json::Value;
    use ossd_sim::SimTime;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                start: SimTime::from_micros(10),
                end: SimTime::from_micros(35),
                track: Track::Element(2),
                kind: EventKind::FlashProgram,
                a: purpose::CLEAN,
                b: 2,
            },
            TraceEvent {
                start: SimTime::from_micros(12),
                end: SimTime::from_micros(12),
                track: Track::Device,
                kind: EventKind::GcVictimPick,
                a: 17,
                b: purpose::CLEAN,
            },
            TraceEvent {
                start: SimTime::from_micros(5),
                end: SimTime::from_micros(40),
                track: Track::Initiator(0),
                kind: EventKind::CmdWrite,
                a: 99,
                b: 0,
            },
        ]
    }

    #[test]
    fn export_parses_and_has_expected_shape() {
        let doc = to_chrome_trace(&sample_events());
        let value = Value::parse(&doc).expect("valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        // 1 process_name + 3 tracks * 2 metadata + 3 events.
        assert_eq!(events.len(), 1 + 6 + 3);

        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases.iter().filter(|p| **p == "X").count(), 2);
        assert_eq!(phases.iter().filter(|p| **p == "i").count(), 1);
        assert_eq!(phases.iter().filter(|p| **p == "M").count(), 7);
    }

    #[test]
    fn span_carries_duration_and_purpose_name() {
        let doc = to_chrome_trace(&sample_events());
        let value = Value::parse(&doc).unwrap();
        let events = value.get("traceEvents").and_then(Value::as_array).unwrap();
        let program = events
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("flash-program/clean"))
            .expect("flash program span present");
        assert_eq!(program.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(program.get("ts").and_then(Value::as_f64), Some(10.0));
        assert_eq!(program.get("dur").and_then(Value::as_f64), Some(25.0));
        assert_eq!(program.get("tid").and_then(Value::as_f64), Some(3.0));
        let args = program.get("args").expect("args object");
        assert_eq!(args.get("purpose").and_then(Value::as_f64), Some(2.0));
        assert_eq!(args.get("element").and_then(Value::as_f64), Some(2.0));
    }

    #[test]
    fn tracks_get_disjoint_tids_and_names() {
        assert_eq!(track_tid(Track::Device), 0);
        assert_eq!(track_tid(Track::Element(0)), 1);
        assert_eq!(track_tid(Track::Bus(0)), 1001);
        assert_eq!(track_tid(Track::Initiator(0)), 2001);

        let doc = to_chrome_trace(&sample_events());
        let value = Value::parse(&doc).unwrap();
        let events = value.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, vec!["device", "element 2", "initiator 0"]);
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let doc = to_chrome_trace(&[]);
        let value = Value::parse(&doc).expect("valid JSON");
        let events = value.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 1); // just process_name metadata
    }
}
