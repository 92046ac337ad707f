//! Serializable command traces.
//!
//! The paper's informed-cleaning study (§3.5, Table 5) replays block-level
//! traces that contain read, write, and *block-free* operations collected
//! beneath a file system.  [`Trace`] is the in-memory and on-disk
//! representation of such traces: a list of [`TraceOp`]s with arrival times
//! relative to the start of the trace, serialized as JSON lines.
//!
//! Since the queue-pair redesign the trace format covers the full command
//! vocabulary of [`crate::host`]: data operations may carry a
//! stream-temperature hint, and `Flush`/`Barrier` records serialize the
//! ordering commands.  Unknown kinds, priorities or hints fail parsing
//! loudly — a record is never silently demoted to a read.

use std::io::{BufRead, Write};

use ossd_sim::json::{self, Value};
use ossd_sim::SimTime;

use crate::host::{HostCommand, StreamTemperature, SubmittedCommand, WriteHint};
use crate::range::ByteRange;
use crate::request::{BlockOpKind, BlockRequest, Priority};

/// The kind of a trace record: the block operations plus the ordering
/// commands of the queue-pair protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// Read the addressed bytes.
    Read,
    /// Write the addressed bytes.
    Write,
    /// TRIM-style free notification.
    Free,
    /// Flush device-side write buffers (ordering fence).
    Flush,
    /// Ordering fence with no device work.
    Barrier,
}

impl TraceKind {
    /// The variant name used by the trace serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Read => "Read",
            TraceKind::Write => "Write",
            TraceKind::Free => "Free",
            TraceKind::Flush => "Flush",
            TraceKind::Barrier => "Barrier",
        }
    }

    /// The block-interface kind of a data record (`None` for the ordering
    /// commands, which the narrow block interface cannot express).
    pub(crate) fn block_kind(self) -> Option<BlockOpKind> {
        match self {
            TraceKind::Read => Some(BlockOpKind::Read),
            TraceKind::Write => Some(BlockOpKind::Write),
            TraceKind::Free => Some(BlockOpKind::Free),
            TraceKind::Flush | TraceKind::Barrier => None,
        }
    }

    /// Whether this record transfers or addresses data bytes.
    pub(crate) fn addresses_data(self) -> bool {
        self.block_kind().is_some()
    }
}

impl From<BlockOpKind> for TraceKind {
    fn from(kind: BlockOpKind) -> Self {
        match kind {
            BlockOpKind::Read => TraceKind::Read,
            BlockOpKind::Write => TraceKind::Write,
            BlockOpKind::Free => TraceKind::Free,
        }
    }
}

impl std::str::FromStr for TraceKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Read" => Ok(TraceKind::Read),
            "Write" => Ok(TraceKind::Write),
            "Free" => Ok(TraceKind::Free),
            "Flush" => Ok(TraceKind::Flush),
            "Barrier" => Ok(TraceKind::Barrier),
            other => Err(format!("unknown trace op kind {other:?}")),
        }
    }
}

/// One record of a command trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceOp {
    /// Arrival time relative to the start of the trace, in microseconds.
    pub at_micros: u64,
    /// Operation kind.
    pub kind: TraceKind,
    /// Starting byte offset (0 for `Flush`/`Barrier`).
    pub offset: u64,
    /// Length in bytes (0 for `Flush`/`Barrier`).
    pub len: u64,
    /// Request priority (defaults to [`Priority::Normal`] when a serialized
    /// record omits the field).
    pub priority: Priority,
    /// Stream-temperature write hint ([`StreamTemperature::Warm`] — i.e. no
    /// hint — when a serialized record omits the field).  Meaningful on
    /// writes only.
    pub hint: StreamTemperature,
}

impl TraceOp {
    /// A record with normal priority and no hint.
    pub fn new(at_micros: u64, kind: TraceKind, offset: u64, len: u64) -> Self {
        TraceOp {
            at_micros,
            kind,
            offset,
            len,
            priority: Priority::Normal,
            hint: StreamTemperature::Warm,
        }
    }

    /// Returns the record with the given priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns the record with the given stream-temperature hint.
    pub fn with_hint(mut self, hint: StreamTemperature) -> Self {
        self.hint = hint;
        self
    }

    /// Converts a data record into a [`BlockRequest`] with the given id
    /// (`None` for `Flush`/`Barrier`, which the block interface cannot
    /// express — use [`TraceOp::to_command`] for full fidelity).
    pub fn to_request(&self, id: u64) -> Option<BlockRequest> {
        Some(BlockRequest {
            id,
            kind: self.kind.block_kind()?,
            range: ByteRange::new(self.offset, self.len),
            arrival: SimTime::from_micros(self.at_micros),
            priority: self.priority,
        })
    }

    /// Converts the record into a queue-pair command submission with the
    /// given correlation id.
    pub fn to_command(&self, id: u64) -> SubmittedCommand {
        let range = ByteRange::new(self.offset, self.len);
        let command = match self.kind {
            TraceKind::Read => HostCommand::Read { range },
            TraceKind::Write => HostCommand::Write {
                range,
                hint: WriteHint {
                    temperature: self.hint,
                },
            },
            TraceKind::Free => HostCommand::Free { range },
            TraceKind::Flush => HostCommand::Flush,
            TraceKind::Barrier => HostCommand::Barrier,
        };
        SubmittedCommand {
            id,
            command,
            arrival: SimTime::from_micros(self.at_micros),
            priority: self.priority,
        }
    }

    /// Serializes the record as one JSON line.
    fn to_json_line(self) -> String {
        let mut fields = vec![
            ("at_micros", self.at_micros.to_string()),
            ("kind", json::encode_str(self.kind.as_str())),
            ("offset", self.offset.to_string()),
            ("len", self.len.to_string()),
            ("priority", json::encode_str(self.priority.as_str())),
        ];
        if self.hint != StreamTemperature::Warm {
            fields.push(("hint", json::encode_str(self.hint.as_str())));
        }
        json::encode_object(&fields)
    }

    /// Parses a record from one JSON line.
    fn from_json_line(line: &str) -> Result<Self, String> {
        let fields = match Value::parse(line) {
            Ok(fields @ Value::Object(_)) => fields,
            _ => return Err(format!("malformed trace record {line:?}")),
        };
        let num = |key: &str| -> Result<u64, String> {
            fields
                .get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("trace record missing numeric field {key:?}"))
        };
        let kind = match fields.get("kind") {
            Some(Value::String(s)) => s.parse::<TraceKind>()?,
            _ => return Err("trace record missing \"kind\"".to_string()),
        };
        let priority = match fields.get("priority") {
            Some(Value::String(s)) => s.parse::<Priority>()?,
            None => Priority::default(),
            Some(_) => return Err("\"priority\" must be a string".to_string()),
        };
        let hint = match fields.get("hint") {
            Some(Value::String(s)) => s.parse::<StreamTemperature>()?,
            None => StreamTemperature::Warm,
            Some(_) => return Err("\"hint\" must be a string".to_string()),
        };
        Ok(TraceOp {
            at_micros: num("at_micros")?,
            kind,
            offset: num("offset")?,
            len: num("len")?,
            priority,
            hint,
        })
    }
}

/// Aggregate statistics of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of read operations.
    pub reads: u64,
    /// Number of write operations.
    pub writes: u64,
    /// Number of free notifications.
    pub frees: u64,
    /// Number of flush commands.
    pub flushes: u64,
    /// Number of barrier commands.
    pub barriers: u64,
    /// Number of writes carrying a non-default stream hint.
    pub hinted_writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Bytes freed.
    pub free_bytes: u64,
    /// Highest byte offset touched plus one (minimum device capacity).
    pub max_offset: u64,
    /// Number of high-priority operations.
    pub high_priority: u64,
}

/// A named sequence of trace operations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Human-readable trace name (e.g. `"postmark-5000"`).
    pub name: String,
    /// The operations, in arrival order.
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            ops: Vec::new(),
        }
    }

    /// Appends an operation.
    pub fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Converts the data operations into submit-ready requests with
    /// sequential ids.  `Flush`/`Barrier` records are *skipped* — the block
    /// interface cannot express them; submit each op's
    /// [`TraceOp::to_command`] to replay a trace with full fidelity.
    pub fn to_requests(&self) -> Vec<BlockRequest> {
        self.ops
            .iter()
            .enumerate()
            .filter_map(|(i, op)| op.to_request(i as u64))
            .collect()
    }

    /// Computes aggregate statistics.
    pub fn stats(&self) -> TraceStats {
        let mut s = TraceStats::default();
        for op in &self.ops {
            match op.kind {
                TraceKind::Read => {
                    s.reads += 1;
                    s.read_bytes += op.len;
                }
                TraceKind::Write => {
                    s.writes += 1;
                    s.write_bytes += op.len;
                    if op.hint != StreamTemperature::Warm {
                        s.hinted_writes += 1;
                    }
                }
                TraceKind::Free => {
                    s.frees += 1;
                    s.free_bytes += op.len;
                }
                TraceKind::Flush => s.flushes += 1,
                TraceKind::Barrier => s.barriers += 1,
            }
            if op.kind.addresses_data() {
                s.max_offset = s.max_offset.max(op.offset + op.len);
            }
            if op.priority.is_high() {
                s.high_priority += 1;
            }
        }
        s
    }

    /// Whether arrival times are non-decreasing (devices require this).
    pub fn is_time_ordered(&self) -> bool {
        self.ops
            .windows(2)
            .all(|w| w[0].at_micros <= w[1].at_micros)
    }

    /// Serializes the trace as JSON lines: a header line with the name
    /// followed by one line per operation.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> std::io::Result<()> {
        writeln!(writer, "{}", json::encode_str(&self.name))?;
        for op in &self.ops {
            writeln!(writer, "{}", op.to_json_line())?;
        }
        Ok(())
    }

    /// Reads a trace previously written by [`Trace::write_jsonl`].
    pub fn read_jsonl<R: BufRead>(reader: R) -> std::io::Result<Self> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let mut lines = reader.lines();
        let name: String = match lines.next() {
            Some(line) => {
                let line = line?;
                match Value::parse(&line) {
                    Ok(Value::String(name)) => name,
                    _ => return Err(invalid(format!("malformed trace header {line:?}"))),
                }
            }
            None => String::new(),
        };
        let mut ops = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            ops.push(TraceOp::from_json_line(&line).map_err(invalid)?);
        }
        Ok(Trace { name, ops })
    }

    /// Returns a copy of the trace with free notifications removed, which
    /// is how the "default SSD (without free-page information)" baseline of
    /// Table 5 is produced.
    pub fn without_frees(&self) -> Trace {
        Trace {
            name: format!("{}-no-free", self.name),
            ops: self
                .ops
                .iter()
                .copied()
                .filter(|o| o.kind != TraceKind::Free)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new("sample");
        t.push(TraceOp::new(0, TraceKind::Write, 0, 4096));
        t.push(TraceOp::new(100, TraceKind::Read, 0, 4096).with_priority(Priority::High));
        t.push(TraceOp::new(200, TraceKind::Free, 0, 4096));
        t
    }

    fn command_trace() -> Trace {
        let mut t = sample_trace();
        t.push(TraceOp::new(300, TraceKind::Write, 4096, 4096).with_hint(StreamTemperature::Cold));
        t.push(TraceOp::new(400, TraceKind::Flush, 0, 0));
        t.push(TraceOp::new(500, TraceKind::Barrier, 0, 0));
        t
    }

    #[test]
    fn stats_aggregate_by_kind() {
        let t = command_trace();
        let s = t.stats();
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.frees, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.barriers, 1);
        assert_eq!(s.hinted_writes, 1);
        assert_eq!(s.read_bytes, 4096);
        assert_eq!(s.write_bytes, 8192);
        assert_eq!(s.free_bytes, 4096);
        assert_eq!(s.max_offset, 8192);
        assert_eq!(s.high_priority, 1);
    }

    #[test]
    fn to_requests_assigns_sequential_ids_and_skips_fences() {
        let t = command_trace();
        let reqs = t.to_requests();
        // Four data ops; the flush and barrier cannot cross the narrow
        // block interface.
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0].id, 0);
        assert_eq!(reqs[2].id, 2);
        assert_eq!(reqs[1].arrival, SimTime::from_micros(100));
        assert_eq!(reqs[1].priority, Priority::High);
        assert_eq!(reqs[2].kind, BlockOpKind::Free);
    }

    #[test]
    fn time_ordering_check() {
        let mut t = sample_trace();
        assert!(t.is_time_ordered());
        t.push(TraceOp::new(50, TraceKind::Read, 8192, 512));
        assert!(!t.is_time_ordered());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn jsonl_roundtrip_with_hints_and_fences() {
        let t = command_trace();
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        // Hints serialize only when present.
        assert_eq!(text.matches("\"hint\"").count(), 1);
        assert!(text.contains("\"Flush\""));
        assert!(text.contains("\"Barrier\""));
        let back = Trace::read_jsonl(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn jsonl_empty_input() {
        let back = Trace::read_jsonl(std::io::BufReader::new(&b""[..])).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name, "");
    }

    #[test]
    fn filters() {
        let t = sample_trace();
        let no_free = t.without_frees();
        assert_eq!(no_free.len(), 2);
        assert!(no_free.ops.iter().all(|o| o.kind != TraceKind::Free));
        assert!(no_free.name.contains("no-free"));
    }

    #[test]
    fn priority_and_hint_default_when_missing_in_json() {
        // A record without priority/hint fields parses with the defaults.
        let json = r#"{"at_micros":5,"kind":"Read","offset":0,"len":512}"#;
        let op = TraceOp::from_json_line(json).unwrap();
        assert_eq!(op.priority, Priority::Normal);
        assert_eq!(op.hint, StreamTemperature::Warm);
        assert_eq!(op.at_micros, 5);
        assert_eq!(op.kind, TraceKind::Read);
        // Malformed records are rejected, not silently defaulted.
        assert!(TraceOp::from_json_line(r#"{"at_micros":5}"#).is_err());
        assert!(TraceOp::from_json_line("not json").is_err());
    }

    #[test]
    fn unknown_kinds_and_hints_fail_loudly() {
        let bad_kind = r#"{"at_micros":5,"kind":"Discard","offset":0,"len":512}"#;
        let err = TraceOp::from_json_line(bad_kind).unwrap_err();
        assert!(err.contains("Discard"), "error should name the kind: {err}");
        let bad_hint = r#"{"at_micros":5,"kind":"Write","offset":0,"len":512,"hint":"Tepid"}"#;
        assert!(TraceOp::from_json_line(bad_hint).is_err());
        let numeric_hint = r#"{"at_micros":5,"kind":"Write","offset":0,"len":512,"hint":3}"#;
        assert!(TraceOp::from_json_line(numeric_hint).is_err());
        // And the same through the file reader: a bad record poisons the
        // whole read instead of parsing as something else.
        let file = format!("\"trace\"\n{bad_kind}\n");
        assert!(Trace::read_jsonl(std::io::BufReader::new(file.as_bytes())).is_err());
    }

    #[test]
    fn trace_kind_conversions() {
        for k in [BlockOpKind::Read, BlockOpKind::Write, BlockOpKind::Free] {
            assert_eq!(TraceKind::from(k).block_kind(), Some(k));
        }
        assert_eq!(TraceKind::Flush.block_kind(), None);
        assert!(!TraceKind::Barrier.addresses_data());
        assert!(TraceKind::Write.addresses_data());
        for k in [
            TraceKind::Read,
            TraceKind::Write,
            TraceKind::Free,
            TraceKind::Flush,
            TraceKind::Barrier,
        ] {
            assert_eq!(k.as_str().parse::<TraceKind>().unwrap(), k);
        }
        assert!("Bogus".parse::<TraceKind>().is_err());
    }
}
