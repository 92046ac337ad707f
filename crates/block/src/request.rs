//! Block I/O requests, priorities and completions.

use ossd_sim::{SimDuration, SimTime};

use crate::range::ByteRange;

/// Size of a logical sector (the LBN granularity of SCSI/ATA).
pub(crate) const SECTOR_BYTES: u64 = 512;

/// The kind of a block-level operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockOpKind {
    /// Read the addressed bytes.
    Read,
    /// Write the addressed bytes.
    Write,
    /// Notify the device that the addressed bytes no longer hold live data
    /// (the TRIM-style "free" notification used by informed cleaning).
    Free,
}

impl BlockOpKind {
    /// Whether the operation transfers data (reads and writes do, frees do
    /// not).
    pub(crate) fn transfers_data(self) -> bool {
        matches!(self, BlockOpKind::Read | BlockOpKind::Write)
    }

    /// The variant name used by the trace serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            BlockOpKind::Read => "Read",
            BlockOpKind::Write => "Write",
            BlockOpKind::Free => "Free",
        }
    }
}

impl std::str::FromStr for BlockOpKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "Read" => Ok(BlockOpKind::Read),
            "Write" => Ok(BlockOpKind::Write),
            "Free" => Ok(BlockOpKind::Free),
            other => Err(format!("unknown block op kind {other:?}")),
        }
    }
}

/// Request priority as exposed by the host.
///
/// The paper's QoS experiment (§3.6) marks 10% of requests as high priority
/// ("foreground") and lets the SSD postpone cleaning while such requests are
/// outstanding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive foreground request.
    High,
    /// Ordinary request.
    #[default]
    Normal,
}

impl Priority {
    /// Whether this is the high (foreground) priority.
    pub(crate) fn is_high(self) -> bool {
        matches!(self, Priority::High)
    }

    /// The variant name used by the trace serialization.
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::High => "High",
            Priority::Normal => "Normal",
        }
    }
}

impl std::str::FromStr for Priority {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "High" => Ok(Priority::High),
            "Normal" => Ok(Priority::Normal),
            other => Err(format!("unknown priority {other:?}")),
        }
    }
}

/// One block-level request as submitted to a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockRequest {
    /// Monotonically increasing request identifier (assigned by the
    /// submitter; echoed back in the completion).
    pub id: u64,
    /// What to do.
    pub kind: BlockOpKind,
    /// Which bytes to do it to.
    pub range: ByteRange,
    /// When the request arrives at the device.
    pub arrival: SimTime,
    /// Host-assigned priority.
    pub priority: Priority,
}

impl BlockRequest {
    /// Creates a read request.
    pub fn read(id: u64, offset: u64, len: u64, arrival: SimTime) -> Self {
        BlockRequest {
            id,
            kind: BlockOpKind::Read,
            range: ByteRange::new(offset, len),
            arrival,
            priority: Priority::Normal,
        }
    }

    /// Creates a write request.
    pub fn write(id: u64, offset: u64, len: u64, arrival: SimTime) -> Self {
        BlockRequest {
            id,
            kind: BlockOpKind::Write,
            range: ByteRange::new(offset, len),
            arrival,
            priority: Priority::Normal,
        }
    }

    /// Creates a free (TRIM) notification.
    pub fn free(id: u64, offset: u64, len: u64, arrival: SimTime) -> Self {
        BlockRequest {
            id,
            kind: BlockOpKind::Free,
            range: ByteRange::new(offset, len),
            arrival,
            priority: Priority::Normal,
        }
    }

    /// Returns the same request with the given priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Number of bytes addressed.
    pub fn len(&self) -> u64 {
        self.range.len
    }

    /// Whether the request addresses zero bytes.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// Number of whole 512-byte sectors addressed (rounded up).
    pub fn sectors(&self) -> u64 {
        self.range.len.div_ceil(SECTOR_BYTES)
    }
}

/// The typed outcome a completion carries back to the host.
///
/// Device-side media failures that a real controller reports per command —
/// today, reads whose data stayed uncorrectable after every ECC retry —
/// surface here, on the completion, instead of aborting the serve: the
/// command still occupies the device for its full (retry-laden) service
/// time, other initiators' traffic is unaffected, and the host decides how
/// to recover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CompletionStatus {
    /// The command succeeded.
    #[default]
    Ok,
    /// A read's data stayed uncorrectable after every ECC read-retry; the
    /// addressed bytes are lost.
    UncorrectableRead,
}

impl CompletionStatus {
    /// Whether the command succeeded.
    pub fn is_ok(self) -> bool {
        self == CompletionStatus::Ok
    }
}

/// The completion record a device returns for a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The request this completion answers.
    pub request_id: u64,
    /// When the request arrived.
    pub arrival: SimTime,
    /// When the device started working on it.
    pub start: SimTime,
    /// When it finished.
    pub finish: SimTime,
    /// The typed outcome (success or a media error).
    pub status: CompletionStatus,
}

impl Completion {
    /// A successful completion with the given identity and timing.
    pub fn ok(request_id: u64, arrival: SimTime, start: SimTime, finish: SimTime) -> Self {
        Completion {
            request_id,
            arrival,
            start,
            finish,
            status: CompletionStatus::Ok,
        }
    }

    /// Whether the command succeeded.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// Total response time (queueing plus service).
    pub fn response_time(&self) -> SimDuration {
        self.finish.saturating_since(self.arrival)
    }

    /// Time spent waiting before service began.
    pub fn queue_wait(&self) -> SimDuration {
        self.start.saturating_since(self.arrival)
    }

    /// Time spent being serviced.
    pub fn service_time(&self) -> SimDuration {
        self.finish.saturating_since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind_and_range() {
        let t = SimTime::from_micros(3);
        let r = BlockRequest::read(1, 4096, 8192, t);
        assert_eq!(r.kind, BlockOpKind::Read);
        assert_eq!(r.range, ByteRange::new(4096, 8192));
        assert_eq!(r.arrival, t);
        assert_eq!(r.priority, Priority::Normal);
        let w = BlockRequest::write(2, 0, 512, t);
        assert_eq!(w.kind, BlockOpKind::Write);
        let f = BlockRequest::free(3, 0, 512, t);
        assert_eq!(f.kind, BlockOpKind::Free);
    }

    #[test]
    fn priority_builder() {
        let r = BlockRequest::read(1, 0, 512, SimTime::ZERO).with_priority(Priority::High);
        assert!(r.priority.is_high());
        assert!(!Priority::Normal.is_high());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn sector_rounding() {
        let r = BlockRequest::read(1, 0, 513, SimTime::ZERO);
        assert_eq!(r.sectors(), 2);
        let r = BlockRequest::read(1, 0, 512, SimTime::ZERO);
        assert_eq!(r.sectors(), 1);
        let r = BlockRequest::read(1, 0, 0, SimTime::ZERO);
        assert_eq!(r.sectors(), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn kind_data_transfer() {
        assert!(BlockOpKind::Read.transfers_data());
        assert!(BlockOpKind::Write.transfers_data());
        assert!(!BlockOpKind::Free.transfers_data());
    }

    #[test]
    fn completion_timing_breakdown() {
        let c = Completion::ok(
            7,
            SimTime::from_micros(100),
            SimTime::from_micros(150),
            SimTime::from_micros(400),
        );
        assert_eq!(c.response_time(), SimDuration::from_micros(300));
        assert_eq!(c.queue_wait(), SimDuration::from_micros(50));
        assert_eq!(c.service_time(), SimDuration::from_micros(250));
        assert!(c.is_ok());
    }

    #[test]
    fn completion_status_defaults_to_ok() {
        assert_eq!(CompletionStatus::default(), CompletionStatus::Ok);
        assert!(CompletionStatus::Ok.is_ok());
        assert!(!CompletionStatus::UncorrectableRead.is_ok());
        let c = Completion {
            status: CompletionStatus::UncorrectableRead,
            ..Completion::ok(1, SimTime::ZERO, SimTime::ZERO, SimTime::ZERO)
        };
        assert!(!c.is_ok());
    }

    #[test]
    fn priority_and_kind_string_roundtrip() {
        for p in [Priority::High, Priority::Normal] {
            assert_eq!(p.as_str().parse::<Priority>().unwrap(), p);
        }
        for k in [BlockOpKind::Read, BlockOpKind::Write, BlockOpKind::Free] {
            assert_eq!(k.as_str().parse::<BlockOpKind>().unwrap(), k);
        }
        assert!("Bogus".parse::<Priority>().is_err());
        assert!("Bogus".parse::<BlockOpKind>().is_err());
    }
}
