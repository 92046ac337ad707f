//! Structured trace events: tracks, kinds and the compact record the
//! recorder stores.
//!
//! Every event is stamped in *simulated* time and attached to a [`Track`] —
//! the timeline row it renders on when exported ([`crate::chrome`]).  The
//! device model has one natural row per independently timed resource: each
//! flash element (die), each gang bus, each host initiator, plus one row for
//! device-scope events (idle windows, background-GC windows, arbitration).

use ossd_sim::SimTime;

/// The timeline a trace event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Device-scope events: idle windows, background-GC windows,
    /// session-level markers.
    Device,
    /// One flash element (die).
    Element(u32),
    /// One gang bus.
    Bus(u32),
    /// One host initiator (submission/completion queue pair).
    Initiator(u32),
}

impl Track {
    /// A short human-readable label (used as the Chrome-trace thread name).
    pub fn label(&self) -> String {
        match self {
            Track::Device => "device".to_string(),
            Track::Element(e) => format!("element {e}"),
            Track::Bus(b) => format!("bus {b}"),
            Track::Initiator(i) => format!("initiator {i}"),
        }
    }
}

/// Numeric codes for `ossd_ftl::OpPurpose`-style operation purposes.
///
/// The telemetry crate sits below the FTL in the dependency graph, so the
/// purpose travels as a plain code in an event's argument slot; these
/// constants and [`purpose_name`] keep the encoding in one place.
pub mod purpose {
    /// Servicing a host read.
    pub const HOST_READ: u64 = 0;
    /// Servicing a host write.
    pub const HOST_WRITE: u64 = 1;
    /// Foreground (write-path) garbage collection.
    pub const CLEAN: u64 = 2;
    /// Background (idle-window) garbage collection.
    pub const BACKGROUND_CLEAN: u64 = 3;
    /// Explicit wear-leveling migration.
    pub const WEAR_LEVEL: u64 = 4;
}

/// The display name of a purpose code (see [`purpose`]).
pub fn purpose_name(code: u64) -> &'static str {
    match code {
        purpose::HOST_READ => "host-read",
        purpose::HOST_WRITE => "host-write",
        purpose::CLEAN => "clean",
        purpose::BACKGROUND_CLEAN => "background-clean",
        purpose::WEAR_LEVEL => "wear-level",
        _ => "unknown",
    }
}

/// What a trace event records.
///
/// Kinds are either *spans* (a duration: `start < end` is meaningful) or
/// *instants* (a point in time); [`EventKind::is_span`] distinguishes them.
/// The meaning of the two argument slots `a`/`b` of a [`TraceEvent`] depends
/// on the kind (see [`EventKind::arg_names`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    // -- command lifecycle (initiator tracks) -------------------------------
    /// Span: a command waiting at the controller between its arrival and
    /// its dispatch.  `a` = command id.
    CmdQueued,
    /// Span: a read command in service (dispatch to finish).  `a` = command
    /// id, `b` = completion status (0 ok, 1 uncorrectable).
    CmdRead,
    /// Span: a write command in service.  `a` = command id, `b` = status.
    CmdWrite,
    /// Span: a free (TRIM) command in service.  `a` = command id.
    CmdFree,
    /// Span: a flush command in service.  `a` = command id.
    CmdFlush,
    /// Span: a barrier command in service.  `a` = command id.
    CmdBarrier,
    // -- flash operations (element/bus tracks) ------------------------------
    /// Span: an array read occupying an element.  `a` = purpose code,
    /// `b` = element index.
    FlashRead,
    /// Span: an ECC read-retry pass occupying an element.  `a` = purpose
    /// code, `b` = element index.
    FlashReadRetry,
    /// Span: an array program occupying an element.  `a` = purpose code,
    /// `b` = element index.
    FlashProgram,
    /// Span: an internal copy-back (GC page move) occupying an element.
    /// `a` = purpose code, `b` = element index.
    FlashCopyback,
    /// Span: a block erase occupying an element.  `a` = purpose code,
    /// `b` = element index.
    FlashErase,
    /// Span: a page crossing a gang bus.  `a` = purpose code, `b` = element
    /// index the transfer serves.
    BusTransfer,
    /// Span: a translation-page read (map-cache miss fill) occupying an
    /// element.  `a` = purpose code, `b` = element index.
    FlashMapRead,
    /// Span: a translation-page program (dirty map writeback) occupying an
    /// element.  `a` = purpose code, `b` = element index.
    FlashMapWrite,
    // -- device-scope spans --------------------------------------------------
    /// Span: an idle window delivered by the event engine with nothing in
    /// flight.
    DeviceIdle,
    /// Span: background cleaning occupying (part of) an idle window.
    /// `a` = blocks erased, `b` = pages moved.
    GcBackgroundWindow,
    // -- garbage-collection instants -----------------------------------------
    /// Instant: the cleaning policy decided to clean.  `a` = free fraction
    /// in parts per million, `b` = element index.
    GcTrigger,
    /// Instant: priority-aware cleaning postponed a pass.  `a` = free
    /// fraction in ppm, `b` = element index.
    GcPostponed,
    /// Instant: a victim block was selected.  `a` = block (or superblock)
    /// index, `b` = purpose code.
    GcVictimPick,
    /// Instant: a cleaning pass found nothing reclaimable.  `a` = element
    /// index.
    GcFruitless,
    // -- reliability instants ------------------------------------------------
    /// Instant: a read needed ECC retries.  `a` = number of retries,
    /// `b` = element index.
    EccRetry,
    /// Instant: a read stayed uncorrectable after every retry.  `a` =
    /// logical page number.
    ReadUncorrectable,
    /// Instant: a page program failed (burned page).  `a` = block index,
    /// `b` = element index.
    ProgramFail,
    /// Instant: a block erase failed (grown bad block).  `a` = block index,
    /// `b` = element index.
    EraseFail,
    /// Instant: a block was retired by the bad-block manager.  `a` = block
    /// index, `b` = element index.
    BlockRetired,
    // -- session instants ----------------------------------------------------
    /// Instant: a queue-pair session was arbitrated.  `a` = commands,
    /// `b` = initiators.
    SessionArbitrated,
}

impl EventKind {
    /// Whether the kind is a span (has a duration) rather than an instant.
    pub fn is_span(&self) -> bool {
        matches!(
            self,
            EventKind::CmdQueued
                | EventKind::CmdRead
                | EventKind::CmdWrite
                | EventKind::CmdFree
                | EventKind::CmdFlush
                | EventKind::CmdBarrier
                | EventKind::FlashRead
                | EventKind::FlashReadRetry
                | EventKind::FlashProgram
                | EventKind::FlashCopyback
                | EventKind::FlashErase
                | EventKind::BusTransfer
                | EventKind::FlashMapRead
                | EventKind::FlashMapWrite
                | EventKind::DeviceIdle
                | EventKind::GcBackgroundWindow
        )
    }

    /// The event name as rendered in trace exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CmdQueued => "queued",
            EventKind::CmdRead => "read",
            EventKind::CmdWrite => "write",
            EventKind::CmdFree => "free",
            EventKind::CmdFlush => "flush",
            EventKind::CmdBarrier => "barrier",
            EventKind::FlashRead => "flash-read",
            EventKind::FlashReadRetry => "flash-read-retry",
            EventKind::FlashProgram => "flash-program",
            EventKind::FlashCopyback => "flash-copyback",
            EventKind::FlashErase => "flash-erase",
            EventKind::BusTransfer => "bus-transfer",
            EventKind::FlashMapRead => "flash-map-read",
            EventKind::FlashMapWrite => "flash-map-write",
            EventKind::DeviceIdle => "idle",
            EventKind::GcBackgroundWindow => "gc-background",
            EventKind::GcTrigger => "gc-trigger",
            EventKind::GcPostponed => "gc-postponed",
            EventKind::GcVictimPick => "gc-victim-pick",
            EventKind::GcFruitless => "gc-fruitless",
            EventKind::EccRetry => "ecc-retry",
            EventKind::ReadUncorrectable => "read-uncorrectable",
            EventKind::ProgramFail => "program-fail",
            EventKind::EraseFail => "erase-fail",
            EventKind::BlockRetired => "block-retired",
            EventKind::SessionArbitrated => "session-arbitrated",
        }
    }

    /// The trace category the kind belongs to (Chrome-trace `cat` field).
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::CmdQueued
            | EventKind::CmdRead
            | EventKind::CmdWrite
            | EventKind::CmdFree
            | EventKind::CmdFlush
            | EventKind::CmdBarrier => "cmd",
            EventKind::FlashRead
            | EventKind::FlashReadRetry
            | EventKind::FlashProgram
            | EventKind::FlashCopyback
            | EventKind::FlashErase
            | EventKind::BusTransfer
            | EventKind::FlashMapRead
            | EventKind::FlashMapWrite => "flash",
            EventKind::DeviceIdle => "device",
            EventKind::GcBackgroundWindow
            | EventKind::GcTrigger
            | EventKind::GcPostponed
            | EventKind::GcVictimPick
            | EventKind::GcFruitless => "gc",
            EventKind::EccRetry
            | EventKind::ReadUncorrectable
            | EventKind::ProgramFail
            | EventKind::EraseFail
            | EventKind::BlockRetired => "reliability",
            EventKind::SessionArbitrated => "session",
        }
    }

    /// Names of the two argument slots (`None` = the slot is unused).
    pub fn arg_names(&self) -> [Option<&'static str>; 2] {
        match self {
            EventKind::CmdQueued
            | EventKind::CmdFree
            | EventKind::CmdFlush
            | EventKind::CmdBarrier => [Some("id"), None],
            EventKind::CmdRead | EventKind::CmdWrite => [Some("id"), Some("status")],
            EventKind::FlashRead
            | EventKind::FlashReadRetry
            | EventKind::FlashProgram
            | EventKind::FlashCopyback
            | EventKind::FlashErase
            | EventKind::BusTransfer
            | EventKind::FlashMapRead
            | EventKind::FlashMapWrite => [Some("purpose"), Some("element")],
            EventKind::DeviceIdle => [None, None],
            EventKind::GcBackgroundWindow => [Some("erases"), Some("moves")],
            EventKind::GcTrigger | EventKind::GcPostponed => [Some("free_ppm"), Some("element")],
            EventKind::GcVictimPick => [Some("block"), Some("purpose")],
            EventKind::GcFruitless => [Some("element"), None],
            EventKind::EccRetry => [Some("retries"), Some("element")],
            EventKind::ReadUncorrectable => [Some("lpn"), None],
            EventKind::ProgramFail | EventKind::EraseFail | EventKind::BlockRetired => {
                [Some("block"), Some("element")]
            }
            EventKind::SessionArbitrated => [Some("commands"), Some("initiators")],
        }
    }

    /// Whether the first argument slot carries a purpose code (rendered by
    /// the exporter as a purpose name).
    pub(crate) fn first_arg_is_purpose(&self) -> bool {
        matches!(
            self,
            EventKind::FlashRead
                | EventKind::FlashReadRetry
                | EventKind::FlashProgram
                | EventKind::FlashCopyback
                | EventKind::FlashErase
                | EventKind::BusTransfer
                | EventKind::FlashMapRead
                | EventKind::FlashMapWrite
        )
    }
}

/// One recorded trace event.
///
/// Spans carry `start < end`; instants carry `start == end`.  The `a`/`b`
/// slots are kind-specific (see [`EventKind::arg_names`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event (or span) begins.
    pub start: SimTime,
    /// When the span ends (== `start` for instants).
    pub end: SimTime,
    /// The timeline the event belongs to.
    pub track: Track,
    /// What happened.
    pub kind: EventKind,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_and_instant_kinds_are_disjoint() {
        assert!(EventKind::CmdRead.is_span());
        assert!(EventKind::FlashErase.is_span());
        assert!(EventKind::DeviceIdle.is_span());
        assert!(!EventKind::GcVictimPick.is_span());
        assert!(!EventKind::ProgramFail.is_span());
        assert!(!EventKind::SessionArbitrated.is_span());
    }

    #[test]
    fn track_labels_are_distinct() {
        assert_eq!(Track::Device.label(), "device");
        assert_eq!(Track::Element(3).label(), "element 3");
        assert_eq!(Track::Bus(0).label(), "bus 0");
        assert_eq!(Track::Initiator(7).label(), "initiator 7");
    }

    #[test]
    fn purpose_codes_round_trip_to_names() {
        assert_eq!(purpose_name(purpose::HOST_READ), "host-read");
        assert_eq!(purpose_name(purpose::HOST_WRITE), "host-write");
        assert_eq!(purpose_name(purpose::CLEAN), "clean");
        assert_eq!(purpose_name(purpose::BACKGROUND_CLEAN), "background-clean");
        assert_eq!(purpose_name(purpose::WEAR_LEVEL), "wear-level");
        assert_eq!(purpose_name(99), "unknown");
    }
}
