//! Host↔device storage interface shared by the HDD, SSD and object
//! simulators.
//!
//! The paper argues that the narrow block interface (reads and writes of
//! logical block numbers) hides too much from the device and too much from
//! the file system.  This crate defines both sides of that argument as one
//! *queue-pair command protocol* (see [`host`]): a [`HostCommand`]
//! vocabulary spanning plain block traffic, free notifications,
//! stream-temperature write hints, ordering fences and object management,
//! carried over per-initiator submission/completion queue pairs
//! ([`HostQueue`]) that any device implementing [`HostInterface`] serves
//! through its controller.
//!
//! ```text
//!  initiators ──► HostQueue (SQ/CQ) ──► round-robin ──► device controller
//!                 one pair each         arbitration      (event engine)
//! ```
//!
//! Layers on top of the transport:
//!
//! * [`BlockRequest`] / [`BlockOpKind`] / [`Priority`] — a single narrow
//!   block I/O; [`BlockDevice::submit`] is the depth-1 closed driver of the
//!   queue-pair transport.
//! * [`ByteRange`] — offset/length arithmetic with alignment helpers.
//! * [`trace`] — serializable command traces, including the `Free` records
//!   the informed-cleaning study depends on plus the hint/flush/barrier
//!   records of the richer protocol.
//! * [`replay`] — incremental enqueue-and-poll trace runners that collect
//!   latency (means and p50/p95/p99 percentiles per class) and throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod device;
pub mod host;
pub mod range;
pub mod replay;
pub mod request;
pub mod trace;

pub use device::{BlockDevice, DeviceError, DeviceInfo};
pub use host::{
    arbitrate_round_robin, complete_session, ArbitratedCommand, HostCommand, HostInterface,
    HostQueue, ObjectAttrs, StreamTemperature, SubmittedCommand, WriteHint,
};
pub use range::ByteRange;
pub use replay::{replay_closed, replay_open, LatencyPercentiles, ReplayReport, ReportPercentiles};
pub use request::{BlockOpKind, BlockRequest, Completion, CompletionStatus, Priority};
pub use trace::{Trace, TraceKind, TraceOp, TraceStats};
