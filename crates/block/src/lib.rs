//! Host↔device block interface shared by the HDD and SSD simulators, the
//! fleet and the object store.
//!
//! The paper argues that the narrow block interface (reads and writes of
//! logical block numbers) hides too much from the device and too much from
//! the file system.  This crate defines the block side of that argument as
//! one *queue-pair command protocol* (see [`host`]): a [`HostCommand`]
//! vocabulary of plain block traffic, free notifications,
//! stream-temperature write hints and ordering fences, carried over
//! per-initiator submission/completion queue pairs ([`HostQueue`]) that any
//! device implementing [`HostInterface`] serves through its controller.
//! Objects (§3.7) are the object store's own typed API in `ossd-core`; their
//! I/O crosses this transport as block commands.
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
//! * [`ByteRange`] — a byte offset and length.
//! * [`replay`] — runners that submit a request stream one request at a
//!   time and collect latency (means and p50/p95/p99 percentiles per
//!   class) and throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod device;
pub mod host;
pub mod range;
pub mod replay;
pub mod request;

pub use device::{BlockDevice, DeviceError, DeviceInfo};
pub use host::{
    arbitrate_round_robin, complete_session, ArbitratedCommand, HostCommand, HostInterface,
    HostQueue, StreamTemperature, SubmittedCommand, WriteHint,
};
pub use range::ByteRange;
pub use replay::{replay_closed, replay_open, LatencyPercentiles, ReplayReport};
pub use request::{BlockOpKind, BlockRequest, Completion, CompletionStatus, Priority};
