//! Deterministic discrete-event simulation foundation for the `ossd` crates.
//!
//! The storage simulators in this workspace (`ossd-ssd`, the disk in
//! `ossd-core`) are trace-driven, deterministic simulators in the style of
//! the simulator used by Agrawal et al. (*Design Tradeoffs for SSD
//! Performance*, USENIX ATC 2008) and by the paper reproduced here
//! (Rajimwale et al., *Block Management in Solid-State Devices*, USENIX
//! ATC 2009).  This crate provides the shared, device-independent pieces:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution simulated clock.
//! * [`SimRng`] — a seeded, reproducible random number generator with the
//!   distribution helpers the workload generators need.
//! * [`stats`] — online summary statistics, latency collections with
//!   percentiles, and throughput accounting.
//! * [`server`] — busy-until-time accounting for single-server resources
//!   (flash elements, gang buses, disk arms).
//! * [`event`] — a deterministic event queue for open-arrival simulations.
//! * [`json`] — the workspace's one vendored JSON parser (trace export
//!   validation).
//! * [`engine`] — the event-driven controller engine: a generic dispatch
//!   loop delivering arrival, op-start, op-complete and idle events to a
//!   device [`Controller`].
//!
//! Everything in this crate is pure computation: no wall-clock access, no
//! threads, no I/O, no `unsafe`.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod engine;
pub mod event;
pub mod json;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use engine::{Controller, DispatchedOp};
pub use event::EventQueue;
pub use rng::{derive_stream_seed, SimRng};
pub use server::{Server, Service};
pub use stats::{improvement_percent, nearest_rank, LatencyStats, Summary, Throughput};
pub use time::{SimDuration, SimTime};
