//! Fleet-scale parallel simulation: a multi-device SSD array behind one
//! host interface, with per-device engine threads and a deterministic
//! completion merge.
//!
//! The single-device simulators in this workspace are strictly
//! single-threaded — determinism comes from one event queue with total
//! ordering.  This crate scales that model out instead of up: a
//! [`Fleet`] owns an array of [`ossd_ssd::Ssd`]s and routes the exported
//! byte space across them, either
//!
//! * **striped** (RAID-0): stripes dealt round-robin, aggregate capacity
//!   and bandwidth, no redundancy; or
//! * **replicated**: every write mirrored to all live replicas, reads
//!   routed deterministically to one, survivable device failure with
//!   online rebuild ([`Fleet::fail_device`] / [`Fleet::replace_device`] /
//!   [`Fleet::rebuild_range`]); or
//! * **parity** (RAID-5): rotating XOR parity over `devices - 1` data
//!   units per row ([`parity`]), `devices - 1` devices' worth of
//!   capacity, and degraded-mode serving — a failed member's data is
//!   reconstructed from the survivors online, uncorrectable reads on
//!   live members are transparently repaired from parity, and rebuild
//!   onto a replacement runs under a QoS governor ([`qos`]) that trades
//!   copy-back bandwidth against survivor tail latency.
//!
//! ```text
//!  initiators ─► HostQueues ─► global round-robin arbitration
//!                                   │ validate (atomic) + fan out
//!                  ┌────────────────┼────────────────┐
//!                  ▼                ▼                ▼
//!              dev0 queues      dev1 queues      devN queues
//!              engine thread    engine thread    engine thread
//!                  └────────────────┼────────────────┘
//!                                   ▼
//!             merge by (finish, device, sequence) ─► reduce ─► CQs
//! ```
//!
//! The devices' event engines run on the fleet's long-lived engine threads
//! (`Ssd` is `Send` and moves to the thread that serves it; devices share
//! no state; per-device RNG streams come from
//! [`ossd_sim::derive_stream_seed`]), and the merge step re-imposes one
//! canonical completion order, so a seeded run is bit-for-bit identical
//! for every thread count — and a 1-device fleet is bit-for-bit identical
//! to the standalone device.  See [`fleet`] for the full session
//! pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod config;
pub mod fleet;
pub mod parity;
pub mod qos;
pub mod router;
pub mod telemetry;

pub use config::{FleetConfig, FleetLayout};
pub use fleet::{Fleet, FleetSubCompletion};
pub use parity::{DegradedView, ParityGeometry, ParityPlan, ScrubReport, SubOpKind};
pub use qos::RebuildQos;
pub use router::{split_striped, DeviceSlice};
pub use telemetry::{fleet_chrome_trace, FleetSample, FleetSeries};
