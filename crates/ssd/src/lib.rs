//! SSD device model: parallel flash elements, gangs, FTL integration,
//! scheduling and device profiles.
//!
//! The architecture follows Figure 1 of the paper: a host interface, a flash
//! controller with RAM buffers, and gangs of flash packages behind shared
//! buses, managed by a log-structured flash translation layer with cleaning
//! and wear-leveling.  Requests are split into logical pages, translated by
//! the FTL into flash operations, and scheduled onto per-element and per-bus
//! servers to obtain service times.
//!
//! All host traffic flows through one queue-pair command protocol
//! ([`ossd_block::host`]) into one pipeline: a command is decomposed into
//! per-page flash ops and issued into per-element dispatch queues
//! ([`queue::ElementQueue`]) by one dispatch step, and the time before it
//! with nothing in flight is offered to background cleaning by one idle
//! step.  Sessions of commands reach those steps through the event engine:
//! the SSD's controller implements [`ossd_sim::Controller`] and schedules
//! dispatch under an NCQ-style queue depth ([`SsdConfig::queue_depth`]).
//! Ordering fences (`Flush`/`Barrier`) constrain dispatch per initiator,
//! and stream-temperature write hints are recorded as they cross the
//! interface.  Three drivers exercise that pipeline:
//!
//! * `Ssd::submit` (via the [`ossd_block::BlockDevice`] trait) — the
//!   *closed* driver: one command, which has nothing to be scheduled
//!   against, so it takes the idle and dispatch steps directly, without
//!   the engine — exactly what a one-command FCFS session does.  This is
//!   what bandwidth-style experiments (Table 2, Figure 2, Tables 3–5) use.
//! * [`Ssd::simulate_open`] — the *open* driver: a whole arrival trace as
//!   one single-initiator session, with a controller queue, a pluggable
//!   scheduler ([`SchedulerKind::Fcfs`] or the paper's
//!   shortest-wait-time-first [`SchedulerKind::Swtf`], §3.2) and
//!   engine-delivered idle windows for background cleaning; also used by
//!   the priority-aware cleaning study (Figure 3 / Table 6) and the
//!   queue-depth parallelism sweep.
//! * [`ossd_block::HostInterface::serve`] — the *multi-initiator* driver: N
//!   independent submission/completion queue pairs arbitrated round-robin
//!   into the controller (the `multi_host` experiment).

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod config;
pub(crate) mod controller;
pub mod device;
pub mod error;
pub mod profiles;
pub mod queue;
pub mod sched;
pub mod stats;

pub use config::{MappingKind, SsdConfig};
pub use device::Ssd;
pub use error::SsdError;
pub use profiles::DeviceProfile;
pub use queue::ElementQueue;
pub use sched::{DispatchView, SchedulerKind};
pub use stats::SsdStats;
