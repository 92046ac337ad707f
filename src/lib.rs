//! `ossd` — Block Management in Solid-State Devices, reproduced in Rust.
//!
//! This facade crate re-exports the workspace crates under one roof so that
//! examples, integration tests and downstream users can depend on a single
//! package:
//!
//! * [`sim`] — deterministic simulation engine (time, RNG, statistics).
//! * [`reliability`] — the seeded fault model: program/erase failures,
//!   grown bad blocks, raw bit errors and the ECC/read-retry parameters.
//! * [`flash`] — NAND geometry, timing and wear model.
//! * [`gc`] — the pluggable cleaning-policy subsystem: victim-selection
//!   policies, background (idle-window) cleaning and write-amplification
//!   accounting.
//! * [`ftl`] — page-mapped and stripe-mapped flash translation layers with
//!   cleaning, wear-leveling, informed cleaning and priority-aware cleaning.
//! * [`ssd`] — the SSD device model (gangs, schedulers, device profiles).
//! * [`fleet`] — multi-device arrays: striped/replicated routing over
//!   member `Ssd`s, per-device engine threads with a deterministic
//!   completion merge, device failure/replacement/rebuild.
//! * [`block`] — the queue-pair host interface (commands, hints, fences,
//!   per-initiator queue pairs), traces and replay helpers.
//! * [`core`] — the paper's contribution: the object-based storage layer,
//!   the unwritten-contract evaluator and the experiment drivers, with the
//!   two modules those drivers run against besides the SSD, re-exported
//!   here as [`hdd`] (the disk simulator used as the paper's baseline) and
//!   [`workload`] (synthetic and macro-benchmark workload generators).
//!
//! # Quickstart
//!
//! ```
//! use ossd::block::{BlockDevice, BlockRequest};
//! use ossd::sim::SimTime;
//! use ossd::ssd::{Ssd, SsdConfig};
//!
//! let mut ssd = Ssd::new(SsdConfig::tiny_page_mapped()).unwrap();
//! let write = BlockRequest::write(0, 0, 4096, SimTime::ZERO);
//! let completion = ssd.submit(&write).unwrap();
//! assert!(completion.finish > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use ossd_block as block;
pub use ossd_core as core;
pub use ossd_core::{hdd, workload};
pub use ossd_flash as flash;
pub use ossd_fleet as fleet;
pub use ossd_ftl as ftl;
pub use ossd_gc as gc;
pub use ossd_reliability as reliability;
pub use ossd_sim as sim;
pub use ossd_ssd as ssd;
