//! Flash translation layers (FTLs).
//!
//! The FTL is where the paper locates "block management done by the device":
//! logical-to-physical mapping, allocation, cleaning (garbage collection) and
//! wear-leveling (§2, §3.5, §3.6).  This crate provides two FTLs that differ
//! exactly along the axis the paper's device comparison (Table 2, Figure 2)
//! depends on:
//!
//! * [`PageFtl`] — a page-mapped, log-structured FTL with greedy garbage
//!   collection, wear-leveling, optional *informed cleaning* (free-page
//!   knowledge) and optional *priority-aware cleaning*.  This models the
//!   paper's simulated device (S4slc_sim) and mid/high-end SSDs.
//! * [`StripeFtl`] — a coarse-grained FTL that maps whole stripes (the
//!   device's logical page, e.g. 1 MB) and performs read-modify-write for
//!   sub-stripe updates.  This models the low-end engineering samples
//!   (S2slc, S3slc) whose random-write bandwidth collapses and whose
//!   bandwidth-vs-write-size curve shows the saw-tooth of Figure 2.
//!
//! FTLs are untimed: each logical operation returns the list of flash
//! operations ([`FlashOp`]) the device must schedule, and the device model in
//! `ossd-ssd` assigns start/finish times to them.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

mod bitset;
pub mod config;
pub mod error;
mod indexcheck;
mod pagemap;
mod pool;
mod ppn;
pub(crate) mod stripemap;
pub mod types;

pub use config::{CleaningMode, FtlConfig, WearLevelConfig};
pub use error::FtlError;
pub use pagemap::PageFtl;
pub use stripemap::StripeFtl;
pub use types::{FlashOp, FlashOpKind, Ftl, FtlStats, Lpn, OpPurpose, WriteContext};

// Re-exported so device configuration can name cleaning policies without a
// direct `ossd-gc` dependency.
pub use ossd_gc::CleaningPolicyKind;

// Re-exported so device configuration and stats consumers can name the
// demand-paged mapping types without a direct `ossd-mapcache` dependency.
pub use ossd_mapcache::{MapCacheConfig, MapStats};
