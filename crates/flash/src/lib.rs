//! NAND flash memory model: geometry, timing, page/block state and wear.
//!
//! This crate models the raw medium inside an SSD as described in §2 of
//! *Block Management in Solid-State Devices* (Rajimwale et al., USENIX ATC
//! 2009): a set of flash packages, each with one or more dies, each die with
//! multiple planes that contain blocks of (typically 4 KB) pages.  The model
//! enforces the physical constraints the paper's arguments rest on:
//!
//! * pages are **non-overwrite** — a page must be erased (at block
//!   granularity) before it can be programmed again;
//! * pages within a block must be programmed **sequentially**;
//! * blocks wear out after a bounded number of erase cycles (≈100K for SLC,
//!   ≈10K for MLC), and — when a fault model ([`ossd_reliability`]) is
//!   installed — programs and erases can *fail*, failed erases retire the
//!   block as a grown bad block, and reads suffer wear- and
//!   retention-scaled raw bit errors that the ECC/read-retry path recovers
//!   or surfaces as uncorrectable.
//!
//! Timing parameters ([`FlashTiming`]) provide the service times used by the
//! SSD simulator; the state machine itself is untimed so it can be reused by
//! any scheduling policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bitmap;
pub mod block;
pub mod element;
pub mod error;
pub mod geometry;
pub mod timing;

pub use array::{FlashArray, ReliabilityCounters, WearSummary};
pub use block::{Block, BlockStateChange, PageState};
pub use element::{ElementCounters, FlashElement};
pub use error::FlashError;
pub use geometry::{ElementId, FlashGeometry, PhysPageAddr};
pub use timing::{CellType, FlashTiming};

pub use ossd_reliability::{EccConfig, FaultConfig, ReadStatus, ReliabilityConfig};
