//! Object-based block management for solid-state devices.
//!
//! This crate is the constructive part of *Block Management in Solid-State
//! Devices* (Rajimwale, Prabhakaran, Davis; USENIX ATC 2009): once block
//! management is delegated to the device — ideally behind an object-based
//! (OSD) interface — the device can do things the narrow block interface
//! makes impossible:
//!
//! * [`osd`] — an object store ([`OsdDevice`]) layered on the SSD simulator:
//!   the device performs allocation and layout for objects, object deletion
//!   immediately releases pages to the FTL (informed cleaning without TRIM),
//!   and object attributes carry priorities that the device's cleaning
//!   respects.  Objects are managed through its typed API alone; their
//!   I/O reaches the SSD as block commands over the queue-pair transport.
//! * [`contract`] — an executable version of the paper's Table 1: probes
//!   that test each term of the "unwritten contract" against a simulated
//!   disk and a simulated SSD.
//! * [`experiments`] — drivers that regenerate every table and figure of the
//!   paper's evaluation (Tables 2–6, Figures 2–3, §3.2's scheduler study),
//!   shared by the `ossd-exp` binary and the integration tests.
//!
//! Two modules hold what those drivers run against besides the SSD:
//!
//! * [`hdd`] — the analytic disk simulator, the paper's baseline device.
//! * [`workload`] — the synthetic and macro-benchmark workload generators.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod contract;
pub mod experiments;
pub mod hdd;
pub mod osd;
pub mod workload;

pub use contract::{ContractReport, ContractTerm, TermVerdict};
pub use experiments::Scale;
pub use osd::{ObjectAttrs, ObjectId, OsdDevice, OsdError};
