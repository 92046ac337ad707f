//! Deterministic fault model and recovery parameters for flash media.
//!
//! The paper's case for device-side block management rests on the device
//! hiding flash's failure modes — limited erase endurance, grown bad
//! blocks and raw bit errors — behind remapping and ECC (§2).  This crate
//! supplies the *fault side* of that story as a seeded, reproducible
//! model; the flash array consults it on every program, erase and read,
//! and the FTLs implement the *recovery* side (re-programming, block
//! retirement, read-retry dispatch).
//!
//! * [`config`] — [`FaultConfig`] (failure probabilities and their wear
//!   scaling), [`EccConfig`] (correctable bits per codeword, read-retry
//!   budget) and the combined [`ReliabilityConfig`] threaded through
//!   `SsdConfig` → `FlashArray`.
//! * [`model`] — `FaultInjector` (the seeded random source) and
//!   [`ReliabilityModel`] (injector + ECC decode loop), plus
//!   [`ReadStatus`], the per-read outcome (retries used, corrected bits,
//!   uncorrectable flag).
//!
//! A zero base probability (or a zero `raw_ber_base`) is zero at any wear,
//! and is returned without evaluating the wear factor: a fault switched
//! off stays off even where `e^(growth · wear)` overflows to infinity, and
//! costs no `exp`.  A program run whose failure probability is zero steps
//! the generator once per page, as the per-page draws would, without the
//! float comparisons.
//!
//! Everything draws from the workspace's vendored xoshiro256++ generator
//! ([`ossd_sim::SimRng`]) seeded from [`FaultConfig::seed`], so a given
//! configuration produces the same failure sequence bit-for-bit on every
//! run.  The default configuration ([`ReliabilityConfig::none`]) installs
//! no model at all: fault-free devices take exactly the pre-reliability
//! code paths and make zero random draws.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod config;
pub mod model;

pub use config::{EccConfig, FaultConfig, ReliabilityConfig};
pub use model::{ReadStatus, ReliabilityModel};
