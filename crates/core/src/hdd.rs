//! Hard-disk-drive simulator.
//!
//! The paper contrasts SSDs with a conventional disk (a 7200 RPM Seagate
//! Barracuda) whose sequential bandwidth is two orders of magnitude higher
//! than its random bandwidth (Table 2) and whose "unwritten contract"
//! assumptions — sequential ≫ random, nearby LBNs mean short seeks, zoned
//! recording, passive device — the rest of the paper examines.  This module
//! provides an analytic disk model sufficient to reproduce those properties:
//! a seek-time curve, rotational latency, zoned transfer rates, and
//! streaming detection for sequential access.

pub mod config;
pub mod device;

pub use config::HddConfig;
pub use device::Hdd;
