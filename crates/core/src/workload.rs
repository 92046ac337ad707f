//! Workload generators.
//!
//! The paper's experiments are driven by two kinds of workloads:
//!
//! * **Synthetic** streams with controlled parameters — request size,
//!   read/write mix, probability of sequential access, arrival process,
//!   fraction of high-priority requests (§3.2, §3.4 Table 3, §3.6).
//! * **Macro-benchmark models** reconstructing the block-level behaviour of
//!   the traces the paper replays: Postmark (small-file create/delete
//!   churn), TPC-C (random page I/O against a large database plus a
//!   sequential log), Exchange (mail-server style mixed I/O) and IOzone
//!   (large sequential file writes) — used by Tables 4 and 5.
//!
//! Macro workloads that create and delete files route their allocations
//! through `fslite::FsLite`, a miniature extent allocator, so the emitted
//! traces contain realistic *free* (TRIM-style) notifications — the
//! information informed cleaning (§3.5) depends on.
//!
//! All generators are deterministic given their seed.

pub(crate) mod exchange;
pub(crate) mod fslite;
pub(crate) mod iozone;
pub mod postmark;
pub mod synthetic;
pub mod tpcc;

pub(crate) use exchange::ExchangeConfig;
pub(crate) use iozone::IozoneConfig;
pub use postmark::PostmarkConfig;
pub use synthetic::{InterArrival, SyntheticConfig};
pub use tpcc::TpccConfig;
