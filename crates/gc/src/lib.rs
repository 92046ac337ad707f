//! Cleaning-policy subsystem for solid-state block management.
//!
//! The paper's central claim is that block management — cleaning,
//! allocation, wear-leveling — belongs in the device (§2).  The seed
//! reproduction hard-coded one cleaning policy (greedy, watermark-triggered,
//! write-path-only) inside the FTL; this crate makes the policy a
//! first-class value so devices can be compared along the cleaning axis:
//!
//! * [`policies`] — [`CleaningPolicyKind`], the one type per policy: the
//!   configuration value threaded through `FtlConfig` → `SsdConfig` →
//!   `DeviceProfile` is also what picks victims, over a snapshot of
//!   candidate blocks ([`BlockInfo`]) or over the [`VictimIndex`].  Four
//!   policies span the classic design space: greedy, cost-benefit
//!   (Rosenblum's LFS cleaner), cost-age (wear-aware) and windowed greedy.
//! * [`policy`] — the candidate-block view [`BlockInfo`] and the paper's
//!   watermark trigger ([`watermark_trigger`]) every policy shares.
//! * [`index`] — [`VictimIndex`]: the incremental invalid-count-bucket
//!   index the FTLs maintain on every page-state change, making a greedy
//!   victim pick O(top bucket) and scan-tier picks allocation-free
//!   (candidates drawn from the non-empty buckets only).
//! * [`background`] — [`BackgroundCleaner`]: erase-budgeted incremental
//!   cleaning during idle windows instead of only stalling host writes.
//! * [`analytic`] — the analytical greedy write-amplification curve
//!   ([`analytic_greedy_wa`]) measured results are validated against.
//!
//! The crate is dependency-free and untimed: policies see logical clocks
//! (host-write counts) and page counts, never flash state or simulated
//! time, so the same policy values drive the page-mapped FTL, the stripe
//! FTL's superblock reclamation, and unit tests over hand-crafted block
//! states.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub)]

pub mod analytic;
pub mod background;
pub mod index;
pub mod policies;
pub mod policy;

pub use analytic::analytic_greedy_wa;
pub use background::{BackgroundCleaner, BackgroundGcConfig, BackgroundGcStats};
pub use index::{PickContext, VictimIndex};
pub use policies::CleaningPolicyKind;
pub use policy::{watermark_trigger, BlockInfo, TriggerContext, TriggerDecision};
