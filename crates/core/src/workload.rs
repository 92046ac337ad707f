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
//! Every generator emits what a device sees through the block interface:
//! [`BlockRequest`]s with ids `0..n` in emission order and non-decreasing
//! arrivals, ready to submit.  Macro workloads that create and delete
//! files route their allocations through `fslite::FsLite`, a miniature
//! extent allocator, so the emitted stream contains realistic *free*
//! (TRIM-style) requests — the information informed cleaning (§3.5)
//! depends on.
//!
//! All generators are deterministic given their seed.

use ossd_block::{BlockOpKind, BlockRequest, ByteRange, Priority};
use ossd_sim::SimTime;

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

/// Appends a normal-priority request arriving `at_micros` after the start,
/// numbered with its position in `requests`.
fn push(
    requests: &mut Vec<BlockRequest>,
    at_micros: u64,
    kind: BlockOpKind,
    offset: u64,
    len: u64,
) -> &mut BlockRequest {
    requests.push(BlockRequest {
        id: requests.len() as u64,
        kind,
        range: ByteRange::new(offset, len),
        arrival: SimTime::from_micros(at_micros),
        priority: Priority::Normal,
    });
    requests.last_mut().expect("just pushed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_generator_numbers_its_requests_in_arrival_order() {
        let streams = [
            ("synthetic", SyntheticConfig::default().generate()),
            (
                "qos",
                SyntheticConfig::qos_workload(2000, 0.5, 1 << 24).generate(),
            ),
            (
                "postmark",
                PostmarkConfig {
                    transactions: 500,
                    initial_files: 100,
                    ..PostmarkConfig::default()
                }
                .generate(),
            ),
            (
                "tpcc",
                TpccConfig {
                    transactions: 500,
                    ..TpccConfig::default()
                }
                .generate(),
            ),
            (
                "exchange",
                ExchangeConfig {
                    operations: 1000,
                    ..ExchangeConfig::default()
                }
                .generate(),
            ),
            ("iozone", IozoneConfig::default().generate()),
        ];
        for (name, requests) in streams {
            assert!(!requests.is_empty(), "{name}");
            for (i, r) in requests.iter().enumerate() {
                assert_eq!(r.id, i as u64, "{name}: id of request {i}");
            }
            assert!(
                requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
                "{name}: arrivals go back in time"
            );
        }
    }
}
