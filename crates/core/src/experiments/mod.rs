//! Drivers that regenerate the paper's tables and figures, and the
//! experiments beyond it.
//!
//! Every experiment is a pure function of a [`Scale`] (and, internally, of
//! fixed seeds).  Its `run` returns typed results (public where an
//! integration test or example reads them); its `report` turns them into
//! one [`Report`], which the `ossd-exp` binary (in the root package)
//! prints and whose artifacts it writes.  The module
//! name is the experiment's `ossd-exp` name, and [`EXPERIMENTS`] lists them
//! in the order of this table:
//!
//! | Result | Module |
//! |---|---|
//! | Table 1 (unwritten contract, [`crate::contract`]) | [`table1`] |
//! | Table 2 (seq/rand bandwidth) | [`table2`] |
//! | §3.2 (SWTF vs FCFS) | [`swtf`] |
//! | Figure 2 (write-amplification saw-tooth) | [`figure2`] |
//! | Table 3 (aligned vs unaligned writes) | [`table3`] |
//! | Table 4 (macro benchmarks with alignment) | [`table4`] |
//! | Table 5 (informed cleaning) | [`table5`] |
//! | Figure 3 / Table 6 (priority-aware cleaning) | [`figure3`] |
//! | Cleaning policies: WA vs utilization, against the analytic greedy curve | [`policy_compare`] |
//! | Bandwidth/latency vs queue depth × element count | [`parallelism_sweep`] |
//! | Bandwidth and Jain fairness vs initiator count × queue depth | [`multi_host`] |
//! | TBW/lifetime/UBER to end-of-life under the wear-out fault model | [`lifetime`] |
//! | Striped-fleet scale-out and parity rebuild under a QoS budget | [`fleet_sweep`] |
//! | Demand-paged map cache: hit rate, WA, bandwidth vs budget × skew | [`map_cache`] |
//! | Per-class tail latency and p99.9 blame vs map budget | [`latency_blame`] |
//! | Perfetto trace and metrics CSV of an instrumented TPC-C run | [`trace_capture`] |

pub mod figure2;
pub mod figure3;
pub mod fleet_sweep;
pub mod latency_blame;
pub mod lifetime;
pub mod map_cache;
pub mod multi_host;
pub mod parallelism_sweep;
pub mod policy_compare;
mod report;
pub mod swtf;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod trace_capture;

pub(crate) use report::col;
pub use report::{Cell, Column, ExperimentError, Format, PaperRef, Report, Table};

use std::collections::HashMap;

use ossd_block::{BlockDevice, BlockRequest, Completion, DeviceError, HostInterface, HostQueue};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::FtlConfig;
use ossd_sim::{SimDuration, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, SsdConfig, SsdStats};

/// An experiment's report driver.
pub type Driver = fn(Scale) -> Result<Report, ExperimentError>;

/// Every experiment by its `ossd-exp` name, in the order of the table above.
pub const EXPERIMENTS: &[(&str, Driver)] = &[
    ("table1", table1::report),
    ("table2", table2::report),
    ("swtf", swtf::report),
    ("figure2", figure2::report),
    ("table3", table3::report),
    ("table4", table4::report),
    ("table5", table5::report),
    ("figure3", figure3::report),
    ("policy_compare", policy_compare::report),
    ("parallelism_sweep", parallelism_sweep::report),
    ("multi_host", multi_host::report),
    ("lifetime", lifetime::report),
    ("fleet_sweep", fleet_sweep::report),
    ("map_cache", map_cache::report),
    ("latency_blame", latency_blame::report),
    ("trace_capture", trace_capture::report),
];

/// How much work an experiment does.
///
/// The shapes the paper reports (ratios, orderings, crossovers) are already
/// visible at `Quick` scale; `Paper` scale uses larger devices, regions and
/// request counts and is what `ossd-exp` runs without `--quick`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Small devices and short workloads; suitable for unit/integration
    /// tests (runs in seconds).
    Quick,
    /// The full experiment configuration used by the bench harness.
    #[default]
    Paper,
}

impl Scale {
    /// Scales a request/transaction count.
    pub fn count(&self, quick: usize, paper: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// Scales a byte size.
    pub fn bytes(&self, quick: u64, paper: u64) -> u64 {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }

    /// The file an artifact named `name` is written to: `name` with
    /// `_quick` before its first dot at quick scale, so a quick run never
    /// overwrites a paper-scale artifact.
    pub fn artifact_file(&self, name: &str) -> String {
        match (self, name.split_once('.')) {
            (Scale::Quick, Some((stem, extension))) => format!("{stem}_quick.{extension}"),
            _ => name.to_string(),
        }
    }
}

/// Writes `[0, bytes)` in `chunk`-byte requests (the last one shorter)
/// with ids from `first_id`.  With `closed` each request arrives when the
/// previous one finished, otherwise all arrive at time zero.  Returns the
/// last request's finish.
fn fill<D: BlockDevice>(
    device: &mut D,
    bytes: u64,
    chunk: u64,
    first_id: u64,
    closed: bool,
) -> Result<SimTime, DeviceError> {
    let mut finish = SimTime::ZERO;
    for (id, offset) in (first_id..).zip((0..bytes).step_by(chunk as usize)) {
        let at = if closed { finish } else { SimTime::ZERO };
        let len = chunk.min(bytes - offset);
        finish = device
            .submit(&BlockRequest::write(id, offset, len, at))?
            .finish;
    }
    Ok(finish)
}

/// Serves `requests` (in arrival order, with unique ids) as one initiator's
/// queue and returns their completions in input order.
fn serve_open<D: HostInterface>(
    device: &mut D,
    requests: &[BlockRequest],
) -> Result<Vec<Completion>, DeviceError> {
    let mut queue = HostQueue::new();
    requests.iter().for_each(|r| queue.submit_request(r));
    device.serve(std::slice::from_mut(&mut queue))?;
    let position: HashMap<u64, usize> = (requests.iter().enumerate())
        .map(|(i, r)| (r.id, i))
        .collect();
    assert_eq!(position.len(), requests.len(), "request ids must be unique");
    let mut completions = queue.drain_completions();
    completions.sort_unstable_by_key(|c| position[&c.request_id]);
    Ok(completions)
}

/// Mean response time of `completions` in milliseconds (0 when empty).
fn mean_response_ms(completions: &[Completion]) -> f64 {
    if completions.is_empty() {
        return 0.0;
    }
    let total: f64 = completions
        .iter()
        .map(|c| c.response_time().as_millis_f64())
        .sum();
    total / completions.len() as f64
}

/// Write amplification between two stats snapshots of one device: every
/// page it programmed in the window (host data, foreground and background
/// cleaning moves, wear-levelling moves and translation pages) per host
/// page written.
fn window_write_amplification(base: &SsdStats, end: &SsdStats) -> f64 {
    let programs = |s: &SsdStats| {
        let f = &s.ftl;
        f.pages_programmed_host
            + f.gc_pages_moved
            + f.bg_pages_moved
            + f.wear_level_moves
            + s.map.map_writes
    };
    let host_pages = end.ftl.host_writes - base.ftl.host_writes;
    (programs(end) - programs(base)) as f64 / host_pages as f64
}

/// `packages` single-die, single-plane packages of `blocks_per_plane`
/// blocks of `pages_per_block` 4 KiB pages.
fn geometry(packages: u32, blocks_per_plane: u32, pages_per_block: u32) -> FlashGeometry {
    FlashGeometry {
        packages,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane,
        pages_per_block,
        page_bytes: 4096,
    }
}

/// The device the experiments start from, each overriding what it
/// studies: SLC flash behind one gang, a default page-mapped FTL, no faults
/// and no background cleaning, FCFS at queue depth 1, 20 µs of controller
/// overhead per command and 200 MB/s of controller RAM bandwidth.
fn device(name: impl Into<String>, geometry: FlashGeometry) -> SsdConfig {
    SsdConfig {
        name: name.into(),
        geometry,
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl: FtlConfig::default(),
        reliability: ReliabilityConfig::none(),
        background_gc: None,
        gangs: 1,
        scheduler: SchedulerKind::Fcfs,
        queue_depth: 1,
        controller_overhead: SimDuration::from_micros(20),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_selectors() {
        assert_eq!(Scale::Quick.count(10, 100), 10);
        assert_eq!(Scale::Paper.count(10, 100), 100);
        assert_eq!(Scale::Quick.bytes(1, 2), 1);
        assert_eq!(Scale::Paper.bytes(1, 2), 2);
        assert_eq!(Scale::default(), Scale::Paper);
    }

    #[test]
    fn the_registry_follows_the_module_table() {
        let source = include_str!("mod.rs");
        let modules: Vec<&str> = source
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        let table: Vec<&str> = source
            .lines()
            .filter(|l| l.starts_with("//! | ") && l.ends_with("`] |"))
            .filter_map(|l| l.rsplit("[`").next()?.strip_suffix("`] |"))
            .collect();
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, table);
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted, modules, "one entry per module, each once");
    }
}
