//! Multi-initiator bandwidth/fairness sweep over the queue-pair interface.
//!
//! The queue-pair redesign gives every initiator its own
//! submission/completion pair, arbitrated round-robin into the controller
//! ([`ossd_block::HostInterface::serve`]).  This experiment drives N
//! initiators, each submitting an identical open stream of small random
//! reads over its own slice of a prefilled device, and sweeps the initiator
//! count × the controller queue depth, reporting:
//!
//! * aggregate bandwidth and latency percentiles (p50/p95/p99),
//! * per-initiator bandwidth spread (min/max), and
//! * Jain's fairness index across the per-initiator bandwidths — 1.0 means
//!   every initiator got an equal share of the device.
//!
//! With round-robin arbitration and symmetric load the device has no way to
//! starve an initiator, so fairness stays near 1 while aggregate bandwidth
//! follows the same queue-depth curve as the single-host parallelism sweep.

use ossd_block::{BlockRequest, DeviceError, HostInterface, HostQueue, ReplayReport};
use ossd_flash::FlashTiming;
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{Ssd, SsdConfig};

use super::{col, device, fill, geometry, ExperimentError, Report, Scale, Table};

/// One measured point: one initiator count at one queue depth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct MultiHostPoint {
    /// Number of initiators (independent queue pairs).
    pub initiators: u32,
    /// Controller queue depth.
    pub queue_depth: u32,
    /// Aggregate read bandwidth across all initiators, MB/s.
    pub total_bandwidth_mbps: f64,
    /// Slowest initiator's bandwidth, MB/s.
    pub min_initiator_mbps: f64,
    /// Fastest initiator's bandwidth, MB/s.
    pub max_initiator_mbps: f64,
    /// Jain's fairness index over per-initiator bandwidths (1.0 = equal).
    pub fairness: f64,
    /// Aggregate mean response time, milliseconds.
    pub mean_ms: f64,
    /// Aggregate median response time, milliseconds.
    pub p50_ms: f64,
    /// Aggregate 95th-percentile response time, milliseconds.
    pub p95_ms: f64,
    /// Aggregate 99th-percentile response time, milliseconds.
    pub p99_ms: f64,
}

/// The initiator counts the experiment sweeps.
pub(crate) const INITIATOR_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// The controller queue depths the experiment sweeps.
pub(crate) const QUEUE_DEPTHS: [u32; 3] = [1, 4, 16];

fn device_config(scale: Scale, queue_depth: u32) -> SsdConfig {
    SsdConfig {
        // Same modern-speed shared channel as the parallelism sweep: 4 KB
        // reads stay element-bound, so the per-element queues are the
        // contended resource the arbitration shares out.
        timing: FlashTiming {
            bus_bytes_per_sec: 1_000_000_000,
            ..FlashTiming::slc()
        },
        queue_depth,
        controller_overhead: SimDuration::from_micros(10),
        ..device(
            format!("multi-host-qd{queue_depth}"),
            geometry(8, scale.count(64, 256) as u32, 64),
        )
    }
}

/// Per-initiator open request stream: bursts of random 4 KB reads inside
/// the initiator's own slice of the prefilled region.  Every initiator uses
/// the same arrival schedule, so simultaneous submissions collide at the
/// arbitration point constantly — the worst case for fairness.
fn initiator_requests(
    scale: Scale,
    initiator: u32,
    slice_offset: u64,
    slice_pages: u64,
    base: SimTime,
) -> Vec<BlockRequest> {
    let bursts = scale.count(24, 120) as u64;
    let burst = 8u64;
    let gap_micros = 200u64;
    let mut rng = SimRng::seed_from_u64(0xFA1E_0000 + initiator as u64);
    let mut out = Vec::new();
    for b in 0..bursts {
        let at = base + SimDuration::from_micros(b * gap_micros);
        for k in 0..burst {
            let page = rng.next_u64_below(slice_pages);
            out.push(BlockRequest::read(
                b * burst + k,
                slice_offset + page * 4096,
                4096,
                at,
            ));
        }
    }
    out
}

/// Jain's fairness index: `(Σx)² / (n · Σx²)`, 1.0 when all equal.
pub(crate) fn jain_fairness(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sq: f64 = values.iter().map(|v| v * v).sum();
    if sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sq)
}

fn run_point(
    scale: Scale,
    initiators: u32,
    queue_depth: u32,
) -> Result<MultiHostPoint, DeviceError> {
    let mut ssd = Ssd::new(device_config(scale, queue_depth)).map_err(DeviceError::from)?;
    let region = (ossd_block::BlockDevice::capacity_bytes(&ssd) / 2).min(16 * 1024 * 1024);
    let chunk = 64 * 1024;
    // Closed-loop prefill so every initiator's reads find mapped data.
    let at = fill(&mut ssd, region / chunk * chunk, chunk, 1_000_000, true)?;
    let base = at + SimDuration::from_millis(1);

    // One queue pair per initiator over a disjoint slice of the region.
    let slice_pages = (region / 4096) / initiators as u64;
    let mut queues = vec![HostQueue::new(); initiators as usize];
    let mut requests: Vec<Vec<BlockRequest>> = Vec::new();
    for i in 0..initiators {
        let reqs = initiator_requests(scale, i, i as u64 * slice_pages * 4096, slice_pages, base);
        for r in &reqs {
            queues[i as usize].submit_request(r);
        }
        requests.push(reqs);
    }
    ssd.serve(&mut queues)?;

    // Per-initiator reports from each completion queue.
    let mut aggregate = ReplayReport::default();
    let mut per_initiator_mbps = Vec::new();
    for (i, queue) in queues.iter_mut().enumerate() {
        let mut report = ReplayReport::default();
        for completion in queue.drain_completions() {
            let request = &requests[i][completion.request_id as usize];
            report.record(request, &completion);
            aggregate.record(request, &completion);
        }
        per_initiator_mbps.push(report.read_bandwidth_mbps());
    }
    let percentiles = aggregate.percentiles().all;
    Ok(MultiHostPoint {
        initiators,
        queue_depth,
        total_bandwidth_mbps: aggregate.read_bandwidth_mbps(),
        min_initiator_mbps: per_initiator_mbps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
        max_initiator_mbps: per_initiator_mbps.iter().copied().fold(0.0, f64::max),
        fairness: jain_fairness(&per_initiator_mbps),
        mean_ms: aggregate.all.mean_millis(),
        p50_ms: percentiles.p50_ms,
        p95_ms: percentiles.p95_ms,
        p99_ms: percentiles.p99_ms,
    })
}

/// Runs the sweep: every initiator count at every queue depth.
pub(crate) fn run(scale: Scale) -> Result<Vec<MultiHostPoint>, DeviceError> {
    let mut out = Vec::new();
    for &initiators in &INITIATOR_COUNTS {
        for &depth in &QUEUE_DEPTHS {
            out.push(run_point(scale, initiators, depth)?);
        }
    }
    Ok(out)
}

/// The sweep as a report: one row per initiator count and queue depth.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let table = Table::of(
        &run(scale)?,
        &[
            (col("initiators", "", 0), |p| p.initiators.into()),
            (col("queue_depth", "", 0), |p| p.queue_depth.into()),
            (col("total", "MB/s", 2), |p| p.total_bandwidth_mbps.into()),
            (col("min_initiator", "MB/s", 2), |p| {
                p.min_initiator_mbps.into()
            }),
            (col("max_initiator", "MB/s", 2), |p| {
                p.max_initiator_mbps.into()
            }),
            (col("fairness", "", 4), |p| p.fairness.into()),
            (col("mean", "ms", 4), |p| p.mean_ms.into()),
            (col("p50", "ms", 4), |p| p.p50_ms.into()),
            (col("p95", "ms", 4), |p| p.p95_ms.into()),
            (col("p99", "ms", 4), |p| p.p99_ms.into()),
        ],
    );
    let title = "Multi-host sweep: bandwidth/fairness vs initiators";
    Ok(Report::new("multi_host", title, scale, vec![table]).note(
        "Reading the table: each initiator owns a submission/completion queue pair; ties \
         at the arbitration point are broken round-robin, so with symmetric load Jain's \
         index stays near 1.0 while aggregate bandwidth follows the same queue-depth curve \
         as the single-host sweep.",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_arbitration_is_fair_under_symmetric_load() {
        let p = run_point(Scale::Quick, 4, 4).unwrap();
        assert_eq!(p.initiators, 4);
        assert!(
            p.fairness > 0.95,
            "fairness {:.3} too low (min {:.1}, max {:.1} MB/s)",
            p.fairness,
            p.min_initiator_mbps,
            p.max_initiator_mbps
        );
        assert!(p.min_initiator_mbps > 0.0);
        assert!(p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms);
    }

    #[test]
    fn queue_depth_scales_aggregate_bandwidth() {
        let qd1 = run_point(Scale::Quick, 4, 1).unwrap();
        let qd16 = run_point(Scale::Quick, 4, 16).unwrap();
        let scaling = qd16.total_bandwidth_mbps / qd1.total_bandwidth_mbps;
        assert!(
            scaling > 1.5,
            "qd 1 -> 16 with 4 initiators scaled only {scaling:.2}x \
             ({:.1} -> {:.1} MB/s)",
            qd1.total_bandwidth_mbps,
            qd16.total_bandwidth_mbps
        );
    }

    #[test]
    fn full_sweep_covers_the_grid() {
        let points = run(Scale::Quick).unwrap();
        assert_eq!(points.len(), INITIATOR_COUNTS.len() * QUEUE_DEPTHS.len());
        for p in &points {
            assert!(p.total_bandwidth_mbps > 0.0);
            assert!(p.fairness > 0.0 && p.fairness <= 1.0 + 1e-9);
            assert!(p.max_initiator_mbps >= p.min_initiator_mbps);
        }
    }

    #[test]
    fn jain_index_properties() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One initiator hogging everything: index collapses towards 1/n.
        let skewed = jain_fairness(&[100.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
    }
}
