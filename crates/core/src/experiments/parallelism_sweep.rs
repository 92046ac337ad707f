//! Queue-depth × element-count parallelism sweep.
//!
//! The paper's §3.2 premise is that an SSD is a collection of parallel
//! elements with independent queues; the engine refactor makes that premise
//! measurable.  This experiment drives a page-mapped device with an open
//! stream of small random reads at saturating arrival rates and sweeps
//!
//! * the NCQ-style controller queue depth (`SsdConfig::queue_depth`,
//!   1–32), and
//! * the number of flash elements (packages) behind one shared gang bus,
//!
//! reporting bandwidth and response-time statistics per point.  At depth 1
//! the controller commits to one request at a time (the pre-engine
//! behaviour): whenever a burst request targets a busy die, the rest of the
//! burst — aimed at idle dies — waits behind it, and the offered load
//! outruns the dispatch pipeline.  As the depth grows, requests overlap
//! across elements and bandwidth climbs until the shared gang bus saturates
//! — more depth then only adds queueing delay, which is the classic
//! throughput/latency knee.

use ossd_block::{BlockDevice, BlockRequest, DeviceError};
use ossd_flash::FlashTiming;
use ossd_sim::{LatencyStats, SimDuration, SimRng, SimTime};
use ossd_ssd::{Ssd, SsdConfig};

use super::{col, device, fill, geometry, serve_open, ExperimentError, Report, Scale, Table};

/// One measured point: one element count at one queue depth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ParallelismPoint {
    /// Number of flash elements (dies) in the device.
    pub elements: u32,
    /// Controller queue depth.
    pub queue_depth: u32,
    /// Read bandwidth over the open phase, MB/s of simulated time.
    pub bandwidth_mbps: f64,
    /// Mean response time, milliseconds.
    pub mean_ms: f64,
    /// 99th-percentile response time, milliseconds.
    pub p99_ms: f64,
    /// High-water mark of the busiest per-element dispatch queue.
    pub peak_element_queue: usize,
}

/// The queue depths the experiment sweeps (NCQ depths 1–32).
pub(crate) const QUEUE_DEPTHS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// The element counts the experiment sweeps.
pub(crate) const ELEMENT_COUNTS: [u32; 4] = [1, 2, 4, 8];

fn device_config(scale: Scale, elements: u32, queue_depth: u32) -> SsdConfig {
    SsdConfig {
        // A modern-speed shared channel (ONFI/Toggle-class, 1 GB/s) keeps
        // 4 KB reads element-bound (25 µs array vs ~4 µs transfer): the
        // contended resource is the die, which is what per-element queues
        // arbitrate.  All elements still share the one bus, so it remains
        // the ceiling the sweep saturates at high depth.
        timing: FlashTiming {
            bus_bytes_per_sec: 1_000_000_000,
            ..FlashTiming::slc()
        },
        queue_depth,
        controller_overhead: SimDuration::from_micros(10),
        ..device(
            format!("sweep-e{elements}-qd{queue_depth}"),
            geometry(elements, scale.count(64, 256) as u32, 64),
        )
    }
}

/// Bursty open-arrival random reads over a prefilled region, starting at
/// `base`: batches of 32 simultaneous requests (an NCQ-style command burst)
/// arriving faster than a depth-1 controller can dispatch them.  Within a
/// burst several requests inevitably target the same element; at queue
/// depth 1 the controller commits to each request until it starts on that
/// element, so the rest of the burst — aimed at idle elements — waits
/// behind it and the controller queue grows without bound.  Deeper queues
/// dispatch the whole burst, let the per-element queues arbitrate, and keep
/// up with the offered load until the shared bus saturates.
fn read_trace(scale: Scale, region: u64, base: SimTime) -> Vec<BlockRequest> {
    let bursts = scale.count(48, 250) as u64;
    let burst = 32u64;
    let gap_micros = 150u64;
    let pages = region / 4096;
    let mut rng = SimRng::seed_from_u64(0x5CA1_AB1E);
    let mut out = Vec::new();
    for b in 0..bursts {
        let at = base + SimDuration::from_micros(b * gap_micros);
        for k in 0..burst {
            let page = rng.next_u64_below(pages);
            out.push(BlockRequest::read(b * burst + k, page * 4096, 4096, at));
        }
    }
    out
}

fn run_point(
    scale: Scale,
    elements: u32,
    queue_depth: u32,
) -> Result<ParallelismPoint, DeviceError> {
    let mut ssd =
        Ssd::new(device_config(scale, elements, queue_depth)).map_err(DeviceError::from)?;
    let region = (ssd.capacity_bytes() / 2).min(16 * 1024 * 1024);
    let chunk = 64 * 1024;
    // Closed-loop prefill so the measured phase starts on a drained device.
    let at = fill(&mut ssd, region / chunk * chunk, chunk, 100_000, true)?;
    let requests = read_trace(scale, region, at + SimDuration::from_millis(1));
    let completions = serve_open(&mut ssd, &requests)?;

    let mut latency = LatencyStats::new();
    let mut first = SimTime::MAX;
    let mut last = SimTime::ZERO;
    for c in &completions {
        latency.record(c.response_time());
        first = first.min(c.arrival);
        last = last.max(c.finish);
    }
    let bytes = requests.len() as u64 * 4096;
    let elapsed = last.saturating_since(first);
    let peak = ssd
        .element_queues()
        .iter()
        .map(|q| q.peak_queued())
        .max()
        .unwrap_or(0);
    Ok(ParallelismPoint {
        elements,
        queue_depth,
        bandwidth_mbps: bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12),
        mean_ms: latency.mean_millis(),
        p99_ms: latency.percentile(99.0).as_millis_f64(),
        peak_element_queue: peak,
    })
}

/// Runs the sweep: every element count at every queue depth.
pub(crate) fn run(scale: Scale) -> Result<Vec<ParallelismPoint>, DeviceError> {
    let mut out = Vec::new();
    for &elements in &ELEMENT_COUNTS {
        for &depth in &QUEUE_DEPTHS {
            out.push(run_point(scale, elements, depth)?);
        }
    }
    Ok(out)
}

/// The sweep as a report: one row per element count and queue depth.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let table = Table::of(
        &run(scale)?,
        &[
            (col("elements", "", 0), |p| p.elements.into()),
            (col("queue_depth", "", 0), |p| p.queue_depth.into()),
            (col("bandwidth", "MB/s", 2), |p| p.bandwidth_mbps.into()),
            (col("mean", "ms", 4), |p| p.mean_ms.into()),
            (col("p99", "ms", 4), |p| p.p99_ms.into()),
            (col("peak_element_queue", "", 0), |p| {
                p.peak_element_queue.into()
            }),
        ],
    );
    let title = "Parallelism sweep: bandwidth vs queue depth";
    Ok(
        Report::new("parallelism_sweep", title, scale, vec![table]).note(
            "Reading the curve: at queue depth 1 the controller commits to one request until \
         it starts on its die (head-of-line blocking); deeper NCQ windows overlap requests \
         across dies until the gang bus saturates.",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(points: &[ParallelismPoint], elements: u32, depth: u32) -> ParallelismPoint {
        *points
            .iter()
            .find(|p| p.elements == elements && p.queue_depth == depth)
            .unwrap()
    }

    #[test]
    fn queue_depth_scales_bandwidth_on_a_multi_element_device() {
        let points: Vec<ParallelismPoint> = QUEUE_DEPTHS
            .iter()
            .map(|&d| run_point(Scale::Quick, 8, d).unwrap())
            .collect();
        let qd1 = points.iter().find(|p| p.queue_depth == 1).unwrap();
        let qd8 = points.iter().find(|p| p.queue_depth == 8).unwrap();
        // The acceptance criterion of the engine refactor: depth 8 must beat
        // depth 1 by a clear margin on an 8-element device.
        let scaling = qd8.bandwidth_mbps / qd1.bandwidth_mbps;
        assert!(
            scaling > 1.5,
            "queue depth 1 -> 8 scaled bandwidth only {scaling:.2}x \
             ({:.1} -> {:.1} MB/s)",
            qd1.bandwidth_mbps,
            qd8.bandwidth_mbps
        );
        // Under this offered load the depth-1 pipeline falls behind, so the
        // whole latency distribution improves with depth: head-of-line
        // blocking is a latency problem too.
        assert!(qd8.mean_ms < qd1.mean_ms);
        assert!(qd8.p99_ms < qd1.p99_ms);
        // Deeper dispatch windows push more ops into the element queues.
        assert!(qd8.peak_element_queue >= qd1.peak_element_queue);
    }

    #[test]
    fn single_element_devices_gain_little_from_depth() {
        let points: Vec<ParallelismPoint> = [1u32, 8]
            .iter()
            .map(|&d| run_point(Scale::Quick, 1, d).unwrap())
            .collect();
        let ratio = points[1].bandwidth_mbps / points[0].bandwidth_mbps;
        // One element serializes everything; depth can only pipeline the
        // controller overhead, not the flash array.
        assert!(
            ratio < 2.0,
            "single-element device should not scale with depth, got {ratio:.2}x"
        );
    }

    #[test]
    fn full_sweep_covers_the_grid() {
        let points = run(Scale::Quick).unwrap();
        assert_eq!(points.len(), QUEUE_DEPTHS.len() * ELEMENT_COUNTS.len());
        for p in &points {
            assert!(p.bandwidth_mbps > 0.0);
            assert!(p.mean_ms > 0.0);
            assert!(p.p99_ms >= p.mean_ms * 0.5);
        }
        // More elements help at high depth.
        let wide = point(&points, 8, 8);
        let narrow = point(&points, 1, 8);
        assert!(wide.bandwidth_mbps > narrow.bandwidth_mbps);
    }
}
