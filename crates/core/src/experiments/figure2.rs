//! Figure 2: write amplification on a low-end striped SSD — bandwidth
//! against write size shows a saw-tooth whose period is the stripe size.
//!
//! The paper measured the effect on S2slc, whose stripe (logical page) is
//! 1 MB: bandwidth peaks when the write size is a multiple of the stripe
//! size and drops just past each multiple, because the trailing partial
//! stripe forces a read-modify-write of the whole stripe.

use ossd_block::{BlockDevice, BlockRequest, DeviceError};
use ossd_flash::FlashTiming;
use ossd_sim::{SimDuration, SimTime};
use ossd_ssd::{MappingKind, Ssd, SsdConfig};

use super::{col, device, fill, geometry, ExperimentError, Report, Scale, Table};

/// The stripe size of the modelled device (1 MB, as on S2slc).
pub(crate) const STRIPE_BYTES: u64 = 1024 * 1024;

/// One point of Figure 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figure2Point {
    /// Write size in megabytes.
    pub write_mb: f64,
    /// Achieved bandwidth in MB/s.
    pub bandwidth_mbps: f64,
}

fn device_config(scale: Scale) -> SsdConfig {
    SsdConfig {
        timing: FlashTiming {
            bus_bytes_per_sec: 40_000_000,
            ..FlashTiming::slc()
        },
        mapping: MappingKind::StripeMapped {
            stripe_bytes: STRIPE_BYTES,
            coalesce: true,
        },
        controller_overhead: SimDuration::from_micros(30),
        ram_bytes_per_sec: 100_000_000,
        ..device(
            "figure2-s2slc-like",
            geometry(8, scale.bytes(128, 512) as u32, 64),
        )
    }
}

/// Measures the bandwidth achieved by issuing `bursts` independent writes of
/// `write_bytes` each, every burst starting on a stripe boundary (as a file
/// system extent allocation would place a fresh file).  The region has been
/// written before, so partial stripes pay the read-modify-write.
fn measure_write_size(
    scale: Scale,
    write_bytes: u64,
    bursts: u64,
) -> Result<Figure2Point, DeviceError> {
    let mut ssd = Ssd::new(device_config(scale)).map_err(DeviceError::from)?;
    let stride = write_bytes.div_ceil(STRIPE_BYTES) * STRIPE_BYTES;
    let region = stride * bursts;

    // Prefill the region stripe-aligned so every stripe holds old data.
    fill(&mut ssd, region, STRIPE_BYTES, 0, false)?;
    let start = ssd.flush(SimTime::ZERO).map_err(DeviceError::from)?;

    // Measured phase: closed-loop bursts of the requested size.
    let mut arrival = start;
    let first_arrival = arrival;
    for (id, burst) in (region / STRIPE_BYTES..).zip(0..bursts) {
        let req = BlockRequest::write(id, burst * stride, write_bytes, arrival);
        let completion = ssd.submit(&req)?;
        arrival = completion.finish;
    }
    let end = ssd.flush(arrival).map_err(DeviceError::from)?;
    let elapsed = end.saturating_since(first_arrival).as_secs_f64();
    let bytes = write_bytes * bursts;
    Ok(Figure2Point {
        write_mb: write_bytes as f64 / 1e6,
        bandwidth_mbps: if elapsed > 0.0 {
            bytes as f64 / 1e6 / elapsed
        } else {
            0.0
        },
    })
}

/// Runs the Figure 2 sweep: write sizes from 0.25 MB (0.5 MB at quick
/// scale) up to 9 MB.
pub fn run(scale: Scale) -> Result<Vec<Figure2Point>, DeviceError> {
    let step = scale.bytes(512 * 1024, 256 * 1024);
    let bursts = scale.count(4, 8) as u64;
    let max = 9 * 1024 * 1024u64;
    let mut points = Vec::new();
    let mut size = step;
    while size <= max {
        points.push(measure_write_size(scale, size, bursts)?);
        size += step;
    }
    Ok(points)
}

/// Convenience: the bandwidth at (approximately) the given write size.
pub fn bandwidth_at(points: &[Figure2Point], mb: f64) -> Option<f64> {
    points
        .iter()
        .min_by(|a, b| {
            (a.write_mb - mb)
                .abs()
                .partial_cmp(&(b.write_mb - mb).abs())
                .expect("write sizes are finite")
        })
        .map(|p| p.bandwidth_mbps)
}

/// Figure 2 as a report: bandwidth per write size.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let table = Table::of(
        &run(scale)?,
        &[
            (col("write", "MB", 2), |p| p.write_mb.into()),
            (col("bandwidth", "MB/s", 2), |p| p.bandwidth_mbps.into()),
        ],
    );
    let title = "Figure 2: Write Amplification (bandwidth vs write size)";
    Ok(Report::new("figure2", title, scale, vec![table]).note(
        "The paper's Figure 2: bandwidth peaks when the write size aligns with the \
         1 MB stripe and dips just past each multiple (saw-tooth).",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saw_tooth_pattern_appears() {
        let points = run(Scale::Quick).unwrap();
        assert!(points.len() >= 16);
        // Bandwidth must rise towards the 1 MB stripe size…
        let half = bandwidth_at(&points, 0.5).unwrap();
        let full = bandwidth_at(&points, 1.0).unwrap();
        assert!(
            full > 1.3 * half,
            "1 MB ({full:.1} MB/s) should beat 0.5 MB ({half:.1} MB/s)"
        );
        // …drop just past it…
        let just_past = bandwidth_at(&points, 1.5).unwrap();
        assert!(
            just_past < full,
            "1.5 MB ({just_past:.1}) should dip below 1 MB ({full:.1})"
        );
        // …and recover at the next multiple.
        let two = bandwidth_at(&points, 2.0).unwrap();
        assert!(
            two > just_past,
            "2 MB ({two:.1}) should recover above 1.5 MB ({just_past:.1})"
        );
        // The saw-tooth amplitude decays as the write grows.
        let eight = bandwidth_at(&points, 8.0).unwrap();
        let eight_and_half = bandwidth_at(&points, 8.5).unwrap();
        let early_dip = (full - just_past) / full;
        let late_dip = (eight - eight_and_half).max(0.0) / eight;
        assert!(
            late_dip < early_dip,
            "dip at 8 MB ({late_dip:.2}) should be smaller than at 1 MB ({early_dip:.2})"
        );
    }
}
