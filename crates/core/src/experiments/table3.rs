//! Table 3: response time of 4 KB writes, unaligned vs. merged-and-aligned
//! to the device's 32 KB logical page, for varying degrees of sequentiality.
//!
//! The paper simulates a 32 GB SSD built from one gang of eight 4 GB
//! packages with a single 32 KB logical page spanning the gang, and compares
//! "issuing the writes as they arrive" with "merging and aligning writes on
//! logical page boundaries".  On a fully random stream both behave the same;
//! as sequentiality grows, alignment wins by more than 50%.

use crate::workload::{InterArrival, SyntheticConfig};
use ossd_block::{BlockRequest, DeviceError};
use ossd_sim::{SimDuration, SimTime};
use ossd_ssd::{MappingKind, Ssd, SsdConfig};

use super::{
    col, device, fill, geometry, mean_response_ms, serve_open, ExperimentError, Report, Scale,
    Table,
};

/// The logical page (stripe) size of the simulated device.
pub(crate) const LOGICAL_PAGE: u64 = 32 * 1024;

/// One row of Table 3 (one sequentiality setting).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table3Row {
    /// Probability of sequential access.
    pub sequential_prob: f64,
    /// Mean response time when writes are issued as they arrive (ms).
    pub unaligned_ms: f64,
    /// Mean response time when the device merges and aligns writes (ms).
    pub aligned_ms: f64,
}

impl Table3Row {
    /// Improvement of the aligned scheme over the unaligned one, in percent.
    pub fn improvement_pct(&self) -> f64 {
        ossd_sim::improvement_percent(self.unaligned_ms, self.aligned_ms)
    }
}

/// The simulated striped device used by both alignment studies (Tables 3
/// and 4): eight packages in one gang, 32 KB logical page, with the
/// device-side merge-and-align scheme switchable via `coalesce`.
pub(crate) fn device_config_for_alignment(scale: Scale, coalesce: bool) -> SsdConfig {
    let name = format!("table3-{}", if coalesce { "aligned" } else { "unaligned" });
    SsdConfig {
        mapping: MappingKind::StripeMapped {
            stripe_bytes: LOGICAL_PAGE,
            coalesce,
        },
        ..device(name, geometry(8, scale.bytes(64, 256) as u32, 64))
    }
}

fn run_one(
    scale: Scale,
    sequential_prob: f64,
    coalesce: bool,
    working_set: u64,
    count: usize,
) -> Result<f64, DeviceError> {
    let mut ssd =
        Ssd::new(device_config_for_alignment(scale, coalesce)).map_err(DeviceError::from)?;
    // Prefill the working set with stripe-aligned writes so partial-stripe
    // overwrites pay the read-modify-write.
    let filled = fill(&mut ssd, working_set, LOGICAL_PAGE, 0, true)?;
    let start = ssd.flush(filled).map_err(DeviceError::from)?;

    let workload = SyntheticConfig {
        request_count: count,
        request_bytes: 4096,
        read_fraction: 0.0,
        sequential_prob,
        working_set_bytes: working_set,
        inter_arrival: InterArrival::Uniform {
            lo: SimDuration::ZERO,
            hi: SimDuration::from_millis_f64(4.0),
        },
        priority_fraction: 0.0,
        seed: 42,
    };
    let requests: Vec<BlockRequest> = workload
        .generate()
        .into_iter()
        .map(|mut r| {
            // Shift the measured phase to start after the prefill finished.
            r.arrival += start.saturating_since(SimTime::ZERO);
            r
        })
        .collect();
    let completions = serve_open(&mut ssd, &requests)?;
    Ok(mean_response_ms(&completions))
}

/// Runs the Table 3 sweep over sequentiality 0–0.8.
pub fn run(scale: Scale) -> Result<Vec<Table3Row>, DeviceError> {
    let working_set = scale.bytes(8 * 1024 * 1024, 32 * 1024 * 1024);
    let count = scale.count(1500, 8000);
    let mut rows = Vec::new();
    for &p in &[0.0, 0.2, 0.4, 0.6, 0.8] {
        let unaligned_ms = run_one(scale, p, false, working_set, count)?;
        let aligned_ms = run_one(scale, p, true, working_set, count)?;
        rows.push(Table3Row {
            sequential_prob: p,
            unaligned_ms,
            aligned_ms,
        });
    }
    Ok(rows)
}

/// Table 3 as a report, with the paper's response times.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let mut table = Table::of(
        &run(scale)?,
        &[
            (col("p_sequential", "", 1), |r| r.sequential_prob.into()),
            (col("unaligned", "ms", 2), |r| r.unaligned_ms.into()),
            (col("aligned", "ms", 2), |r| r.aligned_ms.into()),
            (col("improvement", "%", 1), |r| r.improvement_pct().into()),
        ],
    );
    table.paper_column("unaligned", [10.6, 10.6, 10.5, 10.2, 10.5]);
    table.paper_column("aligned", [10.6, 10.4, 8.9, 7.6, 5.6]);
    let title = "Table 3: Improved Response Time with Write Alignment";
    Ok(Report::new("table3", title, scale, vec![table]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_helps_more_as_sequentiality_grows() {
        let rows = run(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 5);
        // At p=0 both schemes are within noise of each other.
        let p0 = &rows[0];
        assert!(
            p0.improvement_pct().abs() < 25.0,
            "at p=0 improvement should be small, got {:.1}%",
            p0.improvement_pct()
        );
        // At p=0.8 alignment wins substantially (the paper reports >45%).
        let p08 = &rows[4];
        assert!(
            p08.improvement_pct() > 25.0,
            "at p=0.8 improvement should be large, got {:.1}%",
            p08.improvement_pct()
        );
        // The unaligned scheme stays roughly flat across sequentiality while
        // the aligned scheme improves monotonically (within noise).
        assert!(rows[4].aligned_ms < rows[1].aligned_ms);
        let unaligned_spread = rows
            .iter()
            .map(|r| r.unaligned_ms)
            .fold(f64::NEG_INFINITY, f64::max)
            / rows
                .iter()
                .map(|r| r.unaligned_ms)
                .fold(f64::INFINITY, f64::min);
        assert!(
            unaligned_spread < 2.0,
            "unaligned responses should not vary wildly, spread {unaligned_spread:.2}"
        );
    }
}
