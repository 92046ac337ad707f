//! §3.2: shortest-wait-time-first scheduling versus FCFS.
//!
//! The paper's preliminary analysis runs a synthetic random workload with
//! two-thirds reads and one-third writes and reports that SWTF improves the
//! average response time by about 8% over FCFS.

use crate::workload::SyntheticConfig;
use ossd_block::DeviceError;
use ossd_flash::FlashTiming;
use ossd_sim::{improvement_percent, SimDuration};
use ossd_ssd::{SchedulerKind, Ssd, SsdConfig};

use super::{
    col, device, fill, geometry, mean_response_ms, serve_open, ExperimentError, Report, Scale,
    Table,
};

/// Result of the scheduler comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwtfResult {
    /// Mean response time under FCFS, in milliseconds.
    pub fcfs_mean_ms: f64,
    /// Mean response time under SWTF, in milliseconds.
    pub swtf_mean_ms: f64,
}

impl SwtfResult {
    /// Response-time improvement of SWTF over FCFS, in percent.
    pub fn improvement_pct(&self) -> f64 {
        improvement_percent(self.fcfs_mean_ms, self.swtf_mean_ms)
    }
}

/// A page-mapped SSD with several independently schedulable elements — the
/// configuration where per-element queue-wait knowledge pays off — under
/// `scheduler`.
fn device_config(scale: Scale, scheduler: SchedulerKind) -> SsdConfig {
    SsdConfig {
        timing: FlashTiming {
            bus_bytes_per_sec: 100_000_000,
            ..FlashTiming::slc()
        },
        gangs: 4,
        controller_overhead: SimDuration::from_micros(10),
        scheduler,
        ..device("swtf-testbed", geometry(8, scale.bytes(64, 256) as u32, 64))
    }
}

/// Runs the FCFS vs SWTF comparison.
pub fn run(scale: Scale) -> Result<SwtfResult, DeviceError> {
    let region = scale.bytes(16 * 1024 * 1024, 48 * 1024 * 1024);
    let count = scale.count(4000, 20_000);
    let workload = SyntheticConfig::swtf_workload(count, region, SimDuration::from_micros(55));
    let requests = workload.generate();

    let mut mean_ms = [0.0f64; 2];
    for (i, scheduler) in [SchedulerKind::Fcfs, SchedulerKind::Swtf]
        .into_iter()
        .enumerate()
    {
        let mut ssd = Ssd::new(device_config(scale, scheduler)).map_err(DeviceError::from)?;
        fill(&mut ssd, region, 256 * 1024, 0, false)?;
        let completions = serve_open(&mut ssd, &requests)?;
        mean_ms[i] = mean_response_ms(&completions);
    }
    Ok(SwtfResult {
        fcfs_mean_ms: mean_ms[0],
        swtf_mean_ms: mean_ms[1],
    })
}

/// The comparison as a report, with the paper's improvement.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let mut table = Table::of(
        &[run(scale)?],
        &[
            (col("fcfs_mean", "ms", 3), |r| r.fcfs_mean_ms.into()),
            (col("swtf_mean", "ms", 3), |r| r.swtf_mean_ms.into()),
            (col("improvement", "%", 2), |r| r.improvement_pct().into()),
        ],
    );
    table.paper_column("improvement", [8.0]);
    let title = "Section 3.2: Shortest Wait Time First vs FCFS";
    Ok(Report::new("swtf", title, scale, vec![table])
        .note("The paper reports an improvement of about 8 %."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swtf_improves_over_fcfs() {
        let result = run(Scale::Quick).unwrap();
        assert!(result.fcfs_mean_ms > 0.0);
        assert!(result.swtf_mean_ms > 0.0);
        let improvement = result.improvement_pct();
        // The paper reports ≈8%; accept anything clearly positive and not
        // absurdly large.
        assert!(
            improvement > 1.0,
            "SWTF should improve response time, got {improvement:.2}%"
        );
        assert!(
            improvement < 60.0,
            "improvement {improvement:.2}% implausible"
        );
    }
}
