//! Figure 3 and Table 6: priority-aware cleaning.
//!
//! The paper evaluates a 32 GB SSD with synthetic open arrivals
//! (inter-arrival uniform in 0–0.1 ms), 10% of requests marked high
//! priority (foreground), cleaning thresholds at 5% (low) and 2%
//! (critical) of free pages, and the write percentage swept from 20% to
//! 80%.  Priority-aware cleaning postpones garbage collection while
//! foreground requests are queued, improving their response time by ≈10%
//! once writes are frequent enough for cleaning to matter, at the cost of
//! the background requests.

use crate::workload::SyntheticConfig;
use ossd_block::{BlockDevice, BlockRequest, Completion, DeviceError, Priority};
use ossd_ftl::{CleaningMode, FtlConfig};
use ossd_sim::{improvement_percent, SimDuration, SimTime};
use ossd_ssd::{SchedulerKind, Ssd, SsdConfig};

use super::{col, device, fill, geometry, ExperimentError, Report, Scale, Table};

/// One point of Figure 3 (one write percentage).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Figure3Point {
    /// Percentage of writes in the workload.
    pub write_pct: u32,
    /// Mean foreground (high-priority) response time, priority-agnostic
    /// cleaning (ms).
    pub agnostic_foreground_ms: f64,
    /// Mean background response time, priority-agnostic cleaning (ms).
    pub agnostic_background_ms: f64,
    /// Mean foreground response time, priority-aware cleaning (ms).
    pub aware_foreground_ms: f64,
    /// Mean background response time, priority-aware cleaning (ms).
    pub aware_background_ms: f64,
}

impl Figure3Point {
    /// Foreground response-time improvement of priority-aware over
    /// priority-agnostic cleaning (the rows of Table 6).
    pub fn improvement_pct(&self) -> f64 {
        improvement_percent(self.agnostic_foreground_ms, self.aware_foreground_ms)
    }
}

fn device_config(scale: Scale, mode: CleaningMode) -> SsdConfig {
    SsdConfig {
        ftl: FtlConfig::default()
            .with_overprovisioning(0.10)
            .with_watermarks(0.05, 0.02)
            .with_cleaning_mode(mode),
        gangs: 4,
        controller_overhead: SimDuration::from_micros(10),
        ..device(
            format!("figure3-{mode:?}"),
            geometry(8, scale.bytes(32, 96) as u32, 64),
        )
    }
}

fn mean_ms(completions: &[Completion], requests: &[BlockRequest], priority: Priority) -> f64 {
    let mut total = 0.0;
    let mut count = 0u64;
    for (c, r) in completions.iter().zip(requests) {
        if r.priority == priority {
            total += c.response_time().as_millis_f64();
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn run_point(scale: Scale, write_pct: u32) -> Result<Figure3Point, DeviceError> {
    let count = scale.count(12_000, 40_000);
    let mut out = [(0.0, 0.0); 2];
    for (i, mode) in [CleaningMode::PriorityAgnostic, CleaningMode::PriorityAware]
        .iter()
        .enumerate()
    {
        let mut ssd = Ssd::new(device_config(scale, *mode)).map_err(DeviceError::from)?;
        let capacity = ssd.capacity_bytes();
        // Sequentially fill three quarters of the logical space.  The
        // measured phase then starts with a modest cushion of free pages
        // above the low watermark: read-heavy runs never reach it (so
        // cleaning stays out of the picture, as in the paper's 20%-writes
        // point), while write-heavy runs consume the cushion early and
        // spend most of the run in the full-device regime where cleaning
        // matters (§3.6).
        let chunk = 256 * 1024;
        let fill_end = fill(&mut ssd, capacity * 3 / 4 / chunk * chunk, chunk, 0, false)?;
        let workload =
            SyntheticConfig::qos_workload(count, write_pct as f64 / 100.0, capacity - 256 * 1024);
        let requests: Vec<BlockRequest> = workload
            .generate()
            .to_requests()
            .into_iter()
            .map(|mut r| {
                r.arrival += fill_end.saturating_since(SimTime::ZERO);
                r
            })
            .collect();
        let completions = ssd
            .simulate_open(&requests, SchedulerKind::Fcfs)
            .map_err(DeviceError::from)?;
        out[i] = (
            mean_ms(&completions, &requests, Priority::High),
            mean_ms(&completions, &requests, Priority::Normal),
        );
    }
    Ok(Figure3Point {
        write_pct,
        agnostic_foreground_ms: out[0].0,
        agnostic_background_ms: out[0].1,
        aware_foreground_ms: out[1].0,
        aware_background_ms: out[1].1,
    })
}

/// The write percentages of Figure 3 / Table 6.
pub const WRITE_PERCENTAGES: [u32; 5] = [20, 40, 50, 60, 80];

/// Runs the Figure 3 sweep.
pub fn run(scale: Scale) -> Result<Vec<Figure3Point>, DeviceError> {
    WRITE_PERCENTAGES
        .iter()
        .map(|&w| run_point(scale, w))
        .collect()
}

/// Figure 3 and Table 6 as a report, with the paper's improvements.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let mut table = Table::of(
        &run(scale)?,
        &[
            (col("writes", "%", 0), |p| p.write_pct.into()),
            (col("agnostic_fg", "ms", 2), |p| {
                p.agnostic_foreground_ms.into()
            }),
            (col("agnostic_bg", "ms", 2), |p| {
                p.agnostic_background_ms.into()
            }),
            (col("aware_fg", "ms", 2), |p| p.aware_foreground_ms.into()),
            (col("aware_bg", "ms", 2), |p| p.aware_background_ms.into()),
            (col("improvement", "%", 2), |p| p.improvement_pct().into()),
        ],
    );
    table.paper_column("improvement", [0.0, 9.56, 10.27, 9.61, 9.47]);
    let title = "Figure 3 / Table 6: Priority-Aware Cleaning (response time, ms)";
    Ok(Report::new("figure3", title, scale, vec![table]).note(
        "fg/bg are foreground/background requests; background requests pay for the \
         foreground gain.",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_aware_cleaning_helps_foreground_when_writes_dominate() {
        // A single write-heavy point keeps the test fast; the full sweep is
        // exercised by the integration tests and the bench harness.
        let point = run_point(Scale::Quick, 60).unwrap();
        assert!(point.agnostic_foreground_ms > 0.0);
        assert!(point.aware_foreground_ms > 0.0);
        let improvement = point.improvement_pct();
        assert!(
            improvement > 2.0,
            "priority-aware cleaning should help foreground requests, got {improvement:.2}%"
        );
        assert!(
            improvement < 70.0,
            "improvement {improvement:.2}% implausibly large"
        );
    }

    #[test]
    fn read_heavy_workloads_see_little_benefit() {
        let point = run_point(Scale::Quick, 20).unwrap();
        let improvement = point.improvement_pct();
        // With few writes cleaning rarely runs, so the schemes should be
        // close (the paper reports exactly 0%).
        assert!(
            improvement.abs() < 10.0,
            "at 20% writes the schemes should be close, got {improvement:.2}%"
        );
    }
}
