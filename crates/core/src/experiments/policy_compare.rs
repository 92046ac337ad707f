//! Cleaning-policy comparison: write amplification and bandwidth vs.
//! device utilization, per policy.
//!
//! The paper argues cleaning belongs in the device (§2, §3.5) but evaluates
//! only one cleaner.  This experiment runs the same page-mapped device
//! across every [`CleaningPolicyKind`] — greedy, cost-benefit, cost-age and
//! windowed-greedy — at several device utilizations (live fraction of
//! physical space, i.e. `1 − over-provisioning` once the device is full),
//! under steady uniform-random overwrite churn.
//!
//! Uniform random churn is the regime the analytical write-amplification
//! models cover (Desnoyers; Dayan et al., *Modelling and Managing SSD
//! Write-amplification*): greedy cleaning converges to
//! `WA ≈ 1 / (2·(1 − u))`.  Each measured greedy point is validated against
//! that curve ([`analytic_greedy_wa`]); the other policies report their own
//! curves, which differ because victim selection weighs block age and wear,
//! not just staleness.

use ossd_block::{BlockDevice, BlockRequest, DeviceError};
use ossd_ftl::{CleaningPolicyKind, FtlConfig};
use ossd_gc::{analytic_greedy_wa, WriteAmpAccounting};
use ossd_sim::SimRng;
use ossd_ssd::{Ssd, SsdConfig};

use super::{col, device, fill, geometry, ExperimentError, Report, Scale, Table};

/// One measured point: one policy at one device utilization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct PolicyComparePoint {
    /// Device utilization (live fraction of physical pages).
    pub utilization: f64,
    /// Measured write amplification over the steady-state churn phase.
    pub write_amplification: f64,
    /// The analytical greedy prediction at this utilization (reference
    /// curve; meaningful as a validation target for the greedy policy).
    pub analytic_greedy: f64,
    /// Host write bandwidth over the churn phase, in MB/s of simulated
    /// time.
    pub bandwidth_mb_s: f64,
    /// Host-visible cleaning stall during the churn phase, in milliseconds
    /// of simulated time.
    pub cleaning_stall_ms: f64,
    /// Blocks erased during the churn phase.
    pub blocks_erased: u64,
    /// The full ledger for the churn phase.
    pub accounting: WriteAmpAccounting,
}

/// The measured curve of one policy across all utilizations.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PolicyCurve {
    /// The policy.
    pub policy: CleaningPolicyKind,
    /// One point per utilization, in ascending utilization order.
    pub points: Vec<PolicyComparePoint>,
}

/// The device utilizations the experiment sweeps.
pub fn utilizations() -> [f64; 3] {
    [0.70, 0.80, 0.90]
}

fn device_config(scale: Scale, policy: CleaningPolicyKind, utilization: f64) -> SsdConfig {
    SsdConfig {
        // Utilization is fixed by over-provisioning: once the whole logical
        // space has been written, the live fraction of physical space stays
        // at 1 − OP.  Wear-leveling is disabled so the curves isolate the
        // cleaning policy (its migrations would blur the comparison).
        ftl: FtlConfig::default()
            .with_overprovisioning(1.0 - utilization)
            .with_watermarks(0.05, 0.02)
            .with_cleaning_policy(policy)
            .without_wear_leveling(),
        ..device(
            format!("policy-compare-{}-{utilization:.2}", policy.name()),
            geometry(2, scale.count(64, 256) as u32, scale.count(32, 64) as u32),
        )
    }
}

fn run_one(
    scale: Scale,
    policy: CleaningPolicyKind,
    utilization: f64,
) -> Result<PolicyComparePoint, DeviceError> {
    let mut ssd = Ssd::new(device_config(scale, policy, utilization)).map_err(DeviceError::from)?;
    let logical_pages = ssd.capacity_bytes() / 4096;
    // Fill phase: write the whole logical space once so the device reaches
    // its steady-state utilization.
    let mut at = fill(&mut ssd, logical_pages * 4096, 4096, 0, true)?;
    let base = ssd.stats();
    let churn_start = at;
    // Churn phase: closed-loop uniform random overwrites, several times the
    // logical space, so cleaning reaches steady state and dominates.
    let churn_writes = logical_pages * scale.count(3, 5) as u64;
    let mut rng = SimRng::seed_from_u64(0x9C11_C0DE ^ (utilization * 100.0) as u64);
    for id in logical_pages..logical_pages + churn_writes {
        let lpn = rng.next_u64_below(logical_pages);
        let c = ssd.submit(&BlockRequest::write(id, lpn * 4096, 4096, at))?;
        at = c.finish;
    }
    let end = ssd.stats();

    // Churn-phase deltas.
    let host_writes = end.ftl.host_writes - base.ftl.host_writes;
    let programs = (end.ftl.pages_programmed_host + end.ftl.gc_pages_moved)
        - (base.ftl.pages_programmed_host + base.ftl.gc_pages_moved);
    let write_amplification = programs as f64 / host_writes as f64;
    let stall = end.cleaning_busy.saturating_sub(base.cleaning_busy);
    let elapsed = at.saturating_since(churn_start);
    let bytes = churn_writes * 4096;
    let bandwidth_mb_s = bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12);

    let mut accounting = end.accounting();
    let base_acct = base.accounting();
    accounting.host_pages -= base_acct.host_pages;
    accounting.host_programs -= base_acct.host_programs;
    accounting.cleaning_moves -= base_acct.cleaning_moves;
    accounting.cleaning_erases -= base_acct.cleaning_erases;
    accounting.stall_nanos -= base_acct.stall_nanos;

    Ok(PolicyComparePoint {
        utilization,
        write_amplification,
        analytic_greedy: analytic_greedy_wa(utilization),
        bandwidth_mb_s,
        cleaning_stall_ms: stall.as_secs_f64() * 1e3,
        blocks_erased: end.ftl.gc_blocks_erased - base.ftl.gc_blocks_erased,
        accounting,
    })
}

/// Runs the comparison: every policy at every utilization.
pub(crate) fn run(scale: Scale) -> Result<Vec<PolicyCurve>, DeviceError> {
    CleaningPolicyKind::all()
        .into_iter()
        .map(|policy| {
            let points = utilizations()
                .into_iter()
                .map(|u| run_one(scale, policy, u))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(PolicyCurve { policy, points })
        })
        .collect()
}

/// The comparison as a report: one row per policy and utilization.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let rows: Vec<(&str, PolicyComparePoint)> = run(scale)?
        .iter()
        .flat_map(|c| c.points.iter().map(|p| (c.policy.name(), *p)))
        .collect();
    let table = Table::of(
        &rows,
        &[
            (col("policy", "", 0), |(policy, _)| (*policy).into()),
            (col("utilization", "", 2), |(_, p)| p.utilization.into()),
            (col("write_amp", "x", 3), |(_, p)| {
                p.write_amplification.into()
            }),
            (col("analytic_greedy", "x", 3), |(_, p)| {
                p.analytic_greedy.into()
            }),
            (col("bandwidth", "MB/s", 2), |(_, p)| {
                p.bandwidth_mb_s.into()
            }),
            (col("cleaning_stall", "ms", 1), |(_, p)| {
                p.cleaning_stall_ms.into()
            }),
            (col("erases", "", 0), |(_, p)| p.blocks_erased.into()),
        ],
    );
    let title = "Cleaning-policy comparison: WA / bandwidth vs. utilization";
    Ok(
        Report::new("policy_compare", title, scale, vec![table]).note(
            "Background cleaning shifts the stall out of the write path; see the ossd-ssd \
         test `idle_windows_trigger_background_cleaning`.",
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_curves_are_distinct_monotonic_and_match_theory() {
        let curves = run(Scale::Quick).unwrap();
        assert_eq!(curves.len(), 4);
        for curve in &curves {
            assert_eq!(curve.points.len(), 3);
            for p in &curve.points {
                assert!(
                    p.write_amplification >= 1.0,
                    "{}@{}: WA {} below 1",
                    curve.policy.name(),
                    p.utilization,
                    p.write_amplification
                );
                assert!(p.bandwidth_mb_s > 0.0);
                assert!(p.blocks_erased > 0, "cleaning never ran");
            }
            // Write amplification grows with utilization for every policy.
            assert!(
                curve.points[0].write_amplification < curve.points[2].write_amplification,
                "{}: WA not increasing with utilization",
                curve.policy.name()
            );
            // More cleaning means less bandwidth at high utilization.
            assert!(
                curve.points[2].bandwidth_mb_s < curve.points[0].bandwidth_mb_s,
                "{}: bandwidth not decreasing with utilization",
                curve.policy.name()
            );
        }

        // The measured greedy curve tracks the analytical model within a
        // factor of two (the closed form is exact only in the large-block,
        // exact-steady-state limit).
        let greedy = curves
            .iter()
            .find(|c| c.policy == CleaningPolicyKind::Greedy)
            .unwrap();
        for p in &greedy.points {
            let ratio = p.write_amplification / p.analytic_greedy;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "greedy@{}: measured {} vs analytic {} (ratio {ratio})",
                p.utilization,
                p.write_amplification,
                p.analytic_greedy
            );
        }

        // At the highest utilization at least three policies must report
        // distinct write-amplification values (the acceptance criterion of
        // the policy subsystem: the experiment separates policies).
        let mut high: Vec<f64> = curves
            .iter()
            .map(|c| c.points[2].write_amplification)
            .collect();
        high.sort_by(|a, b| a.partial_cmp(b).unwrap());
        high.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert!(
            high.len() >= 3,
            "fewer than 3 distinct WA values at u=0.9: {high:?}"
        );
    }
}
