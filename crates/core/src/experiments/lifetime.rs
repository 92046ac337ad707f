//! Device-lifetime experiment: write a device to end-of-life under a
//! seeded fault model and report TBW, lifetime, wear-out and error-rate
//! metrics per over-provisioning × cleaning policy × wear-leveling.
//!
//! The paper argues the device must hide flash's failure modes — bounded
//! erase endurance, grown bad blocks, raw bit errors — behind remapping
//! and ECC (§2).  This experiment measures the consequence: with the
//! reliability subsystem's wear-out fault model installed
//! ([`ossd_flash::FaultConfig::wearout`]), erase and program failures
//! accelerate as blocks pass their rated endurance, the bad-block manager
//! retires grown bad blocks, and the device dies when its spare blocks are
//! exhausted (writes can no longer allocate) or its uncorrectable
//! bit-error rate crosses the acceptance threshold.
//!
//! Write amplification is the exchange rate between host writes and
//! endurance consumption (Dayan et al., *Modelling and Managing SSD
//! Write-amplification*): more over-provisioning → lower WA → more total
//! bytes written (TBW) before the same erase budget runs out.  The sweep
//! makes that link measurable — TBW grows monotonically with
//! over-provisioning, and cleaning policies with different WA curves reach
//! end-of-life at measurably different TBW.

use ossd_block::{BlockDevice, BlockRequest, DeviceError};
use ossd_flash::{FlashTiming, ReliabilityConfig};
use ossd_ftl::{CleaningPolicyKind, FtlConfig};
use ossd_sim::{SimRng, SimTime};
use ossd_ssd::{Ssd, SsdConfig};

use super::{col, device, geometry, Column, ExperimentError, Report, Scale, Table};

/// Why a lifetime run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum EndOfLife {
    /// A write could no longer allocate: grown bad blocks consumed the
    /// spare pool.
    SparesExhausted,
    /// The cumulative uncorrectable bit-error rate crossed
    /// [`UBER_THRESHOLD`].
    UberExceeded,
    /// The write budget ran out before the device died (a healthy device
    /// at this fault rate).
    BudgetExhausted,
}

impl EndOfLife {
    /// Short name for CSV/report output.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EndOfLife::SparesExhausted => "spares",
            EndOfLife::UberExceeded => "uber",
            EndOfLife::BudgetExhausted => "budget",
        }
    }
}

/// Uncorrectable-bit-error-rate acceptance threshold (errors per bit
/// read).  Real datasheets quote 1e-15..1e-17; the experiment's fault
/// rates are compressed so a toy device dies in simulated minutes, and the
/// threshold is compressed to match.
pub(crate) const UBER_THRESHOLD: f64 = 1e-7;

/// One lifetime run: a device written to end-of-life.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct LifetimePoint {
    /// Over-provisioning fraction of the run.
    pub overprovisioning: f64,
    /// Cleaning policy of the run.
    pub policy: CleaningPolicyKind,
    /// Whether explicit wear-leveling was enabled.
    pub wear_leveling: bool,
    /// Why the run ended.
    pub end: EndOfLife,
    /// Total bytes written by the host before end-of-life (TBW).
    pub tbw_bytes: u64,
    /// Simulated lifetime in seconds (arrival of the first write to the
    /// last completion).
    pub lifetime_secs: f64,
    /// Write amplification over the whole life.
    pub write_amplification: f64,
    /// Blocks retired by the bad-block manager (grown + factory bad).
    pub retired_blocks: u64,
    /// Page programs the fault model failed.
    pub program_fails: u64,
    /// Block erases the fault model failed.
    pub erase_fails: u64,
    /// ECC read retries over the run.
    pub read_retries: u64,
    /// Reads that stayed uncorrectable after every retry.
    pub uncorrectable_reads: u64,
    /// Cumulative uncorrectable bit-error rate (errors per bit read).
    pub uber: f64,
}

/// The over-provisioning fractions the sweep visits, ascending.
pub(crate) fn overprovisionings() -> [f64; 3] {
    [0.10, 0.20, 0.30]
}

/// The cleaning policies the sweep compares.
pub fn policies() -> [CleaningPolicyKind; 2] {
    [CleaningPolicyKind::Greedy, CleaningPolicyKind::CostBenefit]
}

/// Rated endurance of the test part: low enough that the burn-in reaches
/// wear-out within the write budget.
fn endurance(scale: Scale) -> u32 {
    scale.count(32, 96) as u32
}

fn device_config(
    scale: Scale,
    overprovisioning: f64,
    policy: CleaningPolicyKind,
    wear_leveling: bool,
) -> SsdConfig {
    let mut ftl = FtlConfig::default()
        .with_overprovisioning(overprovisioning)
        .with_watermarks(0.05, 0.02)
        .with_cleaning_policy(policy);
    // A deeper GC reserve doubles as the spare pool: a single grown bad
    // block must not consume the only erased block cleaning relies on, or
    // the element wedges on the first failure instead of surviving until
    // the spares are genuinely gone.
    ftl.gc_reserved_blocks = 3;
    // With a rated endurance of only a few dozen cycles, the default
    // 32-cycle spread bound would never trigger; bound the spread to a
    // quarter of the rating so the wear-leveling dimension is measurable.
    ftl.wear_leveling = if wear_leveling {
        Some(ossd_ftl::WearLevelConfig {
            max_erase_spread: (endurance(scale) / 4).max(2),
        })
    } else {
        None
    };
    SsdConfig {
        timing: FlashTiming {
            endurance: endurance(scale),
            ..FlashTiming::slc()
        },
        ftl,
        // The same fault seed for every configuration: runs differ only in
        // the policy knobs under test, not in their random draws' seed.
        reliability: ReliabilityConfig::wearout(0x11FE_711E),
        ..device(
            format!(
                "lifetime-{}-op{overprovisioning:.2}-wl{wear_leveling}",
                policy.name()
            ),
            geometry(2, scale.count(32, 96) as u32, scale.count(16, 32) as u32),
        )
    }
}

/// Runs one configuration to end-of-life.
pub(crate) fn run_one(
    scale: Scale,
    overprovisioning: f64,
    policy: CleaningPolicyKind,
    wear_leveling: bool,
) -> Result<LifetimePoint, DeviceError> {
    let config = device_config(scale, overprovisioning, policy, wear_leveling);
    let mut ssd = Ssd::new(config).map_err(DeviceError::from)?;
    let logical_pages = ssd.capacity_bytes() / 4096;
    // Enough budget that the wear-out model, not the cap, ends the run.
    let write_budget = logical_pages * endurance(scale) as u64 * 4;
    let mut rng = SimRng::seed_from_u64(0x7B3A_11FE ^ (overprovisioning * 1000.0) as u64);
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    let mut tbw_bytes = 0u64;
    let mut bits_read = 0u64;
    let mut end = EndOfLife::BudgetExhausted;
    // Fill once so the device runs at steady-state utilization, then churn
    // skewed overwrites — 80% of writes land on the hottest 20% of the
    // space — interleaving reads so the UBER is continuously sampled.
    // Skew is what separates the cleaning policies (cost-benefit
    // segregates cold data greedy keeps re-copying) and what gives
    // explicit wear-leveling cold blocks worth migrating.
    let hot_pages = (logical_pages / 5).max(1);
    'life: for step in 0..write_budget {
        let write_lpn = if step < logical_pages {
            step
        } else if rng.chance(0.8) {
            rng.next_u64_below(hot_pages)
        } else {
            hot_pages + rng.next_u64_below((logical_pages - hot_pages).max(1))
        };
        match ssd.submit(&BlockRequest::write(id, write_lpn * 4096, 4096, at)) {
            Ok(c) => {
                at = c.finish;
                tbw_bytes += 4096;
            }
            Err(_) => {
                end = EndOfLife::SparesExhausted;
                break 'life;
            }
        }
        id += 1;
        // One read per four writes, over the already-written space.
        if step.is_multiple_of(4) && step > 0 {
            let read_lpn = rng.next_u64_below(logical_pages.min(step));
            let c = ssd.submit(&BlockRequest::read(id, read_lpn * 4096, 4096, at))?;
            at = c.finish;
            id += 1;
            bits_read += 4096 * 8;
        }
        // Periodic UBER acceptance check, once enough reads accumulated.
        if step.is_multiple_of(256) && bits_read >= 1_000_000 {
            let un = ssd.stats().reliability.uncorrectable_reads;
            if un as f64 / bits_read as f64 > UBER_THRESHOLD {
                end = EndOfLife::UberExceeded;
                break 'life;
            }
        }
    }
    let stats = ssd.stats();
    Ok(LifetimePoint {
        overprovisioning,
        policy,
        wear_leveling,
        end,
        tbw_bytes,
        lifetime_secs: at.as_nanos() as f64 / 1e9,
        write_amplification: stats.write_amplification(),
        retired_blocks: stats.reliability.retired_blocks,
        program_fails: stats.reliability.program_fails,
        erase_fails: stats.reliability.erase_fails,
        read_retries: stats.reliability.read_retries,
        uncorrectable_reads: stats.reliability.uncorrectable_reads,
        uber: if bits_read == 0 {
            0.0
        } else {
            stats.reliability.uncorrectable_reads as f64 / bits_read as f64
        },
    })
}

/// Runs the full sweep: over-provisioning × policy × wear-leveling, in
/// ascending over-provisioning order within each (policy, wear-leveling)
/// series.
pub(crate) fn run(scale: Scale) -> Result<Vec<LifetimePoint>, DeviceError> {
    let mut points = Vec::new();
    for policy in policies() {
        for wear_leveling in [true, false] {
            for op in overprovisionings() {
                points.push(run_one(scale, op, policy, wear_leveling)?);
            }
        }
    }
    Ok(points)
}

/// The sweep as a report: one row per lifetime run.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let uber = Column {
        scientific: true,
        ..col("uber", "", 3)
    };
    let table = Table::of(
        &run(scale)?,
        &[
            (col("overprovisioning", "", 2), |p| {
                p.overprovisioning.into()
            }),
            (col("policy", "", 0), |p| p.policy.name().into()),
            (col("wear_leveling", "", 0), |p| p.wear_leveling.into()),
            (col("end_of_life", "", 0), |p| p.end.name().into()),
            (col("tbw", "MB", 2), |p| (p.tbw_bytes as f64 / 1e6).into()),
            (col("lifetime", "s", 3), |p| p.lifetime_secs.into()),
            (col("write_amp", "x", 3), |p| p.write_amplification.into()),
            (col("retired_blocks", "", 0), |p| p.retired_blocks.into()),
            (col("program_fails", "", 0), |p| p.program_fails.into()),
            (col("erase_fails", "", 0), |p| p.erase_fails.into()),
            (col("read_retries", "", 0), |p| p.read_retries.into()),
            (col("uncorrectable_reads", "", 0), |p| {
                p.uncorrectable_reads.into()
            }),
            (uber, |p| p.uber.into()),
        ],
    );
    let title = "Lifetime sweep: TBW/UBER vs over-provisioning";
    Ok(Report::new("lifetime", title, scale, vec![table]).note(
        "Reading the curve: over-provisioning lowers write amplification, so the same \
         per-block erase budget absorbs more host writes (higher TBW) before grown bad \
         blocks exhaust the spares or the UBER threshold is crossed.",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_grows_monotonically_with_overprovisioning() {
        let points = run(Scale::Quick).unwrap();
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.tbw_bytes > 0, "no bytes written before EOL");
            assert!(p.lifetime_secs > 0.0);
            assert!(p.write_amplification >= 1.0);
            assert!(
                p.end != EndOfLife::BudgetExhausted,
                "{}-op{}-wl{}: the wear-out model must end the run",
                p.policy.name(),
                p.overprovisioning,
                p.wear_leveling
            );
            assert!(
                p.retired_blocks > 0 || p.program_fails > 0 || p.uncorrectable_reads > 0,
                "end-of-life without any recorded media failure"
            );
        }
        // The acceptance criterion: within each (policy, wear-leveling)
        // series, TBW increases monotonically with over-provisioning —
        // lower write amplification stretches the same erase budget.
        for series in points.chunks(3) {
            assert!(
                series[0].tbw_bytes < series[1].tbw_bytes
                    && series[1].tbw_bytes < series[2].tbw_bytes,
                "{}-wl{}: TBW not monotone: {} / {} / {}",
                series[0].policy.name(),
                series[0].wear_leveling,
                series[0].tbw_bytes,
                series[1].tbw_bytes,
                series[2].tbw_bytes
            );
            assert!(
                series[0].write_amplification > series[2].write_amplification,
                "WA should fall with over-provisioning"
            );
        }
        // Policies must be measurably different: at the lowest
        // over-provisioning (where cleaning works hardest) greedy and
        // cost-benefit reach different TBW.
        let greedy = &points[0];
        let cost_benefit = &points[6];
        assert_eq!(greedy.policy, CleaningPolicyKind::Greedy);
        assert_eq!(cost_benefit.policy, CleaningPolicyKind::CostBenefit);
        let rel = (greedy.tbw_bytes as f64 - cost_benefit.tbw_bytes as f64).abs()
            / greedy.tbw_bytes as f64;
        assert!(
            rel > 1e-3,
            "policies indistinguishable: greedy {} vs cost-benefit {}",
            greedy.tbw_bytes,
            cost_benefit.tbw_bytes
        );
    }
}
