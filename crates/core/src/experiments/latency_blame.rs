//! Latency blame: where the p99.9 tail comes from, per request class.
//!
//! The paper's central claim is that SSD service times are bimodal — most
//! requests see bare flash latency, but the unlucky tail queues behind
//! cleaning, translation-page traffic and bus contention (§3.4–§3.6).  This
//! experiment quantifies that directly: it drives a GC-active, 4-initiator
//! TPC-C slice with the latency-attribution subsystem enabled and reports,
//! per class, the deep-tail percentiles (p50/p99/p99.9/p99.99) and the
//! share of tail latency *blamed on each component* — GC interference, map
//! I/O, fences, arbitration, bus transfer, ECC retries, the command's own
//! flash time.
//!
//! The sweep axis is the demand-paged map-cache budget: a resident mapping
//! table (no map I/O at all), a generous budget, and a starved one, at the
//! same GC-active watermark — so the report shows blame *shifting* (map
//! share rising, GC share diluting) while the workload stays fixed.
//!
//! Every point self-validates the subsystem's core invariant: one record
//! per completion and blame components summing exactly to each record's
//! end-to-end latency.

use crate::workload::TpccConfig;
use ossd_block::{BlockDevice, DeviceError, HostCommand, HostInterface, HostQueue};
use ossd_flash::ReliabilityConfig;
use ossd_ftl::{FtlConfig, MapCacheConfig};
use ossd_gc::BackgroundGcConfig;
use ossd_sim::{SimDuration, SimTime};
use ossd_ssd::{SchedulerKind, Ssd, SsdConfig};
use ossd_telemetry::{to_chrome_counters, BlameCat, ClassTail, TailReport};

use super::{col, device, fill, geometry, ExperimentError, Report, Scale, Table};

/// Number of initiator queue pairs the workload drives.
pub const INITIATORS: usize = 4;

/// One swept map-budget configuration's blame report.
#[derive(Clone, Debug)]
pub(crate) struct LatencyBlamePoint {
    /// Human-readable sweep label (`"resident"` or `"budget <n>"`).
    pub label: String,
    /// Map-cache budget in cached entries (`None` = fully resident table).
    pub map_budget: Option<usize>,
    /// Per-class deep-tail percentiles and blame shares.
    pub report: TailReport,
    /// The report rendered as CSV (one row per class).
    pub blame_csv: String,
    /// Cumulative per-category blame as Perfetto counter tracks.
    pub counters_json: String,
}

impl LatencyBlamePoint {
    /// Share of p99.9-tail latency blamed on `cat` across all classes.
    pub(crate) fn tail_share(&self, cat: BlameCat) -> f64 {
        self.report.class("all").map_or(0.0, |c| c.share(cat))
    }
}

/// The sweep: one [`LatencyBlamePoint`] per map budget.
#[derive(Clone, Debug)]
pub(crate) struct LatencyBlame {
    /// Points in sweep order (resident first, then shrinking budgets).
    pub points: Vec<LatencyBlamePoint>,
}

/// The GC-active device both telemetry experiments drive: 8 elements on
/// two gang buses, with the cleaning watermark raised above what the
/// prefill leaves free so foreground cleaning runs throughout the measured
/// churn, and the wear-out fault model with the pristine raw bit-error mean
/// at the edge of the default ECC strength, so a visible fraction of reads
/// needs a shifted-threshold retry.
pub(super) fn device_config(scale: Scale, name: &str, map_budget: Option<usize>) -> SsdConfig {
    let mut ftl = FtlConfig::default()
        .with_overprovisioning(0.12)
        .with_watermarks(0.30, 0.15);
    if let Some(budget) = map_budget {
        ftl = ftl.with_map_cache(MapCacheConfig::default().with_budget(budget as u64));
    }
    let mut reliability = ReliabilityConfig::wearout(0x7e1e);
    reliability.faults.raw_ber_base = 4.0;
    SsdConfig {
        ftl,
        reliability,
        background_gc: Some(BackgroundGcConfig::default()),
        gangs: 2,
        scheduler: SchedulerKind::Swtf,
        queue_depth: 8,
        controller_overhead: SimDuration::from_micros(10),
        ..device(name, geometry(8, scale.count(128, 512) as u32, 64))
    }
}

/// Serves the TPC-C slice both telemetry experiments measure.  The database
/// and log are sized to the device so both scales stress it equally.  The
/// database is prefilled *before* `instrument` runs, so what it observes is
/// the steady-state churn, not the fill.  The transactions are then
/// arbitrated round-robin across [`INITIATORS`] queue pairs, closing with
/// one Flush per initiator so the fence path is exercised too.  Returns the
/// commands completed and the churn's start.
pub(super) fn serve_tpcc_slice(
    scale: Scale,
    ssd: &mut Ssd,
    instrument: impl FnOnce(&mut Ssd),
) -> Result<(usize, SimTime), DeviceError> {
    let capacity = ssd.capacity_bytes();
    let page = ssd.logical_page_bytes();
    let database_bytes = (capacity * 8 / 10) / page * page;
    let tpcc = TpccConfig {
        transactions: scale.count(400, 4000),
        database_bytes,
        log_bytes: (capacity / 10) / page * page,
        ..TpccConfig::default()
    };
    let at = fill(ssd, database_bytes, 128 * page, 1_000_000, true)?;
    instrument(ssd);

    let base = at + SimDuration::from_millis(1);
    let requests = tpcc.generate().to_requests();
    let mut queues = vec![HostQueue::new(); INITIATORS];
    let mut last_arrival = base;
    for (i, r) in requests.iter().enumerate() {
        let mut request = *r;
        request.arrival = base + SimDuration::from_nanos(r.arrival.as_nanos());
        last_arrival = last_arrival.max(request.arrival);
        queues[i % INITIATORS].submit_request(&request);
    }
    for queue in &mut queues {
        queue.submit(u64::MAX, HostCommand::Flush, last_arrival);
    }
    ssd.serve(&mut queues)?;
    let completions = queues.iter_mut().map(|q| q.drain_completions().len()).sum();
    Ok((completions, base))
}

/// The swept map budgets for `scale` (entry counts; `None` = resident).
fn budgets(scale: Scale) -> Vec<Option<usize>> {
    vec![
        None,
        Some(scale.count(2048, 16384)),
        Some(scale.count(256, 2048)),
    ]
}

/// A failed self-check of this experiment.
fn fail<T>(what: String) -> Result<T, ExperimentError> {
    Err(ExperimentError::Check {
        experiment: "latency_blame",
        what,
    })
}

/// Runs one map-budget point: the TPC-C slice with attribution enabled
/// after the prefill, its blame records drained and aggregated.
fn run_point(
    scale: Scale,
    map_budget: Option<usize>,
) -> Result<LatencyBlamePoint, ExperimentError> {
    let config = device_config(scale, "latency-blame", map_budget);
    let mut ssd = Ssd::new(config).map_err(DeviceError::from)?;
    let (completions, _) = serve_tpcc_slice(scale, &mut ssd, Ssd::enable_attribution)?;
    let records = ssd.take_blame_records();
    let report = TailReport::from_records(&records);
    let point = LatencyBlamePoint {
        label: match map_budget {
            None => "resident".to_string(),
            Some(budget) => format!("budget {budget}"),
        },
        map_budget,
        blame_csv: report.to_csv(),
        counters_json: to_chrome_counters(&records),
        report,
    };

    // Self-validate the subsystem's invariants on the way out.
    if records.len() != completions {
        let n = records.len();
        return fail(format!(
            "{}: {n} blame records for {completions} completions",
            point.label
        ));
    }
    if let Some(bad) = records.iter().find(|r| !r.is_exact()) {
        return fail(format!(
            "{}: command {} blame sums to {} ns over a {} ns latency",
            point.label,
            bad.id,
            bad.total_nanos(),
            bad.finish.saturating_since(bad.arrival).as_nanos()
        ));
    }
    Ok(point)
}

/// Runs the map-budget sweep and checks the headline result: under a
/// GC-active watermark some of the p99.9 tail is blamed on GC on every
/// point, and the demand-paged points blame map I/O where the resident
/// point cannot.
pub(crate) fn run(scale: Scale) -> Result<LatencyBlame, ExperimentError> {
    let mut points = Vec::new();
    for map_budget in budgets(scale) {
        points.push(run_point(scale, map_budget)?);
    }
    for point in &points {
        let label = &point.label;
        if point.tail_share(BlameCat::GcWait) <= 0.0 {
            return fail(format!(
                "{label}: GC-active run blames no tail latency on GC"
            ));
        }
        let map_blamed: f64 = point
            .report
            .class("all")
            .map_or(0.0, |c| c.blamed_us[BlameCat::Map.index()]);
        if point.map_budget.is_some() && map_blamed <= 0.0 {
            return fail(format!(
                "{label}: demand-paged run blames nothing on map I/O"
            ));
        }
        if point.map_budget.is_none() && map_blamed > 0.0 {
            return fail(format!(
                "{label}: resident mapping cannot do map I/O yet map blame is nonzero"
            ));
        }
    }
    Ok(LatencyBlame { points })
}

/// The sweep as a report: per map budget and request class, the deep-tail
/// percentiles and the p99.9-tail blame shares.  Artifacts: each point's
/// blame CSV and the starved point's cumulative blame as counter tracks.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let blame = run(scale)?;
    let rows: Vec<(&str, &ClassTail)> = blame
        .points
        .iter()
        .flat_map(|p| p.report.classes.iter().map(move |c| (p.label.as_str(), c)))
        .collect();
    let table = Table::of(
        &rows,
        &[
            (col("map", "", 0), |(map, _)| (*map).into()),
            (col("class", "", 0), |(_, c)| c.class.into()),
            (col("count", "", 0), |(_, c)| c.count.into()),
            (col("p50", "us", 1), |(_, c)| c.p50_us.into()),
            (col("p99", "us", 1), |(_, c)| c.p99_us.into()),
            (col("p99.9", "us", 1), |(_, c)| c.p999_us.into()),
            (col("p99.99", "us", 1), |(_, c)| c.p9999_us.into()),
            (col("sq", "%", 1), |(_, c)| {
                (100.0 * c.share(BlameCat::SqWait)).into()
            }),
            (col("flash", "%", 1), |(_, c)| {
                (100.0 * c.share(BlameCat::Flash)).into()
            }),
            (col("gc", "%", 1), |(_, c)| {
                (100.0 * c.share(BlameCat::GcWait)).into()
            }),
            (col("map", "%", 1), |(_, c)| {
                (100.0 * c.share(BlameCat::Map)).into()
            }),
            (col("bus", "%", 1), |(_, c)| {
                (100.0 * c.share(BlameCat::Bus)).into()
            }),
            (col("ecc", "%", 1), |(_, c)| {
                (100.0 * c.share(BlameCat::Ecc)).into()
            }),
        ],
    );
    let mut report = Report::new(
        "latency_blame",
        "Tail latency: per-request blame for the p99.9",
        scale,
        vec![table],
    );
    for point in &blame.points {
        let slug: String = point.label.split_whitespace().collect();
        let csv = point.blame_csv.clone();
        report
            .artifacts
            .push((format!("BENCH_tail_blame_{slug}.csv"), csv));
    }
    if let Some(starved) = blame.points.last() {
        let counters = starved.counters_json.clone();
        report
            .artifacts
            .push(("BENCH_tail_counters.trace.json".to_string(), counters));
    }
    Ok(report.note("Open the counter tracks in https://ui.perfetto.dev."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_blames_gc_and_map_exactly() {
        let blame = run(Scale::Quick).expect("latency blame sweep");
        assert_eq!(blame.points.len(), 3);
        for point in &blame.points {
            let all = point.report.class("all").expect("all row");
            assert!(all.count > 0);
            assert!(all.p50_us <= all.p99_us && all.p99_us <= all.p999_us);
            assert!(all.p999_us <= all.p9999_us);
            assert!(all.tail_count > 0);
            // run() already asserted GC shows up in the tail; the shares
            // must also be a distribution over the tail set.
            let share_sum: f64 = BlameCat::ALL.iter().map(|&c| point.tail_share(c)).sum();
            assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to {share_sum}");
            // Both artifacts render and the counters parse as JSON.
            assert!(point.blame_csv.lines().count() >= 2);
            ossd_sim::json::Value::parse(&point.counters_json).expect("counters parse");
        }
        // The starved budget must shift blame toward map I/O relative to
        // the generous one.
        let generous = &blame.points[1];
        let starved = &blame.points[2];
        let map_us = |p: &LatencyBlamePoint| {
            p.report
                .class("all")
                .map_or(0.0, |c| c.blamed_us[BlameCat::Map.index()])
        };
        assert!(
            map_us(starved) > map_us(generous),
            "starved budget blames less map time ({} us) than generous ({} us)",
            map_us(starved),
            map_us(generous)
        );
    }
}
