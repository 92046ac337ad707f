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

use ossd_block::{BlockDevice, BlockRequest, DeviceError, HostCommand, HostInterface, HostQueue};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::{FtlConfig, MapCacheConfig};
use ossd_gc::BackgroundGcConfig;
use ossd_sim::{SimDuration, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, Ssd, SsdConfig};
use ossd_telemetry::{to_chrome_counters, BlameCat, TailReport};
use ossd_workload::TpccConfig;

use super::Scale;

/// Number of initiator queue pairs the workload drives.
pub const INITIATORS: usize = 4;

/// One swept map-budget configuration's blame report.
#[derive(Clone, Debug)]
pub struct LatencyBlamePoint {
    /// Human-readable sweep label (`"resident"` or `"budget <n>"`).
    pub label: String,
    /// Map-cache budget in cached entries (`None` = fully resident table).
    pub map_budget: Option<usize>,
    /// Commands completed across all initiators (records drained).
    pub completions: usize,
    /// Per-class deep-tail percentiles and blame shares.
    pub report: TailReport,
    /// The report rendered as CSV (one row per class).
    pub blame_csv: String,
    /// Cumulative per-category blame as Perfetto counter tracks.
    pub counters_json: String,
}

impl LatencyBlamePoint {
    /// Share of p99.9-tail latency blamed on `cat` across all classes.
    pub fn tail_share(&self, cat: BlameCat) -> f64 {
        self.report.class("all").map_or(0.0, |c| c.share(cat))
    }
}

/// The sweep: one [`LatencyBlamePoint`] per map budget.
#[derive(Clone, Debug)]
pub struct LatencyBlame {
    /// Points in sweep order (resident first, then shrinking budgets).
    pub points: Vec<LatencyBlamePoint>,
}

/// The GC-active device under test: 8 elements on two gang buses, with the
/// cleaning watermark raised above what the prefill leaves free so
/// foreground cleaning runs throughout the measured churn, and the
/// stressed wear-out fault model so ECC retries appear in the blame.
fn device_config(scale: Scale, map_budget: Option<usize>) -> SsdConfig {
    let mut ftl = FtlConfig::default()
        .with_overprovisioning(0.12)
        .with_watermarks(0.30, 0.15);
    if let Some(budget) = map_budget {
        ftl = ftl.with_map_cache(MapCacheConfig::default().with_budget(budget as u64));
    }
    SsdConfig {
        name: "latency-blame".to_string(),
        geometry: FlashGeometry {
            packages: 8,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: scale.count(128, 512) as u32,
            pages_per_block: 64,
            page_bytes: 4096,
        },
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl,
        reliability: stressed_reliability(),
        background_gc: Some(BackgroundGcConfig::default()),
        gangs: 2,
        scheduler: SchedulerKind::Swtf,
        queue_depth: 8,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// Same stressed fault model as the trace-capture experiment: the pristine
/// raw bit-error mean sits at the edge of the default ECC strength, so a
/// visible fraction of reads needs a shifted-threshold retry.
fn stressed_reliability() -> ReliabilityConfig {
    let mut reliability = ReliabilityConfig::wearout(0x7e1e);
    reliability.faults.raw_ber_base = 4.0;
    reliability
}

/// The swept map budgets for `scale` (entry counts; `None` = resident).
fn budgets(scale: Scale) -> Vec<Option<usize>> {
    vec![
        None,
        Some(scale.count(2048, 16384)),
        Some(scale.count(256, 2048)),
    ]
}

/// Runs one map-budget point: prefill, enable attribution, churn TPC-C
/// through four initiators, drain and aggregate the blame records.
fn run_point(scale: Scale, map_budget: Option<usize>) -> Result<LatencyBlamePoint, DeviceError> {
    let config = device_config(scale, map_budget);
    let mut ssd = Ssd::new(config).map_err(DeviceError::from)?;
    let capacity = ssd.capacity_bytes();
    let page = ssd.logical_page_bytes();
    let database_bytes = (capacity * 8 / 10) / page * page;
    let tpcc = TpccConfig {
        transactions: scale.count(400, 4000),
        database_bytes,
        log_bytes: (capacity / 10) / page * page,
        ..TpccConfig::default()
    };

    // Prefill before enabling attribution: the report should describe the
    // steady-state churn, not the sequential fill.
    let mut at = SimTime::ZERO;
    let chunk = 128 * page;
    let mut id = 1_000_000u64;
    let mut offset = 0u64;
    while offset < database_bytes {
        let len = chunk.min(database_bytes - offset);
        let c = ssd.submit(&BlockRequest::write(id, offset, len, at))?;
        at = c.finish;
        offset += len;
        id += 1;
    }
    ssd.enable_attribution();

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
    // One closing Flush per initiator puts the fence path in the blame.
    for queue in &mut queues {
        queue.submit(u64::MAX, HostCommand::Flush, last_arrival);
    }
    ssd.serve(&mut queues)?;
    let completions: usize = queues.iter_mut().map(|q| q.drain_completions().len()).sum();

    let records = ssd.take_blame_records();
    let report = TailReport::from_records(&records);
    let point = LatencyBlamePoint {
        label: match map_budget {
            None => "resident".to_string(),
            Some(budget) => format!("budget {budget}"),
        },
        map_budget,
        completions,
        blame_csv: report.to_csv(),
        counters_json: to_chrome_counters(&records),
        report,
    };

    // Self-validate the subsystem's invariants on the way out.
    if records.len() != completions {
        return Err(validation_error(format!(
            "{}: {} blame records for {} completions",
            point.label,
            records.len(),
            completions
        )));
    }
    if let Some(bad) = records.iter().find(|r| !r.is_exact()) {
        return Err(validation_error(format!(
            "{}: command {} blame sums to {} ns over a {} ns latency",
            point.label,
            bad.id,
            bad.total_nanos(),
            bad.finish.saturating_since(bad.arrival).as_nanos()
        )));
    }
    Ok(point)
}

fn validation_error(what: String) -> DeviceError {
    DeviceError::Unsupported {
        what: Box::leak(what.into_boxed_str()),
    }
}

/// Runs the map-budget sweep and checks the headline result: under a
/// GC-active watermark some of the p99.9 tail is blamed on GC on every
/// point, and the demand-paged points blame map I/O where the resident
/// point cannot.
pub fn run(scale: Scale) -> Result<LatencyBlame, DeviceError> {
    let mut points = Vec::new();
    for map_budget in budgets(scale) {
        points.push(run_point(scale, map_budget)?);
    }
    for point in &points {
        if point.tail_share(BlameCat::GcWait) <= 0.0 {
            return Err(validation_error(format!(
                "{}: GC-active run blames no tail latency on GC",
                point.label
            )));
        }
        let map_blamed: f64 = point
            .report
            .class("all")
            .map_or(0.0, |c| c.blamed_us[BlameCat::Map.index()]);
        if point.map_budget.is_some() && map_blamed <= 0.0 {
            return Err(validation_error(format!(
                "{}: demand-paged run blames nothing on map I/O",
                point.label
            )));
        }
        if point.map_budget.is_none() && map_blamed > 0.0 {
            return Err(validation_error(format!(
                "{}: resident mapping cannot do map I/O yet map blame is nonzero",
                point.label
            )));
        }
    }
    Ok(LatencyBlame { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_blames_gc_and_map_exactly() {
        let blame = run(Scale::Quick).expect("latency blame sweep");
        assert_eq!(blame.points.len(), 3);
        for point in &blame.points {
            assert!(point.completions > 0);
            let all = point.report.class("all").expect("all row");
            assert_eq!(all.count as usize, point.completions);
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
