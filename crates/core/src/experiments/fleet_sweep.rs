//! Fleet-scale sweep: aggregate throughput of a striped multi-device
//! array, and foreground latency under parity failure and QoS-throttled
//! rebuild.
//!
//! Two questions the single-device experiments cannot ask:
//!
//! 1. **Scale-out.**  How does aggregate bandwidth grow as the same device
//!    is striped 1→8 wide, per stripe unit, and how much wall-clock time do
//!    per-device engine threads save?  (Sim results are bit-identical for
//!    every thread count — that is the fleet determinism contract — so the
//!    thread axis only moves `wall_seconds`.)
//! 2. **Degraded mode vs rebuild QoS.**  On a 4-device parity fleet with
//!    one member failed and replaced, reconstruction copy-back occupies
//!    every survivor's flash elements (element busy state persists across
//!    sessions), so foreground requests queue behind it — the classic
//!    degraded-array tail story.  The scenario sweeps the rebuild
//!    bandwidth budget ([`ossd_fleet::RebuildQos`]): an unthrottled
//!    rebuild closes the reduced-redundancy window fastest but wrecks the
//!    survivor p99.9, while a tight budget inverts the trade — the CSV
//!    shows copy-back bandwidth and survivor tails moving in opposite
//!    directions.

use ossd_block::{
    BlockDevice, ByteRange, CompletionStatus, DeviceError, HostCommand, HostInterface, HostQueue,
    LatencyPercentiles, WriteHint,
};
use ossd_fleet::{Fleet, FleetConfig, RebuildQos};
use ossd_ftl::FtlConfig;
use ossd_sim::{LatencyStats, SimDuration, SimRng, SimTime};
use ossd_ssd::SsdConfig;

use super::{col, device, geometry, Cell, ExperimentError, Report, Scale, Table};

/// One measured grid point: a device count × thread count × stripe unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct FleetPoint {
    /// Devices in the striped array.
    pub devices: usize,
    /// Worker threads serving the per-device engines.
    pub threads: usize,
    /// Stripe unit in KiB.
    pub stripe_kib: u64,
    /// Aggregate bandwidth over the churn phase, MB per simulated second.
    pub bandwidth_mbps: f64,
    /// Median foreground response time, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile foreground response time, milliseconds.
    pub p99_ms: f64,
    /// Host-visible wall-clock time of the churn phase, seconds.
    pub wall_seconds: f64,
    /// Churn commands served.
    pub ops: u64,
}

/// One rebuild-budget setting of the parity failure → rebuild scenario.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RebuildPoint {
    /// Human-readable budget label (`"unthrottled"`, `"64MBps"`, ...).
    pub label: &'static str,
    /// Token-bucket budget in MB/s of copy-back (0 = unthrottled).
    pub budget_mbps: f64,
    /// Whether host-pressure backoff is enabled for this setting.
    pub backoff: bool,
    /// Member devices in the parity fleet.
    pub devices: usize,
    /// Healthy-phase foreground response-time percentiles.
    pub healthy: LatencyPercentiles,
    /// Survivor foreground percentiles while the rebuild is in flight.
    pub degraded: LatencyPercentiles,
    /// Bytes reconstructed onto the replacement, MiB.
    pub rebuilt_mib: f64,
    /// Copy-back bandwidth, MB per simulated second, from the failure to
    /// the finish of the last copy write (to the end of the scenario when
    /// the rebuild did not finish).
    pub rebuild_mbps: f64,
    /// Simulated seconds from the failure to the finish of the last copy
    /// write: the reduced-redundancy window.  `None` when the rebuild did
    /// not finish inside the scenario.
    pub rebuild_s: Option<f64>,
    /// Host reads served by XOR reconstruction during the scenario.
    pub degraded_reads: u64,
    /// Host-visible non-`Ok` completions (must stay zero).
    pub host_errors: u64,
}

/// Everything the sweep produces.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct FleetSweep {
    /// The scale-out grid.
    pub points: Vec<FleetPoint>,
    /// The degraded-mode scenario, one point per rebuild-budget setting.
    pub rebuild: Vec<RebuildPoint>,
}

const SEED: u64 = 0xF1EE_CAFE;
const INITIATORS: usize = 4;

fn device_config(scale: Scale) -> SsdConfig {
    SsdConfig {
        ftl: FtlConfig::default()
            .with_overprovisioning(0.12)
            .with_watermarks(0.10, 0.04),
        queue_depth: 8,
        controller_overhead: SimDuration::from_micros(10),
        ..device("fleet-sweep", geometry(2, scale.count(32, 64) as u32, 32))
    }
}

/// Sequentially fills the fleet with large (64-page) writes so churn runs
/// against a utilized array.  Returns the sim time the fill drained at.
fn prefill<D: HostInterface>(fleet: &mut D, capacity: u64) -> Result<SimTime, DeviceError> {
    let chunk = 64 * 4096u64;
    let mut queues = vec![HostQueue::new()];
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    let mut offset = 0u64;
    while offset < capacity {
        let batch_end = (offset + 64 * chunk).min(capacity);
        while offset < batch_end {
            let len = chunk.min(capacity - offset);
            queues[0].submit(
                id,
                HostCommand::Write {
                    range: ByteRange::new(offset, len),
                    hint: WriteHint::default(),
                },
                at,
            );
            offset += len;
            id += 1;
        }
        fleet.serve(&mut queues)?;
        for c in queues[0].drain_completions() {
            at = at.max(c.finish);
        }
    }
    Ok(at)
}

/// One churn session: `ops` seeded random single-page commands (7/8
/// writes, 1/8 reads) spread over the initiators, arrivals paced one
/// microsecond apart.  Returns the last completion finish, records
/// response times and counts host-visible errors.
#[allow(clippy::too_many_arguments)]
fn churn_session<D: HostInterface>(
    fleet: &mut D,
    queues: &mut [HostQueue],
    rng: &mut SimRng,
    latency: &mut LatencyStats,
    errors: &mut u64,
    logical_pages: u64,
    start: SimTime,
    ops: u64,
    id: &mut u64,
) -> Result<(SimTime, u64), DeviceError> {
    let page = 4096u64;
    let mut bytes = 0u64;
    for k in 0..ops {
        let lpn = rng.next_u64_below(logical_pages);
        let range = ByteRange::new(lpn * page, page);
        let command = if k % 8 == 7 {
            HostCommand::Read { range }
        } else {
            HostCommand::Write {
                range,
                hint: WriteHint::default(),
            }
        };
        bytes += page;
        queues[k as usize % INITIATORS].submit(*id, command, start + SimDuration::from_micros(k));
        *id += 1;
    }
    fleet.serve(queues)?;
    let mut last = start;
    for queue in queues.iter_mut() {
        for c in queue.drain_completions() {
            latency.record(c.response_time());
            if c.status != CompletionStatus::Ok {
                *errors += 1;
            }
            last = last.max(c.finish);
        }
    }
    Ok((last, bytes))
}

fn run_point(
    scale: Scale,
    devices: usize,
    threads: usize,
    stripe_kib: u64,
) -> Result<FleetPoint, DeviceError> {
    let config = FleetConfig::striped(device_config(scale), devices, stripe_kib * 1024)
        .with_threads(threads)
        .with_seed(SEED)
        .with_name("sweep");
    let mut fleet = Fleet::new(config).map_err(DeviceError::from)?;
    let capacity = fleet.capacity_bytes();
    let logical_pages = capacity / 4096;
    let fill_end = prefill(&mut fleet, capacity)?;

    // Churn scales with the array so every device sees constant work.
    let ops_total = (scale.count(512, 2048) * devices) as u64;
    let session = 256u64;
    let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
    let mut rng = SimRng::seed_from_u64(SEED ^ devices as u64);
    let mut latency = LatencyStats::new();
    let mut errors = 0u64;
    let mut at = fill_end + SimDuration::from_micros(100);
    let first = at;
    let mut bytes = 0u64;
    let mut id = 1_000_000u64;
    let wall_start = std::time::Instant::now();
    let mut issued = 0u64;
    while issued < ops_total {
        let batch = session.min(ops_total - issued);
        let (last, b) = churn_session(
            &mut fleet,
            &mut queues,
            &mut rng,
            &mut latency,
            &mut errors,
            logical_pages,
            at,
            batch,
            &mut id,
        )?;
        bytes += b;
        at = last + SimDuration::from_micros(10);
        issued += batch;
    }
    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let elapsed = at.saturating_since(first);
    Ok(FleetPoint {
        devices,
        threads,
        stripe_kib,
        bandwidth_mbps: bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12),
        p50_ms: latency.percentile(50.0).as_millis_f64(),
        p99_ms: latency.percentile(99.0).as_millis_f64(),
        wall_seconds,
        ops: ops_total,
    })
}

/// The rebuild-budget settings the degraded-mode scenario sweeps.  The
/// budgets are sized against the simulated array's foreground bandwidth
/// (single-digit MB per simulated second at these device geometries) so
/// the token bucket actually binds.
pub(crate) fn rebuild_budgets() -> Vec<(&'static str, RebuildQos)> {
    vec![
        ("unthrottled", RebuildQos::unthrottled()),
        ("4MBps", RebuildQos::limited(4 * 1024 * 1024)),
        ("1MBps", RebuildQos::limited(1024 * 1024)),
        (
            "1MBps+backoff",
            RebuildQos::limited(1024 * 1024).with_backoff(8, SimDuration::from_micros(500)),
        ),
    ]
}

/// The degraded-mode scenario at one budget setting: fill a 4-device
/// parity fleet, measure healthy foreground tails, fail member 1, replace
/// it, then run a *fixed* number of foreground epochs on a *fixed
/// cadence* (twice the mean healthy session span), admitting
/// watermark-ordered 32-page rebuild chunks in the idle window after each
/// session drains, as far as the QoS governor allows.  The foreground
/// arrival schedule is identical across budget settings, so survivor
/// percentiles and copy-back bandwidth compare apples to apples: a tight
/// budget fits its copies inside the idle window (tails near the degraded
/// baseline, little copied), an unthrottled one overflows it so the next
/// sessions queue behind copy traffic.  Every third epoch is a light
/// session (4 commands per initiator), which is where a pressure-backoff
/// policy — parked while the heavy sessions keep per-initiator depth at
/// the threshold — gets to make progress.
pub(crate) fn run_rebuild(
    scale: Scale,
    label: &'static str,
    qos: RebuildQos,
) -> Result<RebuildPoint, DeviceError> {
    let devices = 4usize;
    let config = FleetConfig::parity(device_config(scale), devices, 4096)
        .with_threads(devices)
        .with_seed(SEED)
        .with_name("rebuild");
    let mut fleet = Fleet::new(config).map_err(DeviceError::from)?;
    let capacity = fleet.capacity_bytes();
    let logical_pages = capacity / 4096;
    let fill_end = prefill(&mut fleet, capacity)?;

    let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
    let mut rng = SimRng::seed_from_u64(SEED ^ 0xDEAD);
    let mut id = 2_000_000u64;
    let session = 128u64;
    let mut errors = 0u64;

    // Healthy phase; its mean session span sets the degraded-phase cadence.
    let mut healthy = LatencyStats::new();
    let mut at = fill_end + SimDuration::from_micros(100);
    let healthy_start = at;
    let healthy_sessions = scale.count(4, 16) as u64;
    for _ in 0..healthy_sessions {
        let (last, _) = churn_session(
            &mut fleet,
            &mut queues,
            &mut rng,
            &mut healthy,
            &mut errors,
            logical_pages,
            at,
            session,
            &mut id,
        )?;
        at = last + SimDuration::from_micros(10);
    }
    // Cadence: 1.25x the mean healthy session span, leaving an idle
    // window of about a quarter-session per epoch — enough for a tightly
    // budgeted rebuild to hide in, not enough for an unthrottled one.
    let period = SimDuration::from_nanos(
        at.saturating_since(healthy_start).as_nanos() * 5 / (4 * healthy_sessions),
    );

    // Failure, replacement, and the budget under test.
    fleet.fail_device(1)?;
    fleet.replace_device(1)?;
    fleet.set_rebuild_qos(qos);
    let rebuild_start = at;

    // Fixed-cadence foreground epochs: session `n` arrives at
    // `rebuild_start + n * period` regardless of when the previous one
    // drained, so copy traffic that overflows an epoch's idle window
    // delays the epochs after it.  Chunks are admitted right after each
    // session drains — while the array is otherwise idle — as long as the
    // governor clears them on the spot, capped per epoch so even the
    // unthrottled setting interleaves rather than rebuilding the whole
    // device in one burst.
    let chunk_rows = 32u64;
    let rows = fleet.parity_rows().expect("parity fleet");
    let max_chunks_per_epoch = 8u64;
    let epochs = scale.count(12, 32) as u64;
    let mut degraded = LatencyStats::new();
    let mut copied = 0u64;
    let mut next_row = 0u64;
    let mut last_write = rebuild_start;
    for n in 0..epochs {
        let start = rebuild_start.saturating_add(SimDuration::from_nanos(period.as_nanos() * n));
        let ops = if n % 3 == 2 {
            INITIATORS as u64 * 4
        } else {
            session
        };
        let (last, _) = churn_session(
            &mut fleet,
            &mut queues,
            &mut rng,
            &mut degraded,
            &mut errors,
            logical_pages,
            start,
            ops,
            &mut id,
        )?;
        at = at.max(last) + SimDuration::from_micros(10);
        let mut admitted_this_epoch = 0u64;
        while next_row < rows && admitted_this_epoch < max_chunks_per_epoch {
            let chunk = chunk_rows.min(rows - next_row) * 4096;
            if fleet.preview_rebuild_admission(at, chunk) > at {
                break;
            }
            let (_, write) = fleet.rebuild_range(1, ByteRange::new(next_row * 4096, chunk), at)?;
            last_write = last_write.max(write.finish);
            copied += chunk;
            next_row += chunk / 4096;
            admitted_this_epoch += 1;
        }
    }
    let rebuilt = (next_row == rows).then(|| last_write.saturating_since(rebuild_start));
    let span = rebuilt.unwrap_or_else(|| at.saturating_since(rebuild_start));

    Ok(RebuildPoint {
        label,
        budget_mbps: qos.bytes_per_sec.map_or(0.0, |b| b as f64 / 1e6),
        backoff: qos.pressure_depth.is_some(),
        devices,
        healthy: LatencyPercentiles::of(&healthy),
        degraded: LatencyPercentiles::of(&degraded),
        rebuilt_mib: copied as f64 / (1024.0 * 1024.0),
        rebuild_mbps: copied as f64 / 1e6 / span.as_secs_f64().max(1e-12),
        rebuild_s: rebuilt.map(|d| d.as_secs_f64()),
        degraded_reads: fleet.degraded_reads(),
        host_errors: errors,
    })
}

/// The device counts the sweep covers.
pub(crate) const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The worker-thread counts the sweep covers.
pub(crate) const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// The stripe units the sweep covers, KiB.
pub(crate) const STRIPE_KIB: [u64; 2] = [4, 32];

/// Runs the full sweep: the scale-out grid plus the rebuild scenario.
///
/// At `Quick` scale the grid shrinks to devices {1, 4} × threads {1, 2} ×
/// stripe 4 KiB so tests stay fast.
pub(crate) fn run(scale: Scale) -> Result<FleetSweep, ExperimentError> {
    let mut points = Vec::new();
    let (devices, threads, stripes): (&[usize], &[usize], &[u64]) = match scale {
        Scale::Quick => (&[1, 4], &[1, 2], &STRIPE_KIB[..1]),
        Scale::Paper => (&DEVICE_COUNTS, &THREAD_COUNTS, &STRIPE_KIB),
    };
    for &d in devices {
        for &t in threads {
            for &s in stripes {
                points.push(run_point(scale, d, t, s)?);
            }
        }
    }
    let mut rebuild = Vec::new();
    for (label, qos) in rebuild_budgets() {
        rebuild.push(run_rebuild(scale, label, qos)?);
    }
    let sweep = FleetSweep { points, rebuild };
    check(&sweep)?;
    Ok(sweep)
}

/// The sweep's own acceptance: degraded serving is invisible to the host,
/// and the budget trades copy-back rate against survivor tails — the
/// setting that copies fastest also has the higher survivor p99.9.
/// Returns the settings it compared: the fastest and the slowest.
pub(crate) fn check(sweep: &FleetSweep) -> Result<(&RebuildPoint, &RebuildPoint), ExperimentError> {
    let fail = |what: String| {
        Err(ExperimentError::Check {
            experiment: "fleet_sweep",
            what,
        })
    };
    if let Some(r) = sweep.rebuild.iter().find(|r| r.host_errors > 0) {
        return fail(format!(
            "{}: degraded/rebuild serving surfaced {} host-visible errors",
            r.label, r.host_errors
        ));
    }
    let by_rate = |a: &&RebuildPoint, b: &&RebuildPoint| a.rebuild_mbps.total_cmp(&b.rebuild_mbps);
    let open = sweep.rebuild.iter().max_by(by_rate);
    let (Some(open), Some(tight)) = (open, sweep.rebuild.iter().min_by(by_rate)) else {
        return fail("the rebuild sweep is empty".to_string());
    };
    // The fastest and the slowest setting must each be alone at its rate:
    // a setting tied with either end could stand in for it, and then the
    // comparison below would read a tie as a trade.
    let tied = |end: &RebuildPoint| {
        let rate = |r: &&RebuildPoint| r.rebuild_mbps == end.rebuild_mbps;
        sweep.rebuild.iter().filter(rate).count() > 1
    };
    if let Some(end) = [open, tight].into_iter().find(|end| tied(end)) {
        return fail(format!(
            "{} ties another setting at {:.2} MB/s of copy-back: a tie is not a trade",
            end.label, end.rebuild_mbps
        ));
    }
    if open.rebuild_mbps <= tight.rebuild_mbps || open.degraded.p999_ms <= tight.degraded.p999_ms {
        return fail(format!(
            "budget did not move copy-back bandwidth and survivor p99.9 in opposite \
             directions: {} {:.2} MB/s p99.9 {:.3} ms vs {} {:.2} MB/s p99.9 {:.3} ms",
            open.label,
            open.rebuild_mbps,
            open.degraded.p999_ms,
            tight.label,
            tight.rebuild_mbps,
            tight.degraded.p999_ms
        ));
    }
    Ok((open, tight))
}

/// The sweep as a report: the scale-out grid and the rebuild settings.
/// Wall-clock seconds per grid point are timings, not table cells.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let sweep = run(scale)?;
    let grid = Table {
        name: "scale-out",
        ..Table::of(
            &sweep.points,
            &[
                (col("devices", "", 0), |p| p.devices.into()),
                (col("threads", "", 0), |p| p.threads.into()),
                (col("stripe", "KiB", 0), |p| p.stripe_kib.into()),
                (col("bandwidth", "MB/s", 2), |p| p.bandwidth_mbps.into()),
                (col("p50", "ms", 4), |p| p.p50_ms.into()),
                (col("p99", "ms", 4), |p| p.p99_ms.into()),
                (col("ops", "", 0), |p| p.ops.into()),
            ],
        )
    };
    let rebuild = Table {
        name: "rebuild",
        ..Table::of(
            &sweep.rebuild,
            &[
                (col("setting", "", 0), |r| r.label.into()),
                (col("budget", "MB/s", 1), |r| r.budget_mbps.into()),
                (col("backoff", "", 0), |r| r.backoff.into()),
                (col("devices", "", 0), |r| r.devices.into()),
                (col("healthy_p99", "ms", 4), |r| r.healthy.p99_ms.into()),
                (col("healthy_p999", "ms", 4), |r| r.healthy.p999_ms.into()),
                (col("degraded_p99", "ms", 4), |r| r.degraded.p99_ms.into()),
                (col("degraded_p999", "ms", 4), |r| r.degraded.p999_ms.into()),
                (col("rebuilt", "MiB", 1), |r| r.rebuilt_mib.into()),
                (col("rebuild", "MB/s", 2), |r| r.rebuild_mbps.into()),
                (col("time_to_rebuild", "s", 3), |r| {
                    r.rebuild_s.map_or_else(|| "".into(), Cell::from)
                }),
                (col("degraded_reads", "", 0), |r| r.degraded_reads.into()),
                (col("host_errors", "", 0), |r| r.host_errors.into()),
            ],
        )
    };
    let title = "Fleet sweep: striped scale-out and parity rebuild";
    let mut report = Report::new("fleet_sweep", title, scale, vec![grid, rebuild]);
    for p in &sweep.points {
        report.timings.push(format!(
            "devices {} threads {} stripe {} KiB: wall {:.4} s",
            p.devices, p.threads, p.stripe_kib, p.wall_seconds
        ));
    }
    let widest = sweep.points.iter().max_by_key(|p| p.devices);
    if let (Some(w), Some(n)) = (widest, sweep.points.iter().min_by_key(|p| p.devices)) {
        let gain = w.bandwidth_mbps / n.bandwidth_mbps;
        let (from, to) = (n.devices, w.devices);
        report = report.note(format!(
            "Striping {from} -> {to} devices scales aggregate bandwidth {gain:.2}x."
        ));
    }
    let (open, tight) = check(&sweep)?;
    Ok(report.note(format!(
        "On the degraded parity fleet, opening the rebuild budget {} -> {} raises copy-back \
         {:.2} -> {:.2} MB/s and survivor p99.9 {:.3} -> {:.3} ms: the QoS trade in one line.",
        tight.label,
        open.label,
        tight.rebuild_mbps,
        open.rebuild_mbps,
        tight.degraded.p999_ms,
        open.degraded.p999_ms
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striping_scales_aggregate_bandwidth() {
        let one = run_point(Scale::Quick, 1, 1, 4).unwrap();
        let four = run_point(Scale::Quick, 4, 1, 4).unwrap();
        let scaling = four.bandwidth_mbps / one.bandwidth_mbps;
        assert!(
            scaling > 2.0,
            "4-wide striping scaled sim bandwidth only {scaling:.2}x \
             ({:.1} -> {:.1} MB/s)",
            one.bandwidth_mbps,
            four.bandwidth_mbps
        );
    }

    #[test]
    fn thread_count_does_not_change_sim_results() {
        let t1 = run_point(Scale::Quick, 4, 1, 4).unwrap();
        let t2 = run_point(Scale::Quick, 4, 2, 4).unwrap();
        assert_eq!(t1.bandwidth_mbps, t2.bandwidth_mbps);
        assert_eq!(t1.p50_ms, t2.p50_ms);
        assert_eq!(t1.p99_ms, t2.p99_ms);
    }

    #[test]
    fn rebuild_serves_degraded_with_zero_errors_and_makes_progress() {
        let point = run_rebuild(Scale::Quick, "unthrottled", RebuildQos::unthrottled()).unwrap();
        assert_eq!(point.host_errors, 0, "degraded serving surfaced errors");
        assert!(point.degraded_reads > 0, "no reads hit the failed member");
        assert!(point.rebuilt_mib > 0.0);
        assert!(point.rebuild_mbps > 0.0);
    }

    #[test]
    fn rebuild_budget_trades_copyback_bandwidth_against_survivor_tails() {
        let open = run_rebuild(Scale::Quick, "unthrottled", RebuildQos::unthrottled()).unwrap();
        let tight = run_rebuild(Scale::Quick, "1MBps", RebuildQos::limited(1024 * 1024)).unwrap();
        assert_eq!(open.host_errors + tight.host_errors, 0);
        assert!(
            open.rebuild_mbps > tight.rebuild_mbps,
            "unthrottled copy-back {:.2} MB/s not above throttled {:.2} MB/s",
            open.rebuild_mbps,
            tight.rebuild_mbps
        );
        assert!(
            open.degraded.p999_ms > tight.degraded.p999_ms,
            "unthrottled survivor p99.9 {:.3} ms not above throttled {:.3} ms",
            open.degraded.p999_ms,
            tight.degraded.p999_ms
        );
    }

    #[test]
    fn budgets_that_do_not_separate_fail_the_check() {
        let p = LatencyPercentiles::default();
        let point = |label, rebuild_mbps| RebuildPoint {
            label,
            budget_mbps: 0.0,
            backoff: false,
            devices: 4,
            healthy: p,
            degraded: p,
            rebuilt_mib: 1.0,
            rebuild_mbps,
            rebuild_s: None,
            degraded_reads: 0,
            host_errors: 0,
        };
        let sweep = FleetSweep {
            points: Vec::new(),
            rebuild: vec![point("open", 4.0), point("tight", 1.0)],
        };
        match check(&sweep) {
            Err(ExperimentError::Check { experiment, what }) => {
                assert_eq!(experiment, "fleet_sweep");
                assert!(what.contains("open 4.00 MB/s"), "{what}");
            }
            other => panic!("expected a check failure, got {other:?}"),
        }
        // Two settings tied at the fastest rate: each has a higher tail than
        // the slowest, so whichever one the pick lands on reads as a trade.
        let with_tail = |label, rebuild_mbps, p999_ms| RebuildPoint {
            degraded: LatencyPercentiles { p999_ms, ..p },
            ..point(label, rebuild_mbps)
        };
        let tied = FleetSweep {
            points: Vec::new(),
            rebuild: vec![
                with_tail("open", 3.03, 143.2),
                with_tail("4MBps", 3.03, 140.0),
                with_tail("tight", 0.54, 134.6),
            ],
        };
        match check(&tied) {
            Err(ExperimentError::Check { what, .. }) => {
                assert!(what.contains("ties another setting at 3.03 MB/s"), "{what}");
            }
            other => panic!("expected a check failure on a tie, got {other:?}"),
        }
        let empty = FleetSweep {
            points: Vec::new(),
            rebuild: Vec::new(),
        };
        assert!(matches!(check(&empty), Err(ExperimentError::Check { .. })));
    }

    #[test]
    fn quick_sweep_covers_the_reduced_grid() {
        let sweep = run(Scale::Quick).unwrap();
        assert_eq!(sweep.points.len(), 4);
        for p in &sweep.points {
            assert!(p.bandwidth_mbps > 0.0);
            assert!(p.ops > 0);
        }
        assert_eq!(sweep.rebuild.len(), 4);
        for r in &sweep.rebuild {
            assert_eq!(r.host_errors, 0, "{}: host-visible errors", r.label);
        }
    }
}
