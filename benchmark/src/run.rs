//! The untraced run: set up, warm up, then time fixed-size segments and
//! report the end-to-end metrics with the in-run correctness checks.

use std::time::Instant;

use crate::drive::{Counts, Driver, Tally, Target};
use crate::report::Results;
use crate::stats::{highest_supported_percentile, median};
use crate::trace::SpanLog;
use crate::workloads::{Drive, Scale, Workload, LOAD70, MQ_SATURATION_CMDS_PER_SIM_S};

/// Host seconds one timed segment is sized to take on the reference
/// machine; `--seconds` buys `seconds / SEGMENT_TARGET_S` segments.
const SEGMENT_TARGET_S: f64 = 1.25;

/// Times `setup_s` is measured in one run (the median is reported).
const SETUPS: usize = 5;

pub fn segments_for(seconds: u64) -> u32 {
    ((seconds as f64 / SEGMENT_TARGET_S).round() as u32).max(3)
}

/// What one timed segment measured.
#[derive(Clone, Debug)]
pub struct Segment {
    pub cmds: u64,
    pub timed_s: f64,
    pub counts: Counts,
    pub host_pages_written: u64,
    /// Open loop: mean over the segment's sessions of how far the last
    /// completion trails the last arrival.
    pub backlog_ms: f64,
    pub fingerprint: String,
}

impl Segment {
    pub fn write_amp(&self) -> f64 {
        self.counts.programs as f64 / self.host_pages_written.max(1) as f64
    }

    pub fn ns_per_cmd(&self) -> f64 {
        self.timed_s * 1e9 / self.cmds as f64
    }
}

/// Construct + prefill + warm-up.  Returns the warmed driver, its tally
/// reset, and the host seconds the whole thing took.
pub fn set_up(w: &Workload, threads: usize, seed: u64) -> (Driver, f64) {
    let begin = Instant::now();
    let driver = set_up_over(w, Target::build(w, threads), seed);
    (driver, begin.elapsed().as_secs_f64())
}

/// [`set_up`] over a target built by the caller (a lower boundary): the
/// same prefill, the same warm-up commands.
pub fn set_up_over(w: &Workload, target: Target, seed: u64) -> Driver {
    let mut driver = Driver::over(w, target, seed);
    let session = w.session_cmds();
    for _ in 0..w.warmup_cmds() / session {
        driver.run_batch(session as usize, 0, None);
    }
    driver.reset_tally();
    driver
}

/// Drives `cmds` commands in sessions of `session` and returns what the
/// window measured; the driver's tally keeps accumulating across calls.
pub fn run_window(
    driver: &mut Driver,
    cmds: u64,
    session: u64,
    index: u32,
    mut spans: Option<&mut SpanLog>,
) -> Segment {
    let before = driver.target.counts();
    let tally_before = window_marks(&driver.tally);
    for _ in 0..cmds / session {
        driver.run_batch(session as usize, index, spans.as_deref_mut());
    }
    let t = &driver.tally;
    let sessions = t.sessions - tally_before.sessions;
    Segment {
        cmds: t.attempted - tally_before.attempted,
        timed_s: (t.timed - tally_before.timed).as_secs_f64(),
        counts: driver.target.counts().since(&before),
        host_pages_written: t.host_pages_written - tally_before.host_pages_written,
        backlog_ms: (t.backlog_ns - tally_before.backlog_ns) as f64 / 1e6 / sessions.max(1) as f64,
        fingerprint: t.fingerprint.hex(),
    }
}

/// The cumulative tally fields a window is the difference of.
struct Marks {
    attempted: u64,
    timed: std::time::Duration,
    host_pages_written: u64,
    backlog_ns: u64,
    sessions: u64,
}

fn window_marks(t: &Tally) -> Marks {
    Marks {
        attempted: t.attempted,
        timed: t.timed,
        host_pages_written: t.host_pages_written,
        backlog_ns: t.backlog_ns,
        sessions: t.sessions,
    }
}

pub fn run_segment(
    driver: &mut Driver,
    w: &Workload,
    index: u32,
    spans: Option<&mut SpanLog>,
) -> Segment {
    run_window(driver, w.segment_cmds(), w.session_cmds(), index, spans)
}

/// The workload parameters every results file carries.
pub fn describe(w: &Workload, results: &mut Results) {
    let g = w.geometry();
    results.param("scale", format!("{:?}", w.scale));
    results.param("elements", g.elements());
    results.param("blocks_per_element", g.blocks_per_element());
    results.param("pages_per_block", g.pages_per_block);
    results.param("overprovisioning", w.overprovisioning());
    results.param("initiators", w.initiators());
    results.param("threads", w.threads());
    results.param("drive", format!("{:?}", w.drive()));
    results.param("session_cmds", w.session_cmds());
    results.param("warmup_cmds", w.warmup_cmds());
    results.param("segment_cmds", w.segment_cmds());
    if let Some(budget) = w.map_budget() {
        results.param("map_budget_entries", budget);
    }
    if w.is_fleet() {
        results.param("fleet_devices", w.fleet_devices());
    }
    results.param(
        "load70_cmds_per_sim_s",
        LOAD70 * MQ_SATURATION_CMDS_PER_SIM_S,
    );
    results.param("saturation_cmds_per_sim_s", MQ_SATURATION_CMDS_PER_SIM_S);
}

/// The checks every driven window must pass, traced or not.
pub fn check_completions(tally: &Tally, results: &mut Results) {
    results.check(
        "no_serve_errors",
        tally.first_error.is_none(),
        tally.first_error.clone().unwrap_or_default(),
    );
    results.check(
        "one_completion_per_command",
        tally.malformed == 0,
        format!(
            "{} of {} completions duplicated, unknown or with arrival <= start <= finish violated",
            tally.malformed, tally.attempted
        ),
    );
}

/// The first and second halves of the timed segments must agree: the run
/// measured a levelled device, not the tail of its warm-up.  (Halves, not
/// the first and last segment alone: under a finite map budget one
/// segment's write amplification wanders by a few percent either way.)
pub fn check_levelled(w: &Workload, segments: &[Segment], results: &mut Results) {
    // Smoke segments are a fraction of the length, so their averages are
    // that much noisier.
    let tolerance = match w.scale {
        Scale::Full => 0.05,
        Scale::Smoke => 0.20,
    };
    let half = (segments.len() / 2).max(1);
    let (early, late) = (&segments[..half], &segments[segments.len() - half..]);
    let mean = |segs: &[Segment], f: &dyn Fn(&Segment) -> f64| {
        segs.iter().map(f).sum::<f64>() / segs.len() as f64
    };
    let (a, b) = (
        mean(early, &Segment::write_amp),
        mean(late, &Segment::write_amp),
    );
    results.check(
        "write_amp_levelled",
        (a - b).abs() / a < tolerance,
        format!("per-segment write amplification: first half {a:.4}, second half {b:.4}"),
    );
    if w.map_budget().is_some() {
        let hit = |s: &Segment| s.counts.map_hit_rate();
        let (a, b) = (mean(early, &hit), mean(late, &hit));
        results.check(
            "map_hit_rate_levelled",
            (a - b).abs() < 0.02,
            format!("per-segment map hit rate: first half {a:.4}, second half {b:.4}"),
        );
    }
    if matches!(w.drive(), Drive::Open { .. }) {
        let backlog = |s: &Segment| s.backlog_ms;
        let (a, b) = (mean(early, &backlog), mean(late, &backlog));
        results.check(
            "no_backlog_growth",
            b <= 1.5 * a + 1.0,
            format!("mean session backlog: first half {a:.3} ms, second half {b:.3} ms"),
        );
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `Fleet::scrub()` must find the array consistent.  `None` on a device
/// that is not a fleet.
pub fn check_scrub(target: &Target, results: &mut Results) -> Option<bool> {
    let Target::Fleet(fleet) = target else {
        return None;
    };
    let clean = fleet.scrub().is_some_and(|r| r.is_clean());
    results.check("fleet_scrub_clean", clean, "Fleet::scrub()".to_string());
    Some(clean)
}

/// The simulated-clock metrics of everything the tally has seen.
fn sim_metrics(tally: &Tally, programs: u64, results: &mut Results) {
    let window_s = tally.sim_window_ns() as f64 / 1e9;
    results.set("sim_mb_s", tally.host_bytes as f64 / 1e6 / window_s);
    let samples = tally.latency.len();
    results.set("sim_lat_p50_us", tally.latency.quantile_nanos(0.5) / 1e3);
    results.set_noted(
        "sim_lat_p999_us",
        tally.latency.quantile_nanos(0.999) / 1e3,
        &format!("{samples} samples"),
    );
    results.check(
        "p999_has_ten_samples_beyond",
        highest_supported_percentile(samples).is_some_and(|p| p >= 0.999),
        format!("{samples} latency samples"),
    );
    results.set(
        "write_amp",
        programs as f64 / tally.host_pages_written.max(1) as f64,
    );
    results.set(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    results.attempted = tally.attempted;
    results.failed = tally.failed;
}

/// One whole untraced run of `w`.
pub fn run_timed(w: &Workload, seed: u64, segments: u32) -> Results {
    let mut results = Results::default();
    describe(w, &mut results);

    // Set-up is measured several times; each builds the identical device,
    // so the last one is as good as any to time the segments on.
    let mut setups = Vec::new();
    let mut driver = None;
    let setups_wanted = match w.scale {
        Scale::Full => SETUPS,
        Scale::Smoke => 1,
    };
    for _ in 0..setups_wanted {
        drop(driver.take());
        let (d, setup_s) = set_up(w, w.threads(), seed);
        setups.push(setup_s);
        driver = Some(d);
    }
    let mut driver = driver.expect("at least one set-up");

    let before = driver.target.counts();
    let segs: Vec<Segment> = (0..segments)
        .map(|i| run_segment(&mut driver, w, i, None))
        .collect();
    let total = driver.target.counts().since(&before);

    results.set_median(
        "host_cmds_per_s",
        segs.iter().map(|s| s.cmds as f64 / s.timed_s).collect(),
    );
    results.set_median(
        "host_ns_per_flash_op",
        segs.iter()
            .map(|s| s.timed_s * 1e9 / s.counts.flash_ops.max(1) as f64)
            .collect(),
    );
    results.set_median("setup_s", setups);
    sim_metrics(&driver.tally, total.programs, &mut results);
    results.fingerprints = segs.iter().map(|s| s.fingerprint.clone()).collect();

    check_completions(&driver.tally, &mut results);
    check_levelled(w, &segs, &mut results);
    check_scrub(&driver.target, &mut results);
    results.param(
        "segment_seconds_median",
        median(&segs.iter().map(|s| s.timed_s).collect::<Vec<_>>()),
    );
    drop(driver);
    results.set("peak_rss_mb", peak_rss_mb());
    results
}
