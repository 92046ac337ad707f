//! The traced run: the same stream driven at the device, at the boundaries
//! beneath it and through the probes, giving every per-layer metric.
//!
//! Nothing here reaches inside the program.  Times come from spans around
//! calls to public functions, counts from the public stats accessors, and a
//! layer's self time is the time at its boundary minus the time at the
//! boundaries beneath it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ossd_ftl::FtlStats;
use ossd_gc::analytic_greedy_wa;
use ossd_ssd::SchedulerKind;
use ossd_telemetry::{BlameRecord, Recorder, RecorderConfig};

use crate::drive::{Counts, Driver, Target};
use crate::gen::{Cmd, Stream};
use crate::lower::Lowered;
use crate::probes;
use crate::report::{Results, PER_LAYER};
use crate::run::{
    check_completions, check_scrub, describe, run_segment, run_window, set_up, set_up_over, Segment,
};
use crate::stats::{highest_supported_percentile, median};
use crate::trace::SpanLog;
use crate::workloads::{Drive, Kind, Scale, Workload, LOAD70, MQ_SATURATION_CMDS_PER_SIM_S};

/// Segments a traced run drives at each boundary: fewer than a timed run,
/// because it drives them four or five times over.
pub fn traced_segments(w: &Workload, seconds: u64) -> u32 {
    // The fleet is driven at five boundaries and configurations, so it
    // affords one segment at each.
    if w.is_fleet() {
        1
    } else {
        ((seconds as f64 / 6.5).round() as u32).clamp(1, 4)
    }
}

fn drive_segments(
    driver: &mut Driver,
    w: &Workload,
    k: u32,
    mut spans: Option<&mut SpanLog>,
) -> (Vec<Segment>, Counts) {
    let before = driver.target.counts();
    let segs = (0..k)
        .map(|i| run_segment(driver, w, i, spans.as_deref_mut()))
        .collect();
    (segs, driver.target.counts().since(&before))
}

fn same_fingerprints(a: &[Segment], b: &[Segment]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.fingerprint == y.fingerprint)
}

fn last_fingerprint(segs: &[Segment]) -> &str {
    segs.last().map_or("", |s| s.fingerprint.as_str())
}

fn median_ns_per_cmd(segs: &[Segment]) -> f64 {
    median(&segs.iter().map(Segment::ns_per_cmd).collect::<Vec<_>>())
}

fn lowered(driver: &Driver) -> &Lowered {
    match &driver.target {
        Target::Lowered(l) => l,
        _ => unreachable!("driver was built over a lowered target"),
    }
}

/// What one boundary beneath the device measured over the timed window.
struct Level {
    member_ns_per_cmd: f64,
    plan_ns_per_cmd: f64,
    counts: Counts,
    stats: Vec<FtlStats>,
    fingerprint: String,
    write_ns_per_page: f64,
    read_ns_per_page: f64,
}

/// Sets `target` up like the device, drives the same `k` segments (checking
/// every completion), and reports the time spent inside its members.
fn drive_level(
    w: &Workload,
    target: Lowered,
    seed: u64,
    k: u32,
    timer_ns: f64,
    results: &mut Results,
) -> Level {
    let mut driver = set_up_over(w, Target::Lowered(Box::new(target)), seed);
    let (member0, plan0) = {
        let l = lowered(&driver);
        (l.member_time, l.plan_time)
    };
    let (reads0, writes0) = (
        lowered(&driver).sampled_reads,
        lowered(&driver).sampled_writes,
    );
    let (_, counts) = drive_segments(&mut driver, w, k, None);
    check_completions(&driver.tally, results);
    let l = lowered(&driver);
    let cmds = driver.tally.attempted as f64;
    let per_page = |now: crate::lower::Sampled, then: crate::lower::Sampled| {
        let calls = (now.calls - then.calls) as f64;
        let pages = (now.pages - then.pages) as f64;
        if pages == 0.0 {
            0.0
        } else {
            (((now.elapsed - then.elapsed).as_nanos() as f64 - calls * timer_ns) / pages).max(0.0)
        }
    };
    Level {
        member_ns_per_cmd: (l.member_time - member0).as_nanos() as f64 / cmds,
        plan_ns_per_cmd: (l.plan_time - plan0).as_nanos() as f64 / cmds,
        counts,
        stats: l.member_stats().iter().map(|s| s.ftl).collect(),
        fingerprint: driver.tally.fingerprint.hex(),
        write_ns_per_page: per_page(l.sampled_writes, writes0),
        read_ns_per_page: per_page(l.sampled_reads, reads0),
    }
}

fn device_ftl_stats(target: &Target) -> Vec<FtlStats> {
    match target {
        Target::Ssd(d) => vec![d.ftl_stats()],
        Target::Fleet(f) => (0..f.devices())
            .map(|i| f.device_ftl_stats(i).expect("no member is failed"))
            .collect(),
        Target::Lowered(l) => l.member_stats().iter().map(|s| s.ftl).collect(),
    }
}

/// The first commands of the workload's stream, for probes that want its
/// address pattern.
fn sample_cmds(w: &Workload, logical_pages: u64, seed: u64, n: usize) -> Vec<Cmd> {
    let mut stream = Stream::new(seed, w.mix(logical_pages), logical_pages);
    (0..n).map(|_| stream.next_cmd()).collect()
}

/// Attaches a recorder per device, and attribution.
fn attach_telemetry(target: &mut Target) -> Vec<Arc<Mutex<Recorder>>> {
    let config = RecorderConfig {
        ring_capacity: 1 << 20,
        ..RecorderConfig::default()
    };
    match target {
        Target::Ssd(ssd) => {
            let (handle, recorder) = Recorder::shared(config);
            ssd.set_telemetry(handle);
            ssd.enable_attribution();
            vec![recorder]
        }
        Target::Fleet(fleet) => {
            let recorders = fleet.attach_recorders(config);
            fleet.enable_attribution();
            recorders
        }
        Target::Lowered(_) => unreachable!("telemetry attaches to the real device"),
    }
}

fn take_blame(target: &mut Target) -> Vec<BlameRecord> {
    match target {
        Target::Ssd(ssd) => ssd.take_blame_records(),
        Target::Fleet(fleet) => fleet
            .take_blame_records()
            .into_iter()
            .map(|(_, r)| r)
            .collect(),
        Target::Lowered(_) => Vec::new(),
    }
}

/// One whole traced run of `w`.  Every per-layer metric is reported; one
/// whose layer does no work on this workload reports 0.
pub fn run_traced(w: &Workload, seed: u64, k: u32) -> (Results, SpanLog) {
    let mut results = Results::default();
    describe(w, &mut results);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = SpanLog::new();
    let timer_ns = probes::timer_overhead_ns();
    results.param("timer_overhead_ns", timer_ns);

    // The device itself, twice: untraced for reference and with spans, the
    // two taking turns segment by segment so that neither has the machine
    // in a better state than the other.
    let (mut ref_driver, _) = set_up(w, w.threads(), seed);
    let (mut driver, _) = set_up(w, w.threads(), seed);
    let before = driver.target.counts();
    let (mut ref_segs, mut segs) = (Vec::new(), Vec::new());
    for i in 0..k {
        ref_segs.push(run_segment(&mut ref_driver, w, i, None));
        segs.push(run_segment(&mut driver, w, i, Some(&mut spans)));
    }
    let window = driver.target.counts().since(&before);
    drop(ref_driver);
    let tally = driver.tally.clone();
    let top_ns = spans.total_ns("Ssd::submit batch")
        + spans.total_ns("Ssd::serve")
        + spans.total_ns("Fleet::serve");
    let cmds = tally.attempted as f64;
    let device_stats = device_ftl_stats(&driver.target);
    results.fingerprints = segs.iter().map(|s| s.fingerprint.clone()).collect();
    results.attempted = tally.attempted;
    results.failed = tally.failed;
    check_completions(&tally, &mut results);
    results.check(
        "traced_fingerprint_equals_untraced",
        same_fingerprints(&segs, &ref_segs),
        format!(
            "traced {} untraced {}",
            last_fingerprint(&segs),
            last_fingerprint(&ref_segs)
        ),
    );
    // What tracing costs: short windows on the one traced device, with and
    // without spans in turn.  (Two devices differ by more than that through
    // memory placement alone, whichever of them is traced.)
    let (mut with_spans, mut without) = (Vec::new(), Vec::new());
    let overhead_cmds = (w.segment_cmds() / 8 / w.session_cmds()).max(1) * w.session_cmds();
    for _ in 0..4 {
        let plain = run_window(&mut driver, overhead_cmds, w.session_cmds(), k, None);
        without.push(plain.ns_per_cmd());
        let traced = run_window(
            &mut driver,
            overhead_cmds,
            w.session_cmds(),
            k,
            Some(&mut spans),
        );
        with_spans.push(traced.ns_per_cmd());
    }
    let overhead = median(&with_spans) / median(&without);
    m.insert("trace_overhead_ratio", overhead);
    results.advise(
        "trace_overhead_within_10_percent",
        overhead <= 1.10,
        format!("median of 4 traced windows / median of 4 untraced windows = {overhead:.4}"),
    );

    // Counts at the device boundary.
    let host_pages = tally.host_pages_written.max(1) as f64;
    let write_amp = window.programs as f64 / host_pages;
    let sim_window_s = tally.sim_window_ns() as f64 / 1e9;
    let elements = w.geometry().elements() as f64
        * if w.is_fleet() {
            w.fleet_devices() as f64
        } else {
            1.0
        };
    m.insert("ssd.peak_queued", window.peak_queued as f64);
    m.insert("ssd.flash_ops_per_cmd", window.flash_ops as f64 / cmds);
    m.insert(
        "ssd.element_util",
        window.element_busy_ns as f64 / 1e9 / (sim_window_s * elements),
    );
    m.insert(
        "gc.moved_per_erase",
        window.gc_moved as f64 / window.gc_erased.max(1) as f64,
    );
    m.insert("gc.erases_per_kcmd", window.erases as f64 / cmds * 1e3);
    let busy = (window.host_busy_ns + window.cleaning_busy_ns + window.other_busy_ns).max(1);
    m.insert(
        "gc.stall_share",
        window.cleaning_busy_ns as f64 / busy as f64,
    );
    if w.kind == Kind::Qd1GcChurn {
        // The closed form is for uniform random single-page overwrites under
        // greedy cleaning; this is the one workload close to that.
        m.insert(
            "gc.wa_vs_analytic",
            write_amp / analytic_greedy_wa(1.0 - w.overprovisioning()),
        );
    }
    m.insert("flash.programs_per_cmd", window.programs as f64 / cmds);
    m.insert("flash.reads_per_cmd", window.page_reads as f64 / cmds);
    m.insert("flash.erases_per_kcmd", window.erases as f64 / cmds * 1e3);
    m.insert(
        "ftl.pages_per_cmd",
        (window.device_pages_written + window.device_pages_read) as f64 / cmds,
    );
    let lookups = window.map_hits + window.map_misses;
    if w.map_budget().is_some() {
        m.insert("mapcache.hit_rate", window.map_hit_rate());
        m.insert(
            "mapcache.map_reads_per_kcmd",
            window.map_reads as f64 / cmds * 1e3,
        );
        m.insert(
            "mapcache.map_writes_per_kcmd",
            window.map_writes as f64 / cmds * 1e3,
        );
        let evictions = (window.evictions_clean + window.evictions_dirty).max(1);
        m.insert(
            "mapcache.dirty_evict_share",
            window.evictions_dirty as f64 / evictions as f64,
        );
    }
    let config = w.ssd_config();
    let reliability = config.reliability;
    if !reliability.is_none() {
        let reads = window.page_reads.max(1) as f64;
        m.insert(
            "reliability.retries_per_kread",
            window.read_retries as f64 / reads * 1e3,
        );
        m.insert(
            "reliability.uncorrectable_per_mread",
            window.uncorrectable as f64 / reads * 1e6,
        );
    }
    let session_cmds = match w.drive() {
        Drive::Closed1 => 1,
        _ => w.session_cmds(),
    };
    m.insert("block.session_cmds", session_cmds as f64);

    // Times at the device boundary, from the spans.
    let top_incl = top_ns as f64 / cmds;
    let queue_io = tally.queue_io.as_nanos() as f64 / cmds;
    let arbitrate = tally.arbitrate.as_nanos() as f64 / cmds;
    let complete = tally.complete_session.as_nanos() as f64 / cmds;
    m.insert("block.arbitrate_ns_per_cmd", arbitrate);
    m.insert("block.self_ns_per_cmd", queue_io + arbitrate + complete);

    // The boundaries beneath the device.
    let mut ssd_incl = top_incl;
    let mut fleet_self = 0.0;
    let mut incl_base = top_incl;
    if w.is_fleet() {
        // Spans nest only on one thread, so the fleet's inclusive time is
        // taken from a single-threaded run; the reference run on two
        // threads gives the speed-up, and must simulate the same thing.
        let (mut serial, _) = set_up(w, 1, seed);
        let (serial_segs, _) = drive_segments(&mut serial, w, k, None);
        results.check(
            "threads_1_and_2_same_fingerprint",
            same_fingerprints(&serial_segs, &ref_segs),
            format!(
                "1 thread {} 2 threads {}",
                last_fingerprint(&serial_segs),
                last_fingerprint(&ref_segs)
            ),
        );
        // Queue submit and poll are the block layer's, not the fleet's.
        let serial_queue_io = serial.tally.queue_io.as_nanos() as f64 / cmds;
        let serial_incl = median_ns_per_cmd(&serial_segs) - serial_queue_io;
        m.insert("fleet.incl_ns_per_cmd", serial_incl);
        m.insert(
            "fleet.thread_speedup",
            median_ns_per_cmd(&serial_segs) / median_ns_per_cmd(&ref_segs),
        );
        drop(serial);

        let members = drive_level(w, Lowered::member_ssds(w), seed, k, timer_ns, &mut results);
        results.check(
            "member_replay_matches_fleet",
            members.fingerprint == tally.fingerprint.hex() && members.stats == device_stats,
            format!(
                "members {} fleet {}",
                members.fingerprint,
                tally.fingerprint.hex()
            ),
        );
        ssd_incl = members.member_ns_per_cmd;
        fleet_self = (serial_incl - ssd_incl).max(0.0);
        incl_base = serial_incl;
        m.insert("fleet.self_ns_per_cmd", fleet_self);
        m.insert("fleet.plan_ns_per_cmd", members.plan_ns_per_cmd);
        m.insert("fleet.fanout_per_cmd", tally.fanout as f64 / cmds);
        m.insert(
            "fleet.parity_tax",
            window.device_pages_written as f64 / host_pages,
        );
        if let Some(clean) = check_scrub(&driver.target, &mut results) {
            m.insert("fleet.scrub_clean", clean as u8 as f64);
        }
    }
    m.insert("ssd.incl_ns_per_cmd", ssd_incl);

    let ftl = drive_level(w, Lowered::ftls(w, 1), seed, k, timer_ns, &mut results);
    let exact = ftl.stats == device_stats;
    m.insert("ftl.incl_ns_per_cmd", ftl.member_ns_per_cmd);
    m.insert("ftl.write_ns_per_page", ftl.write_ns_per_page);
    m.insert("ftl.read_ns_per_page", ftl.read_ns_per_page);
    m.insert("ftl.replay_exact", exact as u8 as f64);
    // Wherever the device dispatches in arrival order the replayed FTL must
    // end in the device's exact state; SWTF at depth 32 reorders, so there
    // the replay (and everything subtracted from it) is approximate.
    let reorders = config.scheduler == SchedulerKind::Swtf;
    results.check(
        "ftl_replay_exact",
        exact || reorders,
        format!(
            "replayed FtlStats {} the device's{}",
            if exact { "equal" } else { "differ from" },
            if reorders {
                " (device reorders: replay is approximate)"
            } else {
                ""
            }
        ),
    );

    if w.map_budget().is_some() {
        let b4x = drive_level(w, Lowered::ftls(w, 4), seed, k, timer_ns, &mut results);
        let (base, wide) = (ftl.counts.map_hit_rate(), b4x.counts.map_hit_rate());
        m.insert("mapcache.hit_rate.b4x", wide);
        results.check(
            "map_budget_4x_hits_more",
            wide >= base + 0.10,
            format!("same page sequence: hit rate {base:.4} at 1x budget, {wide:.4} at 4x"),
        );
    }

    // The probes, at the counts of the traced window.
    let geometry = w.geometry();
    let flash = probes::flash_array(geometry, window.programs);
    let gc = probes::victim_index(
        geometry,
        window.moved as f64 / window.erases.max(1) as f64,
        window.erases,
        timer_ns,
    );
    m.insert("flash.program_ns", flash.program_ns);
    m.insert("flash.invalidate_ns", flash.invalidate_ns);
    m.insert("flash.erase_ns", flash.erase_ns);
    m.insert("gc.pick_ns", gc.pick_ns);
    m.insert("gc.index_update_ns", gc.index_update_ns);
    // Every program supersedes a page (the device is full), every moved
    // page is invalidated in its victim, every erase is one pick.
    let index_updates = (2 * window.programs + window.erases) as f64;
    let gc_ns = (gc.pick_ns * window.erases as f64 + gc.index_update_ns * index_updates) / cmds;
    let flash_ns = (flash.program_ns * window.programs as f64
        + flash.invalidate_ns * window.programs as f64
        + flash.erase_ns * window.erases as f64
        + flash.read_ns * window.page_reads as f64)
        / cmds;
    let logical_pages = driver.target.logical_pages();
    let mut map_ns = 0.0;
    if let Some(budget) = w.map_budget() {
        let sample = sample_cmds(w, logical_pages, seed, 1 << 18);
        let map = probes::map_cache(budget, &sample, lookups);
        m.insert("mapcache.lookup_ns", map.lookup_ns);
        m.insert("mapcache.miss_ns", map.miss_ns);
        map_ns = (map.lookup_ns * lookups as f64 + map.miss_ns * window.map_misses as f64) / cmds;
    }
    let mut reliability_ns = 0.0;
    if !reliability.is_none() {
        let decode_ns = probes::reliability_decode(&reliability, window.page_reads);
        m.insert("reliability.decode_ns", decode_ns);
        reliability_ns = decode_ns * window.page_reads as f64 / cmds;
    }
    let ftl_self = ftl.member_ns_per_cmd - gc_ns - flash_ns - map_ns - reliability_ns;
    m.insert("ftl.self_ns_per_cmd", ftl_self.max(0.0));

    // The simulator core under the controller: three engine events per
    // command the device serves (checked against the engine's own counters
    // in the telemetry window below).
    let device_cmds_per_cmd = if w.is_fleet() {
        tally.fanout as f64 / cmds
    } else {
        1.0
    };
    let (engine_session, gap_ns) = match w.drive() {
        Drive::Closed1 => (1, 0),
        Drive::Open { rate } => (w.session_cmds(), (1e9 / rate) as u64),
        Drive::Burst => (
            (w.session_cmds() as f64 * device_cmds_per_cmd / w.fleet_devices() as f64) as u64,
            0,
        ),
    };
    let mean_queued = (tally.queue_wait_ns as f64 / tally.sim_window_ns().max(1) as f64).max(1.0);
    let in_flight = mean_queued as u64 + config.queue_depth as u64;
    m.insert(
        "sim.event_ns",
        probes::event_queue(2 * in_flight, 3 * tally.attempted),
    );
    let engine_ns = probes::engine_per_event(engine_session, gap_ns, tally.attempted);
    m.insert("sim.engine_ns_per_event", engine_ns);
    let pick_ns = probes::scheduler_pick(
        config.scheduler,
        geometry.elements() as usize,
        mean_queued as usize,
        tally.attempted,
    );
    m.insert("ssd.sched_pick_ns", pick_ns);
    results.param("mean_commands_queued", mean_queued);

    if let Some(geom) = w.parity_geometry() {
        let routing = probes::fleet_routing(geom, &sample_cmds(w, logical_pages, seed, 1 << 17));
        results.param("probe.parity_plan_ns", routing.plan_ns);
        results.param("probe.parity_geometry_ns", routing.geometry_ns);
        results.param("probe.split_striped_ns", routing.split_ns);
    }

    // Further windows on the traced device: sweeps first, telemetry last
    // (once attached it stays attached).
    if matches!(w.drive(), Drive::Open { .. }) {
        load_sweep(w, &mut driver, &mut m, &mut results);
    }
    if w.is_fleet() {
        // 4,096- against 512-command sessions, on the two-thread fleet.
        let small = cost_of_sessions(&mut driver, Drive::Burst, 512, 64);
        let large = cost_of_sessions(&mut driver, Drive::Burst, 4096, 8);
        m.insert("fleet.session_cost_ratio", large / small);
    } else {
        // 2,048 commands arriving at once against 64.
        let small = cost_of_sessions(&mut driver, Drive::Burst, 64, 512);
        let large = cost_of_sessions(&mut driver, Drive::Burst, 2048, 16);
        m.insert("ssd.burst_cost_ratio", large / small);
    }
    driver.set_drive(w.drive());
    let events_per_device_cmd = telemetry_window(w, &mut driver, &mut m, &mut results);
    let events_per_cmd = events_per_device_cmd * device_cmds_per_cmd;
    m.insert("sim.events_per_cmd", events_per_cmd);
    let sim_self = events_per_cmd * engine_ns;
    m.insert("sim.self_ns_per_cmd", sim_self);

    // `arbitrate_round_robin` and `complete_session` run inside `serve`; on
    // the fleet the members' share of them stays in `ssd` self time.
    let block_in_serve = if w.is_fleet() {
        0.0
    } else {
        arbitrate + complete
    };
    let ssd_self = ssd_incl - ftl.member_ns_per_cmd - sim_self - block_in_serve;
    m.insert("ssd.self_ns_per_cmd", ssd_self.max(0.0));
    let self_sum = fleet_self
        + ssd_self.max(0.0)
        + sim_self
        + block_in_serve
        + ftl_self.max(0.0)
        + gc_ns
        + flash_ns
        + map_ns
        + reliability_ns;
    results.param("self_time_sum_over_inclusive", self_sum / incl_base);
    results.advise(
        "self_times_sum_to_inclusive",
        (self_sum / incl_base - 1.0).abs() <= 0.15,
        format!(
            "sum of per-layer self times {self_sum:.1} ns/cmd vs inclusive {incl_base:.1} ns/cmd \
             (ssd {ssd_self:.1} sim {sim_self:.1} block {block_in_serve:.1} ftl {ftl_self:.1} \
             gc {gc_ns:.1} flash {flash_ns:.1} mapcache {map_ns:.1} reliability \
             {reliability_ns:.1} fleet {fleet_self:.1})"
        ),
    );

    for def in &PER_LAYER {
        let note = match def.name {
            "ssd.self_ns_per_cmd" | "ftl.self_ns_per_cmd" if !exact => "approximate",
            _ => "",
        };
        results.set_noted(def.name, m.get(def.name).copied().unwrap_or(0.0), note);
    }
    (results, spans)
}

/// Host nanoseconds per command over `sessions` sessions of `session_cmds`.
fn cost_of_sessions(driver: &mut Driver, drive: Drive, session_cmds: u64, sessions: u64) -> f64 {
    driver.set_drive(drive);
    run_window(driver, session_cmds * sessions, session_cmds, 0, None).ns_per_cmd()
}

/// Open loop at 50%, 70% and 90% of the frozen saturation rate, in that
/// order so no window inherits a backlog from a heavier one.
fn load_sweep(
    w: &Workload,
    driver: &mut Driver,
    m: &mut BTreeMap<&'static str, f64>,
    results: &mut Results,
) {
    let sessions = match w.scale {
        Scale::Full => 96,
        Scale::Smoke => 12,
    };
    let mut p999 = Vec::new();
    for (load, name) in [
        (0.50, "ssd.sim_lat_p999_us.load50"),
        (LOAD70, "ssd.sim_lat_p999_us.load70"),
        (0.90, "ssd.sim_lat_p999_us.load90"),
    ] {
        driver.set_drive(Drive::Open {
            rate: load * MQ_SATURATION_CMDS_PER_SIM_S,
        });
        driver.reset_tally();
        let window = run_window(driver, sessions * 1024, 1024, 0, None);
        let samples = driver.tally.latency.len();
        results.check(
            "sweep_p999_has_ten_samples_beyond",
            highest_supported_percentile(samples).is_some_and(|p| p >= 0.999),
            format!("{samples} samples at load {load}"),
        );
        let value = driver.tally.latency.quantile_nanos(0.999) / 1e3;
        m.insert(name, value);
        p999.push(value);
        if load == 0.90 {
            m.insert("ssd.sim_backlog_ms.load90", window.backlog_ms);
        }
    }
    results.check(
        "latency_rises_with_load",
        p999[2] > p999[0],
        format!(
            "p99.9 {:.1} us at load50, {:.1} us at load90",
            p999[0], p999[2]
        ),
    );
}

/// One window with `Recorder` + attribution attached against the same
/// sized window just before it without.  Returns engine events per command
/// the device served.
fn telemetry_window(
    w: &Workload,
    driver: &mut Driver,
    m: &mut BTreeMap<&'static str, f64>,
    results: &mut Results,
) -> f64 {
    let session = w.session_cmds();
    // Short enough that the recorder's ring holds nearly every event.
    let cmds = (w.segment_cmds() / 32 / session).max(4) * session;
    let detached = run_window(driver, cmds, session, 0, None);
    let fanout_before = driver.tally.fanout;
    let attached = attach_telemetry(&mut driver.target);
    let with = run_window(driver, cmds, session, 0, None);
    m.insert(
        "telemetry.attached_cost_ratio",
        with.ns_per_cmd() / detached.ns_per_cmd(),
    );
    let device_cmds = if w.is_fleet() {
        driver.tally.fanout - fanout_before
    } else {
        with.cmds
    };
    let (mut events, mut dropped, mut engine_events) = (0u64, 0u64, 0u64);
    for recorder in &attached {
        let r = recorder
            .lock()
            .expect("no thread panicked holding the recorder");
        events += r.events().len() as u64;
        dropped += r.dropped_events();
        engine_events += r.counters().get("engine.arrivals")
            + r.counters().get("engine.op_starts")
            + r.counters().get("engine.op_completes");
    }
    m.insert(
        "telemetry.events_per_cmd",
        (events + dropped) as f64 / with.cmds as f64,
    );
    m.insert("telemetry.dropped_events", dropped as f64);
    let blame = take_blame(&mut driver.target);
    let all_sum = blame.iter().all(BlameRecord::is_exact);
    let exact = blame.len() as u64 == device_cmds && all_sum;
    m.insert("telemetry.blame_exact", exact as u8 as f64);
    results.check(
        "blame_records_exact",
        exact,
        format!(
            "{} blame records for {device_cmds} device commands, every one summing to its latency: {all_sum}",
            blame.len()
        ),
    );
    engine_events as f64 / device_cmds.max(1) as f64
}

/// `saturation [--seed n]`: the closed-loop saturation rate of the
/// `mq_open_paged` device — every session's commands arrive at once — in
/// commands per simulated second.  Run once; the result is frozen as
/// `MQ_SATURATION_CMDS_PER_SIM_S`.
pub fn cmd_saturation(args: &[String]) -> Result<bool, String> {
    let seed = match args {
        [] => 1,
        [flag, n] if flag == "--seed" => n.parse().map_err(|e| format!("--seed: {e}"))?,
        _ => return Err("usage: saturation [--seed <n>]".to_string()),
    };
    let w = crate::workloads::by_name("mq_open_paged").expect("workload exists");
    let mut driver = Driver::new(&w, 1, seed);
    driver.set_drive(Drive::Burst);
    run_window(&mut driver, w.warmup_cmds(), w.session_cmds(), 0, None);
    driver.reset_tally();
    run_window(&mut driver, 4 * w.segment_cmds(), w.session_cmds(), 0, None);
    let t = &driver.tally;
    let rate = t.attempted as f64 / (t.sim_window_ns() as f64 / 1e9);
    println!(
        "saturation_cmds_per_sim_s {rate} ({} commands in {:.3} simulated s; frozen constant: {})",
        t.attempted,
        t.sim_window_ns() as f64 / 1e9,
        MQ_SATURATION_CMDS_PER_SIM_S
    );
    Ok(t.failed == 0)
}
