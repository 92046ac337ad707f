//! Fleet golden equivalence: the fleet layer must add scale without
//! changing simulation results.
//!
//! Two pins, per the fleet determinism model:
//!
//! 1. **1-device fleet ≡ standalone device.**  A striped fleet of one
//!    device, at any worker-thread count, must produce bit-identical
//!    per-initiator completion schedules, FTL statistics and wear
//!    summaries to serving the standalone `Ssd` built from the very same
//!    derived device configuration — across both FTLs and both
//!    schedulers.
//! 2. **Thread-count invariance.**  An N-device fleet run with the same
//!    seed must produce an identical canonical merged completion log (and
//!    identical per-device FTL statistics) whether devices are served by
//!    1, 2 or 8 worker threads.

use ossd_block::{Completion, HostCommand, HostInterface, HostQueue, WriteHint};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig, WearSummary};
use ossd_fleet::{Fleet, FleetConfig, FleetSubCompletion};
use ossd_ftl::{FtlConfig, FtlStats};
use ossd_gc::BackgroundGcConfig;
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, Ssd, SsdConfig};

const PAGE: u32 = 4096;
const INITIATORS: usize = 3;

fn device_config(mapping: MappingKind, scheduler: SchedulerKind) -> SsdConfig {
    SsdConfig {
        name: "fleet-eq".to_string(),
        geometry: FlashGeometry {
            packages: 4,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_bytes: PAGE,
        },
        timing: FlashTiming::slc(),
        mapping,
        ftl: FtlConfig::default()
            .with_overprovisioning(0.12)
            .with_watermarks(0.10, 0.04),
        // Fault injection on, so the per-device seed-stream derivation is
        // part of what the equivalence pins.
        reliability: ReliabilityConfig::wearout(0xD00D_5EED),
        background_gc: Some(BackgroundGcConfig::default()),
        gangs: 2,
        scheduler,
        queue_depth: 4,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// Per-run observables: what each initiator saw, in order.
#[derive(Debug, PartialEq)]
struct RunResult {
    completions: Vec<Vec<Completion>>,
}

/// Drives a deterministic queue-pair workload against any host interface:
/// a sequential fill followed by seeded mixed churn (multi-page writes and
/// reads, frees, flushes and barriers) spread across three initiators and
/// served in fixed-size sessions.  The `log` closure runs after every
/// session and may append to the returned witness log (fleets append
/// their canonical merged sub-completion log; standalone devices append
/// nothing).
fn run_sessions<D, F>(
    device: &mut D,
    capacity: u64,
    mut log: F,
) -> (RunResult, Vec<FleetSubCompletion>)
where
    D: HostInterface,
    F: FnMut(&mut D, &mut Vec<FleetSubCompletion>),
{
    let page = PAGE as u64;
    let logical_pages = capacity / page;
    assert!(logical_pages > 16, "workload needs a non-trivial device");
    let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
    let mut completions: Vec<Vec<Completion>> = vec![Vec::new(); INITIATORS];
    let mut rng = SimRng::seed_from_u64(0xF1EE_D00D);
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    let mut merged = Vec::new();

    let mut serve = |device: &mut D,
                     queues: &mut Vec<HostQueue>,
                     completions: &mut Vec<Vec<Completion>>,
                     merged: &mut Vec<FleetSubCompletion>|
     -> SimTime {
        device.serve(queues).expect("session serves cleanly");
        log(device, merged);
        let mut last = SimTime::ZERO;
        for (i, queue) in queues.iter_mut().enumerate() {
            for c in queue.drain_completions() {
                last = last.max(c.finish);
                completions[i].push(c);
            }
        }
        last
    };

    // Phase 1: sequential fill, sessions of 192 single-page writes.
    let mut lpn = 0u64;
    while lpn < logical_pages {
        let batch = 192.min(logical_pages - lpn);
        for k in 0..batch {
            let initiator = (lpn + k) as usize % INITIATORS;
            let range = ossd_block::ByteRange::new((lpn + k) * page, page);
            queues[initiator].submit(
                id,
                HostCommand::Write {
                    range,
                    hint: WriteHint::default(),
                },
                at + SimDuration::from_micros(k * 2),
            );
            id += 1;
        }
        let last = serve(device, &mut queues, &mut completions, &mut merged);
        at = last + SimDuration::from_micros(10);
        lpn += batch;
    }

    // Phase 2: seeded mixed churn, twice the logical space, sessions of 96.
    let churn_ops = logical_pages * 2;
    let mut issued = 0u64;
    while issued < churn_ops {
        let batch = 96.min(churn_ops - issued);
        for k in 0..batch {
            let initiator = k as usize % INITIATORS;
            let arrival = at + SimDuration::from_micros(k * 3);
            let pages = 1 + rng.next_u64_below(4);
            let start = rng.next_u64_below(logical_pages - pages);
            let range = ossd_block::ByteRange::new(start * page, pages * page);
            let command = match rng.next_u64_below(10) {
                0..=5 => HostCommand::Write {
                    range,
                    hint: WriteHint::default(),
                },
                6..=7 => HostCommand::Read { range },
                8 => HostCommand::Free { range },
                _ => {
                    if rng.chance(0.5) {
                        HostCommand::Flush
                    } else {
                        HostCommand::Barrier
                    }
                }
            };
            queues[initiator].submit(id, command, arrival);
            id += 1;
        }
        let last = serve(device, &mut queues, &mut completions, &mut merged);
        at = last + SimDuration::from_micros(10);
        issued += batch;
    }

    (RunResult { completions }, merged)
}

fn fleet_config(
    mapping: MappingKind,
    scheduler: SchedulerKind,
    devices: usize,
    threads: usize,
) -> FleetConfig {
    FleetConfig::striped(device_config(mapping, scheduler), devices, PAGE as u64)
        .with_threads(threads)
        .with_seed(0xF1EE_5EED)
}

fn run_standalone(config: SsdConfig) -> (RunResult, FtlStats, WearSummary) {
    let mut ssd = Ssd::new(config).expect("standalone device");
    let capacity = ossd_block::BlockDevice::capacity_bytes(&ssd);
    let (result, _) = run_sessions(&mut ssd, capacity, |_, _| {});
    let stats = ssd.ftl_stats();
    let wear = ssd.wear_summary();
    (result, stats, wear)
}

fn run_fleet(
    config: FleetConfig,
) -> (
    RunResult,
    Vec<FtlStats>,
    Vec<WearSummary>,
    Vec<FleetSubCompletion>,
) {
    let mut fleet = Fleet::new(config).expect("fleet");
    let capacity = ossd_block::BlockDevice::capacity_bytes(&fleet);
    let (result, merged) = run_sessions(&mut fleet, capacity, |fleet: &mut Fleet, merged| {
        merged.extend_from_slice(fleet.last_session_log());
    });
    let stats = (0..fleet.devices())
        .map(|i| fleet.device_ftl_stats(i).expect("live device"))
        .collect();
    let wear = (0..fleet.devices())
        .map(|i| fleet.device_wear_summary(i).expect("live device"))
        .collect();
    (result, stats, wear, merged)
}

fn assert_single_device_pin(mapping: MappingKind, scheduler: SchedulerKind) {
    // The standalone reference runs the exact config the fleet derives for
    // its only member — same name, same derived fault seed.
    let reference_config = Fleet::new(fleet_config(mapping, scheduler, 1, 1))
        .expect("fleet")
        .device_config(0);
    let (standalone, standalone_stats, standalone_wear) = run_standalone(reference_config);

    for threads in [1usize, 4] {
        let (fleet, stats, wear, _) = run_fleet(fleet_config(mapping, scheduler, 1, threads));
        assert_eq!(
            standalone, fleet,
            "{mapping:?}/{scheduler:?}/threads={threads}: completion schedules diverge"
        );
        assert_eq!(
            standalone_stats, stats[0],
            "{mapping:?}/{scheduler:?}/threads={threads}: FTL statistics diverge"
        );
        assert_eq!(
            standalone_wear, wear[0],
            "{mapping:?}/{scheduler:?}/threads={threads}: wear summaries diverge"
        );
    }
}

#[test]
fn single_device_fleet_matches_standalone_page_mapped_fcfs() {
    assert_single_device_pin(MappingKind::PageMapped, SchedulerKind::Fcfs);
}

#[test]
fn single_device_fleet_matches_standalone_page_mapped_swtf() {
    assert_single_device_pin(MappingKind::PageMapped, SchedulerKind::Swtf);
}

#[test]
fn single_device_fleet_matches_standalone_stripe_mapped_fcfs() {
    assert_single_device_pin(
        MappingKind::StripeMapped {
            stripe_bytes: 4 * PAGE as u64,
            coalesce: true,
        },
        SchedulerKind::Fcfs,
    );
}

#[test]
fn single_device_fleet_matches_standalone_stripe_mapped_swtf() {
    assert_single_device_pin(
        MappingKind::StripeMapped {
            stripe_bytes: 4 * PAGE as u64,
            coalesce: true,
        },
        SchedulerKind::Swtf,
    );
}

/// N-device determinism: same seed, different worker-thread counts, one
/// bit-identical result — per-initiator completions, the canonical merged
/// sub-completion log, and every device's FTL statistics.
#[test]
fn multi_device_fleet_is_thread_count_invariant() {
    let mut runs = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = fleet_config(MappingKind::PageMapped, SchedulerKind::Fcfs, 4, threads);
        let (result, stats, _, merged) = run_fleet(config);
        runs.push((threads, result, merged, stats));
    }
    let (_, ref first_result, ref first_merged, ref first_stats) = runs[0];
    assert!(!first_merged.is_empty(), "merged log should not be empty");
    for (threads, result, merged, stats) in &runs[1..] {
        assert_eq!(
            first_result, result,
            "threads={threads}: completion schedules diverge"
        );
        assert_eq!(
            first_merged, merged,
            "threads={threads}: merged completion logs diverge"
        );
        assert_eq!(
            first_stats, stats,
            "threads={threads}: per-device FTL statistics diverge"
        );
    }
}

/// Parity fleets are deterministic across thread counts too, including
/// through a failure + replacement + full rebuild cycle.
#[test]
fn parity_fleet_failure_cycle_is_thread_count_invariant() {
    let mut runs = Vec::new();
    for threads in [1usize, 3] {
        let config = FleetConfig::parity(
            device_config(MappingKind::PageMapped, SchedulerKind::Fcfs),
            3,
            PAGE as u64,
        )
        .with_threads(threads)
        .with_seed(0xF1EE_5EED);
        let mut fleet = Fleet::new(config).expect("fleet");
        let capacity = ossd_block::BlockDevice::capacity_bytes(&fleet);
        let (result, _) = run_sessions(&mut fleet, capacity, |_, _| {});
        // Fail a member, replace it, rebuild every row in stripe-aligned
        // chunks from the watermark.
        fleet.fail_device(1).expect("fail member");
        fleet.replace_device(1).expect("replace member");
        let page = PAGE as u64;
        let rows = fleet.parity_rows().expect("parity fleet");
        let mut at = SimTime::from_micros(1);
        let mut rebuild_finishes = Vec::new();
        for row in (0..rows).step_by(8) {
            let range = ossd_block::ByteRange::new(row * page, 8.min(rows - row) * page);
            let (r, w) = fleet.rebuild_range(1, range, at).expect("rebuild chunk");
            at = w.finish;
            rebuild_finishes.push((r.finish, w.finish));
        }
        assert_eq!(fleet.degraded_device(), None, "threads={threads}");
        let scrub = fleet.scrub().expect("parity fleet");
        assert!(scrub.is_clean(), "threads={threads}: {scrub:?}");
        runs.push((threads, result, rebuild_finishes, fleet.rebuilt_bytes()));
    }
    let (_, ref first_result, ref first_rebuild, first_bytes) = runs[0];
    for (threads, result, rebuild, bytes) in &runs[1..] {
        assert_eq!(
            first_result, result,
            "threads={threads}: parity completion schedules diverge"
        );
        assert_eq!(
            first_rebuild, rebuild,
            "threads={threads}: rebuild schedules diverge"
        );
        assert_eq!(
            first_bytes, *bytes,
            "threads={threads}: rebuilt bytes diverge"
        );
    }
}
