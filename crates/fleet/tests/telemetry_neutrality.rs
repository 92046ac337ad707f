//! Fleet telemetry neutrality: attaching per-device recorders to a fleet
//! must not change any simulation result — completions, merged logs or
//! per-device FTL statistics — and every member must record events.

use ossd_block::{
    BlockDevice, ByteRange, Completion, HostCommand, HostInterface, HostQueue, WriteHint,
};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_fleet::{Fleet, FleetConfig, FleetSubCompletion};
use ossd_ftl::{FtlConfig, FtlStats};
use ossd_gc::BackgroundGcConfig;
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, SsdConfig};
use ossd_telemetry::{BlameCat, RecorderConfig};

const PAGE: u32 = 4096;
const INITIATORS: usize = 2;

fn fleet_config() -> FleetConfig {
    let device = SsdConfig {
        name: "fleet-neutrality".to_string(),
        geometry: FlashGeometry {
            packages: 2,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_bytes: PAGE,
        },
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl: FtlConfig::default()
            .with_overprovisioning(0.12)
            .with_watermarks(0.10, 0.04),
        reliability: ReliabilityConfig::wearout(0xD00D_5EED),
        background_gc: Some(BackgroundGcConfig::default()),
        gangs: 1,
        scheduler: SchedulerKind::Fcfs,
        queue_depth: 4,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    };
    FleetConfig::striped(device, 3, PAGE as u64)
        .with_threads(3)
        .with_seed(0xF1EE_5EED)
}

struct RunResult {
    completions: Vec<Vec<Completion>>,
    merged: Vec<FleetSubCompletion>,
    ftl_stats: Vec<FtlStats>,
}

fn run_workload(fleet: &mut Fleet) -> RunResult {
    let page = PAGE as u64;
    let logical_pages = fleet.capacity_bytes() / page;
    let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
    let mut completions: Vec<Vec<Completion>> = vec![Vec::new(); INITIATORS];
    let mut merged = Vec::new();
    let mut rng = SimRng::seed_from_u64(0x5EED_CAFE);
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    // Fill, then churn past the watermarks, in sessions of 128.
    let total_ops = logical_pages * 3;
    let mut issued = 0u64;
    while issued < total_ops {
        let batch = 128.min(total_ops - issued);
        for k in 0..batch {
            let arrival = at + SimDuration::from_micros(k * 2);
            let command = if issued + k < logical_pages {
                HostCommand::Write {
                    range: ByteRange::new((issued + k) * page, page),
                    hint: WriteHint::default(),
                }
            } else {
                let pages = 1 + rng.next_u64_below(3);
                let start = rng.next_u64_below(logical_pages - pages);
                let range = ByteRange::new(start * page, pages * page);
                if rng.chance(0.25) {
                    HostCommand::Read { range }
                } else {
                    HostCommand::Write {
                        range,
                        hint: WriteHint::default(),
                    }
                }
            };
            queues[k as usize % INITIATORS].submit(id, command, arrival);
            id += 1;
        }
        fleet.serve(&mut queues).expect("session serves cleanly");
        merged.extend_from_slice(fleet.last_session_log());
        let mut last = at;
        for (i, queue) in queues.iter_mut().enumerate() {
            for c in queue.drain_completions() {
                last = last.max(c.finish);
                completions[i].push(c);
            }
        }
        at = last + SimDuration::from_micros(10);
        issued += batch;
    }
    RunResult {
        completions,
        merged,
        ftl_stats: (0..fleet.devices())
            .map(|i| fleet.device_ftl_stats(i).expect("live"))
            .collect(),
    }
}

#[test]
fn recorder_attached_fleet_run_is_neutral() {
    // Detached reference run.
    let mut detached = Fleet::new(fleet_config()).expect("fleet");
    let reference = run_workload(&mut detached);

    // Recorder-attached run of the identical fleet.
    let mut attached = Fleet::new(fleet_config()).expect("fleet");
    let recorders = attached.attach_recorders(RecorderConfig::default());
    assert_eq!(recorders.len(), 3);
    let observed = run_workload(&mut attached);

    assert_eq!(
        reference.completions, observed.completions,
        "recorders changed the completion schedules"
    );
    assert_eq!(
        reference.merged, observed.merged,
        "recorders changed the merged sub-completion log"
    );
    assert_eq!(
        reference.ftl_stats, observed.ftl_stats,
        "recorders changed per-device FTL statistics"
    );

    // Every device recorded activity.
    for (i, recorder) in recorders.iter().enumerate() {
        let r = recorder.lock().unwrap();
        assert!(!r.events().is_empty(), "device {i} recorded no events");
    }
}

#[test]
fn attribution_enabled_fleet_run_is_neutral_and_merges_records() {
    // Detached reference run.
    let mut detached = Fleet::new(fleet_config()).expect("fleet");
    let reference = run_workload(&mut detached);

    // Attribution-enabled run of the identical fleet: blame accounting
    // must not move a single sub-completion on any member.
    let mut attributed = Fleet::new(fleet_config()).expect("fleet");
    attributed.enable_attribution();
    assert!(attributed.attribution_enabled());
    let observed = run_workload(&mut attributed);

    assert_eq!(
        reference.completions, observed.completions,
        "attribution changed the completion schedules"
    );
    assert_eq!(
        reference.merged, observed.merged,
        "attribution changed the merged sub-completion log"
    );
    assert_eq!(
        reference.ftl_stats, observed.ftl_stats,
        "attribution changed per-device FTL statistics"
    );

    // One record per sub-completion, drained in the canonical merged
    // order, every one summing exactly to its end-to-end latency, with
    // the workload's forced cleaning visible as GC blame.
    let records = attributed.take_blame_records();
    assert_eq!(
        records.len(),
        reference.merged.len(),
        "one blame record per merged sub-completion"
    );
    let mut devices_seen = [false; 3];
    let mut gc_blamed = 0u64;
    for window in records.windows(2) {
        let key = |(device, r): &(usize, _)| {
            let r: &ossd_telemetry::BlameRecord = r;
            (r.finish, *device, r.initiator, r.id)
        };
        assert!(key(&window[0]) <= key(&window[1]), "records out of order");
    }
    for (device, r) in &records {
        devices_seen[*device] = true;
        assert!(
            r.is_exact(),
            "device {device}: blame components sum to {} ns but command {} took {} ns",
            r.total_nanos(),
            r.id,
            r.finish.saturating_since(r.arrival).as_nanos()
        );
        gc_blamed += r.breakdown.get(BlameCat::GcWait);
    }
    assert!(
        devices_seen.iter().all(|&d| d),
        "a member produced no records"
    );
    assert!(gc_blamed > 0, "no latency blamed on GC across the fleet");
    // The drain is destructive: a second take returns nothing new.
    assert!(attributed.take_blame_records().is_empty());
}
