//! Cross-crate integration tests: full write/read/trim flows through the
//! block interface and the object interface, across the HDD and SSD models.

use ossd::block::{
    replay_closed, BlockDevice, BlockOpKind, BlockRequest, HostInterface, HostQueue,
};
use ossd::core::{ObjectAttrs, OsdDevice};
use ossd::ftl::FtlConfig;
use ossd::hdd::Hdd;
use ossd::sim::SimTime;
use ossd::ssd::{DeviceProfile, MappingKind, SchedulerKind, Ssd, SsdConfig};
use ossd::workload::{PostmarkConfig, SyntheticConfig};

fn medium_ssd_config() -> SsdConfig {
    let mut config = SsdConfig::tiny_page_mapped();
    config.geometry.packages = 4;
    config.geometry.blocks_per_plane = 128;
    config.gangs = 2;
    config
}

#[test]
fn synthetic_workload_runs_on_both_device_families() {
    let workload = SyntheticConfig::random(2000, 4096, 0.5, 8 * 1024 * 1024);
    let requests = workload.generate();

    let mut ssd = Ssd::new(medium_ssd_config()).unwrap();
    let ssd_report = replay_closed(&mut ssd, &requests).unwrap();
    assert_eq!(ssd_report.all.count(), 2000);
    assert!(ssd_report.bandwidth_mbps() > 1.0);

    let mut hdd = Hdd::barracuda_7200();
    let hdd_report = replay_closed(&mut hdd, &requests).unwrap();
    assert_eq!(hdd_report.all.count(), 2000);
    // Random 4 KB I/O: the SSD is far faster than the disk.
    assert!(ssd_report.bandwidth_mbps() > 5.0 * hdd_report.bandwidth_mbps());
}

#[test]
fn postmark_trace_replays_with_frees_on_an_informed_ssd() {
    let requests = PostmarkConfig {
        transactions: 600,
        initial_files: 150,
        volume_bytes: 16 * 1024 * 1024,
        ..PostmarkConfig::default()
    }
    .generate();
    let frees = (requests.iter())
        .filter(|r| r.kind == BlockOpKind::Free)
        .count() as u64;
    assert!(frees > 0);

    let mut config = medium_ssd_config();
    config.ftl = FtlConfig::informed();
    let mut ssd = Ssd::new(config).unwrap();
    let report = ossd::block::replay_open(&mut ssd, &requests).unwrap();
    assert_eq!(report.frees, frees);
    let stats = ssd.stats();
    assert!(stats.ftl.frees_accepted > 0);
    assert_eq!(stats.host_frees, frees);
}

#[test]
fn object_store_and_raw_block_interface_agree_on_free_accounting() {
    let mut store = OsdDevice::new(medium_ssd_config()).unwrap();
    let mut objects = Vec::new();
    for _ in 0..12 {
        let obj = store.create_object(ObjectAttrs::default());
        store.write(obj, 0, 64 * 1024, store.now()).unwrap();
        objects.push(obj);
    }
    let used_before = store.used_bytes();
    for obj in &objects[..6] {
        store.delete_object(*obj, store.now()).unwrap();
    }
    assert!(store.used_bytes() < used_before);
    // Every deleted byte became a free notification to the FTL.
    let stats = store.device_stats();
    assert!(stats.ftl.frees_accepted >= 6 * (64 * 1024 / 4096));
}

#[test]
fn stripe_mapped_profile_respects_trim_only_when_informed() {
    // The same requests with frees: the default S2-like device ignores
    // them, the informed one uses them.
    let at = |micros| SimTime::from_micros(micros);
    let stripe = 32 * 1024;
    let writes = (0..64).map(|i| BlockRequest::write(i, i * stripe, stripe, at(i * 1000)));
    let frees =
        (0..32).map(|i| BlockRequest::free(64 + i, i * stripe, stripe, at(100_000 + i * 1000)));
    let requests: Vec<BlockRequest> = writes.chain(frees).collect();
    let run = |informed: bool| {
        let mut config = SsdConfig::tiny_stripe_mapped();
        config.geometry.packages = 8;
        config.geometry.blocks_per_plane = 32;
        config.mapping = MappingKind::StripeMapped {
            stripe_bytes: 32 * 1024,
            coalesce: true,
        };
        config.ftl = config.ftl.with_honor_free(informed);
        let mut ssd = Ssd::new(config).unwrap();
        ossd::block::replay_open(&mut ssd, &requests).unwrap();
        ssd.stats().ftl.frees_accepted
    };
    assert_eq!(run(false), 0);
    assert!(run(true) > 0);
}

#[test]
fn open_queue_simulation_is_deterministic_across_schedulers() {
    let workload = SyntheticConfig::swtf_workload(
        2000,
        8 * 1024 * 1024,
        ossd::sim::SimDuration::from_micros(80),
    );
    let requests = workload.generate();
    let run = |scheduler: SchedulerKind| {
        let mut ssd = Ssd::new(medium_ssd_config().with_scheduler(scheduler)).unwrap();
        // Prefill so reads find mapped data.
        for i in 0..(8 * 1024 * 1024 / (256 * 1024)) {
            ssd.submit(&BlockRequest::write(
                i,
                i * 256 * 1024,
                256 * 1024,
                SimTime::ZERO,
            ))
            .unwrap();
        }
        let mut queue = HostQueue::new();
        requests.iter().for_each(|r| queue.submit_request(r));
        ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
        (queue.drain_completions().iter())
            .map(|c| c.response_time().as_nanos())
            .sum::<u64>()
    };
    // Re-running the same configuration reproduces identical results.
    assert_eq!(run(SchedulerKind::Fcfs), run(SchedulerKind::Fcfs));
    assert_eq!(run(SchedulerKind::Swtf), run(SchedulerKind::Swtf));
}

#[test]
fn device_profiles_expose_sensible_capacities_and_names() {
    for profile in DeviceProfile::table2_devices() {
        let config = profile.config();
        config.validate().unwrap();
        assert!(config.geometry.capacity_bytes() >= 1 << 30);
        assert!(!profile.name().is_empty());
    }
}

#[test]
fn every_device_profile_is_a_table2_device() {
    use DeviceProfile::*;
    // The match has no wildcard, so a new profile does not compile until it
    // is given its Table 2 row here, and then fails below unless
    // `table2_devices()` (which Table 2 runs) lists it there.
    let row = |profile: DeviceProfile| match profile {
        S1Slc => 0,
        S2Slc => 1,
        S3Slc => 2,
        S4SlcSim => 3,
        S5Mlc => 4,
    };
    let rows: Vec<usize> = DeviceProfile::table2_devices()
        .into_iter()
        .map(row)
        .collect();
    assert_eq!(rows, [0, 1, 2, 3, 4]);
}
