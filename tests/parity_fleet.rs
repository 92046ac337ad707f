//! Parity-fleet pins: degraded-mode serving, online reconstruction and
//! rebuild must be *transparent* and *deterministic*.
//!
//! Four pins, per the fleet determinism model:
//!
//! 1. **Degraded-read equivalence.**  After a device failure, every unit
//!    the host can read returns exactly what it held before the failure —
//!    checked against the fleet's shadow content model (the simulator
//!    carries no data payloads, so unit fingerprints stand in for
//!    contents) — and the whole degraded run is bit-identical across
//!    worker-thread counts.
//! 2. **Scrub and full-rebuild restoration.**  After seeded faulty churn,
//!    a failure, degraded churn, replacement and a complete
//!    watermark-ordered rebuild, recomputing parity across every stripe
//!    finds zero mismatches and every unit matches its write oracle.
//! 3. **Transparent repair.**  Uncorrectable reads on a *live* member of
//!    a healthy parity fleet are repaired from the other members before
//!    they surface: the host sees only `Ok` completions.
//! 4. **Typed redundancy errors.**  Precondition violations name the
//!    offending device and layout; failing an already-failed device is
//!    the typed no-op `DeviceError::AlreadyFailed`.

use ossd::workload::TpccConfig;
use ossd_block::{
    BlockDevice, ByteRange, Completion, CompletionStatus, DeviceError, HostCommand, HostInterface,
    HostQueue, WriteHint,
};
use ossd_flash::{EccConfig, FaultConfig, FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_fleet::{Fleet, FleetConfig, FleetSubCompletion};
use ossd_ftl::FtlConfig;
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, SsdConfig};

const PAGE: u32 = 4096;
const STRIPE: u64 = PAGE as u64;
const INITIATORS: usize = 2;

fn device_config(reliability: ReliabilityConfig) -> SsdConfig {
    SsdConfig {
        name: "parity-test".to_string(),
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
        reliability,
        background_gc: None,
        gangs: 2,
        scheduler: SchedulerKind::Fcfs,
        queue_depth: 4,
        controller_overhead: SimDuration::from_micros(10),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

fn parity_fleet(devices: usize, threads: usize, reliability: ReliabilityConfig) -> Fleet {
    let config = FleetConfig::parity(device_config(reliability), devices, STRIPE)
        .with_threads(threads)
        .with_seed(0xAA11_D5EED);
    Fleet::new(config).expect("parity fleet")
}

/// Serves the queues and drains completions per initiator, extending the
/// merged witness log; returns the latest finish time.
fn serve_and_drain(
    fleet: &mut Fleet,
    queues: &mut [HostQueue],
    completions: &mut [Vec<Completion>],
    merged: &mut Vec<FleetSubCompletion>,
) -> SimTime {
    fleet.serve(queues).expect("session serves cleanly");
    merged.extend_from_slice(fleet.last_session_log());
    let mut last = SimTime::ZERO;
    for (i, queue) in queues.iter_mut().enumerate() {
        for c in queue.drain_completions() {
            last = last.max(c.finish);
            completions[i].push(c);
        }
    }
    last
}

/// Writes every exported row once (full-stripe writes), in sessions.
fn prefill(
    fleet: &mut Fleet,
    queues: &mut [HostQueue],
    completions: &mut [Vec<Completion>],
    merged: &mut Vec<FleetSubCompletion>,
    id: &mut u64,
    at: &mut SimTime,
) {
    let capacity = BlockDevice::capacity_bytes(fleet);
    let row_bytes = (fleet.devices() as u64 - 1) * STRIPE;
    let rows = capacity / row_bytes;
    let mut row = 0u64;
    while row < rows {
        let batch = 64.min(rows - row);
        for k in 0..batch {
            let initiator = (row + k) as usize % INITIATORS;
            queues[initiator].submit(
                *id,
                HostCommand::Write {
                    range: ByteRange::new((row + k) * row_bytes, row_bytes),
                    hint: WriteHint::default(),
                },
                *at + SimDuration::from_micros(k * 2),
            );
            *id += 1;
        }
        let last = serve_and_drain(fleet, queues, completions, merged);
        *at = last + SimDuration::from_micros(10);
        row += batch;
    }
}

/// Seeded mixed read/write/free churn over the exported space.
#[allow(clippy::too_many_arguments)]
fn churn(
    fleet: &mut Fleet,
    queues: &mut [HostQueue],
    completions: &mut [Vec<Completion>],
    merged: &mut Vec<FleetSubCompletion>,
    id: &mut u64,
    at: &mut SimTime,
    ops: u64,
    seed: u64,
) {
    let capacity = BlockDevice::capacity_bytes(fleet);
    let units = capacity / STRIPE;
    let mut rng = SimRng::seed_from_u64(seed);
    let mut issued = 0u64;
    while issued < ops {
        let batch = 48.min(ops - issued);
        for k in 0..batch {
            let initiator = k as usize % INITIATORS;
            let stripes = 1 + rng.next_u64_below(3);
            let start = rng.next_u64_below(units - stripes);
            let range = ByteRange::new(start * STRIPE, stripes * STRIPE);
            let command = match rng.next_u64_below(10) {
                0..=4 => HostCommand::Write {
                    range,
                    hint: WriteHint::default(),
                },
                5..=8 => HostCommand::Read { range },
                _ => HostCommand::Free { range },
            };
            queues[initiator].submit(*id, command, *at + SimDuration::from_micros(k * 3));
            *id += 1;
        }
        let last = serve_and_drain(fleet, queues, completions, merged);
        *at = last + SimDuration::from_micros(10);
        issued += batch;
    }
}

fn assert_all_ok(completions: &[Vec<Completion>]) {
    for per_initiator in completions {
        for c in per_initiator {
            assert_eq!(
                c.status,
                CompletionStatus::Ok,
                "host-visible error on request {}",
                c.request_id
            );
        }
    }
}

/// Pin 1: prefill + churn, snapshot every unit's fingerprint, fail a
/// device — every unit must read back bit-identically via reconstruction,
/// degraded churn must stay error-free, and the whole run (completions and
/// canonical merged log) must be thread-count invariant.
#[test]
fn degraded_reads_are_bit_identical_and_thread_invariant() {
    let mut runs = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut fleet = parity_fleet(4, threads, ReliabilityConfig::none());
        let capacity = BlockDevice::capacity_bytes(&fleet);
        let units = capacity / STRIPE;
        let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
        let mut completions: Vec<Vec<Completion>> = vec![Vec::new(); INITIATORS];
        let mut merged = Vec::new();
        let (mut id, mut at) = (0u64, SimTime::ZERO);
        prefill(
            &mut fleet,
            &mut queues,
            &mut completions,
            &mut merged,
            &mut id,
            &mut at,
        );
        churn(
            &mut fleet,
            &mut queues,
            &mut completions,
            &mut merged,
            &mut id,
            &mut at,
            units,
            0xC0FF_EE00,
        );

        // Snapshot the healthy contents, then fail a member.
        let healthy: Vec<u64> = (0..units)
            .map(|u| fleet.read_fingerprint(u * STRIPE).expect("parity fleet"))
            .collect();
        fleet.fail_device(2).expect("first failure degrades");
        assert_eq!(fleet.degraded_device(), Some((2, 0)));

        // Every unit — including those that lived on device 2 — reads back
        // exactly its pre-failure contents via XOR reconstruction.
        for u in 0..units {
            let got = fleet.read_fingerprint(u * STRIPE).expect("parity fleet");
            assert_eq!(
                got, healthy[u as usize],
                "unit {u} diverged after the failure"
            );
            assert_eq!(got, fleet.expected_fingerprint(u * STRIPE).unwrap());
        }

        // Degraded churn: reconstruction serves reads, survivors + parity
        // absorb writes, zero host-visible errors.
        churn(
            &mut fleet,
            &mut queues,
            &mut completions,
            &mut merged,
            &mut id,
            &mut at,
            units,
            0xDEAD_BEEF,
        );
        assert_all_ok(&completions);
        assert!(
            fleet.degraded_reads() > 0,
            "degraded churn must exercise reconstruction"
        );
        runs.push((threads, completions, merged, fleet.degraded_reads()));
    }
    let (_, ref first_completions, ref first_merged, first_degraded) = runs[0];
    assert!(!first_merged.is_empty());
    for (threads, completions, merged, degraded) in &runs[1..] {
        assert_eq!(
            first_completions, completions,
            "threads={threads}: degraded completion schedules diverge"
        );
        assert_eq!(
            first_merged, merged,
            "threads={threads}: merged completion logs diverge"
        );
        assert_eq!(first_degraded, *degraded, "threads={threads}");
    }
}

/// Pin 2: faulty churn → scrub clean; fail + degraded churn → scrub
/// clean; replace + watermark-ordered rebuild (with churn interleaved
/// mid-rebuild) → fully restored, scrub clean, every unit matching its
/// write oracle.
#[test]
fn scrub_is_clean_after_churn_failure_and_full_rebuild() {
    let mut fleet = parity_fleet(3, 2, ReliabilityConfig::wearout(0xFA17_5EED));
    let capacity = BlockDevice::capacity_bytes(&fleet);
    let units = capacity / STRIPE;
    let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
    let mut completions: Vec<Vec<Completion>> = vec![Vec::new(); INITIATORS];
    let mut merged = Vec::new();
    let (mut id, mut at) = (0u64, SimTime::ZERO);
    prefill(
        &mut fleet,
        &mut queues,
        &mut completions,
        &mut merged,
        &mut id,
        &mut at,
    );
    churn(
        &mut fleet,
        &mut queues,
        &mut completions,
        &mut merged,
        &mut id,
        &mut at,
        units * 2,
        0x5C4B_0001,
    );
    let healthy_scrub = fleet.scrub().expect("parity fleet");
    assert!(healthy_scrub.is_clean(), "healthy scrub: {healthy_scrub:?}");

    fleet.fail_device(0).expect("degrade");
    churn(
        &mut fleet,
        &mut queues,
        &mut completions,
        &mut merged,
        &mut id,
        &mut at,
        units,
        0x5C4B_0002,
    );
    let degraded_scrub = fleet.scrub().expect("parity fleet");
    assert!(
        degraded_scrub.is_clean(),
        "degraded scrub: {degraded_scrub:?}"
    );

    // Replace and rebuild in watermark order, churning midway so the
    // split view (rebuilt rows on the replacement, the rest degraded)
    // serves live traffic.
    fleet.replace_device(0).expect("replace");
    let rows = fleet.parity_rows().expect("parity fleet");
    let chunk_rows = 8u64;
    let mut row = 0u64;
    let mut rebuild_at = at;
    while row < rows {
        let n = chunk_rows.min(rows - row);
        let (_, w) = fleet
            .rebuild_range(0, ByteRange::new(row * STRIPE, n * STRIPE), rebuild_at)
            .expect("rebuild chunk");
        rebuild_at = w.finish;
        row += n;
        if row == chunk_rows * 4 {
            assert_eq!(fleet.degraded_device(), Some((0, row)));
            at = at.max(rebuild_at) + SimDuration::from_micros(10);
            churn(
                &mut fleet,
                &mut queues,
                &mut completions,
                &mut merged,
                &mut id,
                &mut at,
                units / 2,
                0x5C4B_0003,
            );
            rebuild_at = rebuild_at.max(at);
        }
    }
    assert_eq!(fleet.degraded_device(), None, "rebuild completes");
    assert!(fleet.rebuilt_bytes() >= rows * STRIPE);

    let final_scrub = fleet.scrub().expect("parity fleet");
    assert!(
        final_scrub.is_clean(),
        "post-rebuild scrub: {final_scrub:?}"
    );
    for u in 0..units {
        assert_eq!(
            fleet.read_fingerprint(u * STRIPE),
            fleet.expected_fingerprint(u * STRIPE),
            "unit {u} not restored by rebuild"
        );
    }
    assert_all_ok(&completions);
}

/// Pin 3: with a raw bit-error rate that makes some page reads
/// uncorrectable (no retries, so ~0.4% of reads fail ECC), a healthy
/// parity fleet repairs every one from the other members — the host never
/// sees an error.
#[test]
fn uncorrectable_reads_are_transparently_repaired() {
    let reliability = ReliabilityConfig {
        faults: FaultConfig {
            seed: 0xBADB_1759,
            raw_ber_base: 2.0,
            ..FaultConfig::none()
        },
        ecc: EccConfig {
            correctable_bits: 8,
            max_read_retries: 0,
            retry_error_factor: 0.5,
        },
    };
    let mut fleet = parity_fleet(4, 2, reliability);
    let capacity = BlockDevice::capacity_bytes(&fleet);
    let units = capacity / STRIPE;
    let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
    let mut completions: Vec<Vec<Completion>> = vec![Vec::new(); INITIATORS];
    let mut merged = Vec::new();
    let (mut id, mut at) = (0u64, SimTime::ZERO);
    prefill(
        &mut fleet,
        &mut queues,
        &mut completions,
        &mut merged,
        &mut id,
        &mut at,
    );
    churn(
        &mut fleet,
        &mut queues,
        &mut completions,
        &mut merged,
        &mut id,
        &mut at,
        units * 4,
        0x0BAD_0CAF,
    );
    assert!(
        fleet.repaired_reads() > 0,
        "the stressed BER must trip at least one repair"
    );
    assert!(fleet.reconstructed_bytes() > 0);
    assert_all_ok(&completions);
    // Repaired sub-completions surface as Ok in the canonical log too.
    assert!(merged.iter().all(|s| s.status == CompletionStatus::Ok));
}

/// Pin 4: redundancy preconditions fail with typed errors naming the
/// offending device and layout.
#[test]
fn redundancy_errors_name_the_offending_device_and_layout() {
    // Striped fleets have nothing to fail over to and nothing to rebuild.
    let striped = FleetConfig::striped(device_config(ReliabilityConfig::none()), 2, STRIPE);
    let mut striped = Fleet::new(striped).expect("striped fleet");
    match striped.fail_device(0) {
        Err(DeviceError::Redundancy { what }) => assert!(what.contains("striped"), "{what}"),
        other => panic!("striped fail_device: {other:?}"),
    }
    match striped.rebuild_range(0, ByteRange::new(0, STRIPE), SimTime::ZERO) {
        Err(DeviceError::Redundancy { what }) => {
            assert!(
                what.contains("striped") && what.contains("device 0"),
                "{what}"
            )
        }
        other => panic!("striped rebuild_range: {other:?}"),
    }

    let mut fleet = parity_fleet(3, 1, ReliabilityConfig::none());
    // Out-of-range and not-degraded preconditions.
    match fleet.fail_device(7) {
        Err(DeviceError::Redundancy { what }) => assert!(what.contains("device 7"), "{what}"),
        other => panic!("out-of-range fail: {other:?}"),
    }
    match fleet.rebuild_range(1, ByteRange::new(0, STRIPE), SimTime::ZERO) {
        Err(DeviceError::Redundancy { what }) => {
            assert!(what.contains("not degraded"), "{what}")
        }
        other => panic!("healthy rebuild: {other:?}"),
    }
    match fleet.replace_device(1) {
        Err(DeviceError::Redundancy { what }) => {
            assert!(what.contains("has not failed"), "{what}")
        }
        other => panic!("healthy replace: {other:?}"),
    }

    fleet.fail_device(1).expect("first failure degrades");
    // Failing the failed member again is the typed no-op; failing any
    // *other* member would exceed single-parity tolerance.
    assert_eq!(
        fleet.fail_device(1),
        Err(DeviceError::AlreadyFailed { device: 1 })
    );
    match fleet.fail_device(2) {
        Err(DeviceError::Redundancy { what }) => {
            assert!(
                what.contains("degraded on device 1") && what.contains("device 2"),
                "{what}"
            )
        }
        other => panic!("second failure: {other:?}"),
    }
    // Rebuild targets must be the degraded member, replaced first.
    match fleet.rebuild_range(0, ByteRange::new(0, STRIPE), SimTime::ZERO) {
        Err(DeviceError::Redundancy { what }) => {
            assert!(what.contains("degraded on device 1"), "{what}")
        }
        other => panic!("wrong-target rebuild: {other:?}"),
    }
    match fleet.rebuild_range(1, ByteRange::new(0, STRIPE), SimTime::ZERO) {
        Err(DeviceError::Redundancy { what }) => {
            assert!(what.contains("replace it first"), "{what}")
        }
        other => panic!("unreplaced rebuild: {other:?}"),
    }
    fleet.replace_device(1).expect("replace");
    // Misaligned and out-of-watermark-order ranges.
    match fleet.rebuild_range(1, ByteRange::new(0, STRIPE / 2), SimTime::ZERO) {
        Err(DeviceError::Redundancy { what }) => assert!(what.contains("stripe"), "{what}"),
        other => panic!("misaligned rebuild: {other:?}"),
    }
    match fleet.rebuild_range(1, ByteRange::new(4 * STRIPE, STRIPE), SimTime::ZERO) {
        Err(DeviceError::Redundancy { what }) => assert!(what.contains("watermark"), "{what}"),
        other => panic!("out-of-order rebuild: {other:?}"),
    }
    // The watermark-ordered chunk is accepted.
    fleet
        .rebuild_range(1, ByteRange::new(0, 4 * STRIPE), SimTime::ZERO)
        .expect("watermark-ordered rebuild chunk");
    assert_eq!(fleet.degraded_device(), Some((1, 4)));
}

/// A degraded 4-device parity fleet serves a TPC-C slice with zero
/// host-visible errors, thread-count invariant.
#[test]
fn tpcc_slice_serves_degraded_with_zero_errors() {
    let mut runs = Vec::new();
    for threads in [1usize, 4] {
        let mut fleet = parity_fleet(4, threads, ReliabilityConfig::none());
        let capacity = BlockDevice::capacity_bytes(&fleet);
        let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
        let mut completions: Vec<Vec<Completion>> = vec![Vec::new(); INITIATORS];
        let mut merged = Vec::new();
        let (mut id, mut at) = (0u64, SimTime::ZERO);
        prefill(
            &mut fleet,
            &mut queues,
            &mut completions,
            &mut merged,
            &mut id,
            &mut at,
        );
        fleet.fail_device(3).expect("degrade");

        // Scale the TPC-C volume (database + wrap-around log) to the
        // exported capacity and replay it against the degraded array on
        // fresh queues (trace arrivals restart at zero).
        let database_bytes = (capacity * 3 / 4) / 8192 * 8192;
        let tpcc = TpccConfig {
            transactions: 300,
            database_bytes,
            log_bytes: (capacity - database_bytes) / 8192 * 8192,
            seed: 0x7CC_0F1EE,
            ..TpccConfig::default()
        };
        let trace = tpcc.generate();
        let mut queues: Vec<HostQueue> = (0..INITIATORS).map(|_| HostQueue::new()).collect();
        let mut pending = 0usize;
        for (k, op) in trace.ops.iter().enumerate() {
            let cmd = op.to_command(id);
            id += 1;
            queues[k % INITIATORS].submit_with_priority(
                cmd.id,
                cmd.command,
                cmd.arrival,
                cmd.priority,
            );
            pending += 1;
            if pending == 64 {
                serve_and_drain(&mut fleet, &mut queues, &mut completions, &mut merged);
                pending = 0;
            }
        }
        serve_and_drain(&mut fleet, &mut queues, &mut completions, &mut merged);
        assert_all_ok(&completions);
        assert!(
            fleet.degraded_reads() > 0,
            "the TPC-C slice must hit the failed member"
        );
        runs.push((threads, completions, merged));
    }
    let (_, ref first_completions, ref first_merged) = runs[0];
    for (threads, completions, merged) in &runs[1..] {
        assert_eq!(
            first_completions, completions,
            "threads={threads}: TPC-C completion schedules diverge"
        );
        assert_eq!(
            first_merged, merged,
            "threads={threads}: TPC-C merged logs diverge"
        );
    }
}
