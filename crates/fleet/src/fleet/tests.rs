//! What only the inside of the fleet can check: a member that fails or
//! panics on an engine thread, a session rejected by validation, the run
//! merge against the sort it replaced, and how much of the content model
//! is materialised.

use super::*;
use ossd_sim::SimRng;

const PAGE: u64 = 4096;
const DEVICES: usize = 4;

fn fleet(threads: usize) -> Fleet {
    let config =
        FleetConfig::parity(SsdConfig::tiny_page_mapped(), DEVICES, PAGE).with_threads(threads);
    Fleet::new(config).expect("parity fleet")
}

/// Queues one full-row write per row in `rows`: every member is touched.
fn queue_rows(queues: &mut [HostQueue], rows: std::ops::Range<u64>, at: SimTime) {
    let row_bytes = (DEVICES as u64 - 1) * PAGE;
    for row in rows {
        let range = ByteRange::new(row * row_bytes, row_bytes);
        let hint = WriteHint::NONE;
        queues[row as usize % queues.len()].submit(row, HostCommand::Write { range, hint }, at);
    }
}

fn inject(fleet: &mut Fleet, device: usize, fault: Fault) {
    let member = fleet.slots[device].member.as_mut().expect("live member");
    member.fault = Some(fault);
}

fn drained(queues: &mut [HostQueue]) -> usize {
    queues.iter_mut().map(|q| q.drain_completions().len()).sum()
}

#[test]
fn a_rejected_session_leaves_the_last_sessions_signals_alone() {
    let mut fleet = fleet(2);
    let mut queues = [HostQueue::new(), HostQueue::new()];
    queue_rows(&mut queues, 0..6, SimTime::ZERO);
    fleet.serve(&mut queues).expect("session serves");
    assert_eq!(drained(&mut queues), 6);
    let log = fleet.last_session_log().to_vec();
    let fanout = fleet.last_fanout().to_vec();
    let pressure = fleet.last_pressure;
    assert!(!log.is_empty() && fanout.iter().all(|&n| n > 0) && pressure == 3);

    let capacity = fleet.capacity_bytes();
    let read = |offset, len| HostCommand::Read {
        range: ByteRange::new(offset, len),
    };
    let rejections = [
        (
            read(capacity, PAGE),
            DeviceError::OutOfBounds {
                end: capacity + PAGE,
                capacity,
            },
        ),
        (read(0, 0), DeviceError::EmptyRequest),
    ];
    for (command, error) in rejections {
        let what = error.to_string();
        queue_rows(&mut queues, 6..7, SimTime::from_micros(1));
        queues[1].submit(99, command, SimTime::from_micros(1));
        assert_eq!(fleet.serve(&mut queues), Err(error), "{what}");
        assert_eq!(fleet.last_session_log(), log, "{what}");
        assert_eq!(fleet.last_fanout(), fanout, "{what}");
        assert_eq!(fleet.last_pressure, pressure, "{what}");
        // Every submission stayed queued, nothing was posted.
        let queued: usize = queues.iter().map(|q| q.pending_submissions()).sum();
        assert_eq!((queued, drained(&mut queues)), (2, 0), "{what}");
        queues.iter_mut().for_each(|q| {
            q.cancel_submissions();
        });
    }
}

#[test]
fn a_member_that_errors_comes_back_to_its_slot() {
    // Device 0 is in the calling thread's chunk, device 3 in a worker's
    // (when there is one).
    for (threads, device) in [(1, 0), (1, 3), (2, 0), (2, 3), (4, 2)] {
        let mut fleet = fleet(threads);
        let mut queues = [HostQueue::new(), HostQueue::new()];
        queue_rows(&mut queues, 0..4, SimTime::ZERO);
        fleet.serve(&mut queues).expect("session serves");
        assert_eq!(drained(&mut queues), 4);
        let stats = fleet.device_stats(device);

        inject(&mut fleet, device, Fault::Error);
        queue_rows(&mut queues, 4..8, SimTime::from_micros(1));
        match fleet.serve(&mut queues) {
            Err(DeviceError::Internal(what)) => assert_eq!(
                what,
                format!(
                    "device {device} failed mid-session: internal device error: injected error"
                ),
            ),
            other => panic!("threads={threads}: expected an internal error, got {other:?}"),
        }
        assert_eq!(fleet.devices(), DEVICES);
        assert!(
            (0..DEVICES).all(|d| fleet.device_stats(d).is_some()),
            "threads={threads}"
        );
        assert_eq!(fleet.device_stats(device), stats, "it never ran");
        assert!(fleet.last_session_log().is_empty());
        assert_eq!(drained(&mut queues), 0);

        // The submissions are still queued; the retry serves them, and
        // finds none of the failed session's sub-commands in the members'
        // mirrored queues.
        fleet.serve(&mut queues).expect("retry serves");
        assert_eq!(drained(&mut queues), 4, "threads={threads}");
        let subs: u32 = fleet.last_fanout().iter().sum();
        assert_eq!(fleet.last_session_log().len(), subs as usize);
    }
}

#[test]
fn a_member_panic_resumes_on_the_calling_thread_with_every_member_back() {
    for (threads, device) in [(1, 1), (2, 0), (2, 3), (3, 2)] {
        let mut fleet = fleet(threads);
        let mut queues = [HostQueue::new()];
        inject(&mut fleet, device, Fault::Panic);
        queue_rows(&mut queues, 0..4, SimTime::ZERO);
        let payload = catch_unwind(AssertUnwindSafe(|| fleet.serve(&mut queues)))
            .expect_err("the panic must not be swallowed");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some(format!("injected panic in member {device}").as_str()),
            "threads={threads}"
        );
        // No slot was left empty, no worker died: the same fleet serves
        // the same session.
        assert!(
            (0..DEVICES).all(|d| fleet.device_stats(d).is_some()),
            "threads={threads}"
        );
        fleet.serve(&mut queues).expect("the fleet still serves");
        assert_eq!(drained(&mut queues), 4);
    }
}

/// Seeded runs as the engines produce them: run `r` holds devices `2r` and
/// `2r + 1`, few distinct finish times, several sub-completions of one
/// parent on one device (told apart by `start`), canonical order.
fn seeded_runs(rng: &mut SimRng, runs: usize) -> Vec<Vec<FleetSubCompletion>> {
    (0..runs)
        .map(|r| {
            let len = rng.next_u64_below(60) as usize;
            let mut run: Vec<FleetSubCompletion> = (0..len)
                .map(|i| FleetSubCompletion {
                    device: 2 * r + rng.next_u64_below(2) as usize,
                    parent_seq: rng.next_u64_below(12),
                    request_id: 0,
                    initiator: 0,
                    start: SimTime::from_nanos(i as u64),
                    finish: SimTime::from_nanos(rng.next_u64_below(6)),
                    status: CompletionStatus::Ok,
                })
                .collect();
            run.sort_by_key(FleetSubCompletion::key);
            run
        })
        .collect()
}

#[test]
fn merging_runs_equals_sorting_them_before_and_after_a_repair() {
    let mut rng = SimRng::seed_from_u64(0x4D45_5247);
    for round in 0..300 {
        let runs = seeded_runs(&mut rng, 1 + round % 5);
        let mut sorted = runs.concat();
        sorted.sort_by_key(FleetSubCompletion::key);
        let mut merged = Vec::new();
        merge_runs(runs.iter().map(Vec::as_slice), &mut merged);
        assert_eq!(merged, sorted, "round {round}");

        // A repair moves some finishes later, onto and past their
        // neighbours'; the log is then sorted again, and must come out as
        // if the repaired finishes had been there from the start.
        let repaired = |s: &FleetSubCompletion| s.start.as_nanos().is_multiple_of(5);
        let mut from_scratch = runs.concat();
        for s in merged.iter_mut().chain(from_scratch.iter_mut()) {
            if repaired(s) {
                s.finish = SimTime::from_nanos(s.finish.as_nanos() + 1 + s.parent_seq % 3);
            }
        }
        merged.sort_by_key(FleetSubCompletion::key);
        from_scratch.sort_by_key(FleetSubCompletion::key);
        assert_eq!(merged, from_scratch, "round {round}, after repair");
    }
}

/// Serves `writes` seeded writes of 1–3 pages in one session.
fn churn(fleet: &mut Fleet, rng: &mut SimRng, writes: u64, at: SimTime) {
    let pages = fleet.capacity_bytes() / PAGE;
    let mut queues = [HostQueue::new()];
    for id in 0..writes {
        let first = rng.next_u64_below(pages);
        let len = (1 + rng.next_u64_below(3)).min(pages - first) * PAGE;
        let range = ByteRange::new(first * PAGE, len);
        let hint = WriteHint::NONE;
        queues[0].submit(id, HostCommand::Write { range, hint }, at);
    }
    fleet.serve(&mut queues).expect("churn serves");
    assert_eq!(drained(&mut queues), writes as usize);
}

fn materialised(fleet: &Fleet) -> usize {
    fleet
        .parity
        .as_ref()
        .expect("parity fleet")
        .model
        .materialised()
}

#[test]
fn only_a_failed_member_until_its_rebuild_completes_is_materialised() {
    let mut fleet = fleet(2);
    let rows = fleet.parity_rows().expect("parity fleet");
    let mut queues = [HostQueue::new(), HostQueue::new()];
    queue_rows(&mut queues, 0..rows, SimTime::ZERO);
    fleet.serve(&mut queues).expect("fill serves");
    assert_eq!(drained(&mut queues), rows as usize);
    let mut rng = SimRng::seed_from_u64(0x4D41_5445);
    churn(&mut fleet, &mut rng, 400, SimTime::from_millis(100));
    assert_eq!(materialised(&fleet), 0, "healthy after a fill and churn");
    assert!(fleet.scrub().expect("parity fleet").is_clean());

    for (cycle, failed) in [1, 3].into_iter().enumerate() {
        let at = SimTime::from_millis(1_000 * (1 + cycle as u64));
        fleet.fail_device(failed).expect("one failure is tolerated");
        assert_eq!(materialised(&fleet), 1, "degraded on {failed}");
        churn(&mut fleet, &mut rng, 200, at);
        fleet.replace_device(failed).expect("replace");
        let chunk = 16;
        let mut row = 0;
        while row < rows {
            assert_eq!(materialised(&fleet), 1, "rebuilt to row {row} of {rows}");
            let n = chunk.min(rows - row);
            let range = ByteRange::new(row * PAGE, n * PAGE);
            fleet.rebuild_range(failed, range, at).expect("rebuild");
            row += n;
        }
        assert_eq!(fleet.degraded_device(), None);
        assert!(fleet.scrub().expect("parity fleet").is_clean());
        assert_eq!(materialised(&fleet), 0, "rebuilt {failed}");
    }
}

#[test]
fn submit_serves_on_the_calling_thread_and_matches_one_thread() {
    let (mut one, mut two) = (fleet(1), fleet(2));
    let pages = one.capacity_bytes() / PAGE;
    let mut rng = SimRng::seed_from_u64(0x5B3D_1701);
    let mut at = SimTime::ZERO;
    for id in 0..600 {
        // Single pages, partial rows and runs across rows.
        let first = rng.next_u64_below(pages);
        let len = (1 + rng.next_u64_below(8)).min(pages - first) * PAGE;
        let request = match rng.next_u64_below(4) {
            0 => BlockRequest::read(id, first * PAGE, len, at),
            _ => BlockRequest::write(id, first * PAGE, len, at),
        };
        let c = one.submit(&request).expect("one thread");
        assert_eq!(two.submit(&request), Ok(c), "request {id}");
        assert_eq!(two.last_session_log(), one.last_session_log());
        at = c.finish;
    }
    assert!(
        two.workers.is_empty(),
        "a one-command session woke a worker"
    );
    for d in 0..DEVICES {
        assert_eq!(two.device_stats(d), one.device_stats(d), "device {d}");
        assert_eq!(two.device_ftl_stats(d), one.device_ftl_stats(d));
    }
    assert_eq!(two.scrub(), one.scrub());

    // A session of more than one command still uses the worker.
    let mut queues = [HostQueue::new()];
    queue_rows(&mut queues, 0..2, at);
    two.serve(&mut queues).expect("session serves");
    assert_eq!(two.workers.len(), 1);
}
