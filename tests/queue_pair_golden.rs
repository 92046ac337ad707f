//! Golden pins and equivalence proofs for the queue-pair host interface.
//!
//! 1. `closed_driver_matches_pre_redesign_submit_schedule_*` — bit-for-bit
//!    pins of the `BlockDevice::submit` completion schedule, captured from
//!    the pre-redesign request-at-a-time implementation.  `submit` is now
//!    the depth-1 closed driver of the queue-pair protocol, so these pin
//!    the whole transport at depth 1.
//! 2. `single_initiator_session_matches_legacy_open_replay` — serving a
//!    trace through one `HostQueue` session reproduces, hash for hash, the
//!    completions of the legacy whole-trace open replay (golden-pinned in
//!    `engine_golden.rs`, and retired once this session was shown equal
//!    to it) for both FTL kinds × both schedulers × two queue depths —
//!    the protocol layer adds nothing at N = 1.
//! 3. Queue-pair-only behaviours: per-command submit/poll equivalence with
//!    `submit`, fence ordering, and multi-initiator determinism.

use ossd::block::{
    BlockDevice, BlockOpKind, BlockRequest, Completion, HostCommand, HostInterface, HostQueue,
};
use ossd::sim::{SimDuration, SimRng, SimTime};
use ossd::ssd::{SchedulerKind, Ssd, SsdConfig};

/// The deterministic closed trace the fixtures were captured with:
/// `(gap_micros, kind, page, page_count)` tuples over `pages` logical pages.
fn closed_trace(seed: u64, pages: u64) -> Vec<(u64, BlockOpKind, u64, u64)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..40u64 {
        let gap = rng.next_u64_below(400);
        let page = rng.next_u64_below(pages);
        let pages_n = if rng.next_u64_below(8) == 0 { 4 } else { 1 };
        let kind = match rng.next_u64_below(6) {
            0 => BlockOpKind::Free,
            1 | 2 => BlockOpKind::Read,
            _ => BlockOpKind::Write,
        };
        out.push((gap, kind, page.min(pages - pages_n), pages_n));
    }
    out
}

fn page_config() -> SsdConfig {
    let mut config = SsdConfig::tiny_page_mapped();
    config.ftl = config.ftl.with_honor_free(true).with_watermarks(0.3, 0.1);
    config
}

fn stripe_config() -> SsdConfig {
    let mut config = SsdConfig::tiny_stripe_mapped();
    config.ftl = config.ftl.with_honor_free(true).with_watermarks(0.3, 0.1);
    config
}

fn prefill(ssd: &mut Ssd) -> SimTime {
    let pages = ssd.capacity_bytes() / 4096;
    let mut at = SimTime::ZERO;
    for i in 0..pages / 2 {
        let c = ssd
            .submit(&BlockRequest::write(10_000 + i, i * 4096, 4096, at))
            .unwrap();
        at = c.finish;
    }
    at
}

/// Replays the golden closed trace through `submit`, chaining arrivals.
fn run_closed(mut ssd: Ssd) -> Vec<Completion> {
    run_closed_completions(&mut ssd)
}

fn assert_matches(completions: &[Completion], expected: &[(u64, u64)], label: &str) {
    assert_eq!(completions.len(), expected.len(), "{label}: length");
    for (i, (c, &(start, finish))) in completions.iter().zip(expected).enumerate() {
        assert_eq!(
            (c.start.as_nanos(), c.finish.as_nanos()),
            (start, finish),
            "{label}: request {i} diverged from the pre-redesign schedule"
        );
    }
}

/// Captured from `BlockDevice::submit` before the queue-pair redesign
/// (page-mapped tiny device, honor_free, watermarks 0.3/0.1).
const GOLDEN_CLOSED_PAGE: [(u64, u64); 40] = [
    (19579280, 19706680),
    (19849160, 20151560),
    (20200560, 20220560),
    (20528480, 21138080),
    (21540080, 21667480),
    (21942480, 22069880),
    (22219880, 22347280),
    (22634280, 22761680),
    (23165160, 23467560),
    (23512040, 23814440),
    (24075440, 24202840),
    (24590840, 24718240),
    (25064240, 25191640),
    (25423640, 25551040),
    (25894520, 26196920),
    (26583400, 26885800),
    (27334720, 27944320),
    (28067320, 28194720),
    (28465720, 28485720),
    (28820200, 29122600),
    (29314600, 29442000),
    (29607480, 29909880),
    (29936880, 29956880),
    (30402800, 31012400),
    (31388400, 31823000),
    (31957480, 32259880),
    (32533880, 32661280),
    (33001280, 33128680),
    (33352680, 33480080),
    (33824080, 33844080),
    (34083080, 34210480),
    (34384400, 34994000),
    (35366000, 35493400),
    (35577400, 36012000),
    (36413000, 36540400),
    (36941880, 37244280),
    (37591280, 37718680),
    (38036680, 38164080),
    (38477560, 38779960),
    (39180440, 39482840),
];

/// Captured from `BlockDevice::submit` before the queue-pair redesign
/// (stripe-mapped tiny device, honor_free, watermarks 0.3/0.1).
const GOLDEN_CLOSED_STRIPE: [(u64, u64); 40] = [
    (13979280, 14106680),
    (14208680, 14249160),
    (14298160, 14318160),
    (14626080, 15567880),
    (15969880, 16097280),
    (16372280, 16499680),
    (16649680, 16777080),
    (17064080, 17191480),
    (17554480, 17594960),
    (17639440, 18171640),
    (18432640, 18560040),
    (18948040, 19075440),
    (19421440, 19548840),
    (19780840, 19908240),
    (20251720, 20783920),
    (21170400, 21702600),
    (22151520, 23093320),
    (23216320, 23343720),
    (23614720, 23634720),
    (23928720, 23969200),
    (24161200, 24288600),
    (24454080, 24858880),
    (24885880, 24905880),
    (25351800, 26088800),
    (26464800, 26899400),
    (27033880, 27566080),
    (27840080, 27967480),
    (28307480, 28434880),
    (28658880, 28786280),
    (29130280, 29150280),
    (29389280, 29516680),
    (29690600, 30857400),
    (31229400, 31356800),
    (31440800, 31773000),
    (32174000, 32301400),
    (32702880, 33235080),
    (33582080, 33709480),
    (34027480, 34154880),
    (34468360, 36950560),
    (37351040, 37755840),
];

#[test]
fn closed_driver_matches_pre_redesign_submit_schedule_page() {
    let completions = run_closed(Ssd::new(page_config()).unwrap());
    assert_matches(&completions, &GOLDEN_CLOSED_PAGE, "closed-page");
}

#[test]
fn closed_driver_matches_pre_redesign_submit_schedule_stripe() {
    let completions = run_closed(Ssd::new(stripe_config()).unwrap());
    assert_matches(&completions, &GOLDEN_CLOSED_STRIPE, "closed-stripe");
}

/// `submit` and an explicit per-command enqueue-serve-poll loop over one
/// queue pair are the same driver.
#[test]
fn explicit_queue_pair_loop_equals_submit() {
    let mut via_submit = Ssd::new(page_config()).unwrap();
    let expected = run_closed_completions(&mut via_submit);

    let mut via_queue = Ssd::new(page_config()).unwrap();
    let pages = via_queue.capacity_bytes() / 4096;
    let mut at = prefill(&mut via_queue);
    let mut queue = HostQueue::new();
    let mut got = Vec::new();
    for (id, (gap, kind, page, n)) in closed_trace(0xC0DE_50DA, pages / 2).into_iter().enumerate() {
        at += SimDuration::from_micros(gap);
        let req = match kind {
            BlockOpKind::Read => BlockRequest::read(id as u64, page * 4096, n * 4096, at),
            BlockOpKind::Write => BlockRequest::write(id as u64, page * 4096, n * 4096, at),
            BlockOpKind::Free => BlockRequest::free(id as u64, page * 4096, n * 4096, at),
        };
        queue.submit_request(&req);
        via_queue.serve(std::slice::from_mut(&mut queue)).unwrap();
        let c = queue.poll().unwrap();
        at = c.finish;
        got.push(c);
    }
    assert_eq!(got, expected);
}

fn run_closed_completions(ssd: &mut Ssd) -> Vec<Completion> {
    let pages = ssd.capacity_bytes() / 4096;
    let mut at = prefill(ssd);
    let mut out = Vec::new();
    for (id, (gap, kind, page, n)) in closed_trace(0xC0DE_50DA, pages / 2).into_iter().enumerate() {
        at += SimDuration::from_micros(gap);
        let req = match kind {
            BlockOpKind::Read => BlockRequest::read(id as u64, page * 4096, n * 4096, at),
            BlockOpKind::Write => BlockRequest::write(id as u64, page * 4096, n * 4096, at),
            BlockOpKind::Free => BlockRequest::free(id as u64, page * 4096, n * 4096, at),
        };
        let c = ssd.submit(&req).unwrap();
        at = c.finish;
        out.push(c);
    }
    out
}

#[derive(Clone, Copy, Debug)]
enum FtlKind {
    Page,
    Stripe,
}

fn open_trace(seed: u64, pages: u64) -> Vec<BlockRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut at = SimTime::ZERO;
    let mut out = Vec::new();
    for id in 0..60u64 {
        if rng.next_u64_below(4) != 0 {
            at += SimDuration::from_micros(rng.next_u64_below(300));
        }
        let page = rng.next_u64_below(pages);
        let req = if rng.next_u64_below(3) == 0 {
            BlockRequest::read(id, page * 4096, 4096, at)
        } else {
            BlockRequest::write(id, page * 4096, 4096, at)
        };
        out.push(req);
    }
    out
}

/// FNV-1a 64 over each completion's id, arrival, start and finish (in
/// nanoseconds) and status, in input order.
fn completions_hash(completions: &[Completion]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for c in completions {
        let words = [
            c.request_id,
            c.arrival.as_nanos(),
            c.start.as_nanos(),
            c.finish.as_nanos(),
            c.status as u64,
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `completions_hash` of the legacy open replay's completions per
/// `(seed, FTL, scheduler, queue depth)`, captured before that replay was
/// retired in favour of one-queue sessions.  On the stripe FTL the two
/// schedulers gave the same completions.
const GOLDEN_OPEN_REPLAY: [(u64, FtlKind, SchedulerKind, u32, u64); 24] = {
    use FtlKind::{Page, Stripe};
    use SchedulerKind::{Fcfs, Swtf};
    [
        (0xb, Page, Fcfs, 1, 0x5b42eb5d63ff9fb1),
        (0xb, Page, Fcfs, 8, 0xe632d0fd03827f82),
        (0xb, Page, Swtf, 1, 0xadd50c422a9791fd),
        (0xb, Page, Swtf, 8, 0x47b6418f0755353a),
        (0xb, Stripe, Fcfs, 1, 0xc88c8e7a1659e78c),
        (0xb, Stripe, Fcfs, 8, 0xb6dd6ababb4d2f17),
        (0xb, Stripe, Swtf, 1, 0xc88c8e7a1659e78c),
        (0xb, Stripe, Swtf, 8, 0xb6dd6ababb4d2f17),
        (0x1d, Page, Fcfs, 1, 0x940ce235ebb3bcf2),
        (0x1d, Page, Fcfs, 8, 0x2ad83e90efc31a3b),
        (0x1d, Page, Swtf, 1, 0xc8518ed5ba990f9f),
        (0x1d, Page, Swtf, 8, 0xe5a1c33e3eb2f2f7),
        (0x1d, Stripe, Fcfs, 1, 0xbde8ed7fd7214a62),
        (0x1d, Stripe, Fcfs, 8, 0x336fa7742bab0016),
        (0x1d, Stripe, Swtf, 1, 0xbde8ed7fd7214a62),
        (0x1d, Stripe, Swtf, 8, 0x336fa7742bab0016),
        (0xbeef, Page, Fcfs, 1, 0xec0e06b23e9cefff),
        (0xbeef, Page, Fcfs, 8, 0xa95d037e9d22b6cc),
        (0xbeef, Page, Swtf, 1, 0x2ec9129daf12e295),
        (0xbeef, Page, Swtf, 8, 0x32d5a4d4364f52e0),
        (0xbeef, Stripe, Fcfs, 1, 0xe5418d7cc258ad4b),
        (0xbeef, Stripe, Fcfs, 8, 0x344d8155faac8982),
        (0xbeef, Stripe, Swtf, 1, 0xe5418d7cc258ad4b),
        (0xbeef, Stripe, Swtf, 8, 0x344d8155faac8982),
    ]
};

/// An N = 1 initiator session over `HostInterface::serve` reproduces the
/// legacy open replay's completions exactly — both FTLs × both schedulers
/// × several seeds and queue depths.
#[test]
fn single_initiator_session_matches_legacy_open_replay() {
    for (seed, ftl, scheduler, queue_depth, expected) in GOLDEN_OPEN_REPLAY {
        let base = match ftl {
            FtlKind::Page => page_config(),
            FtlKind::Stripe => stripe_config(),
        };
        let mut config = base.with_scheduler(scheduler).with_queue_depth(queue_depth);
        config.geometry.blocks_per_plane = 64;
        let mut ssd = Ssd::new(config).unwrap();
        prefill(&mut ssd);
        let requests = open_trace(seed, ssd.capacity_bytes() / 4096 / 2);
        let mut queue = HostQueue::new();
        for req in &requests {
            queue.submit_request(req);
        }
        ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
        // The session posts completions in completion order; the replay
        // returned input order, and the trace's ids count up from 0.
        let mut got = queue.drain_completions();
        got.sort_by_key(|c| c.request_id);
        assert_eq!(got.len(), requests.len());
        assert_eq!(
            completions_hash(&got),
            expected,
            "session != legacy open replay for seed {seed:#x}, {ftl:?}, \
             {scheduler:?}, qd {queue_depth}"
        );
    }
}

/// Fences order per initiator: a barrier completes only once every earlier
/// command of its initiator finished, and later commands wait for it.
#[test]
fn barriers_order_commands_within_an_initiator() {
    let mut ssd = Ssd::new(page_config().with_queue_depth(8)).unwrap();
    prefill(&mut ssd);
    let mut queue = HostQueue::new();
    let at = SimTime::from_millis(100);
    // Four writes to different pages, a barrier, then a read — all
    // submitted at the same instant with a deep dispatch window.
    for i in 0..4u64 {
        queue.submit_request(&BlockRequest::write(i, i * 4096, 4096, at));
    }
    queue.submit(4, HostCommand::Barrier, at);
    queue.submit_request(&BlockRequest::read(5, 0, 4096, at));
    ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
    let mut completions = queue.drain_completions();
    completions.sort_by_key(|c| c.request_id);
    let writes_done = completions[..4].iter().map(|c| c.finish).max().unwrap();
    let barrier = completions[4];
    let read = completions[5];
    assert_eq!(barrier.start, barrier.finish, "barriers do no device work");
    assert!(
        barrier.finish >= writes_done,
        "barrier completed at {:?} before the writes drained at {writes_done:?}",
        barrier.finish
    );
    assert!(
        read.start >= barrier.finish,
        "read started at {:?} before the barrier completed at {:?}",
        read.start,
        barrier.finish
    );
}

/// A flush behind buffered stripe writes drains them, and its completion
/// reflects the drain time.
#[test]
fn flush_command_drains_stripe_buffers() {
    let mut ssd = Ssd::new(stripe_config()).unwrap();
    let mut queue = HostQueue::new();
    // Half a stripe: buffered in controller RAM until flushed.
    queue.submit_request(&BlockRequest::write(0, 0, 4096, SimTime::ZERO));
    queue.submit(1, HostCommand::Flush, SimTime::ZERO);
    ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
    let write = queue.poll().unwrap();
    let flush = queue.poll().unwrap();
    assert_eq!(ssd.stats().buffered_writes, 1);
    assert!(
        flush.finish > write.finish,
        "flush {:?} should do real work after the buffered write {:?}",
        flush.finish,
        write.finish
    );
}

/// Deliberate semantics change from the redesign, pinned here: the closed
/// driver now reports priority pressure for a high-priority command (the
/// pre-redesign `submit` never did, while the open driver and the object
/// store always had).  §3.6 postpones cleaning while high-priority requests
/// are outstanding — including the one being serviced — so all drivers of
/// the queue-pair transport now agree.  Only configurations that opt into
/// `CleaningMode::PriorityAware` can observe this.
#[test]
fn closed_driver_reports_priority_pressure_uniformly() {
    use ossd::block::Priority;
    use ossd::ftl::FtlConfig;
    let run = |priority: Priority| -> u64 {
        let mut config = SsdConfig::tiny_page_mapped();
        config.ftl = FtlConfig::priority_aware()
            .with_overprovisioning(0.25)
            .with_watermarks(0.3, 0.05);
        let mut ssd = Ssd::new(config).unwrap();
        let pages = ssd.capacity_bytes() / 4096;
        let mut at = SimTime::ZERO;
        let mut id = 0u64;
        for round in 0..6u64 {
            for i in 0..pages {
                let lpn = (i * 13 + round) % pages;
                let req = BlockRequest::write(id, lpn * 4096, 4096, at).with_priority(priority);
                at = ssd.submit(&req).unwrap().finish;
                id += 1;
            }
        }
        ssd.ftl_stats().gc_postponements
    };
    assert_eq!(run(Priority::Normal), 0);
    assert!(
        run(Priority::High) > 0,
        "closed high-priority churn must postpone priority-aware cleaning"
    );
}

/// Multi-initiator sessions are deterministic and complete every command.
#[test]
fn multi_initiator_sessions_are_deterministic() {
    let run = || {
        let mut ssd = Ssd::new(page_config().with_queue_depth(4)).unwrap();
        prefill(&mut ssd);
        let pages = ssd.capacity_bytes() / 4096 / 2;
        let mut queues = vec![HostQueue::new(); 4];
        for (i, queue) in queues.iter_mut().enumerate() {
            let mut rng = SimRng::seed_from_u64(0xAB + i as u64);
            let mut at = SimTime::from_millis(50);
            for id in 0..30u64 {
                let page = rng.next_u64_below(pages);
                queue.submit_request(&BlockRequest::read(id, page * 4096, 4096, at));
                at += SimDuration::from_micros(rng.next_u64_below(100));
            }
        }
        ssd.serve(&mut queues).unwrap();
        queues
            .iter_mut()
            .flat_map(|q| q.drain_completions())
            .map(|c| (c.request_id, c.finish.as_nanos()))
            .collect::<Vec<_>>()
    };
    let first = run();
    assert_eq!(first.len(), 120, "every command completes");
    assert_eq!(first, run(), "same session, same schedule");
}
