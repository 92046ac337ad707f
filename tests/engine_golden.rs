//! Golden pin: the event-driven engine at FCFS / queue-depth 1 must
//! reproduce, bit for bit, the completion sequence the pre-refactor
//! request-at-a-time controller produced on deterministic traces.  These
//! fixtures were captured from the sequential whole-trace open replay
//! before the engine refactor; they keep Tables 2-5 and the open-arrival
//! experiments reproducible across controller changes.  Each trace is
//! served as one initiator's queue (`HostInterface::serve`, the open
//! driver), with the scheduler set in the device's configuration.
//!
//! Three traces are pinned:
//! * `GOLDEN_FCFS`  - mixed reads/overwrites of a mapped region, tight
//!   arrivals, FCFS.
//! * `GOLDEN_SWTF`  - the same trace under shortest-wait-time-first.
//! * `GOLDEN_BG_FCFS` - widely spaced overwrite churn on a nearly full
//!   device with background GC enabled.  This one pins the *engine's*
//!   idle-window schedule (captured at the refactor): the engine observes
//!   the device's true idle structure, so background work lands in slightly
//!   different windows than the pre-refactor piggyback check placed it in
//!   (same windows cleaned, same erases and pages moved).  The closed-path
//!   background-GC behaviour is pinned separately by
//!   `idle_windows_trigger_background_cleaning` in `ossd-ssd`.

use ossd::block::{BlockDevice, BlockRequest, Completion, HostInterface, HostQueue};
use ossd::flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd::ftl::FtlConfig;
use ossd::gc::BackgroundGcConfig;
use ossd::sim::{SimDuration, SimRng, SimTime};
use ossd::ssd::{MappingKind, SchedulerKind, Ssd, SsdConfig};
use ossd_telemetry::{EventKind, Recorder, RecorderConfig};

fn golden_config() -> SsdConfig {
    SsdConfig {
        name: "golden".to_string(),
        geometry: FlashGeometry {
            packages: 4,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 64,
            pages_per_block: 16,
            page_bytes: 4096,
        },
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl: FtlConfig::default().with_watermarks(0.3, 0.1),
        // The explicit fault-free model: these pins double as the proof
        // that `ReliabilityConfig::none()` leaves the engine schedule
        // untouched bit-for-bit.
        reliability: ReliabilityConfig::none(),
        background_gc: None,
        gangs: 2,
        scheduler: SchedulerKind::Fcfs,
        queue_depth: 1,
        controller_overhead: SimDuration::from_micros(20),
        random_penalty: SimDuration::ZERO,
        sequential_prefetch: false,
        ram_bytes_per_sec: 200_000_000,
    }
}

/// 48 mixed reads/overwrites of a prefilled 128-page region; arrivals a few
/// tens of microseconds apart with occasional simultaneous pairs.  Every
/// request touches mapped data so the element hints are mapping-derived.
fn golden_trace() -> Vec<BlockRequest> {
    let mut rng = SimRng::seed_from_u64(0x601D_7EAC_E001);
    let mut at = SimTime::ZERO;
    let mut out = Vec::new();
    for id in 0..48u64 {
        if rng.next_u64_below(5) != 0 {
            at += SimDuration::from_micros(rng.next_u64_below(60));
        }
        let page = rng.next_u64_below(124);
        let pages = if rng.next_u64_below(8) == 0 { 4 } else { 1 };
        let req = if rng.next_u64_below(3) < 2 {
            BlockRequest::read(id, page * 4096, pages * 4096, at)
        } else {
            BlockRequest::write(id, page * 4096, pages * 4096, at)
        };
        out.push(req);
    }
    out
}

fn prefill(ssd: &mut Ssd) {
    for i in 0..128u64 {
        ssd.submit(&BlockRequest::write(
            1000 + i,
            i * 4096,
            4096,
            SimTime::ZERO,
        ))
        .unwrap();
    }
}

fn bg_config() -> SsdConfig {
    let mut config = SsdConfig {
        name: "golden-bg".to_string(),
        geometry: FlashGeometry::tiny(),
        gangs: 1,
        ..golden_config()
    };
    config.ftl = config
        .ftl
        .with_overprovisioning(0.25)
        .with_watermarks(0.15, 0.05);
    config.background_gc = Some(BackgroundGcConfig {
        min_idle_micros: 500,
        erase_budget: 2,
        target_free_fraction: 0.25,
    });
    config
}

/// Widely spaced overwrite churn on a nearly full tiny device: exercises the
/// idle-window background cleaning path.
fn bg_trace(logical_pages: u64) -> Vec<BlockRequest> {
    let mut rng = SimRng::seed_from_u64(0x601D_7EAC_E002);
    let mut at = SimTime::from_millis(1);
    let mut out = Vec::new();
    for id in 0..60u64 {
        let page = rng.next_u64_below(logical_pages);
        out.push(BlockRequest::write(id, page * 4096, 4096, at));
        at += SimDuration::from_millis(1);
    }
    out
}

/// Serves `requests` as one initiator's queue and returns the completions
/// in input order (the traces number their requests from 0).
fn serve_open(ssd: &mut Ssd, requests: &[BlockRequest]) -> Vec<Completion> {
    let mut queue = HostQueue::new();
    requests.iter().for_each(|r| queue.submit_request(r));
    ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
    let mut completions = queue.drain_completions();
    completions.sort_by_key(|c| c.request_id);
    completions
}

fn assert_matches(completions: &[Completion], expected: &[(u64, u64)], label: &str) {
    assert_eq!(completions.len(), expected.len(), "{label}: length");
    for (i, (c, &(start, finish))) in completions.iter().zip(expected).enumerate() {
        assert_eq!(
            (c.start.as_nanos(), c.finish.as_nanos()),
            (start, finish),
            "{label}: request {i} diverged from the pre-refactor schedule"
        );
    }
}

const GOLDEN_FCFS: [(u64, u64); 48] = [
    (6794080, 6921480),
    (6814080, 6941480),
    (6941480, 7243880),
    (6961480, 7088880),
    (7243880, 7371280),
    (7263880, 7391280),
    (7371280, 7673680),
    (7391280, 7518680),
    (7518680, 7821080),
    (7673680, 7801080),
    (7693680, 7903480),
    (7713680, 7841080),
    (7738680, 7943480),
    (7943480, 8245880),
    (8245880, 8373280),
    (8270880, 8475680),
    (8290880, 8418280),
    (8418280, 8720680),
    (8720680, 8848080),
    (8740680, 8868080),
    (8760680, 8950480),
    (8785680, 9052880),
    (9052880, 9355280),
    (9355280, 9482680),
    (9375280, 9585080),
    (9477200, 9989880),
    (9887480, 10014880),
    (9989880, 10117280),
    (10030360, 10332760),
    (10050360, 10337560),
    (10075360, 10424480),
    (10332760, 10460160),
    (10352760, 10562560),
    (10562560, 10864960),
    (10864960, 10992360),
    (10884960, 11012360),
    (10909960, 11114760),
    (10929960, 11217160),
    (11217160, 11519560),
    (11319080, 11724360),
    (11524360, 11826760),
    (11826280, 12231080),
    (12231080, 12358480),
    (12256080, 12460880),
    (12281080, 12563280),
    (12301080, 12428480),
    (12321080, 12530880),
    (12341080, 12633280),
];
const GOLDEN_SWTF: [(u64, u64); 48] = [
    (6794080, 6921480),
    (6814080, 6941480),
    (7043880, 7346280),
    (6834080, 7023880),
    (6854080, 7043880),
    (7063880, 7191280),
    (7289160, 7591560),
    (7309160, 7493960),
    (7596360, 7898760),
    (7083880, 7248680),
    (7616360, 7743760),
    (7334160, 7596360),
    (8849800, 9052000),
    (7248680, 7551080),
    (9539000, 9666400),
    (9559000, 9768800),
    (8809800, 9416600),
    (9519000, 9821400),
    (9579000, 9723800),
    (9599000, 9871200),
    (7636360, 7846160),
    (7866160, 8050960),
    (7846160, 8148560),
    (8674800, 8802200),
    (9619000, 9826200),
    (7968080, 8455760),
    (9891200, 10018600),
    (8699800, 8904600),
    (9871200, 10173600),
    (8739800, 9211800),
    (8789800, 9314200),
    (8270480, 8397880),
    (9911200, 10076000),
    (10076000, 10378400),
    (10448200, 10575600),
    (8829800, 9519000),
    (9931200, 10121000),
    (10096000, 10325800),
    (10428200, 10730600),
    (8372400, 8802680),
    (11045880, 11348280),
    (10575600, 11037800),
    (9951200, 10223400),
    (10116000, 10428200),
    (10468200, 10633000),
    (10980400, 11107800),
    (8719800, 8847200),
    (11005400, 11210200),
];
const GOLDEN_BG_FCFS: [(u64, u64); 60] = [
    (9870880, 10173280),
    (10111360, 10413760),
    (10213760, 10516160),
    (10316160, 10618560),
    (10556640, 10859040),
    (10659040, 10961440),
    (10899520, 11201920),
    (11001920, 11304320),
    (11104320, 11406720),
    (11344800, 11647200),
    (11447200, 11749600),
    (12040480, 12342880),
    (13040480, 15392880),
    (15458360, 15760760),
    (15560760, 15863160),
    (16040480, 16342880),
    (17040480, 19392880),
    (19233360, 19535760),
    (19335760, 19638160),
    (20040480, 20342880),
    (21040480, 23392880),
    (23233360, 23535760),
    (23433360, 23735760),
    (24040480, 24342880),
    (25040480, 27392880),
    (27233360, 27535760),
    (27433360, 27735760),
    (28040480, 28342880),
    (29040480, 31392880),
    (31233360, 31535760),
    (31335760, 31638160),
    (32040480, 32342880),
    (33040480, 35392880),
    (35233360, 35535760),
    (35433360, 35735760),
    (36040480, 36342880),
    (37040480, 39392880),
    (39233360, 39617880),
    (39458360, 39760760),
    (40040480, 40342880),
    (41040480, 43392880),
    (43233360, 43592880),
    (43458360, 43760760),
    (44040480, 44342880),
    (45040480, 47392880),
    (47233360, 47535760),
    (47335760, 47638160),
    (48040480, 48342880),
    (49040480, 51167880),
    (51008360, 51392880),
    (51233360, 51535760),
    (52040480, 52342880),
    (53040480, 55167880),
    (55233360, 55535760),
    (55335760, 55638160),
    (56040480, 56342880),
    (57040480, 59392880),
    (59233360, 59617880),
    (59458360, 59760760),
    (60040480, 60342880),
];

#[test]
fn engine_fcfs_qd1_matches_pre_refactor_schedule() {
    let mut ssd = Ssd::new(golden_config()).unwrap();
    prefill(&mut ssd);
    let completions = serve_open(&mut ssd, &golden_trace());
    assert_matches(&completions, &GOLDEN_FCFS, "fcfs");
}

#[test]
fn engine_swtf_qd1_matches_pre_refactor_schedule() {
    let mut ssd = Ssd::new(golden_config().with_scheduler(SchedulerKind::Swtf)).unwrap();
    prefill(&mut ssd);
    let completions = serve_open(&mut ssd, &golden_trace());
    assert_matches(&completions, &GOLDEN_SWTF, "swtf");
}

#[test]
fn engine_idle_windows_match_pre_refactor_background_cleaning() {
    let mut ssd = Ssd::new(bg_config()).unwrap();
    // Telemetry never alters the schedule; the recorder sees each cleaned
    // idle window as one span.
    let (handle, recorder) = Recorder::shared(RecorderConfig::default());
    ssd.set_telemetry(handle);
    let logical_pages = ssd.capacity_bytes() / 4096;
    for i in 0..logical_pages {
        ssd.submit(&BlockRequest::write(
            2000 + i,
            i * 4096,
            4096,
            SimTime::ZERO,
        ))
        .unwrap();
    }
    let completions = serve_open(&mut ssd, &bg_trace(logical_pages));
    assert_matches(&completions, &GOLDEN_BG_FCFS, "bg-fcfs");
    // The idle windows must actually have been donated to background GC.
    let ftl = ssd.ftl_stats();
    assert_eq!(ftl.bg_blocks_erased, 24);
    assert_eq!(ftl.bg_pages_moved, 145);
    let recorder = recorder.lock().unwrap();
    assert_eq!(recorder.dropped_events(), 0);
    let windows: Vec<(u64, u64)> = (recorder.events().iter())
        .filter(|e| e.kind == EventKind::GcBackgroundWindow)
        .map(|e| (e.a, e.b))
        .collect();
    assert_eq!(windows.len(), 12);
    let erases_and_moves = windows.iter().fold((0, 0), |t, w| (t.0 + w.0, t.1 + w.1));
    assert_eq!(erases_and_moves, (24, 145));
}
