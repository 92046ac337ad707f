//! Property: the closed driver leaves the device exactly as the open engine
//! does.
//!
//! When each request arrives no earlier than the previous one finished, the
//! open engine's queue never holds more than one request, every scheduler
//! picks that one request, and any queue depth has at most one occupant.
//! [`BlockDevice::submit`] does not run the engine — a lone command has
//! nothing to be scheduled against, so it takes the device's idle step and
//! dispatch step itself — and the engine is the reference it is held to:
//! submitting the requests one at a time and handing them to
//! `simulate_open` as one trace must give the same completions (statuses
//! included), device and FTL statistics, wear, background-cleaning
//! counters, blame records, and everything an attached recorder sees
//! except the engine's own `engine.*` counters.  That holds for both FTL
//! kinds, both schedulers and two queue depths; on a plain device and on
//! one with background GC, a finite map budget, the wear-out fault preset
//! and high-priority commands; with arrivals spaced apart and back to back
//! (the benchmark's closed loop).  A request the closed driver fails with a
//! typed error must fail the open engine with the same error and leave the
//! device in the same state.
//!
//! Seeded-loop style: each seed generates a different mix of reads and
//! overwrites with different gaps.

use ossd_block::{BlockDevice, BlockRequest, Completion, CompletionStatus, DeviceError, Priority};
use ossd_flash::{FaultConfig, FlashTiming, WearSummary};
use ossd_ftl::{CleaningMode, MapCacheConfig};
use ossd_gc::{BackgroundGcConfig, BackgroundGcStats};
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{SchedulerKind, Ssd, SsdConfig, SsdStats};
use ossd_telemetry::{
    BlameRecord, EventKind, MetricsSample, Recorder, RecorderConfig, ServiceClass, TraceEvent,
};

#[derive(Clone, Copy, Debug)]
enum FtlKind {
    Page,
    Stripe,
}

/// What the device under test has switched on.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Setup {
    /// The tiny device as configured: no faults, no background cleaning, a
    /// resident map, normal priority, 50 requests over 24 pages.
    Plain,
    /// Background GC, a finite map budget (the page FTL's; the stripe FTL
    /// keeps its map resident), priority-aware cleaning, the wear-out fault preset on a part rated
    /// for four erases — its raw bit-error base raised so that reads of
    /// worn blocks come back uncorrectable — and one command in ten at
    /// `Priority::High`: 160 requests over three quarters of the device,
    /// which some runs survive and some end in a typed error.
    Stressed,
}

/// When the next request arrives.
#[derive(Clone, Copy, Debug)]
enum Spacing {
    /// A random gap of 0.1–2.1 ms after the previous finish.
    Gapped,
    /// At the previous finish.
    BackToBack,
}

fn config(ftl: FtlKind, queue_depth: u32, setup: Setup, seed: u64) -> SsdConfig {
    let base = match ftl {
        FtlKind::Page => SsdConfig::tiny_page_mapped(),
        FtlKind::Stripe => SsdConfig::tiny_stripe_mapped(),
    };
    let mut config = base.with_queue_depth(queue_depth);
    if setup == Setup::Stressed {
        config.timing = FlashTiming {
            endurance: 4,
            ..FlashTiming::slc()
        };
        config.reliability.faults = FaultConfig {
            raw_ber_base: 1.0,
            ..FaultConfig::wearout(seed)
        };
        config.background_gc = Some(BackgroundGcConfig {
            min_idle_micros: 500,
            erase_budget: 2,
            target_free_fraction: 0.3,
        });
        config.ftl = config
            .ftl
            .with_map_cache(MapCacheConfig::default().with_budget(16));
        config.ftl.cleaning_mode = CleaningMode::PriorityAware;
    }
    config
}

/// A fresh device with a recorder and attribution attached.
fn device(config: &SsdConfig) -> (Ssd, std::sync::Arc<std::sync::Mutex<Recorder>>) {
    let mut ssd = Ssd::new(config.clone()).unwrap();
    let (handle, recorder) = Recorder::shared(RecorderConfig::default());
    ssd.set_telemetry(handle);
    ssd.enable_attribution();
    (ssd, recorder)
}

/// Everything one run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    completions: Result<Vec<Completion>, DeviceError>,
    stats: SsdStats,
    wear: WearSummary,
    background: Option<BackgroundGcStats>,
    blame: Vec<BlameRecord>,
    events: Vec<TraceEvent>,
    counters: Vec<(&'static str, u64)>,
    /// Count and sum of each service histogram.
    service: Vec<(u64, u128)>,
    samples: Vec<MetricsSample>,
}

fn observe(
    ssd: &mut Ssd,
    recorder: &std::sync::Mutex<Recorder>,
    completions: Result<Vec<Completion>, DeviceError>,
) -> Observed {
    let recorder = recorder.lock().unwrap();
    assert_eq!(recorder.dropped_events(), 0);
    Observed {
        completions,
        stats: ssd.stats(),
        wear: ssd.wear_summary(),
        background: ssd.background_gc_stats(),
        blame: ssd.take_blame_records(),
        events: recorder.events().to_vec(),
        counters: recorder
            .counters()
            .iter()
            .filter(|(name, _)| !name.starts_with("engine."))
            .collect(),
        service: [
            ServiceClass::Read,
            ServiceClass::Write,
            ServiceClass::Free,
            ServiceClass::Flush,
        ]
        .map(|class| {
            let histogram = recorder.service_histogram(class);
            (histogram.count(), histogram.sum())
        })
        .to_vec(),
        samples: recorder.series().samples().to_vec(),
    }
}

/// Generates the request mix for one seed and submits it closed, stopping
/// at the first error.  Returns the requests submitted, with their
/// arrivals fixed, and what the run left behind.
fn closed_run(
    config: &SsdConfig,
    setup: Setup,
    spacing: Spacing,
    seed: u64,
) -> (Vec<BlockRequest>, Observed) {
    let (mut ssd, recorder) = device(config);
    let (count, pages) = match setup {
        Setup::Plain => (50, 24),
        Setup::Stressed => (160, ssd.capacity_bytes() / 4096 * 3 / 4),
    };
    let mut rng = SimRng::seed_from_u64(seed);
    let mut requests = Vec::new();
    let mut completions = Ok(Vec::new());
    let mut at = SimTime::ZERO;
    for id in 0..count {
        let len = match setup {
            Setup::Plain => 1,
            Setup::Stressed => 1 + rng.next_u64_below(2),
        };
        let page = rng.next_u64_below(pages - len + 1);
        let mut request = if rng.next_u64_below(3) == 0 {
            BlockRequest::read(id, page * 4096, len * 4096, at)
        } else {
            BlockRequest::write(id, page * 4096, len * 4096, at)
        };
        if setup == Setup::Stressed && rng.chance(0.1) {
            request.priority = Priority::High;
        }
        requests.push(request);
        let finish = match ssd.submit(&request) {
            Ok(completion) => {
                completions.as_mut().unwrap().push(completion);
                completion.finish
            }
            Err(e) => {
                completions = Err(e);
                break;
            }
        };
        at = match spacing {
            Spacing::Gapped => finish + SimDuration::from_micros(100 + rng.next_u64_below(2000)),
            Spacing::BackToBack => finish,
        };
    }
    let observed = observe(&mut ssd, &recorder, completions);
    (requests, observed)
}

/// Which parts of two runs differ, and where their traces part.
fn differences(a: &Observed, b: &Observed) -> String {
    let parts = [
        ("completions", a.completions != b.completions),
        ("stats", a.stats != b.stats),
        ("wear", a.wear != b.wear),
        ("background", a.background != b.background),
        ("blame", a.blame != b.blame),
        ("counters", a.counters != b.counters),
        ("service", a.service != b.service),
        ("samples", a.samples != b.samples),
    ];
    let differing: Vec<&str> = parts.iter().filter(|p| p.1).map(|p| p.0).collect();
    let event = a.events.iter().zip(&b.events).position(|(x, y)| x != y);
    format!(
        "{differing:?}; first differing event {event:?} of {} and {}",
        a.events.len(),
        b.events.len()
    )
}

/// The same requests as one open trace.
fn open_run(config: &SsdConfig, scheduler: SchedulerKind, requests: &[BlockRequest]) -> Observed {
    let (mut ssd, recorder) = device(config);
    let completions = ssd
        .simulate_open(requests, scheduler)
        .map_err(DeviceError::from);
    observe(&mut ssd, &recorder, completions)
}

/// What the stressed runs reached, summed over runs, so a seed range is
/// known to exercise every case it is meant to.
#[derive(Debug, Default)]
struct Coverage {
    runs: u64,
    failed_runs: u64,
    uncorrectable: u64,
    high_priority: u64,
    background_erases: u64,
    map_misses: u64,
    idle_spans: u64,
}

fn check(seeds: impl Iterator<Item = u64>) -> Coverage {
    let mut coverage = Coverage::default();
    for seed in seeds {
        for setup in [Setup::Plain, Setup::Stressed] {
            for spacing in [Spacing::Gapped, Spacing::BackToBack] {
                for ftl in [FtlKind::Page, FtlKind::Stripe] {
                    for queue_depth in [1u32, 8] {
                        let config = config(ftl, queue_depth, setup, seed);
                        let (requests, closed) = closed_run(&config, setup, spacing, seed);
                        for scheduler in [SchedulerKind::Fcfs, SchedulerKind::Swtf] {
                            let open = open_run(&config, scheduler, &requests);
                            assert!(
                                open == closed,
                                "open != closed for seed {seed}, {setup:?}, {spacing:?}, {ftl:?}, \
                                 {scheduler:?}, qd {queue_depth}: {}",
                                differences(&open, &closed)
                            );
                        }
                        if setup == Setup::Stressed {
                            coverage.runs += 1;
                            coverage.failed_runs += closed.completions.is_err() as u64;
                            coverage.uncorrectable += closed
                                .completions
                                .iter()
                                .flatten()
                                .filter(|c| c.status == CompletionStatus::UncorrectableRead)
                                .count()
                                as u64;
                            coverage.high_priority += requests
                                .iter()
                                .filter(|r| r.priority == Priority::High)
                                .count()
                                as u64;
                            coverage.background_erases += closed.background.map_or(0, |b| b.erases);
                            coverage.map_misses += closed.stats.map.misses;
                            coverage.idle_spans += closed
                                .events
                                .iter()
                                .filter(|e| e.kind == EventKind::DeviceIdle)
                                .count() as u64;
                        }
                    }
                }
            }
        }
    }
    coverage
}

fn assert_covered(coverage: &Coverage) {
    let Coverage {
        runs,
        failed_runs,
        uncorrectable,
        high_priority,
        background_erases,
        map_misses,
        idle_spans,
    } = *coverage;
    assert!(
        failed_runs < runs
            && [
                failed_runs,
                uncorrectable,
                high_priority,
                background_erases,
                map_misses,
                idle_spans
            ]
            .iter()
            .all(|&count| count > 0),
        "a case went unexercised: {coverage:?}"
    );
}

#[test]
fn open_engine_with_spaced_arrivals_matches_closed_submission_exactly() {
    assert_covered(&check([1u64, 2, 3, 0xDEAD_BEEF].into_iter()));
}

#[test]
#[ignore = "long form (300 seeds); CI runs it in release with --ignored"]
fn open_engine_with_spaced_arrivals_matches_closed_submission_exactly_long() {
    assert_covered(&check(4..304));
}
