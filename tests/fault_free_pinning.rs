//! Fault-free pinning: the reliability subsystem must be invisible until a
//! fault model is installed.
//!
//! `ReliabilityConfig::none()` — the default on every profile and config —
//! installs no fault model at all: the flash array makes zero random draws
//! and takes exactly the pre-reliability code paths.  Two suites already
//! pin those paths bit-for-bit against pre-reliability fixtures:
//!
//! * `tests/engine_golden.rs` now builds its device with an *explicit*
//!   `ReliabilityConfig::none()`, so its FCFS/SWTF/background-GC schedules
//!   directly pin the fault-free reliability configuration;
//! * `tests/queue_pair_golden.rs` pins the default-constructed closed
//!   driver, which is the same `none()` configuration.
//!
//! This file closes the remaining gap with a seeded property: a device
//! built with the explicit `none()` model is bit-for-bit identical to a
//! default-built device — completions, statistics and reliability counters
//! — for both FTL kinds × both schedulers × closed and open drivers, and
//! every completion carries `CompletionStatus::Ok`.

use ossd::block::{BlockDevice, BlockOpKind, BlockRequest, Completion, HostInterface, HostQueue};
use ossd::flash::ReliabilityConfig;
use ossd::sim::{SimDuration, SimRng, SimTime};
use ossd::ssd::{SchedulerKind, Ssd, SsdConfig};

#[derive(Clone, Copy, Debug)]
enum FtlKind {
    Page,
    Stripe,
}

fn config(ftl: FtlKind, scheduler: SchedulerKind) -> SsdConfig {
    let base = match ftl {
        FtlKind::Page => SsdConfig::tiny_page_mapped(),
        FtlKind::Stripe => SsdConfig::tiny_stripe_mapped(),
    };
    let mut config = base.with_scheduler(scheduler);
    config.ftl = config.ftl.with_honor_free(true).with_watermarks(0.3, 0.1);
    config
}

fn trace(seed: u64, pages: u64) -> Vec<BlockRequest> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut at = SimTime::ZERO;
    let mut out = Vec::new();
    for id in 0..80u64 {
        if rng.next_u64_below(4) != 0 {
            at += SimDuration::from_micros(rng.next_u64_below(250));
        }
        let page = rng.next_u64_below(pages);
        let req = match rng.next_u64_below(6) {
            0 => BlockRequest::free(id, page * 4096, 4096, at),
            1 | 2 => BlockRequest::read(id, page * 4096, 4096, at),
            _ => BlockRequest::write(id, page * 4096, 4096, at),
        };
        out.push(req);
    }
    out
}

/// Serves `requests` as one initiator's queue; completions in posting
/// order.
fn serve_open(ssd: &mut Ssd, requests: &[BlockRequest]) -> Vec<Completion> {
    let mut queue = HostQueue::new();
    requests.iter().for_each(|r| queue.submit_request(r));
    ssd.serve(std::slice::from_mut(&mut queue)).unwrap();
    queue.drain_completions()
}

fn run_closed(ssd: &mut Ssd, requests: &[BlockRequest]) -> Vec<Completion> {
    let mut at = SimTime::ZERO;
    requests
        .iter()
        .map(|r| {
            let mut r = *r;
            r.arrival = at.max(r.arrival);
            let c = ssd.submit(&r).unwrap();
            at = c.finish;
            c
        })
        .collect()
}

#[test]
fn explicit_none_model_is_bit_for_bit_the_default_device() {
    for seed in [5u64, 71, 0xFA01] {
        for ftl in [FtlKind::Page, FtlKind::Stripe] {
            for scheduler in [SchedulerKind::Fcfs, SchedulerKind::Swtf] {
                let default_config = config(ftl, scheduler);
                assert!(default_config.reliability.is_none());
                let explicit_config =
                    config(ftl, scheduler).with_reliability(ReliabilityConfig::none());

                let mut default_ssd = Ssd::new(default_config).unwrap();
                let mut explicit_ssd = Ssd::new(explicit_config).unwrap();
                let pages = default_ssd.capacity_bytes() / 4096;
                let requests = trace(seed, pages);

                // Closed driver (the schedule queue_pair_golden pins).
                let reads: Vec<BlockRequest> = requests
                    .iter()
                    .filter(|r| r.kind != BlockOpKind::Free)
                    .cloned()
                    .collect();
                let got_default = run_closed(&mut default_ssd, &reads);
                let got_explicit = run_closed(&mut explicit_ssd, &reads);
                assert_eq!(
                    got_default, got_explicit,
                    "closed schedules diverged: seed {seed}, {ftl:?}, {scheduler:?}"
                );
                assert!(got_explicit.iter().all(|c| c.is_ok()));

                // Open driver (the schedule engine_golden pins).
                let mut default_ssd = Ssd::new(config(ftl, scheduler)).unwrap();
                let mut explicit_ssd =
                    Ssd::new(config(ftl, scheduler).with_reliability(ReliabilityConfig::none()))
                        .unwrap();
                let open_default = serve_open(&mut default_ssd, &requests);
                let open_explicit = serve_open(&mut explicit_ssd, &requests);
                assert_eq!(
                    open_default, open_explicit,
                    "open schedules diverged: seed {seed}, {ftl:?}, {scheduler:?}"
                );
                assert!(open_explicit.iter().all(|c| c.is_ok()));

                // Statistics agree and record a perfect medium.
                assert_eq!(default_ssd.stats(), explicit_ssd.stats());
                let reliability = explicit_ssd.stats().reliability;
                assert_eq!(reliability, Default::default());
                assert_eq!(explicit_ssd.wear_summary(), default_ssd.wear_summary());
                assert_eq!(explicit_ssd.wear_summary().retired_blocks, 0);
            }
        }
    }
}
