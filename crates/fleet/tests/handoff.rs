//! The engine-thread hand-off: one fleet driven through many sessions
//! must not care how many threads run its members, which of them a
//! session touches, or what happened between sessions.
//!
//! A member's `Ssd` and mirrored queues move out of the fleet into a
//! parked worker and back on every session that needs more than one
//! engine, so the things to pin are the ones a per-session `thread::scope`
//! got for free: state carried from one session to the next (queues,
//! buffers, which chunk a member lands in), sessions smaller than the
//! thread count, a membership that changes under the workers, and threads
//! that outlive a session but not their fleet.

use ossd_block::{
    BlockDevice, BlockRequest, ByteRange, Completion, HostCommand, HostInterface, HostQueue,
    WriteHint,
};
use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_fleet::{Fleet, FleetConfig, FleetSubCompletion};
use ossd_ftl::{FtlConfig, FtlStats};
use ossd_sim::{SimDuration, SimRng, SimTime};
use ossd_ssd::{MappingKind, SchedulerKind, SsdConfig};

const PAGE: u64 = 4096;
const INITIATORS: usize = 3;
const DEVICES: usize = 4;

fn device_config() -> SsdConfig {
    SsdConfig {
        name: "handoff".to_string(),
        geometry: FlashGeometry {
            packages: 2,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: 32,
            pages_per_block: 16,
            page_bytes: PAGE as u32,
        },
        timing: FlashTiming::slc(),
        mapping: MappingKind::PageMapped,
        ftl: FtlConfig::default()
            .with_overprovisioning(0.12)
            .with_watermarks(0.10, 0.04),
        reliability: ReliabilityConfig::wearout(0x4A4D_0FF5),
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

fn parity_fleet(threads: usize) -> Fleet {
    let config = FleetConfig::parity(device_config(), DEVICES, PAGE)
        .with_threads(threads)
        .with_seed(0x0FF5_5EED);
    Fleet::new(config).expect("parity fleet")
}

/// Everything a run can be compared on.
#[derive(Debug, Default, PartialEq)]
struct Witness {
    completions: Vec<Completion>,
    log: Vec<FleetSubCompletion>,
    ftl: Vec<Option<FtlStats>>,
}

struct Driver {
    fleet: Fleet,
    queues: Vec<HostQueue>,
    rng: SimRng,
    id: u64,
    at: SimTime,
    witness: Witness,
}

impl Driver {
    fn new(threads: usize) -> Self {
        Driver {
            fleet: parity_fleet(threads),
            queues: (0..INITIATORS).map(|_| HostQueue::new()).collect(),
            rng: SimRng::seed_from_u64(0xD15C_0B01),
            id: 0,
            at: SimTime::ZERO,
            witness: Witness::default(),
        }
    }

    fn units(&self) -> u64 {
        self.fleet.capacity_bytes() / PAGE
    }

    /// Serves what `fill` queued and records the session.
    fn session(&mut self, fill: impl FnOnce(&mut Self)) {
        fill(self);
        self.fleet.serve(&mut self.queues).expect("session serves");
        self.witness
            .log
            .extend_from_slice(self.fleet.last_session_log());
        for queue in &mut self.queues {
            for c in queue.drain_completions() {
                self.at = self.at.max(c.finish);
                self.witness.completions.push(c);
            }
        }
        self.at += SimDuration::from_micros(10);
    }

    fn queue(&mut self, k: u64, command: HostCommand) {
        let initiator = self.id as usize % INITIATORS;
        self.queues[initiator].submit(self.id, command, self.at + SimDuration::from_micros(k));
        self.id += 1;
    }

    /// A session of `n` seeded reads, writes and frees of one to three
    /// units: every member, several sub-commands each.
    fn churn(&mut self, n: u64) {
        self.session(|d| {
            for k in 0..n {
                let units = 1 + d.rng.next_u64_below(3);
                let start = d.rng.next_u64_below(d.units() - units);
                let range = ByteRange::new(start * PAGE, units * PAGE);
                let command = match d.rng.next_u64_below(10) {
                    0..=5 => HostCommand::Write {
                        range,
                        hint: WriteHint::default(),
                    },
                    6..=8 => HostCommand::Read { range },
                    _ => HostCommand::Free { range },
                };
                d.queue(k, command);
            }
        });
    }

    /// A session of reads that all land on the member holding `unit`: one
    /// touched device, so one chunk, whatever the thread count.
    fn one_device_reads(&mut self, unit: u64, n: u64) {
        let row_units = DEVICES as u64 - 1;
        // Whole turns of the parity rotation: the same slot `DEVICES` rows
        // on is on the same member.
        let turns = self.units() / row_units / DEVICES as u64 * DEVICES as u64;
        self.session(|d| {
            for k in 0..n {
                let row = (unit / row_units + k * DEVICES as u64) % turns;
                let range = ByteRange::new((row * row_units + unit % row_units) * PAGE, PAGE);
                d.queue(k, HostCommand::Read { range });
            }
        });
        let touched = self.fleet.last_fanout().iter().filter(|&&n| n > 0);
        assert_eq!(touched.count(), 1, "the session was meant for one member");
    }

    /// `n` one-command sessions through `BlockDevice::submit`.
    fn submits(&mut self, n: u64) {
        for _ in 0..n {
            let unit = self.rng.next_u64_below(self.units());
            let request = if self.rng.next_u64_below(4) == 0 {
                BlockRequest::read(self.id, unit * PAGE, PAGE, self.at)
            } else {
                BlockRequest::write(self.id, unit * PAGE, PAGE, self.at)
            };
            self.id += 1;
            let c = self.fleet.submit(&request).expect("submit serves");
            self.witness
                .log
                .extend_from_slice(self.fleet.last_session_log());
            self.at = c.finish;
            self.witness.completions.push(c);
        }
    }

    fn finish(mut self) -> Witness {
        self.witness.ftl = (0..DEVICES)
            .map(|i| self.fleet.device_ftl_stats(i))
            .collect();
        self.witness
    }
}

/// The whole life of one fleet at a given thread count.
fn life(threads: usize) -> Witness {
    let mut d = Driver::new(threads);
    // Fill every row, then churn.
    let row_bytes = (DEVICES as u64 - 1) * PAGE;
    let rows = d.fleet.capacity_bytes() / row_bytes;
    for first in (0..rows).step_by(64) {
        d.session(|d| {
            for row in first..rows.min(first + 64) {
                d.queue(
                    row - first,
                    HostCommand::Write {
                        range: ByteRange::new(row * row_bytes, row_bytes),
                        hint: WriteHint::default(),
                    },
                );
            }
        });
    }
    for _ in 0..6 {
        d.churn(96);
    }
    // Sessions for one member only, between sessions for all of them.
    for unit in [0, 1, 2, 5] {
        d.one_device_reads(unit, 24);
        d.churn(8);
    }
    // Sessions of one command: one or two members each, so at most two
    // engines, and the workers park and wake five thousand times.
    d.submits(5_000);
    // The membership changes under the parked workers.
    d.fleet.fail_device(2).expect("degrade");
    for _ in 0..4 {
        d.churn(64);
    }
    d.fleet.replace_device(2).expect("replace");
    let device_rows = d.fleet.parity_rows().expect("parity fleet");
    let mut at = d.at;
    for row in (0..device_rows).step_by(32) {
        let n = 32.min(device_rows - row);
        let (_, write) = d
            .fleet
            .rebuild_range(2, ByteRange::new(row * PAGE, n * PAGE), at)
            .expect("rebuild chunk");
        at = write.finish;
        if row == 64 {
            // The split view: rebuilt rows on the replacement, the rest
            // still served by reconstruction.
            d.churn(64);
        }
    }
    assert_eq!(d.fleet.degraded_device(), None, "rebuild completed");
    d.at = d.at.max(at);
    for _ in 0..4 {
        d.churn(96);
    }
    assert!(d.fleet.scrub().expect("parity fleet").is_clean());
    d.finish()
}

#[test]
fn one_fleet_through_many_sessions_is_thread_count_invariant() {
    let reference = life(1);
    assert!(reference.log.len() > reference.completions.len());
    // 2: the benchmark's shape.  3: chunks of two, so two engines.  8:
    // more threads than the fleet has members.
    for threads in [2, 3, 8] {
        let got = life(threads);
        assert_eq!(
            reference.completions, got.completions,
            "threads={threads}: completions diverge"
        );
        assert_eq!(
            reference.log, got.log,
            "threads={threads}: merged logs diverge"
        );
        assert_eq!(
            reference.ftl, got.ftl,
            "threads={threads}: member FTL counters diverge"
        );
    }
}

#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Each fleet's three workers exist once it has served, and are gone —
/// joined by `Drop`, not detached — when it is.
#[test]
fn dropped_fleets_leave_no_threads_behind() {
    #[cfg(target_os = "linux")]
    let before = process_threads();
    for round in 0..200u64 {
        let mut fleet = parity_fleet(4);
        let mut queues = [HostQueue::new()];
        for row in 0..4u64 {
            queues[0].submit(
                row,
                HostCommand::Write {
                    range: ByteRange::new((round % 8 + row) * 3 * PAGE, 3 * PAGE),
                    hint: WriteHint::default(),
                },
                SimTime::ZERO,
            );
        }
        fleet.serve(&mut queues).expect("session serves");
        assert_eq!(queues[0].drain_completions().len(), 4);
    }
    // 600 threads were started.  The other tests of this binary run
    // beside this one with at most seven workers each.
    #[cfg(target_os = "linux")]
    assert!(
        process_threads() < before + 32,
        "engine threads outlived their fleets: {before} threads before, {} after",
        process_threads()
    );
}

#[test]
fn a_fleet_can_be_sent_to_another_thread() {
    fn assert_send<T: Send>() {}
    assert_send::<Fleet>();
    // And it works there, workers and all.
    let mut fleet = parity_fleet(2);
    let serve = move || {
        let request = BlockRequest::write(1, 0, 3 * PAGE, SimTime::ZERO);
        let first = fleet.submit(&request).expect("serves");
        (fleet, first)
    };
    let (mut fleet, first) = std::thread::spawn(serve).join().expect("no panic");
    let again = BlockRequest::write(2, 0, 3 * PAGE, first.finish);
    assert!(fleet.submit(&again).expect("serves").finish > first.finish);
}
