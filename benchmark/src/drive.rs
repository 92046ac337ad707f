//! Drives generated commands into a device through its public interface,
//! times the calls, and checks every completion that comes back.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ossd_block::{
    arbitrate_round_robin, complete_session, BlockDevice, BlockRequest, ByteRange, Completion,
    DeviceError, HostCommand, HostInterface, HostQueue, WriteHint,
};
use ossd_fleet::Fleet;
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdStats};

use crate::gen::{Cmd, Stream};
use crate::lower::Lowered;
use crate::stats::{Fingerprint, LatencyHistogram};
use crate::trace::SpanLog;
use crate::workloads::{Drive, Workload, PAGE_BYTES};

/// One `submit` in this many gets its own span on a traced run; the rest
/// are covered by their batch's span, which keeps tracing within its
/// overhead budget.
const SUBMIT_SPAN_EVERY: usize = 64;

/// The device under test: one SSD, or a fleet of them.
pub enum Target {
    Ssd(Box<Ssd>),
    Fleet(Box<Fleet>),
    /// A lower boundary of the same device (traced runs only).
    Lowered(Box<Lowered>),
}

/// Cumulative counts read from the public stats accessors; subtract two
/// snapshots for the counts of a window.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Flash operations accepted by element queues
    /// (`ElementQueue::ops_accepted`; derived from `FtlStats` on a fleet,
    /// which does not expose its members' queues).
    pub flash_ops: u64,
    pub device_pages_written: u64,
    pub device_pages_read: u64,
    pub programs: u64,
    pub page_reads: u64,
    pub moved: u64,
    pub erases: u64,
    pub gc_moved: u64,
    pub gc_erased: u64,
    pub host_busy_ns: u64,
    pub cleaning_busy_ns: u64,
    pub other_busy_ns: u64,
    pub element_busy_ns: u64,
    pub peak_queued: u64,
    pub map_hits: u64,
    pub map_misses: u64,
    pub map_reads: u64,
    pub map_writes: u64,
    pub evictions_clean: u64,
    pub evictions_dirty: u64,
    pub read_retries: u64,
    pub uncorrectable: u64,
}

impl Counts {
    fn add_device(&mut self, s: &SsdStats) {
        let f = &s.ftl;
        let moved = f.gc_pages_moved + f.bg_pages_moved + f.wear_level_moves;
        self.device_pages_written += f.host_writes;
        self.device_pages_read += f.host_reads;
        self.programs += f.pages_programmed_host + moved + s.map.map_writes;
        self.page_reads += f.pages_read_host + s.reliability.read_retries + s.map.map_reads;
        self.moved += moved;
        self.erases += f.gc_blocks_erased + f.bg_blocks_erased;
        self.gc_moved += f.gc_pages_moved;
        self.gc_erased += f.gc_blocks_erased;
        self.host_busy_ns += s.host_busy.as_nanos();
        self.cleaning_busy_ns += s.cleaning_busy.as_nanos();
        self.other_busy_ns += s.background_cleaning_busy.as_nanos() + s.wear_level_busy.as_nanos();
        self.map_hits += s.map.hits;
        self.map_misses += s.map.misses;
        self.map_reads += s.map.map_reads;
        self.map_writes += s.map.map_writes;
        self.evictions_clean += s.map.evictions_clean;
        self.evictions_dirty += s.map.evictions_dirty;
        self.read_retries += s.reliability.read_retries;
        self.uncorrectable += s.reliability.uncorrectable_reads;
    }

    /// Flash operations implied by the stats counters: one per page read,
    /// retried, programmed or moved, and one per erase.
    fn derived_flash_ops(&self) -> u64 {
        self.page_reads + self.programs + self.erases
    }

    pub fn of_ssd(ssd: &Ssd) -> Counts {
        let mut c = Counts::default();
        c.add_device(&ssd.stats());
        c.flash_ops = ssd.element_queues().iter().map(|q| q.ops_accepted()).sum();
        c.element_busy_ns = ssd
            .element_queues()
            .iter()
            .map(|q| q.server().busy_total().as_nanos())
            .sum();
        c.peak_queued = ssd
            .element_queues()
            .iter()
            .map(|q| q.peak_queued() as u64)
            .max()
            .unwrap_or(0);
        c
    }

    /// Every cumulative field minus `earlier`'s (`peak_queued` is a
    /// high-water mark and is kept as is).
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            flash_ops: self.flash_ops - earlier.flash_ops,
            device_pages_written: self.device_pages_written - earlier.device_pages_written,
            device_pages_read: self.device_pages_read - earlier.device_pages_read,
            programs: self.programs - earlier.programs,
            page_reads: self.page_reads - earlier.page_reads,
            moved: self.moved - earlier.moved,
            erases: self.erases - earlier.erases,
            gc_moved: self.gc_moved - earlier.gc_moved,
            gc_erased: self.gc_erased - earlier.gc_erased,
            host_busy_ns: self.host_busy_ns - earlier.host_busy_ns,
            cleaning_busy_ns: self.cleaning_busy_ns - earlier.cleaning_busy_ns,
            other_busy_ns: self.other_busy_ns - earlier.other_busy_ns,
            element_busy_ns: self.element_busy_ns - earlier.element_busy_ns,
            peak_queued: self.peak_queued,
            map_hits: self.map_hits - earlier.map_hits,
            map_misses: self.map_misses - earlier.map_misses,
            map_reads: self.map_reads - earlier.map_reads,
            map_writes: self.map_writes - earlier.map_writes,
            evictions_clean: self.evictions_clean - earlier.evictions_clean,
            evictions_dirty: self.evictions_dirty - earlier.evictions_dirty,
            read_retries: self.read_retries - earlier.read_retries,
            uncorrectable: self.uncorrectable - earlier.uncorrectable,
        }
    }

    pub fn map_hit_rate(&self) -> f64 {
        let lookups = self.map_hits + self.map_misses;
        if lookups == 0 {
            0.0
        } else {
            self.map_hits as f64 / lookups as f64
        }
    }
}

impl Target {
    pub fn build(w: &Workload, threads: usize) -> Target {
        if w.is_fleet() {
            Target::Fleet(Box::new(
                Fleet::new(w.fleet_config(threads)).expect("valid fleet configuration"),
            ))
        } else {
            Target::Ssd(Box::new(
                Ssd::new(w.ssd_config()).expect("valid device configuration"),
            ))
        }
    }

    pub fn logical_pages(&self) -> u64 {
        let bytes = match self {
            Target::Ssd(d) => d.capacity_bytes(),
            Target::Fleet(d) => d.capacity_bytes(),
            Target::Lowered(d) => d.capacity_bytes(),
        };
        bytes / PAGE_BYTES
    }

    fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
        match self {
            Target::Ssd(d) => d.submit(request),
            Target::Fleet(d) => d.submit(request),
            Target::Lowered(d) => d.submit(request),
        }
    }

    fn serve(&mut self, queues: &mut [HostQueue]) -> Result<(), DeviceError> {
        match self {
            Target::Ssd(d) => d.serve(queues),
            Target::Fleet(d) => d.serve(queues),
            Target::Lowered(d) => d.serve(queues),
        }
    }

    fn serve_name(&self) -> &'static str {
        match self {
            Target::Ssd(_) => "Ssd::serve",
            Target::Fleet(_) => "Fleet::serve",
            Target::Lowered(_) => "Lowered::serve",
        }
    }

    fn layer(&self) -> &'static str {
        match self {
            Target::Ssd(_) => "ssd",
            Target::Fleet(_) => "fleet",
            Target::Lowered(_) => "bench",
        }
    }

    pub fn counts(&self) -> Counts {
        match self {
            Target::Ssd(d) => Counts::of_ssd(d),
            Target::Fleet(fleet) => {
                let mut c = Counts::default();
                for i in 0..fleet.devices() {
                    c.add_device(&fleet.device_stats(i).expect("no member is failed"));
                }
                c.flash_ops = c.derived_flash_ops();
                c
            }
            Target::Lowered(lowered) => {
                let mut c = Counts::default();
                for stats in lowered.member_stats() {
                    c.add_device(&stats);
                }
                c.flash_ops = c.derived_flash_ops();
                c
            }
        }
    }

    /// Sub-commands the fleet fanned out in its last session (0 on an SSD).
    fn last_fanout(&self) -> u64 {
        match self {
            Target::Ssd(_) | Target::Lowered(_) => 0,
            Target::Fleet(f) => f.last_fanout().iter().map(|&n| n as u64).sum(),
        }
    }
}

/// What the completions of a window added up to.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    /// Commands with a serve error, a non-`Ok` status or no completion.
    pub failed: u64,
    /// Completions that were duplicated, unknown, or out of order in time
    /// (`arrival <= start <= finish` with the submitted arrival).
    pub malformed: u64,
    /// The first error a `submit` or `serve` returned, if any did.
    pub first_error: Option<String>,
    pub latency: LatencyHistogram,
    pub fingerprint: Fingerprint,
    pub host_bytes: u64,
    pub host_pages_written: u64,
    pub timed: Duration,
    pub sim_first_arrival_ns: Option<u64>,
    pub sim_last_finish_ns: u64,
    /// Open loop: sum over sessions of how far the last completion trails
    /// the last arrival.
    pub backlog_ns: u64,
    /// Sum over commands of `start - arrival`: with the window length this
    /// gives the mean number of commands waiting at the controller.
    pub queue_wait_ns: u64,
    pub sessions: u64,
    pub fanout: u64,
    pub arbitrate: Duration,
    pub complete_session: Duration,
    pub queue_io: Duration,
}

impl Tally {
    pub fn sim_window_ns(&self) -> u64 {
        self.sim_last_finish_ns - self.sim_first_arrival_ns.unwrap_or(self.sim_last_finish_ns)
    }
}

/// A device, the command stream aimed at it, and the bookkeeping between.
pub struct Driver {
    pub target: Target,
    pub tally: Tally,
    drive: Drive,
    stream: Stream,
    queues: Vec<HostQueue>,
    /// When the next closed-loop command (or burst session) arrives.
    now_ns: u64,
    next_id: u64,
    cmds: Vec<Cmd>,
    arrivals: Vec<u64>,
    done: Vec<Option<Completion>>,
}

impl Driver {
    /// Builds the device and prefills it: one sequential pass of 64-page
    /// writes over the whole exported space, so every later write
    /// supersedes a mapped page.
    pub fn new(w: &Workload, threads: usize, seed: u64) -> Driver {
        Driver::over(w, Target::build(w, threads), seed)
    }

    /// [`Driver::new`] over a target built by the caller.
    pub fn over(w: &Workload, target: Target, seed: u64) -> Driver {
        let logical_pages = target.logical_pages();
        let mut driver = Driver {
            target,
            tally: Tally::default(),
            drive: w.drive(),
            stream: Stream::new(seed, w.mix(logical_pages), logical_pages),
            queues: vec![HostQueue::new(); w.initiators()],
            now_ns: 0,
            next_id: 0,
            cmds: Vec::new(),
            arrivals: Vec::new(),
            done: Vec::new(),
        };
        let mut lpn = 0;
        while lpn < logical_pages {
            let pages = 64.min(logical_pages - lpn);
            let request = BlockRequest::write(
                driver.next_id,
                lpn * PAGE_BYTES,
                pages * PAGE_BYTES,
                SimTime::from_nanos(driver.now_ns),
            );
            let c = driver.target.submit(&request).expect("prefill write");
            driver.now_ns = c.finish.as_nanos();
            driver.next_id += 1;
            lpn += pages;
        }
        if matches!(driver.drive, Drive::Open { .. }) {
            driver.restart_arrivals();
        }
        driver
    }

    /// Open loop: lets the device drain, then restarts the arrival schedule
    /// a millisecond later.
    pub fn restart_arrivals(&mut self) {
        let base = self.now_ns.max(self.tally.sim_last_finish_ns) + 1_000_000;
        self.stream.start_arrivals_at(base);
    }

    /// Switches how the remaining commands are driven (the traced run's
    /// load sweep and burst probes reuse a warmed device).
    pub fn set_drive(&mut self, drive: Drive) {
        self.drive = drive;
        if matches!(drive, Drive::Open { .. }) {
            self.restart_arrivals();
        } else {
            self.now_ns = self.now_ns.max(self.tally.sim_last_finish_ns);
        }
    }

    pub fn reset_tally(&mut self) {
        let last = self.tally.sim_last_finish_ns.max(self.now_ns);
        self.tally = Tally {
            sim_last_finish_ns: last,
            ..Tally::default()
        };
    }

    /// Generates, drives and checks the next `n` commands as one batch (one
    /// `serve` session, or `n` back-to-back submits at depth 1).  Only the
    /// calls into the device and its queues are timed; generation and
    /// checking happen outside the clock.  On a traced run every call gets
    /// a span in `spans`, tagged with `segment`.
    pub fn run_batch(&mut self, n: usize, segment: u32, mut spans: Option<&mut SpanLog>) {
        self.cmds.clear();
        self.arrivals.clear();
        for _ in 0..n {
            self.cmds.push(self.stream.next_cmd());
            match self.drive {
                Drive::Closed1 => {}
                Drive::Open { rate } => self.arrivals.push(self.stream.next_arrival_ns(rate)),
                Drive::Burst => self.arrivals.push(self.now_ns),
            }
        }
        self.done.clear();
        self.done.resize(n, None);
        let base_id = self.next_id;
        self.next_id += n as u64;
        let mut serve_failed = false;

        match self.drive {
            Drive::Closed1 => {
                let mut at = self.now_ns;
                let begin = Instant::now();
                for i in 0..n {
                    let cmd = self.cmds[i];
                    let id = base_id + i as u64;
                    let arrival = SimTime::from_nanos(at);
                    let (offset, len) = (cmd.lpn * PAGE_BYTES, cmd.pages as u64 * PAGE_BYTES);
                    let request = if cmd.write {
                        BlockRequest::write(id, offset, len, arrival)
                    } else {
                        BlockRequest::read(id, offset, len, arrival)
                    };
                    let sampled = spans.is_some() && i % SUBMIT_SPAN_EVERY == 0;
                    let t0 = sampled.then(Instant::now);
                    let result = self.target.submit(&request);
                    if let (Some(t0), Some(log)) = (t0, spans.as_deref_mut()) {
                        log.push("Ssd::submit", "ssd", segment, t0, Instant::now(), None);
                    }
                    self.arrivals.push(at);
                    match result {
                        Ok(c) => {
                            at = c.finish.as_nanos();
                            self.done[i] = Some(c);
                        }
                        Err(e) => {
                            self.tally.first_error.get_or_insert_with(|| e.to_string());
                        }
                    }
                }
                let end = Instant::now();
                self.tally.timed += end - begin;
                if let Some(log) = spans.as_deref_mut() {
                    let batch = log.push("Ssd::submit batch", "ssd", segment, begin, end, None);
                    log.adopt_since(batch, begin);
                }
                self.now_ns = at;
            }
            Drive::Open { .. } | Drive::Burst => {
                let initiators = self.queues.len();
                let t0 = Instant::now();
                for i in 0..n {
                    let cmd = self.cmds[i];
                    let range = ByteRange::new(cmd.lpn * PAGE_BYTES, cmd.pages as u64 * PAGE_BYTES);
                    let command = if cmd.write {
                        HostCommand::Write {
                            range,
                            hint: WriteHint::NONE,
                        }
                    } else {
                        HostCommand::Read { range }
                    };
                    let id = base_id + i as u64;
                    self.queues[id as usize % initiators].submit(
                        id,
                        command,
                        SimTime::from_nanos(self.arrivals[i]),
                    );
                }
                let t1 = Instant::now();
                // Arbitration runs inside `serve`; calling it here as well,
                // on the same queues and outside the clock, prices it from
                // outside (it does not consume the submissions).
                let probe = spans.is_some().then(|| {
                    let p0 = Instant::now();
                    black_box(arbitrate_round_robin(black_box(&self.queues)));
                    (p0, Instant::now())
                });
                let t2 = Instant::now();
                let served = self.target.serve(&mut self.queues);
                let t3 = Instant::now();
                serve_failed = served.is_err();
                if let Err(e) = served {
                    self.tally.first_error.get_or_insert_with(|| e.to_string());
                    for q in &mut self.queues {
                        q.cancel_submissions();
                    }
                }
                for q in &mut self.queues {
                    while let Some(c) = q.poll() {
                        let slot = c.request_id.wrapping_sub(base_id) as usize;
                        match self.done.get_mut(slot) {
                            Some(entry @ None) => *entry = Some(c),
                            _ => self.tally.malformed += 1,
                        }
                    }
                }
                let t4 = Instant::now();
                self.tally.timed += (t1 - t0) + (t4 - t2);
                self.tally.queue_io += (t1 - t0) + (t4 - t3);
                self.tally.fanout += self.target.last_fanout();
                if let Some(log) = spans {
                    let name = self.target.serve_name();
                    let layer = self.target.layer();
                    log.push("HostQueue::submit batch", "block", segment, t0, t1, None);
                    let (p0, p1) = probe.expect("traced runs probe arbitration");
                    log.push(
                        "arbitrate_round_robin (probe)",
                        "block",
                        segment,
                        p0,
                        p1,
                        None,
                    );
                    self.tally.arbitrate += p1 - p0;
                    log.push(name, layer, segment, t2, t3, None);
                    log.push("HostQueue::poll batch", "block", segment, t3, t4, None);
                    self.probe_complete_session(base_id, segment, log);
                }
                if self.drive == Drive::Burst {
                    self.now_ns = self
                        .done
                        .iter()
                        .flatten()
                        .map(|c| c.finish.as_nanos())
                        .fold(self.now_ns, u64::max);
                }
            }
        }
        self.check_batch(base_id, serve_failed);
    }

    /// Prices `complete_session` (which also runs inside `serve`) by
    /// replaying this session's submissions and completions through
    /// bench-owned queues.
    fn probe_complete_session(&mut self, base_id: u64, segment: u32, log: &mut SpanLog) {
        let initiators = self.queues.len();
        let mut queues = vec![HostQueue::new(); initiators];
        let mut completed = Vec::with_capacity(self.done.len());
        for (i, c) in self.done.iter().enumerate() {
            let Some(c) = c else { continue };
            let initiator = (base_id + i as u64) as usize % initiators;
            queues[initiator].submit(c.request_id, HostCommand::Barrier, c.arrival);
            completed.push((initiator, *c));
        }
        let p0 = Instant::now();
        complete_session(black_box(&mut queues), black_box(completed));
        let p1 = Instant::now();
        black_box(&queues);
        self.tally.complete_session += p1 - p0;
        log.push("complete_session (probe)", "block", segment, p0, p1, None);
    }

    /// Exactly one completion per command, `arrival <= start <= finish`,
    /// status `Ok`; then the latency record and the fingerprint, in id order.
    fn check_batch(&mut self, base_id: u64, serve_failed: bool) {
        let t = &mut self.tally;
        t.sessions += 1;
        let mut last_arrival = 0;
        let mut last_finish = 0;
        for (i, (cmd, done)) in self.cmds.iter().zip(&self.done).enumerate() {
            t.attempted += 1;
            let arrival = self.arrivals[i];
            last_arrival = last_arrival.max(arrival);
            t.sim_first_arrival_ns.get_or_insert(arrival);
            let Some(c) = done else {
                t.failed += 1;
                continue;
            };
            let (start, finish) = (c.start.as_nanos(), c.finish.as_nanos());
            if c.request_id != base_id + i as u64
                || c.arrival.as_nanos() != arrival
                || start < arrival
                || finish < start
            {
                t.malformed += 1;
            }
            if !c.status.is_ok() || serve_failed {
                t.failed += 1;
            }
            let bytes = cmd.pages as u64 * PAGE_BYTES;
            t.host_bytes += bytes;
            if cmd.write {
                t.host_pages_written += cmd.pages as u64;
            }
            t.latency.record(finish.saturating_sub(arrival));
            t.queue_wait_ns += start.saturating_sub(arrival);
            t.fingerprint
                .completion(c.request_id, start, finish, !c.status.is_ok() as u64);
            last_finish = last_finish.max(finish);
        }
        t.sim_last_finish_ns = t.sim_last_finish_ns.max(last_finish);
        if matches!(self.drive, Drive::Open { .. }) {
            t.backlog_ns += last_finish.saturating_sub(last_arrival);
        }
    }
}
