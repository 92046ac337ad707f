//! The same command stream, driven at the boundaries beneath the device
//! under test: a fleet's member `Ssd`s fed the sub-commands the fleet would
//! fan out, and bare `PageFtl`s fed the identical page sequence.
//!
//! `Lowered` speaks the same `submit`/`serve` interface as the real device,
//! so the ordinary `Driver` drives it; it times only the calls into its
//! members.  A layer's self time is then the difference between two
//! boundaries.  Routing mirrors `Fleet::serve` step for step (global
//! arbitration, `parity::plan` fan-out into per-member queues, per-member
//! arbitration), so member-level runs reproduce the fleet's completions and
//! FTL-level runs reproduce the members' `FtlStats` exactly wherever the
//! device dispatches in arrival order.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ossd_block::{
    arbitrate_round_robin, complete_session, BlockRequest, ByteRange, Completion, CompletionStatus,
    DeviceError, HostCommand, HostInterface, HostQueue, WriteHint,
};
use ossd_fleet::parity::{self, ParityGeometry, SubOpKind};
use ossd_ftl::{FlashOp, Ftl, Lpn, PageFtl, WriteContext};
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdStats};

use crate::workloads::{Workload, PAGE_BYTES};

/// One FTL-level command in this many is timed on its own, to split the
/// FTL's time into reads and writes.
const FTL_SPAN_EVERY: u64 = 16;

pub enum Member {
    Ssd(Box<Ssd>),
    Ftl(Box<PageFtl>),
}

/// Host time spent in sampled FTL calls of one kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sampled {
    pub calls: u64,
    pub pages: u64,
    pub elapsed: Duration,
}

pub struct Lowered {
    /// `None` routes everything to the single member.
    parity: Option<ParityGeometry>,
    pub members: Vec<Member>,
    capacity_bytes: u64,
    ops: Vec<FlashOp>,
    seen: u64,
    /// Time inside the members' own entry points.
    pub member_time: Duration,
    /// Time inside `parity::plan`.
    pub plan_time: Duration,
    pub sampled_writes: Sampled,
    pub sampled_reads: Sampled,
}

impl Lowered {
    /// The members of `w`'s device at the `Ssd` boundary (fleet only).
    pub fn member_ssds(w: &Workload) -> Lowered {
        let config = w.fleet_config(1);
        let members: Vec<Member> = (0..config.devices)
            .map(|i| {
                let ssd = Ssd::new(config.device_config(i, 0)).expect("valid member configuration");
                Member::Ssd(Box::new(ssd))
            })
            .collect();
        Lowered::over(w, members)
    }

    /// The FTLs beneath `w`'s device (one per fleet member), with the map
    /// budget multiplied by `budget_factor`.
    pub fn ftls(w: &Workload, budget_factor: u64) -> Lowered {
        let count = if w.is_fleet() { w.fleet_devices() } else { 1 };
        let members: Vec<Member> = (0..count)
            .map(|_| {
                let c = w.ssd_config_with_budget(budget_factor);
                let ftl = PageFtl::with_reliability(c.geometry, c.timing, c.ftl, c.reliability)
                    .expect("valid FTL configuration");
                Member::Ftl(Box::new(ftl))
            })
            .collect();
        Lowered::over(w, members)
    }

    fn over(w: &Workload, members: Vec<Member>) -> Lowered {
        let member_bytes = match &members[0] {
            Member::Ssd(d) => ossd_block::BlockDevice::capacity_bytes(d.as_ref()),
            Member::Ftl(f) => f.exported_bytes(),
        };
        let parity = w.parity_geometry();
        Lowered {
            capacity_bytes: parity.map_or(member_bytes, |g| g.exported_capacity(member_bytes)),
            parity,
            members,
            ops: Vec::new(),
            seen: 0,
            member_time: Duration::ZERO,
            plan_time: Duration::ZERO,
            sampled_writes: Sampled::default(),
            sampled_reads: Sampled::default(),
        }
    }

    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Per-member statistics in the shape the device reports them.
    pub fn member_stats(&self) -> Vec<SsdStats> {
        self.members
            .iter()
            .map(|m| match m {
                Member::Ssd(d) => d.stats(),
                Member::Ftl(f) => SsdStats {
                    ftl: f.stats(),
                    map: f.map_stats(),
                    reliability: f.reliability_counters(),
                    ..SsdStats::default()
                },
            })
            .collect()
    }

    /// Feeds one command's pages to an FTL; the completion is instantaneous
    /// (an FTL has no clock).  Returns whether a read stayed uncorrectable.
    fn ftl_command(&mut self, member: usize, write: bool, range: ByteRange) -> bool {
        let Member::Ftl(ftl) = &mut self.members[member] else {
            unreachable!("FTL command routed to a device member");
        };
        self.seen += 1;
        let sampled = self.seen.is_multiple_of(FTL_SPAN_EVERY);
        let begin = sampled.then(Instant::now);
        let first = range.offset / PAGE_BYTES;
        let pages = range.len / PAGE_BYTES;
        let ctx = WriteContext::idle();
        let mut uncorrectable = false;
        self.ops.clear();
        for lpn in first..first + pages {
            if write {
                ftl.write_into(Lpn(lpn), PAGE_BYTES, &ctx, &mut self.ops)
                    .expect("FTL write");
            } else {
                uncorrectable |= ftl
                    .read_into(Lpn(lpn), PAGE_BYTES, &mut self.ops)
                    .expect("FTL read");
            }
        }
        black_box(&self.ops);
        if let Some(begin) = begin {
            let bucket = if write {
                &mut self.sampled_writes
            } else {
                &mut self.sampled_reads
            };
            bucket.calls += 1;
            bucket.pages += pages;
            bucket.elapsed += begin.elapsed();
        }
        uncorrectable
    }

    pub fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
        // A lone FTL needs no queues: at depth 1 that saves building a
        // one-command session around each of millions of submits.
        if self.parity.is_none() {
            if let Member::Ftl(_) = self.members[0] {
                let write = request.kind == ossd_block::BlockOpKind::Write;
                let begin = Instant::now();
                let bad = self.ftl_command(0, write, request.range);
                self.member_time += begin.elapsed();
                return Ok(instant_completion(request.id, request.arrival, bad));
            }
        }
        let mut queues = [HostQueue::new()];
        queues[0].submit_request(request);
        self.serve(&mut queues)?;
        queues[0]
            .poll()
            .ok_or_else(|| DeviceError::Internal("no completion posted".to_string()))
    }

    pub fn serve(&mut self, queues: &mut [HostQueue]) -> Result<(), DeviceError> {
        let arbitrated = arbitrate_round_robin(queues);
        let devices = self.members.len();
        let mut member_queues: Vec<Vec<HostQueue>> = (0..devices)
            .map(|_| vec![HostQueue::new(); queues.len()])
            .collect();
        // Fan out, in global arbitration order, exactly as the fleet does.
        let begin = Instant::now();
        for (seq, cmd) in arbitrated.iter().enumerate() {
            let sub = cmd.submission;
            let (kind, range, hint) = match sub.command {
                HostCommand::Read { range } => (SubOpKind::Read, range, WriteHint::NONE),
                HostCommand::Write { range, hint } => (SubOpKind::Write, range, hint),
                other => unreachable!("the benchmark only issues reads and writes: {other:?}"),
            };
            let Some(geom) = self.parity else {
                member_queues[0][cmd.initiator].submit_with_priority(
                    seq as u64,
                    sub.command,
                    sub.arrival,
                    sub.priority,
                );
                continue;
            };
            for op in parity::plan(&geom, None, kind, range).ops {
                let command = match op.kind {
                    SubOpKind::Read => HostCommand::Read { range: op.range },
                    SubOpKind::Write => HostCommand::Write {
                        range: op.range,
                        hint,
                    },
                    SubOpKind::Free => unreachable!("no frees are planned"),
                };
                member_queues[op.device][cmd.initiator].submit_with_priority(
                    seq as u64,
                    command,
                    sub.arrival,
                    sub.priority,
                );
            }
        }
        if self.parity.is_some() {
            self.plan_time += begin.elapsed();
        }

        // Run every member's session, then reduce sub-completions to their
        // parents: earliest start, latest finish, worst status.
        let mut reduced: Vec<Option<Completion>> = vec![None; arbitrated.len()];
        for (device, mq) in member_queues.iter_mut().enumerate() {
            if mq.iter().all(|q| q.pending_submissions() == 0) {
                continue;
            }
            let subs: Vec<Completion> = if let Member::Ssd(ssd) = &mut self.members[device] {
                let begin = Instant::now();
                ssd.serve(mq)?;
                self.member_time += begin.elapsed();
                mq.iter_mut().flat_map(|q| q.drain_completions()).collect()
            } else {
                // The order the member's own arbiter would dispatch in.
                let order = arbitrate_round_robin(mq);
                let begin = Instant::now();
                let done = order
                    .iter()
                    .map(|c| {
                        let sub = c.submission;
                        let (write, range) = match sub.command {
                            HostCommand::Write { range, .. } => (true, range),
                            HostCommand::Read { range } => (false, range),
                            _ => unreachable!("only reads and writes are fanned out"),
                        };
                        let bad = self.ftl_command(device, write, range);
                        instant_completion(sub.id, sub.arrival, bad)
                    })
                    .collect();
                self.member_time += begin.elapsed();
                done
            };
            for c in subs {
                let parent = &mut reduced[c.request_id as usize];
                *parent = Some(match *parent {
                    None => c,
                    Some(agg) => Completion {
                        start: agg.start.min(c.start),
                        finish: agg.finish.max(c.finish),
                        status: if agg.status.is_ok() {
                            c.status
                        } else {
                            agg.status
                        },
                        ..agg
                    },
                });
            }
        }
        let completed = arbitrated
            .iter()
            .zip(reduced)
            .map(|(cmd, agg)| {
                let agg = agg.expect("every command fans out to at least one member");
                let completion = Completion {
                    request_id: cmd.submission.id,
                    arrival: cmd.submission.arrival,
                    ..agg
                };
                (cmd.initiator, completion)
            })
            .collect();
        complete_session(queues, completed);
        Ok(())
    }
}

fn instant_completion(id: u64, arrival: SimTime, uncorrectable: bool) -> Completion {
    Completion {
        status: if uncorrectable {
            CompletionStatus::UncorrectableRead
        } else {
            CompletionStatus::Ok
        },
        ..Completion::ok(id, arrival, arrival, arrival)
    }
}
