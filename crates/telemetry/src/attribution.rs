//! Per-request latency attribution: blame accounting for the tail.
//!
//! The recorder (PR 6) can say *that* p99.9 is bad; this module says *why*.
//! Every completion's end-to-end latency `(finish − arrival)` is decomposed
//! into **blamed components** ([`BlameCat`]): submission-queue wait, fence
//! stalls, controller overhead, the request's own flash service and bus
//! transfers, ECC retry passes, map-translation traffic, and — the headline
//! for the paper's cleaning story — time spent queued behind GC copybacks
//! and erases.  The invariant is exactness: the components of a
//! [`BlameBreakdown`] sum to `(finish − arrival)` to the nanosecond, so
//! shares computed from them are true shares, not estimates.
//!
//! The mechanism is a [`BlameLedger`] per element/bus queue.  Each dispatched
//! op records the busy segment it occupies, tagged with a [`BlameSource`]
//! (host data, GC, map, ECC) and an owner token.  When a later op waits, its
//! waiting interval is partitioned over the recorded segments: overlap with a
//! GC segment is blamed on GC, overlap with another request's host op on
//! queueing, overlap with the request's *own* earlier ops on its own flash
//! pipeline, and scheduling gaps between segments are charged to the segment
//! that follows them (the op the queue was committed to run next).  Because
//! the partition covers the whole interval, exactness holds by construction
//! — the ledger observes dispatch, it never alters it, so attribution-off
//! and attribution-on schedules are bit-identical.
//!
//! The device keeps one [`BlameRecord`] per attributed completion;
//! aggregation lives in [`TailReport`], built from those records
//! (p50/p99/p99.9/p99.99 per class, and the share of latency in the p99.9
//! tail blamed on each category).  Export: [`TailReport::to_csv`] and
//! Perfetto counter tracks via [`to_chrome_counters`].

use crate::ServiceClass;
use ossd_sim::{nearest_rank, SimDuration, SimTime};
use std::collections::VecDeque;

/// The categories end-to-end latency is blamed on.
///
/// Every nanosecond of `(finish − arrival)` lands in exactly one category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlameCat {
    /// Waiting in the submission queue for a free device slot and for the
    /// arbiter to pick the command (dispatch − eligible).
    SqWait,
    /// Stalled behind a Flush/Barrier fence: the command was submitted but
    /// not yet eligible because an earlier fence had not finished (for a
    /// fence command itself, the wait for its initiator's prior commands to
    /// drain).
    Fence,
    /// Controller work: fixed command overhead, random-access penalty, RAM
    /// transfer, and RAM-only service (buffered writes, prefetch hits,
    /// unwritten reads, `Free`).
    Controller,
    /// The request's own flash array time: page reads/programs it issued,
    /// plus waiting behind its *own* earlier ops (self-serialization of a
    /// multi-page request on one element).
    Flash,
    /// The request's own bus transfers moving its data between controller
    /// and flash.
    Bus,
    /// ECC retry passes re-reading the request's pages, plus waiting behind
    /// retry traffic.
    Ecc,
    /// Demand-paged mapping traffic: translation-page reads/writebacks the
    /// request triggered, plus waiting behind map ops.
    Map,
    /// Waiting behind garbage collection — copybacks and erases that ran
    /// ahead of the request on its element or bus, and foreground-GC work
    /// the request's own write triggered.
    GcWait,
    /// Waiting behind *other* requests' host data ops (plain queueing).
    HostWait,
}

impl BlameCat {
    /// Number of categories (array size for dense per-category storage).
    pub const COUNT: usize = 9;

    /// All categories, in dense-index order.
    pub const ALL: [BlameCat; BlameCat::COUNT] = [
        BlameCat::SqWait,
        BlameCat::Fence,
        BlameCat::Controller,
        BlameCat::Flash,
        BlameCat::Bus,
        BlameCat::Ecc,
        BlameCat::Map,
        BlameCat::GcWait,
        BlameCat::HostWait,
    ];

    /// Dense index for per-category storage.
    pub fn index(self) -> usize {
        match self {
            BlameCat::SqWait => 0,
            BlameCat::Fence => 1,
            BlameCat::Controller => 2,
            BlameCat::Flash => 3,
            BlameCat::Bus => 4,
            BlameCat::Ecc => 5,
            BlameCat::Map => 6,
            BlameCat::GcWait => 7,
            BlameCat::HostWait => 8,
        }
    }

    /// Short display/CSV name.
    pub fn name(self) -> &'static str {
        match self {
            BlameCat::SqWait => "sq_wait",
            BlameCat::Fence => "fence",
            BlameCat::Controller => "controller",
            BlameCat::Flash => "flash",
            BlameCat::Bus => "bus",
            BlameCat::Ecc => "ecc",
            BlameCat::Map => "map",
            BlameCat::GcWait => "gc_wait",
            BlameCat::HostWait => "host_wait",
        }
    }
}

/// What kind of work a dispatched op represents, as recorded in the ledger.
///
/// This is the *cause* side of blame: a later op waiting behind a segment is
/// charged to the category its source maps to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlameSource {
    /// Host data traffic: page reads and programs serving read/write
    /// commands (including foreground flush drains).
    HostData,
    /// Garbage collection: copybacks, erases, and relocation traffic, for
    /// any cleaning purpose (watermark, background, wear-leveling).
    Gc,
    /// Demand-paged mapping traffic: translation-page reads and writebacks.
    Map,
    /// ECC read-retry passes.
    Ecc,
}

impl BlameSource {
    /// The category a *waiting* op is charged when this segment ran ahead
    /// of it.  `owner` matching decides whether host data is the waiter's
    /// own pipeline ([`BlameCat::Flash`]) or another request's
    /// ([`BlameCat::HostWait`]).
    fn wait_cat(self, segment_owner: u64, waiter: u64) -> BlameCat {
        match self {
            BlameSource::Gc => BlameCat::GcWait,
            BlameSource::Map => BlameCat::Map,
            BlameSource::Ecc => BlameCat::Ecc,
            BlameSource::HostData => {
                if segment_owner == waiter {
                    BlameCat::Flash
                } else {
                    BlameCat::HostWait
                }
            }
        }
    }
}

/// Nanoseconds blamed per category; the unit the whole subsystem sums in.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlameBreakdown {
    nanos: [u64; BlameCat::COUNT],
}

impl BlameBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `d` to category `cat`.
    pub fn add(&mut self, cat: BlameCat, d: SimDuration) {
        self.nanos[cat.index()] += d.as_nanos();
    }

    /// Add raw nanoseconds to category `cat`.
    pub fn add_nanos(&mut self, cat: BlameCat, nanos: u64) {
        self.nanos[cat.index()] += nanos;
    }

    /// Nanoseconds blamed on `cat`.
    pub fn get(&self, cat: BlameCat) -> u64 {
        self.nanos[cat.index()]
    }

    /// Sum across all categories — equals `(finish − arrival)` for a
    /// complete breakdown.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// Component-wise accumulate.
    pub fn merge(&mut self, other: &BlameBreakdown) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += *b;
        }
    }

    /// `(category, nanos)` pairs in dense order.
    pub fn iter(&self) -> impl Iterator<Item = (BlameCat, u64)> + '_ {
        BlameCat::ALL
            .iter()
            .map(move |c| (*c, self.nanos[c.index()]))
    }
}

/// One busy segment a dispatched op occupies on a queue.
#[derive(Clone, Copy, Debug)]
struct Segment {
    start: SimTime,
    end: SimTime,
    owner: u64,
    source: BlameSource,
}

/// Per-queue record of who occupied the server, for wait attribution.
///
/// Segments are recorded in dispatch order; the underlying server serves
/// back-to-back-or-later, so segment `[start, end)` ranges are non-
/// overlapping and non-decreasing — pruning from the front is complete.
/// The ledger is observational: it never influences `accept` timing.
#[derive(Clone, Debug, Default)]
pub struct BlameLedger {
    segments: VecDeque<Segment>,
}

impl BlameLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Segments currently retained (bounded by pruning).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether no segment is retained.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Drop leading segments that ended at or before `before` — they can no
    /// longer overlap any wait interval that starts at `before` or later.
    pub fn prune(&mut self, before: SimTime) {
        while let Some(seg) = self.segments.front() {
            if seg.end <= before {
                self.segments.pop_front();
            } else {
                break;
            }
        }
    }

    /// Record the busy segment `[start, end)` an op (owned by `owner`,
    /// doing `source` work) occupies.
    pub fn record(&mut self, start: SimTime, end: SimTime, owner: u64, source: BlameSource) {
        if end <= start {
            return;
        }
        self.segments.push_back(Segment {
            start,
            end,
            owner,
            source,
        });
    }

    /// Partition the waiting interval `[arrival, start)` of an op owned by
    /// `waiter` over the recorded segments, accumulating blame into `out`.
    ///
    /// Overlap with a segment is charged to that segment's category; a gap
    /// *between* segments is charged to the segment that follows it (the op
    /// the queue had already committed to run).  The partition always covers
    /// the whole interval, so `out` grows by exactly `start − arrival`.
    pub fn split_wait(
        &self,
        arrival: SimTime,
        start: SimTime,
        waiter: u64,
        out: &mut BlameBreakdown,
    ) {
        if start <= arrival {
            return;
        }
        let mut cursor = arrival;
        for seg in &self.segments {
            if cursor >= start {
                break;
            }
            if seg.end <= cursor {
                continue;
            }
            let cat = seg.source.wait_cat(seg.owner, waiter);
            if seg.start > cursor {
                // Gap before this segment: the queue was idle but committed
                // to `seg` — blame the thing that was scheduled to run.
                let gap_end = seg.start.min(start);
                out.add(cat, gap_end.saturating_since(cursor));
                cursor = gap_end;
                if cursor >= start {
                    break;
                }
            }
            let end = seg.end.min(start);
            out.add(cat, end.saturating_since(cursor));
            cursor = end;
        }
        if cursor < start {
            // Only reachable when the ledger missed segments (attribution
            // enabled mid-run): charge the remainder as plain queueing.
            out.add(BlameCat::HostWait, start.saturating_since(cursor));
        }
    }
}

/// One completed command's attributed latency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlameRecord {
    /// Host-assigned request/command id.
    pub id: u64,
    /// Submitting initiator.
    pub initiator: u32,
    /// Service class; `None` for barriers (which have no service class).
    pub class: Option<ServiceClass>,
    /// When the command arrived at the host interface.
    pub arrival: SimTime,
    /// When its completion posted.
    pub finish: SimTime,
    /// The exact decomposition of `finish − arrival`.
    pub breakdown: BlameBreakdown,
}

impl BlameRecord {
    /// End-to-end latency in nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.finish.saturating_since(self.arrival).as_nanos()
    }

    /// Whether the breakdown sums exactly to end-to-end latency — the
    /// subsystem invariant.
    pub fn is_exact(&self) -> bool {
        self.breakdown.total_nanos() == self.total_nanos()
    }
}

/// Tail summary for one service class.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassTail {
    /// Class name (`"read"`, `"write"`, … or `"all"`).
    pub class: &'static str,
    /// Completions in the class.
    pub count: u64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// 99.99th percentile, microseconds.
    pub p9999_us: f64,
    /// Requests at or above the p99.9 latency (the tail set).
    pub tail_count: u64,
    /// Share of total latency in the tail set blamed on each category
    /// (dense [`BlameCat`] order; sums to 1 when `tail_count > 0`).
    pub tail_share: [f64; BlameCat::COUNT],
    /// Total blamed microseconds per category across the whole class.
    pub blamed_us: [f64; BlameCat::COUNT],
}

impl ClassTail {
    /// The tail-set share blamed on `cat`.
    pub fn share(&self, cat: BlameCat) -> f64 {
        self.tail_share[cat.index()]
    }
}

/// Per-class tail percentiles and blame shares, built from raw records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TailReport {
    /// One row per service class that had completions, plus an `"all"` row
    /// (always last when any record exists).
    pub classes: Vec<ClassTail>,
}

fn class_tail(name: &'static str, records: &[&BlameRecord]) -> ClassTail {
    let mut totals: Vec<u64> = records.iter().map(|r| r.total_nanos()).collect();
    totals.sort_unstable();
    let p999 = nearest_rank(&totals, 99.9);
    let mut tail_blame = BlameBreakdown::new();
    let mut tail_total = 0u64;
    let mut tail_count = 0u64;
    let mut blamed = BlameBreakdown::new();
    for r in records {
        blamed.merge(&r.breakdown);
        if r.total_nanos() >= p999 {
            tail_blame.merge(&r.breakdown);
            tail_total += r.total_nanos();
            tail_count += 1;
        }
    }
    let mut tail_share = [0.0; BlameCat::COUNT];
    let mut blamed_us = [0.0; BlameCat::COUNT];
    for cat in BlameCat::ALL {
        if tail_total > 0 {
            tail_share[cat.index()] = tail_blame.get(cat) as f64 / tail_total as f64;
        }
        blamed_us[cat.index()] = blamed.get(cat) as f64 / 1_000.0;
    }
    ClassTail {
        class: name,
        count: records.len() as u64,
        p50_us: nearest_rank(&totals, 50.0) as f64 / 1_000.0,
        p99_us: nearest_rank(&totals, 99.0) as f64 / 1_000.0,
        p999_us: p999 as f64 / 1_000.0,
        p9999_us: nearest_rank(&totals, 99.99) as f64 / 1_000.0,
        tail_count,
        tail_share,
        blamed_us,
    }
}

impl TailReport {
    /// Build the report from raw records.
    pub fn from_records(records: &[BlameRecord]) -> TailReport {
        let mut classes = Vec::new();
        let class_names: [(Option<ServiceClass>, &'static str); 5] = [
            (Some(ServiceClass::Read), "read"),
            (Some(ServiceClass::Write), "write"),
            (Some(ServiceClass::Free), "free"),
            (Some(ServiceClass::Flush), "flush"),
            (None, "barrier"),
        ];
        for (class, name) in class_names {
            let subset: Vec<&BlameRecord> = records.iter().filter(|r| r.class == class).collect();
            if !subset.is_empty() {
                classes.push(class_tail(name, &subset));
            }
        }
        if !records.is_empty() {
            let all: Vec<&BlameRecord> = records.iter().collect();
            classes.push(class_tail("all", &all));
        }
        TailReport { classes }
    }

    /// The row for `name` (`"read"`, `"write"`, `"all"`, …), if present.
    pub fn class(&self, name: &str) -> Option<&ClassTail> {
        self.classes.iter().find(|c| c.class == name)
    }

    /// Render as CSV: one row per class with percentiles, blamed totals,
    /// and tail shares per category.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("class,count,p50_us,p99_us,p999_us,p9999_us,tail_count");
        for cat in BlameCat::ALL {
            out.push_str(&format!(",blamed_{}_us", cat.name()));
        }
        for cat in BlameCat::ALL {
            out.push_str(&format!(",tail_share_{}", cat.name()));
        }
        out.push('\n');
        for c in &self.classes {
            out.push_str(&format!(
                "{},{},{:.3},{:.3},{:.3},{:.3},{}",
                c.class, c.count, c.p50_us, c.p99_us, c.p999_us, c.p9999_us, c.tail_count
            ));
            for v in c.blamed_us {
                out.push_str(&format!(",{v:.3}"));
            }
            for v in c.tail_share {
                out.push_str(&format!(",{v:.6}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Render records as Chrome-trace **counter tracks**: one cumulative
/// blamed-time counter per category, stamped at completion finish times.
///
/// Opens directly in Perfetto next to the span trace — the slope of each
/// counter is the rate that category is eating latency, and GC-blamed ramps
/// line up visually with cleaning spans.
pub fn to_chrome_counters(records: &[BlameRecord]) -> String {
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| (records[i].finish, records[i].initiator, records[i].id));
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut cumulative = BlameBreakdown::new();
    let mut first = true;
    for i in order {
        let r = &records[i];
        let ts = r.finish.as_nanos() as f64 / 1_000.0;
        for (cat, nanos) in r.breakdown.iter() {
            if nanos == 0 {
                continue;
            }
            cumulative.add_nanos(cat, nanos);
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"blame_{}_us\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\
                 \"ts\":{ts:.3},\"args\":{{\"value\":{:.3}}}}}",
                cat.name(),
                cumulative.get(cat) as f64 / 1_000.0,
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn breakdown_sums_and_merges() {
        let mut b = BlameBreakdown::new();
        b.add(BlameCat::Flash, SimDuration::from_micros(3));
        b.add_nanos(BlameCat::GcWait, 500);
        assert_eq!(b.get(BlameCat::Flash), 3_000);
        assert_eq!(b.total_nanos(), 3_500);
        let mut c = BlameBreakdown::new();
        c.add_nanos(BlameCat::GcWait, 500);
        c.merge(&b);
        assert_eq!(c.get(BlameCat::GcWait), 1_000);
        assert_eq!(c.total_nanos(), 4_000);
    }

    #[test]
    fn blame_cat_indices_are_dense() {
        for (i, cat) in BlameCat::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
        }
    }

    #[test]
    fn split_wait_partitions_exactly_with_gaps() {
        let mut ledger = BlameLedger::new();
        // Own op, a GC erase, then another host's op, with a gap before the
        // GC segment.
        ledger.record(t(0), t(10), 7, BlameSource::HostData);
        ledger.record(t(15), t(30), 99, BlameSource::Gc);
        ledger.record(t(30), t(40), 8, BlameSource::HostData);
        let mut out = BlameBreakdown::new();
        // Waiter 7 arrives at 5 µs, starts at 40 µs.
        ledger.split_wait(t(5), t(40), 7, &mut out);
        assert_eq!(out.total_nanos(), 35_000);
        // [5,10) own host op → Flash; [10,15) gap before GC → GcWait;
        // [15,30) GC → GcWait; [30,40) other host → HostWait.
        assert_eq!(out.get(BlameCat::Flash), 5_000);
        assert_eq!(out.get(BlameCat::GcWait), 20_000);
        assert_eq!(out.get(BlameCat::HostWait), 10_000);
    }

    #[test]
    fn split_wait_charges_untracked_remainder_to_host_wait() {
        let ledger = BlameLedger::new();
        let mut out = BlameBreakdown::new();
        ledger.split_wait(t(0), t(4), 1, &mut out);
        assert_eq!(out.get(BlameCat::HostWait), 4_000);
    }

    #[test]
    fn prune_drops_only_dead_segments() {
        let mut ledger = BlameLedger::new();
        ledger.record(t(0), t(10), 1, BlameSource::HostData);
        ledger.record(t(10), t(20), 2, BlameSource::Map);
        ledger.record(t(25), t(30), 3, BlameSource::Ecc);
        ledger.prune(t(12));
        assert_eq!(ledger.len(), 2);
        let mut out = BlameBreakdown::new();
        ledger.split_wait(t(12), t(30), 9, &mut out);
        assert_eq!(out.total_nanos(), 18_000);
        assert_eq!(out.get(BlameCat::Map), 8_000);
        // Gap [20,25) charged to the ECC segment that follows it.
        assert_eq!(out.get(BlameCat::Ecc), 10_000);
    }

    fn record(
        class: Option<ServiceClass>,
        initiator: u32,
        arrival_us: u64,
        total_us: u64,
    ) -> BlameRecord {
        let mut breakdown = BlameBreakdown::new();
        breakdown.add(BlameCat::Flash, SimDuration::from_micros(total_us / 2));
        breakdown.add(
            BlameCat::GcWait,
            SimDuration::from_micros(total_us - total_us / 2),
        );
        BlameRecord {
            id: arrival_us,
            initiator,
            class,
            arrival: t(arrival_us),
            finish: t(arrival_us + total_us),
            breakdown,
        }
    }

    #[test]
    fn tail_report_percentiles_and_shares() {
        let mut records = Vec::new();
        for i in 0..1000 {
            records.push(record(Some(ServiceClass::Read), 0, i, 10 + i / 100));
        }
        let report = TailReport::from_records(&records);
        let read = report.class("read").unwrap();
        assert_eq!(read.count, 1000);
        assert!(read.p50_us <= read.p99_us && read.p99_us <= read.p999_us);
        assert!(read.p999_us <= read.p9999_us);
        assert!(read.tail_count >= 1);
        // Every record blames half Flash, half GC.
        assert!((read.share(BlameCat::GcWait) - 0.5).abs() < 0.1);
        let sum: f64 = read.tail_share.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        let all = report.class("all").unwrap();
        assert_eq!(all.count, 1000);
        assert_eq!(report.classes.last().unwrap().class, "all");
    }

    #[test]
    fn tail_csv_is_rectangular() {
        let records = vec![
            record(Some(ServiceClass::Read), 0, 0, 10),
            record(Some(ServiceClass::Write), 0, 1, 12),
        ];
        let report = TailReport::from_records(&records);
        let csv = report.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let cols = header.split(',').count();
        assert_eq!(cols, 7 + 2 * BlameCat::COUNT);
        assert!(header.contains("tail_share_gc_wait"));
        assert!(header.contains("blamed_map_us"));
        // read, write, all.
        for row in lines {
            assert_eq!(row.split(',').count(), cols);
        }
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn chrome_counters_parse_and_accumulate() {
        let records = vec![
            record(Some(ServiceClass::Read), 0, 0, 10),
            record(Some(ServiceClass::Read), 0, 100, 10),
        ];
        let json = to_chrome_counters(&records);
        let doc = ossd_sim::json::Value::parse(&json).expect("counter trace must parse");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // Two records x two nonzero categories each.
        assert_eq!(events.len(), 4);
        for e in events {
            assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("C"));
            assert!(e.get("args").and_then(|a| a.get("value")).is_some());
        }
    }
}
