//! Trace replay over the queue-pair host interface, collecting the metrics
//! the paper reports: per-class response times, percentiles and bandwidths.
//!
//! Both replay modes are *incremental enqueue-and-poll* drivers of one
//! [`HostQueue`] session: each request is submitted into the queue pair,
//! the device serves it, and the completion is polled back out before the
//! next command is enqueued.

use ossd_sim::{LatencyStats, SimDuration, SimTime, Throughput};

use crate::device::DeviceError;
use crate::host::{HostInterface, HostQueue};
use crate::request::{BlockOpKind, BlockRequest, Completion};

/// p50/p95/p99/p99.9/p99.99 response times of one request class, in
/// milliseconds.  The deep-tail points only separate from `p99_ms` once a
/// class has ≥ 1000 (p99.9) / ≥ 10000 (p99.99) samples; below that the
/// nearest-rank estimate collapses onto the maximum, same as `p99_ms` does
/// under 100 samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencyPercentiles {
    /// Median response time.
    pub p50_ms: f64,
    /// 95th-percentile response time.
    pub p95_ms: f64,
    /// 99th-percentile response time.
    pub p99_ms: f64,
    /// 99.9th-percentile response time.
    pub p999_ms: f64,
    /// 99.99th-percentile response time.
    pub p9999_ms: f64,
}

impl LatencyPercentiles {
    /// Computes the percentiles of a latency collection (zeros when empty).
    pub fn of(stats: &LatencyStats) -> Self {
        LatencyPercentiles {
            p50_ms: stats.percentile(50.0).as_millis_f64(),
            p95_ms: stats.percentile(95.0).as_millis_f64(),
            p99_ms: stats.percentile(99.0).as_millis_f64(),
            p999_ms: stats.percentile(99.9).as_millis_f64(),
            p9999_ms: stats.percentile(99.99).as_millis_f64(),
        }
    }
}

/// Percentile summaries for every request class of a [`ReplayReport`] —
/// the tail-latency view the multi-initiator fairness experiments report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReportPercentiles {
    /// All data-transferring requests.
    pub all: LatencyPercentiles,
    /// Reads only.
    pub reads: LatencyPercentiles,
    /// Writes only.
    pub writes: LatencyPercentiles,
    /// High-priority (foreground) requests.
    pub high_priority: LatencyPercentiles,
    /// Normal-priority (background) requests.
    pub normal_priority: LatencyPercentiles,
}

/// Metrics collected while replaying a request stream.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Response times of every data-transferring request.
    pub all: LatencyStats,
    /// Response times of reads.
    pub reads: LatencyStats,
    /// Response times of writes.
    pub writes: LatencyStats,
    /// Response times of high-priority (foreground) requests.
    pub high_priority: LatencyStats,
    /// Response times of normal-priority (background) requests.
    pub normal_priority: LatencyStats,
    /// Bytes read from the device.
    pub bytes_read: u64,
    /// Bytes written to the device.
    pub bytes_written: u64,
    /// Number of free notifications submitted.
    pub frees: u64,
    /// Requests that completed with a media error: the data stayed
    /// uncorrectable after every ECC read-retry.  Their (retry-laden)
    /// response times are still included in the latency statistics — the
    /// host waited for them.
    pub uncorrectable_reads: u64,
    /// Arrival of the first request.
    pub first_arrival: SimTime,
    /// Completion of the last request.
    pub last_finish: SimTime,
}

impl ReplayReport {
    /// Time from first arrival to last completion.
    pub(crate) fn makespan(&self) -> SimDuration {
        self.last_finish.saturating_since(self.first_arrival)
    }

    /// Bandwidth over the whole replay (reads plus writes) in MB/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        Throughput::from_totals(self.bytes_read + self.bytes_written, self.makespan())
            .megabytes_per_sec()
    }

    /// Read bandwidth in MB/s over the whole replay.
    pub fn read_bandwidth_mbps(&self) -> f64 {
        Throughput::from_totals(self.bytes_read, self.makespan()).megabytes_per_sec()
    }

    /// Write bandwidth in MB/s over the whole replay.
    pub fn write_bandwidth_mbps(&self) -> f64 {
        Throughput::from_totals(self.bytes_written, self.makespan()).megabytes_per_sec()
    }

    /// p50/p95/p99/p99.9/p99.99 response times per request class.
    pub fn percentiles(&self) -> ReportPercentiles {
        ReportPercentiles {
            all: LatencyPercentiles::of(&self.all),
            reads: LatencyPercentiles::of(&self.reads),
            writes: LatencyPercentiles::of(&self.writes),
            high_priority: LatencyPercentiles::of(&self.high_priority),
            normal_priority: LatencyPercentiles::of(&self.normal_priority),
        }
    }

    /// Records one completed request into the report.
    pub fn record(&mut self, req: &BlockRequest, completion: &Completion) {
        let response = completion.response_time();
        let finish = completion.finish;
        if !completion.is_ok() {
            self.uncorrectable_reads += 1;
        }
        if self.all.is_empty() || req.arrival < self.first_arrival {
            if self.all.is_empty() {
                self.first_arrival = req.arrival;
            } else {
                self.first_arrival = self.first_arrival.min(req.arrival);
            }
        }
        self.last_finish = self.last_finish.max(finish);
        match req.kind {
            BlockOpKind::Read => {
                self.bytes_read += req.len();
                self.reads.record(response);
            }
            BlockOpKind::Write => {
                self.bytes_written += req.len();
                self.writes.record(response);
            }
            BlockOpKind::Free => {
                self.frees += 1;
                return;
            }
        }
        self.all.record(response);
        if req.priority.is_high() {
            self.high_priority.record(response);
        } else {
            self.normal_priority.record(response);
        }
    }
}

/// Submits one request through a queue pair and returns its completion.
fn serve_one<D: HostInterface + ?Sized>(
    device: &mut D,
    queue: &mut HostQueue,
    request: &BlockRequest,
) -> Result<crate::request::Completion, DeviceError> {
    queue.submit_request(request);
    device.serve(std::slice::from_mut(queue))?;
    Ok(queue
        .poll()
        .expect("serve posts one completion per command"))
}

/// Replays requests with the arrival times they carry (an *open* arrival
/// process: requests arrive regardless of whether earlier ones finished).
///
/// Requests must be in non-decreasing arrival order — the [`BlockDevice`]
/// submission contract, now enforced loudly by the queue pair.  Sort
/// unordered traces first.
///
/// [`BlockDevice`]: crate::device::BlockDevice
pub fn replay_open<D: HostInterface>(
    device: &mut D,
    requests: &[BlockRequest],
) -> Result<ReplayReport, DeviceError> {
    let mut report = ReplayReport::default();
    let mut queue = HostQueue::new();
    for req in requests {
        let completion = serve_one(device, &mut queue, req)?;
        report.record(req, &completion);
    }
    Ok(report)
}

/// Replays requests back-to-back (*closed* loop with one outstanding
/// request): each request is issued the moment the previous one completes.
/// Arrival times carried by the requests are ignored except for the first.
/// This is how steady-state bandwidth (Table 2, Figure 2) is measured.
pub fn replay_closed<D: HostInterface>(
    device: &mut D,
    requests: &[BlockRequest],
) -> Result<ReplayReport, DeviceError> {
    let mut report = ReplayReport::default();
    let mut queue = HostQueue::new();
    let mut next_arrival = requests.first().map(|r| r.arrival).unwrap_or(SimTime::ZERO);
    let mut first_start: Option<SimTime> = None;
    for req in requests {
        let mut adjusted = *req;
        adjusted.arrival = next_arrival;
        let completion = serve_one(device, &mut queue, &adjusted)?;
        report.record(&adjusted, &completion);
        if first_start.is_none() {
            first_start = Some(completion.start);
        }
        next_arrival = completion.finish;
    }
    // The device may already have been busy when the first request was
    // issued (e.g. a measurement phase following a prefill phase); bandwidth
    // is measured from the moment the device actually started on this
    // request stream.
    if let Some(start) = first_start {
        report.first_arrival = report.first_arrival.max(start);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, DeviceInfo};
    use crate::request::{Completion, Priority};

    /// A device with a fixed service time per request and no parallelism.
    struct FixedDevice {
        service: SimDuration,
        next_free: SimTime,
    }

    impl FixedDevice {
        fn new(service: SimDuration) -> Self {
            FixedDevice {
                service,
                next_free: SimTime::ZERO,
            }
        }
    }

    impl BlockDevice for FixedDevice {
        fn info(&self) -> DeviceInfo {
            DeviceInfo {
                name: "fixed".into(),
                capacity_bytes: u64::MAX,
                supports_free: true,
            }
        }

        fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
            let start = request.arrival.max(self.next_free);
            let finish = if request.kind == BlockOpKind::Free {
                start
            } else {
                start + self.service
            };
            self.next_free = finish;
            Ok(Completion::ok(request.id, request.arrival, start, finish))
        }
    }

    impl HostInterface for FixedDevice {}

    fn requests() -> Vec<BlockRequest> {
        vec![
            BlockRequest::write(0, 0, 1_000_000, SimTime::ZERO),
            BlockRequest::read(1, 0, 1_000_000, SimTime::ZERO).with_priority(Priority::High),
            BlockRequest::free(2, 0, 4096, SimTime::ZERO),
            BlockRequest::write(3, 1_000_000, 1_000_000, SimTime::ZERO),
        ]
    }

    #[test]
    fn closed_replay_bandwidth() {
        // 1 ms per request, three 1 MB transfers back-to-back = 3 MB in 3 ms
        // = 1000 MB/s.
        let mut dev = FixedDevice::new(SimDuration::from_millis(1));
        let report = replay_closed(&mut dev, &requests()).unwrap();
        assert_eq!(report.all.count(), 3);
        assert_eq!(report.frees, 1);
        assert_eq!(report.bytes_read, 1_000_000);
        assert_eq!(report.bytes_written, 2_000_000);
        assert_eq!(report.makespan(), SimDuration::from_millis(3));
        assert!((report.bandwidth_mbps() - 1000.0).abs() < 1.0);
        assert!((report.read_bandwidth_mbps() - 1000.0 / 3.0).abs() < 1.0);
        assert!((report.write_bandwidth_mbps() - 2000.0 / 3.0).abs() < 1.0);
    }

    #[test]
    fn open_replay_accumulates_queueing() {
        // All four requests arrive at t=0; with 1 ms service the third data
        // request finishes at 3 ms and saw 3 ms of response time.
        let mut dev = FixedDevice::new(SimDuration::from_millis(1));
        let report = replay_open(&mut dev, &requests()).unwrap();
        assert_eq!(report.all.count(), 3);
        assert_eq!(report.all.max(), SimDuration::from_millis(3));
        // Mean of 1, 2, 3 ms.
        assert!((report.all.mean_millis() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn priority_classes_are_split() {
        let mut dev = FixedDevice::new(SimDuration::from_millis(1));
        let report = replay_open(&mut dev, &requests()).unwrap();
        assert_eq!(report.high_priority.count(), 1);
        assert_eq!(report.normal_priority.count(), 2);
        assert_eq!(report.reads.count(), 1);
        assert_eq!(report.writes.count(), 2);
    }

    #[test]
    fn uncorrectable_completions_are_counted() {
        use crate::request::CompletionStatus;
        let mut report = ReplayReport::default();
        let req = BlockRequest::read(0, 0, 4096, SimTime::ZERO);
        let ok = Completion::ok(0, SimTime::ZERO, SimTime::ZERO, SimTime::from_micros(10));
        report.record(&req, &ok);
        assert_eq!(report.uncorrectable_reads, 0);
        let failed = Completion {
            status: CompletionStatus::UncorrectableRead,
            ..ok
        };
        report.record(&req, &failed);
        assert_eq!(report.uncorrectable_reads, 1);
        // The failed read's response time still counts: the host waited.
        assert_eq!(report.reads.count(), 2);
    }

    #[test]
    fn empty_replay_is_well_defined() {
        let mut dev = FixedDevice::new(SimDuration::from_millis(1));
        let report = replay_open(&mut dev, &[]).unwrap();
        assert_eq!(report.all.count(), 0);
        assert_eq!(report.makespan(), SimDuration::ZERO);
        assert_eq!(report.bandwidth_mbps(), 0.0);
        let p = report.percentiles();
        assert_eq!(p.all.p99_ms, 0.0);
        assert_eq!(p.all.p999_ms, 0.0);
        assert_eq!(p.all.p9999_ms, 0.0);
    }

    #[test]
    fn percentiles_summarise_each_class() {
        let mut dev = FixedDevice::new(SimDuration::from_millis(1));
        let report = replay_open(&mut dev, &requests()).unwrap();
        let p = report.percentiles();
        // Responses are 1, 2, 3 ms; the median is 2 ms and the p99 is the
        // maximum.
        assert!((p.all.p50_ms - 2.0).abs() < 1e-9);
        assert!((p.all.p99_ms - 3.0).abs() < 1e-9);
        assert!(p.all.p50_ms <= p.all.p95_ms && p.all.p95_ms <= p.all.p99_ms);
        // With only 3 samples, the deep-tail points collapse onto the max.
        assert!((p.all.p999_ms - 3.0).abs() < 1e-9);
        assert!(p.all.p99_ms <= p.all.p999_ms && p.all.p999_ms <= p.all.p9999_ms);
        // The one high-priority read finished at 2 ms.
        assert!((p.high_priority.p99_ms - 2.0).abs() < 1e-9);
        assert!(p.reads.p50_ms > 0.0 && p.writes.p50_ms > 0.0);
    }
}
