//! Hard-disk-drive simulator.
//!
//! The paper contrasts SSDs with a conventional disk (a 7200 RPM Seagate
//! Barracuda) whose sequential bandwidth is two orders of magnitude higher
//! than its random bandwidth (Table 2) and whose "unwritten contract"
//! assumptions — sequential ≫ random, nearby LBNs mean short seeks, zoned
//! recording, passive device — the rest of the paper examines.  This module
//! provides an analytic disk model sufficient to reproduce those properties:
//! a seek-time curve, rotational latency, zoned transfer rates, and
//! streaming detection for sequential access.
//!
//! The model has one configuration, a 7200 RPM desktop drive of the
//! paper's era (Seagate Barracuda 7200.11 class): ~8.5 ms average seek,
//! ~120 MB/s outer and ~60 MB/s inner media rate, and a write-back cache.

use ossd_block::{
    BlockDevice, BlockOpKind, BlockRequest, Completion, DeviceError, DeviceInfo, HostInterface,
};
use ossd_sim::{Server, SimDuration, SimRng, SimTime};

/// Device name used in reports.
const NAME: &str = "HDD-7200rpm";
/// Usable capacity in bytes.
const CAPACITY_BYTES: u64 = 500 * 1_000_000_000;
/// Spindle speed in revolutions per minute.
const RPM: u32 = 7200;
/// Single-track (minimum) seek time.
const TRACK_TO_TRACK_SEEK: SimDuration = SimDuration::from_micros(800);
/// Full-stroke (maximum) seek time.
const FULL_STROKE_SEEK: SimDuration = SimDuration::from_millis(18);
/// Media transfer rate at the outermost zone, bytes per second.
const OUTER_ZONE_BYTES_PER_SEC: u64 = 120_000_000;
/// Media transfer rate at the innermost zone, bytes per second.
const INNER_ZONE_BYTES_PER_SEC: u64 = 60_000_000;
/// Fixed command processing overhead per request.
const COMMAND_OVERHEAD: SimDuration = SimDuration::from_micros(100);
/// Interface (SATA) bandwidth in bytes per second, used for cache hits.
const INTERFACE_BYTES_PER_SEC: u64 = 300_000_000;
/// Seed for the rotational-position randomness, so runs are reproducible.
const SEED: u64 = 0x5EEDBA5E;

/// Full revolution time.
fn rotation_time() -> SimDuration {
    SimDuration::from_secs_f64(60.0 / RPM as f64)
}

/// Media rate at a given byte offset: interpolates linearly from the outer
/// (fast) zone at offset 0 to the inner (slow) zone at the end of the
/// device, modelling zoned recording (§3.3).
fn media_rate_at(offset: u64) -> u64 {
    let frac = offset.min(CAPACITY_BYTES) as f64 / CAPACITY_BYTES as f64;
    let outer = OUTER_ZONE_BYTES_PER_SEC as f64;
    let inner = INNER_ZONE_BYTES_PER_SEC as f64;
    (outer + (inner - outer) * frac) as u64
}

/// Seek time for a given seek distance, expressed as a fraction of the full
/// stroke.  Uses the standard square-root-of-distance model with a minimum
/// of the track-to-track time; zero distance means no seek.
fn seek_time(distance_fraction: f64) -> SimDuration {
    if distance_fraction <= 0.0 {
        return SimDuration::ZERO;
    }
    let d = distance_fraction.min(1.0);
    let min = TRACK_TO_TRACK_SEEK.as_secs_f64();
    let max = FULL_STROKE_SEEK.as_secs_f64();
    SimDuration::from_secs_f64(min + (max - min) * d.sqrt())
}

/// Cumulative disk statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HddStats {
    /// Host read requests served.
    pub host_reads: u64,
    /// Host write requests served.
    pub host_writes: u64,
    /// Requests recognised as sequential (no seek, no rotational latency).
    pub sequential_hits: u64,
    /// Writes absorbed by the write-back cache.
    pub cached_writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// A simulated hard disk drive.
pub struct Hdd {
    arm: Server,
    rng: SimRng,
    head_position: u64,
    last_end: Option<u64>,
    stats: HddStats,
}

impl Hdd {
    /// The disk of the paper's Table 2 comparison.
    pub fn barracuda_7200() -> Self {
        Hdd {
            arm: Server::new(),
            rng: SimRng::seed_from_u64(SEED),
            head_position: 0,
            last_end: None,
            stats: HddStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> HddStats {
        self.stats
    }

    /// Computes the mechanical + transfer service time for a request and
    /// whether it was a sequential continuation of the previous access.
    fn service_time(&mut self, req: &BlockRequest) -> (SimDuration, bool) {
        let sequential = self.last_end == Some(req.range.offset);
        let transfer =
            SimDuration::from_bytes_at_rate(req.range.len, media_rate_at(req.range.offset));
        let mechanical = if sequential {
            // Streaming: the head is already positioned and the next sector
            // is about to pass under it.
            SimDuration::ZERO
        } else {
            let distance =
                req.range.offset.abs_diff(self.head_position) as f64 / CAPACITY_BYTES as f64;
            let rotation = self
                .rng
                .uniform_duration(SimDuration::ZERO, rotation_time());
            seek_time(distance) + rotation
        };
        (COMMAND_OVERHEAD + mechanical + transfer, sequential)
    }
}

impl HostInterface for Hdd {
    /// Cached writes complete at interface speed while the arm keeps
    /// working; a flush forces that dirty data to stable media, so it
    /// cannot return before the arm goes idle.
    fn flush_finish(&self, at: SimTime) -> SimTime {
        at.max(self.arm.next_free())
    }
}

impl BlockDevice for Hdd {
    fn info(&self) -> DeviceInfo {
        DeviceInfo {
            name: NAME.to_string(),
            capacity_bytes: CAPACITY_BYTES,
            supports_free: false,
        }
    }

    // Bounds checks run per command; `info()` allocates the device name.
    fn capacity_bytes(&self) -> u64 {
        CAPACITY_BYTES
    }

    fn submit(&mut self, request: &BlockRequest) -> Result<Completion, DeviceError> {
        self.check_bounds(request)?;
        let start = request.arrival.max(self.arm.next_free());
        let finish = match request.kind {
            BlockOpKind::Free => {
                // Disks have no notion of free blocks; the notification is
                // accepted and ignored (the contract-violation the paper
                // describes is precisely that only the file system knows).
                request.arrival
            }
            BlockOpKind::Read | BlockOpKind::Write => {
                let (mut service, sequential) = self.service_time(request);
                if sequential {
                    self.stats.sequential_hits += 1;
                }
                let mut cached = false;
                if request.kind == BlockOpKind::Write
                    && !sequential
                    && self.arm.is_idle_at(request.arrival)
                {
                    // A burst of random writes hitting an idle drive is
                    // absorbed by the write-back cache at interface speed;
                    // the destage still occupies the arm, so *sustained*
                    // random writes remain seek-bound (which is what the
                    // closed-loop bandwidth of Table 2 measures).
                    let cache_time = COMMAND_OVERHEAD
                        + SimDuration::from_bytes_at_rate(
                            request.range.len,
                            INTERFACE_BYTES_PER_SEC,
                        );
                    if cache_time < service {
                        self.arm.serve(request.arrival, service);
                        service = cache_time;
                        cached = true;
                        self.stats.cached_writes += 1;
                    }
                }
                if !cached {
                    self.arm.serve(request.arrival, service);
                }
                match request.kind {
                    BlockOpKind::Read => {
                        self.stats.host_reads += 1;
                        self.stats.bytes_read += request.range.len;
                    }
                    BlockOpKind::Write => {
                        self.stats.host_writes += 1;
                        self.stats.bytes_written += request.range.len;
                    }
                    BlockOpKind::Free => {}
                }
                self.head_position = request.range.end();
                self.last_end = Some(request.range.end());
                start + service
            }
        };
        Ok(Completion::ok(
            request.id,
            request.arrival,
            start,
            finish.max(start),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossd_block::{arbitrate_round_robin, replay_closed, HostCommand, HostQueue};
    use ossd_sim::SimTime;

    fn hdd() -> Hdd {
        Hdd::barracuda_7200()
    }

    #[test]
    fn rotation_time_is_one_revolution_at_7200_rpm() {
        assert!((rotation_time().as_millis_f64() - 8.333).abs() < 0.01);
    }

    #[test]
    fn zoned_media_rate_decreases_inward() {
        let outer = media_rate_at(0);
        let middle = media_rate_at(CAPACITY_BYTES / 2);
        let inner = media_rate_at(CAPACITY_BYTES);
        assert_eq!(outer, 120_000_000);
        assert_eq!(inner, 60_000_000);
        assert!(outer > middle && middle > inner);
        // Beyond-capacity offsets clamp instead of extrapolating.
        assert_eq!(media_rate_at(CAPACITY_BYTES * 2), inner);
    }

    #[test]
    fn seek_curve_is_monotone_and_bounded() {
        assert_eq!(seek_time(0.0), SimDuration::ZERO);
        let short = seek_time(0.001);
        let medium = seek_time(0.25);
        let full = seek_time(1.0);
        assert!(short >= TRACK_TO_TRACK_SEEK);
        assert!(short < medium && medium < full);
        assert!(full <= FULL_STROKE_SEEK);
        // Average-ish seek (quarter stroke) lands in a plausible range.
        let ms = medium.as_millis_f64();
        assert!(ms > 4.0 && ms < 14.0, "quarter-stroke seek {ms} ms");
        // Distances beyond 1.0 are clamped.
        assert_eq!(seek_time(5.0), full);
    }

    fn sequential_reads(count: u64, size: u64) -> Vec<BlockRequest> {
        (0..count)
            .map(|i| BlockRequest::read(i, i * size, size, SimTime::ZERO))
            .collect()
    }

    fn random_reads(count: u64, size: u64, capacity: u64) -> Vec<BlockRequest> {
        (0..count)
            .map(|i| {
                let offset = ((i * 2_654_435_761) % (capacity / size)) * size;
                BlockRequest::read(i, offset, size, SimTime::ZERO)
            })
            .collect()
    }

    #[test]
    fn info_and_bounds() {
        let mut d = hdd();
        assert_eq!(d.info().name, "HDD-7200rpm");
        assert!(!d.info().supports_free);
        let too_far = BlockRequest::read(0, d.capacity_bytes(), 4096, SimTime::ZERO);
        assert!(matches!(
            d.submit(&too_far),
            Err(DeviceError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn sequential_reads_stream_at_media_rate() {
        let mut d = hdd();
        let reqs = sequential_reads(256, 64 * 1024);
        let report = replay_closed(&mut d, &reqs).unwrap();
        let mbps = report.read_bandwidth_mbps();
        // Outer zone is 120 MB/s; command overhead shaves a little off.
        assert!(mbps > 60.0 && mbps <= 121.0, "sequential read {mbps} MB/s");
        assert!(d.stats().sequential_hits >= 255);
    }

    #[test]
    fn random_reads_are_dominated_by_seek_and_rotation() {
        let mut d = hdd();
        let reqs = random_reads(200, 4096, d.capacity_bytes());
        let report = replay_closed(&mut d, &reqs).unwrap();
        let mbps = report.read_bandwidth_mbps();
        assert!(mbps < 2.0, "random read {mbps} MB/s should be tiny");
        // Average service ≈ seek + half rotation: several milliseconds.
        let mean_ms = report.reads.mean_millis();
        assert!(mean_ms > 3.0 && mean_ms < 30.0, "mean {mean_ms} ms");
    }

    #[test]
    fn sequential_to_random_ratio_is_large() {
        let mut seq_dev = hdd();
        let seq = replay_closed(&mut seq_dev, &sequential_reads(256, 4096)).unwrap();
        let mut rnd_dev = hdd();
        let rnd_reqs = random_reads(256, 4096, rnd_dev.capacity_bytes());
        let rnd = replay_closed(&mut rnd_dev, &rnd_reqs).unwrap();
        let ratio = seq.read_bandwidth_mbps() / rnd.read_bandwidth_mbps();
        // Table 2 reports ~144x for reads; anything north of 30x shows the
        // contract clearly holds for disks.
        assert!(ratio > 30.0, "seq/rand ratio {ratio}");
    }

    #[test]
    fn write_cache_absorbs_idle_bursts_but_not_sustained_writes() {
        // Widely spaced random writes hit an idle drive and are absorbed by
        // the cache; the same writes issued back-to-back are seek-bound.
        let writes = |gap_millis: u64| -> Vec<BlockRequest> {
            (0..50u64)
                .map(|i| {
                    let offset = ((i * 2_654_435_761) % 1_000_000) * 4096;
                    BlockRequest::write(i, offset, 4096, SimTime::from_millis(i * gap_millis))
                })
                .collect()
        };
        // 100 ms apart: the arm has always finished destaging.
        let mut d = hdd();
        let mut spaced = 0.0;
        for req in writes(100) {
            spaced += d.submit(&req).unwrap().response_time().as_millis_f64() / 50.0;
        }
        assert_eq!(d.stats().cached_writes, 50);

        // Sustained (closed-loop) random writes are not masked by the cache:
        // Table 2's random-write bandwidth stays tiny.
        let mut d = hdd();
        let report = replay_closed(&mut d, &writes(0)).unwrap();
        assert!(spaced < report.writes.mean_millis());
        assert!(report.write_bandwidth_mbps() < 3.0);
    }

    #[test]
    fn free_notifications_are_ignored_but_accepted() {
        let mut d = hdd();
        let f = BlockRequest::free(0, 0, 4096, SimTime::from_micros(5));
        let c = d.submit(&f).unwrap();
        assert_eq!(c.finish, SimTime::from_micros(5));
        assert_eq!(d.stats().host_reads + d.stats().host_writes, 0);
    }

    #[test]
    fn inner_zone_transfers_are_slower() {
        let mut d = hdd();
        let outer = BlockRequest::read(0, 0, 8 * 1024 * 1024, SimTime::ZERO);
        let outer_c = d.submit(&outer).unwrap();
        let inner_offset = d.capacity_bytes() - 8 * 1024 * 1024;
        let inner = BlockRequest::read(1, inner_offset, 8 * 1024 * 1024, outer_c.finish);
        let inner_c = d.submit(&inner).unwrap();
        // Both include one seek + rotation, but the inner transfer of 8 MB
        // takes measurably longer.
        assert!(inner_c.response_time() > outer_c.response_time());
    }

    #[test]
    fn fences_in_a_multi_initiator_session() {
        // Two initiators write at random offsets 50 ms apart, at the same
        // instants, so the first write of each instant finds the arm idle
        // and is absorbed by the write-back cache.  With its last write,
        // initiator 0 submits a barrier and then a flush.
        let offset = |i: u64| ((i * 2_654_435_761) % 1_000_000) * 4096;
        let mut queues = vec![HostQueue::new(), HostQueue::new()];
        for i in 0..8u64 {
            let arrival = SimTime::from_millis(i / 2 * 50);
            queues[(i % 2) as usize].submit_request(&BlockRequest::write(
                i,
                offset(i),
                4096,
                arrival,
            ));
        }
        let last = SimTime::from_millis(150);
        queues[0].submit(100, HostCommand::Barrier, last);
        queues[0].submit(101, HostCommand::Flush, last);
        let arbitrated = arbitrate_round_robin(&queues);

        let mut d = hdd();
        d.serve(&mut queues).unwrap();
        assert!(d.stats().cached_writes > 0);
        let mut served: Vec<(usize, Completion)> = Vec::new();
        for (initiator, queue) in queues.iter_mut().enumerate() {
            served.extend(
                queue
                    .drain_completions()
                    .into_iter()
                    .map(|c| (initiator, c)),
            );
        }
        let completion = |initiator: usize, id: u64| {
            served
                .iter()
                .find(|&&(i, c)| i == initiator && c.request_id == id)
                .expect("every command completes")
                .1
        };

        // Each data command completes as `submit` in arbitration order
        // would complete it.
        let mut reference = hdd();
        let mut initiator_finish = [SimTime::ZERO; 2];
        for cmd in &arbitrated {
            let sub = cmd.submission;
            if let Some(request) = sub.command.to_request(sub.id, sub.arrival, sub.priority) {
                let expected = reference.submit(&request).unwrap();
                assert_eq!(completion(cmd.initiator, sub.id), expected);
                let finish = &mut initiator_finish[cmd.initiator];
                *finish = (*finish).max(expected.finish);
            }
        }
        // The barrier completes when its initiator's last command does.
        let barrier = completion(0, 100);
        assert_eq!(barrier.finish, initiator_finish[0]);
        // The flush waits for the arm to destage the cached writes.
        let flush = completion(0, 101);
        assert!(d.arm.next_free() > barrier.finish);
        assert!(flush.finish >= d.arm.next_free());
    }

    #[test]
    fn determinism_with_same_seed() {
        let run = || {
            let mut d = hdd();
            let reqs = random_reads(64, 4096, d.capacity_bytes());
            replay_closed(&mut d, &reqs).unwrap().reads.mean_millis()
        };
        assert_eq!(run(), run());
    }
}
