//! Rebuild QoS: a deterministic token-bucket bandwidth budget with
//! host-pressure backoff for online rebuild traffic.
//!
//! Rebuild copy-back competes with host I/O on the surviving members; an
//! unthrottled rebuild minimizes the window of reduced redundancy but
//! wrecks the survivors' tail latency.  `RebuildGovernor` lets the
//! caller pick the trade: each rebuild chunk is *admitted* at a sim time
//! no earlier than its request time, delayed until the token bucket holds
//! enough bytes (and further, when the host's per-initiator queue depth is
//! at or above the pressure threshold, by a fixed backoff so rebuild
//! yields to foreground bursts).
//!
//! All arithmetic is integer nanoseconds/bytes — admission times are a
//! pure function of the call sequence, preserving the fleet's determinism
//! contract.

use ossd_sim::{SimDuration, SimTime};

/// Rebuild bandwidth/backoff policy, built by [`RebuildQos::unthrottled`]
/// or [`RebuildQos::limited`] and, optionally, [`RebuildQos::with_backoff`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RebuildQos {
    /// Token refill rate in bytes of copy-back per simulated second;
    /// `None` disables throttling entirely.
    pub bytes_per_sec: Option<u64>,
    /// Bucket capacity: how many bytes of budget can accumulate while
    /// rebuild is idle (bounds the burst after a quiet period).
    burst_bytes: u64,
    /// Host-pressure threshold: when the last serve session's maximum
    /// per-initiator command count is at or above this, rebuild backs
    /// off.  `None` disables pressure backoff.
    pub pressure_depth: Option<u32>,
    /// How long an admission is postponed per pressure event.
    backoff: SimDuration,
}

impl RebuildQos {
    /// No throttling, no backoff: rebuild chunks are admitted on request.
    pub fn unthrottled() -> Self {
        RebuildQos {
            bytes_per_sec: None,
            burst_bytes: 0,
            pressure_depth: None,
            backoff: SimDuration::ZERO,
        }
    }

    /// A bandwidth budget of `bytes_per_sec`, with a default burst of a
    /// quarter-second of budget (at least 64 KiB).
    pub fn limited(bytes_per_sec: u64) -> Self {
        RebuildQos {
            bytes_per_sec: Some(bytes_per_sec),
            burst_bytes: (bytes_per_sec / 4).max(64 * 1024),
            pressure_depth: None,
            backoff: SimDuration::ZERO,
        }
    }

    /// Enables host-pressure backoff: admissions requested while the
    /// per-initiator depth is `>= depth` are postponed by `backoff`.
    pub fn with_backoff(mut self, depth: u32, backoff: SimDuration) -> Self {
        self.pressure_depth = Some(depth);
        self.backoff = backoff;
        self
    }
}

impl Default for RebuildQos {
    fn default() -> Self {
        RebuildQos::unthrottled()
    }
}

/// The stateful admission controller for one fleet's rebuild traffic.
#[derive(Clone, Debug)]
pub(crate) struct RebuildGovernor {
    qos: RebuildQos,
    /// Bytes currently in the bucket.
    tokens: u64,
    /// When the bucket was last refilled (admission clock; monotone).
    refilled: SimTime,
}

impl RebuildGovernor {
    /// A governor starting with a full bucket.
    pub(crate) fn new(qos: RebuildQos) -> Self {
        RebuildGovernor {
            qos,
            tokens: qos.burst_bytes,
            refilled: SimTime::ZERO,
        }
    }

    /// Admits a `bytes`-sized rebuild chunk requested at `at` while the
    /// host shows `pressure` (max per-initiator commands in the last serve
    /// session).  Returns the admission time: `at`, pushed later by
    /// pressure backoff and by token-bucket starvation.  The bucket may be
    /// driven below a full chunk (chunks larger than the burst simply wait
    /// proportionally), so long-run admitted bandwidth never exceeds the
    /// budget.
    pub(crate) fn admit(&mut self, at: SimTime, bytes: u64, pressure: u32) -> SimTime {
        let mut t = at.max(self.refilled);
        if let Some(depth) = self.qos.pressure_depth {
            if pressure >= depth {
                t = t.saturating_add(self.qos.backoff);
            }
        }
        let Some(rate) = self.qos.bytes_per_sec else {
            return t;
        };
        // Refill for the elapsed admission-clock time, capped at the burst.
        let elapsed = t.saturating_since(self.refilled).as_nanos() as u128;
        let refill = (elapsed * rate as u128 / 1_000_000_000) as u64;
        self.tokens = self.tokens.saturating_add(refill).min(self.qos.burst_bytes);
        self.refilled = t;
        if self.tokens >= bytes {
            self.tokens -= bytes;
            return t;
        }
        // Wait until the deficit refills, then spend the whole chunk.
        let deficit = (bytes - self.tokens) as u128;
        let wait = (deficit * 1_000_000_000).div_ceil(rate as u128) as u64;
        self.tokens = 0;
        let admitted = t.saturating_add(SimDuration::from_nanos(wait));
        self.refilled = admitted;
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unthrottled_admits_on_request() {
        let mut gov = RebuildGovernor::new(RebuildQos::unthrottled());
        let at = SimTime::from_micros(5);
        assert_eq!(gov.admit(at, 1 << 30, 100), at);
    }

    #[test]
    fn budget_paces_sustained_chunks_at_the_configured_rate() {
        // 256 KiB/s, whose quarter-second burst is the 64 KiB floor: 10
        // chunks of 64 KiB must span ~10 * 250 ms.
        let qos = RebuildQos::limited(256 * 1024);
        assert_eq!(qos.burst_bytes, 64 * 1024);
        let mut gov = RebuildGovernor::new(qos);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            last = gov.admit(last, 64 * 1024, 0);
        }
        let elapsed = last.saturating_since(SimTime::ZERO).as_secs_f64();
        // First chunk rides the initial burst; nine refills of 1/4 s.
        assert!((elapsed - 9.0 / 4.0).abs() < 1e-6, "elapsed {elapsed} s");
    }

    #[test]
    fn idle_time_refills_at_most_the_burst() {
        // 512 KiB/s: a quarter second of budget is 128 KiB.
        let qos = RebuildQos::limited(512 * 1024);
        assert_eq!(qos.burst_bytes, 128 * 1024);
        let mut gov = RebuildGovernor::new(qos);
        // Drain the bucket, then go idle for 10 s: only 128 KiB accrues.
        gov.admit(SimTime::ZERO, 128 * 1024, 0);
        let at = SimTime::from_micros(10_000_000);
        assert_eq!(gov.admit(at, 128 * 1024, 0), at);
        // The next chunk immediately waits a full refill again.
        let next = gov.admit(at, 128 * 1024, 0);
        assert!(next > at);
    }

    #[test]
    fn pressure_backoff_postpones_admission() {
        let qos = RebuildQos::unthrottled().with_backoff(8, SimDuration::from_micros(500));
        let mut gov = RebuildGovernor::new(qos);
        let at = SimTime::from_micros(100);
        assert_eq!(gov.admit(at, 4096, 7), at);
        assert_eq!(
            gov.admit(at, 4096, 8),
            at.saturating_add(SimDuration::from_micros(500))
        );
    }

    #[test]
    fn admission_clock_is_monotone() {
        let qos = RebuildQos::limited(256 * 1024);
        let mut gov = RebuildGovernor::new(qos);
        let t1 = gov.admit(SimTime::from_micros(1000), 64 * 1024, 0);
        // A request at an earlier sim time cannot be admitted before the
        // bucket's clock.
        let t2 = gov.admit(SimTime::from_micros(0), 64 * 1024, 0);
        assert!(t2 >= t1);
    }
}
