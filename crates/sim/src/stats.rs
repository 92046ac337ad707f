//! Statistics collection: online summaries, latency distributions, and
//! throughput accounting.
//!
//! The experiment harness reports the same quantities the paper reports:
//! average response times in milliseconds, bandwidths in MB/s, counts of
//! pages moved, and cleaning times in seconds.  These helpers keep the
//! accounting in one, well-tested place.

use crate::time::SimDuration;

/// Online mean/min/max/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = value - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The workspace's percentile rule, nearest rank with rounding: the element
/// of the ascending slice `sorted` at index `round((len - 1) · p / 100)`,
/// with `p` clamped to 0–100.  Zero when the slice is empty.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let p = p.clamp(0.0, 100.0) / 100.0;
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank]
}

/// Collection of response-time observations with percentile queries.
///
/// Percentile queries sort a cached copy of the samples once and reuse it
/// until the next observation is recorded (the collection is append-only,
/// so a length mismatch is exactly a staleness signal).  Reports that read
/// several percentiles per class — `ReplayReport::percentiles()` asks for
/// p50/p95/p99 — therefore sort once instead of once per query.
#[derive(Clone, Debug, Default)]
pub struct LatencyStats {
    samples_ns: Vec<u64>,
    summary: Summary,
    /// Sorted copy of `samples_ns`, valid iff the lengths match.  Interior
    /// mutability keeps `percentile` a `&self` query.
    sorted_cache: std::cell::RefCell<Vec<u64>>,
}

impl LatencyStats {
    /// Creates an empty collection.
    pub fn new() -> Self {
        LatencyStats {
            samples_ns: Vec::new(),
            summary: Summary::new(),
            sorted_cache: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Records one response time.
    pub fn record(&mut self, response: SimDuration) {
        self.samples_ns.push(response.as_nanos());
        self.summary.record(response.as_nanos() as f64);
    }

    /// Number of recorded responses.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// Whether no responses have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// Mean response time.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.summary.mean().round() as u64)
    }

    /// Mean response time in milliseconds (the unit the paper reports).
    pub fn mean_millis(&self) -> f64 {
        self.summary.mean() / 1e6
    }

    /// Maximum response time.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.summary.max() as u64)
    }

    /// Minimum response time.
    pub fn min(&self) -> SimDuration {
        SimDuration::from_nanos(self.summary.min() as u64)
    }

    /// Response time at percentile `p` (0–100). Returns zero when empty.
    ///
    /// The first query after a push sorts the cached copy; subsequent
    /// queries are O(1) lookups until the next push invalidates it.
    pub fn percentile(&self, p: f64) -> SimDuration {
        let mut sorted = self.sorted_cache.borrow_mut();
        if sorted.len() != self.samples_ns.len() {
            sorted.clear();
            sorted.extend_from_slice(&self.samples_ns);
            sorted.sort_unstable();
        }
        SimDuration::from_nanos(nearest_rank(&sorted, p))
    }

    /// Merges another collection into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
        self.summary.merge(&other.summary);
    }
}

/// Bytes-over-time throughput accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Throughput {
    bytes: u64,
    elapsed: SimDuration,
}

impl Throughput {
    /// Creates an empty throughput record.
    pub fn new() -> Self {
        Throughput {
            bytes: 0,
            elapsed: SimDuration::ZERO,
        }
    }

    /// Creates a throughput record from totals.
    pub fn from_totals(bytes: u64, elapsed: SimDuration) -> Self {
        Throughput { bytes, elapsed }
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total elapsed simulated time.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }

    /// Bandwidth in decimal megabytes per second (the unit used in Table 2
    /// and Figure 2). Zero when no time has elapsed.
    pub fn megabytes_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / secs
        }
    }
}

/// Computes the relative improvement of `candidate` over `baseline`
/// as a percentage: `(baseline - candidate) / baseline * 100`.
///
/// Returns 0 when the baseline is not positive. This is the metric used by
/// Tables 4 and 6 of the paper ("improvement in response time").
pub fn improvement_percent(baseline: f64, candidate: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - candidate) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_is_zero() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge_matches_single_pass() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut all = Summary::new();
        for &v in &values {
            all.record(v);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_mean_and_percentiles() {
        let mut l = LatencyStats::new();
        for ms in 1..=100u64 {
            l.record(SimDuration::from_millis(ms));
        }
        assert_eq!(l.count(), 100);
        assert!((l.mean_millis() - 50.5).abs() < 1e-9);
        assert_eq!(l.percentile(0.0), SimDuration::from_millis(1));
        assert_eq!(l.percentile(100.0), SimDuration::from_millis(100));
        let p50 = l.percentile(50.0).as_millis_f64();
        assert!((p50 - 50.0).abs() <= 1.0);
        assert_eq!(l.min(), SimDuration::from_millis(1));
        assert_eq!(l.max(), SimDuration::from_millis(100));
    }

    #[test]
    fn latency_stats_empty() {
        let l = LatencyStats::new();
        assert!(l.is_empty());
        assert_eq!(l.mean(), SimDuration::ZERO);
        assert_eq!(l.percentile(99.0), SimDuration::ZERO);
    }

    #[test]
    fn percentile_cache_invalidates_on_push_and_merge() {
        let mut l = LatencyStats::new();
        for ms in [30u64, 10, 20] {
            l.record(SimDuration::from_millis(ms));
        }
        assert_eq!(l.percentile(100.0), SimDuration::from_millis(30));
        // A later push must be visible to the next query.
        l.record(SimDuration::from_millis(40));
        assert_eq!(l.percentile(100.0), SimDuration::from_millis(40));
        assert_eq!(l.percentile(0.0), SimDuration::from_millis(10));
        // Merges must invalidate too.
        let mut other = LatencyStats::new();
        other.record(SimDuration::from_millis(5));
        l.merge(&other);
        assert_eq!(l.percentile(0.0), SimDuration::from_millis(5));
        // A clone answers independently and identically.
        let c = l.clone();
        assert_eq!(c.percentile(100.0), SimDuration::from_millis(40));
    }

    #[test]
    fn latency_merge_combines_counts() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        a.record(SimDuration::from_millis(10));
        b.record(SimDuration::from_millis(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean_millis() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_mbps() {
        let t = Throughput::from_totals(100_000_000, SimDuration::from_millis(2_000));
        assert!((t.megabytes_per_sec() - 50.0).abs() < 1e-9);
        let empty = Throughput::new();
        assert_eq!(empty.megabytes_per_sec(), 0.0);
    }

    #[test]
    fn improvement_percent_metric() {
        assert!((improvement_percent(10.0, 9.0) - 10.0).abs() < 1e-9);
        assert!((improvement_percent(10.0, 10.0) - 0.0).abs() < 1e-9);
        assert_eq!(improvement_percent(0.0, 5.0), 0.0);
        // A regression shows up as a negative improvement.
        assert!(improvement_percent(10.0, 12.0) < 0.0);
    }
}
