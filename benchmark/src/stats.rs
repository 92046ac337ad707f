//! Order statistics, the latency histogram and the run fingerprint.

/// Quartiles `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is the
/// rule the spread of a metric across runs is judged by.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty());
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.len() == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The percentiles a latency report may quote, lowest first, each with the
/// share of samples beyond it in parts per 10,000.
const REPORTABLE: [(f64, u64); 5] = [
    (0.5, 5000),
    (0.9, 1000),
    (0.99, 100),
    (0.999, 10),
    (0.9999, 1),
];

/// The highest reportable percentile that still has at least ten of
/// `samples` beyond it (p99.9 needs 10,000), or `None` below 20 samples.
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    REPORTABLE
        .iter()
        .rev()
        .find(|(_, beyond)| samples * beyond >= 10 * 10_000)
        .map(|&(p, _)| p)
}

/// Sub-buckets per power of two: values are kept to 1 part in 1024.
const SUB_BITS: u32 = 11;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond latencies (the HDR layout): exact
/// below 2048 ns, within 0.1% above, in 0.9 MB however many samples it
/// holds — so the latency record does not drown the device's own footprint
/// in `peak_rss_mb`.  Everything about it is integer arithmetic, so the
/// percentiles it reports repeat exactly for a given seed.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB / 2 + SUB / 2) as usize],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket(nanos: u64) -> usize {
        if nanos < SUB {
            return nanos as usize;
        }
        let shift = 63 - nanos.leading_zeros() - (SUB_BITS - 1);
        (shift as u64 * (SUB / 2) + (nanos >> shift)) as usize
    }

    /// The smallest value that lands in `bucket`.
    fn floor_of(bucket: usize) -> u64 {
        let bucket = bucket as u64;
        if bucket < SUB {
            return bucket;
        }
        let shift = bucket / (SUB / 2) - 1;
        (bucket - shift * (SUB / 2)) << shift
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[Self::bucket(nanos)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The nearest-rank `p` quantile, in nanoseconds.  Inside the bucket
    /// that holds the rank the value is interpolated by the rank's position
    /// among the bucket's samples (the grouped-data rule), so a latency
    /// that most commands share exactly still yields a quantile that moves
    /// with the sample, instead of one frozen at the bucket's edge.
    pub fn quantile_nanos(&self, p: f64) -> f64 {
        assert!(self.total > 0 && (0.0..=1.0).contains(&p));
        let rank = ((self.total as f64 * p).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if seen + count >= rank {
                let low = Self::floor_of(bucket);
                // The last bucket ends at u64::MAX, which is where the wrap lands.
                let high = Self::floor_of(bucket + 1).wrapping_sub(1);
                let position = (rank - seen) as f64 / count as f64;
                return low as f64 + (high - low) as f64 * position;
            }
            seen += count;
        }
        unreachable!("rank {rank} exceeds the {} recorded samples", self.total)
    }
}

/// Running hash of every `(id, start, finish, status)` a run completes, in
/// id order: two runs simulated the same thing iff their fingerprints agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    pub fn completion(&mut self, id: u64, start_ns: u64, finish_ns: u64, status: u64) {
        self.word(id);
        self.word(start_ns);
        self.word(finish_ns);
        self.word(status);
    }

    /// The fingerprint so far, finalised so short inputs still fill 64 bits.
    pub fn value(self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2,3,4,5,6,7,8,9], n=4) == [2.5, 5.0, 7.5]
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.5, 5.0, 7.5));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(999), Some(0.9));
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(9_999), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }

    #[test]
    fn histogram_is_exact_when_small_and_tight_when_large() {
        let mut h = LatencyHistogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.len(), 1000);
        assert_eq!(h.quantile_nanos(0.5), 500.0);
        assert_eq!(h.quantile_nanos(0.999), 999.0);
        assert_eq!(h.quantile_nanos(1.0), 1000.0);
        for v in [2047u64, 2048, 2049, 123_456, 98_765_432_101, u64::MAX] {
            let floor = LatencyHistogram::floor_of(LatencyHistogram::bucket(v));
            assert!(floor <= v && (v - floor) as f64 <= v as f64 / 1024.0, "{v}");
        }
        h.record(5_000_000);
        assert_eq!(h.len(), 1001);
        // One sample in the bucket [4_997_120, 5_001_215]: its upper edge.
        assert_eq!(h.quantile_nanos(1.0), 5_001_215.0);
        // Shared buckets interpolate by rank: 3 of 4 samples in is 3/4 across.
        let mut shared = LatencyHistogram::default();
        for _ in 0..4 {
            shared.record(5_000_000);
        }
        assert_eq!(shared.quantile_nanos(0.75), 4_997_120.0 + 4095.0 * 0.75);
    }

    #[test]
    fn fingerprint_is_stable_and_order_sensitive() {
        let mut a = Fingerprint::default();
        a.completion(1, 10, 20, 0);
        a.completion(2, 15, 40, 0);
        assert_eq!(a.hex(), "e73a1817fd871959");
        let mut b = Fingerprint::default();
        b.completion(2, 15, 40, 0);
        b.completion(1, 10, 20, 0);
        assert_ne!(a, b);
        let mut c = Fingerprint::default();
        c.completion(1, 10, 20, 1);
        c.completion(2, 15, 40, 0);
        assert_ne!(a, c);
    }
}
