//! Seeded, reproducible random number generation for workloads and devices.
//!
//! Every stochastic decision in the workspace (workload generation, HDD
//! rotational position, synthetic arrival processes) draws from a [`SimRng`]
//! created from an explicit seed, so every experiment is reproducible
//! bit-for-bit from its configuration.

use crate::time::SimDuration;

/// A deterministic random number generator with storage-workload helpers.
///
/// Internally this is a self-contained xoshiro256++ generator seeded through
/// splitmix64; the workspace carries its own implementation so the simulators
/// have no external dependencies and the streams are stable across toolchain
/// upgrades.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: [u64; 4],
}

/// splitmix64 step, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for an indexed substream (e.g. one device of a fleet)
/// from a base experiment seed.
///
/// The derivation walks splitmix64 `stream + 1` steps from `base` and
/// returns the last output, so consecutive stream indices get outputs of a
/// sequence designed exactly for seeding (the same one
/// [`SimRng::seed_from_u64`] expands states with).  Properties the fleet
/// layer relies on:
///
/// * **Deterministic** — a pure function of `(base, stream)`, so a seeded
///   fleet run derives the same per-device seeds on every run, regardless
///   of thread count or scheduling.
/// * **Distinct per stream** — different indices land on different
///   splitmix64 outputs, so devices never share a stream (stream 0 is also
///   distinct from the base seed itself).
/// * **Decorrelated** — splitmix64's finalizer scrambles the counter, so
///   adjacent devices don't see adjacent raw states.
pub fn derive_stream_seed(base: u64, stream: u64) -> u64 {
    let mut sm = base;
    let mut seed = splitmix64(&mut sm);
    for _ in 0..stream {
        seed = splitmix64(&mut sm);
    }
    seed
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The raw xoshiro256++ step: uniform over all of `u64`.
    fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn next_u64_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Rejection sampling over the largest multiple of `bound` to avoid
        // modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone || zone == 0 {
                return v % bound;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Returns `lo` when the range is empty.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64_below(hi - lo)
        }
    }

    /// Uniform `usize` in `[0, bound)`. Returns 0 when `bound == 0`.
    pub fn next_usize_below(&mut self, bound: usize) -> usize {
        self.next_u64_below(bound as u64) as usize
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits give every representable value in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        if p >= 1.0 {
            // next_f64() < 1.0 always holds, but make the contract explicit.
            let _ = self.next_f64();
            return true;
        }
        self.next_f64() < p
    }

    /// Uniform duration in `[lo, hi)`; returns `lo` if the range is empty.
    pub fn uniform_duration(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        SimDuration::from_nanos(self.uniform_u64(lo.as_nanos(), hi.as_nanos()))
    }

    /// Exponentially distributed duration with the given mean (a Poisson
    /// arrival process helper). A zero mean yields a zero duration.
    pub fn exponential_duration(&mut self, mean: SimDuration) -> SimDuration {
        if mean.is_zero() {
            return SimDuration::ZERO;
        }
        // Inverse-CDF sampling; clamp u away from 0 to avoid ln(0).
        let u = self.next_f64().max(1e-12);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }

    /// Draws from a (truncated, discretised) Zipf-like distribution over
    /// `[0, n)` with skew `theta` (0 = uniform, larger = more skewed).
    ///
    /// Used by workload models that need hot/cold access skew (TPC-C,
    /// Exchange). The implementation uses the standard power-law inverse
    /// transform, which is adequate for workload shaping.
    pub fn zipf_usize(&mut self, n: usize, theta: f64) -> usize {
        if n == 0 {
            return 0;
        }
        if theta <= 0.0 {
            return self.next_usize_below(n);
        }
        let u = self.next_f64().max(1e-12);
        // Inverse transform of P(X <= x) proportional to x^(1-theta).
        let exponent = 1.0 - theta.min(0.999_999);
        let x = u.powf(1.0 / exponent);
        let idx = (x * n as f64) as usize;
        idx.min(n - 1)
    }

    /// Picks an element of a slice uniformly at random; `None` for an empty
    /// slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.next_usize_below(items.len());
            Some(&items[idx])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_below(1_000_000), b.next_u64_below(1_000_000));
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64_below(u64::MAX)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64_below(u64::MAX)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn bounds_are_respected() {
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.next_u64_below(10);
            assert!(v < 10);
            let u = rng.uniform_u64(5, 8);
            assert!((5..8).contains(&u));
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(rng.next_u64_below(0), 0);
        assert_eq!(rng.uniform_u64(9, 3), 9);
        assert_eq!(rng.next_usize_below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(11);
        let mean = SimDuration::from_micros(50);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| rng.exponential_duration(mean).as_micros_f64())
            .sum();
        let observed = total / n as f64;
        assert!(
            (observed - 50.0).abs() < 2.5,
            "observed mean {observed} too far from 50"
        );
        assert_eq!(
            rng.exponential_duration(SimDuration::ZERO),
            SimDuration::ZERO
        );
    }

    #[test]
    fn uniform_duration_in_range() {
        let mut rng = SimRng::seed_from_u64(13);
        let lo = SimDuration::from_micros(10);
        let hi = SimDuration::from_micros(20);
        for _ in 0..500 {
            let d = rng.uniform_duration(lo, hi);
            assert!(d >= lo && d < hi);
        }
        assert_eq!(rng.uniform_duration(hi, lo), hi);
    }

    #[test]
    fn zipf_is_skewed_towards_low_indices() {
        let mut rng = SimRng::seed_from_u64(17);
        let n = 1000;
        let mut low = 0usize;
        let samples = 10_000;
        for _ in 0..samples {
            if rng.zipf_usize(n, 0.9) < n / 10 {
                low += 1;
            }
        }
        // With strong skew, far more than 10% of draws land in the first 10%.
        assert!(low > samples / 5, "low-decile draws: {low}");
        assert_eq!(rng.zipf_usize(0, 0.9), 0);
    }

    #[test]
    fn choose_picks_a_member() {
        let mut rng = SimRng::seed_from_u64(23);
        let items = [1, 2, 3, 4, 5];
        for _ in 0..100 {
            let c = rng.choose(&items).copied().unwrap();
            assert!(items.contains(&c));
        }
        let empty: [u32; 0] = [];
        assert!(rng.choose(&empty).is_none());
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        // Pure function of (base, stream).
        assert_eq!(derive_stream_seed(42, 3), derive_stream_seed(42, 3));
        // Distinct across streams of one base, across bases, and from the
        // base itself.
        let base = 0xF1EE_7000_u64;
        let seeds: Vec<u64> = (0..64).map(|d| derive_stream_seed(base, d)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "stream seeds collide");
        assert!(!seeds.contains(&base));
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }

    #[test]
    fn stream_seeds_yield_decorrelated_generators() {
        let mut a = SimRng::seed_from_u64(derive_stream_seed(7, 0));
        let mut b = SimRng::seed_from_u64(derive_stream_seed(7, 1));
        let va: Vec<u64> = (0..32).map(|_| a.next_u64_below(1000)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64_below(1000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn float_draws_cover_the_unit_interval() {
        let mut rng = SimRng::seed_from_u64(31);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let f = rng.next_f64();
            if f < 0.1 {
                lo = true;
            }
            if f > 0.9 {
                hi = true;
            }
        }
        assert!(lo && hi, "draws never reached both tails");
    }
}
