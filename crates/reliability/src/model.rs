//! The seeded fault injector and the combined injector + ECC model.

use ossd_sim::SimRng;

use crate::config::{EccConfig, FaultConfig, ReliabilityConfig};

/// Caps the Poisson mean so a pathological configuration cannot spin the
/// sampler; a page with hundreds of raw errors is uncorrectable regardless.
const MAX_BER_MEAN: f64 = 512.0;

/// The outcome of one page read under the reliability model; the default is
/// a clean read (no retries, no corrections).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadStatus {
    /// Read-retry attempts the controller needed (0 = first read decoded).
    /// Each retry costs one extra array-read of latency at the device.
    pub retries: u32,
    /// Raw bit errors the ECC corrected on the final (successful) attempt.
    pub corrected_bits: u32,
    /// The read failed every retry: the data is lost and the error is
    /// surfaced to the host as a typed completion status.
    pub uncorrectable: bool,
}

/// The seeded random source of media faults.
///
/// One injector serves a whole flash array; draws happen in the array's
/// deterministic operation order, so a `(FaultConfig, workload)` pair
/// reproduces the identical failure sequence on every run.
#[derive(Clone, Debug)]
pub(crate) struct FaultInjector {
    rng: SimRng,
    config: FaultConfig,
}

impl FaultInjector {
    /// Builds an injector seeded from [`FaultConfig::seed`].
    pub(crate) fn new(config: FaultConfig) -> Self {
        FaultInjector {
            rng: SimRng::seed_from_u64(config.seed ^ 0xBAD_B10C_5EED),
            config,
        }
    }

    /// `base · e^(fail_wear_growth · wear)`, clamped to 1.  A zero base is
    /// zero at any wear, and costs no `exp`: at extreme wear the factor
    /// overflows to ∞, and 0 · ∞ = NaN, which `min(1.0)` would turn into a
    /// certain failure of a fault that is switched off.
    fn wear_scaled(&self, base: f64, wear: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        (base * (self.config.fail_wear_growth * wear.max(0.0)).exp()).min(1.0)
    }

    /// Whether a block is factory-marked bad (drawn once per block at array
    /// construction).
    pub(crate) fn factory_bad(&mut self) -> bool {
        self.rng.chance(self.config.factory_bad_prob)
    }

    /// How many of `n` consecutive page programs on a block at the given
    /// wear succeed before the first failure: one draw per page against one
    /// computed failure probability, until one fails or `n` have
    /// succeeded.
    pub(crate) fn programs_landing(&mut self, wear: f64, n: u32) -> u32 {
        let p = self.wear_scaled(self.config.program_fail_base, wear);
        if p == 0.0 {
            // `chance(0)` is one draw that never succeeds: step the stream
            // without the comparisons.
            for _ in 0..n {
                let _ = self.rng.next_f64();
            }
            return n;
        }
        (0..n).take_while(|_| !self.rng.chance(p)).count() as u32
    }

    /// Whether a block erase fails at the given wear.
    pub(crate) fn erase_fails(&mut self, wear: f64) -> bool {
        let p = self.wear_scaled(self.config.erase_fail_base, wear);
        self.rng.chance(p)
    }

    /// Mean raw bit errors for a read at the given wear and number of reads
    /// the block has absorbed since its last erase (retention/disturb).  A
    /// zero `raw_ber_base` contributes nothing at any wear.
    pub(crate) fn raw_ber_mean(&self, wear: f64, reads_since_erase: u64) -> f64 {
        let base = self.config.raw_ber_base;
        let wear_term = if base == 0.0 {
            0.0
        } else {
            base * (self.config.ber_wear_growth * wear).exp()
        };
        let disturb_term = self.config.read_disturb_per_read * reads_since_erase as f64;
        (wear_term + disturb_term).min(MAX_BER_MEAN)
    }

    /// Samples a raw bit-error count from a Poisson distribution with the
    /// given mean (Knuth's product method; the mean is capped well below
    /// any regime where it matters).
    pub(crate) fn sample_bit_errors(&mut self, mean: f64) -> u32 {
        if mean <= 0.0 {
            return 0;
        }
        let limit = (-mean.min(MAX_BER_MEAN)).exp();
        let mut k = 0u32;
        let mut p = 1.0f64;
        loop {
            p *= self.rng.next_f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
}

/// The injector paired with the ECC/read-retry parameters: the one object a
/// flash array consults for every fallible operation.
#[derive(Clone, Debug)]
pub struct ReliabilityModel {
    injector: FaultInjector,
    ecc: EccConfig,
}

impl ReliabilityModel {
    /// Builds the model for a configuration.  Callers normally gate on
    /// [`ReliabilityConfig::is_none`] and install no model at all for the
    /// fault-free default.
    pub fn new(config: &ReliabilityConfig) -> Self {
        ReliabilityModel {
            injector: FaultInjector::new(config.faults),
            ecc: config.ecc,
        }
    }

    /// The ECC parameters.
    pub fn ecc(&self) -> &EccConfig {
        &self.ecc
    }

    /// Whether a block is factory-marked bad.
    pub fn factory_bad(&mut self) -> bool {
        self.injector.factory_bad()
    }

    /// How many of `n` consecutive page programs at the given wear land
    /// before the first failure, `n` when none fails.  The failure
    /// probability is computed once for the run, and each page takes one
    /// draw until one fails or `n` have succeeded.
    pub fn programs_landing(&mut self, wear: f64, n: u32) -> u32 {
        self.injector.programs_landing(wear, n)
    }

    /// Whether a block erase fails at the given wear.
    pub fn erase_fails(&mut self, wear: f64) -> bool {
        self.injector.erase_fails(wear)
    }

    /// Runs one read through the raw-BER draw and the ECC decode/retry
    /// loop: the first attempt samples the wear- and disturb-scaled error
    /// count; every retry re-samples with the mean scaled down by
    /// [`EccConfig::retry_error_factor`] (shifted read thresholds).  The
    /// read is uncorrectable once the retry budget is exhausted.
    pub fn read_outcome(&mut self, wear: f64, reads_since_erase: u64) -> ReadStatus {
        let mut mean = self.injector.raw_ber_mean(wear, reads_since_erase);
        let mut raw = self.injector.sample_bit_errors(mean);
        let mut retries = 0u32;
        while raw > self.ecc.correctable_bits && retries < self.ecc.max_read_retries {
            retries += 1;
            mean *= self.ecc.retry_error_factor;
            raw = self.injector.sample_bit_errors(mean);
        }
        let uncorrectable = raw > self.ecc.correctable_bits;
        ReadStatus {
            retries,
            // An uncorrectable read delivered no data, so it corrected
            // nothing; only successful decodes report corrected bits.
            corrected_bits: if uncorrectable { 0 } else { raw },
            uncorrectable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty() -> ReliabilityConfig {
        ReliabilityConfig::wearout(7)
    }

    #[test]
    fn same_seed_same_failure_sequence() {
        let mut a = ReliabilityModel::new(&faulty());
        let mut b = ReliabilityModel::new(&faulty());
        for i in 0..2000 {
            let wear = i as f64 / 500.0;
            let n = (i % 5) as u32;
            assert_eq!(a.programs_landing(wear, n), b.programs_landing(wear, n));
            assert_eq!(a.erase_fails(wear), b.erase_fails(wear));
            assert_eq!(a.read_outcome(wear, i), b.read_outcome(wear, i));
        }
    }

    #[test]
    fn fault_free_model_never_fails() {
        // The fault-free config is normally gated out entirely, but even an
        // installed model with zero probabilities must be inert.
        let mut m = ReliabilityModel::new(&ReliabilityConfig::none());
        for i in 0..500 {
            assert_eq!(m.programs_landing(2.0, 8), 8);
            assert!(!m.erase_fails(2.0));
            assert_eq!(m.read_outcome(2.0, i), ReadStatus::default());
        }
    }

    /// Whether one page program fails: the per-page draw `programs_landing`
    /// replaced, kept as its reference.
    fn program_fails(injector: &mut FaultInjector, wear: f64) -> bool {
        let p = injector.wear_scaled(injector.config.program_fail_base, wear);
        injector.rng.chance(p)
    }

    /// The run form is the per-page loop it replaced: same landed count and
    /// the random stream left where the loop leaves it (the erase draw
    /// after each run checks that), at wears where failures are common.
    #[test]
    fn programs_landing_equals_one_program_fails_draw_per_page() {
        let config = FaultConfig {
            program_fail_base: 0.01,
            fail_wear_growth: 2.0,
            ..FaultConfig::wearout(11)
        };
        let mut run = FaultInjector::new(config);
        let mut single = FaultInjector::new(config);
        let (mut short, mut full) = (0, 0);
        for i in 0..5_000u32 {
            let wear = (i % 100) as f64 / 100.0;
            let n = i % 40;
            let mut landed = 0;
            while landed < n && !program_fails(&mut single, wear) {
                landed += 1;
            }
            assert_eq!(run.programs_landing(wear, n), landed, "run {i}");
            assert_eq!(run.erase_fails(wear), single.erase_fails(wear), "run {i}");
            if landed < n {
                short += 1;
            } else {
                full += 1;
            }
        }
        assert!(short > 1_000 && full > 1_000, "{short} short, {full} full");
    }

    /// A fault switched off with a zero base stays off at any wear: past
    /// `growth · wear` ≈ 709.78 the factor is ∞, and 0 · ∞ = NaN once read
    /// as a certain failure (and a raw-BER mean at the cap).  A zero-base
    /// run also leaves the stream where `n` zero-probability draws would.
    #[test]
    fn a_zero_base_is_zero_at_any_wear() {
        let config = FaultConfig {
            program_fail_base: 0.0,
            erase_fail_base: 0.5,
            raw_ber_base: 0.0,
            ..FaultConfig::wearout(17)
        };
        let mut run = FaultInjector::new(config);
        let mut single = FaultInjector::new(config);
        for wear in [60.0, 100.0, 1e6, f64::MAX] {
            assert_eq!(run.wear_scaled(0.0, wear), 0.0);
            assert_eq!(run.raw_ber_mean(wear, 0), 0.0);
            assert!(!program_fails(&mut run, wear));
            assert!(!program_fails(&mut single, wear));
        }
        for (wear, n) in [(60.0, 100), (100.0, 3), (f64::MAX, 7)] {
            assert_eq!(run.programs_landing(wear, n), n);
            (0..n).for_each(|_| assert!(!program_fails(&mut single, wear)));
            assert_eq!(run.erase_fails(0.01), single.erase_fails(0.01));
        }
        let mut model = ReliabilityModel::new(&ReliabilityConfig {
            faults: config,
            ..ReliabilityConfig::none()
        });
        assert_eq!(model.read_outcome(100.0, 0), ReadStatus::default());
        // A non-zero base at such wear is the certainty it always was.
        assert_eq!(run.wear_scaled(1e-300, 100.0), 1.0);
    }

    #[test]
    fn failure_probability_grows_with_wear() {
        let count = |wear: f64| -> u32 {
            let mut m = ReliabilityModel::new(&faulty());
            (0..20_000).filter(|_| m.erase_fails(wear)).count() as u32
        };
        let fresh = count(0.0);
        let rated = count(1.0);
        let beyond = count(1.5);
        assert!(fresh < rated, "fresh {fresh} vs rated {rated}");
        assert!(rated < beyond, "rated {rated} vs beyond {beyond}");
    }

    #[test]
    fn reads_degrade_with_wear_and_disturb() {
        let mut m = ReliabilityModel::new(&faulty());
        let sum_retries = |m: &mut ReliabilityModel, wear: f64, reads: u64| -> u64 {
            (0..2000)
                .map(|_| {
                    let s = m.read_outcome(wear, reads);
                    s.retries as u64 + if s.uncorrectable { 100 } else { 0 }
                })
                .sum()
        };
        let pristine = sum_retries(&mut m, 0.0, 0);
        let worn = sum_retries(&mut m, 1.2, 0);
        let disturbed = sum_retries(&mut m, 0.0, 50_000);
        assert!(worn > pristine, "worn {worn} vs pristine {pristine}");
        assert!(
            disturbed > pristine,
            "disturbed {disturbed} vs pristine {pristine}"
        );
    }

    #[test]
    fn uncorrectable_reads_exist_but_are_rare_at_moderate_wear() {
        let mut m = ReliabilityModel::new(&faulty());
        let un = (0..20_000)
            .filter(|_| m.read_outcome(1.15, 1000).uncorrectable)
            .count();
        assert!(un > 0, "no uncorrectable reads at heavy wear");
        assert!(un < 20_000 / 2, "uncorrectable reads dominate: {un}");
    }

    #[test]
    fn poisson_sampler_tracks_its_mean() {
        let mut inj = FaultInjector::new(FaultConfig::wearout(3));
        let n = 30_000;
        let total: u64 = (0..n).map(|_| inj.sample_bit_errors(4.0) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "sampled mean {mean}");
        assert_eq!(inj.sample_bit_errors(0.0), 0);
    }

    #[test]
    fn corrected_bits_never_exceed_the_code_strength() {
        let mut m = ReliabilityModel::new(&faulty());
        for i in 0..5000 {
            let s = m.read_outcome(1.5, i);
            assert!(s.corrected_bits <= m.ecc().correctable_bits);
            if s.uncorrectable {
                assert_eq!(s.retries, m.ecc().max_read_retries);
            }
        }
    }
}
