//! Fault-model and ECC configuration.

/// Probabilities and scaling of the media fault model.
///
/// All failure probabilities grow with *wear* — the block's erase count
/// divided by the part's rated endurance — following the exponential
/// acceleration real NAND exhibits near end-of-life: a probability `p`
/// at wear `w` is `base · e^(growth · w)`, clamped to 1, and zero at any
/// wear when `base` is zero.  A block at its rated endurance (`w = 1`)
/// with `growth = 6` is therefore ~400× more likely to fail an operation
/// than a pristine one, and the probability keeps compounding past the
/// rating, which is what drives grown-bad-block retirement in the lifetime
/// experiments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream; the same configuration and operation
    /// sequence reproduce the same failures bit-for-bit.
    pub seed: u64,
    /// Probability that a block is factory-marked bad at build time.
    pub factory_bad_prob: f64,
    /// Base probability that a page program fails on a pristine block.
    pub program_fail_base: f64,
    /// Base probability that a block erase fails on a pristine block.
    pub erase_fail_base: f64,
    /// Exponential growth rate of the program/erase failure probabilities
    /// with wear (erase count / endurance).
    pub fail_wear_growth: f64,
    /// Mean raw bit errors per page read on a pristine block.
    pub raw_ber_base: f64,
    /// Exponential growth rate of the raw bit-error mean with wear.
    pub ber_wear_growth: f64,
    /// Additional mean raw bit errors per read of the block since its last
    /// erase — the retention/read-disturb term: pages that sit (and are
    /// re-read) for a long time between erases accumulate charge loss.
    pub read_disturb_per_read: f64,
}

impl FaultConfig {
    /// The fault-free configuration: every probability zero.  This is the
    /// default everywhere; devices built with it install no fault model and
    /// make no random draws, so they behave bit-for-bit like the
    /// pre-reliability simulator.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            factory_bad_prob: 0.0,
            program_fail_base: 0.0,
            erase_fail_base: 0.0,
            fail_wear_growth: 0.0,
            raw_ber_base: 0.0,
            ber_wear_growth: 0.0,
            read_disturb_per_read: 0.0,
        }
    }

    /// Whether this configuration can ever produce a fault.
    pub fn is_none(&self) -> bool {
        self.factory_bad_prob == 0.0
            && self.program_fail_base == 0.0
            && self.erase_fail_base == 0.0
            && self.raw_ber_base == 0.0
            && self.read_disturb_per_read == 0.0
    }

    /// A stressed preset with visible wear-out behaviour: realistic in
    /// *shape* (failures accelerate sharply near the endurance rating,
    /// raw bit errors grow with wear and disturb) with rates exaggerated
    /// enough that a low-endurance test device reaches end-of-life within
    /// a simulated burn-in.  Used by the `lifetime` experiments.
    pub fn wearout(seed: u64) -> Self {
        FaultConfig {
            seed,
            factory_bad_prob: 0.002,
            // A sharp knee at the rated endurance: failures are negligible
            // through most of the life and reach percent-level only as
            // wear crosses 1.0 (e^14 ≈ 1.2M×), which is what makes
            // "device lifetime" a property of wear-out rather than of
            // infant mortality.
            program_fail_base: 1e-8,
            erase_fail_base: 1e-7,
            fail_wear_growth: 14.0,
            raw_ber_base: 0.01,
            ber_wear_growth: 8.0,
            read_disturb_per_read: 1e-4,
        }
    }

    /// Validates probabilities and scaling factors.
    pub fn validate(&self) -> Result<(), String> {
        for (what, p) in [
            ("factory_bad_prob", self.factory_bad_prob),
            ("program_fail_base", self.program_fail_base),
            ("erase_fail_base", self.erase_fail_base),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{what} {p} must be a probability in [0, 1]"));
            }
        }
        for (what, v) in [
            ("fail_wear_growth", self.fail_wear_growth),
            ("raw_ber_base", self.raw_ber_base),
            ("ber_wear_growth", self.ber_wear_growth),
            ("read_disturb_per_read", self.read_disturb_per_read),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{what} {v} must be finite and non-negative"));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Error-correction and read-retry parameters of the controller.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EccConfig {
    /// Raw bit errors the code corrects per page codeword; a read whose
    /// raw error count stays at or below this is served transparently.
    pub correctable_bits: u32,
    /// Read-retry attempts (shifted-threshold re-reads) before a read is
    /// declared uncorrectable.  Each retry re-samples the raw error count
    /// with the mean scaled by [`EccConfig::retry_error_factor`] and costs
    /// one extra array read of latency.
    pub max_read_retries: u32,
    /// Factor (in `(0, 1]`) applied to the raw bit-error mean on each
    /// retry; shifted read thresholds recover most marginal pages.
    pub retry_error_factor: f64,
}

impl Default for EccConfig {
    fn default() -> Self {
        EccConfig {
            correctable_bits: 8,
            max_read_retries: 4,
            retry_error_factor: 0.5,
        }
    }
}

impl EccConfig {
    /// Validates the retry parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.retry_error_factor > 0.0 && self.retry_error_factor <= 1.0) {
            return Err(format!(
                "retry_error_factor {} must be in (0, 1]",
                self.retry_error_factor
            ));
        }
        Ok(())
    }
}

/// The complete reliability configuration of a device: the fault model plus
/// the ECC/read-retry recovery parameters.  Threaded through
/// `SsdConfig` → the FTL constructors → `FlashArray`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReliabilityConfig {
    /// The media fault model.
    pub faults: FaultConfig,
    /// Controller-side error correction and read retry.
    pub ecc: EccConfig,
}

impl ReliabilityConfig {
    /// The fault-free default: no model is installed, no draws are made.
    pub fn none() -> Self {
        ReliabilityConfig {
            faults: FaultConfig::none(),
            ecc: EccConfig::default(),
        }
    }

    /// The stressed wear-out preset (see [`FaultConfig::wearout`]).
    pub fn wearout(seed: u64) -> Self {
        ReliabilityConfig {
            faults: FaultConfig::wearout(seed),
            ecc: EccConfig::default(),
        }
    }

    /// Whether the configuration can ever produce a fault.
    pub fn is_none(&self) -> bool {
        self.faults.is_none()
    }

    /// Validates both halves.
    pub fn validate(&self) -> Result<(), String> {
        self.faults.validate()?;
        self.ecc.validate()
    }
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_the_default_and_produces_no_faults() {
        assert_eq!(FaultConfig::default(), FaultConfig::none());
        assert!(FaultConfig::none().is_none());
        assert!(ReliabilityConfig::default().is_none());
        ReliabilityConfig::none().validate().unwrap();
    }

    #[test]
    fn wearout_preset_is_valid_and_faulty() {
        let c = ReliabilityConfig::wearout(42);
        assert!(!c.is_none());
        c.validate().unwrap();
        assert_eq!(c.faults.seed, 42);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut c = FaultConfig::none();
        c.program_fail_base = 1.5;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::none();
        c.raw_ber_base = -1.0;
        assert!(c.validate().is_err());
        let e = EccConfig {
            retry_error_factor: 0.0,
            ..EccConfig::default()
        };
        assert!(e.validate().is_err());
        let e = EccConfig {
            retry_error_factor: 1.5,
            ..EccConfig::default()
        };
        assert!(e.validate().is_err());
    }
}
