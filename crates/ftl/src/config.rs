//! FTL configuration: over-provisioning, cleaning policy and wear-leveling.
//!
//! # Cleaning-policy knobs
//!
//! Three independent knobs shape cleaning behaviour:
//!
//! * [`FtlConfig::cleaning_policy`] picks the *victim-selection* policy
//!   (which block is reclaimed next) from [`CleaningPolicyKind`]:
//!   greedy, cost-benefit, cost-age or windowed-greedy.
//! * [`FtlConfig::cleaning_mode`] picks the *trigger* behaviour with
//!   respect to request priorities (§3.6): priority-agnostic cleaning
//!   starts at the low watermark; priority-aware cleaning postpones until
//!   the critical watermark while high-priority requests are outstanding.
//! * The watermarks themselves ([`FtlConfig::gc_low_watermark`],
//!   [`FtlConfig::gc_critical_watermark`]) say *when* cleaning runs.
//!
//! Background (idle-window) cleaning is a device-level concern and is
//! configured on `SsdConfig` (`ossd-ssd`), not here: the FTL exposes the
//! mechanism (`Ftl::background_clean_into`), the device decides when idle
//! windows are long enough to use it.

use ossd_gc::CleaningPolicyKind;
use ossd_mapcache::MapCacheConfig;

use crate::error::FtlError;

/// How garbage collection reacts to outstanding priority requests (§3.6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CleaningMode {
    /// Cleaning starts whenever free space drops below the low watermark,
    /// regardless of outstanding requests.  This is the paper's default
    /// scheme (and the only option when the host conveys no priorities).
    #[default]
    PriorityAgnostic,
    /// Cleaning is postponed while priority requests are outstanding, until
    /// free space falls below the critical watermark.
    PriorityAware,
}

/// Explicit wear-leveling configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WearLevelConfig {
    /// Trigger migration when the difference between the most- and
    /// least-erased block exceeds this many cycles.
    pub max_erase_spread: u32,
}

impl Default for WearLevelConfig {
    fn default() -> Self {
        WearLevelConfig {
            max_erase_spread: 32,
        }
    }
}

/// Configuration shared by both FTLs.
#[derive(Clone, Debug, PartialEq)]
pub struct FtlConfig {
    /// Fraction of raw capacity withheld from the host (over-provisioning).
    /// The withheld space is what cleaning uses to stay ahead of writes.
    pub overprovisioning: f64,
    /// Cleaning starts when the fraction of free physical pages drops below
    /// this value (the paper's QoS experiment uses 5%).
    pub gc_low_watermark: f64,
    /// Under priority-aware cleaning, cleaning may be postponed until free
    /// space falls below this value (the paper uses 2%).
    pub gc_critical_watermark: f64,
    /// Cleaning trigger behaviour with respect to request priorities.
    pub cleaning_mode: CleaningMode,
    /// Victim-selection policy used by cleaning (foreground and
    /// background).  [`CleaningPolicyKind::Greedy`] reproduces the
    /// historical hard-coded cleaner bit-for-bit; the other kinds trade
    /// extra bookkeeping for lower write amplification under skewed
    /// workloads ([`CleaningPolicyKind::CostBenefit`],
    /// [`CleaningPolicyKind::WindowedGreedy`]) or a tighter erase spread
    /// ([`CleaningPolicyKind::CostAge`]).
    pub cleaning_policy: CleaningPolicyKind,
    /// Whether the FTL uses free-page (TRIM/OSD-delete) notifications.  When
    /// `false`, the FTL retains "the most recent version of all the logical
    /// pages, including those that have been released by the file system"
    /// (§3.5) — the paper's default SSD.
    pub honor_free: bool,
    /// Optional explicit wear-leveling.
    pub wear_leveling: Option<WearLevelConfig>,
    /// Number of erased blocks per element reserved exclusively for cleaning
    /// so that GC can always make forward progress.
    pub gc_reserved_blocks: u32,
    /// Demand-paged mapping (page-mapped FTL only): `Some` stores the
    /// translation table in on-flash translation pages behind an
    /// SRAM-budgeted map cache (`ossd-mapcache`).  It reserves map-area
    /// capacity out of the exported space and issues real
    /// `MapRead`/`MapWrite` flash ops for misses and dirty-entry
    /// writebacks.  `None` (the default) keeps the historical fully
    /// resident map.
    pub map_cache: Option<MapCacheConfig>,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            overprovisioning: 0.10,
            gc_low_watermark: 0.05,
            gc_critical_watermark: 0.02,
            cleaning_mode: CleaningMode::PriorityAgnostic,
            cleaning_policy: CleaningPolicyKind::Greedy,
            honor_free: false,
            wear_leveling: Some(WearLevelConfig::default()),
            gc_reserved_blocks: 1,
            map_cache: None,
        }
    }
}

impl FtlConfig {
    /// An informed-cleaning FTL (uses free-page notifications, §3.5).
    pub fn informed() -> Self {
        FtlConfig {
            honor_free: true,
            ..FtlConfig::default()
        }
    }

    /// A priority-aware cleaning FTL with the paper's 5%/2% watermarks
    /// (§3.6).
    pub fn priority_aware() -> Self {
        FtlConfig {
            cleaning_mode: CleaningMode::PriorityAware,
            gc_low_watermark: 0.05,
            gc_critical_watermark: 0.02,
            ..FtlConfig::default()
        }
    }

    /// Returns the configuration with a different over-provisioning factor.
    pub fn with_overprovisioning(mut self, op: f64) -> Self {
        self.overprovisioning = op;
        self
    }

    /// Returns the configuration with free-page information enabled or
    /// disabled.
    pub fn with_honor_free(mut self, honor: bool) -> Self {
        self.honor_free = honor;
        self
    }

    /// Returns the configuration with the given cleaning mode.
    pub fn with_cleaning_mode(mut self, mode: CleaningMode) -> Self {
        self.cleaning_mode = mode;
        self
    }

    /// Returns the configuration with the given victim-selection policy.
    pub fn with_cleaning_policy(mut self, policy: CleaningPolicyKind) -> Self {
        self.cleaning_policy = policy;
        self
    }

    /// Returns the configuration with the given watermarks.
    pub fn with_watermarks(mut self, low: f64, critical: f64) -> Self {
        self.gc_low_watermark = low;
        self.gc_critical_watermark = critical;
        self
    }

    /// Returns the configuration with wear-leveling disabled.
    pub fn without_wear_leveling(mut self) -> Self {
        self.wear_leveling = None;
        self
    }

    /// Returns the configuration with demand-paged mapping enabled.
    pub fn with_map_cache(mut self, map_cache: MapCacheConfig) -> Self {
        self.map_cache = Some(map_cache);
        self
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), FtlError> {
        if !(0.0..0.9).contains(&self.overprovisioning) {
            return Err(FtlError::InvalidConfig {
                reason: format!(
                    "overprovisioning {} must be in [0, 0.9)",
                    self.overprovisioning
                ),
            });
        }
        if !(0.0..1.0).contains(&self.gc_low_watermark)
            || !(0.0..1.0).contains(&self.gc_critical_watermark)
        {
            return Err(FtlError::InvalidConfig {
                reason: "watermarks must be in [0, 1)".to_string(),
            });
        }
        if self.gc_critical_watermark > self.gc_low_watermark {
            return Err(FtlError::InvalidConfig {
                reason: format!(
                    "critical watermark {} must not exceed low watermark {}",
                    self.gc_critical_watermark, self.gc_low_watermark
                ),
            });
        }
        if self.gc_reserved_blocks == 0 {
            return Err(FtlError::InvalidConfig {
                reason: "at least one block per element must be reserved for cleaning".to_string(),
            });
        }
        if let Some(map_cache) = &self.map_cache {
            map_cache
                .validate()
                .map_err(|reason| FtlError::InvalidConfig { reason })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_uninformed() {
        let c = FtlConfig::default();
        c.validate().unwrap();
        assert!(!c.honor_free);
        assert_eq!(c.cleaning_mode, CleaningMode::PriorityAgnostic);
        assert!(c.wear_leveling.is_some());
    }

    #[test]
    fn presets_match_paper_settings() {
        let informed = FtlConfig::informed();
        assert!(informed.honor_free);
        informed.validate().unwrap();

        let aware = FtlConfig::priority_aware();
        assert_eq!(aware.cleaning_mode, CleaningMode::PriorityAware);
        assert!((aware.gc_low_watermark - 0.05).abs() < 1e-12);
        assert!((aware.gc_critical_watermark - 0.02).abs() < 1e-12);
        aware.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = FtlConfig::default()
            .with_overprovisioning(0.2)
            .with_honor_free(true)
            .with_cleaning_mode(CleaningMode::PriorityAware)
            .with_cleaning_policy(CleaningPolicyKind::CostBenefit)
            .with_watermarks(0.1, 0.03)
            .without_wear_leveling();
        assert!((c.overprovisioning - 0.2).abs() < 1e-12);
        assert!(c.honor_free);
        assert_eq!(c.cleaning_mode, CleaningMode::PriorityAware);
        assert_eq!(c.cleaning_policy, CleaningPolicyKind::CostBenefit);
        assert!(c.wear_leveling.is_none());
        c.validate().unwrap();
    }

    #[test]
    fn default_policy_is_seed_compatible_greedy() {
        assert_eq!(
            FtlConfig::default().cleaning_policy,
            CleaningPolicyKind::Greedy
        );
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(FtlConfig::default()
            .with_overprovisioning(0.95)
            .validate()
            .is_err());
        assert!(FtlConfig::default()
            .with_overprovisioning(-0.1)
            .validate()
            .is_err());
        assert!(FtlConfig::default()
            .with_watermarks(0.02, 0.05)
            .validate()
            .is_err());
        assert!(FtlConfig::default()
            .with_watermarks(1.5, 0.01)
            .validate()
            .is_err());
        let c = FtlConfig {
            gc_reserved_blocks: 0,
            ..FtlConfig::default()
        };
        assert!(c.validate().is_err());
        assert!(FtlConfig::default()
            .with_map_cache(MapCacheConfig::default().with_budget(0))
            .validate()
            .is_err());
    }

    #[test]
    fn map_cache_defaults_off_and_composes() {
        assert!(FtlConfig::default().map_cache.is_none());
        let budget = MapCacheConfig::default().with_budget(64);
        let c = FtlConfig::default().with_map_cache(budget);
        assert_eq!(c.map_cache, Some(budget));
        c.validate().unwrap();
    }
}
