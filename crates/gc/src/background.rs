//! Erase-budgeted background cleaning.
//!
//! The seed FTL only cleans in the write path, so every reclaimed block is
//! paid for by a stalled host write.  Nagel et al. (*Time-efficient Garbage
//! Collection in SSDs*) observe that most cleaning can instead run during
//! idle windows, bounded by an erase budget so a long idle gap is never
//! followed by a cleaning storm when traffic resumes.
//! [`BackgroundGcConfig::erase_budget()`] is the device-side rule for that
//! scheme: the device reports an idle gap and its free fraction, the rule
//! answers with an erase budget, and the FTL performs at most that many
//! block reclamations towards a free-space target above the foreground
//! watermark.  What cleaning did is counted once, in the FTL's statistics
//! (`bg_blocks_erased`, `bg_pages_moved`).

/// Configuration of idle-window background cleaning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackgroundGcConfig {
    /// Minimum idle gap before background cleaning may start.  Short gaps
    /// are left alone so background work never competes with a busy device.
    pub min_idle_micros: u64,
    /// Maximum block erases per idle window.
    pub erase_budget: u32,
    /// Background cleaning stops once the free fraction reaches this target
    /// (set it above the foreground low watermark so foreground cleaning
    /// rarely triggers at all).
    pub target_free_fraction: f64,
}

impl Default for BackgroundGcConfig {
    fn default() -> Self {
        BackgroundGcConfig {
            min_idle_micros: 2_000,
            erase_budget: 4,
            target_free_fraction: 0.10,
        }
    }
}

impl BackgroundGcConfig {
    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.erase_budget == 0 {
            return Err("background erase budget must be non-zero".to_string());
        }
        if !(0.0..1.0).contains(&self.target_free_fraction) {
            return Err(format!(
                "background target free fraction {} must be in [0, 1)",
                self.target_free_fraction
            ));
        }
        Ok(())
    }

    /// The erase budget of an idle window `idle_micros` long on a device
    /// whose free fraction is `free_fraction`: nothing for a gap shorter
    /// than [`BackgroundGcConfig::min_idle_micros`] or a device already at
    /// its free-space target, else the configured budget.
    pub fn erase_budget(&self, idle_micros: u64, free_fraction: f64) -> u32 {
        if idle_micros < self.min_idle_micros || free_fraction >= self.target_free_fraction {
            return 0;
        }
        self.erase_budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_gaps_and_healthy_devices_are_left_alone() {
        let config = BackgroundGcConfig::default();
        // Gap below the idle threshold: no budget.
        assert_eq!(config.erase_budget(1_000, 0.01), 0);
        // Long gap but free space already at target: no budget.
        assert_eq!(config.erase_budget(10_000, 0.5), 0);
        assert_eq!(config.erase_budget(10_000, 0.10), 0);
        // Long gap and low free space: full budget, from the threshold on.
        assert_eq!(config.erase_budget(10_000, 0.01), 4);
        assert_eq!(config.erase_budget(2_000, 0.01), 4);
    }

    #[test]
    fn config_validation() {
        assert!(BackgroundGcConfig::default().validate().is_ok());
        assert!(BackgroundGcConfig {
            erase_budget: 0,
            ..BackgroundGcConfig::default()
        }
        .validate()
        .is_err());
        assert!(BackgroundGcConfig {
            target_free_fraction: 1.5,
            ..BackgroundGcConfig::default()
        }
        .validate()
        .is_err());
    }
}
