//! SSD device configuration.

use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::FtlConfig;
use ossd_gc::BackgroundGcConfig;
use ossd_sim::SimDuration;

use crate::error::SsdError;
use crate::sched::SchedulerKind;

/// Which flash translation layer the device uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MappingKind {
    /// Page-mapped, log-structured FTL (modern mid/high-end SSDs and the
    /// paper's simulated device).
    PageMapped,
    /// Coarse stripe-mapped FTL with the given logical-page (stripe) size in
    /// bytes; sub-stripe writes pay a read-modify-write (low-end devices).
    StripeMapped {
        /// Logical page / stripe size in bytes.
        stripe_bytes: u64,
        /// Whether the controller coalesces sequential sub-stripe writes in
        /// RAM before flushing (the device-side "merge and align" scheme of
        /// §3.4; disabling it gives the "issue writes as they arrive"
        /// baseline of Table 3).
        coalesce: bool,
    },
}

/// Full configuration of a simulated SSD.
#[derive(Clone, Debug, PartialEq)]
pub struct SsdConfig {
    /// Device name used in reports (e.g. `"S4slc_sim"`).
    pub name: String,
    /// Flash array shape.
    pub geometry: FlashGeometry,
    /// Flash timing parameters.
    pub timing: FlashTiming,
    /// FTL selection.
    pub mapping: MappingKind,
    /// FTL policy configuration (over-provisioning, cleaning, wear-leveling).
    pub ftl: FtlConfig,
    /// Media reliability: the fault model (program/erase failures, grown
    /// bad blocks, raw bit errors) and the ECC/read-retry recovery
    /// parameters.  The default ([`ReliabilityConfig::none`]) installs no
    /// model — the device behaves bit-for-bit like the pre-reliability
    /// simulator.
    pub reliability: ReliabilityConfig,
    /// Background (idle-window) cleaning.  `None` — the default on every
    /// profile — keeps all cleaning in the write path, which is the
    /// behaviour the paper's devices exhibit; `Some` lets the controller
    /// reclaim blocks during idle gaps under an erase budget.
    pub background_gc: Option<BackgroundGcConfig>,
    /// Number of gangs; the packages of a gang share one serial bus.  Must
    /// divide the number of elements.
    pub gangs: u32,
    /// Controller scheduling policy for the open-queue simulation mode.
    pub scheduler: SchedulerKind,
    /// NCQ-style controller queue depth: how many host requests the
    /// controller may hold in its dispatch stage concurrently (issued into
    /// the per-element queues but not yet started on their target element).
    /// Depth 1 reproduces the request-at-a-time controller the paper's
    /// devices exhibit (each dispatch decision waits for the previous
    /// request to reach its element — FCFS head-of-line blocking); larger
    /// depths let requests overlap across elements until the gang bus
    /// saturates.  See the `parallelism_sweep` experiment.
    pub queue_depth: u32,
    /// Fixed controller overhead added to every host request (command
    /// decode, DRAM lookup, host DMA setup).
    pub controller_overhead: SimDuration,
    /// Extra per-request overhead charged when a request does not continue
    /// the preceding access stream.  Low-end controllers keep only part of
    /// their mapping metadata cached in RAM, so random accesses pay extra
    /// lookups; high-end devices set this to zero.
    pub random_penalty: SimDuration,
    /// Whether the controller detects sequential read streams and serves
    /// them from a read-ahead buffer.
    pub sequential_prefetch: bool,
    /// Bandwidth of the controller RAM / read-ahead path in bytes per
    /// second (used for prefetch hits and buffered writes).
    pub ram_bytes_per_sec: u64,
}

impl SsdConfig {
    /// A small page-mapped configuration convenient for unit tests.
    pub fn tiny_page_mapped() -> Self {
        SsdConfig {
            name: "tiny-page".to_string(),
            geometry: FlashGeometry::tiny(),
            timing: FlashTiming::slc(),
            mapping: MappingKind::PageMapped,
            ftl: FtlConfig::default().with_watermarks(0.3, 0.1),
            reliability: ReliabilityConfig::none(),
            background_gc: None,
            gangs: 1,
            scheduler: SchedulerKind::Fcfs,
            queue_depth: 1,
            controller_overhead: SimDuration::from_micros(20),
            random_penalty: SimDuration::ZERO,
            sequential_prefetch: false,
            ram_bytes_per_sec: 200_000_000,
        }
    }

    /// A small stripe-mapped configuration convenient for unit tests
    /// (stripe = one page per element = 8 KB on the tiny geometry).
    pub fn tiny_stripe_mapped() -> Self {
        SsdConfig {
            name: "tiny-stripe".to_string(),
            mapping: MappingKind::StripeMapped {
                stripe_bytes: 8192,
                coalesce: true,
            },
            ..SsdConfig::tiny_page_mapped()
        }
    }

    /// Number of independently operating elements.
    pub fn elements(&self) -> u32 {
        self.geometry.elements()
    }

    /// Number of elements sharing each gang bus.
    pub(crate) fn elements_per_gang(&self) -> u32 {
        self.elements() / self.gangs.max(1)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), SsdError> {
        self.geometry
            .validate()
            .map_err(|e| SsdError::InvalidConfig {
                reason: format!("geometry: {e}"),
            })?;
        self.ftl.validate().map_err(SsdError::Ftl)?;
        self.reliability
            .validate()
            .map_err(|reason| SsdError::InvalidConfig {
                reason: format!("reliability: {reason}"),
            })?;
        if self.gangs == 0 {
            return Err(SsdError::InvalidConfig {
                reason: "at least one gang is required".to_string(),
            });
        }
        if !self.elements().is_multiple_of(self.gangs) {
            return Err(SsdError::InvalidConfig {
                reason: format!(
                    "gang count {} must divide the number of elements {}",
                    self.gangs,
                    self.elements()
                ),
            });
        }
        if let MappingKind::StripeMapped { stripe_bytes, .. } = self.mapping {
            let row = self.elements() as u64 * self.geometry.page_bytes as u64;
            if stripe_bytes == 0 || stripe_bytes % row != 0 {
                return Err(SsdError::InvalidConfig {
                    reason: format!(
                        "stripe size {stripe_bytes} must be a positive multiple of {row}"
                    ),
                });
            }
        }
        if self.queue_depth == 0 {
            return Err(SsdError::InvalidConfig {
                reason: "controller queue depth must be at least 1".to_string(),
            });
        }
        if self.ram_bytes_per_sec == 0 {
            return Err(SsdError::InvalidConfig {
                reason: "controller RAM bandwidth must be non-zero".to_string(),
            });
        }
        if let Some(bg) = &self.background_gc {
            bg.validate()
                .map_err(|reason| SsdError::InvalidConfig { reason })?;
        }
        Ok(())
    }

    /// Returns the configuration with a different name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Returns the configuration with a different scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Returns the configuration with a different controller queue depth.
    pub fn with_queue_depth(mut self, depth: u32) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Returns the configuration with the given cleaning policy on the FTL.
    pub fn with_cleaning_policy(mut self, policy: ossd_ftl::CleaningPolicyKind) -> Self {
        self.ftl = self.ftl.with_cleaning_policy(policy);
        self
    }

    /// Returns the configuration with the given reliability model.
    pub fn with_reliability(mut self, reliability: ReliabilityConfig) -> Self {
        self.reliability = reliability;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_configs_validate() {
        SsdConfig::tiny_page_mapped().validate().unwrap();
        SsdConfig::tiny_stripe_mapped().validate().unwrap();
        assert_eq!(SsdConfig::tiny_page_mapped().elements(), 2);
        assert_eq!(SsdConfig::tiny_page_mapped().elements_per_gang(), 2);
    }

    #[test]
    fn invalid_gang_counts_rejected() {
        let mut c = SsdConfig::tiny_page_mapped();
        c.gangs = 0;
        assert!(c.validate().is_err());
        let mut c = SsdConfig::tiny_page_mapped();
        c.gangs = 3; // does not divide 2 elements
        assert!(c.validate().is_err());
    }

    #[test]
    fn invalid_stripe_sizes_rejected() {
        let mut c = SsdConfig::tiny_stripe_mapped();
        c.mapping = MappingKind::StripeMapped {
            stripe_bytes: 4096,
            coalesce: true,
        };
        assert!(c.validate().is_err());
        let mut c = SsdConfig::tiny_stripe_mapped();
        c.mapping = MappingKind::StripeMapped {
            stripe_bytes: 0,
            coalesce: false,
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_ram_bandwidth_rejected() {
        let mut c = SsdConfig::tiny_page_mapped();
        c.ram_bytes_per_sec = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn zero_queue_depth_rejected() {
        let mut c = SsdConfig::tiny_page_mapped();
        c.queue_depth = 0;
        assert!(c.validate().is_err());
        let c = SsdConfig::tiny_page_mapped().with_queue_depth(8);
        assert_eq!(c.queue_depth, 8);
        c.validate().unwrap();
    }

    #[test]
    fn reliability_defaults_to_none_and_validates() {
        let c = SsdConfig::tiny_page_mapped();
        assert!(c.reliability.is_none());
        let c = c.with_reliability(ReliabilityConfig::wearout(9));
        assert!(!c.reliability.is_none());
        c.validate().unwrap();
        let mut bad = SsdConfig::tiny_page_mapped();
        bad.reliability.faults.program_fail_base = 2.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builders() {
        let c = SsdConfig::tiny_page_mapped()
            .with_name("x")
            .with_scheduler(SchedulerKind::Swtf);
        assert_eq!(c.name, "x");
        assert_eq!(c.scheduler, SchedulerKind::Swtf);
    }
}
