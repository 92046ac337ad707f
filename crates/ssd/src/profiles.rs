//! Device profiles modelling the SSDs of Table 2.
//!
//! The engineering samples the paper measured are anonymised (S1slc–S5mlc),
//! so the profiles here are *architectural reconstructions*: each profile
//! picks the FTL kind, gang layout, bus speed, buffering and controller
//! overheads that reproduce the qualitative behaviour the paper reports
//! (which devices have near-equal sequential/random performance, which
//! collapse on random writes, and by roughly what factors).  Absolute MB/s
//! values are not calibrated to the anonymous hardware.

use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_ftl::FtlConfig;
use ossd_sim::SimDuration;

use crate::config::{MappingKind, SsdConfig};
use crate::sched::SchedulerKind;

/// The SSDs of the paper's Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeviceProfile {
    /// High-end SLC engineering sample: many channels, read-ahead, write
    /// coalescing over a small (32 KB) stripe.
    S1Slc,
    /// Low-end SLC sample: one gang, 1 MB logical page, no effective write
    /// buffering — the Figure 2 device.
    S2Slc,
    /// Mid-range SLC sample: two gangs, 512 KB logical page, write buffer
    /// that cannot mask sub-stripe random writes.
    S3Slc,
    /// The paper's own trace-driven simulator configuration: page-mapped,
    /// log-structured, one gang (Table 2's S4slc_sim row).
    S4SlcSim,
    /// MLC sample: page-mapped but with MLC program/erase times.
    S5Mlc,
}

impl DeviceProfile {
    /// All Table 2 device profiles, in the order the table lists them.
    pub fn table2_devices() -> Vec<DeviceProfile> {
        vec![
            DeviceProfile::S1Slc,
            DeviceProfile::S2Slc,
            DeviceProfile::S3Slc,
            DeviceProfile::S4SlcSim,
            DeviceProfile::S5Mlc,
        ]
    }

    /// The device name as it appears in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DeviceProfile::S1Slc => "S1slc",
            DeviceProfile::S2Slc => "S2slc",
            DeviceProfile::S3Slc => "S3slc",
            DeviceProfile::S4SlcSim => "S4slc_sim",
            DeviceProfile::S5Mlc => "S5mlc",
        }
    }

    /// Builds the SSD configuration for this profile.
    pub fn config(&self) -> SsdConfig {
        match self {
            DeviceProfile::S1Slc => SsdConfig {
                name: self.name().to_string(),
                geometry: FlashGeometry {
                    packages: 8,
                    dies_per_package: 1,
                    planes_per_die: 2,
                    blocks_per_plane: 1024,
                    pages_per_block: 64,
                    page_bytes: 4096,
                },
                timing: FlashTiming {
                    bus_bytes_per_sec: 100_000_000,
                    ..FlashTiming::slc()
                },
                mapping: MappingKind::StripeMapped {
                    stripe_bytes: 32 * 1024,
                    coalesce: true,
                },
                ftl: FtlConfig::default(),
                reliability: ReliabilityConfig::none(),
                background_gc: None,
                gangs: 4,
                scheduler: SchedulerKind::Fcfs,
                queue_depth: 1,
                controller_overhead: SimDuration::from_micros(10),
                random_penalty: SimDuration::from_micros(60),
                sequential_prefetch: true,
                ram_bytes_per_sec: 220_000_000,
            },
            DeviceProfile::S2Slc => SsdConfig {
                name: self.name().to_string(),
                geometry: FlashGeometry {
                    packages: 8,
                    dies_per_package: 1,
                    planes_per_die: 2,
                    blocks_per_plane: 1024,
                    pages_per_block: 64,
                    page_bytes: 4096,
                },
                timing: FlashTiming {
                    bus_bytes_per_sec: 40_000_000,
                    ..FlashTiming::slc()
                },
                mapping: MappingKind::StripeMapped {
                    stripe_bytes: 1024 * 1024,
                    coalesce: true,
                },
                ftl: FtlConfig::default(),
                reliability: ReliabilityConfig::none(),
                background_gc: None,
                gangs: 1,
                scheduler: SchedulerKind::Fcfs,
                queue_depth: 1,
                controller_overhead: SimDuration::from_micros(30),
                random_penalty: SimDuration::from_micros(600),
                sequential_prefetch: true,
                ram_bytes_per_sec: 42_000_000,
            },
            DeviceProfile::S3Slc => SsdConfig {
                name: self.name().to_string(),
                geometry: FlashGeometry {
                    packages: 8,
                    dies_per_package: 1,
                    planes_per_die: 2,
                    blocks_per_plane: 1024,
                    pages_per_block: 64,
                    page_bytes: 4096,
                },
                timing: FlashTiming {
                    bus_bytes_per_sec: 80_000_000,
                    ..FlashTiming::slc()
                },
                mapping: MappingKind::StripeMapped {
                    stripe_bytes: 512 * 1024,
                    coalesce: true,
                },
                ftl: FtlConfig::default(),
                reliability: ReliabilityConfig::none(),
                background_gc: None,
                gangs: 2,
                scheduler: SchedulerKind::Fcfs,
                queue_depth: 1,
                controller_overhead: SimDuration::from_micros(20),
                random_penalty: SimDuration::from_micros(50),
                sequential_prefetch: true,
                ram_bytes_per_sec: 80_000_000,
            },
            DeviceProfile::S4SlcSim => SsdConfig {
                name: self.name().to_string(),
                geometry: FlashGeometry::two_packages_8gb(),
                timing: FlashTiming::slc(),
                mapping: MappingKind::PageMapped,
                ftl: FtlConfig::default(),
                reliability: ReliabilityConfig::none(),
                background_gc: None,
                gangs: 1,
                scheduler: SchedulerKind::Fcfs,
                queue_depth: 1,
                controller_overhead: SimDuration::from_micros(20),
                random_penalty: SimDuration::ZERO,
                sequential_prefetch: false,
                ram_bytes_per_sec: 200_000_000,
            },
            DeviceProfile::S5Mlc => SsdConfig {
                name: self.name().to_string(),
                geometry: FlashGeometry {
                    packages: 8,
                    dies_per_package: 1,
                    planes_per_die: 2,
                    blocks_per_plane: 1024,
                    pages_per_block: 64,
                    page_bytes: 4096,
                },
                timing: FlashTiming {
                    bus_bytes_per_sec: 80_000_000,
                    ..FlashTiming::mlc()
                },
                mapping: MappingKind::PageMapped,
                ftl: FtlConfig::default(),
                reliability: ReliabilityConfig::none(),
                background_gc: None,
                gangs: 2,
                scheduler: SchedulerKind::Fcfs,
                queue_depth: 1,
                controller_overhead: SimDuration::from_micros(20),
                random_penalty: SimDuration::from_micros(80),
                sequential_prefetch: true,
                ram_bytes_per_sec: 80_000_000,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Ssd;
    use ossd_block::BlockDevice;

    #[test]
    fn all_profiles_produce_valid_configs() {
        for profile in [
            DeviceProfile::S1Slc,
            DeviceProfile::S2Slc,
            DeviceProfile::S3Slc,
            DeviceProfile::S4SlcSim,
            DeviceProfile::S5Mlc,
        ] {
            let config = profile.config();
            config
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
            assert_eq!(config.name, profile.name());
        }
    }

    #[test]
    fn table2_lists_the_five_measured_devices() {
        let devices = DeviceProfile::table2_devices();
        assert_eq!(devices.len(), 5);
        assert_eq!(devices[0].name(), "S1slc");
        assert_eq!(devices[3].name(), "S4slc_sim");
    }

    #[test]
    fn profiles_can_be_instantiated_cheaply_enough_for_tests() {
        // Two of the profiles are instantiated here; building each one
        // allocates its full mapping tables.
        for profile in [DeviceProfile::S1Slc, DeviceProfile::S5Mlc] {
            let ssd = Ssd::new(profile.config()).unwrap();
            assert!(ssd.capacity_bytes() > 0);
        }
    }

    #[test]
    fn low_end_profiles_use_coarse_mapping() {
        assert!(matches!(
            DeviceProfile::S2Slc.config().mapping,
            MappingKind::StripeMapped {
                stripe_bytes: 1_048_576,
                ..
            }
        ));
        assert!(matches!(
            DeviceProfile::S4SlcSim.config().mapping,
            MappingKind::PageMapped
        ));
    }
}
