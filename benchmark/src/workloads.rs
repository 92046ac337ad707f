//! The four workloads: device configuration, command mix and how commands
//! are driven.  Everything a run depends on besides the seed is a constant
//! in this file, and all of it is echoed into the run manifest.

use ossd_flash::{FlashGeometry, FlashTiming, ReliabilityConfig};
use ossd_fleet::{FleetConfig, ParityGeometry};
use ossd_ftl::{FtlConfig, MapCacheConfig};
use ossd_gc::BackgroundGcConfig;
use ossd_sim::SimDuration;
use ossd_ssd::{MappingKind, SchedulerKind, SsdConfig};

use crate::gen::{Addresses, Mix, Zipf};

pub const PAGE_BYTES: u64 = 4096;

/// Closed-loop saturation of the `mq_open_paged` device, in commands per
/// simulated second: measured once with `-- saturation --seed 1` on the
/// commit that introduced the benchmark and frozen here, so that "70% load"
/// names the same arrival schedule on every later commit.
pub const MQ_SATURATION_CMDS_PER_SIM_S: f64 = 390.0;

/// The operating point `mq_open_paged` reports at.
pub const LOAD70: f64 = 0.70;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Qd1GcChurn,
    Qd1ReadMostly,
    MqOpenPaged,
    FleetParityBurst,
}

/// How commands reach the device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Drive {
    /// Closed loop, one outstanding `BlockDevice::submit`.
    Closed1,
    /// Open loop: Poisson arrivals at `rate` commands per simulated second,
    /// dealt round-robin to the initiator queues and served in sessions.
    Open { rate: f64 },
    /// Closed loop of whole sessions: every command of a session arrives
    /// the instant the previous session has completed.
    Burst,
}

/// `Smoke` shrinks every geometry and count so all four workloads and all
/// checks finish in seconds; it makes no timing claims.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    pub scale: Scale,
}

pub const ALL: [Workload; 4] = [
    Workload {
        kind: Kind::Qd1GcChurn,
        name: "qd1_gc_churn",
        why: "closed loop depth 1, random 1-8 page overwrites at 12% spare: ~37 flash ops per \
              command, so ftl/gc/flash do nearly all the work (supersedes BENCH_sim.json)",
        scale: Scale::Full,
    },
    Workload {
        kind: Kind::Qd1ReadMostly,
        name: "qd1_read_mostly",
        why: "closed loop depth 1, 75% reads of 4 KiB at 30% spare: ~1.4 flash ops per command, \
              so the fixed per-submit cost in ssd and sim dominates and ftl/gc do little",
        scale: Scale::Full,
    },
    Workload {
        kind: Kind::MqOpenPaged,
        name: "mq_open_paged",
        why: "open loop, 4 queue pairs, SWTF depth 32, Zipf over 14x the map budget, stressed \
              BER, Poisson at load70 = 0.70 x 390 cmds/sim-s: block, scheduler, mapcache, \
              reliability work",
        scale: Scale::Full,
    },
    Workload {
        kind: Kind::FleetParityBurst,
        name: "fleet_parity_burst",
        why: "4-device RAID-5 fleet on 2 threads, closed-loop 1024-command sessions, 75% 4 KiB \
              writes: fleet routing, parity planning, merge and burst backlogs on every member",
        scale: Scale::Full,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn at(self, scale: Scale) -> Self {
        Workload { scale, ..self }
    }

    fn shrink(&self, full: u64, by: u64) -> u64 {
        match self.scale {
            Scale::Full => full,
            Scale::Smoke => (full / by).max(1),
        }
    }

    pub fn is_fleet(&self) -> bool {
        self.kind == Kind::FleetParityBurst
    }

    /// Geometry of one device (one fleet member on `fleet_parity_burst`).
    pub fn geometry(&self) -> FlashGeometry {
        // (elements, blocks per element, pages per block, smoke divisor); the
        // paged device keeps 64 blocks under smoke, below which its map area
        // and reserves leave no room to clean.
        let (elements, blocks, pages, smoke_by) = match self.kind {
            Kind::Qd1GcChurn | Kind::Qd1ReadMostly => (2, 4096, 64, 8),
            Kind::MqOpenPaged => (8, 128, 64, 2),
            Kind::FleetParityBurst => (2, 1024, 32, 8),
        };
        FlashGeometry {
            packages: elements,
            dies_per_package: 1,
            planes_per_die: 1,
            blocks_per_plane: self.shrink(blocks, smoke_by) as u32,
            pages_per_block: pages,
            page_bytes: PAGE_BYTES as u32,
        }
    }

    pub fn overprovisioning(&self) -> f64 {
        match self.kind {
            Kind::Qd1ReadMostly => 0.30,
            _ => 0.12,
        }
    }

    /// Entry budget of the demand-paged map cache, where there is one.
    pub fn map_budget(&self) -> Option<u64> {
        (self.kind == Kind::MqOpenPaged).then(|| self.shrink(4096, 2))
    }

    /// The device configuration with the map budget multiplied by
    /// `budget_factor` (1 everywhere except the `hit_rate.b4x` replay).
    pub fn ssd_config_with_budget(&self, budget_factor: u64) -> SsdConfig {
        let mut ftl = FtlConfig::default()
            .with_overprovisioning(self.overprovisioning())
            .with_watermarks(0.10, 0.04);
        if let Some(budget) = self.map_budget() {
            // Wear-levelling is off here only: at HEAD a wear-level migration
            // under a finite map budget can leave a live translation page in
            // the block it then erases ("erase of block .. with N valid
            // pages"), which fails whole sessions.
            ftl = ftl
                .without_wear_leveling()
                .with_map_cache(MapCacheConfig::default().with_budget(budget * budget_factor));
        }
        let (gangs, scheduler, queue_depth, overhead_us) = match self.kind {
            Kind::Qd1GcChurn | Kind::Qd1ReadMostly => (2, SchedulerKind::Fcfs, 1, 20),
            Kind::MqOpenPaged => (2, SchedulerKind::Swtf, 32, 10),
            Kind::FleetParityBurst => (1, SchedulerKind::Fcfs, 8, 10),
        };
        SsdConfig {
            name: self.name.to_string(),
            geometry: self.geometry(),
            timing: FlashTiming::slc(),
            mapping: MappingKind::PageMapped,
            ftl,
            reliability: match self.kind {
                Kind::MqOpenPaged => stressed_reliability(),
                _ => ReliabilityConfig::none(),
            },
            // Idle-window cleaning, as on the `latency_blame` device.  Under
            // a map budget it is also the only path at HEAD that cleans the
            // neediest element first; without it the simulated tail wanders
            // by a third from seed to seed.
            background_gc: (self.kind == Kind::MqOpenPaged).then(BackgroundGcConfig::default),
            gangs,
            scheduler,
            queue_depth,
            controller_overhead: SimDuration::from_micros(overhead_us),
            random_penalty: SimDuration::ZERO,
            sequential_prefetch: false,
            ram_bytes_per_sec: 200_000_000,
        }
    }

    pub fn ssd_config(&self) -> SsdConfig {
        self.ssd_config_with_budget(1)
    }

    pub fn fleet_devices(&self) -> usize {
        4
    }

    /// The array geometry of `fleet_parity_burst`; the stripe unit is one
    /// page so every single-page write is a read-modify-write of data and
    /// parity.
    pub fn parity_geometry(&self) -> Option<ParityGeometry> {
        self.is_fleet().then_some(ParityGeometry {
            devices: self.fleet_devices(),
            stripe_bytes: PAGE_BYTES,
        })
    }

    pub fn fleet_config(&self, threads: usize) -> FleetConfig {
        FleetConfig::parity(self.ssd_config(), self.fleet_devices(), PAGE_BYTES)
            .with_threads(threads)
            .with_seed(0x00B5_EED5)
            .with_name(self.name)
    }

    /// Engine threads of the configuration the end-to-end metrics report.
    pub fn threads(&self) -> usize {
        if self.is_fleet() {
            2
        } else {
            1
        }
    }

    pub fn initiators(&self) -> usize {
        match self.kind {
            Kind::Qd1GcChurn | Kind::Qd1ReadMostly => 1,
            Kind::MqOpenPaged | Kind::FleetParityBurst => 4,
        }
    }

    pub fn drive(&self) -> Drive {
        match self.kind {
            Kind::Qd1GcChurn | Kind::Qd1ReadMostly => Drive::Closed1,
            Kind::MqOpenPaged => Drive::Open {
                rate: LOAD70 * MQ_SATURATION_CMDS_PER_SIM_S,
            },
            Kind::FleetParityBurst => Drive::Burst,
        }
    }

    /// Commands per `serve` session (and per timed batch on the closed
    /// depth-1 workloads, where a batch is just the unit of timing).
    pub fn session_cmds(&self) -> u64 {
        1024
    }

    pub fn mix(&self, logical_pages: u64) -> Mix {
        match self.kind {
            Kind::Qd1GcChurn => Mix {
                read_share: 0.0,
                size_mix: true,
                addresses: Addresses::Uniform,
            },
            Kind::Qd1ReadMostly => Mix {
                read_share: 0.75,
                size_mix: false,
                addresses: Addresses::Uniform,
            },
            Kind::MqOpenPaged => Mix {
                read_share: 0.60,
                size_mix: false,
                addresses: Addresses::Zipf(Zipf::new(logical_pages, ZIPF_SKEW)),
            },
            Kind::FleetParityBurst => Mix {
                read_share: 0.25,
                size_mix: false,
                addresses: Addresses::Uniform,
            },
        }
    }

    /// Commands driven after the sequential prefill and before timing, long
    /// enough that per-segment write amplification (and map hit rate) has
    /// levelled; a whole number of sessions.
    pub fn warmup_cmds(&self) -> u64 {
        let (full, smoke_by) = match self.kind {
            Kind::Qd1GcChurn => (256 * 1024, 8),
            Kind::Qd1ReadMostly => (1536 * 1024, 8),
            Kind::MqOpenPaged => (256 * 1024, 2),
            Kind::FleetParityBurst => (192 * 1024, 8),
        };
        self.shrink(full, smoke_by)
    }

    /// Commands per timed segment: fixed, so the simulated side of a run is
    /// a pure function of seed and segment count.  Sized so one segment
    /// takes a little over a second of host time on the 2-core reference
    /// machine.
    pub fn segment_cmds(&self) -> u64 {
        // Under smoke the paged device keeps longer segments than the rest:
        // its write amplification wanders too much over a short one for the
        // levelled check to mean anything.
        let (full, smoke_by) = match self.kind {
            Kind::Qd1GcChurn => (256 * 1024, 32),
            Kind::Qd1ReadMostly => (1792 * 1024, 32),
            Kind::MqOpenPaged => (512 * 1024, 8),
            Kind::FleetParityBurst => (176 * 1024, 32),
        };
        self.shrink(full, smoke_by)
    }
}

/// Skew of the Zipf address draw on `mq_open_paged`: low enough that
/// quadrupling the map budget buys a clearly higher hit rate.
pub const ZIPF_SKEW: f64 = 0.8;

/// The stressed bit-error model of the `latency_blame` experiment: the raw
/// bit-error mean sits at the edge of the default ECC strength, so about 2%
/// of page reads need a shifted-threshold retry while the four-retry budget
/// keeps uncorrectable reads out of reach — the reliability layer works on
/// every read and no command fails.  The preset's program, erase and
/// factory-bad-block faults are switched off for the same reason: a
/// benchmark run must not contain operations that fail.
fn stressed_reliability() -> ReliabilityConfig {
    let mut reliability = ReliabilityConfig::wearout(0x7e1e);
    reliability.faults.raw_ber_base = 4.0;
    reliability.faults.program_fail_base = 0.0;
    reliability.faults.erase_fail_base = 0.0;
    reliability.faults.factory_bad_prob = 0.0;
    reliability
}
