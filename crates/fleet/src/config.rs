//! Fleet configuration: how many devices, how bytes are laid out across
//! them, and how many threads drive the per-device engines.

use ossd_sim::derive_stream_seed;
use ossd_ssd::SsdConfig;

/// How the fleet's exported byte space maps onto its member devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetLayout {
    /// RAID-0-style striping: the exported space is cut into
    /// `stripe_bytes`-sized stripes dealt round-robin across devices.
    /// Capacity is the sum of every device's stripe-aligned capacity; there
    /// is no redundancy, so device failure is not survivable.
    Striped {
        /// Stripe unit in bytes.  Must be a positive multiple of the
        /// device's logical page size and no larger than one device.
        stripe_bytes: u64,
    },
    /// RAID-5-style rotating parity: each row of `devices - 1` data units
    /// keeps an XOR parity unit on a rotating member (see
    /// [`crate::parity`]).  Capacity is `devices - 1` devices' worth; any
    /// single device failure degrades the array (reads reconstruct from
    /// the survivors) instead of losing data.  Needs ≥ 3 devices.
    Parity {
        /// Stripe unit in bytes.  Must be a positive multiple of the
        /// device's logical page size and no larger than one device.
        stripe_bytes: u64,
    },
}

impl FleetLayout {
    /// Short human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FleetLayout::Striped { .. } => "striped",
            FleetLayout::Parity { .. } => "parity",
        }
    }
}

/// Configuration for a [`crate::Fleet`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Human-readable array name (device names are derived as
    /// `"{name}-dev{i}"`).
    pub name: String,
    /// Template configuration cloned for every member device.  Per-device
    /// differences (name, fault-injection seed) are derived from it; see
    /// [`FleetConfig::device_config`].
    pub device: SsdConfig,
    /// Number of member devices (≥ 1).
    pub devices: usize,
    /// Byte-space layout across the devices.
    pub layout: FleetLayout,
    /// Threads running member engines during a serve session (≥ 1), the
    /// thread that calls `serve` included: it serves one share of the
    /// touched members itself and hands the rest to `threads - 1` parked
    /// workers, which the fleet spawns when a session first needs them and
    /// joins when it is dropped.  A session never uses more engines than
    /// it touches members, and 1 means no worker is ever spawned.  Results
    /// are bit-identical for every thread count — threads only partition
    /// the per-device work, they never share simulation state.
    pub threads: usize,
    /// Base seed for per-device RNG sharding.  Each device's
    /// fault-injection seed is [`derive_stream_seed`]`(seed, stream)` where
    /// the stream number encodes the device index and its replacement
    /// generation, so members never share a fault schedule and a replaced
    /// device gets a fresh one.
    pub seed: u64,
}

impl FleetConfig {
    /// A fleet of `devices` copies of `device`, striped with the given
    /// stripe unit, single-threaded by default.
    pub fn striped(device: SsdConfig, devices: usize, stripe_bytes: u64) -> Self {
        FleetConfig {
            name: "fleet".to_string(),
            device,
            devices,
            layout: FleetLayout::Striped { stripe_bytes },
            threads: 1,
            seed: 0xF1EE_7000,
        }
    }

    /// A fleet of `devices` copies of `device` under rotating parity with
    /// the given stripe unit, single-threaded by default.
    pub fn parity(device: SsdConfig, devices: usize, stripe_bytes: u64) -> Self {
        FleetConfig {
            name: "fleet".to_string(),
            device,
            devices,
            layout: FleetLayout::Parity { stripe_bytes },
            threads: 1,
            seed: 0xF1EE_7000,
        }
    }

    /// Sets the engine thread count (see [`FleetConfig::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the base seed for per-device RNG sharding.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the array name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// The concrete configuration for member device `index` at replacement
    /// `generation` (0 for an original member): the template with a derived
    /// name and, when fault injection is enabled, a decorrelated
    /// fault-injection seed from the fleet's seed stream.
    pub fn device_config(&self, index: usize, generation: u64) -> SsdConfig {
        let mut config = self.device.clone();
        config.name = format!("{}-dev{}", self.name, index);
        if !config.reliability.is_none() {
            let stream = generation * self.devices as u64 + index as u64;
            config.reliability.faults.seed = derive_stream_seed(self.seed, stream);
        }
        config
    }

    /// Validates the fleet-level parameters (the device template is
    /// validated by [`ossd_ssd::Ssd::new`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet needs at least one device".to_string());
        }
        if self.threads == 0 {
            return Err("fleet needs at least one worker thread".to_string());
        }
        let (FleetLayout::Striped { stripe_bytes } | FleetLayout::Parity { stripe_bytes }) =
            self.layout;
        if stripe_bytes == 0 {
            return Err("stripe_bytes must be positive".to_string());
        }
        let page = self.device.geometry.page_bytes as u64;
        if stripe_bytes % page != 0 {
            return Err(format!(
                "stripe_bytes ({stripe_bytes}) must be a multiple of the page size ({page})"
            ));
        }
        if matches!(self.layout, FleetLayout::Parity { .. }) && self.devices < 3 {
            return Err(format!(
                "parity layout needs at least 3 devices, got {}",
                self.devices
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_configs_get_distinct_names_and_fault_seeds() {
        let device = SsdConfig::tiny_page_mapped()
            .with_reliability(ossd_flash::ReliabilityConfig::wearout(0xABCD));
        let config = FleetConfig::striped(device, 4, 8192);
        let c0 = config.device_config(0, 0);
        let c1 = config.device_config(1, 0);
        assert_eq!(c0.name, "fleet-dev0");
        assert_eq!(c1.name, "fleet-dev1");
        assert_ne!(c0.reliability.faults.seed, c1.reliability.faults.seed);
        // A replacement (generation 1) draws a fresh seed for the same slot.
        let c1r = config.device_config(1, 1);
        assert_ne!(c1.reliability.faults.seed, c1r.reliability.faults.seed);
    }

    #[test]
    fn device_configs_without_reliability_keep_the_template_seed() {
        let config = FleetConfig::striped(SsdConfig::tiny_page_mapped(), 2, 8192);
        let c0 = config.device_config(0, 0);
        assert!(c0.reliability.is_none());
    }

    #[test]
    fn validate_rejects_degenerate_parameters() {
        let device = SsdConfig::tiny_page_mapped();
        assert!(FleetConfig::striped(device.clone(), 0, 8192)
            .validate()
            .is_err());
        assert!(FleetConfig::striped(device.clone(), 2, 0)
            .validate()
            .is_err());
        assert!(FleetConfig::striped(device.clone(), 2, 1000)
            .validate()
            .is_err());
        let mut ok = FleetConfig::striped(device.clone(), 2, 8192);
        assert!(ok.validate().is_ok());
        ok.threads = 0;
        assert!(ok.validate().is_err());
        // Parity needs ≥ 3 devices and a page-multiple stripe.
        assert!(FleetConfig::parity(device.clone(), 2, 8192)
            .validate()
            .is_err());
        assert!(FleetConfig::parity(device.clone(), 3, 1000)
            .validate()
            .is_err());
        assert!(FleetConfig::parity(device, 3, 8192).validate().is_ok());
    }
}
