//! Flash timing parameters for SLC and MLC NAND.
//!
//! The defaults follow the numbers quoted in the paper and in Agrawal et al.
//! (USENIX ATC 2008) for large-block SLC NAND (Samsung K9XXG08XXM): 25 µs
//! page read, 200 µs page program, 1.5 ms block erase, with a serial bus of
//! roughly 40 MB/s per package.  MLC parts are slower to program and erase
//! and endure an order of magnitude fewer erase cycles (§2 of the paper).

use ossd_sim::SimDuration;

/// NAND cell technology.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CellType {
    /// Single-level cell: one bit per cell, ~100K erase cycles.
    Slc,
    /// Multi-level cell: multiple bits per cell, ~10K erase cycles, slower
    /// program and erase.
    Mlc,
}

/// Timing and endurance parameters of a flash part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashTiming {
    /// Cell technology (affects presets only; the simulator uses the
    /// explicit numbers below).
    pub cell: CellType,
    /// Time to read one page from the array into the package register.
    pub read_page: SimDuration,
    /// Time to program one page from the register into the array.
    pub program_page: SimDuration,
    /// Time to erase one block.
    pub erase_block: SimDuration,
    /// Serial-bus bandwidth between the controller and a package, in
    /// bytes per second.  Transfers on the same gang bus are serialized.
    pub bus_bytes_per_sec: u64,
    /// Number of erase cycles a block endures before wearing out.
    pub endurance: u32,
}

impl FlashTiming {
    /// SLC timing preset (25 µs / 200 µs / 1.5 ms, 40 MB/s bus, 100K cycles).
    pub fn slc() -> Self {
        FlashTiming {
            cell: CellType::Slc,
            read_page: SimDuration::from_micros(25),
            program_page: SimDuration::from_micros(200),
            erase_block: SimDuration::from_micros(1500),
            bus_bytes_per_sec: 40_000_000,
            endurance: 100_000,
        }
    }

    /// MLC timing preset (50 µs / 680 µs / 3.3 ms, 40 MB/s bus, 10K cycles).
    pub fn mlc() -> Self {
        FlashTiming {
            cell: CellType::Mlc,
            read_page: SimDuration::from_micros(50),
            program_page: SimDuration::from_micros(680),
            erase_block: SimDuration::from_micros(3300),
            bus_bytes_per_sec: 40_000_000,
            endurance: 10_000,
        }
    }

    /// Time to move `bytes` across the package serial bus.
    pub fn transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_bytes_at_rate(bytes, self.bus_bytes_per_sec)
    }

    /// Service time of an internal copy-back page move (read + program,
    /// no bus transfer), as used by garbage collection.
    pub fn copyback_service(&self) -> SimDuration {
        self.read_page + self.program_page
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slc_preset_matches_datasheet_numbers() {
        let t = FlashTiming::slc();
        assert_eq!(t.cell, CellType::Slc);
        assert_eq!(t.read_page, SimDuration::from_micros(25));
        assert_eq!(t.program_page, SimDuration::from_micros(200));
        assert_eq!(t.erase_block, SimDuration::from_micros(1500));
        assert_eq!(t.endurance, 100_000);
    }

    #[test]
    fn mlc_is_slower_and_less_durable_than_slc() {
        let slc = FlashTiming::slc();
        let mlc = FlashTiming::mlc();
        assert!(mlc.read_page >= slc.read_page);
        assert!(mlc.program_page > slc.program_page);
        assert!(mlc.erase_block > slc.erase_block);
        assert!(mlc.endurance < slc.endurance);
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let t = FlashTiming::slc();
        let one_page = t.transfer(4096);
        let two_pages = t.transfer(8192);
        assert_eq!(two_pages.as_nanos(), 2 * one_page.as_nanos());
        // 4096 bytes at 40 MB/s = 102.4 microseconds.
        assert!((one_page.as_micros_f64() - 102.4).abs() < 0.1);
    }

    #[test]
    fn service_time_compositions() {
        let t = FlashTiming::slc();
        assert_eq!(t.copyback_service(), t.read_page + t.program_page);
    }
}
