//! Cumulative SSD device statistics.

use ossd_flash::ReliabilityCounters;
use ossd_ftl::{FtlStats, MapStats};
use ossd_sim::SimDuration;

/// Statistics accumulated by an [`crate::Ssd`] over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SsdStats {
    /// Host read requests served.
    pub host_reads: u64,
    /// Host write requests served.
    pub host_writes: u64,
    /// Free (TRIM) notifications received.
    pub host_frees: u64,
    /// Bytes read by the host.
    pub bytes_read: u64,
    /// Bytes written by the host.
    pub bytes_written: u64,
    /// Flash busy time spent servicing host operations.
    pub host_busy: SimDuration,
    /// Flash busy time spent on foreground cleaning (garbage collection in
    /// the write path; host requests stall behind it).  This is the
    /// "cleaning time" Table 5 reports.
    pub cleaning_busy: SimDuration,
    /// Flash busy time spent on background (idle-window) cleaning; host
    /// requests do not wait for it, though it may delay the first request
    /// after an idle window.
    pub background_cleaning_busy: SimDuration,
    /// Flash busy time spent on explicit wear-leveling migrations.
    pub wear_level_busy: SimDuration,
    /// Host read *requests* that completed with
    /// `CompletionStatus::UncorrectableRead` (at least one of their pages
    /// stayed uncorrectable; the per-page count is in
    /// [`SsdStats::reliability`]).
    pub failed_reads: u64,
    /// Host reads served from the sequential read-ahead buffer.
    pub prefetch_hits: u64,
    /// Host writes absorbed by controller RAM without immediate flash work.
    pub buffered_writes: u64,
    /// Write commands that carried a `Hot` stream-temperature hint over the
    /// queue-pair interface (advisory; placement policies may consult it).
    pub hinted_hot_writes: u64,
    /// Write commands that carried a `Cold` stream-temperature hint.
    pub hinted_cold_writes: u64,
    /// FTL-level counters (mapping, GC, wear-leveling).
    pub ftl: FtlStats,
    /// Media-reliability counters (program/erase failures, retired blocks,
    /// ECC read retries, uncorrectable reads).  All zero on a fault-free
    /// device.
    pub reliability: ReliabilityCounters,
    /// Demand-paged mapping counters (map-cache hits/misses, translation-page
    /// reads and writebacks, resident footprint).  On a device with a fully
    /// resident mapping table the footprint equals the table size and every
    /// access counter stays zero.
    pub map: MapStats,
}

impl SsdStats {
    /// Pages moved by cleaning (the quantity Table 5 reports as "pages
    /// moved").
    pub fn cleaning_pages_moved(&self) -> u64 {
        self.ftl.gc_pages_moved
    }

    /// Total non-host (cleaning + background cleaning + wear-leveling) busy
    /// time.
    pub fn background_busy(&self) -> SimDuration {
        self.cleaning_busy
            .saturating_add(self.background_cleaning_busy)
            .saturating_add(self.wear_level_busy)
    }

    /// Write amplification observed so far.
    pub fn write_amplification(&self) -> f64 {
        self.ftl.write_amplification()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut s = SsdStats::default();
        s.ftl.gc_pages_moved = 12;
        s.ftl.host_writes = 10;
        s.ftl.pages_programmed_host = 10;
        s.cleaning_busy = SimDuration::from_millis(3);
        s.wear_level_busy = SimDuration::from_millis(2);
        s.background_cleaning_busy = SimDuration::from_millis(1);
        assert_eq!(s.cleaning_pages_moved(), 12);
        assert_eq!(s.background_busy(), SimDuration::from_millis(6));
        assert!((s.write_amplification() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn default_is_zeroed() {
        let s = SsdStats::default();
        assert_eq!(s.host_reads, 0);
        assert_eq!(s.background_busy(), SimDuration::ZERO);
        assert_eq!(s.write_amplification(), 0.0);
    }
}
