//! Shared FTL types: logical page numbers, flash operations, statistics and
//! the [`Ftl`] trait both mapping schemes implement.

use ossd_flash::{ElementId, FlashGeometry};

use crate::error::FtlError;

/// A logical page number in the device's exported address space.
///
/// The size of a logical page is an FTL property ([`Ftl::logical_page_bytes`]):
/// 4 KB for the page-mapped FTL, a whole stripe for the stripe-mapped FTL.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpn(pub u64);

impl Lpn {
    /// The LPN as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The range check every host entry point starts with.
    pub(crate) fn check(self, logical_pages: u64) -> Result<(), FtlError> {
        if self.0 >= logical_pages {
            return Err(FtlError::LpnOutOfRange {
                lpn: self,
                logical_pages,
            });
        }
        Ok(())
    }
}

/// The kind of a scheduled flash operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FlashOpKind {
    /// Array read followed by a bus transfer to the controller.
    ReadPage,
    /// An ECC read-retry: the array re-reads the page with shifted
    /// thresholds and re-transfers it.  Emitted (after the initial
    /// [`FlashOpKind::ReadPage`]) once per retry the reliability model
    /// required, so marginal pages cost real latency at the device.
    ReadRetry,
    /// Bus transfer from the controller followed by an array program.
    ProgramPage,
    /// Internal read+program without a bus transfer (GC page move).
    CopybackPage,
    /// Block erase.
    EraseBlock,
    /// Demand-paged mapping: read of a translation page from the map area
    /// (a map-cache miss whose translation page is materialized on
    /// flash).  Timed like a page read — array read then bus transfer.
    MapRead,
    /// Demand-paged mapping: program of a translation page into the map
    /// area (batched dirty-entry writeback, or GC relocating a valid
    /// translation page).  Timed like a page program — bus transfer then
    /// array program.
    MapWrite,
}

/// Why an operation was issued; the device accounts foreground and
/// background (cleaning/wear-leveling) time separately, which is what
/// Table 5's "cleaning time" and Figure 3's interference measure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpPurpose {
    /// Servicing a host read.
    HostRead,
    /// Servicing a host write.
    HostWrite,
    /// Foreground garbage collection (cleaning in the write path; the host
    /// write waits for it).
    Clean,
    /// Background garbage collection (idle-window cleaning driven by the
    /// device's [`ossd_gc::BackgroundCleaner`]; no host request waits).
    BackgroundClean,
    /// Explicit wear-leveling migration.
    WearLevel,
}

impl OpPurpose {
    /// Whether the operation is non-host work (cleaning or wear-leveling).
    pub(crate) fn is_background(self) -> bool {
        matches!(
            self,
            OpPurpose::Clean | OpPurpose::BackgroundClean | OpPurpose::WearLevel
        )
    }

    /// The purpose code trace events carry (see [`ossd_telemetry::purpose`]).
    pub fn telemetry_code(self) -> u64 {
        match self {
            OpPurpose::HostRead => ossd_telemetry::purpose::HOST_READ,
            OpPurpose::HostWrite => ossd_telemetry::purpose::HOST_WRITE,
            OpPurpose::Clean => ossd_telemetry::purpose::CLEAN,
            OpPurpose::BackgroundClean => ossd_telemetry::purpose::BACKGROUND_CLEAN,
            OpPurpose::WearLevel => ossd_telemetry::purpose::WEAR_LEVEL,
        }
    }
}

/// One flash-level operation for the device to schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlashOp {
    /// The element (die) the operation occupies.
    pub element: ElementId,
    /// What the element does.
    pub kind: FlashOpKind,
    /// Why it does it.
    pub purpose: OpPurpose,
}

impl FlashOp {
    /// Convenience constructor for a host read of one page.
    pub(crate) fn host_read(element: ElementId) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::ReadPage,
            purpose: OpPurpose::HostRead,
        }
    }

    /// Convenience constructor for a host program of one page.
    pub(crate) fn host_program(element: ElementId) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::ProgramPage,
            purpose: OpPurpose::HostWrite,
        }
    }

    /// Convenience constructor for an ECC read-retry of one page.
    pub(crate) fn host_read_retry(element: ElementId) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::ReadRetry,
            purpose: OpPurpose::HostRead,
        }
    }

    /// Convenience constructor for a GC copy-back move.
    pub(crate) fn gc_copyback(element: ElementId) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::CopybackPage,
            purpose: OpPurpose::Clean,
        }
    }

    /// A page program on behalf of `purpose`: a copy-back when the data is
    /// already in the element (cleaning, wear-leveling), a bus transfer and
    /// program otherwise.  A failed attempt is billed the same op.
    pub(crate) fn program_for(element: ElementId, purpose: OpPurpose) -> Self {
        FlashOp {
            element,
            kind: if purpose.is_background() {
                FlashOpKind::CopybackPage
            } else {
                FlashOpKind::ProgramPage
            },
            purpose,
        }
    }

    /// Convenience constructor for a GC erase.
    pub(crate) fn gc_erase(element: ElementId) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::EraseBlock,
            purpose: OpPurpose::Clean,
        }
    }

    /// Convenience constructor for a translation-page read (map-cache
    /// miss) on behalf of `purpose`.
    pub(crate) fn map_read(element: ElementId, purpose: OpPurpose) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::MapRead,
            purpose,
        }
    }

    /// Convenience constructor for a translation-page program (writeback
    /// or relocation) on behalf of `purpose`.
    pub(crate) fn map_write(element: ElementId, purpose: OpPurpose) -> Self {
        FlashOp {
            element,
            kind: FlashOpKind::MapWrite,
            purpose,
        }
    }
}

/// Context the device passes to the FTL alongside a host write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteContext {
    /// Whether high-priority (foreground) host requests are currently
    /// queued at the device.  Priority-aware cleaning postpones garbage
    /// collection while this is true (§3.6).
    pub priority_pending: bool,
}

impl WriteContext {
    /// Context with no priority requests outstanding.
    pub fn idle() -> Self {
        WriteContext {
            priority_pending: false,
        }
    }

    /// Context with priority requests outstanding.
    pub fn with_priority_pending() -> Self {
        WriteContext {
            priority_pending: true,
        }
    }
}

/// Cumulative FTL statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Host logical page reads served.
    pub host_reads: u64,
    /// Host logical page writes served.
    pub host_writes: u64,
    /// Physical pages programmed on behalf of host writes (including
    /// read-modify-write expansion on the stripe FTL).
    pub pages_programmed_host: u64,
    /// Physical pages read on behalf of host operations (including RMW
    /// reads).
    pub pages_read_host: u64,
    /// Valid pages moved by foreground cleaning.
    pub gc_pages_moved: u64,
    /// Pages that cleaning skipped because the host had freed them
    /// (informed cleaning, §3.5).
    pub gc_pages_skipped_free: u64,
    /// Blocks erased by foreground cleaning.
    pub gc_blocks_erased: u64,
    /// Valid pages moved by background (idle-window) cleaning.
    pub bg_pages_moved: u64,
    /// Blocks erased by background cleaning.
    pub bg_blocks_erased: u64,
    /// Number of foreground cleaning passes.
    pub gc_invocations: u64,
    /// Foreground cleaning passes that reclaimed nothing (no block held a
    /// stale page); after such a pass the FTL stops re-triggering until a
    /// page is invalidated, so a full device is not re-scanned on every
    /// write.
    pub gc_fruitless_passes: u64,
    /// Number of cleaning passes that were postponed because priority
    /// requests were outstanding (priority-aware cleaning, §3.6).
    pub gc_postponements: u64,
    /// Valid pages moved by explicit wear-leveling.
    pub wear_level_moves: u64,
    /// Free (TRIM) notifications accepted.
    pub frees_accepted: u64,
}

impl FtlStats {
    /// Write amplification: physical pages programmed (host + foreground
    /// and background GC + wear leveling) divided by host logical pages
    /// written.  1.0 means no amplification; the paper's §3.4 discusses why
    /// SSDs exceed it.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 0.0;
        }
        (self.pages_programmed_host
            + self.gc_pages_moved
            + self.bg_pages_moved
            + self.wear_level_moves) as f64
            / self.host_writes as f64
    }
}

/// The interface both FTLs expose to the SSD device model.
///
/// `Send` is a supertrait so a boxed FTL (and the `Ssd` holding it) can be
/// moved to a fleet worker thread; both concrete FTLs own all their state,
/// so the bound costs nothing.  The four provided methods are what the
/// stripe FTL, with no background cleaner, no per-page location and no
/// map cache, answers; every other method is required.
pub trait Ftl: Send {
    /// The geometry of the flash array the FTL manages.
    fn geometry(&self) -> &FlashGeometry;

    /// Size of one logical page in bytes.
    fn logical_page_bytes(&self) -> u64;

    /// Number of logical pages exported to the host (after over-provisioning).
    fn logical_pages(&self) -> u64;

    /// Exported capacity in bytes.
    fn exported_bytes(&self) -> u64 {
        self.logical_pages() * self.logical_page_bytes()
    }

    /// Reads one logical page, *appending* the flash operations to schedule
    /// to `ops` (one [`FlashOpKind::ReadRetry`] per ECC retry after the
    /// initial read) and returning whether the data stayed uncorrectable —
    /// which the device completes with a typed error status
    /// (`CompletionStatus::UncorrectableRead` in `ossd-block`) instead of
    /// aborting the session.  `covered_bytes` says how many bytes of the
    /// logical page the host actually asked for, so a coarse-grained FTL
    /// only reads the physical pages it needs.
    ///
    /// This is the device's hot path: the caller owns a scratch buffer it
    /// reuses across commands, so steady-state service performs no per-read
    /// allocation.
    fn read_into(
        &mut self,
        lpn: Lpn,
        covered_bytes: u64,
        ops: &mut Vec<FlashOp>,
    ) -> Result<bool, FtlError>;

    /// Writes one logical page, *appending* the flash operations to schedule
    /// — including any cleaning or wear-leveling work triggered by the
    /// allocation — to `ops`.  `covered_bytes` says how many bytes of the
    /// logical page the host actually supplied (a sub-page write forces the
    /// stripe FTL into a read-modify-write).
    ///
    /// Like [`Ftl::read_into`], this is the allocation-free hot path.
    fn write_into(
        &mut self,
        lpn: Lpn,
        covered_bytes: u64,
        ctx: &WriteContext,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError>;

    /// Accepts a free (TRIM) notification for one logical page.  Returns
    /// `true` if the FTL used the information (informed cleaning enabled and
    /// the page was mapped).
    fn free(&mut self, lpn: Lpn) -> Result<bool, FtlError>;

    /// Flushes any data held in the FTL's volatile buffers to flash,
    /// *appending* the flash operations to schedule to `ops`.  The
    /// stripe-mapped FTL drains its open-stripe coalescing buffer here.
    fn flush_into(&mut self, ops: &mut Vec<FlashOp>) -> Result<(), FtlError>;

    /// Performs up to `max_erases` block reclamations of background
    /// cleaning, stopping early once the free-page fraction reaches
    /// `target_free_fraction` or nothing is reclaimable, *appending* the
    /// flash operations performed to `ops`.  Called by the device during
    /// idle windows (see [`ossd_gc::BackgroundCleaner`]); the operations
    /// carry [`OpPurpose::BackgroundClean`] so the device accounts their
    /// time separately from host-visible stalls.  The provided body does
    /// nothing.
    fn background_clean_into(
        &mut self,
        max_erases: u32,
        target_free_fraction: f64,
        ops: &mut Vec<FlashOp>,
    ) -> Result<(), FtlError> {
        let _ = (max_erases, target_free_fraction, ops);
        Ok(())
    }

    /// Cumulative statistics.
    fn stats(&self) -> FtlStats;

    /// The element a read of `lpn` would primarily occupy, if the page is
    /// mapped.  Schedulers (SWTF, §3.2) use this to estimate per-request
    /// queue wait times; `None` (the provided answer) means the scheduler
    /// should treat the target as unknown/idle.
    fn locate(&self, lpn: Lpn) -> Option<u32> {
        let _ = lpn;
        None
    }

    /// The element the FTL would allocate the *next* host write on, if it
    /// can predict one.  The open-queue controller uses this as the element
    /// hint for queued writes to pages with no current mapping, where
    /// [`Ftl::locate`] has nothing to report — SWTF then estimates the wait
    /// of the element the allocation will actually land on instead of
    /// guessing.  `None` (the provided answer, the stripe FTL's, since a
    /// stripe spans every element) means the target is unknown.
    fn next_write_element(&self) -> Option<u32> {
        None
    }

    /// Fraction of physical pages currently free (erased and writable).
    fn free_page_fraction(&self) -> f64;

    /// Whether a logical page currently has a mapping.
    fn is_mapped(&self, lpn: Lpn) -> bool;

    /// Cumulative media-reliability counters (program/erase failures,
    /// retired blocks, ECC retries, uncorrectable reads).
    fn reliability_counters(&self) -> ossd_flash::ReliabilityCounters;

    /// Aggregate wear statistics of the managed flash, including the
    /// retired-block population.
    fn wear_summary(&self) -> ossd_flash::WearSummary;

    /// Attaches a telemetry handle the FTL uses to emit GC and reliability
    /// instants (victim picks, trigger decisions, ECC retries, failures).
    fn set_telemetry(&mut self, telemetry: ossd_telemetry::TelemetryHandle);

    /// Number of blocks (superblocks on the stripe FTL) currently holding
    /// at least one stale page — the cleaning backlog.  Sampled by the
    /// device's metrics time-series.
    fn gc_backlog_blocks(&self) -> u64;

    /// Total stale pages awaiting reclamation across the backlog.  O(blocks);
    /// sampled periodically, not read on the hot path.
    fn gc_stale_pages(&self) -> u64;

    /// Mapping-table statistics: SRAM footprint (resident vs. full-table
    /// bytes) and, for a demand-paged FTL, the map-cache hit/miss/evict/
    /// writeback counters.  The provided body reports a fully resident
    /// table — the whole map in SRAM, no cache traffic.  That is the stripe
    /// FTL's answer: its map holds one entry per logical *stripe* (not per
    /// flash page), which is exactly why low-end devices get away with a
    /// fully resident table — coarse mapping shrinks it by the
    /// stripe-to-page ratio.
    fn map_stats(&self) -> ossd_mapcache::MapStats {
        let bytes = self.logical_pages() * ossd_mapcache::ENTRY_BYTES;
        ossd_mapcache::MapStats {
            bytes_resident: bytes,
            bytes_total: bytes,
            ..ossd_mapcache::MapStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_purpose_background_classification() {
        assert!(!OpPurpose::HostRead.is_background());
        assert!(!OpPurpose::HostWrite.is_background());
        assert!(OpPurpose::Clean.is_background());
        assert!(OpPurpose::BackgroundClean.is_background());
        assert!(OpPurpose::WearLevel.is_background());
    }

    #[test]
    fn flash_op_constructors() {
        let e = ElementId(2);
        assert_eq!(FlashOp::host_read(e).kind, FlashOpKind::ReadPage);
        assert_eq!(FlashOp::host_program(e).purpose, OpPurpose::HostWrite);
        assert_eq!(FlashOp::gc_copyback(e).kind, FlashOpKind::CopybackPage);
        assert_eq!(FlashOp::gc_erase(e).purpose, OpPurpose::Clean);
        assert_eq!(FlashOp::gc_erase(e).element, e);
    }

    #[test]
    fn write_context_constructors() {
        assert!(!WriteContext::idle().priority_pending);
        assert!(WriteContext::with_priority_pending().priority_pending);
        assert_eq!(WriteContext::default(), WriteContext::idle());
    }

    #[test]
    fn write_amplification_metric() {
        let mut s = FtlStats::default();
        assert_eq!(s.write_amplification(), 0.0);
        s.host_writes = 100;
        s.pages_programmed_host = 100;
        assert!((s.write_amplification() - 1.0).abs() < 1e-9);
        s.gc_pages_moved = 50;
        assert!((s.write_amplification() - 1.5).abs() < 1e-9);
        s.wear_level_moves = 50;
        assert!((s.write_amplification() - 2.0).abs() < 1e-9);
        s.bg_pages_moved = 100;
        assert!((s.write_amplification() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lpn_index() {
        assert_eq!(Lpn(7).index(), 7);
        assert!(Lpn(3) < Lpn(9));
    }
}
