//! The whole flash array: every element, the optional reliability model,
//! and aggregate wear statistics.
//!
//! When a [`ReliabilityModel`] is installed
//! ([`FlashArray::with_reliability`]), every program, erase and read
//! consults it in deterministic operation order: programs and erases can
//! fail (with probability accelerating in the block's wear), failed erases
//! retire the block as a *grown bad block*, and reads return a
//! [`ReadStatus`] describing the ECC retries the controller needed — or an
//! uncorrectable outcome the device surfaces to the host.  The default
//! constructor installs no model; fault-free arrays make no random draws
//! and behave bit-for-bit like the pre-reliability simulator.

use std::ops::Range;

use ossd_reliability::{ReadStatus, ReliabilityConfig, ReliabilityModel};

use crate::element::{ElementCounters, FlashElement};
use crate::error::FlashError;
use crate::geometry::{ElementId, FlashGeometry, PhysPageAddr};
use crate::timing::FlashTiming;

/// Aggregate wear statistics across all blocks of the array.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WearSummary {
    /// Lowest per-block erase count.
    pub min_erases: u32,
    /// Highest per-block erase count.
    pub max_erases: u32,
    /// Mean per-block erase count.
    pub mean_erases: f64,
    /// Total block erases performed.
    pub total_erases: u64,
    /// Number of blocks out of service: past the part's rated endurance
    /// *or* retired (grown/factory bad).  A block that is both is counted
    /// exactly once.
    pub worn_out_blocks: u64,
    /// Number of retired (bad) blocks — the grown-bad-block population the
    /// bad-block manager tracks, plus any factory-marked blocks.
    pub retired_blocks: u64,
    /// Blocks still in service (not retired).
    pub spare_blocks: u64,
}

impl WearSummary {
    /// Difference between the most- and least-worn blocks; the quantity
    /// wear-leveling tries to bound.
    pub fn spread(&self) -> u32 {
        self.max_erases - self.min_erases
    }
}

/// Cumulative media-reliability counters of one array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReliabilityCounters {
    /// Page programs the fault model failed (the page is burned and the
    /// FTL re-programmed the data elsewhere).
    pub program_fails: u64,
    /// Block erases the fault model failed (each retires the block).
    pub erase_fails: u64,
    /// Blocks retired: grown bad (erase failure or post-program-failure
    /// retirement by the FTL) plus factory-marked bad blocks.
    pub retired_blocks: u64,
    /// Extra read-retry attempts the ECC decode loop needed.
    pub read_retries: u64,
    /// Reads that stayed uncorrectable after every retry.
    pub uncorrectable_reads: u64,
    /// Raw bit errors the ECC corrected transparently.
    pub corrected_bits: u64,
}

/// The complete flash array of an SSD.
#[derive(Clone, Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    timing: FlashTiming,
    elements: Vec<FlashElement>,
    /// The fault/ECC model; `None` (the default) means the array is
    /// perfect and no random draws are ever made.
    reliability: Option<ReliabilityModel>,
    counters: ReliabilityCounters,
}

impl FlashArray {
    /// Builds an erased, fault-free array for the given geometry and timing.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming) -> Result<Self, FlashError> {
        Self::with_reliability(geometry, timing, ReliabilityConfig::none())
    }

    /// Builds an array with the given reliability configuration.  A
    /// non-trivial `factory_bad_prob` marks blocks bad up front (in
    /// element/block order, deterministically from the seed); the FTL
    /// excludes them from its allocation pools at construction.
    pub fn with_reliability(
        geometry: FlashGeometry,
        timing: FlashTiming,
        reliability: ReliabilityConfig,
    ) -> Result<Self, FlashError> {
        geometry.validate()?;
        let elements: Vec<FlashElement> = (0..geometry.elements())
            .map(|i| {
                FlashElement::new(
                    ElementId(i),
                    geometry.blocks_per_element(),
                    geometry.pages_per_block,
                )
            })
            .collect();
        let mut array = FlashArray {
            geometry,
            timing,
            elements,
            reliability: None,
            counters: ReliabilityCounters::default(),
        };
        if !reliability.is_none() {
            let mut model = ReliabilityModel::new(&reliability);
            if reliability.faults.factory_bad_prob > 0.0 {
                for element in 0..geometry.elements() {
                    for block in 0..geometry.blocks_per_element() {
                        if model.factory_bad() {
                            array
                                .element_mut(ElementId(element))?
                                .retire(block)
                                .expect("fresh blocks hold no valid pages");
                            array.counters.retired_blocks += 1;
                        }
                    }
                }
            }
            array.reliability = Some(model);
        }
        Ok(array)
    }

    /// The array geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The flash timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// Whether a fault model is installed.
    pub fn has_reliability_model(&self) -> bool {
        self.reliability.is_some()
    }

    /// Cumulative reliability counters (fault and recovery events).
    pub fn reliability_counters(&self) -> ReliabilityCounters {
        self.counters
    }

    /// Number of elements.
    pub fn element_count(&self) -> u32 {
        self.elements.len() as u32
    }

    /// Immutable access to an element.
    pub fn element(&self, id: ElementId) -> Result<&FlashElement, FlashError> {
        self.elements.get(id.index()).ok_or(FlashError::OutOfRange {
            what: "element",
            index: id.0 as u64,
            bound: self.elements.len() as u64,
        })
    }

    /// Mutable access to an element.
    pub fn element_mut(&mut self, id: ElementId) -> Result<&mut FlashElement, FlashError> {
        let bound = self.elements.len() as u64;
        self.elements
            .get_mut(id.index())
            .ok_or(FlashError::OutOfRange {
                what: "element",
                index: id.0 as u64,
                bound,
            })
    }

    /// Wear of a block as a fraction of the rated endurance.
    fn wear_of(&self, element: ElementId, block: u32) -> Result<f64, FlashError> {
        let erases = self.element(element)?.block(block)?.erase_count();
        Ok(erases as f64 / self.timing.endurance.max(1) as f64)
    }

    /// Reads the page at `addr`, returning the reliability outcome: how
    /// many ECC read-retries the controller needed and whether the data was
    /// ultimately uncorrectable.  Fault-free arrays always return
    /// [`ReadStatus::clean`].
    pub fn read(&mut self, addr: PhysPageAddr) -> Result<ReadStatus, FlashError> {
        self.geometry.check_addr(addr)?;
        if self.reliability.is_none() {
            // Fault-free fast path (the default everywhere): no wear
            // lookup, no draws.
            self.element_mut(addr.element)?
                .read(addr.block, addr.page)?;
            return Ok(ReadStatus::clean());
        }
        let (wear, reads) = {
            let block = self.element(addr.element)?.block(addr.block)?;
            (
                block.erase_count() as f64 / self.timing.endurance.max(1) as f64,
                block.reads_since_erase(),
            )
        };
        self.element_mut(addr.element)?
            .read(addr.block, addr.page)?;
        let status = self
            .reliability
            .as_mut()
            .expect("checked above")
            .read_outcome(wear, reads);
        self.counters.read_retries += status.retries as u64;
        self.counters.corrected_bits += status.corrected_bits as u64;
        if status.uncorrectable {
            self.counters.uncorrectable_reads += 1;
        }
        Ok(status)
    }

    /// Programs the next sequential page of `block` on `element`.
    ///
    /// With a fault model installed the program can fail
    /// ([`FlashError::ProgramFailed`]): the target page is consumed as
    /// stale (burned) and the caller must re-program the data elsewhere and
    /// schedule the block for retirement.
    pub fn program(&mut self, element: ElementId, block: u32) -> Result<PhysPageAddr, FlashError> {
        let pages = self.program_run(element, block, 1)?;
        let addr = PhysPageAddr {
            element,
            block,
            page: pages.start,
        };
        if pages.is_empty() {
            return Err(FlashError::ProgramFailed { addr });
        }
        Ok(addr)
    }

    /// Programs the next `n` sequential pages of `block` on `element` and
    /// returns the pages that landed.  A retired block, one with fewer than
    /// `n` free pages and an out-of-range coordinate are rejected up front.
    ///
    /// With a fault model installed each page makes the failure draw of a
    /// single [`FlashArray::program`], in page order, and the run stops at
    /// the first failure: fewer than `n` pages come back, the page at the
    /// range's end is burned, and the caller owes what `program` asks of it
    /// on [`FlashError::ProgramFailed`].
    pub fn program_run(
        &mut self,
        element: ElementId,
        block: u32,
        n: u32,
    ) -> Result<Range<u32>, FlashError> {
        if self.reliability.is_none() {
            // Fault-free arrays (the default everywhere) make no draws.
            return self.element_mut(element)?.program_run(block, n);
        }
        let blk = self.element(element)?.block(block)?;
        blk.room_for(element, block, n)?;
        let wear = self.wear_of(element, block)?;
        let model = self.reliability.as_mut().expect("checked above");
        let landed = model.programs_landing(wear, n);
        let target = self.element_mut(element)?;
        let pages = target.program_run(block, landed)?;
        if landed < n {
            target.skip_page(block)?;
            self.counters.program_fails += 1;
        }
        Ok(pages)
    }

    /// Consumes the next sequential page of `block` as stale without
    /// programming it (lockstep padding after a sibling's program failure).
    pub fn skip_page(
        &mut self,
        element: ElementId,
        block: u32,
    ) -> Result<PhysPageAddr, FlashError> {
        self.element_mut(element)?.skip_page(block)
    }

    /// Invalidates the page at `addr`, reporting the block-state change so
    /// the FTL can maintain incremental indexes (e.g. the victim-selection
    /// index) without re-reading block state.
    pub fn invalidate(
        &mut self,
        addr: PhysPageAddr,
    ) -> Result<crate::BlockStateChange, FlashError> {
        self.geometry.check_addr(addr)?;
        self.element_mut(addr.element)?
            .invalidate(addr.block, addr.page)
    }

    /// Erases `block` on `element` (which must hold no valid pages).
    ///
    /// With a fault model installed the erase can fail
    /// ([`FlashError::EraseFailed`]): the block is retired on the spot as a
    /// grown bad block and must never be allocated again.
    pub fn erase(&mut self, element: ElementId, block: u32) -> Result<(), FlashError> {
        if self.reliability.is_some() {
            let (bad, valid) = {
                let b = self.element(element)?.block(block)?;
                (b.is_bad(), b.valid_count())
            };
            if bad {
                return Err(FlashError::BadBlock {
                    element: element.0,
                    block,
                });
            }
            if valid == 0 {
                // Only a legal erase may fail; illegal erases keep their
                // contract error below.
                let wear = self.wear_of(element, block)?;
                let fails = self
                    .reliability
                    .as_mut()
                    .expect("checked above")
                    .erase_fails(wear);
                if fails {
                    self.element_mut(element)?
                        .retire(block)
                        .expect("no valid pages");
                    self.counters.erase_fails += 1;
                    self.counters.retired_blocks += 1;
                    return Err(FlashError::EraseFailed {
                        element: element.0,
                        block,
                    });
                }
            }
        }
        self.element_mut(element)?.erase(block)
    }

    /// Permanently retires `block` on `element` (the bad-block manager's
    /// explicit path, used after program failures once live data has been
    /// migrated out).  Idempotent on already-retired blocks.
    pub fn retire(&mut self, element: ElementId, block: u32) -> Result<(), FlashError> {
        if self.element(element)?.block(block)?.is_bad() {
            return Ok(());
        }
        self.element_mut(element)?.retire(block)?;
        self.counters.retired_blocks += 1;
        Ok(())
    }

    /// Total free pages across the array (retired blocks excluded).
    pub fn free_pages(&self) -> u64 {
        self.elements.iter().map(|e| e.free_pages()).sum()
    }

    /// Total valid pages across the array.
    pub fn valid_pages(&self) -> u64 {
        self.elements.iter().map(|e| e.valid_pages()).sum()
    }

    /// Total stale pages across the array.
    pub fn invalid_pages(&self) -> u64 {
        self.elements.iter().map(|e| e.invalid_pages()).sum()
    }

    /// Total physical pages in the array.
    pub fn total_pages(&self) -> u64 {
        self.geometry.total_pages()
    }

    /// Sums the per-element operation counters.
    pub fn counters(&self) -> ElementCounters {
        let mut total = ElementCounters::default();
        for e in &self.elements {
            let c = e.counters();
            total.page_reads += c.page_reads;
            total.page_programs += c.page_programs;
            total.block_erases += c.block_erases;
        }
        total
    }

    /// Computes aggregate wear statistics.
    pub fn wear_summary(&self) -> WearSummary {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut total = 0u64;
        let mut count = 0u64;
        let mut worn = 0u64;
        let mut retired = 0u64;
        for e in &self.elements {
            for (_, block) in e.iter_blocks() {
                let c = block.erase_count();
                min = min.min(c);
                max = max.max(c);
                total += c as u64;
                count += 1;
                // A block is out of service when worn past the rating or
                // retired; the union is counted once per block.
                if c >= self.timing.endurance || block.is_bad() {
                    worn += 1;
                }
                if block.is_bad() {
                    retired += 1;
                }
            }
        }
        if count == 0 {
            return WearSummary::default();
        }
        WearSummary {
            min_erases: min,
            max_erases: max,
            mean_erases: total as f64 / count as f64,
            total_erases: total,
            worn_out_blocks: worn,
            retired_blocks: retired,
            spare_blocks: count - retired,
        }
    }

    /// Iterates over all elements.
    pub fn iter_elements(&self) -> impl Iterator<Item = &FlashElement> + '_ {
        self.elements.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FlashGeometry;
    use crate::timing::FlashTiming;
    use ossd_reliability::FaultConfig;

    fn array() -> FlashArray {
        FlashArray::new(FlashGeometry::tiny(), FlashTiming::slc()).unwrap()
    }

    fn faulty_array(faults: FaultConfig) -> FlashArray {
        let config = ReliabilityConfig {
            faults,
            ..ReliabilityConfig::none()
        };
        FlashArray::with_reliability(FlashGeometry::tiny(), FlashTiming::slc(), config).unwrap()
    }

    #[test]
    fn new_array_matches_geometry() {
        let a = array();
        assert_eq!(a.element_count(), 2);
        assert_eq!(a.total_pages(), 128);
        assert_eq!(a.free_pages(), 128);
        assert_eq!(a.valid_pages(), 0);
        assert!(!a.has_reliability_model());
        assert_eq!(a.reliability_counters(), ReliabilityCounters::default());
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        let mut g = FlashGeometry::tiny();
        g.blocks_per_plane = 0;
        assert!(FlashArray::new(g, FlashTiming::slc()).is_err());
    }

    #[test]
    fn cross_element_operations() {
        let mut a = array();
        let p0 = a.program(ElementId(0), 0).unwrap();
        let p1 = a.program(ElementId(1), 3).unwrap();
        assert_eq!(p0.element, ElementId(0));
        assert_eq!(p1.element, ElementId(1));
        assert_eq!(a.read(p0).unwrap(), ReadStatus::clean());
        assert_eq!(a.read(p1).unwrap(), ReadStatus::clean());
        a.invalidate(p0).unwrap();
        a.erase(ElementId(0), 0).unwrap();
        let c = a.counters();
        assert_eq!(c.page_programs, 2);
        assert_eq!(c.page_reads, 2);
        assert_eq!(c.block_erases, 1);
        assert_eq!(a.valid_pages(), 1);
    }

    #[test]
    fn addresses_are_validated() {
        let mut a = array();
        let bad = PhysPageAddr {
            element: ElementId(5),
            block: 0,
            page: 0,
        };
        assert!(a.read(bad).is_err());
        assert!(a.invalidate(bad).is_err());
        assert!(a.program(ElementId(5), 0).is_err());
        assert!(a.erase(ElementId(0), 99).is_err());
        assert!(a.element(ElementId(9)).is_err());
    }

    #[test]
    fn wear_summary_tracks_spread() {
        let mut a = array();
        // Erase block 0 of element 0 three times, block 1 once.
        for _ in 0..3 {
            a.erase(ElementId(0), 0).unwrap();
        }
        a.erase(ElementId(0), 1).unwrap();
        let w = a.wear_summary();
        assert_eq!(w.min_erases, 0);
        assert_eq!(w.max_erases, 3);
        assert_eq!(w.total_erases, 4);
        assert_eq!(w.spread(), 3);
        assert_eq!(w.worn_out_blocks, 0);
        assert_eq!(w.retired_blocks, 0);
        assert_eq!(w.spare_blocks, 16);
        assert!(w.mean_erases > 0.0);
    }

    #[test]
    fn page_accounting_sums_across_elements() {
        let mut a = array();
        for _ in 0..5 {
            a.program(ElementId(0), 2).unwrap();
        }
        for _ in 0..3 {
            a.program(ElementId(1), 2).unwrap();
        }
        assert_eq!(a.valid_pages(), 8);
        assert_eq!(a.free_pages(), 120);
        assert_eq!(
            a.valid_pages() + a.invalid_pages() + a.free_pages(),
            a.total_pages()
        );
    }

    #[test]
    fn retirement_is_counted_once_in_worn_out() {
        let mut a = array();
        a.retire(ElementId(0), 0).unwrap();
        // Idempotent: retiring again does not double-count.
        a.retire(ElementId(0), 0).unwrap();
        let w = a.wear_summary();
        assert_eq!(w.retired_blocks, 1);
        assert_eq!(w.worn_out_blocks, 1);
        assert_eq!(w.spare_blocks, 15);
        assert_eq!(a.reliability_counters().retired_blocks, 1);
        // Retired pages no longer count as free.
        assert_eq!(a.free_pages(), 120);
        assert!(matches!(
            a.program(ElementId(0), 0),
            Err(FlashError::BadBlock { .. })
        ));
    }

    #[test]
    fn factory_bad_blocks_are_marked_deterministically() {
        let faults = FaultConfig {
            seed: 11,
            factory_bad_prob: 0.25,
            ..FaultConfig::none()
        };
        let a = faulty_array(faults);
        let b = faulty_array(faults);
        let marked: Vec<bool> = a
            .iter_elements()
            .flat_map(|e| e.iter_blocks().map(|(_, b)| b.is_bad()).collect::<Vec<_>>())
            .collect();
        let marked_b: Vec<bool> = b
            .iter_elements()
            .flat_map(|e| e.iter_blocks().map(|(_, b)| b.is_bad()).collect::<Vec<_>>())
            .collect();
        assert_eq!(marked, marked_b, "factory marking must be deterministic");
        let count = marked.iter().filter(|&&m| m).count() as u64;
        assert!(count > 0, "with p=0.25 over 16 blocks some should be bad");
        assert_eq!(a.reliability_counters().retired_blocks, count);
        assert_eq!(a.wear_summary().retired_blocks, count);
    }

    #[test]
    fn program_failures_burn_the_page() {
        let faults = FaultConfig {
            seed: 5,
            program_fail_base: 1.0, // every program fails
            ..FaultConfig::none()
        };
        let mut a = faulty_array(faults);
        let err = a.program(ElementId(0), 0).unwrap_err();
        assert!(matches!(err, FlashError::ProgramFailed { .. }));
        let block = a.element(ElementId(0)).unwrap().block(0).unwrap();
        assert_eq!(block.invalid_count(), 1, "the failed page is consumed");
        assert_eq!(block.valid_count(), 0);
        assert_eq!(a.reliability_counters().program_fails, 1);
    }

    #[test]
    fn erase_failures_retire_the_block() {
        let faults = FaultConfig {
            seed: 5,
            erase_fail_base: 1.0, // every erase fails
            ..FaultConfig::none()
        };
        let mut a = faulty_array(faults);
        let err = a.erase(ElementId(0), 0).unwrap_err();
        assert!(matches!(err, FlashError::EraseFailed { .. }));
        assert!(a.element(ElementId(0)).unwrap().block(0).unwrap().is_bad());
        let c = a.reliability_counters();
        assert_eq!(c.erase_fails, 1);
        assert_eq!(c.retired_blocks, 1);
        // A second erase of the now-bad block reports BadBlock, not a
        // second failure.
        assert!(matches!(
            a.erase(ElementId(0), 0),
            Err(FlashError::BadBlock { .. })
        ));
        // Illegal erases keep their contract error even under p=1.
        a.program(ElementId(1), 0).unwrap();
        assert!(matches!(
            a.erase(ElementId(1), 0),
            Err(FlashError::EraseWithValidPages { .. })
        ));
    }

    #[test]
    fn heavy_ber_forces_retries_and_uncorrectable_reads() {
        let faults = FaultConfig {
            seed: 5,
            raw_ber_base: 200.0, // far beyond the 8-bit ECC even after retries
            ..FaultConfig::none()
        };
        let mut a = faulty_array(faults);
        let addr = a.program(ElementId(0), 0).unwrap();
        let mut retries = 0u64;
        let mut uncorrectable = 0u64;
        for _ in 0..50 {
            let s = a.read(addr).unwrap();
            retries += s.retries as u64;
            uncorrectable += s.uncorrectable as u64;
        }
        assert!(retries > 0, "a 200-bit mean must trigger retries");
        assert!(uncorrectable > 0, "a 200-bit mean must defeat retries");
        let c = a.reliability_counters();
        assert_eq!(c.read_retries, retries);
        assert_eq!(c.uncorrectable_reads, uncorrectable);
        assert!(c.corrected_bits > 0);
    }

    fn block_of(array: &FlashArray, element: u32, block: u32) -> &crate::Block {
        let element = array.element(ElementId(element)).unwrap();
        element.block(block).unwrap()
    }

    /// The outcome of the next 100 program draws (on element 1, block 7,
    /// recycled whenever it fills): equal on two arrays exactly when their
    /// fault generators are in the same state.
    fn next_100_draws(array: &mut FlashArray) -> Vec<bool> {
        let e = ElementId(1);
        (0..100)
            .map(|_| {
                if block_of(array, 1, 7).is_full() {
                    let element = array.element_mut(e).unwrap();
                    element.invalidate_span(7, 0..8).unwrap();
                    array.erase(e, 7).unwrap();
                }
                array.program(e, 7).is_ok()
            })
            .collect()
    }

    /// `program_run(n)` against `n` single programs on a clone, with a
    /// fault model that fails about one program in six: same pages, same
    /// burned pages, same counters — and the same generator state
    /// afterwards, shown by the next 100 draws.
    #[test]
    fn program_run_is_n_single_programs_under_the_fault_model() {
        let faults = FaultConfig {
            seed: 29,
            program_fail_base: 0.15,
            ..FaultConfig::none()
        };
        let e = ElementId(0);
        let mut run = faulty_array(faults);
        let mut single = run.clone();
        let (mut failed_first, mut failed_inside, mut clean) = (0, 0, 0);
        let mut block = 0;
        for step in 0..400u32 {
            if block_of(&run, 0, block).is_full() {
                // Move on, recycling the next block so that wear (and with
                // it the failure probability) moves too.
                block = (block + 1) % 8;
                if !block_of(&run, 0, block).is_erased() {
                    for a in [&mut run, &mut single] {
                        let element = a.element_mut(e).unwrap();
                        element.invalidate_span(block, 0..8).unwrap();
                        a.erase(e, block).unwrap();
                    }
                }
            }
            let n = 1 + step % block_of(&run, 0, block).free_count();
            let landed = run.program_run(e, block, n).unwrap();
            let mut expected = landed.start..landed.start;
            for _ in 0..n {
                match single.program(e, block) {
                    Ok(addr) => expected.end = addr.page + 1,
                    Err(FlashError::ProgramFailed { addr }) => {
                        assert_eq!(addr.page, expected.end, "the burned page ends the run");
                        break;
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
            assert_eq!(landed, expected, "step {step}");
            match landed.len() as u32 {
                0 => failed_first += 1,
                l if l < n => failed_inside += 1,
                _ => clean += 1,
            }
            assert_eq!(run.reliability_counters(), single.reliability_counters());
            assert_eq!(run.counters(), single.counters());
            assert_eq!(block_of(&run, 0, block), block_of(&single, 0, block));
            let words = |a: &FlashArray| a.element(e).unwrap().valid_words(block).unwrap().to_vec();
            assert_eq!(words(&run), words(&single));
        }
        assert!(failed_first > 0 && failed_inside > 0 && clean > 0);
        assert_eq!(next_100_draws(&mut run), next_100_draws(&mut single));
    }

    #[test]
    fn program_run_rejections_touch_neither_block_nor_generator() {
        let faults = FaultConfig {
            seed: 5,
            program_fail_base: 0.5,
            ..FaultConfig::none()
        };
        for mut a in [array(), faulty_array(faults)] {
            a.retire(ElementId(0), 1).unwrap();
            a.program_run(ElementId(1), 0, 2).unwrap();
            let reference = a.clone();
            assert!(matches!(
                a.program_run(ElementId(0), 1, 1),
                Err(FlashError::BadBlock { .. })
            ));
            assert!(matches!(
                a.program_run(ElementId(0), 0, 9),
                Err(FlashError::BlockFull { .. })
            ));
            assert!(matches!(
                a.program_run(ElementId(0), 99, 1),
                Err(FlashError::OutOfRange { what: "block", .. })
            ));
            assert!(matches!(
                a.program_run(ElementId(5), 0, 1),
                Err(FlashError::OutOfRange {
                    what: "element",
                    ..
                })
            ));
            let spanned = a.element_mut(ElementId(1)).unwrap();
            assert!(matches!(
                spanned.invalidate_span(0, 0..9),
                Err(FlashError::OutOfRange { what: "page", .. })
            ));
            assert_eq!(a.counters(), reference.counters());
            assert_eq!(a.valid_pages(), reference.valid_pages());
            assert_eq!(a.free_pages(), reference.free_pages());
            let mut reference = reference;
            assert_eq!(next_100_draws(&mut a), next_100_draws(&mut reference));
        }
    }
}
