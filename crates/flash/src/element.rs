//! A flash element: one independently operating die and its blocks.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::block::{Block, BlockStateChange, PageState};
use crate::error::FlashError;
use crate::geometry::{ElementId, PhysPageAddr};

/// Operation counters maintained per element.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ElementCounters {
    /// Pages read from the array (host reads plus GC reads).
    pub page_reads: u64,
    /// Pages programmed into the array (host writes plus GC copies).
    pub page_programs: u64,
    /// Blocks erased.
    pub block_erases: u64,
}

/// One die: its blocks' counters, the valid-page bitmap, operation counters
/// and wear state.
#[derive(Clone, Debug)]
pub struct FlashElement {
    id: ElementId,
    blocks: Vec<Block>,
    /// One bit per page, set while the page holds live data: block `b` owns
    /// words `b * words_per_block..(b + 1) * words_per_block`, page `p` of it
    /// bit `p` of those.  With each block's write pointer this is all the
    /// page state there is (see [`crate::block`]).
    valid: Vec<u64>,
    words_per_block: usize,
    pages_per_block: u32,
    counters: ElementCounters,
    /// How many in-service (not retired) blocks have each erase count; no
    /// entry is zero, so the end keys are the least and most worn counts.
    wear: BTreeMap<u32, u32>,
}

impl FlashElement {
    /// Creates an erased element with `blocks` blocks of `pages_per_block`
    /// pages each.
    pub fn new(id: ElementId, blocks: u32, pages_per_block: u32) -> Self {
        let words_per_block = pages_per_block.div_ceil(64) as usize;
        FlashElement {
            id,
            blocks: vec![Block::new(pages_per_block); blocks as usize],
            valid: vec![0; blocks as usize * words_per_block],
            words_per_block,
            pages_per_block,
            counters: ElementCounters::default(),
            wear: BTreeMap::from([(0, blocks)]),
        }
    }

    /// This element's identifier.
    pub fn id(&self) -> ElementId {
        self.id
    }

    /// Pages per block.
    pub fn pages_per_block(&self) -> u32 {
        self.pages_per_block
    }

    /// Immutable access to a block.
    pub fn block(&self, block: u32) -> Result<&Block, FlashError> {
        self.blocks
            .get(block as usize)
            .ok_or(FlashError::OutOfRange {
                what: "block",
                index: block as u64,
                bound: self.blocks.len() as u64,
            })
    }

    /// The valid-page bitmap of a block: bit `p` (of word `p / 64`) is set
    /// iff page `p` holds live data.
    pub fn valid_words(&self, block: u32) -> Result<&[u64], FlashError> {
        self.block(block)?;
        let first = block as usize * self.words_per_block;
        Ok(&self.valid[first..first + self.words_per_block])
    }

    /// A block's counters and its bitmap words, for a mutation.
    fn block_mut(&mut self, block: u32) -> Result<(&mut Block, &mut [u64]), FlashError> {
        let bound = self.blocks.len() as u64;
        let blk = self
            .blocks
            .get_mut(block as usize)
            .ok_or(FlashError::OutOfRange {
                what: "block",
                index: block as u64,
                bound,
            })?;
        let first = block as usize * self.words_per_block;
        Ok((blk, &mut self.valid[first..first + self.words_per_block]))
    }

    /// Reads a page (bumps the read and read-disturb counters after
    /// validating the page holds defined data).
    pub fn read(&mut self, block: u32, page: u32) -> Result<(), FlashError> {
        let id = self.id;
        let (blk, _) = self.block_mut(block)?;
        blk.check_readable(id, block, page)?;
        blk.record_read();
        self.counters.page_reads += 1;
        Ok(())
    }

    /// Programs the next `n` sequential pages of `block`; returns them.
    pub fn program_run(&mut self, block: u32, n: u32) -> Result<Range<u32>, FlashError> {
        let id = self.id;
        let (blk, valid) = self.block_mut(block)?;
        let pages = blk.program_run(valid, id, block, n)?;
        self.counters.page_programs += n as u64;
        Ok(pages)
    }

    /// Consumes the next sequential page of `block` as stale without
    /// programming it (burned page after a program failure, or lockstep
    /// padding); returns the consumed page's address.
    pub fn skip_page(&mut self, block: u32) -> Result<PhysPageAddr, FlashError> {
        let id = self.id;
        let page = self.block_mut(block)?.0.skip_next(id, block)?;
        Ok(PhysPageAddr {
            element: id,
            block,
            page,
        })
    }

    /// Permanently retires `block` (no valid pages may remain).
    pub fn retire(&mut self, block: u32) -> Result<(), FlashError> {
        let id = self.id;
        let (blk, _) = self.block_mut(block)?;
        let (in_service, erases) = (!blk.is_bad(), blk.erase_count());
        blk.retire(id, block)?;
        if in_service {
            self.wear_moved(erases, false);
        }
        Ok(())
    }

    /// Marks a page stale, reporting the block-state change.
    pub fn invalidate(&mut self, block: u32, page: u32) -> Result<BlockStateChange, FlashError> {
        let id = self.id;
        let (blk, valid) = self.block_mut(block)?;
        blk.invalidate(valid, id, block, page)
    }

    /// Marks every valid page of `pages` in `block` stale and returns how
    /// many there were, as invalidating each in turn does; stale and free
    /// pages are left alone.  A span past the block is rejected, touching
    /// nothing.
    pub fn invalidate_span(&mut self, block: u32, pages: Range<u32>) -> Result<u32, FlashError> {
        let (blk, valid) = self.block_mut(block)?;
        blk.invalidate_span(valid, pages)
    }

    /// Erases a block (which must hold no valid pages).
    pub fn erase(&mut self, block: u32) -> Result<(), FlashError> {
        let id = self.id;
        let (blk, _) = self.block_mut(block)?;
        blk.erase(id, block)?;
        let erases = blk.erase_count();
        self.counters.block_erases += 1;
        self.wear_moved(erases - 1, true);
        Ok(())
    }

    /// Updates the wear histogram for an in-service block that had `erases`
    /// erases and was just erased once more (`erased`) or else retired.
    fn wear_moved(&mut self, erases: u32, erased: bool) {
        if erased {
            *self.wear.entry(erases + 1).or_default() += 1;
        }
        let blocks = self.wear.get_mut(&erases).expect("a counted block");
        *blocks -= 1;
        if *blocks == 0 {
            self.wear.remove(&erases);
        }
    }

    /// The lowest and highest erase count among the in-service blocks
    /// (`None` once all are retired), kept incrementally.
    pub fn erase_count_bounds(&self) -> Option<(u32, u32)> {
        Some((
            *self.wear.first_key_value()?.0,
            *self.wear.last_key_value()?.0,
        ))
    }

    /// State of one page.
    pub fn page_state(&self, block: u32, page: u32) -> Result<PageState, FlashError> {
        self.block(block)?.state(self.valid_words(block)?, page)
    }

    /// Total free (programmable) pages on this element.  Pages of retired
    /// blocks are permanently unusable and excluded.
    pub fn free_pages(&self) -> u64 {
        self.blocks
            .iter()
            .filter(|b| !b.is_bad())
            .map(|b| b.free_count() as u64)
            .sum()
    }

    /// Total valid pages on this element.
    pub fn valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid_count() as u64).sum()
    }

    /// Total stale pages on this element.
    pub fn invalid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.invalid_count() as u64).sum()
    }

    /// Total pages on this element.
    pub fn total_pages(&self) -> u64 {
        self.blocks.len() as u64 * self.pages_per_block as u64
    }

    /// Operation counters.
    pub fn counters(&self) -> ElementCounters {
        self.counters
    }

    /// Iterates over `(block_index, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u32, &Block)> + '_ {
        self.blocks.iter().enumerate().map(|(i, b)| (i as u32, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem() -> FlashElement {
        FlashElement::new(ElementId(3), 4, 4)
    }

    #[test]
    fn new_element_is_fully_free() {
        let e = elem();
        assert_eq!(e.id(), ElementId(3));
        assert_eq!(e.total_pages(), 16);
        assert_eq!(e.free_pages(), 16);
        assert_eq!(e.valid_pages(), 0);
        assert_eq!(e.invalid_pages(), 0);
    }

    #[test]
    fn program_read_invalidate_erase_cycle() {
        let mut e = elem();
        assert_eq!(e.program_run(1, 1).unwrap(), 0..1);
        e.read(1, 0).unwrap();
        assert_eq!(e.page_state(1, 0).unwrap(), PageState::Valid);
        e.invalidate(1, 0).unwrap();
        assert_eq!(e.page_state(1, 0).unwrap(), PageState::Invalid);
        e.erase(1).unwrap();
        assert_eq!(e.page_state(1, 0).unwrap(), PageState::Free);
        let c = e.counters();
        assert_eq!(c.page_reads, 1);
        assert_eq!(c.page_programs, 1);
        assert_eq!(c.block_erases, 1);
    }

    #[test]
    fn read_of_free_page_is_error() {
        let mut e = elem();
        assert!(matches!(e.read(0, 0), Err(FlashError::ReadFreePage { .. })));
        assert_eq!(e.counters().page_reads, 0);
    }

    #[test]
    fn out_of_range_blocks_are_rejected() {
        let mut e = elem();
        assert!(e.program_run(4, 1).is_err());
        assert!(e.read(9, 0).is_err());
        assert!(e.erase(4).is_err());
        assert!(e.block(4).is_err());
        assert!(e.page_state(4, 0).is_err());
    }

    #[test]
    fn page_accounting_is_consistent() {
        let mut e = elem();
        for _ in 0..4 {
            e.program_run(0, 1).unwrap();
        }
        e.invalidate(0, 0).unwrap();
        e.invalidate(0, 1).unwrap();
        assert_eq!(e.valid_pages(), 2);
        assert_eq!(e.invalid_pages(), 2);
        assert_eq!(e.free_pages(), 12);
        assert_eq!(
            e.valid_pages() + e.invalid_pages() + e.free_pages(),
            e.total_pages()
        );
    }

    #[test]
    fn iter_blocks_exposes_state() {
        let mut e = elem();
        e.program_run(1, 1).unwrap();
        let full: Vec<u32> = e
            .iter_blocks()
            .filter(|(_, b)| b.valid_count() > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(full, vec![1]);
    }

    /// The incremental erase-count bounds against a recompute over the
    /// in-service blocks, through a seeded mix of erases and retirements
    /// that ends with every block retired.
    #[test]
    fn erase_count_bounds_track_a_recompute() {
        let mut e = FlashElement::new(ElementId(0), 12, 4);
        assert_eq!(e.erase_count_bounds(), Some((0, 0)));
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        for step in 0..4_000 {
            let block = next(12) as u32;
            if e.block(block).unwrap().is_bad() {
                continue;
            }
            // Skewed towards low blocks so the spread opens up; one step
            // in 300 retires instead (idempotently, the second time).
            if next(300) == 0 || step > 3_900 {
                e.retire(block).unwrap();
                e.retire(block).unwrap();
            } else if next(12) as u32 >= block {
                e.erase(block).unwrap();
            }
            let in_service: Vec<u32> = e
                .iter_blocks()
                .filter(|(_, b)| !b.is_bad())
                .map(|(_, b)| b.erase_count())
                .collect();
            let expected = in_service
                .iter()
                .min()
                .map(|&min| (min, *in_service.iter().max().unwrap()));
            assert_eq!(e.erase_count_bounds(), expected, "step {step}");
        }
        for block in 0..12 {
            e.retire(block).unwrap();
        }
        assert_eq!(e.erase_count_bounds(), None);
    }

    #[test]
    fn run_and_span_calls_count_like_their_per_page_forms() {
        let mut e = elem();
        assert_eq!(e.program_run(2, 3).unwrap(), 0..3);
        assert_eq!(e.counters().page_programs, 3);
        assert_eq!(e.invalidate_span(2, 1..4).unwrap(), 2);
        assert_eq!(e.valid_pages(), 1);
        assert!(e.program_run(4, 1).is_err());
        assert!(e.invalidate_span(4, 0..1).is_err());
        assert_eq!(e.counters().page_programs, 3);
    }
}
