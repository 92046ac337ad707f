//! A flash element: one independently operating die and its blocks.

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

/// One die: a vector of blocks, operation counters and wear state.
#[derive(Clone, Debug)]
pub struct FlashElement {
    id: ElementId,
    blocks: Vec<Block>,
    pages_per_block: u32,
    counters: ElementCounters,
}

impl FlashElement {
    /// Creates an erased element with `blocks` blocks of `pages_per_block`
    /// pages each.
    pub fn new(id: ElementId, blocks: u32, pages_per_block: u32) -> Self {
        FlashElement {
            id,
            blocks: (0..blocks).map(|_| Block::new(pages_per_block)).collect(),
            pages_per_block,
            counters: ElementCounters::default(),
        }
    }

    /// This element's identifier.
    pub fn id(&self) -> ElementId {
        self.id
    }

    /// Number of blocks in the element.
    pub fn block_count(&self) -> u32 {
        self.blocks.len() as u32
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

    fn block_mut(&mut self, block: u32) -> Result<&mut Block, FlashError> {
        let bound = self.blocks.len() as u64;
        self.blocks
            .get_mut(block as usize)
            .ok_or(FlashError::OutOfRange {
                what: "block",
                index: block as u64,
                bound,
            })
    }

    /// Reads a page (bumps the read and read-disturb counters after
    /// validating the page holds defined data).
    pub fn read(&mut self, block: u32, page: u32) -> Result<(), FlashError> {
        let id = self.id;
        let blk = self.block_mut(block)?;
        blk.check_readable(id, block, page)?;
        blk.record_read();
        self.counters.page_reads += 1;
        Ok(())
    }

    /// Programs the next sequential page of `block`; returns the programmed
    /// page's address.
    pub fn program(&mut self, block: u32) -> Result<PhysPageAddr, FlashError> {
        let id = self.id;
        let blk = self.block_mut(block)?;
        let page = blk.program_next(id, block)?;
        self.counters.page_programs += 1;
        Ok(PhysPageAddr {
            element: id,
            block,
            page,
        })
    }

    /// Consumes the next sequential page of `block` as stale without
    /// programming it (burned page after a program failure, or lockstep
    /// padding); returns the consumed page's address.
    pub fn skip_page(&mut self, block: u32) -> Result<PhysPageAddr, FlashError> {
        let id = self.id;
        let page = self.block_mut(block)?.skip_next(id, block)?;
        Ok(PhysPageAddr {
            element: id,
            block,
            page,
        })
    }

    /// Permanently retires `block` (no valid pages may remain).
    pub fn retire(&mut self, block: u32) -> Result<(), FlashError> {
        let id = self.id;
        self.block_mut(block)?.retire(id, block)
    }

    /// Marks a page stale, reporting the block-state change.
    pub fn invalidate(&mut self, block: u32, page: u32) -> Result<BlockStateChange, FlashError> {
        let id = self.id;
        self.block_mut(block)?.invalidate(id, block, page)
    }

    /// Erases a block (which must hold no valid pages).
    pub fn erase(&mut self, block: u32) -> Result<(), FlashError> {
        let id = self.id;
        self.block_mut(block)?.erase(id, block)?;
        self.counters.block_erases += 1;
        Ok(())
    }

    /// State of one page.
    pub fn page_state(&self, block: u32, page: u32) -> Result<PageState, FlashError> {
        self.block(block)?.state(page)
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

    /// Erase counts of every block (for wear-leveling statistics).
    pub fn erase_counts(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().map(|b| b.erase_count())
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
        assert_eq!(e.block_count(), 4);
        assert_eq!(e.total_pages(), 16);
        assert_eq!(e.free_pages(), 16);
        assert_eq!(e.valid_pages(), 0);
        assert_eq!(e.invalid_pages(), 0);
    }

    #[test]
    fn program_read_invalidate_erase_cycle() {
        let mut e = elem();
        let addr = e.program(1).unwrap();
        assert_eq!(addr.element, ElementId(3));
        assert_eq!(addr.block, 1);
        assert_eq!(addr.page, 0);
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
        assert!(e.program(4).is_err());
        assert!(e.read(9, 0).is_err());
        assert!(e.erase(4).is_err());
        assert!(e.block(4).is_err());
        assert!(e.page_state(4, 0).is_err());
    }

    #[test]
    fn page_accounting_is_consistent() {
        let mut e = elem();
        for _ in 0..4 {
            e.program(0).unwrap();
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
    fn erase_counts_are_per_block() {
        let mut e = elem();
        e.program(2).unwrap();
        e.invalidate(2, 0).unwrap();
        e.erase(2).unwrap();
        e.erase(3).unwrap();
        e.erase(3).unwrap();
        let counts: Vec<u32> = e.erase_counts().collect();
        assert_eq!(counts, vec![0, 0, 1, 2]);
    }

    #[test]
    fn iter_blocks_exposes_state() {
        let mut e = elem();
        e.program(1).unwrap();
        let full: Vec<u32> = e
            .iter_blocks()
            .filter(|(_, b)| b.valid_count() > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(full, vec![1]);
    }
}
