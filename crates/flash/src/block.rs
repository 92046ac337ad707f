//! Per-block page state tracking.
//!
//! A block is the erase unit.  Pages inside a block must be programmed
//! sequentially (a constraint of real NAND that log-structured FTLs rely
//! on), may be invalidated when the logical data they hold is overwritten
//! or freed, and all return to the free state when the block is erased.
//!
//! # Derived page state
//!
//! No [`PageState`] is stored.  Sequential programming means the pages at
//! and past the write pointer are exactly the free ones, so a page is
//! `Free` iff `page >= write_ptr`; a consumed page is `Valid` or `Invalid`
//! by one bit of its element's valid-bitmap
//! ([`crate::FlashElement::valid_words`]), which [`Block`]'s mutators are
//! handed as `valid`.  No bit at or past the write pointer is ever set, so a
//! program is a mask set, an invalidation a mask clear-and-count, and an
//! erase — legal only with no valid page left, hence no bit set — moves the
//! write pointer and writes nothing per page.  What is left in a `Block` is
//! a handful of counters: [`crate::FlashElement`] keeps them in one flat
//! array beside the bitmap, with no allocation per block.

use std::ops::Range;

use crate::bitmap;
use crate::error::FlashError;
use crate::geometry::{ElementId, PhysPageAddr};

/// The block-state delta reported by a page invalidation.
///
/// Mutating flash operations report the state change they caused so an FTL
/// can maintain incremental structures — above all `ossd-gc`'s
/// `VictimIndex` — without re-reading block state after every operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockStateChange {
    /// Whether the page transitioned `Valid` → `Invalid` (false when it was
    /// already stale; invalidation is idempotent).
    pub newly_stale: bool,
    /// The block's stale-page count after the operation.
    pub invalid_pages: u32,
    /// The block's live-page count after the operation.
    pub valid_pages: u32,
}

/// The lifecycle state of one physical page.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageState {
    /// Erased and ready to be programmed.
    Free,
    /// Programmed and holding live data.
    Valid,
    /// Programmed but holding stale data (superseded or freed).
    Invalid,
}

/// One erase block's counters: the sequential write pointer, the live-page
/// and erase counts, and the retirement mark.  Which consumed pages are live
/// is in the element's valid-bitmap (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Page reads absorbed since the last erase; the reliability model's
    /// retention/read-disturb term scales with it.
    reads_since_erase: u64,
    pages: u32,
    write_ptr: u32,
    erase_count: u32,
    valid: u32,
    /// Retired (grown or factory bad): the block is permanently out of
    /// service — programs and erases are rejected.
    bad: bool,
}

// An element's blocks are one flat array that every flash operation indexes.
const _: () = assert!(std::mem::size_of::<Block>() <= 32);

impl Block {
    /// An erased block of `pages_per_block` free pages.
    pub(crate) fn new(pages_per_block: u32) -> Self {
        Block {
            reads_since_erase: 0,
            pages: pages_per_block,
            write_ptr: 0,
            erase_count: 0,
            valid: 0,
            bad: false,
        }
    }

    /// Number of pages in the block.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// State of page `page` given the block's bitmap words, or an
    /// out-of-range error.
    pub(crate) fn state(&self, valid: &[u64], page: u32) -> Result<PageState, FlashError> {
        self.check_page(page)?;
        Ok(if page >= self.write_ptr {
            PageState::Free
        } else if valid[page as usize / 64] >> (page % 64) & 1 == 1 {
            PageState::Valid
        } else {
            PageState::Invalid
        })
    }

    fn check_page(&self, page: u32) -> Result<(), FlashError> {
        if page >= self.pages {
            return Err(FlashError::OutOfRange {
                what: "page",
                index: page as u64,
                bound: self.pages as u64,
            });
        }
        Ok(())
    }

    /// Checks that `n` more pages can be consumed: the block is in service
    /// ([`FlashError::BadBlock`]) and has the free pages
    /// ([`FlashError::BlockFull`]).  The coordinates only build the error.
    pub fn room_for(&self, element: ElementId, block: u32, n: u32) -> Result<(), FlashError> {
        if self.bad {
            return Err(FlashError::BadBlock {
                element: element.0,
                block,
            });
        }
        if n > self.free_count() {
            return Err(FlashError::BlockFull {
                element: element.0,
                block,
            });
        }
        Ok(())
    }

    /// Programs the next `n` free pages in sequence and returns their
    /// indices, or fails as [`Block::room_for`] does, touching nothing.
    pub(crate) fn program_run(
        &mut self,
        valid: &mut [u64],
        element: ElementId,
        block: u32,
        n: u32,
    ) -> Result<Range<u32>, FlashError> {
        self.room_for(element, block, n)?;
        let pages = self.write_ptr..self.write_ptr + n;
        bitmap::set_range(valid, pages.start as usize..pages.end as usize);
        self.write_ptr += n;
        self.valid += n;
        Ok(pages)
    }

    /// Consumes the next sequential page as stale without programming data
    /// into it.  Used when the fault model fails a program (the page is
    /// burned) and by lockstep FTLs that must pad sibling blocks past a
    /// failed row.
    pub(crate) fn skip_next(&mut self, element: ElementId, block: u32) -> Result<u32, FlashError> {
        self.room_for(element, block, 1)?;
        self.write_ptr += 1;
        Ok(self.write_ptr - 1)
    }

    /// Marks a previously programmed page as stale, reporting the
    /// [`BlockStateChange`] so callers can maintain incremental indexes.
    pub(crate) fn invalidate(
        &mut self,
        valid: &mut [u64],
        element: ElementId,
        block: u32,
        page: u32,
    ) -> Result<BlockStateChange, FlashError> {
        self.check_page(page)?;
        if page >= self.write_ptr {
            let addr = PhysPageAddr {
                element,
                block,
                page,
            };
            return Err(FlashError::InvalidateFreePage { addr });
        }
        // Idempotent: an already stale page stays stale.
        let (word, bit) = (&mut valid[page as usize / 64], 1 << (page % 64));
        let newly_stale = *word & bit != 0;
        *word &= !bit;
        self.valid -= newly_stale as u32;
        Ok(BlockStateChange {
            newly_stale,
            invalid_pages: self.invalid_count(),
            valid_pages: self.valid,
        })
    }

    /// [`crate::FlashElement::invalidate_span`] on this block.
    pub(crate) fn invalidate_span(
        &mut self,
        valid: &mut [u64],
        pages: Range<u32>,
    ) -> Result<u32, FlashError> {
        if pages.start > pages.end || pages.end > self.pages {
            return Err(FlashError::OutOfRange {
                what: "page",
                index: pages.end as u64,
                bound: self.pages as u64,
            });
        }
        let staled = bitmap::take_range(valid, pages.start as usize..pages.end as usize);
        self.valid -= staled;
        Ok(staled)
    }

    /// Checks that reading `page` would return defined data: anything below
    /// the write pointer, stale pages included.
    pub(crate) fn check_readable(
        &self,
        element: ElementId,
        block: u32,
        page: u32,
    ) -> Result<(), FlashError> {
        if page < self.write_ptr {
            return Ok(());
        }
        self.check_page(page)?;
        let addr = PhysPageAddr {
            element,
            block,
            page,
        };
        Err(FlashError::ReadFreePage { addr })
    }

    /// Erases the block, returning all pages to the free state.
    ///
    /// Fails if valid pages remain (`force` is deliberately not offered: an
    /// FTL that erases live data has a bug the simulator should expose).
    pub(crate) fn erase(&mut self, element: ElementId, block: u32) -> Result<(), FlashError> {
        if self.bad {
            return Err(FlashError::BadBlock {
                element: element.0,
                block,
            });
        }
        if self.valid > 0 {
            return Err(FlashError::EraseWithValidPages {
                element: element.0,
                block,
                valid: self.valid,
            });
        }
        self.write_ptr = 0;
        self.erase_count += 1;
        self.reads_since_erase = 0;
        Ok(())
    }

    /// Permanently retires the block (marks it bad).  Like an erase, this
    /// requires that no valid pages remain — the FTL migrates live data
    /// before retiring.  Idempotent on already-bad blocks.
    pub(crate) fn retire(&mut self, element: ElementId, block: u32) -> Result<(), FlashError> {
        if self.valid > 0 {
            return Err(FlashError::EraseWithValidPages {
                element: element.0,
                block,
                valid: self.valid,
            });
        }
        self.bad = true;
        Ok(())
    }

    /// Whether the block is retired (grown or factory bad).
    pub fn is_bad(&self) -> bool {
        self.bad
    }

    /// Records one page read for retention/read-disturb accounting.
    pub(crate) fn record_read(&mut self) {
        self.reads_since_erase += 1;
    }

    /// Page reads absorbed since the last erase.
    pub fn reads_since_erase(&self) -> u64 {
        self.reads_since_erase
    }

    /// Number of valid pages.
    pub fn valid_count(&self) -> u32 {
        self.valid
    }

    /// Number of stale (invalid) pages.
    pub fn invalid_count(&self) -> u32 {
        self.write_ptr - self.valid
    }

    /// Number of still-free (programmable) pages.
    pub fn free_count(&self) -> u32 {
        self.pages - self.write_ptr
    }

    /// Whether every page has been programmed since the last erase.
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages
    }

    /// Whether the block is entirely erased.
    pub fn is_erased(&self) -> bool {
        self.write_ptr == 0
    }

    /// Index of the next page a program would use.
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Number of times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::FlashElement;

    const E: ElementId = ElementId(0);

    /// A block and its bitmap words: block 0 of a one-block element.
    fn block(pages: u32) -> FlashElement {
        FlashElement::new(E, 1, pages)
    }

    fn counts(e: &FlashElement) -> &Block {
        e.block(0).unwrap()
    }

    fn states(e: &FlashElement) -> Vec<PageState> {
        (0..counts(e).pages())
            .map(|page| e.page_state(0, page).unwrap())
            .collect()
    }

    #[test]
    fn new_block_is_erased() {
        let e = block(8);
        let b = counts(&e);
        assert_eq!(b.pages(), 8);
        assert_eq!(b.valid_count(), 0);
        assert_eq!(b.invalid_count(), 0);
        assert_eq!(b.free_count(), 8);
        assert!(b.is_erased());
        assert!(!b.is_full());
        assert_eq!(b.erase_count(), 0);
    }

    #[test]
    fn program_is_sequential() {
        let mut b = block(4);
        for page in 0..4 {
            assert_eq!(b.program_run(0, 1).unwrap().start, page);
        }
        assert!(counts(&b).is_full());
        assert!(matches!(
            b.program_run(0, 1),
            Err(FlashError::BlockFull { .. })
        ));
    }

    #[test]
    fn invalidate_transitions() {
        let mut b = block(4);
        b.program_run(0, 2).unwrap();
        assert_eq!(counts(&b).valid_count(), 2);
        let change = b.invalidate(0, 0).unwrap();
        assert_eq!(
            change,
            BlockStateChange {
                newly_stale: true,
                invalid_pages: 1,
                valid_pages: 1
            }
        );
        // Idempotent on already-invalid pages.
        assert!(!b.invalidate(0, 0).unwrap().newly_stale);
        assert_eq!(counts(&b).valid_count(), 1);
        // Invalidating a free page is an error.
        assert!(matches!(
            b.invalidate(0, 3),
            Err(FlashError::InvalidateFreePage { .. })
        ));
        // Out of range.
        assert!(matches!(
            b.invalidate(0, 9),
            Err(FlashError::OutOfRange { what: "page", .. })
        ));
    }

    #[test]
    fn readable_check() {
        let mut b = block(2);
        assert!(matches!(
            counts(&b).check_readable(E, 0, 0),
            Err(FlashError::ReadFreePage { .. })
        ));
        assert!(matches!(
            counts(&b).check_readable(E, 0, 2),
            Err(FlashError::OutOfRange { what: "page", .. })
        ));
        b.program_run(0, 1).unwrap();
        assert!(counts(&b).check_readable(E, 0, 0).is_ok());
        b.invalidate(0, 0).unwrap();
        // Stale pages are still physically readable.
        assert!(counts(&b).check_readable(E, 0, 0).is_ok());
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let mut b = block(2);
        b.program_run(0, 1).unwrap();
        assert!(matches!(
            b.erase(0),
            Err(FlashError::EraseWithValidPages { valid: 1, .. })
        ));
        b.invalidate(0, 0).unwrap();
        b.erase(0).unwrap();
        assert!(counts(&b).is_erased());
        assert_eq!(counts(&b).erase_count(), 1);
        assert_eq!(counts(&b).free_count(), 2);
        assert_eq!(states(&b), [PageState::Free; 2]);
        // Pages can be programmed again after the erase.
        assert_eq!(b.program_run(0, 1).unwrap().start, 0);
    }

    #[test]
    fn wear_tracking() {
        let mut b = block(1);
        for _ in 0..5 {
            b.program_run(0, 1).unwrap();
            b.invalidate(0, 0).unwrap();
            b.erase(0).unwrap();
        }
        assert_eq!(counts(&b).erase_count(), 5);
    }

    #[test]
    fn page_state_derives_from_write_pointer_and_bitmap() {
        let mut b = block(3);
        b.program_run(0, 2).unwrap();
        b.invalidate(0, 0).unwrap();
        assert_eq!(
            states(&b),
            [PageState::Invalid, PageState::Valid, PageState::Free]
        );
        assert_eq!(b.valid_words(0).unwrap(), [0b10]);
        assert!(b.page_state(0, 3).is_err());
    }

    #[test]
    fn skip_consumes_a_page_as_stale() {
        let mut b = block(4);
        assert_eq!(b.skip_page(0).unwrap().page, 0);
        assert_eq!(b.page_state(0, 0).unwrap(), PageState::Invalid);
        assert_eq!(counts(&b).valid_count(), 0);
        assert_eq!(counts(&b).invalid_count(), 1);
        assert_eq!(b.program_run(0, 1).unwrap().start, 1);
        // Skips respect the block capacity.
        b.skip_page(0).unwrap();
        b.skip_page(0).unwrap();
        assert!(matches!(b.skip_page(0), Err(FlashError::BlockFull { .. })));
    }

    #[test]
    fn retired_blocks_reject_program_and_erase() {
        let mut b = block(2);
        b.program_run(0, 1).unwrap();
        // Retirement requires live data to be migrated first.
        assert!(matches!(
            b.retire(0),
            Err(FlashError::EraseWithValidPages { .. })
        ));
        b.invalidate(0, 0).unwrap();
        b.retire(0).unwrap();
        assert!(counts(&b).is_bad());
        assert!(matches!(
            b.program_run(0, 1),
            Err(FlashError::BadBlock { .. })
        ));
        assert!(matches!(b.erase(0), Err(FlashError::BadBlock { .. })));
        // Retire is idempotent.
        b.retire(0).unwrap();
        // Stale data on a bad block is still physically readable.
        assert!(b.read(0, 0).is_ok());
    }

    #[test]
    fn read_disturb_counter_resets_on_erase() {
        let mut b = block(2);
        b.program_run(0, 1).unwrap();
        b.read(0, 0).unwrap();
        b.read(0, 0).unwrap();
        assert_eq!(counts(&b).reads_since_erase(), 2);
        b.invalidate(0, 0).unwrap();
        b.erase(0).unwrap();
        assert_eq!(counts(&b).reads_since_erase(), 0);
    }

    #[test]
    fn counts_always_sum_to_block_size() {
        let mut b = block(16);
        for i in 0..16 {
            b.program_run(0, 1).unwrap();
            if i % 3 == 0 {
                b.invalidate(0, i).unwrap();
            }
            let c = counts(&b);
            assert_eq!(
                c.valid_count() + c.invalid_count() + c.free_count(),
                c.pages()
            );
        }
    }

    #[test]
    fn program_run_is_repeated_single_programs() {
        for (already, n) in [(0, 0), (0, 1), (0, 8), (3, 5), (7, 1)] {
            let mut run = block(8);
            run.program_run(0, already).unwrap();
            let mut single = run.clone();
            let pages = run.program_run(0, n).unwrap();
            let expected: Vec<u32> = (0..n)
                .map(|_| single.program_run(0, 1).unwrap().start)
                .collect();
            assert_eq!(pages.collect::<Vec<u32>>(), expected);
            assert_eq!(states(&run), states(&single));
            assert_eq!(counts(&run), counts(&single));
        }
    }

    #[test]
    fn program_run_rejections_leave_the_block_untouched() {
        let mut b = block(4);
        b.program_run(0, 1).unwrap();
        let before = states(&b);
        // One more page than the room.
        assert!(matches!(
            b.program_run(0, 4),
            Err(FlashError::BlockFull { .. })
        ));
        assert_eq!(states(&b), before);
        assert_eq!((counts(&b).valid_count(), counts(&b).write_ptr()), (1, 1));
        b.invalidate(0, 0).unwrap();
        b.retire(0).unwrap();
        assert!(matches!(
            b.program_run(0, 1),
            Err(FlashError::BadBlock { .. })
        ));
        assert_eq!((counts(&b).valid_count(), counts(&b).write_ptr()), (0, 1));
    }

    /// Every reachable page-state mix of a 6-page block (a programmed
    /// prefix of any length, each programmed page valid or stale) against
    /// every span: the bulk call must leave exactly what invalidating each
    /// valid page of the span in turn leaves.
    #[test]
    fn invalidate_span_matches_the_per_page_loop_on_every_state_mix() {
        const PAGES: u32 = 6;
        for programmed in 0..=PAGES {
            for stale_mask in 0..1u32 << programmed {
                let mut base = block(PAGES);
                for page in 0..programmed {
                    if stale_mask >> page & 1 == 1 {
                        base.skip_page(0).unwrap();
                    } else {
                        base.program_run(0, 1).unwrap();
                    }
                }
                for start in 0..=PAGES {
                    for end in start..=PAGES {
                        let mut bulk = base.clone();
                        let mut looped = base.clone();
                        let staled = bulk.invalidate_span(0, start..end).unwrap();
                        let mut expected = 0;
                        for page in start..end {
                            if looped.page_state(0, page).unwrap() == PageState::Valid {
                                let change = looped.invalidate(0, page).unwrap();
                                expected += change.newly_stale as u32;
                            }
                        }
                        assert_eq!(staled, expected);
                        assert_eq!(states(&bulk), states(&looped));
                        assert_eq!(counts(&bulk), counts(&looped));
                    }
                }
            }
        }
    }

    #[test]
    fn invalidate_span_rejects_a_span_past_the_block() {
        let mut b = block(4);
        b.program_run(0, 4).unwrap();
        #[allow(clippy::reversed_empty_ranges)]
        for span in [0..5, 4..9, 3..2] {
            assert!(matches!(
                b.invalidate_span(0, span),
                Err(FlashError::OutOfRange { what: "page", .. })
            ));
            assert_eq!(
                counts(&b).valid_count(),
                4,
                "a rejected span stales nothing"
            );
        }
        assert_eq!(b.invalidate_span(0, 4..4).unwrap(), 0);
    }
}
