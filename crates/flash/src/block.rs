//! Per-block page state tracking.
//!
//! A block is the erase unit.  Pages inside a block must be programmed
//! sequentially (a constraint of real NAND that log-structured FTLs rely
//! on), may be invalidated when the logical data they hold is overwritten
//! or freed, and all return to the free state when the block is erased.

use std::ops::Range;

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

/// One erase block: a vector of page states plus a sequential write pointer
/// and an erase counter.
#[derive(Clone, Debug)]
pub struct Block {
    states: Vec<PageState>,
    write_ptr: u32,
    erase_count: u32,
    valid: u32,
    /// Retired (grown or factory bad): the block is permanently out of
    /// service — programs and erases are rejected.
    bad: bool,
    /// Page reads absorbed since the last erase; the reliability model's
    /// retention/read-disturb term scales with it.
    reads_since_erase: u64,
}

impl Block {
    /// Creates an erased block with `pages_per_block` free pages.
    pub fn new(pages_per_block: u32) -> Self {
        Block {
            states: vec![PageState::Free; pages_per_block as usize],
            write_ptr: 0,
            erase_count: 0,
            valid: 0,
            bad: false,
            reads_since_erase: 0,
        }
    }

    /// Number of pages in the block.
    pub fn pages(&self) -> u32 {
        self.states.len() as u32
    }

    /// State of page `page`, or an out-of-range error.
    pub fn state(&self, page: u32) -> Result<PageState, FlashError> {
        self.states
            .get(page as usize)
            .copied()
            .ok_or(FlashError::OutOfRange {
                what: "page",
                index: page as u64,
                bound: self.states.len() as u64,
            })
    }

    /// The state of every page, in page order.
    pub fn states(&self) -> &[PageState] {
        &self.states
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

    /// Programs the next free page in sequence and returns its index.
    ///
    /// Fails with [`FlashError::BlockFull`] when all pages are programmed.
    pub fn program_next(&mut self, element: ElementId, block: u32) -> Result<u32, FlashError> {
        Ok(self.program_run(element, block, 1)?.start)
    }

    /// Programs the next `n` free pages in sequence and returns their
    /// indices, or fails as [`Block::room_for`] does, touching nothing.
    pub fn program_run(
        &mut self,
        element: ElementId,
        block: u32,
        n: u32,
    ) -> Result<Range<u32>, FlashError> {
        self.room_for(element, block, n)?;
        let pages = self.write_ptr..self.write_ptr + n;
        let states = &mut self.states[pages.start as usize..pages.end as usize];
        debug_assert!(states.iter().all(|&s| s == PageState::Free));
        states.fill(PageState::Valid);
        self.write_ptr += n;
        self.valid += n;
        Ok(pages)
    }

    /// Consumes the next sequential page as stale without programming data
    /// into it.  Used when the fault model fails a program (the page is
    /// burned) and by lockstep FTLs that must pad sibling blocks past a
    /// failed row.
    pub fn skip_next(&mut self, element: ElementId, block: u32) -> Result<u32, FlashError> {
        self.room_for(element, block, 1)?;
        let page = self.write_ptr;
        debug_assert_eq!(self.states[page as usize], PageState::Free);
        self.states[page as usize] = PageState::Invalid;
        self.write_ptr += 1;
        Ok(page)
    }

    /// Marks a previously programmed page as stale, reporting the
    /// [`BlockStateChange`] so callers can maintain incremental indexes.
    pub fn invalidate(
        &mut self,
        element: ElementId,
        block: u32,
        page: u32,
    ) -> Result<BlockStateChange, FlashError> {
        let addr = PhysPageAddr {
            element,
            block,
            page,
        };
        let newly_stale = match self.state(page)? {
            PageState::Free => return Err(FlashError::InvalidateFreePage { addr }),
            PageState::Invalid => false, // Idempotent: already stale.
            PageState::Valid => {
                self.states[page as usize] = PageState::Invalid;
                self.valid -= 1;
                true
            }
        };
        Ok(BlockStateChange {
            newly_stale,
            invalid_pages: self.invalid_count(),
            valid_pages: self.valid,
        })
    }

    /// Marks every valid page of `pages` stale and returns how many there
    /// were, as invalidating each in turn does; stale and free pages are
    /// left alone.  A span past the block is rejected, touching nothing.
    pub fn invalidate_span(&mut self, pages: Range<u32>) -> Result<u32, FlashError> {
        let bound = self.states.len() as u64;
        let span = self
            .states
            .get_mut(pages.start as usize..pages.end as usize)
            .ok_or(FlashError::OutOfRange {
                what: "page",
                index: pages.end as u64,
                bound,
            })?;
        let mut staled = 0;
        for state in span.iter_mut().filter(|s| **s == PageState::Valid) {
            *state = PageState::Invalid;
            staled += 1;
        }
        self.valid -= staled;
        Ok(staled)
    }

    /// Checks that reading `page` would return defined data.
    pub fn check_readable(
        &self,
        element: ElementId,
        block: u32,
        page: u32,
    ) -> Result<(), FlashError> {
        let addr = PhysPageAddr {
            element,
            block,
            page,
        };
        match self.state(page)? {
            PageState::Free => Err(FlashError::ReadFreePage { addr }),
            _ => Ok(()),
        }
    }

    /// Erases the block, returning all pages to the free state.
    ///
    /// Fails if valid pages remain (`force` is deliberately not offered: an
    /// FTL that erases live data has a bug the simulator should expose).
    pub fn erase(&mut self, element: ElementId, block: u32) -> Result<(), FlashError> {
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
        for s in &mut self.states {
            *s = PageState::Free;
        }
        self.write_ptr = 0;
        self.erase_count += 1;
        self.reads_since_erase = 0;
        Ok(())
    }

    /// Permanently retires the block (marks it bad).  Like an erase, this
    /// requires that no valid pages remain — the FTL migrates live data
    /// before retiring.  Idempotent on already-bad blocks.
    pub fn retire(&mut self, element: ElementId, block: u32) -> Result<(), FlashError> {
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
        self.pages() - self.write_ptr
    }

    /// Whether every page has been programmed since the last erase.
    pub fn is_full(&self) -> bool {
        self.write_ptr as usize == self.states.len()
    }

    /// Whether the block is entirely erased.
    pub fn is_erased(&self) -> bool {
        self.write_ptr == 0
    }

    /// Index of the next page that `program_next` would use.
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Number of times this block has been erased.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Whether the block has exceeded the given endurance.
    pub fn is_worn_out(&self, endurance: u32) -> bool {
        self.erase_count >= endurance
    }

    /// Iterates over `(page_index, state)` pairs.
    pub fn iter_states(&self) -> impl Iterator<Item = (u32, PageState)> + '_ {
        self.states.iter().enumerate().map(|(i, s)| (i as u32, *s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: ElementId = ElementId(0);

    #[test]
    fn new_block_is_erased() {
        let b = Block::new(8);
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
        let mut b = Block::new(4);
        assert_eq!(b.program_next(E, 0).unwrap(), 0);
        assert_eq!(b.program_next(E, 0).unwrap(), 1);
        assert_eq!(b.program_next(E, 0).unwrap(), 2);
        assert_eq!(b.program_next(E, 0).unwrap(), 3);
        assert!(b.is_full());
        assert!(matches!(
            b.program_next(E, 0),
            Err(FlashError::BlockFull { .. })
        ));
    }

    #[test]
    fn invalidate_transitions() {
        let mut b = Block::new(4);
        b.program_next(E, 0).unwrap();
        b.program_next(E, 0).unwrap();
        assert_eq!(b.valid_count(), 2);
        b.invalidate(E, 0, 0).unwrap();
        assert_eq!(b.valid_count(), 1);
        assert_eq!(b.invalid_count(), 1);
        // Idempotent on already-invalid pages.
        b.invalidate(E, 0, 0).unwrap();
        assert_eq!(b.valid_count(), 1);
        // Invalidating a free page is an error.
        assert!(matches!(
            b.invalidate(E, 0, 3),
            Err(FlashError::InvalidateFreePage { .. })
        ));
        // Out of range.
        assert!(b.invalidate(E, 0, 9).is_err());
    }

    #[test]
    fn readable_check() {
        let mut b = Block::new(2);
        assert!(matches!(
            b.check_readable(E, 0, 0),
            Err(FlashError::ReadFreePage { .. })
        ));
        b.program_next(E, 0).unwrap();
        assert!(b.check_readable(E, 0, 0).is_ok());
        b.invalidate(E, 0, 0).unwrap();
        // Stale pages are still physically readable.
        assert!(b.check_readable(E, 0, 0).is_ok());
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let mut b = Block::new(2);
        b.program_next(E, 0).unwrap();
        assert!(matches!(
            b.erase(E, 0),
            Err(FlashError::EraseWithValidPages { valid: 1, .. })
        ));
        b.invalidate(E, 0, 0).unwrap();
        b.erase(E, 0).unwrap();
        assert!(b.is_erased());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.free_count(), 2);
        // Pages can be programmed again after the erase.
        assert_eq!(b.program_next(E, 0).unwrap(), 0);
    }

    #[test]
    fn wear_tracking() {
        let mut b = Block::new(1);
        for _ in 0..5 {
            b.program_next(E, 0).unwrap();
            b.invalidate(E, 0, 0).unwrap();
            b.erase(E, 0).unwrap();
        }
        assert_eq!(b.erase_count(), 5);
        assert!(b.is_worn_out(5));
        assert!(!b.is_worn_out(6));
    }

    #[test]
    fn iter_states_reports_all_pages() {
        let mut b = Block::new(3);
        b.program_next(E, 0).unwrap();
        b.program_next(E, 0).unwrap();
        b.invalidate(E, 0, 0).unwrap();
        let states: Vec<(u32, PageState)> = b.iter_states().collect();
        assert_eq!(
            states,
            vec![
                (0, PageState::Invalid),
                (1, PageState::Valid),
                (2, PageState::Free)
            ]
        );
    }

    #[test]
    fn skip_consumes_a_page_as_stale() {
        let mut b = Block::new(4);
        assert_eq!(b.skip_next(E, 0).unwrap(), 0);
        assert_eq!(b.state(0).unwrap(), PageState::Invalid);
        assert_eq!(b.valid_count(), 0);
        assert_eq!(b.invalid_count(), 1);
        assert_eq!(b.program_next(E, 0).unwrap(), 1);
        // Skips respect the block capacity.
        b.skip_next(E, 0).unwrap();
        b.skip_next(E, 0).unwrap();
        assert!(matches!(
            b.skip_next(E, 0),
            Err(FlashError::BlockFull { .. })
        ));
    }

    #[test]
    fn retired_blocks_reject_program_and_erase() {
        let mut b = Block::new(2);
        b.program_next(E, 0).unwrap();
        // Retirement requires live data to be migrated first.
        assert!(matches!(
            b.retire(E, 0),
            Err(FlashError::EraseWithValidPages { .. })
        ));
        b.invalidate(E, 0, 0).unwrap();
        b.retire(E, 0).unwrap();
        assert!(b.is_bad());
        assert!(matches!(
            b.program_next(E, 0),
            Err(FlashError::BadBlock { .. })
        ));
        assert!(matches!(b.erase(E, 0), Err(FlashError::BadBlock { .. })));
        // Retire is idempotent.
        b.retire(E, 0).unwrap();
        // Stale data on a bad block is still physically readable.
        assert!(b.check_readable(E, 0, 0).is_ok());
    }

    #[test]
    fn read_disturb_counter_resets_on_erase() {
        let mut b = Block::new(2);
        b.program_next(E, 0).unwrap();
        b.record_read();
        b.record_read();
        assert_eq!(b.reads_since_erase(), 2);
        b.invalidate(E, 0, 0).unwrap();
        b.erase(E, 0).unwrap();
        assert_eq!(b.reads_since_erase(), 0);
    }

    #[test]
    fn counts_always_sum_to_block_size() {
        let mut b = Block::new(16);
        for i in 0..16 {
            b.program_next(E, 0).unwrap();
            if i % 3 == 0 {
                b.invalidate(E, 0, i).unwrap();
            }
            assert_eq!(
                b.valid_count() + b.invalid_count() + b.free_count(),
                b.pages()
            );
        }
    }

    #[test]
    fn program_run_is_repeated_program_next() {
        for (already, n) in [(0, 0), (0, 1), (0, 8), (3, 5), (7, 1)] {
            let mut run = Block::new(8);
            let mut single = Block::new(8);
            for _ in 0..already {
                run.program_next(E, 0).unwrap();
                single.program_next(E, 0).unwrap();
            }
            let pages = run.program_run(E, 0, n).unwrap();
            let expected: Vec<u32> = (0..n).map(|_| single.program_next(E, 0).unwrap()).collect();
            assert_eq!(pages.collect::<Vec<u32>>(), expected);
            assert_eq!(run.states(), single.states());
            assert_eq!(run.valid_count(), single.valid_count());
            assert_eq!(run.write_ptr(), single.write_ptr());
        }
    }

    #[test]
    fn program_run_rejections_leave_the_block_untouched() {
        let mut b = Block::new(4);
        b.program_next(E, 0).unwrap();
        let before = b.states().to_vec();
        // One more page than the room.
        assert!(matches!(
            b.program_run(E, 0, 4),
            Err(FlashError::BlockFull { .. })
        ));
        assert_eq!(b.states(), &before[..]);
        assert_eq!((b.valid_count(), b.write_ptr()), (1, 1));
        b.invalidate(E, 0, 0).unwrap();
        b.retire(E, 0).unwrap();
        assert!(matches!(
            b.program_run(E, 0, 1),
            Err(FlashError::BadBlock { .. })
        ));
        assert_eq!((b.valid_count(), b.write_ptr()), (0, 1));
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
                let mut base = Block::new(PAGES);
                for page in 0..programmed {
                    if stale_mask >> page & 1 == 1 {
                        base.skip_next(E, 0).unwrap();
                    } else {
                        base.program_next(E, 0).unwrap();
                    }
                }
                for start in 0..=PAGES {
                    for end in start..=PAGES {
                        let mut bulk = base.clone();
                        let mut looped = base.clone();
                        let staled = bulk.invalidate_span(start..end).unwrap();
                        let mut expected = 0;
                        for page in start..end {
                            if looped.state(page).unwrap() == PageState::Valid {
                                let change = looped.invalidate(E, 0, page).unwrap();
                                expected += change.newly_stale as u32;
                            }
                        }
                        assert_eq!(staled, expected);
                        assert_eq!(bulk.states(), looped.states());
                        assert_eq!(bulk.valid_count(), looped.valid_count());
                        assert_eq!(bulk.invalid_count(), looped.invalid_count());
                    }
                }
            }
        }
    }

    #[test]
    fn invalidate_span_rejects_a_span_past_the_block() {
        let mut b = Block::new(4);
        b.program_run(E, 0, 4).unwrap();
        #[allow(clippy::reversed_empty_ranges)]
        for span in [0..5, 4..9, 3..2] {
            assert!(matches!(
                b.invalidate_span(span),
                Err(FlashError::OutOfRange { what: "page", .. })
            ));
            assert_eq!(b.valid_count(), 4, "a rejected span stales nothing");
        }
        assert_eq!(b.invalidate_span(4..4).unwrap(), 0);
    }
}
