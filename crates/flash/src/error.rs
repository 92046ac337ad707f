//! Error type for flash state-machine violations.
//!
//! These errors indicate bugs in a flash translation layer (programming a
//! full block, reading an unwritten page, addressing outside the geometry)
//! rather than recoverable runtime conditions, but they are surfaced as
//! `Result`s so that simulator users get a diagnosable error instead of a
//! panic.

use std::fmt;

use crate::geometry::PhysPageAddr;

/// Errors returned by the flash state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlashError {
    /// An address referenced an element, block, or page outside the
    /// configured geometry.
    OutOfRange {
        /// Human-readable description of which coordinate was out of range.
        what: &'static str,
        /// The offending index.
        index: u64,
        /// The exclusive bound that was violated.
        bound: u64,
    },
    /// A program was issued to a block with no free pages left.
    BlockFull {
        /// Element index of the full block.
        element: u32,
        /// Block index within the element.
        block: u32,
    },
    /// A read targeted a page that has never been programmed since the last
    /// erase, which would return undefined data on real hardware.
    ReadFreePage {
        /// The unprogrammed page.
        addr: PhysPageAddr,
    },
    /// An invalidate targeted a page that is free.
    InvalidateFreePage {
        /// The free page.
        addr: PhysPageAddr,
    },
    /// An erase targeted a block that still contains valid pages; the
    /// caller (FTL) must migrate or invalidate them first.
    EraseWithValidPages {
        /// Element index of the block.
        element: u32,
        /// Block index within the element.
        block: u32,
        /// Number of valid pages remaining.
        valid: u32,
    },
    /// The fault model failed a page program.  The target page is consumed
    /// (burned) and the FTL must re-program the data elsewhere and mark the
    /// block for retirement.
    ProgramFailed {
        /// The page that failed to program.
        addr: PhysPageAddr,
    },
    /// The fault model failed a block erase; the block is now retired (a
    /// grown bad block) and must never be allocated again.
    EraseFailed {
        /// Element index of the failed block.
        element: u32,
        /// Block index within the element.
        block: u32,
    },
    /// The operation addressed a retired (bad) block.
    BadBlock {
        /// Element index of the bad block.
        element: u32,
        /// Block index within the element.
        block: u32,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::OutOfRange { what, index, bound } => {
                write!(f, "{what} index {index} out of range (bound {bound})")
            }
            FlashError::BlockFull { element, block } => {
                write!(f, "program to full block {block} on element {element}")
            }
            FlashError::ReadFreePage { addr } => {
                write!(f, "read of unprogrammed page {addr:?}")
            }
            FlashError::InvalidateFreePage { addr } => {
                write!(f, "invalidate of free page {addr:?}")
            }
            FlashError::EraseWithValidPages {
                element,
                block,
                valid,
            } => write!(
                f,
                "erase of block {block} on element {element} with {valid} valid pages"
            ),
            FlashError::ProgramFailed { addr } => {
                write!(f, "program of page {addr:?} failed (page burned)")
            }
            FlashError::EraseFailed { element, block } => write!(
                f,
                "erase of block {block} on element {element} failed; block retired"
            ),
            FlashError::BadBlock { element, block } => {
                write!(f, "operation on retired block {block} of element {element}")
            }
        }
    }
}

impl std::error::Error for FlashError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{ElementId, PhysPageAddr};

    #[test]
    fn display_messages_are_informative() {
        let addr = PhysPageAddr {
            element: ElementId(1),
            block: 2,
            page: 3,
        };
        let cases: Vec<(FlashError, &str)> = vec![
            (
                FlashError::OutOfRange {
                    what: "block",
                    index: 9,
                    bound: 8,
                },
                "out of range",
            ),
            (
                FlashError::BlockFull {
                    element: 0,
                    block: 1,
                },
                "full block",
            ),
            (FlashError::ReadFreePage { addr }, "unprogrammed"),
            (FlashError::InvalidateFreePage { addr }, "invalidate"),
            (
                FlashError::EraseWithValidPages {
                    element: 0,
                    block: 1,
                    valid: 5,
                },
                "valid pages",
            ),
            (FlashError::ProgramFailed { addr }, "burned"),
            (
                FlashError::EraseFailed {
                    element: 0,
                    block: 1,
                },
                "retired",
            ),
            (
                FlashError::BadBlock {
                    element: 0,
                    block: 1,
                },
                "retired block",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<FlashError>();
    }
}
