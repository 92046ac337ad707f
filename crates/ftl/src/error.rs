//! FTL error type.

use std::fmt;

use ossd_flash::FlashError;

use crate::types::Lpn;

/// Errors an FTL can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page number is beyond the exported capacity.
    LpnOutOfRange {
        /// The offending LPN.
        lpn: Lpn,
        /// Number of exported logical pages.
        logical_pages: u64,
    },
    /// The device ran out of free blocks even after cleaning; this happens
    /// when over-provisioning is zero or the configuration reserves no room
    /// for garbage collection.
    NoFreeBlocks {
        /// The element that could not allocate.
        element: u32,
    },
    /// The configuration is inconsistent (e.g. watermarks out of order).
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// An underlying flash state-machine error (a simulator bug if it ever
    /// surfaces).
    Flash(FlashError),
}

impl fmt::Display for FtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn, logical_pages } => write!(
                f,
                "logical page {} out of range (device exports {} pages)",
                lpn.0, logical_pages
            ),
            FtlError::NoFreeBlocks { element } => {
                write!(f, "element {element} has no free blocks left")
            }
            FtlError::InvalidConfig { reason } => write!(f, "invalid FTL configuration: {reason}"),
            FtlError::Flash(e) => write!(f, "flash error: {e}"),
        }
    }
}

impl std::error::Error for FtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FtlError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for FtlError {
    fn from(e: FlashError) -> Self {
        FtlError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossd_flash::{ElementId, PhysPageAddr};

    #[test]
    fn display_messages() {
        let e = FtlError::LpnOutOfRange {
            lpn: Lpn(10),
            logical_pages: 5,
        };
        assert!(e.to_string().contains("out of range"));
        assert!(FtlError::NoFreeBlocks { element: 2 }
            .to_string()
            .contains("free blocks"));
        assert!(FtlError::InvalidConfig {
            reason: "bad".into()
        }
        .to_string()
        .contains("bad"));
    }

    #[test]
    fn flash_error_conversion_preserves_source() {
        let flash = FlashError::ReadFreePage {
            addr: PhysPageAddr {
                element: ElementId(0),
                block: 1,
                page: 2,
            },
        };
        let ftl: FtlError = flash.clone().into();
        assert_eq!(ftl, FtlError::Flash(flash));
        assert!(std::error::Error::source(&ftl).is_some());
    }
}
