//! SSD error type.

use std::fmt;

use ossd_block::DeviceError;
use ossd_ftl::FtlError;

/// Errors the SSD device model can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SsdError {
    /// The device configuration is inconsistent.
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// The FTL reported an error.
    Ftl(FtlError),
    /// A request failed validation at the block interface.
    Device(DeviceError),
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::InvalidConfig { reason } => write!(f, "invalid SSD configuration: {reason}"),
            SsdError::Ftl(e) => write!(f, "FTL error: {e}"),
            SsdError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for SsdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SsdError::Ftl(e) => Some(e),
            SsdError::Device(e) => Some(e),
            SsdError::InvalidConfig { .. } => None,
        }
    }
}

impl From<FtlError> for SsdError {
    fn from(e: FtlError) -> Self {
        SsdError::Ftl(e)
    }
}

impl From<DeviceError> for SsdError {
    fn from(e: DeviceError) -> Self {
        SsdError::Device(e)
    }
}

/// Converts an SSD error into a block-interface error for `BlockDevice`
/// callers.
impl From<SsdError> for DeviceError {
    fn from(e: SsdError) -> Self {
        match e {
            SsdError::Device(d) => d,
            other => DeviceError::Internal(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let ftl_err: SsdError = FtlError::NoFreeBlocks { element: 3 }.into();
        assert!(ftl_err.to_string().contains("FTL error"));
        let dev_err: SsdError = DeviceError::EmptyRequest.into();
        assert!(dev_err.to_string().contains("device error"));
        let cfg = SsdError::InvalidConfig {
            reason: "nope".into(),
        };
        assert!(cfg.to_string().contains("nope"));
        // SsdError -> DeviceError keeps device errors intact and wraps others.
        let back: DeviceError = dev_err.into();
        assert_eq!(back, DeviceError::EmptyRequest);
        let wrapped: DeviceError = cfg.into();
        assert!(matches!(wrapped, DeviceError::Internal(_)));
        assert!(std::error::Error::source(&ftl_err).is_some());
    }
}
