//! Byte ranges.

/// A half-open byte range `[offset, offset + len)` on a device's logical
/// address space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl ByteRange {
    /// Creates a range.
    pub fn new(offset: u64, len: u64) -> Self {
        ByteRange { offset, len }
    }

    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let r = ByteRange::new(4096, 8192);
        assert_eq!(r.end(), 12288);
        assert!(!r.is_empty());
        assert!(ByteRange::new(0, 0).is_empty());
    }
}
