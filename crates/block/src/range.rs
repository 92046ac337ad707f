//! Byte ranges with the alignment arithmetic the device-side write-merging
//! logic needs.

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

    /// Whether the two ranges overlap.
    pub fn overlaps(&self, other: &ByteRange) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }

    /// Whether this range fully contains `other`.
    pub fn contains(&self, other: &ByteRange) -> bool {
        self.offset <= other.offset && other.end() <= self.end()
    }

    /// Merges two ranges into their bounding range (callers should first
    /// check adjacency/overlap if a gap-free merge is required).
    pub fn union(&self, other: &ByteRange) -> ByteRange {
        let start = self.offset.min(other.offset);
        let end = self.end().max(other.end());
        ByteRange::new(start, end - start)
    }

    /// Index of the first `unit`-sized chunk touched by this range.
    pub fn first_chunk(&self, unit: u64) -> u64 {
        self.offset.checked_div(unit).unwrap_or(0)
    }

    /// Index of the last `unit`-sized chunk touched by this range (equal to
    /// `first_chunk` for ranges within one chunk); zero for empty ranges.
    pub fn last_chunk(&self, unit: u64) -> u64 {
        if unit == 0 || self.is_empty() {
            return self.first_chunk(unit);
        }
        (self.end() - 1) / unit
    }

    /// Splits the range at `unit`-byte boundaries, yielding sub-ranges that
    /// each lie within a single chunk.
    pub fn split_by_chunk(&self, unit: u64) -> Vec<ByteRange> {
        if self.is_empty() {
            return Vec::new();
        }
        if unit == 0 {
            return vec![*self];
        }
        let mut out = Vec::new();
        let mut cursor = self.offset;
        let end = self.end();
        while cursor < end {
            let chunk_end = ((cursor / unit) + 1) * unit;
            let piece_end = chunk_end.min(end);
            out.push(ByteRange::new(cursor, piece_end - cursor));
            cursor = piece_end;
        }
        out
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

    #[test]
    fn adjacency_and_overlap() {
        let a = ByteRange::new(0, 100);
        let b = ByteRange::new(100, 50);
        let c = ByteRange::new(120, 10);
        assert!(!a.overlaps(&b));
        assert!(b.overlaps(&c));
        assert!(b.contains(&c));
        assert!(!c.contains(&b));
    }

    #[test]
    fn union_is_bounding_range() {
        let a = ByteRange::new(10, 10);
        let b = ByteRange::new(30, 5);
        assert_eq!(a.union(&b), ByteRange::new(10, 25));
        assert_eq!(b.union(&a), ByteRange::new(10, 25));
    }

    #[test]
    fn chunk_accounting() {
        let unit = 1 << 20; // 1 MB stripe
        let r2 = ByteRange::new(unit - 512, 1024);
        assert_eq!(r2.first_chunk(unit), 0);
        assert_eq!(r2.last_chunk(unit), 1);
    }

    #[test]
    fn split_by_chunk_covers_range_exactly() {
        let unit = 4096;
        let r = ByteRange::new(1000, 10_000);
        let parts = r.split_by_chunk(unit);
        assert_eq!(parts.iter().map(|p| p.len).sum::<u64>(), r.len);
        assert_eq!(parts.first().unwrap().offset, 1000);
        assert_eq!(parts.last().unwrap().end(), r.end());
        for p in &parts {
            assert_eq!(p.first_chunk(unit), p.last_chunk(unit));
        }
        assert!(ByteRange::new(0, 0).split_by_chunk(unit).is_empty());
        assert_eq!(r.split_by_chunk(0), vec![r]);
    }
}
