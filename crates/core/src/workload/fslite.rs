//! A miniature extent-allocating file system model.
//!
//! The paper's informed-cleaning traces were collected beneath Linux Ext3
//! with a pseudo-device driver that used the file system's allocation
//! bitmaps to identify free sectors (§3.5).  `FsLite` plays that role for
//! the synthetic macro-benchmarks: it allocates extents for files, maps file
//! operations to block offsets, and — crucially — reports exactly which
//! byte ranges become free when a file is deleted or truncated, so the
//! generated requests contain the frees informed cleaning consumes.

use std::collections::BTreeMap;

use ossd_block::ByteRange;

/// Identifier of a file inside an [`FsLite`] instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct FileId(pub u64);

/// Errors the allocator can report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum FsError {
    /// Not enough contiguous-or-fragmented free space for an allocation.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently free.
        free: u64,
    },
    /// The file does not exist.
    NoSuchFile {
        /// The missing file.
        file: FileId,
    },
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::OutOfSpace { requested, free } => {
                write!(f, "out of space: requested {requested} bytes, {free} free")
            }
            FsError::NoSuchFile { file } => write!(f, "no such file: {}", file.0),
        }
    }
}

impl std::error::Error for FsError {}

/// A tiny extent allocator: block-granular, next-fit (a rotating allocation
/// cursor, as Ext-style allocators use, so freed space is not immediately
/// reused), with per-file extent lists.
#[derive(Clone, Debug)]
pub(crate) struct FsLite {
    block_bytes: u64,
    capacity_bytes: u64,
    /// Free extents keyed by start offset (coalesced on free).
    free: BTreeMap<u64, u64>,
    files: BTreeMap<FileId, Vec<ByteRange>>,
    next_file: u64,
    /// Next-fit allocation cursor.
    cursor: u64,
}

impl FsLite {
    /// Creates an empty file system over `capacity_bytes`, allocating in
    /// units of `block_bytes`.
    pub(crate) fn new(capacity_bytes: u64, block_bytes: u64) -> Self {
        let block = block_bytes.max(1);
        let usable = (capacity_bytes / block) * block;
        let mut free = BTreeMap::new();
        if usable > 0 {
            free.insert(0, usable);
        }
        FsLite {
            block_bytes: block,
            capacity_bytes: usable,
            free,
            files: BTreeMap::new(),
            next_file: 0,
            cursor: 0,
        }
    }

    /// Total capacity managed.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently free.
    pub(crate) fn free_bytes(&self) -> u64 {
        self.free.values().sum()
    }

    /// Bytes currently allocated to files.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.capacity_bytes - self.free_bytes()
    }

    /// The extents of a file, in allocation order.
    pub(crate) fn extents(&self, file: FileId) -> Result<&[ByteRange], FsError> {
        self.files
            .get(&file)
            .map(|v| v.as_slice())
            .ok_or(FsError::NoSuchFile { file })
    }

    /// All live file ids (ascending).
    pub(crate) fn file_ids(&self) -> Vec<FileId> {
        self.files.keys().copied().collect()
    }

    fn round_up(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.block_bytes) * self.block_bytes
    }

    /// Allocates `bytes` (rounded up to whole blocks), next-fit from the
    /// rotating cursor, possibly split across several extents when free
    /// space is fragmented.  Zero-byte allocations return no extents.
    fn allocate(&mut self, bytes: u64) -> Result<Vec<ByteRange>, FsError> {
        if bytes == 0 {
            return Ok(Vec::new());
        }
        let needed = self.round_up(bytes);
        if needed > self.free_bytes() {
            return Err(FsError::OutOfSpace {
                requested: needed,
                free: self.free_bytes(),
            });
        }
        let mut out = Vec::new();
        let mut remaining = needed;
        while remaining > 0 {
            // Next-fit: the first free extent at or after the cursor,
            // wrapping to the start of the volume when none remains.
            let picked = self
                .free
                .range(self.cursor..)
                .next()
                .or_else(|| self.free.iter().next())
                .map(|(&s, &l)| (s, l))
                .expect("free space accounted for above");
            let (start, len) = picked;
            let take = len.min(remaining);
            self.free.remove(&start);
            if take < len {
                self.free.insert(start + take, len - take);
            }
            out.push(ByteRange::new(start, take));
            remaining -= take;
            self.cursor = start + take;
        }
        Ok(out)
    }

    fn release(&mut self, extent: ByteRange) {
        // Insert and coalesce with neighbours.
        let mut start = extent.offset;
        let mut len = extent.len;
        if let Some((&prev_start, &prev_len)) = self.free.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.free.remove(&prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some((&next_start, &next_len)) = self.free.range(start + len..).next() {
            if start + len == next_start {
                self.free.remove(&next_start);
                len += next_len;
            }
        }
        self.free.insert(start, len);
    }

    /// Creates a file of `bytes` and returns its id together with the
    /// extents that must be written to materialise it on the device.
    pub(crate) fn create(&mut self, bytes: u64) -> Result<(FileId, Vec<ByteRange>), FsError> {
        let extents = self.allocate(bytes)?;
        let id = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(id, extents.clone());
        Ok((id, extents))
    }

    /// Appends `bytes` to a file, returning the newly allocated extents.
    pub(crate) fn append(&mut self, file: FileId, bytes: u64) -> Result<Vec<ByteRange>, FsError> {
        if !self.files.contains_key(&file) {
            return Err(FsError::NoSuchFile { file });
        }
        let extents = self.allocate(bytes)?;
        self.files
            .get_mut(&file)
            .expect("checked above")
            .extend(extents.iter().copied());
        Ok(extents)
    }

    /// Deletes a file, returning the extents that are now free (and should
    /// be reported to the device as `Free` notifications).
    pub(crate) fn delete(&mut self, file: FileId) -> Result<Vec<ByteRange>, FsError> {
        let extents = self
            .files
            .remove(&file)
            .ok_or(FsError::NoSuchFile { file })?;
        for e in &extents {
            self.release(*e);
        }
        Ok(extents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> FsLite {
        FsLite::new(1 << 20, 4096) // 1 MB, 4 KB blocks
    }

    #[test]
    fn create_allocates_rounded_extents() {
        let mut f = fs();
        let (id, extents) = f.create(10_000).unwrap();
        // Rounded up to 3 blocks.
        assert_eq!(
            f.extents(id).unwrap().iter().map(|e| e.len).sum::<u64>(),
            12_288
        );
        assert_eq!(extents.iter().map(|e| e.len).sum::<u64>(), 12_288);
        assert_eq!(f.used_bytes(), 12_288);
        assert_eq!(f.files.len(), 1);
    }

    #[test]
    fn delete_returns_extents_and_frees_space() {
        let mut f = fs();
        let (id, _) = f.create(8192).unwrap();
        let freed = f.delete(id).unwrap();
        assert_eq!(freed.iter().map(|e| e.len).sum::<u64>(), 8192);
        assert_eq!(f.used_bytes(), 0);
        assert_eq!(f.files.len(), 0);
        assert!(matches!(f.delete(id), Err(FsError::NoSuchFile { .. })));
    }

    #[test]
    fn append_extends_file() {
        let mut f = fs();
        let (id, _) = f.create(4096).unwrap();
        f.append(id, 4096).unwrap();
        assert_eq!(
            f.extents(id).unwrap().iter().map(|e| e.len).sum::<u64>(),
            8192
        );
        assert_eq!(f.extents(id).unwrap().len(), 2);
        assert!(matches!(
            f.append(FileId(999), 1),
            Err(FsError::NoSuchFile { .. })
        ));
    }

    #[test]
    fn out_of_space_is_reported() {
        let mut f = FsLite::new(16 * 4096, 4096);
        let (_, _) = f.create(15 * 4096).unwrap();
        assert!(matches!(
            f.create(2 * 4096),
            Err(FsError::OutOfSpace { .. })
        ));
        // A single remaining block can still be allocated.
        f.create(4096).unwrap();
        assert_eq!(f.free_bytes(), 0);
    }

    #[test]
    fn freed_space_is_reused_and_coalesced() {
        let mut f = fs();
        let (a, _) = f.create(4 * 4096).unwrap();
        let (b, _) = f.create(4 * 4096).unwrap();
        let (c, _) = f.create(4 * 4096).unwrap();
        f.delete(a).unwrap();
        f.delete(c).unwrap();
        // Delete the middle file too: free space must coalesce back into one
        // region (plus the tail), allowing a large allocation.
        f.delete(b).unwrap();
        let (_, extents) = f.create(12 * 4096).unwrap();
        assert_eq!(
            extents.len(),
            1,
            "coalesced free space should be contiguous"
        );
    }

    #[test]
    fn fragmentation_splits_allocations() {
        let mut f = FsLite::new(8 * 4096, 4096);
        let (a, _) = f.create(2 * 4096).unwrap();
        let (_b, _) = f.create(2 * 4096).unwrap();
        let (c, _) = f.create(2 * 4096).unwrap();
        f.delete(a).unwrap();
        f.delete(c).unwrap();
        // 6 blocks free but split into two 2-block holes plus the 2-block
        // tail; a 5-block file must span several extents.
        let (_, extents) = f.create(5 * 4096).unwrap();
        assert!(extents.len() >= 2);
        assert_eq!(extents.iter().map(|e| e.len).sum::<u64>(), 5 * 4096);
    }

    #[test]
    fn accounting_is_consistent() {
        let mut f = fs();
        let mut ids = Vec::new();
        for i in 1..20u64 {
            ids.push(f.create(i * 1000).unwrap().0);
        }
        for id in ids.iter().step_by(2) {
            f.delete(*id).unwrap();
        }
        assert_eq!(f.used_bytes() + f.free_bytes(), f.capacity_bytes());
        assert_eq!(f.file_ids().len(), 9);
    }
}
