//! Object-based storage on top of the SSD simulator.
//!
//! §3.7 of the paper argues that the file system should "operate on objects
//! and let the device handle the logical to physical mapping,
//! sequential-random accesses to (parts of) objects, and stripe-aligned
//! accesses", that the device should "manage the space for objects
//! (including the allocation and release of pages to objects) in order to
//! implement informed cleaning", and that object attributes should convey
//! priorities and read-only (cold) data.  [`OsdDevice`] implements exactly
//! that contract over [`ossd_ssd::Ssd`]:
//!
//! * the device owns allocation: object bytes are mapped to device byte
//!   ranges by an internal extent allocator;
//! * deleting or truncating an object immediately issues free notifications
//!   to the FTL, so cleaning never migrates dead object data;
//! * the `priority` attribute of an object is attached to every I/O the
//!   object generates, feeding priority-aware cleaning;
//! * the `temperature`/`read_only` attributes travel to the device as
//!   stream-temperature write hints on every object write.
//!
//! Objects are managed only through [`OsdDevice`]'s typed API; the block
//! protocol ([`ossd_block::host`]) knows nothing of them.  Their data path
//! does cross it: every read, write, free and flush an object operation
//! needs is a block command sent through a [`HostQueue`] and served by the
//! SSD's [`HostInterface::serve`], the transport the raw block experiments
//! use — there is no private side door into the SSD, so block-vs-object
//! comparisons measure the interface, not the plumbing.

use std::collections::BTreeMap;

use crate::workload::fslite::{FsError, FsLite};
use ossd_block::{
    Completion, HostCommand, HostInterface, HostQueue, Priority, StreamTemperature, WriteHint,
};
use ossd_ftl::FtlConfig;
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdConfig, SsdError, SsdStats};

/// Host-visible attributes of an object (§3.7: attributes convey
/// priorities and read-only/cold data).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectAttrs {
    /// Priority attached to every I/O the object generates.
    pub priority: Priority,
    /// Expected update frequency.
    pub temperature: StreamTemperature,
    /// Whether the object is read-only (its pages are candidates for cold
    /// placement during wear-leveling).
    pub read_only: bool,
}

impl ObjectAttrs {
    /// Attributes of a latency-sensitive (foreground) object.
    pub fn high_priority() -> Self {
        ObjectAttrs {
            priority: Priority::High,
            ..ObjectAttrs::default()
        }
    }

    /// Attributes of cold, read-only data.
    pub fn cold_read_only() -> Self {
        ObjectAttrs {
            temperature: StreamTemperature::Cold,
            read_only: true,
            ..ObjectAttrs::default()
        }
    }
}

/// Identifier of an object stored on an [`OsdDevice`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

/// Errors the object store can report.
#[derive(Clone, Debug, PartialEq)]
pub enum OsdError {
    /// The object does not exist.
    NoSuchObject {
        /// The missing object.
        object: ObjectId,
    },
    /// A read or write addressed bytes beyond the end of the object.
    OutOfRange {
        /// The object.
        object: ObjectId,
        /// Requested end offset.
        requested_end: u64,
        /// Current object size.
        size: u64,
    },
    /// A write targeted a read-only object.
    ReadOnly {
        /// The object.
        object: ObjectId,
    },
    /// The device has no space left for the requested allocation.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
    },
    /// The underlying SSD reported an error.
    Ssd(SsdError),
}

impl std::fmt::Display for OsdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OsdError::NoSuchObject { object } => write!(f, "no such object: {}", object.0),
            OsdError::OutOfRange {
                object,
                requested_end,
                size,
            } => write!(
                f,
                "object {} access to byte {requested_end} beyond size {size}",
                object.0
            ),
            OsdError::ReadOnly { object } => write!(f, "object {} is read-only", object.0),
            OsdError::OutOfSpace { requested } => {
                write!(f, "device out of space for {requested} bytes")
            }
            OsdError::Ssd(e) => write!(f, "ssd error: {e}"),
        }
    }
}

impl std::error::Error for OsdError {}

impl From<SsdError> for OsdError {
    fn from(e: SsdError) -> Self {
        OsdError::Ssd(e)
    }
}

#[derive(Clone, Debug)]
struct ObjectState {
    /// File id inside the internal allocator.
    file: crate::workload::fslite::FileId,
    size: u64,
    attrs: ObjectAttrs,
}

/// An object-based storage device backed by a simulated SSD.
pub struct OsdDevice {
    ssd: Ssd,
    allocator: FsLite,
    objects: BTreeMap<ObjectId, ObjectState>,
    next_object: u64,
    next_request: u64,
    clock: SimTime,
}

impl OsdDevice {
    /// Builds an object store over an SSD with the given configuration.
    ///
    /// The FTL is switched to *informed* mode (free notifications honoured)
    /// because delegating allocation to the device is precisely what makes
    /// that information available (§3.5, §3.7).
    pub fn new(config: SsdConfig) -> Result<Self, OsdError> {
        let config = SsdConfig {
            ftl: FtlConfig {
                honor_free: true,
                ..config.ftl
            },
            ..config
        };
        let ssd = Ssd::new(config)?;
        let capacity = ossd_block::BlockDevice::capacity_bytes(&ssd);
        let block = ssd.config().geometry.page_bytes as u64;
        Ok(OsdDevice {
            ssd,
            allocator: FsLite::new(capacity, block),
            objects: BTreeMap::new(),
            next_object: 1,
            next_request: 0,
            clock: SimTime::ZERO,
        })
    }

    /// The current simulated time (completion of the last operation).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Device statistics (FTL, cleaning, wear).
    pub fn device_stats(&self) -> SsdStats {
        self.ssd.stats()
    }

    /// Total bytes the device can store for objects.
    pub fn capacity_bytes(&self) -> u64 {
        self.allocator.capacity_bytes()
    }

    /// Bytes currently allocated to objects.
    pub fn used_bytes(&self) -> u64 {
        self.allocator.used_bytes()
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Replaces the attributes of an object.
    pub fn set_attributes(&mut self, object: ObjectId, attrs: ObjectAttrs) -> Result<(), OsdError> {
        let state = self
            .objects
            .get_mut(&object)
            .ok_or(OsdError::NoSuchObject { object })?;
        state.attrs = attrs;
        Ok(())
    }

    fn state(&self, object: ObjectId) -> Result<&ObjectState, OsdError> {
        self.objects
            .get(&object)
            .ok_or(OsdError::NoSuchObject { object })
    }

    fn next_request_id(&mut self) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        id
    }

    /// Creates an empty object with the given attributes, letting the
    /// device assign the id.
    pub fn create_object(&mut self, attrs: ObjectAttrs) -> ObjectId {
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        // Zero-byte objects own no extents yet; the allocator file is
        // created lazily on first write.
        let file = self
            .allocator
            .create(0)
            .map(|(f, _)| f)
            .unwrap_or_else(|_| {
                // A zero-byte create can only fail on a zero-capacity device;
                // fall back to an empty placeholder id that the first write
                // will replace.
                crate::workload::fslite::FileId(u64::MAX)
            });
        self.objects.insert(
            id,
            ObjectState {
                file,
                size: 0,
                attrs,
            },
        );
        id
    }

    /// Maps `offset..offset+len` of an object onto device byte ranges.
    fn map_extents(
        &self,
        object: ObjectId,
        offset: u64,
        len: u64,
    ) -> Result<Vec<ossd_block::ByteRange>, OsdError> {
        let state = self.state(object)?;
        let extents = self
            .allocator
            .extents(state.file)
            .map_err(|_| OsdError::NoSuchObject { object })?;
        let mut out = Vec::new();
        let mut skip = offset;
        let mut remaining = len;
        for extent in extents {
            if remaining == 0 {
                break;
            }
            if skip >= extent.len {
                skip -= extent.len;
                continue;
            }
            let start = extent.offset + skip;
            let avail = extent.len - skip;
            let take = avail.min(remaining);
            out.push(ossd_block::ByteRange::new(start, take));
            remaining -= take;
            skip = 0;
        }
        Ok(out)
    }

    /// Sends one block command to the SSD through its queue pair and polls
    /// the completion back: the object store's entire data path crosses the
    /// same transport as raw block traffic.
    fn transport(
        &mut self,
        command: HostCommand,
        priority: Priority,
        at: SimTime,
    ) -> Result<Completion, OsdError> {
        let arrival = at.max(self.clock);
        let id = self.next_request_id();
        let mut queue = HostQueue::new();
        queue.submit_with_priority(id, command, arrival, priority);
        self.ssd
            .serve(std::slice::from_mut(&mut queue))
            .map_err(|e| OsdError::Ssd(SsdError::Device(e)))?;
        let completion = queue.poll().expect("one command, one completion");
        self.clock = self.clock.max(completion.finish);
        Ok(completion)
    }

    fn submit_ranges(
        &mut self,
        ranges: &[ossd_block::ByteRange],
        write: Option<WriteHint>,
        priority: Priority,
        at: SimTime,
    ) -> Result<Vec<Completion>, OsdError> {
        let mut completions = Vec::new();
        let mut arrival = at.max(self.clock);
        for range in ranges {
            let command = match write {
                Some(hint) => HostCommand::Write {
                    range: *range,
                    hint,
                },
                None => HostCommand::Read { range: *range },
            };
            let completion = self.transport(command, priority, arrival)?;
            arrival = completion.finish;
            completions.push(completion);
        }
        Ok(completions)
    }

    /// Collapses a multi-range operation into one host-visible completion:
    /// the timing of the last device request, carrying the *worst* status
    /// of the batch — a media error on any range must not be masked by a
    /// later range completing cleanly.
    fn collapse(completions: &[Completion]) -> Completion {
        let mut out = *completions.last().expect("at least one range");
        if let Some(failed) = completions.iter().find(|c| !c.is_ok()) {
            out.status = failed.status;
        }
        out
    }

    /// Writes `len` bytes at `offset` within the object, extending it (and
    /// allocating device space) as needed.  Returns the completion of the
    /// last device request the write generated.
    pub fn write(
        &mut self,
        object: ObjectId,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<Completion, OsdError> {
        let (size, attrs, file) = {
            let s = self.state(object)?;
            (s.size, s.attrs, s.file)
        };
        if attrs.read_only {
            return Err(OsdError::ReadOnly { object });
        }
        if len == 0 {
            return Ok(Completion::ok(self.next_request_id(), at, at, at));
        }
        let end = offset + len;
        if end > size {
            // Grow the object: allocate the missing bytes.
            let grow = end - size;
            self.allocator.append(file, grow).map_err(|e| match e {
                FsError::OutOfSpace { requested, .. } => OsdError::OutOfSpace { requested },
                FsError::NoSuchFile { .. } => OsdError::NoSuchObject { object },
            })?;
            self.objects
                .get_mut(&object)
                .expect("state() checked existence")
                .size = end;
        }
        let ranges = self.map_extents(object, offset, len)?;
        // The object's temperature attribute rides along as a write hint:
        // exactly the placement information §3.7 says the device should get.
        let hint = WriteHint::with_temperature(attrs.temperature);
        let completions = self.submit_ranges(&ranges, Some(hint), attrs.priority, at)?;
        Ok(Self::collapse(&completions))
    }

    /// Reads `len` bytes at `offset` within the object.
    pub fn read(
        &mut self,
        object: ObjectId,
        offset: u64,
        len: u64,
        at: SimTime,
    ) -> Result<Completion, OsdError> {
        let (size, attrs) = {
            let s = self.state(object)?;
            (s.size, s.attrs)
        };
        let end = offset + len;
        if end > size {
            return Err(OsdError::OutOfRange {
                object,
                requested_end: end,
                size,
            });
        }
        if len == 0 {
            return Ok(Completion::ok(self.next_request_id(), at, at, at));
        }
        let ranges = self.map_extents(object, offset, len)?;
        let completions = self.submit_ranges(&ranges, None, attrs.priority, at)?;
        Ok(Self::collapse(&completions))
    }

    /// Deletes an object.  Every byte range it occupied is reported to the
    /// device as one batch of `Free` commands over the queue pair — the
    /// informed-cleaning path the paper advocates.
    pub fn delete_object(&mut self, object: ObjectId, at: SimTime) -> Result<(), OsdError> {
        let state = self
            .objects
            .remove(&object)
            .ok_or(OsdError::NoSuchObject { object })?;
        let freed = self
            .allocator
            .delete(state.file)
            .map_err(|_| OsdError::NoSuchObject { object })?;
        let arrival = at.max(self.clock);
        let mut queue = HostQueue::new();
        for range in freed {
            if range.is_empty() {
                continue;
            }
            let id = self.next_request_id();
            queue.submit(id, HostCommand::Free { range }, arrival);
        }
        if queue.pending_submissions() == 0 {
            return Ok(());
        }
        self.ssd
            .serve(std::slice::from_mut(&mut queue))
            .map_err(|e| OsdError::Ssd(SsdError::Device(e)))?;
        for completion in queue.drain_completions() {
            self.clock = self.clock.max(completion.finish);
        }
        Ok(())
    }

    /// Flushes device-side buffers (open stripes) to flash, as a `Flush`
    /// command over the queue pair.
    pub fn flush(&mut self) -> Result<(), OsdError> {
        self.transport(HostCommand::Flush, Priority::Normal, self.clock)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osd() -> OsdDevice {
        OsdDevice::new(SsdConfig::tiny_page_mapped()).unwrap()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::default());
        assert_eq!(dev.state(obj).unwrap().size, 0);
        let w = dev.write(obj, 0, 16 * 1024, SimTime::ZERO).unwrap();
        assert!(w.finish > SimTime::ZERO);
        assert_eq!(dev.state(obj).unwrap().size, 16 * 1024);
        let r = dev.read(obj, 4096, 8192, dev.now()).unwrap();
        assert!(r.finish >= w.finish);
        assert_eq!(dev.object_count(), 1);
        assert!(dev.used_bytes() >= 16 * 1024);
    }

    #[test]
    fn reads_beyond_object_size_are_rejected() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::default());
        dev.write(obj, 0, 4096, SimTime::ZERO).unwrap();
        assert!(matches!(
            dev.read(obj, 0, 8192, SimTime::ZERO),
            Err(OsdError::OutOfRange { .. })
        ));
        let missing = ObjectId(999);
        assert!(matches!(
            dev.read(missing, 0, 1, SimTime::ZERO),
            Err(OsdError::NoSuchObject { .. })
        ));
    }

    #[test]
    fn read_only_objects_reject_writes() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::default());
        dev.write(obj, 0, 4096, SimTime::ZERO).unwrap();
        dev.set_attributes(obj, ObjectAttrs::cold_read_only())
            .unwrap();
        assert!(matches!(
            dev.write(obj, 0, 4096, dev.now()),
            Err(OsdError::ReadOnly { .. })
        ));
        // Reads still work.
        dev.read(obj, 0, 4096, dev.now()).unwrap();
        assert_eq!(
            dev.state(obj).unwrap().attrs.temperature,
            StreamTemperature::Cold
        );
    }

    #[test]
    fn delete_releases_space_and_informs_the_ftl() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::default());
        dev.write(obj, 0, 32 * 1024, SimTime::ZERO).unwrap();
        let used_before = dev.used_bytes();
        assert!(used_before >= 32 * 1024);
        dev.delete_object(obj, dev.now()).unwrap();
        assert_eq!(dev.object_count(), 0);
        assert!(dev.used_bytes() < used_before);
        let stats = dev.device_stats();
        assert!(
            stats.ftl.frees_accepted > 0,
            "object deletion must reach the FTL as free notifications"
        );
        assert!(matches!(
            dev.delete_object(obj, dev.now()),
            Err(OsdError::NoSuchObject { .. })
        ));
    }

    #[test]
    fn high_priority_objects_issue_high_priority_requests() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::high_priority());
        assert_eq!(dev.state(obj).unwrap().attrs.priority, Priority::High);
        dev.write(obj, 0, 4096, SimTime::ZERO).unwrap();
        // The write succeeded; priority is carried per-request (observable
        // through priority-aware cleaning in the experiments).
        assert_eq!(dev.device_stats().host_writes, 1);
    }

    #[test]
    fn growing_writes_extend_objects_incrementally() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::default());
        for i in 0..8u64 {
            dev.write(obj, i * 4096, 4096, dev.now()).unwrap();
        }
        assert_eq!(dev.state(obj).unwrap().size, 8 * 4096);
        // Overwrites inside the existing size do not grow the object.
        dev.write(obj, 0, 4096, dev.now()).unwrap();
        assert_eq!(dev.state(obj).unwrap().size, 8 * 4096);
    }

    #[test]
    fn many_objects_until_out_of_space() {
        let mut dev = osd();
        let capacity = dev.capacity_bytes();
        let mut created = Vec::new();
        let mut wrote = 0u64;
        loop {
            let obj = dev.create_object(ObjectAttrs::default());
            match dev.write(obj, 0, 16 * 4096, dev.now()) {
                Ok(_) => {
                    created.push(obj);
                    wrote += 16 * 4096;
                }
                Err(OsdError::OutOfSpace { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            assert!(wrote <= capacity, "wrote more than capacity");
        }
        assert!(!created.is_empty());
        // Deleting everything returns the space.
        for obj in created {
            dev.delete_object(obj, dev.now()).unwrap();
        }
        assert_eq!(dev.used_bytes(), 0);
    }

    #[test]
    fn attribute_presets() {
        assert_eq!(ObjectAttrs::high_priority().priority, Priority::High);
        let cold = ObjectAttrs::cold_read_only();
        assert!(cold.read_only);
        assert_eq!(cold.temperature, StreamTemperature::Cold);
    }

    #[test]
    fn object_temperature_reaches_the_device_as_write_hints() {
        let mut dev = osd();
        let hot = dev.create_object(ObjectAttrs {
            temperature: StreamTemperature::Hot,
            ..ObjectAttrs::default()
        });
        dev.write(hot, 0, 8 * 4096, SimTime::ZERO).unwrap();
        let warm = dev.create_object(ObjectAttrs::default());
        dev.write(warm, 0, 4096, dev.now()).unwrap();
        let stats = dev.device_stats();
        assert!(
            stats.hinted_hot_writes > 0,
            "hot object writes must carry the hot stream hint"
        );
        // Warm (default) objects are unhinted.
        assert_eq!(stats.hinted_cold_writes, 0);
    }

    #[test]
    fn zero_length_operations_are_noops() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttrs::default());
        let w = dev.write(obj, 0, 0, SimTime::from_micros(5)).unwrap();
        assert_eq!(w.arrival, SimTime::from_micros(5));
        let r = dev.read(obj, 0, 0, SimTime::from_micros(6)).unwrap();
        assert_eq!(r.finish, SimTime::from_micros(6));
        assert_eq!(dev.state(obj).unwrap().size, 0);
    }
}
