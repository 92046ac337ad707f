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
//! Since the queue-pair redesign, [`OsdDevice`] is a thin *command
//! translator* over the [`ossd_block::host`] protocol: its object API (and
//! the object-management commands it accepts through
//! [`OsdDevice::submit_command`]) are translated into block commands and
//! served over the identical [`HostInterface`] transport the raw block
//! experiments use — there is no private side door into the SSD, so
//! block-vs-object comparisons measure the interface, not the plumbing.

use std::collections::BTreeMap;

use ossd_block::{Completion, HostCommand, HostInterface, HostQueue, Priority, WriteHint};
use ossd_ftl::FtlConfig;
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdConfig, SsdError, SsdStats};
use ossd_workload::fslite::{FsError, FsLite};

pub use ossd_block::{ObjectAttrs as ObjectAttributes, StreamTemperature as Temperature};

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
    /// An [`HostCommand::ObjectCreate`] named an id that is already live.
    ObjectExists {
        /// The conflicting object.
        object: ObjectId,
    },
    /// A command kind the object store does not accept (device-addressed
    /// block commands: the host of an OSD addresses objects, not LBNs).
    UnsupportedCommand {
        /// Description of the rejected command.
        what: &'static str,
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
            OsdError::ObjectExists { object } => {
                write!(f, "object {} already exists", object.0)
            }
            OsdError::UnsupportedCommand { what } => {
                write!(f, "unsupported command: {what}")
            }
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
    file: ossd_workload::fslite::FileId,
    size: u64,
    attrs: ObjectAttributes,
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

    /// Current size of an object in bytes.
    pub fn object_size(&self, object: ObjectId) -> Result<u64, OsdError> {
        Ok(self.state(object)?.size)
    }

    /// The attributes of an object.
    pub fn get_attributes(&self, object: ObjectId) -> Result<ObjectAttributes, OsdError> {
        Ok(self.state(object)?.attrs)
    }

    /// Replaces the attributes of an object.
    pub fn set_attributes(
        &mut self,
        object: ObjectId,
        attrs: ObjectAttributes,
    ) -> Result<(), OsdError> {
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
    pub fn create_object(&mut self, attrs: ObjectAttributes) -> ObjectId {
        let id = ObjectId(self.next_object);
        self.insert_object(id, attrs);
        id
    }

    /// Creates an empty object under a host-chosen id (the
    /// [`HostCommand::ObjectCreate`] path).
    pub fn create_object_with_id(
        &mut self,
        object: ObjectId,
        attrs: ObjectAttributes,
    ) -> Result<(), OsdError> {
        if self.objects.contains_key(&object) {
            return Err(OsdError::ObjectExists { object });
        }
        self.insert_object(object, attrs);
        Ok(())
    }

    fn insert_object(&mut self, id: ObjectId, attrs: ObjectAttributes) {
        self.next_object = self.next_object.max(id.0 + 1);
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
                ossd_workload::fslite::FileId(u64::MAX)
            });
        self.objects.insert(
            id,
            ObjectState {
                file,
                size: 0,
                attrs,
            },
        );
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

    /// Accepts one protocol command addressed to the object store and
    /// translates it: object-management commands mutate the object table
    /// (deletes free device space through the block transport), fences
    /// order trivially between calls, and device-addressed block commands
    /// are rejected — the host of an object store addresses objects, not
    /// LBNs (§3.7).
    pub fn submit_command(
        &mut self,
        command: HostCommand,
        at: SimTime,
    ) -> Result<Completion, OsdError> {
        let arrival = at.max(self.clock);
        let metadata_completion = |dev: &mut Self| {
            let id = dev.next_request_id();
            dev.clock = dev.clock.max(arrival);
            Completion::ok(id, arrival, arrival, arrival)
        };
        match command {
            HostCommand::ObjectCreate { object, attrs } => {
                self.create_object_with_id(ObjectId(object), attrs)?;
                Ok(metadata_completion(self))
            }
            HostCommand::ObjectSetAttr { object, attrs } => {
                self.set_attributes(ObjectId(object), attrs)?;
                Ok(metadata_completion(self))
            }
            HostCommand::ObjectDelete { object } => {
                self.delete_object(ObjectId(object), arrival)?;
                let id = self.next_request_id();
                Ok(Completion::ok(
                    id,
                    arrival,
                    arrival,
                    self.clock.max(arrival),
                ))
            }
            HostCommand::Flush => self.transport(HostCommand::Flush, Priority::Normal, arrival),
            HostCommand::Barrier => {
                // The store serves commands to completion between calls, so
                // a barrier is already drained when it arrives.
                Ok(metadata_completion(self))
            }
            HostCommand::Read { .. } | HostCommand::Write { .. } | HostCommand::Free { .. } => {
                Err(OsdError::UnsupportedCommand {
                    what: "device-addressed block commands on an object store",
                })
            }
        }
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
        let obj = dev.create_object(ObjectAttributes::default());
        assert_eq!(dev.object_size(obj).unwrap(), 0);
        let w = dev.write(obj, 0, 16 * 1024, SimTime::ZERO).unwrap();
        assert!(w.finish > SimTime::ZERO);
        assert_eq!(dev.object_size(obj).unwrap(), 16 * 1024);
        let r = dev.read(obj, 4096, 8192, dev.now()).unwrap();
        assert!(r.finish >= w.finish);
        assert_eq!(dev.object_count(), 1);
        assert!(dev.used_bytes() >= 16 * 1024);
    }

    #[test]
    fn reads_beyond_object_size_are_rejected() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttributes::default());
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
        let obj = dev.create_object(ObjectAttributes::default());
        dev.write(obj, 0, 4096, SimTime::ZERO).unwrap();
        dev.set_attributes(obj, ObjectAttributes::cold_read_only())
            .unwrap();
        assert!(matches!(
            dev.write(obj, 0, 4096, dev.now()),
            Err(OsdError::ReadOnly { .. })
        ));
        // Reads still work.
        dev.read(obj, 0, 4096, dev.now()).unwrap();
        assert_eq!(
            dev.get_attributes(obj).unwrap().temperature,
            Temperature::Cold
        );
    }

    #[test]
    fn delete_releases_space_and_informs_the_ftl() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttributes::default());
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
        let obj = dev.create_object(ObjectAttributes::high_priority());
        assert_eq!(dev.get_attributes(obj).unwrap().priority, Priority::High);
        dev.write(obj, 0, 4096, SimTime::ZERO).unwrap();
        // The write succeeded; priority is carried per-request (observable
        // through priority-aware cleaning in the experiments).
        assert_eq!(dev.device_stats().host_writes, 1);
    }

    #[test]
    fn growing_writes_extend_objects_incrementally() {
        let mut dev = osd();
        let obj = dev.create_object(ObjectAttributes::default());
        for i in 0..8u64 {
            dev.write(obj, i * 4096, 4096, dev.now()).unwrap();
        }
        assert_eq!(dev.object_size(obj).unwrap(), 8 * 4096);
        // Overwrites inside the existing size do not grow the object.
        dev.write(obj, 0, 4096, dev.now()).unwrap();
        assert_eq!(dev.object_size(obj).unwrap(), 8 * 4096);
    }

    #[test]
    fn many_objects_until_out_of_space() {
        let mut dev = osd();
        let capacity = dev.capacity_bytes();
        let mut created = Vec::new();
        let mut wrote = 0u64;
        loop {
            let obj = dev.create_object(ObjectAttributes::default());
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
    fn object_commands_translate_through_the_protocol() {
        let mut dev = osd();
        // Create under a host-chosen id, write, set attributes, delete —
        // all as protocol commands.
        dev.submit_command(
            HostCommand::ObjectCreate {
                object: 42,
                attrs: ObjectAttributes::default(),
            },
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(dev.object_count(), 1);
        dev.write(ObjectId(42), 0, 16 * 1024, dev.now()).unwrap();
        dev.submit_command(
            HostCommand::ObjectSetAttr {
                object: 42,
                attrs: ObjectAttributes::high_priority(),
            },
            dev.now(),
        )
        .unwrap();
        assert_eq!(
            dev.get_attributes(ObjectId(42)).unwrap().priority,
            Priority::High
        );
        // Creating the same id again fails loudly.
        assert!(matches!(
            dev.submit_command(
                HostCommand::ObjectCreate {
                    object: 42,
                    attrs: ObjectAttributes::default(),
                },
                dev.now(),
            ),
            Err(OsdError::ObjectExists { .. })
        ));
        // Auto-assigned ids skip past host-chosen ones.
        let auto = dev.create_object(ObjectAttributes::default());
        assert!(auto.0 > 42);
        let delete = dev
            .submit_command(HostCommand::ObjectDelete { object: 42 }, dev.now())
            .unwrap();
        assert!(delete.finish >= delete.arrival);
        assert_eq!(dev.object_count(), 1);
        assert!(dev.device_stats().ftl.frees_accepted > 0);
        // Device-addressed block commands cannot cross the object boundary.
        assert!(matches!(
            dev.submit_command(
                HostCommand::Read {
                    range: ossd_block::ByteRange::new(0, 4096)
                },
                dev.now(),
            ),
            Err(OsdError::UnsupportedCommand { .. })
        ));
        // Fences are accepted and drain trivially between calls.
        let barrier = dev.submit_command(HostCommand::Barrier, dev.now()).unwrap();
        assert_eq!(barrier.start, barrier.finish);
    }

    #[test]
    fn object_temperature_reaches_the_device_as_write_hints() {
        let mut dev = osd();
        let hot = dev.create_object(ObjectAttributes {
            temperature: Temperature::Hot,
            ..ObjectAttributes::default()
        });
        dev.write(hot, 0, 8 * 4096, SimTime::ZERO).unwrap();
        let warm = dev.create_object(ObjectAttributes::default());
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
        let obj = dev.create_object(ObjectAttributes::default());
        let w = dev.write(obj, 0, 0, SimTime::from_micros(5)).unwrap();
        assert_eq!(w.arrival, SimTime::from_micros(5));
        let r = dev.read(obj, 0, 0, SimTime::from_micros(6)).unwrap();
        assert_eq!(r.finish, SimTime::from_micros(6));
        assert_eq!(dev.object_size(obj).unwrap(), 0);
    }
}
