//! An executable version of the paper's Table 1: the "unwritten contract".
//!
//! Each term of the contract is turned into a measurable probe that runs
//! against a simulated device.  The report states, per term, whether the
//! device satisfies it, together with the metric the verdict is based on —
//! the same T/F summary the paper's Table 1 gives for Disk vs. SSD.

use crate::hdd::Hdd;
use ossd_block::{replay_closed, BlockDevice, BlockRequest, DeviceError};
use ossd_sim::SimTime;
use ossd_ssd::{Ssd, SsdConfig};

/// The six terms of the unwritten contract examined in §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContractTerm {
    /// Term 1: sequential accesses are much better than random accesses.
    SequentialFasterThanRandom,
    /// Term 2: distant LBNs lead to longer positioning times.
    DistantLbnsCostMore,
    /// Term 3: the logical address space delivers uniform bandwidth.
    InterchangeableAddressSpace,
    /// Term 4: data written equals data issued (no write amplification).
    NoWriteAmplification,
    /// Term 5: the media does not wear down.
    MediaDoesNotWear,
    /// Term 6: the device is passive, with little background activity.
    PassiveDevice,
}

impl ContractTerm {
    /// All terms in the order Table 1 lists them.
    pub fn all() -> [ContractTerm; 6] {
        [
            ContractTerm::SequentialFasterThanRandom,
            ContractTerm::DistantLbnsCostMore,
            ContractTerm::InterchangeableAddressSpace,
            ContractTerm::NoWriteAmplification,
            ContractTerm::MediaDoesNotWear,
            ContractTerm::PassiveDevice,
        ]
    }

    /// Short description used in reports.
    pub fn description(&self) -> &'static str {
        match self {
            ContractTerm::SequentialFasterThanRandom => {
                "Sequential accesses are much better than random accesses"
            }
            ContractTerm::DistantLbnsCostMore => "Distant LBNs lead to longer seek times",
            ContractTerm::InterchangeableAddressSpace => "LBN spaces can be interchanged",
            ContractTerm::NoWriteAmplification => "Data written is equal to data issued",
            ContractTerm::MediaDoesNotWear => "Media does not wear down",
            ContractTerm::PassiveDevice => "Storage devices are passive",
        }
    }
}

/// The verdict for one contract term on one device.
#[derive(Clone, Debug, PartialEq)]
pub struct TermVerdict {
    /// Which term was probed.
    pub term: ContractTerm,
    /// Whether the device satisfies the term.
    pub holds: bool,
    /// The measured quantity the verdict is based on.
    pub metric: f64,
    /// Human-readable explanation of the metric.
    pub evidence: String,
}

/// The full contract evaluation for one device.
#[derive(Clone, Debug, PartialEq)]
pub struct ContractReport {
    /// Device name.
    pub device: String,
    /// One verdict per contract term, in Table 1 order.
    pub verdicts: Vec<TermVerdict>,
}

impl ContractReport {
    /// The verdict for a specific term.
    pub fn verdict(&self, term: ContractTerm) -> Option<&TermVerdict> {
        self.verdicts.iter().find(|v| v.term == term)
    }

    /// Number of terms the device satisfies.
    pub fn satisfied_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.holds).count()
    }
}

/// Upper bound on the probed region (kept small so the probes are fast);
/// shrunk further when the device itself is smaller.
const PROBE_REGION: u64 = 16 * 1024 * 1024;
const PROBE_IO: u64 = 4096;

/// The probed region for a given device: at most [`PROBE_REGION`], at most
/// half the device, and 64 KB-aligned.
fn probe_region<D: BlockDevice>(device: &D) -> u64 {
    let cap = device.capacity_bytes();
    let region = PROBE_REGION.min(cap / 2);
    (region / (64 * 1024)).max(1) * 64 * 1024
}

/// `count` back-to-back requests of `size` bytes from offset 0.
pub(crate) fn sequential_requests(count: u64, size: u64, write: bool) -> Vec<BlockRequest> {
    (0..count)
        .map(|i| {
            if write {
                BlockRequest::write(i, i * size, size, SimTime::ZERO)
            } else {
                BlockRequest::read(i, i * size, size, SimTime::ZERO)
            }
        })
        .collect()
}

/// `count` requests of `size` bytes scattered over `span` by a
/// multiplicative hash of the request index.
pub(crate) fn scattered_requests(
    count: u64,
    size: u64,
    span: u64,
    write: bool,
) -> Vec<BlockRequest> {
    (0..count)
        .map(|i| {
            let slot = (i * 2_654_435_761) % (span / size).max(1);
            let offset = slot * size;
            if write {
                BlockRequest::write(i, offset, size, SimTime::ZERO)
            } else {
                BlockRequest::read(i, offset, size, SimTime::ZERO)
            }
        })
        .collect()
}

fn bandwidth_of<D: BlockDevice>(
    device: &mut D,
    requests: &[BlockRequest],
) -> Result<f64, DeviceError> {
    Ok(replay_closed(device, requests)?.bandwidth_mbps())
}

/// Probes terms 1–3 on any block device (they only need the block
/// interface).  Returns (term1, term2, term3) verdicts.
fn probe_generic<D: BlockDevice>(device: &mut D) -> Result<Vec<TermVerdict>, DeviceError> {
    let region = probe_region(device);
    let capacity = device.capacity_bytes();

    // Term 1: sequential vs random bandwidth.
    let prefill = sequential_requests(region / (64 * 1024), 64 * 1024, true);
    replay_closed(device, &prefill)?;
    let rand_ops = (region / PROBE_IO).min(512);
    let seq = bandwidth_of(device, &sequential_requests(rand_ops, PROBE_IO, false))?;
    let rand = bandwidth_of(
        device,
        &scattered_requests(rand_ops, PROBE_IO, region, false),
    )?;
    let ratio = if rand > 0.0 {
        seq / rand
    } else {
        f64::INFINITY
    };
    let term1 = TermVerdict {
        term: ContractTerm::SequentialFasterThanRandom,
        holds: ratio >= 10.0,
        metric: ratio,
        evidence: format!("sequential/random read bandwidth ratio = {ratio:.1}"),
    };

    // Term 2: near vs far LBN jumps.  After positioning at a low LBN,
    // compare the latency of a read 64 KB away with a read at the far end
    // of the device's address space.
    let mut near_total = 0.0;
    let mut far_total = 0.0;
    let samples = 64u64;
    for i in 0..samples {
        let base = (i * 333_667) % (region / 2);
        let anchor = BlockRequest::read(1000 + i * 4, base, PROBE_IO, SimTime::ZERO);
        let a = device.submit(&anchor)?;
        let near = BlockRequest::read(1001 + i * 4, base + 64 * 1024, PROBE_IO, a.finish);
        let n = device.submit(&near)?;
        near_total += n.response_time().as_micros_f64();
        let anchor2 = BlockRequest::read(1002 + i * 4, base, PROBE_IO, n.finish);
        let a2 = device.submit(&anchor2)?;
        let far_offset = capacity - PROBE_IO - (base % region);
        let far = BlockRequest::read(1003 + i * 4, far_offset, PROBE_IO, a2.finish);
        let f = device.submit(&far)?;
        far_total += f.response_time().as_micros_f64();
    }
    let distance_ratio = if near_total > 0.0 {
        far_total / near_total
    } else {
        1.0
    };
    let term2 = TermVerdict {
        term: ContractTerm::DistantLbnsCostMore,
        holds: distance_ratio >= 1.5,
        metric: distance_ratio,
        evidence: format!("far-jump/near-jump latency ratio = {distance_ratio:.2}"),
    };

    // Term 3: bandwidth at the start vs the end of the address space.
    let tail_span = region.min(capacity / 4);
    let tail_ops = (tail_span / (64 * 1024)).max(1);
    let tail_base = capacity - tail_ops * 64 * 1024;
    let head = bandwidth_of(device, &sequential_requests(tail_ops, 64 * 1024, false))?;
    let tail_reqs: Vec<BlockRequest> = (0..tail_ops)
        .map(|i| BlockRequest::read(i, tail_base + i * 64 * 1024, 64 * 1024, SimTime::ZERO))
        .collect();
    // The tail region may be unwritten on an SSD; write it first so both
    // probes read real data.
    let tail_fill: Vec<BlockRequest> = tail_reqs
        .iter()
        .map(|r| BlockRequest::write(r.id + 5000, r.range.offset, r.range.len, SimTime::ZERO))
        .collect();
    replay_closed(device, &tail_fill)?;
    let tail = bandwidth_of(device, &tail_reqs)?;
    let uniformity = if head > 0.0 { tail / head } else { 1.0 };
    let term3 = TermVerdict {
        term: ContractTerm::InterchangeableAddressSpace,
        holds: (0.8..=1.25).contains(&uniformity),
        metric: uniformity,
        evidence: format!("inner/outer sequential bandwidth ratio = {uniformity:.2}"),
    };
    Ok(vec![term1, term2, term3])
}

/// Evaluates the contract against a simulated SSD.
pub(crate) fn evaluate_ssd(config: SsdConfig) -> Result<ContractReport, DeviceError> {
    let mut ssd = Ssd::new(config).map_err(DeviceError::from)?;
    let name = ssd.info().name.clone();
    let mut verdicts = probe_generic(&mut ssd)?;

    // Term 4: write amplification measured by the FTL after random
    // overwrite churn.
    let churn = scattered_requests(4096, PROBE_IO, probe_region(&ssd), true);
    replay_closed(&mut ssd, &churn)?;
    let wa = ssd.stats().write_amplification().max(
        // Sub-page and sub-stripe writes also amplify through RMW reads.
        (ssd.stats().ftl.pages_read_host + ssd.stats().ftl.pages_programmed_host) as f64
            / ssd.stats().ftl.host_writes.max(1) as f64,
    );
    verdicts.push(TermVerdict {
        term: ContractTerm::NoWriteAmplification,
        holds: wa <= 1.1,
        metric: wa,
        evidence: format!("write amplification after random churn = {wa:.2}"),
    });

    // Term 5: erase-cycle wear recorded by the flash array.
    let wear = ssd.ftl_stats();
    let erases = wear.gc_blocks_erased + ssd.stats().ftl.gc_blocks_erased;
    let total_erases = erases.max(if ssd.stats().ftl.host_writes > 0 {
        1
    } else {
        0
    });
    verdicts.push(TermVerdict {
        term: ContractTerm::MediaDoesNotWear,
        holds: false,
        metric: total_erases as f64,
        evidence: format!(
            "flash blocks endure bounded erase cycles; {total_erases} GC erases observed"
        ),
    });

    // Term 6: background (cleaning/wear-leveling) activity fraction.
    let stats = ssd.stats();
    let background = stats.background_busy().as_secs_f64();
    let host = stats.host_busy.as_secs_f64();
    let fraction = if host + background > 0.0 {
        background / (host + background)
    } else {
        0.0
    };
    verdicts.push(TermVerdict {
        term: ContractTerm::PassiveDevice,
        holds: fraction < 0.01,
        metric: fraction,
        evidence: format!("background activity fraction = {:.1}%", fraction * 100.0),
    });

    Ok(ContractReport {
        device: name,
        verdicts,
    })
}

/// Evaluates the contract against a simulated disk.
pub(crate) fn evaluate_hdd() -> Result<ContractReport, DeviceError> {
    let mut hdd = Hdd::barracuda_7200();
    let name = hdd.info().name.clone();
    let mut verdicts = probe_generic(&mut hdd)?;
    // Term 4: a disk writes exactly what it is told to write.
    verdicts.push(TermVerdict {
        term: ContractTerm::NoWriteAmplification,
        holds: true,
        metric: 1.0,
        evidence: "magnetic media overwrites in place; amplification = 1.0".to_string(),
    });
    // Term 5: magnetic media has no erase-cycle limit.
    verdicts.push(TermVerdict {
        term: ContractTerm::MediaDoesNotWear,
        holds: true,
        metric: 0.0,
        evidence: "no erase-cycle wear mechanism".to_string(),
    });
    // Term 6: a single disk performs no autonomous background work in this
    // model.
    verdicts.push(TermVerdict {
        term: ContractTerm::PassiveDevice,
        holds: true,
        metric: 0.0,
        evidence: "no background activity".to_string(),
    });
    Ok(ContractReport {
        device: name,
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ossd_ftl::FtlConfig;
    use ossd_ssd::MappingKind;

    fn small_ssd_config(mapping: MappingKind) -> SsdConfig {
        // ~67 MB page-mapped device: large enough for the 16 MB probes,
        // small enough for unit tests.
        let mut config = SsdConfig::tiny_page_mapped();
        config.geometry.blocks_per_plane = 128;
        config.geometry.packages = 4;
        config.mapping = mapping;
        config.gangs = 2;
        config.ftl = FtlConfig::default().with_overprovisioning(0.1);
        config
    }

    #[test]
    fn term_list_and_descriptions() {
        assert_eq!(ContractTerm::all().len(), 6);
        for term in ContractTerm::all() {
            assert!(!term.description().is_empty());
        }
    }

    #[test]
    fn hdd_satisfies_the_disk_contract() {
        let report = evaluate_hdd().unwrap();
        assert_eq!(report.verdicts.len(), 6);
        // Terms 1, 2, 4, 5, 6 hold on a disk; term 3 fails because of zoned
        // recording.
        assert!(
            report
                .verdict(ContractTerm::SequentialFasterThanRandom)
                .unwrap()
                .holds
        );
        assert!(
            report
                .verdict(ContractTerm::DistantLbnsCostMore)
                .unwrap()
                .holds
        );
        assert!(
            report
                .verdict(ContractTerm::MediaDoesNotWear)
                .unwrap()
                .holds
        );
        assert!(report.verdict(ContractTerm::PassiveDevice).unwrap().holds);
        assert!(
            report
                .verdict(ContractTerm::NoWriteAmplification)
                .unwrap()
                .holds
        );
        assert!(report.satisfied_count() >= 5);
    }

    #[test]
    fn page_mapped_ssd_breaks_the_contract() {
        let report = evaluate_ssd(small_ssd_config(MappingKind::PageMapped)).unwrap();
        assert_eq!(report.verdicts.len(), 6);
        // Term 1 fails: sequential is no longer much better than random.
        assert!(
            !report
                .verdict(ContractTerm::SequentialFasterThanRandom)
                .unwrap()
                .holds
        );
        // Term 2 fails: LBN distance does not matter.
        assert!(
            !report
                .verdict(ContractTerm::DistantLbnsCostMore)
                .unwrap()
                .holds
        );
        // Term 5 always fails: flash wears out.
        assert!(
            !report
                .verdict(ContractTerm::MediaDoesNotWear)
                .unwrap()
                .holds
        );
        assert!(report.satisfied_count() < 6);
    }

    #[test]
    fn stripe_mapped_ssd_shows_write_amplification() {
        let config = SsdConfig {
            mapping: MappingKind::StripeMapped {
                stripe_bytes: 64 * 1024,
                coalesce: true,
            },
            ..small_ssd_config(MappingKind::PageMapped)
        };
        let report = evaluate_ssd(config).unwrap();
        let wa = report.verdict(ContractTerm::NoWriteAmplification).unwrap();
        assert!(!wa.holds, "random sub-stripe churn must amplify writes");
        assert!(wa.metric > 1.1);
    }
}
