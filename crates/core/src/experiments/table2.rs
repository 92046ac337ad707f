//! Table 2: ratio of sequential to random bandwidth for an HDD and the five
//! SSD device profiles.

use crate::hdd::Hdd;
use ossd_block::{replay_closed, BlockDevice, DeviceError};
use ossd_ssd::{DeviceProfile, Ssd};

use crate::contract::{scattered_requests, sequential_requests};

use super::{col, ExperimentError, Report, Scale, Table};

/// One row of Table 2 (all bandwidths in MB/s).
#[derive(Clone, Debug, PartialEq)]
pub struct Table2Row {
    /// Device name as in the paper.
    pub device: String,
    /// Sequential read bandwidth.
    pub seq_read: f64,
    /// Random read bandwidth.
    pub rand_read: f64,
    /// Sequential write bandwidth.
    pub seq_write: f64,
    /// Random write bandwidth.
    pub rand_write: f64,
}

impl Table2Row {
    /// Sequential/random read ratio.
    pub fn read_ratio(&self) -> f64 {
        if self.rand_read > 0.0 {
            self.seq_read / self.rand_read
        } else {
            f64::INFINITY
        }
    }

    /// Sequential/random write ratio.
    pub fn write_ratio(&self) -> f64 {
        if self.rand_write > 0.0 {
            self.seq_write / self.rand_write
        } else {
            f64::INFINITY
        }
    }
}

/// Request size used for both the sequential and the random measurements.
/// The paper's S4slc_sim row (≈30 MB/s for both sequential and random
/// reads) is consistent with closed-loop 4 KB requests, so the same size is
/// used for every cell to keep the ratios comparable.
const IO_BYTES: u64 = 4096;

/// Measures one device.  The measurement order is: sequential write (which
/// also serves as the prefill so later reads hit real data), sequential
/// read, random read, random write.
fn measure<D: BlockDevice>(
    device: &mut D,
    name: &str,
    region: u64,
) -> Result<Table2Row, DeviceError> {
    let seq_ops = region / IO_BYTES;
    let rand_ops = (region / IO_BYTES).min(16 * 1024);
    let seq_write = replay_closed(device, &sequential_requests(seq_ops, IO_BYTES, true))?
        .write_bandwidth_mbps();
    let seq_read = replay_closed(device, &sequential_requests(seq_ops, IO_BYTES, false))?
        .read_bandwidth_mbps();
    let rand_read = replay_closed(
        device,
        &scattered_requests(rand_ops, IO_BYTES, region, false),
    )?
    .read_bandwidth_mbps();
    let rand_write = replay_closed(
        device,
        &scattered_requests(rand_ops, IO_BYTES, region, true),
    )?
    .write_bandwidth_mbps();
    Ok(Table2Row {
        device: name.to_string(),
        seq_read,
        rand_read,
        seq_write,
        rand_write,
    })
}

/// Runs the Table 2 experiment: the HDD row followed by S1slc–S5mlc.
pub fn run(scale: Scale) -> Result<Vec<Table2Row>, DeviceError> {
    let region = scale.bytes(8 * 1024 * 1024, 64 * 1024 * 1024);
    let mut rows = Vec::new();

    let mut hdd = Hdd::barracuda_7200();
    rows.push(measure(&mut hdd, "HDD", region)?);

    for profile in DeviceProfile::table2_devices() {
        let mut ssd = Ssd::new(profile.config()).map_err(DeviceError::from)?;
        rows.push(measure(&mut ssd, profile.name(), region)?);
    }
    Ok(rows)
}

/// Table 2 as a report, with the paper's ratios beside each device.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let mut table = Table::of(
        &run(scale)?,
        &[
            (col("device", "", 0), |r| r.device.as_str().into()),
            (col("seq_read", "MB/s", 1), |r| r.seq_read.into()),
            (col("rand_read", "MB/s", 2), |r| r.rand_read.into()),
            (col("read_ratio", "x", 1), |r| r.read_ratio().into()),
            (col("seq_write", "MB/s", 1), |r| r.seq_write.into()),
            (col("rand_write", "MB/s", 2), |r| r.rand_write.into()),
            (col("write_ratio", "x", 1), |r| r.write_ratio().into()),
        ],
    );
    table.paper_column("read_ratio", [143.7, 11.0, 9.2, 2.4, 1.1, 3.2]);
    table.paper_column("write_ratio", [66.8, 3.1, 328.0, 151.6, 1.3, 1.5]);
    let title = "Table 2: Ratio of Sequential to Random Bandwidth (MB/s)";
    Ok(Report::new("table2", title, scale, vec![table]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shapes_match_the_paper() {
        let rows = run(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            eprintln!(
                "{:<10} seqR {:8.1} randR {:8.2} (x{:6.1})  seqW {:8.1} randW {:8.2} (x{:6.1})",
                r.device,
                r.seq_read,
                r.rand_read,
                r.read_ratio(),
                r.seq_write,
                r.rand_write,
                r.write_ratio()
            );
        }
        let by_name = |name: &str| rows.iter().find(|r| r.device == name).unwrap();

        // The disk: both ratios are enormous compared with any SSD.
        let hdd = by_name("HDD");
        assert!(
            hdd.read_ratio() > 30.0,
            "HDD read ratio {}",
            hdd.read_ratio()
        );
        assert!(
            hdd.write_ratio() > 5.0,
            "HDD write ratio {}",
            hdd.write_ratio()
        );

        // The paper's simulated page-mapped SSD: sequential and random are
        // nearly interchangeable.
        let s4 = by_name("S4slc_sim");
        assert!(s4.read_ratio() < 2.0, "S4 read ratio {}", s4.read_ratio());
        assert!(
            s4.write_ratio() < 2.5,
            "S4 write ratio {}",
            s4.write_ratio()
        );
        assert!(hdd.read_ratio() > 10.0 * s4.read_ratio());

        // The low-end stripe-mapped devices: random writes collapse.
        let s2 = by_name("S2slc");
        assert!(
            s2.write_ratio() > 40.0,
            "S2 write ratio {}",
            s2.write_ratio()
        );
        let s3 = by_name("S3slc");
        assert!(
            s3.write_ratio() > 20.0,
            "S3 write ratio {}",
            s3.write_ratio()
        );

        // Read ratios on SSDs stay modest (a few times, not a hundred).
        for row in &rows[1..] {
            assert!(
                row.read_ratio() < 30.0,
                "{} read ratio {} too disk-like",
                row.device,
                row.read_ratio()
            );
            assert!(row.seq_read > 0.0 && row.rand_read > 0.0);
        }

        // MLC is slower to write than the comparable SLC device.
        let s5 = by_name("S5mlc");
        let s1 = by_name("S1slc");
        assert!(s5.seq_write < s1.seq_write);
    }
}
