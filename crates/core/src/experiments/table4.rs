//! Table 4: response-time improvement from device-side stripe-aligned write
//! merging under four macro-benchmark workload models.
//!
//! The paper reports Postmark 1.15%, TPC-C 3.08%, Exchange 4.89% and IOzone
//! 36.54%: the larger and more sequential a workload's writes, the more the
//! device-side merge-and-align scheme helps.  The workload models here are
//! synthetic reconstructions (see `ossd-workload`), so the reproduced
//! numbers match in *ordering and magnitude class*, not to two decimals.

use crate::workload::{ExchangeConfig, IozoneConfig, PostmarkConfig, TpccConfig};
use ossd_block::{BlockRequest, ByteRange, DeviceError};
use ossd_sim::improvement_percent;
use ossd_ssd::Ssd;

use super::table3::{device_config_for_alignment, LOGICAL_PAGE};
use super::{col, ExperimentError, Report, Scale, Table};

/// One row of Table 4.
#[derive(Clone, Debug, PartialEq)]
pub struct Table4Row {
    /// Workload name.
    pub workload: String,
    /// Mean response time without merging/alignment (ms).
    pub unaligned_ms: f64,
    /// Mean response time with device-side merging/alignment (ms).
    pub aligned_ms: f64,
}

impl Table4Row {
    /// Improvement of the aligned scheme, in percent.
    pub fn improvement_pct(&self) -> f64 {
        improvement_percent(self.unaligned_ms, self.aligned_ms)
    }
}

/// Byte offset added to every workload address, emulating the file-system
/// metadata area that precedes the data region on a real volume.  The area
/// is a whole number of logical pages, so workloads whose writes are
/// naturally stripe-sized (Exchange's 32 KB database pages) stay aligned.
const FS_METADATA_OFFSET: u64 = LOGICAL_PAGE;

/// Maximum size of an individual block-layer request for *file-system
/// buffered* workloads (Postmark, IOzone).  The page cache of the paper's
/// era wrote large files back in requests of a few tens of kilobytes, so a
/// 1 MB IOzone record reaches the device as a train of sequential
/// sub-stripe writes — exactly the pattern device-side merging reassembles.
/// Database workloads (TPC-C, Exchange) issue their page-sized requests
/// directly and are not split.
const BLOCK_LAYER_MAX_IO: u64 = 16 * 1024;

fn shifted_requests(
    requests: &[BlockRequest],
    shift: u64,
    max_io: Option<u64>,
) -> Vec<BlockRequest> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for &req in requests {
        let mut offset = req.range.offset + shift;
        let mut remaining = req.range.len;
        while remaining > 0 {
            let chunk = remaining.min(max_io.unwrap_or(u64::MAX));
            let mut piece = req;
            piece.id = id;
            id += 1;
            piece.range = ByteRange::new(offset, chunk);
            out.push(piece);
            offset += chunk;
            remaining -= chunk;
        }
    }
    out
}

fn mean_response_ms(
    scale: Scale,
    requests: &[BlockRequest],
    coalesce: bool,
) -> Result<f64, DeviceError> {
    let mut ssd =
        Ssd::new(device_config_for_alignment(scale, coalesce)).map_err(DeviceError::from)?;
    let completions = super::serve_open(&mut ssd, requests)?;
    Ok(super::mean_response_ms(&completions))
}

fn run_workload(
    scale: Scale,
    name: &str,
    workload: &[BlockRequest],
    max_io: Option<u64>,
) -> Result<Table4Row, DeviceError> {
    let requests = shifted_requests(workload, FS_METADATA_OFFSET, max_io);
    let unaligned_ms = mean_response_ms(scale, &requests, false)?;
    let aligned_ms = mean_response_ms(scale, &requests, true)?;
    Ok(Table4Row {
        workload: name.to_string(),
        unaligned_ms,
        aligned_ms,
    })
}

/// Runs the Table 4 experiment over the four workload models.
pub fn run(scale: Scale) -> Result<Vec<Table4Row>, DeviceError> {
    // The gaps are sized so the device is moderately loaded but not
    // saturated under the unaligned scheme; the paper's traces likewise ran
    // against a device far faster than their mean arrival rate.
    let postmark = PostmarkConfig {
        transactions: scale.count(800, 5000),
        initial_files: scale.count(200, 1000),
        volume_bytes: scale.bytes(24 * 1024 * 1024, 128 * 1024 * 1024),
        mean_gap_micros: 4000,
        ..PostmarkConfig::default()
    }
    .generate();
    let tpcc = TpccConfig {
        transactions: scale.count(600, 4000),
        database_bytes: scale.bytes(24 * 1024 * 1024, 128 * 1024 * 1024),
        log_bytes: scale.bytes(4 * 1024 * 1024, 16 * 1024 * 1024),
        mean_gap_micros: 8000,
        ..TpccConfig::default()
    }
    .generate();
    let exchange = ExchangeConfig {
        operations: scale.count(800, 5000),
        database_bytes: scale.bytes(24 * 1024 * 1024, 128 * 1024 * 1024),
        log_bytes: scale.bytes(4 * 1024 * 1024, 16 * 1024 * 1024),
        mean_gap_micros: 10_000,
        ..ExchangeConfig::default()
    }
    .generate();
    let iozone = IozoneConfig {
        file_bytes: scale.bytes(24 * 1024 * 1024, 128 * 1024 * 1024),
        random_ops: scale.count(16, 64),
        mean_gap_micros: 20_000,
        ..IozoneConfig::default()
    }
    .generate();

    Ok(vec![
        run_workload(scale, "Postmark", &postmark, Some(BLOCK_LAYER_MAX_IO))?,
        run_workload(scale, "TPCC", &tpcc, None)?,
        run_workload(scale, "Exchange", &exchange, None)?,
        run_workload(scale, "IOzone", &iozone, Some(BLOCK_LAYER_MAX_IO))?,
    ])
}

/// Table 4 as a report, with the paper's improvements.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let mut table = Table::of(
        &run(scale)?,
        &[
            (col("workload", "", 0), |r| r.workload.as_str().into()),
            (col("unaligned", "ms", 2), |r| r.unaligned_ms.into()),
            (col("aligned", "ms", 2), |r| r.aligned_ms.into()),
            (col("improvement", "%", 2), |r| r.improvement_pct().into()),
        ],
    );
    table.paper_column("improvement", [1.15, 3.08, 4.89, 36.54]);
    let title = "Table 4: Macro Benchmarks with Stripe-aligned Writes";
    Ok(Report::new("table4", title, scale, vec![table])
        .note("In the paper IOzone benefits most, from its large writes."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iozone_benefits_most_postmark_least() {
        let rows = run(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            eprintln!(
                "{:<10} unaligned {:8.2} ms  aligned {:8.2} ms  improvement {:6.2}%",
                r.workload,
                r.unaligned_ms,
                r.aligned_ms,
                r.improvement_pct()
            );
        }
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.workload == name)
                .unwrap()
                .improvement_pct()
        };
        let postmark = get("Postmark");
        let iozone = get("IOzone");
        let exchange = get("Exchange");
        let tpcc = get("TPCC");
        // IOzone (large sequential writes) must dominate every other
        // workload, and by a wide margin over Postmark (small scattered
        // writes) — the paper's 36.5% vs 1.15%.
        assert!(
            iozone > 15.0,
            "IOzone improvement {iozone:.1}% should be large"
        );
        assert!(
            iozone > postmark + 10.0,
            "IOzone ({iozone:.1}%) must far exceed Postmark ({postmark:.1}%)"
        );
        assert!(iozone > tpcc, "IOzone must beat TPCC ({tpcc:.1}%)");
        assert!(
            iozone > exchange,
            "IOzone must beat Exchange ({exchange:.1}%)"
        );
        // Small-write workloads see only modest improvement (and never a
        // large regression).
        for (name, v) in [
            ("Postmark", postmark),
            ("TPCC", tpcc),
            ("Exchange", exchange),
        ] {
            assert!(v > -10.0, "{name} regressed by {v:.1}%");
            assert!(v < 30.0, "{name} improvement {v:.1}% implausibly large");
        }
    }
}
