//! Table 5: informed cleaning with free-page information.
//!
//! The paper replays Postmark block traces (5 000–8 000 transactions,
//! collected beneath Ext3 with a pseudo-driver that reports freed sectors)
//! against an 8 GB SSD twice: once on the default SSD that ignores
//! free-page information and once with cleaning/wear-leveling modified to
//! disregard flash pages whose logical pages the file system has freed.
//! Informed cleaning moves 50–75% fewer pages and cuts cleaning time by
//! 30–40%.
//!
//! The reproduction scales the device and trace down together (see the
//! experiment index in README.md) so that the trace overwrites the device
//! several times and garbage collection is active, which is the regime the
//! paper measures.

use crate::workload::PostmarkConfig;
use ossd_block::{replay_open, BlockOpKind, BlockRequest, DeviceError};
use ossd_ftl::FtlConfig;
use ossd_ssd::{Ssd, SsdConfig};

use super::{col, device, geometry, ExperimentError, Report, Scale, Table};

/// One row of Table 5 (one transaction count).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table5Row {
    /// Number of Postmark transactions in the trace.
    pub transactions: usize,
    /// Pages moved by cleaning on the default (uninformed) SSD.
    pub default_pages_moved: u64,
    /// Pages moved by cleaning with free-page information.
    pub informed_pages_moved: u64,
    /// Cleaning time on the default SSD, in seconds.
    pub default_cleaning_secs: f64,
    /// Cleaning time with free-page information, in seconds.
    pub informed_cleaning_secs: f64,
}

impl Table5Row {
    /// Pages moved with free-page information relative to the default SSD
    /// (the paper's "relative pages moved", 0.25–0.50).
    pub fn relative_pages_moved(&self) -> f64 {
        if self.default_pages_moved == 0 {
            0.0
        } else {
            self.informed_pages_moved as f64 / self.default_pages_moved as f64
        }
    }

    /// Cleaning time with free-page information relative to the default SSD
    /// (the paper's "relative cleaning time", 0.60–0.69).
    pub fn relative_cleaning_time(&self) -> f64 {
        if self.default_cleaning_secs <= 0.0 {
            0.0
        } else {
            self.informed_cleaning_secs / self.default_cleaning_secs
        }
    }
}

/// The page-mapped SSD the traces are replayed against.  The raw capacity is
/// chosen so the Postmark trace overwrites the device between one and two
/// times over (the paper's 8 GB device saw the same relationship with its
/// multi-gigabyte traces).
fn device_config(scale: Scale, honor_free: bool) -> SsdConfig {
    let name = format!("table5-{}", if honor_free { "informed" } else { "default" });
    SsdConfig {
        ftl: FtlConfig::default()
            .with_overprovisioning(0.08)
            .with_honor_free(honor_free),
        ..device(name, geometry(2, scale.bytes(32, 96) as u32, 64))
    }
}

fn postmark_config(scale: Scale, transactions: usize) -> PostmarkConfig {
    PostmarkConfig {
        transactions,
        initial_files: scale.count(800, 2500),
        volume_bytes: scale.bytes(14 * 1024 * 1024, 42 * 1024 * 1024),
        ..PostmarkConfig::default()
    }
}

/// Transaction counts for the four columns of Table 5.
pub(crate) fn transaction_counts(scale: Scale) -> [usize; 4] {
    match scale {
        Scale::Quick => [2000, 2500, 3000, 3500],
        Scale::Paper => [5000, 6000, 7000, 8000],
    }
}

fn run_one(scale: Scale, transactions: usize) -> Result<Table5Row, DeviceError> {
    let informed = postmark_config(scale, transactions).generate();
    // The default SSD never receives the free notifications at all (the
    // block interface has no way to convey them); the informed SSD does.
    let uninformed: Vec<BlockRequest> = (informed.iter())
        .filter(|r| r.kind != BlockOpKind::Free)
        .enumerate()
        .map(|(id, r)| BlockRequest {
            id: id as u64,
            ..*r
        })
        .collect();
    let mut results = [(0u64, 0.0f64); 2];
    for (i, honor_free) in [false, true].iter().enumerate() {
        let mut ssd = Ssd::new(device_config(scale, *honor_free)).map_err(DeviceError::from)?;
        let requests = if *honor_free { &informed } else { &uninformed };
        replay_open(&mut ssd, requests)?;
        let stats = ssd.stats();
        results[i] = (
            stats.cleaning_pages_moved(),
            stats.cleaning_busy.as_secs_f64(),
        );
    }
    Ok(Table5Row {
        transactions,
        default_pages_moved: results[0].0,
        informed_pages_moved: results[1].0,
        default_cleaning_secs: results[0].1,
        informed_cleaning_secs: results[1].1,
    })
}

/// Runs the Table 5 experiment for all four transaction counts.
pub fn run(scale: Scale) -> Result<Vec<Table5Row>, DeviceError> {
    transaction_counts(scale)
        .into_iter()
        .map(|t| run_one(scale, t))
        .collect()
}

/// Table 5 as a report, with the paper's relative figures.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let mut table = Table::of(
        &run(scale)?,
        &[
            (col("transactions", "", 0), |r| r.transactions.into()),
            (col("default_moved", "pages", 0), |r| {
                r.default_pages_moved.into()
            }),
            (col("informed_moved", "pages", 0), |r| {
                r.informed_pages_moved.into()
            }),
            (col("relative_moved", "x", 2), |r| {
                r.relative_pages_moved().into()
            }),
            (col("default_cleaning", "s", 2), |r| {
                r.default_cleaning_secs.into()
            }),
            (col("informed_cleaning", "s", 2), |r| {
                r.informed_cleaning_secs.into()
            }),
            (col("relative_cleaning", "x", 2), |r| {
                r.relative_cleaning_time().into()
            }),
        ],
    );
    table.paper_column("relative_moved", [0.31, 0.25, 0.35, 0.50]);
    table.paper_column("relative_cleaning", [0.69, 0.60, 0.63, 0.69]);
    let title = "Table 5: Improved Cleaning with Free-Page Information";
    Ok(Report::new("table5", title, scale, vec![table])
        .note("The paper's rows are 5K-8K transactions, the counts of paper scale."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn informed_cleaning_moves_fewer_pages_and_cleans_faster() {
        let rows = run(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(
                row.default_pages_moved > 0,
                "{} transactions: cleaning never ran on the default SSD",
                row.transactions
            );
            let rel_pages = row.relative_pages_moved();
            let rel_time = row.relative_cleaning_time();
            assert!(
                rel_pages < 0.9,
                "{} transactions: relative pages moved {rel_pages:.2} shows no benefit",
                row.transactions
            );
            assert!(
                rel_time < 0.95,
                "{} transactions: relative cleaning time {rel_time:.2} shows no benefit",
                row.transactions
            );
            // Informed cleaning can never move more pages than the default.
            assert!(row.informed_pages_moved <= row.default_pages_moved);
        }
        // More transactions means more absolute cleaning work on the default
        // device.
        assert!(rows[3].default_pages_moved >= rows[0].default_pages_moved);
    }
}
