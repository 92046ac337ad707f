//! Table 1: the unwritten contract, evaluated against a disk and an SSD.
//!
//! This driver wraps [`crate::contract`] so the bench harness and tests can
//! regenerate the Disk and SSD columns of Table 1 (the RAID and MEMS
//! columns of the paper are literature summaries, not measurements, and are
//! out of scope).

use crate::hdd::HddConfig;
use ossd_block::DeviceError;
use ossd_flash::FlashGeometry;
use ossd_ftl::FtlConfig;
use ossd_ssd::{MappingKind, SsdConfig};

use crate::contract::{evaluate_hdd, evaluate_ssd, ContractReport, ContractTerm, TermVerdict};

use super::{col, Cell, ExperimentError, Report, Scale, Table};

/// The Disk and SSD columns of Table 1.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Result {
    /// Contract evaluation for the simulated disk.
    pub hdd: ContractReport,
    /// Contract evaluation for a page-mapped SSD.
    pub ssd_page_mapped: ContractReport,
    /// Contract evaluation for a low-end stripe-mapped SSD (shows the
    /// write-amplification violation most clearly).
    pub ssd_stripe_mapped: ContractReport,
}

fn ssd_config(scale: Scale, mapping: MappingKind) -> SsdConfig {
    let mut config = SsdConfig::tiny_page_mapped();
    config.geometry = FlashGeometry {
        packages: 4,
        dies_per_package: 1,
        planes_per_die: 1,
        blocks_per_plane: scale.bytes(128, 256) as u32,
        pages_per_block: 64,
        page_bytes: 4096,
    };
    config.gangs = 2;
    config.mapping = mapping;
    config.ftl = FtlConfig::default();
    config.name = match mapping {
        MappingKind::PageMapped => "SSD (page-mapped)".to_string(),
        MappingKind::StripeMapped { .. } => "SSD (stripe-mapped)".to_string(),
    };
    config
}

/// Runs the Table 1 evaluation.
pub fn run(scale: Scale) -> Result<Table1Result, DeviceError> {
    let hdd = evaluate_hdd(HddConfig::barracuda_7200())?;
    let ssd_page_mapped = evaluate_ssd(ssd_config(scale, MappingKind::PageMapped))?;
    let ssd_stripe_mapped = evaluate_ssd(ssd_config(
        scale,
        MappingKind::StripeMapped {
            stripe_bytes: 64 * 1024,
            coalesce: true,
        },
    ))?;
    Ok(Table1Result {
        hdd,
        ssd_page_mapped,
        ssd_stripe_mapped,
    })
}

/// Table 1 as a report: each device's T/F row beside the paper's, the
/// evidence behind every verdict, and the terms as notes.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    fn mark(verdict: Option<&TermVerdict>) -> Cell {
        Cell::from(if verdict.is_some_and(|v| v.holds) {
            "T"
        } else {
            "F"
        })
    }
    let result = run(scale)?;
    let devices = [
        &result.hdd,
        &result.ssd_page_mapped,
        &result.ssd_stripe_mapped,
    ];
    let mut verdicts = Table {
        name: "verdicts",
        ..Table::of(
            &devices,
            &[
                (col("device", "", 0), |d| d.device.as_str().into()),
                (col("1", "", 0), |d| mark(d.verdicts.first())),
                (col("2", "", 0), |d| mark(d.verdicts.get(1))),
                (col("3", "", 0), |d| mark(d.verdicts.get(2))),
                (col("4", "", 0), |d| mark(d.verdicts.get(3))),
                (col("5", "", 0), |d| mark(d.verdicts.get(4))),
                (col("6", "", 0), |d| mark(d.verdicts.get(5))),
            ],
        )
    };
    // The paper's Disk column, then its one SSD column beside both SSDs.
    let paper_disk = ["T", "T", "F", "T", "T", "T"];
    for (term, disk) in ["1", "2", "3", "4", "5", "6"].into_iter().zip(paper_disk) {
        verdicts.paper_column(term, [disk, "F", "F"]);
    }
    let evidence: Vec<(&str, usize, &TermVerdict)> = devices
        .iter()
        .flat_map(|d| {
            (1..)
                .zip(&d.verdicts)
                .map(|(i, v)| (d.device.as_str(), i, v))
        })
        .collect();
    let evidence = Table {
        name: "evidence",
        ..Table::of(
            &evidence,
            &[
                (col("device", "", 0), |(device, _, _)| (*device).into()),
                (col("term", "", 0), |(_, i, _)| (*i).into()),
                (col("holds", "", 0), |(_, _, v)| mark(Some(v))),
                (col("evidence", "", 0), |(_, _, v)| {
                    v.evidence.as_str().into()
                }),
            ],
        )
    };
    let title = "Table 1: Unwritten Contract (Disk vs SSD)";
    let mut report = Report::new("table1", title, scale, vec![verdicts, evidence]);
    for (i, term) in (1..).zip(ContractTerm::all()) {
        report = report.note(format!("Term {i}: {}.", term.description()));
    }
    Ok(report.note(
        "The paper's SSD column stands beside both simulated SSDs; its RAID and MEMS \
         columns summarise the literature and are not reproduced.",
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::ContractTerm;

    #[test]
    fn disk_mostly_satisfies_ssd_mostly_violates() {
        let result = run(Scale::Quick).unwrap();
        assert!(result.hdd.satisfied_count() >= 5);
        assert!(result.ssd_page_mapped.satisfied_count() <= 4);
        // The headline violations the paper highlights:
        assert!(
            !result
                .ssd_page_mapped
                .verdict(ContractTerm::SequentialFasterThanRandom)
                .unwrap()
                .holds
        );
        assert!(
            !result
                .ssd_page_mapped
                .verdict(ContractTerm::MediaDoesNotWear)
                .unwrap()
                .holds
        );
        assert!(
            !result
                .ssd_stripe_mapped
                .verdict(ContractTerm::NoWriteAmplification)
                .unwrap()
                .holds
        );
    }
}
