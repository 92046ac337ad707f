//! Integration tests asserting the paper-level *shapes* of every experiment
//! at quick scale.  These are the same drivers `ossd-exp` runs at paper
//! scale; the experiment index in README.md lists them.

use ossd::core::contract::ContractTerm;
use ossd::core::experiments::{
    figure2, figure3, swtf, table1, table2, table3, table4, table5, Scale,
};

#[test]
fn table1_contract_disk_vs_ssd() {
    let result = table1::run(Scale::Quick).unwrap();
    // Disk: satisfies the contract except for zoned recording (term 3).
    assert!(result.hdd.satisfied_count() >= 5);
    // SSD: violates the majority of the terms.
    assert!(result.ssd_page_mapped.satisfied_count() <= 4);
    assert!(
        !result
            .ssd_page_mapped
            .verdict(ContractTerm::SequentialFasterThanRandom)
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

#[test]
fn table2_hdd_vs_ssd_ratios() {
    let rows = table2::run(Scale::Quick).unwrap();
    let hdd = rows.iter().find(|r| r.device == "HDD").unwrap();
    let s4 = rows.iter().find(|r| r.device == "S4slc_sim").unwrap();
    let s2 = rows.iter().find(|r| r.device == "S2slc").unwrap();
    // The disk's gap is orders of magnitude; the page-mapped SSD's is ~1.
    assert!(hdd.read_ratio() > 20.0 * s4.read_ratio());
    // The coarse-mapped SSD has worse random writes than the disk (the
    // paper's S2slc/S3slc observation).
    assert!(s2.rand_write < hdd.rand_write * 2.0);
    assert!(s2.write_ratio() > hdd.write_ratio());
}

#[test]
fn swtf_beats_fcfs_by_a_modest_margin() {
    let result = swtf::run(Scale::Quick).unwrap();
    let improvement = result.improvement_pct();
    assert!(improvement > 1.0, "improvement {improvement:.2}%");
    assert!(improvement < 60.0);
}

#[test]
fn figure2_sawtooth_period_matches_stripe_size() {
    let points = figure2::run(Scale::Quick).unwrap();
    let at = |mb: f64| figure2::bandwidth_at(&points, mb).unwrap();
    assert!(at(1.0) > at(0.5));
    assert!(at(1.0) > at(1.5));
    assert!(at(2.0) > at(1.5));
    assert!(at(3.0) > at(2.5));
}

#[test]
fn table3_alignment_pays_off_with_sequentiality() {
    let rows = table3::run(Scale::Quick).unwrap();
    assert!(rows[0].improvement_pct() < rows[4].improvement_pct());
    assert!(rows[4].improvement_pct() > 25.0);
}

#[test]
fn table4_iozone_gains_most_from_alignment() {
    let rows = table4::run(Scale::Quick).unwrap();
    let improvement = |name: &str| {
        rows.iter()
            .find(|r| r.workload == name)
            .unwrap()
            .improvement_pct()
    };
    assert!(improvement("IOzone") > improvement("Postmark"));
    assert!(improvement("IOzone") > improvement("TPCC"));
    assert!(improvement("IOzone") > improvement("Exchange"));
    assert!(improvement("IOzone") > 15.0);
}

#[test]
fn table5_informed_cleaning_reduces_work() {
    let rows = table5::run(Scale::Quick).unwrap();
    for row in &rows {
        assert!(row.default_pages_moved > 0);
        assert!(row.relative_pages_moved() < 0.9);
        assert!(row.relative_cleaning_time() < 0.95);
    }
}

#[test]
fn figure3_priority_aware_cleaning_shape() {
    let points = figure3::run(Scale::Quick).unwrap();
    assert_eq!(points.len(), figure3::WRITE_PERCENTAGES.len());
    // Little benefit when writes are rare; clear benefit when they dominate.
    let low = points.first().unwrap();
    let high = points.iter().find(|p| p.write_pct == 60).unwrap();
    assert!(low.improvement_pct().abs() < 10.0);
    assert!(high.improvement_pct() > 2.0);
}
