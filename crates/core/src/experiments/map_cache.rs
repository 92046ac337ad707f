//! Demand-paged mapping sweep: hit rate, write amplification, bandwidth and
//! tail latency vs. map-cache budget × workload skew.
//!
//! Both FTLs historically held the full logical-to-physical table in
//! controller SRAM, which caps the geometry a real controller could ship:
//! at TB-class capacity the table alone is gigabytes.  The demand-paged
//! mapping subsystem (`ossd-mapcache`, threaded through `PageFtl`) stores
//! translation pages on flash and caches a budgeted subset of entries, so
//! every cache miss on a materialized translation page costs a real map
//! read and every dirty eviction costs a translation-page writeback — both
//! timed through the same element/bus queues as host traffic.
//!
//! This experiment measures that cost.  A device is filled over a working
//! region, then churned with single-page writes drawn either uniformly or
//! Zipf-skewed; each (budget × skew) cell reports the churn-phase map-cache
//! hit rate, effective write amplification (host + GC + map programs per
//! host page), host bandwidth and p99 service time, with a fully resident
//! table as the baseline row.  At paper scale the geometry is TB-class
//! (≥ 1 TiB logical span) and every budget keeps map SRAM at or below
//! 1/64th of the resident-table footprint — the regime where demand paging
//! is the only option.

use ossd_block::{BlockDevice, BlockRequest, DeviceError};
use ossd_flash::FlashGeometry;
use ossd_ftl::{FtlConfig, MapCacheConfig};
use ossd_sim::{LatencyStats, SimRng};
use ossd_ssd::{Ssd, SsdConfig};

use super::{col, device, fill, Cell, ExperimentError, Report, Scale, Table};

/// One measured cell: one cache budget at one workload skew.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapCachePoint {
    /// Map-cache entry budget; `None` is the fully resident baseline.
    pub budget_entries: Option<u64>,
    /// Zipf skew of the churn phase (0 = uniform).
    pub skew: f64,
    /// Churn-phase map-cache hit rate (1.0 for the resident baseline).
    pub hit_rate: f64,
    /// Effective write amplification over the churn phase: host, GC *and*
    /// translation-page programs per host page written.
    pub write_amplification: f64,
    /// Host write bandwidth over the churn phase, MB/s of simulated time.
    pub bandwidth_mb_s: f64,
    /// 99th-percentile churn service time, milliseconds.
    pub p99_ms: f64,
    /// Translation-page reads issued during the churn phase.
    pub map_reads: u64,
    /// Translation-page programs issued during the churn phase.
    pub map_writes: u64,
    /// Mapping bytes resident in controller SRAM at end of run.
    pub map_bytes_resident: u64,
    /// Bytes a fully resident table would occupy.
    pub map_bytes_total: u64,
}

impl MapCachePoint {
    /// Resident mapping SRAM as a fraction of the full-table footprint.
    pub fn sram_fraction(&self) -> f64 {
        if self.map_bytes_total == 0 {
            return 1.0;
        }
        self.map_bytes_resident as f64 / self.map_bytes_total as f64
    }
}

/// The workload skews the sweep crosses with every budget.
pub(crate) fn skews() -> [f64; 2] {
    [0.0, 0.9]
}

/// The cache budgets swept for a working region of `region_pages`, smallest
/// first.  The largest (a quarter of the region) still keeps SRAM far below
/// the resident table at paper scale.
pub fn budgets(region_pages: u64) -> [u64; 3] {
    [
        (region_pages / 64).max(1),
        (region_pages / 16).max(1),
        (region_pages / 4).max(1),
    ]
}

struct Config {
    geometry: FlashGeometry,
    /// Pages of the working region the churn touches (the fill phase writes
    /// exactly this region).
    region_pages: u64,
    /// Churn operations per cell.
    churn_ops: u64,
    /// Pages per fill request (large requests keep the fill cheap).
    fill_pages_per_request: u64,
}

fn config_for(scale: Scale) -> Config {
    match scale {
        // TB-class: 16 elements x 20480 blocks x 256 pages x 16 KiB =
        // 1.25 TiB raw, ~1.1 TiB logical after over-provisioning and the
        // reserved map area.  A resident table would need ~0.5 GiB of SRAM;
        // the largest swept budget sits under 1/64th of that.
        Scale::Paper => Config {
            geometry: FlashGeometry {
                packages: 8,
                dies_per_package: 2,
                planes_per_die: 1,
                blocks_per_plane: 20480,
                pages_per_block: 256,
                page_bytes: 16384,
            },
            region_pages: 2 * 1024 * 1024,
            churn_ops: 40_000,
            fill_pages_per_request: 64,
        },
        Scale::Quick => Config {
            geometry: FlashGeometry {
                packages: 2,
                dies_per_package: 1,
                planes_per_die: 1,
                blocks_per_plane: 128,
                pages_per_block: 32,
                page_bytes: 4096,
            },
            region_pages: 2048,
            churn_ops: 4_000,
            fill_pages_per_request: 8,
        },
    }
}

fn device_config(config: &Config, budget: Option<u64>) -> SsdConfig {
    let mut ftl = FtlConfig::default();
    if let Some(entries) = budget {
        ftl = ftl.with_map_cache(MapCacheConfig::default().with_budget(entries));
    }
    SsdConfig {
        ftl,
        gangs: 2,
        ..device("map-cache", config.geometry)
    }
}

fn run_one(config: &Config, budget: Option<u64>, skew: f64) -> Result<MapCachePoint, DeviceError> {
    let mut ssd = Ssd::new(device_config(config, budget)).map_err(DeviceError::from)?;
    let page = ssd.logical_page_bytes();
    let logical_pages = ssd.capacity_bytes() / page;
    let region = config.region_pages.min(logical_pages);

    // Fill phase: write the working region once, in large requests, so the
    // churn phase overwrites mapped pages (and, with a finite budget, hits
    // materialized translation pages).
    let chunk = config.fill_pages_per_request * page;
    let mut at = fill(&mut ssd, region * page, chunk, 0, true)?;
    let first_id = region.div_ceil(config.fill_pages_per_request);

    let base = ssd.stats();
    let churn_start = at;
    let mut service = LatencyStats::new();
    let mut rng = SimRng::seed_from_u64(0x0DF7_15EED ^ (skew * 100.0) as u64);
    for id in first_id..first_id + config.churn_ops {
        let lpn = rng.zipf_usize(region as usize, skew) as u64;
        let c = ssd.submit(&BlockRequest::write(id, lpn * page, page, at))?;
        service.record(c.service_time());
        at = c.finish;
    }
    let end = ssd.stats();

    // Churn-phase deltas.
    let host_pages = end.ftl.host_writes - base.ftl.host_writes;
    let programs = (end.ftl.pages_programmed_host + end.ftl.gc_pages_moved + end.map.map_writes)
        - (base.ftl.pages_programmed_host + base.ftl.gc_pages_moved + base.map.map_writes);
    let accesses = (end.map.hits + end.map.misses) - (base.map.hits + base.map.misses);
    let hits = end.map.hits - base.map.hits;
    let hit_rate = if accesses == 0 {
        1.0
    } else {
        hits as f64 / accesses as f64
    };
    let elapsed = at.saturating_since(churn_start);
    let bytes = config.churn_ops * page;
    Ok(MapCachePoint {
        budget_entries: budget,
        skew,
        hit_rate,
        write_amplification: programs as f64 / host_pages as f64,
        bandwidth_mb_s: bytes as f64 / 1e6 / elapsed.as_secs_f64().max(1e-12),
        p99_ms: service.percentile(99.0).as_nanos() as f64 / 1e6,
        map_reads: end.map.map_reads - base.map.map_reads,
        map_writes: end.map.map_writes - base.map.map_writes,
        map_bytes_resident: end.map.bytes_resident,
        map_bytes_total: end.map.bytes_total,
    })
}

/// Runs the sweep: for each skew, a fully resident baseline followed by
/// every cache budget in ascending order.
pub fn run(scale: Scale) -> Result<Vec<MapCachePoint>, DeviceError> {
    let config = config_for(scale);
    let mut points = Vec::new();
    for skew in skews() {
        points.push(run_one(&config, None, skew)?);
        for budget in budgets(config.region_pages) {
            points.push(run_one(&config, Some(budget), skew)?);
        }
    }
    Ok(points)
}

/// The sweep as a report, with the skewed workload's smallest cache set
/// against its resident baseline in a note.
pub fn report(scale: Scale) -> Result<Report, ExperimentError> {
    let points = run(scale)?;
    let table = Table::of(
        &points,
        &[
            (col("skew", "", 2), |p| p.skew.into()),
            (col("budget", "entries", 0), |p| {
                p.budget_entries.map_or("resident".into(), Cell::Int)
            }),
            (col("hit_rate", "", 4), |p| p.hit_rate.into()),
            (col("write_amp", "x", 4), |p| p.write_amplification.into()),
            (col("bandwidth", "MB/s", 2), |p| p.bandwidth_mb_s.into()),
            (col("p99", "ms", 4), |p| p.p99_ms.into()),
            (col("map_reads", "", 0), |p| p.map_reads.into()),
            (col("map_writes", "", 0), |p| p.map_writes.into()),
            (col("map_resident", "B", 0), |p| p.map_bytes_resident.into()),
            (col("map_total", "B", 0), |p| p.map_bytes_total.into()),
            (col("sram_fraction", "", 6), |p| p.sram_fraction().into()),
        ],
    );
    let title = "Map-cache sweep: demand-paged mapping vs budget x skew";
    let mut report = Report::new("map_cache", title, scale, vec![table]);
    let skewed = || points.iter().filter(|p| p.skew > 0.0);
    let resident = skewed().find(|p| p.budget_entries.is_none());
    if let (Some(resident), Some(smallest)) =
        (resident, skewed().find(|p| p.budget_entries.is_some()))
    {
        report = report.note(format!(
            "At skew {:.1}, caching {:.3}% of the mapping table serves {:.1}% of lookups \
             from SRAM and delivers {:.1}% of the resident-table bandwidth.",
            smallest.skew,
            smallest.sram_fraction() * 100.0,
            smallest.hit_rate * 100.0,
            100.0 * smallest.bandwidth_mb_s / resident.bandwidth_mb_s,
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_hold_at_quick_scale() {
        let points = run(Scale::Quick).unwrap();
        // 2 skews x (resident baseline + 3 budgets).
        assert_eq!(points.len(), 8);
        for skew in skews() {
            let cells: Vec<&MapCachePoint> = points.iter().filter(|p| p.skew == skew).collect();
            assert_eq!(cells.len(), 4);
            let baseline = cells[0];
            assert_eq!(baseline.budget_entries, None);
            assert!((baseline.hit_rate - 1.0).abs() < 1e-12);
            assert_eq!(baseline.map_reads + baseline.map_writes, 0);
            assert_eq!(baseline.map_bytes_resident, baseline.map_bytes_total);

            // Finite budgets: real map traffic, partial SRAM residency, and
            // hit rate monotone in the budget.
            for pair in cells[1..].windows(2) {
                assert!(pair[0].budget_entries.unwrap() < pair[1].budget_entries.unwrap());
                assert!(
                    pair[0].hit_rate <= pair[1].hit_rate + 1e-9,
                    "skew {skew}: hit rate not monotone ({} vs {})",
                    pair[0].hit_rate,
                    pair[1].hit_rate
                );
            }
            for cell in &cells[1..] {
                assert!(cell.hit_rate < 1.0);
                assert!(cell.map_writes > 0, "no translation-page writebacks");
                assert!(cell.map_bytes_resident < cell.map_bytes_total);
                assert!(cell.sram_fraction() < 1.0);
                assert!(cell.write_amplification >= 1.0);
                assert!(cell.bandwidth_mb_s > 0.0);
                assert!(cell.p99_ms > 0.0);
            }
            // Map traffic costs bandwidth: the resident baseline is at
            // least as fast as the most constrained cache.
            assert!(
                cells[1].bandwidth_mb_s <= baseline.bandwidth_mb_s * 1.001,
                "skew {skew}: smallest budget ({} MB/s) outran the resident \
                 table ({} MB/s)",
                cells[1].bandwidth_mb_s,
                baseline.bandwidth_mb_s
            );
        }
    }
}
