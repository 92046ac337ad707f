//! Demand-paged mapping under SRAM pressure: a Zipfian overwrite workload
//! replayed at three map-cache budgets (and against the fully resident
//! baseline), comparing hit rate, effective write amplification and
//! delivered bandwidth.
//!
//! Run with: `cargo run --release --example map_pressure`

use ossd::core::experiments::{map_cache, Scale};

fn main() {
    println!("Demand-paged mapping (ossd-mapcache) under SRAM pressure");
    println!("(quick scale; `ossd-exp map_cache` runs the TB-class configuration)\n");
    let points = map_cache::run(Scale::Quick).expect("experiment runs");

    println!(
        "{:>5} {:>10} {:>10} {:>9} {:>8} {:>10} {:>10} {:>10}",
        "skew", "budget", "sram frac", "hit rate", "eff. WA", "MB/s", "p99 (ms)", "map writes"
    );
    for p in &points {
        println!(
            "{:>5.2} {:>10} {:>10.5} {:>9.4} {:>8.3} {:>10.2} {:>10.4} {:>10}",
            p.skew,
            p.budget_entries
                .map(|b| b.to_string())
                .unwrap_or_else(|| "resident".to_string()),
            p.sram_fraction(),
            p.hit_rate,
            p.write_amplification,
            p.bandwidth_mb_s,
            p.p99_ms,
            p.map_writes
        );
    }

    println!(
        "\nWith a skewed workload a cache holding a few percent of the mapping \
         table already serves most translations from SRAM; shrinking the budget \
         raises miss-driven translation reads and dirty writebacks, which show \
         up as extra effective write amplification and lost bandwidth. The \
         resident rows are the infinite-SRAM baseline the cache converges to."
    );
}
