//! Tail-latency attribution: where the p99.9 comes from.
//!
//! Runs `ossd_core::experiments::latency_blame` — a GC-active,
//! 4-initiator TPC-C slice with the latency-attribution subsystem enabled,
//! swept across demand-paged map-cache budgets — and reports, per request
//! class, the deep-tail percentiles (p50/p99/p99.9/p99.99) and the share
//! of p99.9-tail latency blamed on each component (GC, map I/O, fences,
//! arbitration, bus, ECC, the command's own flash time).
//!
//! Artifacts: one blame CSV per sweep point and the starved point's
//! cumulative blame as Perfetto counter tracks.  Quick runs write
//! `_quick`-suffixed files alongside.  Exits non-zero if the experiment
//! fails its own validation: one blame record per completion, every record
//! summing exactly to its latency, GC blamed in the tail of every point and
//! map I/O blamed exactly where the map is demand-paged.  Host cost is not
//! measured here: that is the benchmark's `telemetry.attached_cost_ratio`
//! (`benchmark/README.md`).
//!
//! Pass `--quick` for the CI smoke configuration.

use ossd_bench::{print_header, scale_from_args, Scale};
use ossd_core::experiments::latency_blame;
use ossd_telemetry::BlameCat;

fn main() {
    let scale = scale_from_args();
    print_header("Tail latency: per-request blame for the p99.9", scale);

    let blame = latency_blame::run(scale).expect("latency blame sweep");

    for point in &blame.points {
        println!(
            "-- map {}: {} completions --",
            point.label, point.completions
        );
        println!(
            "{:<8} {:>7} {:>10} {:>10} {:>10} {:>10}  {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
            "class",
            "count",
            "p50_us",
            "p99_us",
            "p99.9_us",
            "p99.99_us",
            "sq%",
            "flash%",
            "gc%",
            "map%",
            "bus%",
            "ecc%"
        );
        for class in &point.report.classes {
            println!(
                "{:<8} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>10.1}  \
                 {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}",
                class.class,
                class.count,
                class.p50_us,
                class.p99_us,
                class.p999_us,
                class.p9999_us,
                100.0 * class.share(BlameCat::SqWait),
                100.0 * class.share(BlameCat::Flash),
                100.0 * class.share(BlameCat::GcWait),
                100.0 * class.share(BlameCat::Map),
                100.0 * class.share(BlameCat::Bus),
                100.0 * class.share(BlameCat::Ecc),
            );
        }
    }

    let suffix = match scale {
        Scale::Paper => "",
        Scale::Quick => "_quick",
    };
    for point in &blame.points {
        let csv_path = format!("BENCH_tail_blame_{}{}.csv", slug(&point.label), suffix);
        std::fs::write(&csv_path, &point.blame_csv).expect("write blame csv");
        println!("wrote {csv_path}");
    }
    let counters_path = format!("BENCH_tail_counters{suffix}.trace.json");
    let starved = blame.points.last().expect("sweep is non-empty");
    std::fs::write(&counters_path, &starved.counters_json).expect("write counter tracks");
    println!("wrote {counters_path} (open in https://ui.perfetto.dev)");
}

/// Filesystem-safe sweep-point label (`"budget 2048"` -> `"budget2048"`).
fn slug(label: &str) -> String {
    label.chars().filter(|c| !c.is_whitespace()).collect()
}
