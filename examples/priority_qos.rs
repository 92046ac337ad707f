//! Priority-aware cleaning (§3.6, Figure 3 / Table 6): foreground requests
//! are protected from background garbage collection by postponing cleaning
//! while they are queued.
//!
//! Run with: `cargo run --release --example priority_qos`

use ossd::core::experiments::{figure3, Scale};

fn main() {
    println!("Priority-aware vs priority-agnostic cleaning (Figure 3 / Table 6 reproduction)");
    println!("(quick scale; `ossd-exp figure3` runs the full configuration)\n");
    let points = figure3::run(Scale::Quick).expect("experiment runs");
    println!(
        "{:>8} {:>14} {:>14} {:>14} {:>14} {:>12}",
        "writes%", "agnostic fg", "agnostic bg", "aware fg", "aware bg", "improvement"
    );
    for p in &points {
        println!(
            "{:>8} {:>12.2}ms {:>12.2}ms {:>12.2}ms {:>12.2}ms {:>11.1}%",
            p.write_pct,
            p.agnostic_foreground_ms,
            p.agnostic_background_ms,
            p.aware_foreground_ms,
            p.aware_background_ms,
            p.improvement_pct()
        );
    }
    println!(
        "\nWith few writes cleaning rarely runs and the schemes are equal; once \
         writes dominate, postponing cleaning while priority requests are \
         queued improves their response time (at some cost to background I/O)."
    );
}
