//! Informed cleaning (§3.5, Table 5): replay the same Postmark-style trace
//! against a default SSD and against one that receives free-page
//! notifications, and compare the cleaning work.
//!
//! Run with: `cargo run --release --example informed_cleaning`

use ossd::core::experiments::{table5, Scale};

fn main() {
    println!("Informed cleaning with free-page information (Table 5 reproduction)");
    println!("(quick scale; `ossd-exp table5` runs the full configuration)\n");
    let rows = table5::run(Scale::Quick).expect("experiment runs");
    println!(
        "{:>12} {:>16} {:>16} {:>10} {:>14} {:>14} {:>10}",
        "transactions",
        "default moved",
        "informed moved",
        "relative",
        "default (s)",
        "informed (s)",
        "relative"
    );
    for row in &rows {
        println!(
            "{:>12} {:>16} {:>16} {:>10.2} {:>14.2} {:>14.2} {:>10.2}",
            row.transactions,
            row.default_pages_moved,
            row.informed_pages_moved,
            row.relative_pages_moved(),
            row.default_cleaning_secs,
            row.informed_cleaning_secs,
            row.relative_cleaning_time()
        );
    }
    println!(
        "\nAs in the paper, cleaning that knows which logical pages the file \
         system freed migrates far fewer pages and spends less time cleaning."
    );
}
