//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! by calling the drivers in `ossd_core::experiments`.  By default the
//! binaries run at [`Scale::Paper`]; pass `--quick` to use the fast
//! configuration the unit and integration tests use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ossd_core::experiments::Scale;

/// Parses the experiment scale from the process arguments (`--quick` selects
/// [`Scale::Quick`], anything else runs the full paper-scale configuration).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick" || a == "-q") {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

/// Prints a standard experiment header.
pub fn print_header(title: &str, scale: Scale) {
    println!("================================================================");
    println!("{title}");
    println!("scale: {scale:?} (pass --quick for the fast configuration)");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_paper() {
        // The test harness passes its own arguments, none of which are
        // `--quick`, so the default path is exercised here.
        assert_eq!(scale_from_args(), Scale::Paper);
    }
}
