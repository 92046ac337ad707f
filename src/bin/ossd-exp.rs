//! `ossd-exp`: regenerates the paper's tables and figures and the
//! experiments beyond them.
//!
//! ```text
//! ossd-exp <name|all> [--quick] [--csv]
//! ```
//!
//! Each experiment in `ossd::core::experiments::EXPERIMENTS` builds one
//! report, and this binary prints it: aligned text by default, CSV with
//! `--csv`.  `--quick` selects the fast scale the tests use; without it the
//! experiments run at paper scale.  Artifacts (traces, blame CSVs) are
//! written into the current directory, with a `_quick` suffix at quick
//! scale.  Host wall-clock timings go to stderr, so stdout is the same from
//! run to run.  Exit status: 1 when an experiment fails, 2 on bad usage.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use ossd::core::experiments::{Driver, Format, Scale, EXPERIMENTS};

/// What to run, in registry order, and how to print it.
#[derive(Debug)]
struct Options {
    experiments: Vec<(&'static str, Driver)>,
    scale: Scale,
    format: Format,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut name, mut scale, mut format) = (None, Scale::Paper, Format::Text);
    for arg in args {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--csv" => format = Format::Csv,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            other if name.is_none() => name = Some(other),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let name = name.ok_or("missing experiment name")?;
    let experiments: Vec<(&'static str, Driver)> = (EXPERIMENTS.iter())
        .filter(|(n, _)| name == "all" || name == *n)
        .copied()
        .collect();
    if experiments.is_empty() {
        return Err(format!("unknown experiment {name}"));
    }
    Ok(Options {
        experiments,
        scale,
        format,
    })
}

/// Runs one experiment, prints its report and writes its artifacts.
fn run(name: &str, driver: Driver, options: &Options) -> Result<(), String> {
    let report = driver(options.scale).map_err(|e| e.to_string())?;
    let rendered = report.render(options.format).map_err(|e| e.to_string())?;
    print!("{rendered}");
    for timing in &report.timings {
        eprintln!("{name}: {timing}");
    }
    for (file, contents) in &report.artifacts {
        let path = options.scale.artifact_file(file);
        std::fs::write(&path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        let line = format!("wrote {path} ({} bytes)", contents.len());
        match options.format {
            Format::Text => println!("{line}"),
            Format::Csv => eprintln!("{line}"),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(why) => {
            let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
            eprintln!("ossd-exp: {why}\nusage: ossd-exp <name|all> [--quick] [--csv]");
            eprintln!("experiments: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let mut status = ExitCode::SUCCESS;
    for (i, &(name, driver)) in options.experiments.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(why) = run(name, driver, &options) {
            eprintln!("ossd-exp {name}: {why}");
            status = ExitCode::from(1);
        }
    }
    status
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &[&str]) -> Result<Options, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_name_alone_runs_at_paper_scale_as_text() {
        let options = parse_str(&["table2"]).unwrap();
        assert_eq!(options.experiments.len(), 1);
        assert_eq!(options.experiments[0].0, "table2");
        assert_eq!(options.scale, Scale::Paper);
        assert_eq!(options.format, Format::Text);
    }

    #[test]
    fn flags_select_quick_scale_and_csv_in_any_order() {
        let options = parse_str(&["--csv", "all", "--quick"]).unwrap();
        assert_eq!(options.experiments.len(), EXPERIMENTS.len());
        assert_eq!(options.scale, Scale::Quick);
        assert_eq!(options.format, Format::Csv);
    }

    #[test]
    fn bad_usage_is_an_error() {
        assert!(parse_str(&[]).unwrap_err().contains("missing"));
        assert!(parse_str(&["table9"])
            .unwrap_err()
            .contains("unknown experiment"));
        assert!(parse_str(&["table1", "-q"])
            .unwrap_err()
            .contains("unknown option"));
        assert!(parse_str(&["table1", "table2"]).is_err());
    }

    #[test]
    fn quick_artifacts_carry_a_suffix() {
        let trace = "BENCH_trace.trace.json";
        assert_eq!(
            Scale::Quick.artifact_file(trace),
            "BENCH_trace_quick.trace.json"
        );
        assert_eq!(Scale::Paper.artifact_file(trace), trace);
    }
}
