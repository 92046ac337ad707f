//! The repository's benchmark.  See `benchmark/README.md`.
//!
//! ```text
//! ossd-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! ossd-benchmark run --smoke [--seed <n>]
//! ossd-benchmark compare <a.json> <b.json>
//! ossd-benchmark saturation [--seed <n>]
//! ```

mod compare;
mod drive;
mod gen;
mod json;
mod layers;
mod lower;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{contract_line, results_json, Manifest, MetricDef, Results, END_TO_END, PER_LAYER};
use workloads::{Scale, Workload};

const USAGE: &str = "usage:
  ossd-benchmark run --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
  ossd-benchmark run --smoke [--seed <n>]
  ossd-benchmark compare <a.json> <b.json>
  ossd-benchmark saturation [--seed <n>]
workloads: qd1_gc_churn qd1_read_mostly mq_open_paged fleet_parity_burst";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=120).contains(&parsed.seconds) {
                    return Err("--seconds must be between 1 and 120".to_string());
                }
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Prints every metric as `name value unit`, writes the results file (and
/// the trace, if any), and returns the driver's line.
fn emit(
    manifest: &Manifest,
    results: &Results,
    defs: &[MetricDef],
    trace_json: Option<String>,
) -> String {
    for m in &results.measured {
        let unit = report::def_of(&m.name).map_or("", |d| d.unit);
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("{} {} {}{}", m.name, report::num(m.value), unit, note);
    }
    println!("sim_fingerprint {}", results.sim_fingerprint());
    for c in &results.checks {
        let (kind, verdict) = match (c.gates, c.pass) {
            (_, true) => ("check", "ok"),
            (true, false) => ("check", "FAILED"),
            (false, false) => ("advice", "not met"),
        };
        println!("{kind} {} {verdict}: {}", c.name, c.detail);
    }
    let dir = report::out_dir();
    let stem = format!(
        "{}-seed{}{}",
        manifest.workload,
        manifest.seed,
        match manifest.mode {
            "timed" => "",
            "trace" => "-trace",
            _ => "-smoke",
        }
    );
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            dir.join(format!("{stem}.json")),
            results_json(manifest, results),
        )?;
        if let Some(trace) = trace_json {
            std::fs::write(dir.join(format!("{stem}.chrome.json")), trace)?;
        }
        Ok(())
    });
    match written {
        Ok(()) => println!("results {}", dir.join(format!("{stem}.json")).display()),
        Err(e) => eprintln!("could not write results under {}: {e}", dir.display()),
    }
    contract_line(defs, results)
}

fn run_one(w: &Workload, args: &RunArgs, mode: &'static str) -> (bool, String) {
    let mut manifest = Manifest::new(w.name, mode, args.seed, args.seconds);
    manifest.segment_cmds = w.segment_cmds();
    if args.trace {
        manifest.segments = layers::traced_segments(w, args.seconds);
        let (results, spans) = layers::run_traced(w, args.seed, manifest.segments);
        let line = emit(
            &manifest,
            &results,
            &PER_LAYER,
            Some(spans.to_chrome_json()),
        );
        (results.correct(), line)
    } else {
        manifest.segments = run::segments_for(args.seconds);
        let results = run::run_timed(w, args.seed, manifest.segments);
        let line = emit(&manifest, &results, &END_TO_END, None);
        (results.correct(), line)
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let mut args = parse_run(args)?;
    if args.smoke {
        // All four workloads, untraced then traced, at the small scale: every
        // check runs, no number means anything.
        args.seconds = 1;
        let mut ok = true;
        for w in workloads::ALL {
            let w = w.at(Scale::Smoke);
            for trace in [false, true] {
                args.trace = trace;
                println!("== smoke {} trace={}", w.name, trace as u8);
                let (correct, _) = run_one(&w, &args, "smoke");
                ok &= correct;
            }
        }
        println!("smoke {}", if ok { "ok" } else { "FAILED" });
        return Ok(ok);
    }
    let name = args.workload.clone().ok_or("--workload is required")?;
    let w = workloads::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mode = if args.trace { "trace" } else { "timed" };
    println!(
        "workload {} ({mode}, seed {}): {}",
        w.name, args.seed, w.why
    );
    let (correct, line) = run_one(&w, &args, mode);
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd_compare(&args[1..]),
        Some("saturation") => layers::cmd_saturation(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
