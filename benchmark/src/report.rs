//! Metric definitions, the run manifest and the results a run writes.
//!
//! The two tables below are the benchmark's vocabulary: `BENCHMARK.json`
//! lists exactly these names, and a run prints exactly these names.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::stats::quartiles;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which clock a metric reads.  Simulated-clock metrics are pure functions
/// of seed and configuration and must repeat exactly; host-clock metrics
/// are subject to the machine's noise and are compared within a bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    fn as_str(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only; per-layer metrics explain, they do not gate).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: Clock,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        clock,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// What a user of the simulator sees, per workload.  `failed_share` is
/// printed with these but carried to the driver as `failed`/`attempted`,
/// because it is 0 on a healthy run and a bound is a share of the baseline.
///
/// The bounds are for medians over runs with *different* seeds (with the
/// same seed the simulated-clock metrics must repeat exactly, and `compare`
/// holds them to that).  Each is at least three times the widest quartile
/// spread any workload showed over two sets of ten seeds on the 2-core
/// reference machine: 15% for the host rates (the machine itself switches
/// between two speeds a fifth apart), 3.7% / 4.2% / 0.8% for p50 / p99.9 /
/// write amplification on `mq_open_paged`, under 0.2% for every other
/// simulated metric on every other workload.
pub const END_TO_END: [MetricDef; 8] = [
    e2e("host_cmds_per_s", "1/s", Higher, Host, 0.25),
    e2e("host_ns_per_flash_op", "ns", Lower, Host, 0.25),
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("peak_rss_mb", "MB", Lower, Host, 0.10),
    e2e("sim_mb_s", "MB/s", Higher, Sim, 0.01),
    e2e("sim_lat_p50_us", "us", Lower, Sim, 0.12),
    e2e("sim_lat_p999_us", "us", Lower, Sim, 0.15),
    e2e("write_amp", "x", Lower, Sim, 0.03),
];

/// Commands with a serve error, a non-`Ok` status or no completion, over
/// commands attempted.  It may not rise at all.
pub const FAILED_SHARE: MetricDef = e2e("failed_share", "ratio", Lower, Sim, 0.0);

/// One layer at a time, from the traced run only.  A layer that does no
/// work on a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 59] = [
    layer("sim.event_ns", "ns", Lower, Host),
    layer("sim.engine_ns_per_event", "ns", Lower, Host),
    layer("sim.events_per_cmd", "count", Lower, Sim),
    layer("sim.self_ns_per_cmd", "ns", Lower, Host),
    layer("block.arbitrate_ns_per_cmd", "ns", Lower, Host),
    layer("block.self_ns_per_cmd", "ns", Lower, Host),
    layer("block.session_cmds", "count", Higher, Sim),
    layer("ssd.incl_ns_per_cmd", "ns", Lower, Host),
    layer("ssd.self_ns_per_cmd", "ns", Lower, Host),
    layer("ssd.sched_pick_ns", "ns", Lower, Host),
    layer("ssd.peak_queued", "count", Lower, Sim),
    layer("ssd.flash_ops_per_cmd", "count", Lower, Sim),
    layer("ssd.element_util", "ratio", Higher, Sim),
    layer("ssd.burst_cost_ratio", "x", Lower, Host),
    layer("ssd.sim_lat_p999_us.load50", "us", Lower, Sim),
    layer("ssd.sim_lat_p999_us.load70", "us", Lower, Sim),
    layer("ssd.sim_lat_p999_us.load90", "us", Lower, Sim),
    layer("ssd.sim_backlog_ms.load90", "ms", Lower, Sim),
    layer("ftl.incl_ns_per_cmd", "ns", Lower, Host),
    layer("ftl.self_ns_per_cmd", "ns", Lower, Host),
    layer("ftl.write_ns_per_page", "ns", Lower, Host),
    layer("ftl.read_ns_per_page", "ns", Lower, Host),
    layer("ftl.pages_per_cmd", "count", Lower, Sim),
    layer("ftl.replay_exact", "bool", Higher, Sim),
    layer("gc.pick_ns", "ns", Lower, Host),
    layer("gc.index_update_ns", "ns", Lower, Host),
    layer("gc.moved_per_erase", "count", Lower, Sim),
    layer("gc.erases_per_kcmd", "count", Lower, Sim),
    layer("gc.stall_share", "ratio", Lower, Sim),
    layer("gc.wa_vs_analytic", "x", Lower, Sim),
    layer("flash.program_ns", "ns", Lower, Host),
    layer("flash.invalidate_ns", "ns", Lower, Host),
    layer("flash.erase_ns", "ns", Lower, Host),
    layer("flash.programs_per_cmd", "count", Lower, Sim),
    layer("flash.reads_per_cmd", "count", Lower, Sim),
    layer("flash.erases_per_kcmd", "count", Lower, Sim),
    layer("mapcache.hit_rate", "ratio", Higher, Sim),
    layer("mapcache.hit_rate.b4x", "ratio", Higher, Sim),
    layer("mapcache.lookup_ns", "ns", Lower, Host),
    layer("mapcache.miss_ns", "ns", Lower, Host),
    layer("mapcache.map_reads_per_kcmd", "count", Lower, Sim),
    layer("mapcache.map_writes_per_kcmd", "count", Lower, Sim),
    layer("mapcache.dirty_evict_share", "ratio", Lower, Sim),
    layer("reliability.decode_ns", "ns", Lower, Host),
    layer("reliability.retries_per_kread", "count", Lower, Sim),
    layer("reliability.uncorrectable_per_mread", "count", Lower, Sim),
    layer("fleet.incl_ns_per_cmd", "ns", Lower, Host),
    layer("fleet.self_ns_per_cmd", "ns", Lower, Host),
    layer("fleet.plan_ns_per_cmd", "ns", Lower, Host),
    layer("fleet.fanout_per_cmd", "count", Lower, Sim),
    layer("fleet.thread_speedup", "x", Higher, Host),
    layer("fleet.session_cost_ratio", "x", Lower, Host),
    layer("fleet.parity_tax", "x", Lower, Sim),
    layer("fleet.scrub_clean", "bool", Higher, Sim),
    layer("telemetry.attached_cost_ratio", "x", Lower, Host),
    layer("telemetry.events_per_cmd", "count", Lower, Sim),
    layer("telemetry.dropped_events", "count", Lower, Sim),
    layer("telemetry.blame_exact", "bool", Higher, Sim),
    layer("trace_overhead_ratio", "x", Lower, Host),
];

pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .chain(std::iter::once(&FAILED_SHARE))
        .find(|d| d.name == name)
}

/// One measured value.  `samples` are the per-segment values a host-clock
/// median was taken over; they give the quartiles `compare` needs to tell
/// "unchanged" from "unresolved".
#[derive(Clone, Debug)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub samples: Vec<f64>,
    /// Free-form qualifier (sample count of a percentile, "approximate", …).
    pub note: String,
}

#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub pass: bool,
    /// Whether failing it fails the run.  Checks of simulated behaviour
    /// gate; the two that rest on host timings are advisory, because the
    /// machine's noise must not be able to fail a correct run.
    pub gates: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Clone, Debug, Default)]
pub struct Results {
    pub measured: Vec<Measured>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint after each timed segment; the last is `sim_fingerprint`.
    pub fingerprints: Vec<String>,
    /// Workload parameters, echoed into the manifest.
    pub parameters: Vec<(String, String)>,
}

impl Results {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_noted(name, value, "");
    }

    pub fn set_noted(&mut self, name: &str, value: f64, note: &str) {
        self.measured.push(Measured {
            name: name.to_string(),
            value,
            samples: Vec::new(),
            note: note.to_string(),
        });
    }

    /// A host-clock metric: the median of its per-segment `samples`.
    pub fn set_median(&mut self, name: &str, samples: Vec<f64>) {
        self.measured.push(Measured {
            name: name.to_string(),
            value: quartiles(&samples).1,
            samples,
            note: String::new(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.measured
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn check(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check {
            name,
            pass,
            gates: true,
            detail,
        });
    }

    pub fn advise(&mut self, name: &'static str, pass: bool, detail: String) {
        self.checks.push(Check {
            name,
            pass,
            gates: false,
            detail,
        });
    }

    pub fn param(&mut self, key: &str, value: impl ToString) {
        self.parameters.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.pass || !c.gates)
            && self.measured.iter().all(|m| m.value.is_finite())
    }

    pub fn sim_fingerprint(&self) -> &str {
        self.fingerprints.last().map_or("", String::as_str)
    }
}

/// Where and how a run was made.
#[derive(Clone, Debug)]
pub struct Manifest {
    pub workload: String,
    pub mode: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub segments: u32,
    pub segment_cmds: u64,
    pub git_rev: String,
    pub nproc: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
}

impl Manifest {
    pub fn new(workload: &str, mode: &'static str, seed: u64, seconds: u64) -> Self {
        Manifest {
            workload: workload.to_string(),
            mode,
            seed,
            seconds,
            segments: 0,
            segment_cmds: 0,
            git_rev: git_rev(),
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// The repository root: the benchmark's own directory sits directly in it.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit checked out, read straight from `.git` (no process is
/// spawned); "unknown" in an exported tree.
fn git_rev() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// A number as JSON: Rust's shortest round-trip decimal, so a value read
/// back compares equal to the value written.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The results file: manifest, every metric with unit, direction, bound and
/// segment quartiles, every check, the fingerprints.  `compare` reads this.
pub fn results_json(manifest: &Manifest, results: &Results) -> String {
    let mut out = String::from("{\n  \"manifest\": {\n");
    let _ = writeln!(out, "    \"workload\": {},", quoted(&manifest.workload));
    let _ = writeln!(out, "    \"mode\": {},", quoted(manifest.mode));
    let _ = writeln!(out, "    \"seed\": {},", manifest.seed);
    let _ = writeln!(out, "    \"seconds\": {},", manifest.seconds);
    let _ = writeln!(out, "    \"segments\": {},", manifest.segments);
    let _ = writeln!(out, "    \"segment_cmds\": {},", manifest.segment_cmds);
    let _ = writeln!(out, "    \"git_rev\": {},", quoted(&manifest.git_rev));
    let _ = writeln!(out, "    \"nproc\": {},", manifest.nproc);
    let _ = writeln!(out, "    \"rustc\": {},", quoted(manifest.rustc));
    let _ = writeln!(out, "    \"profile\": {},", quoted(manifest.profile));
    out.push_str("    \"parameters\": {");
    for (i, (k, v)) in results.parameters.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n      {}: {}", quoted(k), quoted(v));
    }
    out.push_str("\n    }\n  },\n");
    let _ = writeln!(out, "  \"claim\": null,");
    let _ = writeln!(out, "  \"correct\": {},", results.correct());
    let _ = writeln!(out, "  \"attempted\": {},", results.attempted);
    let _ = writeln!(out, "  \"failed\": {},", results.failed);
    let _ = writeln!(
        out,
        "  \"sim_fingerprint\": {},",
        quoted(results.sim_fingerprint())
    );
    let prints: Vec<String> = results.fingerprints.iter().map(|f| quoted(f)).collect();
    let _ = writeln!(out, "  \"segment_fingerprints\": [{}],", prints.join(", "));
    out.push_str("  \"metrics\": [");
    for (i, m) in results.measured.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"name\": {}, \"value\": {}",
            quoted(&m.name),
            num(m.value)
        );
        if let Some(def) = def_of(&m.name) {
            let _ = write!(
                out,
                ", \"unit\": {}, \"clock\": {}, \"better\": {}",
                quoted(def.unit),
                quoted(def.clock.as_str()),
                quoted(match def.better {
                    Higher => "higher",
                    Lower => "lower",
                })
            );
            if let Some(bound) = def.bound {
                let _ = write!(out, ", \"bound\": {}", num(bound));
            }
        }
        if !m.samples.is_empty() {
            let (q1, _, q3) = quartiles(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
            let _ = write!(
                out,
                ", \"q1\": {}, \"q3\": {}, \"segments\": {}, \"samples\": [{}]",
                num(q1),
                num(q3),
                m.samples.len(),
                samples.join(", ")
            );
        }
        if !m.note.is_empty() {
            let _ = write!(out, ", \"note\": {}", quoted(&m.note));
        }
        out.push('}');
    }
    out.push_str("\n  ],\n  \"checks\": [");
    for (i, c) in results.checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"name\": {}, \"pass\": {}, \"gates\": {}, \"detail\": {}}}",
            quoted(c.name),
            c.pass,
            c.gates,
            quoted(&c.detail)
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The driver's line: exactly `correct`, `attempted`, `failed` and the
/// metrics of `defs`, each with its value as measured and its unit.
pub fn contract_line(defs: &[MetricDef], results: &Results) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = results
                .get(d.name)
                .unwrap_or_else(|| panic!("run produced no value for {}", d.name));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quoted(d.name),
                num(value),
                quoted(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        results.correct(),
        results.attempted,
        results.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads;

    /// `BENCHMARK.json` is the driver's copy of this file's tables and of
    /// the workload list; the two may not drift apart.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc[key]
                .as_array()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                        m["better"].as_str().unwrap().to_string(),
                        m["bound"].as_f64(),
                    )
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    let better = match d.better {
                        Higher => "higher",
                        Lower => "lower",
                    };
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        better.to_string(),
                        d.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        let listed: Vec<(&str, &str)> = doc["workloads"]
            .as_array()
            .iter()
            .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
            .collect();
        let ours: Vec<(&str, &str)> = workloads::ALL.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
        assert!(ours.iter().all(|(_, why)| why.len() <= 200));
        let paths: Vec<&str> = doc["paths"]
            .as_array()
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
