//! `compare <a.json> <b.json>`: `a` is the baseline, `b` the candidate.
//!
//! Simulated-clock metrics and fingerprints must be equal exactly: a change
//! that only speeds the simulator up must leave them alone.  Host-clock
//! metrics may not be worse than the baseline by more than their bound, and
//! a metric whose own segment-to-segment spread is wider than its bound is
//! reported as unresolved — the runs cannot tell — never as unchanged.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Within,
    Info,
    Differs,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Within => "within bound",
            Verdict::Info => "no bound",
            Verdict::Differs => "DIFFERS",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }

    fn ok(self) -> bool {
        matches!(self, Verdict::Same | Verdict::Within | Verdict::Info)
    }
}

/// A run's own quartile spread of one metric, as a share of its value.
fn own_spread(metric: &Json) -> Option<f64> {
    let (q1, q3) = (metric["q1"].as_f64()?, metric["q3"].as_f64()?);
    let value = metric["value"].as_f64()?;
    (value != 0.0).then(|| (q3 - q1).abs() / value.abs())
}

/// Judges one metric present in both files.  Returns the verdict and by
/// what share of the baseline the candidate is worse (negative: better).
pub fn judge(a: &Json, b: &Json) -> (Verdict, f64) {
    let (va, vb) = match (a["value"].as_f64(), b["value"].as_f64()) {
        (Some(va), Some(vb)) => (va, vb),
        _ => return (Verdict::Differs, f64::NAN),
    };
    let worse_by = if va == 0.0 {
        0.0
    } else if a["better"].as_str() == Some("higher") {
        (va - vb) / va.abs()
    } else {
        (vb - va) / va.abs()
    };
    if a["clock"].as_str() != Some("host") {
        let verdict = if va == vb {
            Verdict::Same
        } else {
            Verdict::Differs
        };
        return (verdict, worse_by);
    }
    let Some(bound) = a["bound"].as_f64() else {
        return (Verdict::Info, worse_by);
    };
    let noisy = [a, b]
        .iter()
        .any(|m| own_spread(m).is_some_and(|s| s > bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [path_a, path_b] = args else {
        return Err("usage: compare <a.json> <b.json>".to_string());
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let (ma, mb) = (&a["manifest"], &b["manifest"]);
    for key in ["workload", "seed"] {
        if ma[key] != mb[key] {
            return Err(format!(
                "not comparable: {key} is {:?} in {path_a} and {:?} in {path_b}",
                ma[key], mb[key]
            ));
        }
    }
    println!(
        "workload {} seed {}: {} ({}) -> {} ({})",
        ma["workload"].as_str().unwrap_or("?"),
        ma["seed"].as_f64().unwrap_or(f64::NAN),
        ma["git_rev"].as_str().unwrap_or("?"),
        ma["mode"].as_str().unwrap_or("?"),
        mb["git_rev"].as_str().unwrap_or("?"),
        mb["mode"].as_str().unwrap_or("?"),
    );
    let mut ok = true;

    // The runs simulated the same thing as far as both of them went.
    let (fa, fb) = (
        a["segment_fingerprints"].as_array(),
        b["segment_fingerprints"].as_array(),
    );
    let shared = fa.len().min(fb.len());
    let same = shared > 0 && fa[..shared] == fb[..shared];
    println!(
        "sim_fingerprint over the first {shared} segments: {}",
        if same { "same" } else { "DIFFERS" }
    );
    ok &= same;

    // Metrics are only like for like when both runs covered the same window.
    let same_window = ["mode", "segments", "segment_cmds"]
        .iter()
        .all(|key| ma[*key] == mb[*key]);
    if !same_window {
        println!("modes or segment counts differ: metrics not compared");
        return Ok(ok);
    }
    for metric_a in a["metrics"].as_array() {
        let name = metric_a["name"].as_str().unwrap_or("?");
        let Some(metric_b) = b["metrics"]
            .as_array()
            .iter()
            .find(|m| m["name"] == metric_a["name"])
        else {
            println!("{name}: missing from {path_b}");
            ok = false;
            continue;
        };
        let (verdict, worse_by) = judge(metric_a, metric_b);
        println!(
            "{name}: {} -> {} {} ({:+.2}% worse) {}",
            crate::report::num(metric_a["value"].as_f64().unwrap_or(f64::NAN)),
            crate::report::num(metric_b["value"].as_f64().unwrap_or(f64::NAN)),
            metric_a["unit"].as_str().unwrap_or(""),
            worse_by * 100.0,
            verdict.label()
        );
        ok &= verdict.ok();
    }
    if b["failed"].as_f64() > a["failed"].as_f64() {
        println!(
            "failed commands rose: {:?} -> {:?}",
            a["failed"], b["failed"]
        );
        ok = false;
    }
    for (path, doc) in [(path_a, &a), (path_b, &b)] {
        if doc.get("correct") != Some(&Json::Bool(true)) {
            println!("{path}: the run failed its own correctness checks");
            ok = false;
        }
    }
    println!("compare {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(clock: &str, better: &str, value: f64, spread: f64, bound: Option<f64>) -> Json {
        let bound = bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        Json::parse(&format!(
            "{{\"value\": {value}, \"clock\": \"{clock}\", \"better\": \"{better}\", \
             \"q1\": {}, \"q3\": {}{bound}}}",
            value * (1.0 - spread / 2.0),
            value * (1.0 + spread / 2.0)
        ))
        .unwrap()
    }

    #[test]
    fn sim_metrics_must_be_equal_exactly() {
        let a = metric("sim", "lower", 15.570378582639703, 0.0, Some(0.01));
        assert_eq!(judge(&a, &a).0, Verdict::Same);
        let b = metric("sim", "lower", 15.570378582639705, 0.0, Some(0.01));
        assert_eq!(judge(&a, &b).0, Verdict::Differs);
    }

    #[test]
    fn host_metrics_are_judged_by_direction_bound_and_spread() {
        let base = metric("host", "higher", 1000.0, 0.02, Some(0.10));
        let slower = metric("host", "higher", 880.0, 0.02, Some(0.10));
        let slightly = metric("host", "higher", 950.0, 0.02, Some(0.10));
        let faster = metric("host", "higher", 1500.0, 0.02, Some(0.10));
        assert_eq!(judge(&base, &slower).0, Verdict::Worse);
        assert_eq!(judge(&base, &slightly).0, Verdict::Within);
        assert_eq!(judge(&base, &faster).0, Verdict::Within);
        // Lower-is-better flips the direction.
        let cost = metric("host", "lower", 100.0, 0.02, Some(0.10));
        let dearer = metric("host", "lower", 120.0, 0.02, Some(0.10));
        assert_eq!(judge(&cost, &dearer).0, Verdict::Worse);
        assert_eq!(judge(&dearer, &cost).0, Verdict::Within);
        // A run noisier than the bound cannot resolve the question either way.
        let noisy = metric("host", "higher", 1000.0, 0.15, Some(0.10));
        assert_eq!(judge(&base, &noisy).0, Verdict::Unresolved);
        assert_eq!(judge(&noisy, &slower).0, Verdict::Unresolved);
        // Per-layer metrics carry no bound: they explain, they do not gate.
        let layer = metric("host", "lower", 100.0, 0.5, None);
        assert_eq!(judge(&layer, &dearer).0, Verdict::Info);
    }
}
