//! Committed outputs: what `ossd-exp all` prints at both scales, as text and
//! CSV, a length and FNV-1a 64 line per artifact it writes, and the stdout
//! of every example, compared byte for byte with `tests/golden/`.
//!
//! `scripts/bless.sh` regenerates the goldens from the release binaries, so
//! a change that moves a printed number shows the move in its diff.  The
//! experiments run here in-process, once per scale, and each report is
//! rendered in both formats exactly as `ossd-exp` prints it.  Paper scale
//! takes ~25 s in release and runs under `--ignored`.
//!
//! The example check first runs `cargo build --examples` in this test's own
//! profile and target directory, so it never runs a stale binary, however
//! narrowly `cargo test` was invoked.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use ossd::core::experiments::{Format, Scale, EXPERIMENTS};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The FNV-1a 64 hash `scripts/fnv64.rs` prints.
fn fnv64(bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `None` when `actual` equals the golden `file`, otherwise the first
/// differing line of each.
fn mismatch(file: &str, actual: &str) -> Option<String> {
    let path = golden_dir().join(file);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    if expected == actual {
        return None;
    }
    let (mut expected_lines, mut actual_lines) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (expected_lines.next(), actual_lines.next()) {
            (None, None) => return Some(format!("{file}: only the line endings differ")),
            (e, a) if e != a => {
                return Some(format!(
                    "{file}:{line} differs\n  golden: {}\n  actual: {}",
                    e.unwrap_or("<end of file>"),
                    a.unwrap_or("<end of file>"),
                ))
            }
            _ => {}
        }
    }
    unreachable!()
}

fn assert_all_match(files: &[(String, String)]) {
    let failures: Vec<String> = (files.iter())
        .filter_map(|(file, actual)| mismatch(file, actual))
        .collect();
    assert!(
        failures.is_empty(),
        "{}\n(scripts/bless.sh regenerates the goldens)",
        failures.join("\n")
    );
}

/// Runs every experiment once at `scale` and checks what `ossd-exp all`
/// would print as text and as CSV, and the artifacts it would write.
fn check_scale(scale: Scale, stem: &str) {
    let (mut text, mut csv, mut artifacts) = (String::new(), String::new(), String::new());
    for (i, (name, driver)) in EXPERIMENTS.iter().enumerate() {
        if i > 0 {
            text.push('\n');
            csv.push('\n');
        }
        let report = driver(scale).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (format, out) in [(Format::Text, &mut text), (Format::Csv, &mut csv)] {
            out.push_str(
                &report
                    .render(format)
                    .unwrap_or_else(|e| panic!("{name}: {e}")),
            );
        }
        for (file, contents) in &report.artifacts {
            let path = scale.artifact_file(file);
            let len = contents.len();
            let _ = writeln!(text, "wrote {path} ({len} bytes)");
            let _ = writeln!(
                artifacts,
                "{path} {len} {:016x}",
                fnv64(contents.as_bytes())
            );
        }
    }
    assert_all_match(&[
        (format!("{stem}.txt"), text),
        (format!("{stem}.csv"), csv),
        (format!("{stem}_artifacts.txt"), artifacts),
    ]);
}

#[test]
fn quick_scale_output_matches_the_goldens() {
    check_scale(Scale::Quick, "quick");
}

#[test]
#[ignore = "paper scale, ~25 s in release"]
fn paper_scale_output_matches_the_goldens() {
    check_scale(Scale::Paper, "paper");
}

/// Builds every example in the profile this test was built in (the
/// directory above `deps/`) and returns the directory they land in.
fn build_examples() -> PathBuf {
    let this = std::env::current_exe().unwrap();
    let profile_dir = this.parent().and_then(Path::parent).unwrap();
    let profile = match profile_dir.file_name().unwrap().to_str().unwrap() {
        "debug" => "dev",
        name => name,
    };
    let command = format!("cargo build --examples --profile {profile}");
    let status = Command::new(env!("CARGO"))
        .args(["build", "--quiet", "--examples", "--profile", profile])
        .arg("--target-dir")
        .arg(profile_dir.parent().unwrap())
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .status()
        .unwrap_or_else(|e| panic!("`{command}`: {e}"));
    assert!(status.success(), "`{command}` failed: {status}");
    profile_dir.join("examples")
}

#[test]
fn example_stdout_matches_the_goldens() {
    let examples_dir = build_examples();
    let sources =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("examples")).unwrap();
    let mut names: Vec<String> = (sources.map(|entry| entry.unwrap().path()))
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let outputs: Vec<(String, String)> = (names.iter())
        .map(|name| {
            let binary = examples_dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
            let output = (Command::new(&binary).output())
                .unwrap_or_else(|e| panic!("{}: {e}", binary.display()));
            assert!(output.status.success(), "{name}: {:?}", output.status);
            let stdout = String::from_utf8(output.stdout).unwrap();
            (format!("examples/{name}.txt"), stdout)
        })
        .collect();
    assert_all_match(&outputs);
}
