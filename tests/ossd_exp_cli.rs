//! The `ossd-exp` binary end to end: the one this package builds, run as a
//! process.

use std::process::{Command, Output};

/// Runs `ossd-exp` with `args` in a directory of its own, so any artifact
/// it writes lands there and not in the checkout.
fn ossd_exp(args: &[&str], dir: &str) -> Output {
    let cwd = std::env::temp_dir().join(format!("ossd_exp_cli_{dir}_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_ossd-exp"))
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("ossd-exp starts");
    std::fs::remove_dir_all(&cwd).unwrap();
    output
}

#[test]
fn an_experiment_at_quick_scale_prints_its_report() {
    let output = ossd_exp(&["table1", "--quick"], "table1");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "exit {:?}: {stdout}",
        output.status
    );
    assert!(
        stdout.contains("Table 1: Unwritten Contract (Disk vs SSD)"),
        "{stdout}"
    );
    assert!(stdout.contains("scale: Quick"), "{stdout}");
}

#[test]
fn an_unknown_experiment_prints_the_usage_and_fails() {
    let output = ossd_exp(&["table9", "--quick"], "unknown");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success());
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown experiment table9"), "{stderr}");
    assert!(
        stderr.contains("usage: ossd-exp <name|all> [--quick] [--csv]"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty());
}
