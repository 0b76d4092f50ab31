//! The benchmark's own determinism test: two runs of a workload with the
//! same seed pass every gate and print identical counts and simulated
//! metrics. Each run measures one batch (`--seconds 1`).
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

fn run(workload: &str, seed: u64) -> String {
    let work = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{workload}"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string(), "--seconds", "1"])
        .args(["--trace", "0", "--work"])
        .arg(&work)
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {:?}\n{stdout}", out.status);
    assert!(stdout.lines().last().is_some_and(|l| l.starts_with("{\"correct\":true,")), "{stdout}");
    stdout
}

/// The lines that must repeat exactly: counts, and the simulated or
/// ratio metrics that do not depend on timing.
fn deterministic(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| {
            l.starts_with("count ")
                || ["failed_ratio", "txn_per_ktick", "commit_p50_ticks", "commit_p99_ticks"]
                    .iter()
                    .any(|m| l.starts_with(&format!("metric {m}")))
        })
        .collect()
}

fn repeats(workload: &str) {
    let (a, b) = (run(workload, 7), run(workload, 7));
    let (ca, cb) = (deterministic(&a), deterministic(&b));
    assert!(ca.iter().any(|l| l.starts_with("count ")), "{workload} printed no counts");
    assert_eq!(ca, cb, "{workload}: counts differ between two runs of seed 7");
}

#[test]
fn check_counts_repeat() {
    repeats("check");
}

#[test]
fn check_spill_counts_repeat() {
    repeats("check-spill");
}

#[test]
fn pipeline_counts_repeat() {
    repeats("pipeline");
}

#[test]
fn trace_audit_counts_repeat() {
    repeats("trace-audit");
}

#[test]
fn bad_arguments_exit_2() {
    for args in [&["--workload", "nope"][..], &["--seed", "1"], &["--trace", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
