//! Negative-path CLI regression tests for `gcs-scenarios` failure
//! handling.
//!
//! The `trace` and `bench --telemetry` verbs used to reach `.expect()`
//! calls on user-reachable failure paths, killing the process with a
//! panic backtrace instead of a diagnostic. Every failure driven here
//! must exit with the documented code (1 = generic error) and print a
//! single readable `error:` line to stderr — never `panicked at`.

use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcs-scenarios"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts the documented generic-failure contract: exit code 1, a
/// readable `error:` diagnostic, and no panic machinery in sight.
fn assert_clean_failure(out: &Output, needle: &str) {
    let err = stderr(out);
    assert_eq!(
        out.status.code(),
        Some(1),
        "generic failures exit with code 1: {err}"
    );
    assert!(err.contains("error:"), "diagnostic goes to stderr: {err}");
    assert!(
        !err.contains("panicked at"),
        "failure must not be a panic: {err}"
    );
    assert!(
        err.contains(needle),
        "diagnostic must explain itself: {err}"
    );
}

#[test]
fn trace_without_a_target_fails_readably() {
    let out = bin().arg("trace").output().unwrap();
    assert_clean_failure(&out, "trace needs a scenario");
}

#[test]
fn trace_rejects_the_all_selection_readably() {
    let out = bin().args(["trace", "all"]).output().unwrap();
    assert_clean_failure(&out, "exactly one scenario");
}

#[test]
fn trace_names_an_unknown_scenario_readably() {
    let out = bin().args(["trace", "no-such-scenario"]).output().unwrap();
    assert_clean_failure(&out, "no-such-scenario");
}

#[test]
fn trace_reports_an_unwritable_output_path_readably() {
    let out = bin()
        .args([
            "trace",
            "ring-steady",
            "--scale",
            "tiny",
            "--out",
            "/dev/null/trace.jsonl",
        ])
        .output()
        .unwrap();
    assert_clean_failure(&out, "cannot write");
}

#[test]
fn bench_rejects_an_unknown_option_readably() {
    let out = bin()
        .args(["bench", "ring-steady", "--no-such-flag"])
        .output()
        .unwrap();
    assert_clean_failure(&out, "--no-such-flag");
}

#[test]
fn a_flag_is_never_taken_as_another_flags_value() {
    // `run ring-steady --out --progress` used to run the whole campaign
    // and write it into a directory named `--progress`.
    let dir = std::env::temp_dir().join(format!("gcs-cli-flagvalue-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = bin()
        .current_dir(&dir)
        .args(["run", "ring-steady", "--scale", "tiny", "--seeds", "1"])
        .args(["--out", "--progress"])
        .output()
        .unwrap();
    assert_clean_failure(&out, "--out needs a directory");
    assert!(!dir.join("--progress").exists(), "nothing may be written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_prints_usage_and_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_clean_failure(&out, "frobnicate");
    assert!(stderr(&out).contains("USAGE"), "usage rides along");
}
