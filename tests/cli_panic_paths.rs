//! Negative-path CLI regression tests for `gcs-scenarios` and `gcs-node`
//! failure handling.
//!
//! The `trace` verb (and the retired `bench --telemetry`) used to reach
//! `.expect()` calls on user-reachable failure paths, killing the process with a
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
fn run_rejects_an_unknown_option_readably() {
    let out = bin()
        .args(["run", "ring-steady", "--no-such-flag"])
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
fn seed_counts_are_bounded_before_anything_runs() {
    // `--seeds 100000000` aborted `run` and `conformance` on 83 GB and
    // 98 GB allocations.
    let dir = std::env::temp_dir().join(format!("gcs-cli-maxseeds-{}", std::process::id()));
    for seeds in ["10001", "100000000", "18446744073709551615"] {
        for verb in ["run", "conformance"] {
            let mut cmd = bin();
            cmd.args([verb, "ring-steady", "--scale", "tiny", "--seeds", seeds]);
            if verb == "run" {
                cmd.args(["--out", dir.to_str().unwrap()]);
            }
            let out = cmd.output().unwrap();
            assert_clean_failure(&out, "--seeds needs a positive integer up to 10000");
            assert!(
                !dir.exists(),
                "{verb} --seeds {seeds} wrote {}",
                dir.display()
            );
        }
    }
}

#[test]
fn compare_refuses_an_over_deep_file_readably() {
    // 30 000 nested `[` (a 30 KB file) used to overflow the reader's stack
    // and abort with exit 134.
    let dir = std::env::temp_dir().join(format!("gcs-cli-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(30_000)).unwrap();
    let out = bin().arg("compare").args([&deep, &deep]).output().unwrap();
    assert_clean_failure(&out, "nesting deeper than 128 levels at byte 128");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scenario_node_counts_are_bounded_before_anything_is_built() {
    // `topology ring 5000000000` used to panic in `realize` under
    // `validate` and abort on a 40 GB allocation under `run`; `grid w h`
    // multiplied unchecked (a debug panic, a release wrap that validated).
    let max = gcs_scenarios::spec::MAX_NODES;
    let dir = std::env::temp_dir().join(format!("gcs-cli-maxnodes-{}", std::process::id()));
    for (i, (topology, count)) in [
        ("ring 5000000000".to_string(), "5000000000".to_string()),
        (format!("line {}", max + 1), (max + 1).to_string()),
        ("grid 2000 1001".to_string(), "2002000".to_string()),
        (
            "grid 4294967296 4294967297".to_string(),
            "overflows usize".to_string(),
        ),
        (
            "torus 18446744073709551615 2".to_string(),
            "overflows usize".to_string(),
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let case = dir.join(format!("case{i}"));
        std::fs::create_dir_all(&case).unwrap();
        let file = case.join("huge.scn");
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/scenarios/ring-steady.scn"
        ))
        .unwrap()
        .replace("topology ring 8", &format!("topology {topology}"));
        std::fs::write(&file, text).unwrap();
        let family = topology.split(' ').next().unwrap();
        let needle = format!("topology {family} has more than MAX_NODES = {max} nodes ({count})");
        let validate = bin().args(["validate"]).arg(&case).output().unwrap();
        assert_clean_failure(&validate, &needle);
        let run = bin()
            .current_dir(&case)
            .args(["run", "huge.scn", "--seeds", "1"])
            .output()
            .unwrap();
        assert_clean_failure(&run, &needle);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_prints_usage_and_fails() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_clean_failure(&out, "frobnicate");
    assert!(stderr(&out).contains("USAGE"), "usage rides along");
}

#[test]
fn node_smoke_bounds_its_cluster_size_before_building_anything() {
    // The product used to overflow (a debug panic) or size an O(total²)
    // universe before any daemon enforced its limit, failing later with a
    // misleading "did not announce a listening address".
    for (procs, per_proc, total) in [
        ("2", "600", "1200"),
        ("4294967296", "4294967296", "18446744073709551616"),
    ] {
        let out = bin()
            .args(["node-smoke", "--procs", procs, "--per-proc", per_proc])
            .output()
            .unwrap();
        let needle = format!(
            "--procs {procs} x --per-proc {per_proc} = {total} exceeds the daemon limit 1024"
        );
        assert_clean_failure(&out, &needle);
        assert!(out.stdout.is_empty(), "no daemon was spawned");
    }
}

#[test]
fn node_daemon_bounds_its_id_flags_before_allocating() {
    // `--first u64::MAX --count 1` used to panic on the add in debug and
    // host zero nodes in release; IDs above u32::MAX aliased; `--total`
    // sized an O(total²) edge table with no cap. Each is a readable
    // refusal naming the flag and the limit, before anything is bound.
    for (flags, needle) in [
        (
            &["--first", "18446744073709551615", "--count", "1"][..],
            "--total 18446744073709551615 (default: --first + --count) exceeds the limit 1024",
        ),
        (
            &["--first", "4294967296", "--count", "1"],
            "--total 4294967297 (default: --first + --count) exceeds the limit 1024",
        ),
        (
            &["--count", "2", "--total", "1000000"],
            "--total 1000000 (default: --first + --count) exceeds the limit 1024",
        ),
        (
            &[
                "--first",
                "18446744073709551615",
                "--count",
                "2",
                "--total",
                "4",
            ],
            "--first 18446744073709551615 + --count 2 exceed --total 4",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_gcs-node"))
            .args(["--listen", "127.0.0.1:0"])
            .args(flags)
            .output()
            .unwrap();
        assert_clean_failure(&out, needle);
        assert!(out.stdout.is_empty(), "nothing was bound: {flags:?}");
    }
}

#[test]
fn thread_counts_are_bounded_before_anything_is_built() {
    // `conformance ring-100k --threads 100000` built 10⁵ shards, and each
    // threaded drain round would have spawned one OS thread per shard.
    // Only values above the cap are passed here: they are refused before
    // any engine or thread exists.
    let dir = std::env::temp_dir().join(format!("gcs-cli-maxthreads-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for threads in ["65", "100000", "18446744073709551615"] {
        for verb in ["run", "trace", "replay", "chaos-search", "conformance"] {
            let target = if verb == "replay" {
                "trace.jsonl"
            } else {
                "ring-100k"
            };
            let out = bin()
                .current_dir(&dir)
                .args([verb, target, "--threads", threads])
                .output()
                .unwrap();
            assert_clean_failure(&out, "--threads needs a positive integer up to 64");
        }
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "nothing may be written: {written:?}");
    std::fs::remove_dir_all(&dir).ok();
}
