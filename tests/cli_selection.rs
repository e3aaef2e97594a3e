//! CLI-level regression tests for scenario selection and the exact
//! counter gate of `compare`.
//!
//! The conformance gate used to resolve its target leniently; a typo'd
//! scenario name must be a hard error (exit ≠ 0), never an empty —
//! vacuously green — sweep. These tests drive the real binary via
//! `CARGO_BIN_EXE_gcs-scenarios`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gcs-scenarios"))
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn unknown_scenario_name_is_a_hard_error() {
    for verb in ["conformance", "run"] {
        let out = bin()
            .args([verb, "no-such-scenario", "--seeds", "1"])
            .output()
            .unwrap();
        assert!(
            !out.status.success(),
            "{verb} with an unknown name must exit non-zero"
        );
        let err = stderr(&out);
        assert!(
            err.contains("no-such-scenario"),
            "{verb}: error must name the bad token: {err}"
        );
    }
}

#[test]
fn empty_and_partial_selections_are_hard_errors() {
    // A comma list with one bad token fails even when the rest resolve.
    let out = bin()
        .args(["conformance", "ring-steady,typo-name", "--seeds", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(stderr(&out).contains("typo-name"));

    // Dangling comma ⇒ empty token ⇒ hard error.
    let out = bin()
        .args(["conformance", "ring-steady,", "--seeds", "1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn named_sets_and_comma_lists_resolve() {
    let out = bin()
        .args([
            "conformance",
            "ring-steady,self-heal",
            "--seeds",
            "1",
            "--scale",
            "tiny",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 scenario(s)"), "{text}");
    assert!(text.contains("every run conforms"), "{text}");
}

#[test]
fn positionals_are_accepted_in_any_position() {
    // `run --seeds 1 ring-steady` used to fail with `unknown option "1"`.
    let dir = std::env::temp_dir().join(format!("gcs-cli-anypos-{}", std::process::id()));
    for verb in ["run", "conformance"] {
        let mut cmd = bin();
        cmd.args([verb, "--seeds", "1", "--scale", "tiny"]);
        if verb == "run" {
            cmd.args(["--out", dir.join(verb).to_str().unwrap()]);
        }
        let out = cmd.arg("ring-steady").output().unwrap();
        assert!(out.status.success(), "{verb}: {}", stderr(&out));
        assert!(stdout(&out).contains("1 scenario(s)"), "{verb}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_rides_the_pass_without_changing_what_it_produces() {
    let dir = std::env::temp_dir().join(format!("gcs-cli-ride-{}", std::process::id()));
    let telemetry = dir.join("telemetry.json");
    let common = ["self-heal,churn-burst", "--seeds", "2", "--scale", "tiny"];

    // `run`: the campaign artifact is byte-identical with and without.
    let artifact = |sub: &str, extra: &[&str]| {
        let out_dir = dir.join(sub);
        let out = bin()
            .arg("run")
            .args(common)
            .args(["--out", out_dir.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        let file = std::fs::read_dir(&out_dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap();
        std::fs::read(file.path()).unwrap()
    };
    let plain = artifact("plain", &[]);
    let ridden = artifact("ridden", &["--telemetry", telemetry.to_str().unwrap()]);
    assert!(plain == ridden, "run --telemetry changed the campaign");
    let text = std::fs::read_to_string(&telemetry).unwrap();
    assert_eq!(text.matches("\"engine\":\"sequential\"").count(), 4);

    // `conformance`: the same table and verdict, and the artifact carries
    // the oracle's utilization series from the pass it rode (2 shards).
    let table = |extra: &[&str]| {
        let out = bin()
            .arg("conformance")
            .args(common)
            .args(["--threads", "2"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
            .lines()
            .filter(|l| !l.starts_with("wrote ") && !l.contains(" run(s) in "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let plain = table(&[]);
    assert!(plain.contains("conformance sweep"), "{plain}");
    assert_eq!(plain, table(&["--telemetry", telemetry.to_str().unwrap()]));
    let text = std::fs::read_to_string(&telemetry).unwrap();
    assert_eq!(text.matches("\"oracle_series\":[[").count(), 4);
    assert_eq!(
        text.matches("\"threads\":2,\"engine\":\"sharded\"").count(),
        4
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sampled_conformance_surfaces_its_mode_end_to_end() {
    let out = bin()
        .args([
            "conformance",
            "self-heal",
            "--seeds",
            "1",
            "--scale",
            "tiny",
        ])
        .args(["--oracle-sample", "0.5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("sampled oracle"), "mode is surfaced");
}

#[test]
fn the_trend_series_verb_and_flag_are_gone() {
    // Utilization is a pure function of (scenario, seed, scale, code); it
    // is gated against checked-in points, not tracked as a rolling series.
    let no_flag = "unknown option \"--trend\"";
    for (args, complaint) in [
        (
            &["trend-gate", "T.jsonl"][..],
            "unknown command \"trend-gate\"",
        ),
        (&["conformance", "self-heal", "--trend", "T.jsonl"], no_flag),
        (
            &["chaos-search", "self-heal", "--trend", "T.jsonl"],
            no_flag,
        ),
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(stderr(&out).contains(complaint), "{args:?}");
    }
}

#[test]
fn a_selection_is_a_file_only_when_it_ends_in_scn() {
    // `run ring-steady` used to fail with `cannot read ring-steady: Is a
    // directory` whenever the working directory had an entry of that name;
    // a stray `all` broke `run all` the same way.
    let dir = std::env::temp_dir().join(format!("gcs-cli-cwd-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("ring-steady")).unwrap();
    std::fs::write(dir.join("all"), "not a scenario\n").unwrap();
    for (target, sweep) in [("ring-steady", "1 scenario(s)"), ("all", "20 scenario(s)")] {
        let out = bin()
            .current_dir(&dir)
            .args(["run", target, "--seeds", "1", "--scale", "tiny", "--out"])
            .arg(dir.join(format!("{target}-out")))
            .output()
            .unwrap();
        assert!(out.status.success(), "run {target}: {}", stderr(&out));
        assert!(stdout(&out).contains(sweep), "run {target}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_gates_counters_exactly_at_any_tolerance() {
    let dir = std::env::temp_dir().join(format!("gcs-cli-gate-{}", std::process::id()));
    let run = |threads: &str| {
        let out_dir = dir.join(format!("t{threads}"));
        let out = bin()
            .args(["run", "ring-steady", "--scale", "tiny", "--seeds", "2"])
            .args(["--threads", threads, "--out", out_dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr(&out));
        let file = std::fs::read_dir(&out_dir).unwrap().next().unwrap();
        file.unwrap().path()
    };
    let (sequential, sharded) = (run("1"), run("2"));
    let compare = |baseline: &PathBuf, tol: &str| {
        bin()
            .arg("compare")
            .args([baseline, &sharded])
            .args(["--tol", tol])
            .output()
            .unwrap()
    };

    // The sharded campaign is the sequential one, to the last bit.
    let out = compare(&sequential, "0");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("engine counters identical"));

    // One forged event count in the reference: exit 1 at any tolerance,
    // naming the scenario, the seed and the counter.
    let text = std::fs::read_to_string(&sequential).unwrap();
    let forged = dir.join("forged.json");
    std::fs::write(&forged, regex_replace(&text, "\"events\":", 1.0)).unwrap();
    let out = compare(&forged, "1000000");
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.contains("MISMATCH ring-steady seed 0: events 1 -> "),
        "{err}"
    );
    assert!(
        err.contains("1 exact mismatch(es) and 0 drift finding(s)"),
        "{err}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// Replaces the number following the first `key` in a JSON text with
/// `value` (a two-line stand-in for a regex dependency).
fn regex_replace(line: &str, key: &str, value: f64) -> String {
    let start = line.find(key).expect("metric present") + key.len();
    let end = start + line[start..].find([',', '}']).expect("number terminator");
    format!("{}{}{}", &line[..start], value, &line[end..])
}
