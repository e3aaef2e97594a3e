//! The benchmark's agreements with the files around it: the root
//! manifest's release profile, `BENCHMARK.json`, `expected.json`, and the
//! smoke run a later PR wires into CI.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use gcs_benchmark::metrics::{END_TO_END, PER_LAYER};
use gcs_benchmark::workloads::{self, WORKLOADS};
use gcs_scenarios::json::{self, JsonValue};

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `key = value` lines of one table of a manifest, sorted.
fn table(manifest: &str, header: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").replace(' ', ""))
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort();
    lines
}

#[test]
fn the_release_profile_is_the_root_manifest_s() {
    let ours = table(&read(package_dir().join("Cargo.toml")), "[profile.release]");
    let root = table(
        &read(package_dir().join("../Cargo.toml")),
        "[profile.release]",
    );
    assert!(!root.is_empty(), "the root manifest has a release profile");
    assert_eq!(
        ours, root,
        "the benchmark must build the crates the way the repo ships them"
    );
}

fn strings(v: &JsonValue, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| panic!("{key} is an array"))
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {v:?}"),
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("{key} is a string in {v:?}"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn the_manifest_declares_exactly_what_the_harness_emits() {
    let raw = read(package_dir().join("../BENCHMARK.json"));
    assert!(raw.len() <= 64 * 1024);
    let m = json::parse(&raw).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(strings(&m, "command"), ["bash", "benchmark/run.sh"]);
    assert_eq!(strings(&m, "paths"), ["benchmark"]);
    let seconds = m.get("run_seconds").and_then(JsonValue::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));

    let declared = m.get("workloads").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(declared.len(), WORKLOADS.len());
    for (d, w) in declared.iter().zip(&WORKLOADS) {
        assert_eq!(keys(d), ["name", "why"]);
        assert_eq!((text(d, "name"), text(d, "why")), (w.name, w.why));
        assert!(is_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let declared = m.get("end_to_end").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, e) in declared.iter().zip(&END_TO_END) {
        assert_eq!(keys(d), ["name", "unit", "better", "bound"]);
        assert_eq!(
            (text(d, "name"), text(d, "unit"), text(d, "better")),
            (e.name, e.unit, e.better.token())
        );
        assert_eq!(d.get("bound").and_then(JsonValue::as_f64), Some(e.bound));
        assert!(is_name(e.name) && is_unit(e.unit) && e.bound > 0.0 && e.bound <= 0.25);
    }
    let setup = &END_TO_END[0];
    assert_eq!(
        (setup.name, setup.unit, setup.better.token()),
        ("setup_s", "s", "lower")
    );
    assert!(
        END_TO_END.iter().all(|e| e.bound <= setup.bound),
        "set-up time gets the largest bound"
    );

    let declared = m.get("per_layer").and_then(JsonValue::as_arr).unwrap();
    assert_eq!(declared.len(), PER_LAYER.len());
    assert!(declared.len() <= 128);
    for (d, &(name, unit, better)) in declared.iter().zip(&PER_LAYER) {
        assert_eq!(keys(d), ["name", "unit", "better"]);
        assert_eq!(
            (text(d, "name"), text(d, "unit"), text(d, "better")),
            (name, unit, better.token())
        );
        assert!(is_name(name) && is_unit(unit), "{name} [{unit}]");
    }
}

#[test]
fn the_pinned_outputs_hold_the_engines_to_bit_identity() {
    let pinned = json::parse(&read(package_dir().join("expected.json"))).unwrap();
    let JsonValue::Obj(entries) = &pinned else {
        panic!("expected.json is an object");
    };
    assert!(!entries.is_empty());
    for (name, by_seconds) in entries {
        let w = workloads::find(name).unwrap_or_else(|| panic!("{name} is not a workload"));
        if let Some(twin) = w.twin {
            assert_eq!(
                Some(by_seconds),
                pinned.get(twin),
                "{name} and {twin} simulate the same thing on two engines"
            );
        }
    }
    // The window event counts the benchmark was sized on (README table).
    let events = |name: &str| {
        pinned
            .get(name)
            .and_then(|w| w.get("25")?.get("events")?.as_u64())
    };
    assert_eq!(events("ring-1k"), Some(36_942_999));
    assert_eq!(events("geo-4k"), Some(14_912_231));
    assert_eq!(events("ring-100k"), Some(9_000_111));
    assert_eq!(events("ring-100k-par2"), Some(9_000_111));
    assert_eq!(events("grid-36-par2"), Some(1_950_000));
    assert_eq!(events("churn-1k"), Some(22_303_550));
}

/// `run.sh --smoke`: the full path (build, every workload in a child
/// process, traced runs, result file, validation against the manifest)
/// in under a minute. Debug builds of the engines are an order of
/// magnitude slower, so this runs under `cargo test --release` only.
#[test]
fn the_smoke_run_passes_and_declares_every_name() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: run `cargo test --release` to include the smoke run");
        return;
    }
    // Reuse this test's own build: target/release/gcs-benchmark.
    let exe = Path::new(env!("CARGO_BIN_EXE_gcs-benchmark"));
    let target = exe.parent().and_then(Path::parent).expect("target dir");
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");
    let started = Instant::now();
    let run = Command::new("bash")
        .arg(package_dir().join("run.sh"))
        .args(["--smoke", "--out"])
        .arg(&out)
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("bash runs");
    let elapsed = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(elapsed < 60.0, "the smoke run took {elapsed:.1} s");
    assert!(!stdout.contains("INVALID OUTPUT") && !stdout.contains("FAILED CHECK"));
    let doc = json::parse(&read(out)).unwrap();
    assert!(gcs_benchmark::suite::validate(&doc).is_empty());
    for w in &WORKLOADS {
        let entry = gcs_benchmark::suite::workload(&doc, w.name).expect(w.name);
        assert!(stdout.contains(w.name));
        if entry.get("skipped") != Some(&JsonValue::Bool(true)) {
            assert_eq!(entry.get("failed").and_then(JsonValue::as_u64), Some(0));
        }
    }
    for (name, unit, _) in PER_LAYER {
        assert!(stdout.contains(name) && stdout.contains(unit), "{name}");
    }
}
