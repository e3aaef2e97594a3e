//! Every workload, one fresh child process per run, rounds interleaved
//! round-robin so a slow spell of the host hits all workloads alike; the
//! result file `compare` reads.

use std::path::{Path, PathBuf};
use std::process::Command;

use gcs_scenarios::json::{self, Json, JsonValue};

use crate::host;
use crate::metrics::{iqr_share, median, short, Better, END_TO_END, PER_LAYER};
use crate::run::parse_child;
use crate::workloads::{Workload, WORKLOADS};

pub const FORMAT: &str = "gcs-benchmark/v1";

/// The manifest the driver reads; the suite validates its output against
/// it, so a name declared there and not emitted (or the reverse) fails.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone)]
pub struct SuiteArgs {
    pub seed: u64,
    pub seconds: f64,
    /// Child processes per workload whose end-to-end metrics are kept.
    pub rounds: usize,
    /// Repetitions inside each child.
    pub reps: usize,
    pub out: PathBuf,
}

/// `run_seconds` as the manifest declares it.
pub fn manifest_seconds() -> f64 {
    json::parse(MANIFEST)
        .ok()
        .and_then(|m| m.get("run_seconds")?.as_f64())
        .expect("BENCHMARK.json declares run_seconds")
}

/// What one child run printed, parsed.
struct Child {
    detail: JsonValue,
    result: JsonValue,
}

fn spawn(w: &Workload, args: &SuiteArgs, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--reps", &args.reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{}: cannot start the run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    // A run with a failed check exits non-zero but still reports; a run
    // that printed no result is an error of the harness itself.
    let (detail, result) = parse_child(&stdout).map_err(|e| {
        format!(
            "{}: {e}\n{}",
            w.name,
            String::from_utf8_lossy(&out.stderr).trim()
        )
    })?;
    Ok(Child { detail, result })
}

fn metric(result: &JsonValue, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn strings(v: Option<&JsonValue>) -> Vec<String> {
    v.and_then(JsonValue::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default()
}

/// Runs the suite, writes the result file, prints the tables. Returns
/// whether every check on every workload passed.
pub fn run(args: &SuiteArgs) -> Result<bool, String> {
    let runnable: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| host::nproc() >= w.threads())
        .collect();
    let mut timed: Vec<Vec<Child>> = runnable.iter().map(|_| Vec::new()).collect();
    for round in 0..args.rounds {
        for (w, runs) in runnable.iter().zip(&mut timed) {
            let child = spawn(w, args, false)?;
            eprintln!(
                "round {}/{} {:<18} run_s {:>9.4} setup_s {:>8.4}",
                round + 1,
                args.rounds,
                w.name,
                metric(&child.result, "run_s").unwrap_or(f64::NAN),
                metric(&child.result, "setup_s").unwrap_or(f64::NAN),
            );
            runs.push(child);
        }
    }
    let mut traced = Vec::new();
    for w in &runnable {
        eprintln!("traced    {}", w.name);
        traced.push(spawn(w, args, true)?);
    }

    let mut rows = Vec::new();
    let mut digests: Vec<(&str, String)> = Vec::new();
    for w in &WORKLOADS {
        let Some(i) = runnable.iter().position(|r| r.name == w.name) else {
            rows.push(Json::Obj(vec![
                ("name", Json::Str(w.name.to_string())),
                ("skipped", Json::Bool(true)),
                (
                    "reason",
                    Json::Str(format!(
                        "needs {} hardware threads, host has {}",
                        w.threads(),
                        host::nproc()
                    )),
                ),
            ]));
            continue;
        };
        let runs: Vec<&Child> = timed[i].iter().chain([&traced[i]]).collect();
        let detail = &runs[0].detail;
        let digest = detail
            .get("digest")
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string();
        let mut failed: Vec<String> = runs
            .iter()
            .flat_map(|c| strings(c.detail.get("failed_checks")))
            .collect();
        let mut attempted: u64 = runs
            .iter()
            .filter_map(|c| c.result.get("attempted")?.as_u64())
            .sum();
        // Across processes: every run of the workload, and the twin that
        // runs the same scenario on the other engine, agree on the digest.
        attempted += runs.len() as u64 - 1;
        if runs
            .iter()
            .any(|c| c.detail.get("digest").and_then(JsonValue::as_str) != Some(digest.as_str()))
        {
            failed.push("digest repeats across processes".to_string());
        }
        if let Some((_, twin)) = digests.iter().find(|d| Some(d.0) == w.twin) {
            attempted += 1;
            if *twin != digest {
                failed.push(format!("digest equals {}'s", w.twin.unwrap_or_default()));
            }
        }
        digests.push((w.name, digest.clone()));
        for check in &failed {
            println!("FAILED CHECK {}: {check}", w.name);
        }

        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                let values: Vec<f64> = timed[i]
                    .iter()
                    .filter_map(|c| metric(&c.result, m.name))
                    .collect();
                // Interference on this host only ever slows a run, so the
                // best round is the least disturbed one; the median and
                // spread of all rounds are published beside it.
                let best = values
                    .iter()
                    .copied()
                    .fold(f64::NAN, |a, b| match m.better {
                        Better::Lower => a.min(b),
                        Better::Higher => a.max(b),
                    });
                Json::Obj(vec![
                    ("name", Json::Str(m.name.to_string())),
                    ("unit", Json::Str(m.unit.to_string())),
                    ("value", Json::Num(best)),
                    ("median", Json::Num(median(&values))),
                    ("iqr_pct", Json::Num(100.0 * iqr_share(&values))),
                    (
                        "values",
                        Json::Arr(values.into_iter().map(Json::Num).collect()),
                    ),
                ])
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .filter_map(|&(name, unit, _)| {
                Some(Json::Obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("unit", Json::Str(unit.to_string())),
                    ("value", Json::Num(metric(&traced[i].result, name)?)),
                ]))
            })
            .collect();
        let copy = |key: &str| match detail.get(key) {
            Some(JsonValue::Int(v)) => Json::Int(*v),
            Some(JsonValue::Num(v)) => Json::Num(*v),
            _ => Json::Null,
        };
        rows.push(Json::Obj(vec![
            ("name", Json::Str(w.name.to_string())),
            ("skipped", Json::Bool(false)),
            ("nodes", copy("nodes")),
            ("warmup_sim_s", copy("warmup_sim_s")),
            ("window_sim_s", copy("window_sim_s")),
            ("events", copy("events")),
            ("digest", Json::Str(digest)),
            ("attempted", Json::Int(attempted)),
            ("failed", Json::Int(failed.len() as u64)),
            (
                "failed_checks",
                Json::Arr(failed.into_iter().map(Json::Str).collect()),
            ),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
        ]));
    }

    // One workload per line, so a checked-in result diffs cleanly.
    let head = Json::Obj(vec![
        ("format", Json::Str(FORMAT.to_string())),
        ("host", host::fingerprint()),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("rounds", Json::Int(args.rounds as u64)),
        ("reps", Json::Int(args.reps as u64)),
    ])
    .to_string();
    let body: Vec<String> = rows.iter().map(Json::to_string).collect();
    let text = format!(
        "{},\"workloads\":[\n{}\n]}}\n",
        &head[..head.len() - 1],
        body.join(",\n")
    );
    write(&args.out, &text)?;

    let doc = json::parse(&text)?;
    print!("{}", render(&doc));
    println!("wrote {}", args.out.display());
    let problems = validate(&doc);
    for p in &problems {
        println!("INVALID OUTPUT: {p}");
    }
    let all_passed = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .is_some_and(|ws| {
            ws.iter()
                .all(|w| w.get("failed").and_then(JsonValue::as_u64).unwrap_or(0) == 0)
        });
    Ok(all_passed && problems.is_empty())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn named<'a>(list: Option<&'a JsonValue>, name: &str) -> Option<&'a JsonValue> {
    list?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// A workload's entry in a result file.
pub fn workload<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    named(doc.get("workloads"), name)
}

/// One metric object (`end_to_end` or `per_layer`) of a workload entry.
pub fn metric_of<'a>(workload: &'a JsonValue, group: &str, name: &str) -> Option<&'a JsonValue> {
    named(workload.get(group), name)
}

/// Every metric of every workload by name and unit: the workload x
/// end-to-end table first, then each workload's layers.
pub fn render(doc: &JsonValue) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let value = |w: &JsonValue, group: &str, name: &str, key: &str| {
        metric_of(w, group, name)
            .and_then(|m| m.get(key)?.as_f64())
            .unwrap_or(f64::NAN)
    };
    let _ = write!(out, "{:<18}", "end to end");
    for m in &END_TO_END {
        let _ = write!(out, " {:>24}", format!("{} [{}]", m.name, m.unit));
    }
    let _ = writeln!(out, " {:>8}", "failed");
    let workloads = doc.get("workloads").and_then(JsonValue::as_arr);
    for w in workloads.into_iter().flatten() {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let _ = write!(out, "{name:<18}");
        if w.get("skipped") == Some(&JsonValue::Bool(true)) {
            let reason = w.get("reason").and_then(JsonValue::as_str).unwrap_or("");
            let _ = writeln!(out, " skipped: {reason}");
            continue;
        }
        for m in &END_TO_END {
            let cell = format!(
                "{} ±{:.1}%",
                short(value(w, "end_to_end", m.name, "value")),
                value(w, "end_to_end", m.name, "iqr_pct")
            );
            let _ = write!(out, " {cell:>24}");
        }
        let failed = w.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        let attempted = w.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0);
        let _ = writeln!(out, " {:>8}", format!("{failed}/{attempted}"));
    }
    for w in workloads.into_iter().flatten() {
        let Some(layers) = w.get("per_layer").and_then(JsonValue::as_arr) else {
            continue;
        };
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let _ = writeln!(out, "\nlayers of {name} (traced run; 0 = layer bypassed)");
        for m in layers {
            let _ = writeln!(
                out,
                "  {:<34} {:>14} {}",
                m.get("name").and_then(JsonValue::as_str).unwrap_or("?"),
                short(
                    m.get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN)
                ),
                m.get("unit").and_then(JsonValue::as_str).unwrap_or("")
            );
        }
    }
    out
}

/// Checks a result document against `BENCHMARK.json`: every declared
/// workload and metric name present, no undeclared name emitted.
pub fn validate(doc: &JsonValue) -> Vec<String> {
    let manifest = json::parse(MANIFEST).expect("BENCHMARK.json parses");
    let names = |list: Option<&JsonValue>| -> Vec<String> {
        list.and_then(JsonValue::as_arr)
            .into_iter()
            .flatten()
            .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
            .collect()
    };
    let mut problems = Vec::new();
    let mut diff = |what: &str, declared: &[String], emitted: &[String]| {
        for name in declared.iter().filter(|n| !emitted.contains(n)) {
            problems.push(format!("{what}: declared {name} is missing"));
        }
        for name in emitted.iter().filter(|n| !declared.contains(n)) {
            problems.push(format!("{what}: {name} is not declared"));
        }
    };
    diff(
        "workloads",
        &names(manifest.get("workloads")),
        &names(doc.get("workloads")),
    );
    for w in doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .into_iter()
        .flatten()
        .filter(|w| w.get("skipped") != Some(&JsonValue::Bool(true)))
    {
        let name = w.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        for group in ["end_to_end", "per_layer"] {
            diff(
                &format!("{name} {group}"),
                &names(manifest.get(group)),
                &names(w.get(group)),
            );
        }
    }
    problems
}
