use std::path::PathBuf;
use std::process::ExitCode;

use gcs_benchmark::run::{measure, Args};
use gcs_benchmark::suite::{self, SuiteArgs};
use gcs_benchmark::{compare, workloads};
use gcs_scenarios::json;

const USAGE: &str = "\
gcs-benchmark — host-time benchmark of the gradient-clock-sync engines

USAGE:
    gcs-benchmark --workload NAME [--seed N] [--seconds S] [--reps R] [--trace 0|1]
        One workload in this process; the last line printed is the result
        as one JSON object. --trace 1 reports the per-layer metrics
        instead of the end-to-end ones.
    gcs-benchmark [--seed N] [--seconds S] [--reps R] [--out FILE] [--smoke]
        Every workload, each run in a fresh child process, three rounds
        round-robin plus one traced run each; writes the result file.
        --smoke cuts every window 50x and runs one round of one repetition.
    gcs-benchmark compare A.json B.json
        Non-zero exit if B regressed against A beyond a metric's bound.

--seconds scales every warm-up and window by S/25 (25 = the windows of
benchmark/README.md's table); the default is BENCHMARK.json's run_seconds.
";

/// Repetitions inside one run: enough for a median per slice.
const REPS: usize = 5;
/// Child runs per workload in the suite.
const ROUNDS: usize = 3;
/// How much `--smoke` cuts every window.
const SMOKE_CUT: f64 = 50.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn read_json(path: &str) -> Result<json::JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(format!("compare takes two result files\n\n{USAGE}"));
        };
        let outcome = compare::compare(&read_json(a)?, &read_json(b)?);
        print!("{}", outcome.table);
        for failure in &outcome.failures {
            println!("FAIL {failure}");
        }
        return Ok(outcome.failures.is_empty());
    }

    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = None;
    let mut reps = None;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--smoke" {
            smoke = true;
            i += 1;
            continue;
        }
        if flag == "--help" || flag == "-h" {
            print!("{USAGE}");
            return Ok(true);
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))?;
        let bad = || format!("{flag}: cannot use {value:?}");
        match flag {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s.is_finite() && s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return Err(format!("--seconds must be in (0, 600], got {value:?}")),
            },
            "--reps" => match value.parse::<usize>() {
                Ok(n) if (1..=100).contains(&n) => reps = Some(n),
                _ => return Err("--reps must be a whole number from 1 to 100".to_string()),
            },
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag:?}\n\n{USAGE}")),
        }
        i += 2;
    }
    let default_seconds = suite::manifest_seconds();
    let seconds = seconds.unwrap_or(if smoke {
        default_seconds / SMOKE_CUT
    } else {
        default_seconds
    });
    let reps = reps.unwrap_or(if smoke { 1 } else { REPS });

    if let Some(name) = workload {
        let w = workloads::find(&name).ok_or_else(|| {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; the workloads are {}",
                names.join(", ")
            )
        })?;
        let outcome = measure(
            w,
            &Args {
                seed,
                seconds,
                reps,
                trace,
            },
        )?;
        outcome.print();
        return Ok(outcome.failed.is_empty());
    }

    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    suite::run(&SuiteArgs {
        seed,
        seconds,
        rounds: if smoke { 1 } else { ROUNDS },
        reps,
        out: out.unwrap_or_else(|| results.join(if smoke { "smoke.json" } else { "latest.json" })),
    })
}
