//! The `gcs-scenarios` CLI: list, validate, run, gate, and show
//! declarative scenarios.
//!
//! ```sh
//! cargo run --release --bin gcs-scenarios -- list
//! cargo run --release --bin gcs-scenarios -- validate scenarios/
//! cargo run --release --bin gcs-scenarios -- run churn-storm --seeds 4
//! cargo run --release --bin gcs-scenarios -- run all --seeds 2 --scale tiny
//! ```

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gcs_protocol::daemon::{cluster_config, MAX_TOTAL};
use gcs_scenarios::json::{self, Json};
use gcs_scenarios::{
    campaign, format, registry, telemetry, trend, ConformanceOptions, Scale, ScenarioSpec,
    TelemetryRun,
};

const USAGE: &str = "\
gcs-scenarios — declarative dynamic-network scenarios

USAGE:
    gcs-scenarios list
        List the built-in scenario registry.
    gcs-scenarios show <name>
        Print a built-in scenario in canonical .scn form.
    gcs-scenarios validate <dir>
        Parse, validate, round-trip-check, and test-build every .scn
        file in <dir>; exits nonzero on the first problem.
    gcs-scenarios run <name|file.scn|selection|all> [--seeds N] [--scale S]
                      [--threads T] [--out DIR]
        Run a campaign (scenario x seed fan-out) and write the
        results/campaign_*.json artifact. `all` sweeps the campaign set
        (every built-in except the bench-class engine-scale scenarios,
        which run by name or as the `bench` set). Each outcome carries
        the engine's deterministic counters (events, ticks, mode
        evaluations, deliveries), which `compare` gates exactly; the
        summary prints them summed across seeds. The artifact is the
        same at every --threads T.
        --seeds N, --scale S, --threads T, --progress
                    see FLAGS (defaults 4, default, 1)
        --out DIR   artifact directory  (default results)
        --telemetry FILE  attach the telemetry recorder — it rides the same
                    pass — and write the gcs-telemetry/v1 artifact to FILE
    gcs-scenarios trace <name|file.scn> [--seed N] [--threads T] [--scale S]
                        [--out FILE]
        Run one scenario instrumented and emit the deterministic
        gcs-trace/v1 JSONL run log (sealed with a running FNV-1a content
        hash). The bytes are engine-invariant: the same (scenario, seed)
        produces the identical trace from the sequential engine and the
        sharded engine at every shard count.
        --seed N     run seed            (default 0)
        --threads T, --scale S  see FLAGS (defaults 1, tiny)
        --out FILE   write the trace here instead of stdout
    gcs-scenarios node-smoke [--procs P] [--per-proc K] [--secs S]
                             [--refresh R]
        Loopback cluster smoke test for the gcs-node socket daemon: spawn
        P daemon processes on 127.0.0.1 (K virtual nodes each, wired into
        a full mesh via --peers), let them exchange wire floods for S
        wall-clock seconds, then assert that every node heard every other
        node, that the observed logical-clock skew fits the Theorem 5.22
        gradient envelope of the cluster's derived parameters (plus a
        small measurement slack for pipe latency), that daemons whose
        stdin closes exit 0 printing `shutdown clean`, and that a
        SIGTERM'd daemon stops promptly. Needs the gcs-node binary next
        to this one (cargo builds both).
        --procs P     daemon processes        (default 3)
        --per-proc K  virtual nodes per proc  (default 2)
        --secs S      run duration, seconds   (default 4)
        --refresh R   flood refresh period    (default 0.2)
    gcs-scenarios trace-diff <a.jsonl> <b.jsonl>
        Verify both traces' content hashes, then compare them
        byte-for-byte. On divergence, prints one machine-readable JSON
        record to stdout — {\"rec\":\"divergence\",\"line\":N,\"a\":...,
        \"b\":...} with the 1-based line and both records (null when one
        trace ended) — and exits with code 3. The replay/equivalence
        gate.
    gcs-scenarios replay <trace.jsonl> [--threads T]
        Re-materialize a run from a sealed gcs-trace/v1 artifact ALONE:
        verify the seal (a mutated artifact is rejected), parse the
        embedded .scn spec record, rebuild from the recorded seed, drive
        the identical observation grid, and compare the fresh trace
        byte-for-byte against the original. Bit-identity is the
        contract; on divergence prints the same machine-readable record
        as trace-diff and exits with code 3.
        --threads T  the replaying engine, see FLAGS (default 1)
    gcs-scenarios chaos-search <name|file.scn> [--seed S] [--budget N]
                  [--seeds K] [--scale SC] [--threads T] [--log FILE]
                  [--resume FILE] [--export FILE] [--rename NAME]
                  [--violation-out FILE]
        Adversarial fault-schedule search: a seeded greedy-mutation loop
        over fault scripts (clock offsets, est-bias corruption,
        partition/churn-burst timing) inside the .scn validation
        envelope, scoring every candidate with the exact conformance
        oracle and hill-climbing on worst-case margin utilization. The
        gcs-chaos/v1 search log is byte-deterministic for a fixed
        (base, --seed, --budget) and embeds every frontier candidate's
        .scn. A candidate that EXCEEDS 100% utilization stops the
        search, writes a sealed replayable trace of the violating run,
        and exits with code 4.
        --seed S     search RNG seed (default 0)
        --budget N   candidate evaluations (default 32)
        --seeds K    score each candidate over run seeds 0..K (default 1)
        --scale SC, --threads T  see FLAGS (defaults default, 1)
        --log FILE   write the gcs-chaos/v1 search log here
        --resume FILE  start from the frontier of a previous search log
                     instead of the base scenario
        --export FILE  write the best-found schedule as canonical .scn
        --rename NAME  rename the exported schedule (required when the
                     export will join the registry next to its base)
        --violation-out FILE  where the violating run's trace artifact
                     goes (default results/CHAOS_violation.jsonl)
    gcs-scenarios conformance [selection] [--seeds N] [--scale S]
        Drive a scenario selection (default: the whole registry,
        bench-class scenarios included) through the paper-bound
        conformance oracles: the Theorem 5.6 global-skew
        envelope, the Theorem 5.22 gradient bound per hop class, and the
        weak-edge legality bound, with self-stabilization and partition
        allowances replayed from each run's realized fault/insertion log.
        The oracle streams over sampled snapshots during the run — no
        trajectory is retained, so memory stays bounded at engine scale.
        Exits non-zero on any bound violation, and on an unknown scenario
        or set name. The theorem-level CI gate.
        --seeds N, --scale S, --threads T, --progress
                    see FLAGS (defaults 2, tiny, 1)
        --oracle-sample P  sampled-pairs oracle: stratified per-snapshot
                    source draws at rate P in (0,1] instead of the exact
                    all-pairs sweep. A violating pair escapes one snapshot
                    with probability <= (1-P)^2; sampled verdicts are a
                    conservative projection of exact ones (never a false
                    alarm). Deterministic for a (scenario, seed) at every
                    shard count.
        --oracle-seed N  base seed for the sampled source draws (default
                    0; mixed with each run seed)
        --telemetry FILE  attach the telemetry recorder — it rides the same
                    pass, next to the oracle — and write the gcs-telemetry/v1
                    artifact (with the bound-margin utilization series) to FILE
    gcs-scenarios baseline <campaign.json> [--out FILE]
        Distill a gcs-campaign/v1 artifact into a compact gcs-baseline/v3
        summary (per-scenario mean/p90 skews, stabilization time,
        trajectory envelopes: peak time + growth/recovery slopes, and
        each seed's engine counters), embed the default per-scenario
        tolerance table (tight for deterministic topologies, loose for
        seed-realized random families), and write it to FILE (default:
        stdout). Check the summary in to pin the current behaviour;
        hand-tune tolerances in the file if needed.
    gcs-scenarios compare <baseline> <campaign.json>... [--tol PCT]
        Diff a fresh campaign against a baseline (gcs-baseline/v3 or a raw
        gcs-campaign/v1 artifact) and exit non-zero on any per-scenario
        drift beyond the scenario's tolerance — its override
        from the baseline's tolerance table when present, else PCT
        percent (default 20). The seed list, node counts and each seed's
        engine counters must match EXACTLY, whatever the tolerance; each
        difference prints `MISMATCH <scenario> seed <s>: <counter> <old>
        -> <new>`. With several campaign files (e.g. an unexpanded
        results/campaign_*.json glob) the newest is compared. The CI
        regression gate.

FLAGS
    Flags and positionals may come in any order; a flag's value never
    starts with `--`. Shared by the verbs that list them:
    --seeds N     run seeds 0..N, for N from 1 to 10000
    --scale S     tiny|default|full
    --threads T   1 = the sequential reference engine, >1 = the sharded
                  engine with T shards, for T up to 64; results are
                  identical at every T
    --progress    print one line per completed scenario x seed, in
                  canonical (scenario-major) order

SELECTIONS
    Where a command takes a [selection], it accepts a file path ending in
    .scn or a comma list of built-in scenario names and sets: `all` (whole
    registry), `campaign` (statistics tier), `bench` (engine-scale tier),
    `fault-heavy` (every scenario with faults or dynamic topology).
    A name that matches nothing is a hard error, never an empty sweep.

EXIT CODES
    0  success
    1  generic error (bad arguments, I/O, gate failure)
    3  trace divergence (trace-diff, replay)
    4  chaos-search found a schedule exceeding a paper bound
";

/// A command failure with a documented process exit code: 1 = generic
/// error, 3 = trace divergence (`trace-diff`, `replay`), 4 = a
/// chaos-search candidate broke a paper bound.
struct Failure {
    code: u8,
    msg: String,
}

impl Failure {
    /// Exit code for a trace divergence.
    const DIVERGED: u8 = 3;
    /// Exit code for a found conformance violation.
    const VIOLATION: u8 = 4;

    fn at(code: u8, msg: impl Into<String>) -> Self {
        Failure {
            code,
            msg: msg.into(),
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure { code: 1, msg }
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::at(1, msg)
    }
}

/// A cursor over one verb's arguments. Take the flags first (`value`,
/// `switch`), then the positionals, then `finish` — which rejects
/// whatever is left, so a mistyped flag is never silently ignored. On the
/// command line flags and positionals may come in any order.
struct Args(Vec<String>);

impl Args {
    /// The parsed value of `flag VALUE` (the last one when repeated), or
    /// `None` when the flag is absent. Fails with `"<flag> needs <what>"`
    /// when the value is missing, is itself a `--flag` (so `--out
    /// --progress` cannot create a directory named `--progress`), or
    /// `parse` rejects it.
    fn value<T>(
        &mut self,
        flag: &str,
        what: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let mut found = None;
        while let Some(i) = self.0.iter().position(|a| a == flag) {
            self.0.remove(i);
            let raw = (i < self.0.len() && !self.0[i].starts_with("--")).then(|| self.0.remove(i));
            let parsed = raw.as_deref().and_then(&parse);
            found = Some(parsed.ok_or_else(|| format!("{flag} needs {what}"))?);
        }
        Ok(found)
    }

    /// Whether the value-less `flag` was given.
    fn switch(&mut self, flag: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != flag);
        self.0.len() != before
    }

    /// The next argument that is not a `--flag`.
    fn positional(&mut self) -> Option<String> {
        let i = self.0.iter().position(|a| !a.starts_with("--"))?;
        Some(self.0.remove(i))
    }

    /// Rejects whatever no call above consumed.
    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(a) if a.starts_with("--") => Err(format!("unknown option {a:?}")),
            Some(a) => Err(format!("unexpected argument {a:?}")),
        }
    }

    /// The `--seeds N` (seeds `0..N`, `N ≤` [`MAX_SEEDS`]) and `--scale S`
    /// pair the sweeping verbs share.
    fn seeds_and_scale(&mut self, seeds: u64, scale: Scale) -> Result<(Vec<u64>, Scale), String> {
        let what = format!("a positive integer up to {MAX_SEEDS}");
        let n = self.value("--seeds", &what, |v| {
            positive(v).filter(|&n| n <= MAX_SEEDS)
        })?;
        let picked = self.value("--scale", "tiny|default|full", Scale::parse)?;
        Ok(((0..n.unwrap_or(seeds)).collect(), picked.unwrap_or(scale)))
    }

    /// The `--threads T` (`T ≤` [`MAX_THREADS`]) of the engine-running verbs.
    fn threads(&mut self) -> Result<Option<usize>, String> {
        let what = format!("a positive integer up to {MAX_THREADS}");
        self.value("--threads", &what, |v| {
            positive(v).filter(|&n| n <= MAX_THREADS)
        })
    }
}

/// The most seeds one `--seeds N` sweeps: far above any use (the largest
/// is 4), and far below a count whose per-seed rows alone would exhaust
/// memory before the first run.
const MAX_SEEDS: u64 = 10_000;

/// The most engine threads one `--threads T` asks for: far above any use
/// (CI runs 1, 2 and 4), and far below a count whose per-round thread
/// spawns would exhaust the host. Checked before anything is built.
const MAX_THREADS: usize = 64;

/// A strictly positive integer (`--seeds N`, `--budget N`).
fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    v.parse().ok().filter(|n| *n > T::default())
}

/// A finite number at or above zero (`--tol PCT`).
fn non_negative(v: &str) -> Option<f64> {
    v.parse().ok().filter(|t: &f64| t.is_finite() && *t >= 0.0)
}

/// Any file or directory path.
fn path(v: &str) -> Option<PathBuf> {
    Some(PathBuf::from(v))
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let verb = argv.next();
    let args = Args(argv.collect());
    let result: Result<(), Failure> = match verb.as_deref() {
        Some("list") => cmd_list(args).map_err(Failure::from),
        Some("show") => cmd_show(args).map_err(Failure::from),
        Some("validate") => cmd_validate(args).map_err(Failure::from),
        Some("run") => cmd_run(args).map_err(Failure::from),
        Some("trace") => cmd_trace(args).map_err(Failure::from),
        Some("node-smoke") => cmd_node_smoke(args).map_err(Failure::from),
        Some("trace-diff") => cmd_trace_diff(args),
        Some("replay") => cmd_replay(args),
        Some("chaos-search") => cmd_chaos_search(args),
        Some("conformance") => cmd_conformance(args).map_err(Failure::from),
        Some("baseline") => cmd_baseline(args).map_err(Failure::from),
        Some("compare") => cmd_compare(args).map_err(Failure::from),
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(Failure::from(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            eprintln!("error: {}", f.msg);
            ExitCode::from(f.code)
        }
    }
}

fn cmd_list(args: Args) -> Result<(), String> {
    args.finish()?;
    let specs = registry::all();
    println!("{} built-in scenarios:\n", specs.len());
    println!(
        "{:<18} {:>5}  {:<22} {:<10} {:<17} description",
        "name", "nodes", "topology", "dynamics", "metric"
    );
    for s in &specs {
        println!(
            "{:<18} {:>5}  {:<22} {:<10} {:<17} {}",
            s.name,
            s.topology.node_count(),
            format!("{} ", s.topology.family()),
            s.dynamics.kind(),
            s.metric.token(),
            s.description
        );
    }
    Ok(())
}

fn cmd_show(mut args: Args) -> Result<(), String> {
    let name = args.positional().ok_or("show needs a scenario name")?;
    args.finish()?;
    let spec = registry::find(&name)
        .ok_or_else(|| format!("no built-in scenario {name:?} (try `gcs-scenarios list`)"))?;
    print!("{}", format::write(&spec));
    Ok(())
}

fn cmd_validate(mut args: Args) -> Result<(), String> {
    let dir = args.positional().ok_or("validate needs a directory")?;
    args.finish()?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .scn files in {dir}"));
    }
    let mut names = std::collections::BTreeSet::new();
    let mut failures = 0usize;
    for path in &files {
        match validate_file(path) {
            Ok(spec) => {
                if !names.insert(spec.name.clone()) {
                    eprintln!(
                        "FAIL {}: duplicate scenario name {:?}",
                        path.display(),
                        spec.name
                    );
                    failures += 1;
                } else {
                    println!("ok   {} ({})", path.display(), spec.name);
                }
            }
            Err(msg) => {
                eprintln!("FAIL {}: {msg}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(format!("{failures} of {} file(s) failed", files.len()));
    }
    println!("all {} scenario file(s) valid", files.len());
    Ok(())
}

fn validate_file(path: &Path) -> Result<ScenarioSpec, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let spec = format::parse(&text).map_err(|e| e.to_string())?;
    spec.validate().map_err(|e| e.to_string())?;
    // The repo keeps scenario files in canonical form so diffs stay
    // meaningful; `show` and `chaos-search --export` write it.
    let canonical = format::write(&spec);
    if canonical != text {
        return Err(
            "file is not in canonical form (`gcs-scenarios show <name>` prints it)".to_string(),
        );
    }
    // A spec that parses but cannot build is rot; seed 0 stands in for all.
    spec.build(0).map_err(|e| format!("build(0): {e}"))?;
    Ok(spec)
}

fn cmd_run(mut args: Args) -> Result<(), String> {
    let (seeds, scale) = args.seeds_and_scale(4, Scale::Default)?;
    let out_dir = args.value("--out", "a directory", path)?;
    let progress = args.switch("--progress");
    let telemetry_out = args.value("--telemetry", "a file", path)?;
    let threads = args.threads()?.unwrap_or(1);
    let target = args
        .positional()
        .ok_or("run needs a scenario name, .scn file, or `all`")?;
    args.finish()?;

    // `run all` sweeps the campaign set: the bench-class engine-scale
    // scenarios would dwarf the statistics runs (they run by name or as
    // the `bench` set).
    let (title, specs) = match target.as_str() {
        "all" => ("all".to_string(), resolve_specs("campaign", scale)?.1),
        other => resolve_specs(other, scale)?,
    };
    println!(
        "campaign {title:?}: {} scenario(s) x {} seed(s), scale {}, {threads} thread(s)",
        specs.len(),
        seeds.len(),
        scale.name()
    );

    let started = std::time::Instant::now();
    // The recorder, when asked for, rides the campaign's own pass.
    let (rows, runs) = campaign::run_campaign(
        &specs,
        &seeds,
        threads,
        telemetry_out.is_some(),
        |spec, seed, result| match result {
            _ if !progress => {}
            Ok(o) => println!(
                "done {:<18} seed {:>3}: {} {:.6} ({} events)",
                spec.name,
                seed,
                spec.metric.token(),
                o.primary,
                o.events
            ),
            Err(e) => println!("FAIL {:<18} seed {:>3}: {e}", spec.name, seed),
        },
    )
    .map_err(|e| e.to_string())?;
    println!(
        "\n{:<18} {:>5} {:<17} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6} {:>11} {:>8} {:>11} {:>11}",
        "scenario",
        "nodes",
        "metric",
        "mean",
        "stddev",
        "p10",
        "p90",
        "max",
        "viol",
        "events",
        "ticks",
        "evals",
        "delivered"
    );
    for r in &rows {
        let sum = |f: fn(&campaign::ScenarioOutcome) -> u64| r.outcomes.iter().map(f).sum::<u64>();
        println!(
            "{:<18} {:>5} {:<17} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>10.6} {:>6} {:>11} {:>8} {:>11} {:>11}",
            r.name,
            r.nodes,
            r.metric.token(),
            r.stats.mean,
            r.stats.stddev,
            r.stats.p10,
            r.stats.p90,
            r.stats.max,
            sum(|o| o.invariant_violations),
            sum(|o| o.events),
            sum(|o| o.ticks),
            sum(|o| o.mode_evaluations),
            sum(|o| o.messages_delivered)
        );
    }
    // Named by a unix-millisecond stamp: reruns accumulate side by side.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = out_dir
        .unwrap_or_else(|| PathBuf::from("results"))
        .join(format!("campaign_{stamp}.json"));
    write_file(
        &path,
        &campaign::campaign_json(&title, scale, &seeds, &rows),
    )?;
    println!(
        "\n{} run(s) in {:.1}s; wrote {}",
        rows.len() * seeds.len(),
        started.elapsed().as_secs_f64(),
        path.display()
    );
    if let Some(tpath) = telemetry_out {
        write_telemetry(&tpath, scale, &runs)?;
    }
    Ok(())
}

/// Writes the `gcs-telemetry/v1` artifact for the instrumented runs a
/// verb collected and says so.
fn write_telemetry(path: &Path, scale: Scale, runs: &[TelemetryRun]) -> Result<(), String> {
    write_file(path, &telemetry::telemetry_json(scale, runs))?;
    let n = runs.len();
    println!("wrote {} ({n} instrumented run(s))", path.display());
    Ok(())
}

/// Emits the deterministic `gcs-trace/v1` run log for one scenario.
fn cmd_trace(mut args: Args) -> Result<(), String> {
    let seed = args.value("--seed", "a non-negative integer", |v| v.parse().ok())?;
    let threads = args.threads()?;
    let scale = args.value("--scale", "tiny|default|full", Scale::parse)?;
    let out = args.value("--out", "a file", path)?;
    let target = args
        .positional()
        .ok_or("trace needs a scenario name or .scn file")?;
    args.finish()?;
    let seed: u64 = seed.unwrap_or(0);
    let spec = resolve_one("trace runs", &target, scale.unwrap_or(Scale::Tiny))?;
    let run = telemetry::run_instrumented(&spec, seed, threads.unwrap_or(1), true)
        .map_err(|e| e.to_string())?;
    let Some(trace) = &run.telemetry.trace else {
        return Err("the telemetry recorder dropped the run log it was asked for".to_string());
    };
    let summary = format!(
        "{} record(s), {}, engine {}",
        trace.records,
        trace.hash_hex(),
        run.engine()
    );
    match out {
        Some(path) => {
            write_file(&path, &trace.text)?;
            println!("wrote {} ({summary})", path.display());
        }
        None => {
            // Trace to stdout, summary to stderr, so the JSONL pipes clean.
            print!("{}", trace.text);
            eprintln!("{summary}");
        }
    }
    Ok(())
}

/// Extrapolation slack for the node-smoke skew check, in seconds: status
/// lines are timestamped when the harness *reads* them, so pipe and
/// scheduler latency between a daemon's print and our receipt shifts each
/// node's reading by up to this much under load.
const NODE_SMOKE_SLACK: f64 = 0.025;

/// One parsed daemon `status` line, stamped with the harness wall-clock
/// instant it arrived.
struct NodeStatus {
    wall: f64,
    logical: f64,
    peers_heard: usize,
    /// Messages the node's §3.1 delivery rule has dropped so far.
    rejected: u64,
}

fn parse_status_line(wall: f64, line: &str) -> Option<(u64, NodeStatus)> {
    let mut id = None;
    let mut logical = None;
    let mut peers_heard = None;
    let mut rejected = None;
    for field in line.strip_prefix("status ")?.split_whitespace() {
        let (key, value) = field.split_once('=')?;
        match key {
            "id" => id = value.parse().ok(),
            "logical" => logical = value.parse().ok(),
            "peers_heard" => peers_heard = value.parse().ok(),
            "rejected" => rejected = value.parse().ok(),
            _ => {}
        }
    }
    Some((
        id?,
        NodeStatus {
            wall,
            logical: logical?,
            peers_heard: peers_heard?,
            rejected: rejected?,
        },
    ))
}

/// One spawned `gcs-node` process: the child, its bound address, the
/// stdout collector, and every line it has printed (harness-stamped).
struct Daemon {
    child: Child,
    addr: String,
    lines: Arc<Mutex<Vec<(f64, String)>>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

fn spawn_daemon(
    bin: &Path,
    start: Instant,
    first: u64,
    count: u64,
    total: u64,
    refresh: f64,
    peers: &[String],
) -> Result<Daemon, String> {
    let mut cmd = Command::new(bin);
    cmd.arg("--listen")
        .arg("127.0.0.1:0")
        .arg("--first")
        .arg(first.to_string())
        .arg("--count")
        .arg(count.to_string())
        .arg("--total")
        .arg(total.to_string())
        .arg("--refresh")
        .arg(refresh.to_string())
        .arg("--status-every")
        .arg("0.1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if !peers.is_empty() {
        cmd.arg("--peers").arg(peers.join(","));
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    let stdout = child
        .stdout
        .take()
        .ok_or("daemon stdout was not captured")?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("cannot read the daemon's announce line: {e}"))?;
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .ok_or_else(|| {
            format!(
                "daemon hosting IDs [{first}, {}) did not announce a listening \
                 address (got {:?})",
                first + count,
                line.trim()
            )
        })?
        .to_string();
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    let handle = std::thread::spawn(move || {
        let mut buf = String::new();
        loop {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    let wall = start.elapsed().as_secs_f64();
                    if let Ok(mut v) = sink.lock() {
                        v.push((wall, buf.trim().to_string()));
                    }
                }
            }
        }
    });
    Ok(Daemon {
        child,
        addr,
        lines,
        reader: Some(handle),
    })
}

/// Polls `try_wait` until the child exits or the deadline passes.
fn wait_until(child: &mut Child, deadline: Instant) -> Result<Option<ExitStatus>, String> {
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Some(status)),
            Ok(None) if Instant::now() >= deadline => return Ok(None),
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(format!("cannot wait for a daemon: {e}")),
        }
    }
}

fn cmd_node_smoke(mut args: Args) -> Result<(), String> {
    let seconds = |v: &str| v.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0);
    let procs = args.value("--procs", "a positive integer", positive)?;
    let per_proc = args.value("--per-proc", "a positive integer", positive)?;
    let secs = args.value("--secs", "a positive finite number", seconds)?;
    let refresh = args.value("--refresh", "a positive finite number", seconds)?;
    args.finish()?;
    let (procs, per_proc): (u64, u64) = (procs.unwrap_or(3), per_proc.unwrap_or(2));
    let (secs, refresh) = (secs.unwrap_or(4.0), refresh.unwrap_or(0.2));
    if procs < 2 {
        return Err("node-smoke needs at least 2 daemon processes".to_string());
    }
    // Bounded before anything is sized from them: the envelope below
    // builds the O(total²) complete graph.
    let total = procs.checked_mul(per_proc).filter(|&n| n <= MAX_TOTAL);
    let total = total.ok_or_else(|| {
        format!(
            "--procs {procs} x --per-proc {per_proc} = {} exceeds the daemon limit {MAX_TOTAL}",
            u128::from(procs) * u128::from(per_proc)
        )
    })?;

    let bin = std::env::current_exe()
        .map_err(|e| format!("cannot locate this executable: {e}"))?
        .parent()
        .ok_or("this executable has no parent directory")?
        .join("gcs-node");
    if !bin.exists() {
        return Err(format!(
            "gcs-node binary not found at {} — build it first (`cargo build --bin gcs-node`)",
            bin.display()
        ));
    }

    // The Theorem 5.22 envelope for the cluster the daemons run: the one
    // cluster definition, so the oracle bound and the daemons' runtime
    // constants cannot drift apart. Every pair in a complete graph is one
    // hop, so the pairwise bound is evaluated at the single-edge weight.
    let cfg = cluster_config(total, refresh);
    let g_hat = cfg.params.g_tilde();
    let g_hat = g_hat.ok_or("the derived run configuration is missing G-tilde")?;
    let kappa = cfg.edge_info.values().map(|e| e.kappa).fold(0.0, f64::max);
    let envelope = gcs_analysis::gradient_bound(&cfg.params, g_hat, kappa);

    // Spawn the cluster: each daemon dials every earlier one, which wires
    // the complete process graph (connections are used in both
    // directions). If this harness dies early, the daemons' stdin pipes
    // close and they shut themselves down — no orphans.
    let start = Instant::now();
    let mut daemons: Vec<Daemon> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for p in 0..procs {
        let d = spawn_daemon(&bin, start, p * per_proc, per_proc, total, refresh, &addrs)?;
        addrs.push(d.addr.clone());
        daemons.push(d);
    }
    println!(
        "node-smoke: {procs} daemon(s) x {per_proc} node(s) = {total} nodes on {}",
        addrs.join(" ")
    );
    std::thread::sleep(Duration::from_secs_f64(secs));

    // Graceful path: close stdin on all daemons but the last — EOF is
    // the documented shutdown request, and their SHUTDOWN broadcast must
    // not take the SIGTERM target down before we signal it.
    let last = daemons.len() - 1;
    let term_pid = daemons[last].child.id();
    let term = Command::new("kill")
        .args(["-TERM", &term_pid.to_string()])
        .status()
        .map_err(|e| format!("cannot send SIGTERM: {e}"))?;
    if !term.success() {
        return Err(format!("kill -TERM {term_pid} failed: {term}"));
    }
    let hard_stop = wait_until(
        &mut daemons[last].child,
        Instant::now() + Duration::from_secs(2),
    )?
    .ok_or("the SIGTERM'd daemon did not stop within 2s")?;
    if hard_stop.success() {
        return Err("the SIGTERM'd daemon reported success instead of dying by signal".to_string());
    }
    for d in &mut daemons[..last] {
        drop(d.child.stdin.take());
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    for (p, d) in daemons[..last].iter_mut().enumerate() {
        let status = wait_until(&mut d.child, deadline)?
            .ok_or_else(|| format!("daemon {p} did not exit within 5s of stdin EOF"))?;
        if status.code() != Some(0) {
            return Err(format!("daemon {p} exited with {status} instead of code 0"));
        }
    }
    for d in &mut daemons {
        if let Some(handle) = d.reader.take() {
            let _ = handle.join();
        }
    }

    // Analysis: the newest status per node, plus each graceful daemon's
    // shutdown marker.
    let mut latest: std::collections::BTreeMap<u64, NodeStatus> = std::collections::BTreeMap::new();
    for (p, d) in daemons.iter().enumerate() {
        let lines = d
            .lines
            .lock()
            .map_err(|_| "a status collector thread panicked".to_string())?;
        let clean = lines.iter().any(|(_, l)| l == "shutdown clean");
        if p != last && !clean {
            return Err(format!(
                "daemon {p} exited without printing `shutdown clean`"
            ));
        }
        for (wall, line) in lines.iter() {
            if let Some((id, st)) = parse_status_line(*wall, line) {
                latest.insert(id, st);
            }
        }
    }
    for id in 0..total {
        let st = latest
            .get(&id)
            .ok_or_else(|| format!("node {id} never reported a status line"))?;
        let expected = usize::try_from(total - 1).unwrap_or(usize::MAX);
        if st.peers_heard != expected {
            return Err(format!(
                "node {id} heard {} of {expected} peers — the mesh never completed",
                st.peers_heard
            ));
        }
        // Every peer is a neighbour from time 0 and nothing ever leaves,
        // so the delivery rule has nothing to drop: a rejection here is a
        // routing or timestamp bug.
        if st.rejected != 0 {
            return Err(format!(
                "node {id} rejected {} message(s) under the §3.1 delivery rule on a static mesh",
                st.rejected
            ));
        }
    }

    // Skew: extrapolate every node's newest logical reading to the
    // newest sample instant (hardware rates are within rho of 1, so the
    // extrapolation error over a <=0.2s status gap is sub-microsecond)
    // and compare the spread against the Theorem 5.22 pairwise bound.
    let t_ref = latest
        .values()
        .map(|s| s.wall)
        .fold(f64::NEG_INFINITY, f64::max);
    let adjusted: Vec<f64> = latest
        .values()
        .map(|s| s.logical + (t_ref - s.wall))
        .collect();
    let skew = adjusted.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b))
        - adjusted.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let allowed = envelope + NODE_SMOKE_SLACK;
    if skew > allowed {
        return Err(format!(
            "observed logical skew {skew:.6}s exceeds the Theorem 5.22 envelope \
             {envelope:.6}s (+{NODE_SMOKE_SLACK}s measurement slack)"
        ));
    }
    println!(
        "node-smoke: skew {skew:.6}s within the Thm 5.22 envelope {envelope:.6}s \
         (+{NODE_SMOKE_SLACK}s slack); {last} graceful exit(s) clean, SIGTERM stopped pid \
         {term_pid} promptly"
    );
    Ok(())
}

/// Renders a first-divergence record as the stable machine-readable JSON
/// line `trace-diff` and `replay` print to stdout: 1-based line number
/// plus both records verbatim (`null` when one trace ended early).
fn divergence_json(d: &gcs_telemetry::TraceDiff) -> String {
    let side = |s: &Option<String>| s.clone().map_or(Json::Null, Json::Str);
    Json::Obj(vec![
        ("rec", Json::Str("divergence".to_string())),
        ("line", Json::Int(d.line as u64)),
        ("a", side(&d.a)),
        ("b", side(&d.b)),
    ])
    .to_string()
}

/// Verifies and byte-compares two sealed traces.
fn cmd_trace_diff(mut args: Args) -> Result<(), Failure> {
    let (Some(a_path), Some(b_path)) = (args.positional(), args.positional()) else {
        return Err("trace-diff needs exactly <a.jsonl> <b.jsonl>".into());
    };
    args.finish()?;
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let a = read(&a_path)?;
    let b = read(&b_path)?;
    // Verify both seals first: a diff of tampered traces proves nothing.
    let (records, hash) = gcs_telemetry::verify_trace(&a).map_err(|e| format!("{a_path}: {e}"))?;
    gcs_telemetry::verify_trace(&b).map_err(|e| format!("{b_path}: {e}"))?;
    match gcs_telemetry::trace_diff(&a, &b) {
        None => {
            println!("identical: {records} record(s), {hash}");
            Ok(())
        }
        Some(d) => {
            // Machine-readable record on stdout, human summary on stderr.
            println!("{}", divergence_json(&d));
            Err(Failure::at(
                Failure::DIVERGED,
                format!("traces diverge at line {}", d.line),
            ))
        }
    }
}

/// Re-materializes a run from a sealed trace artifact and asserts
/// bit-identity.
fn cmd_replay(mut args: Args) -> Result<(), Failure> {
    let threads = args.threads()?;
    let path = args
        .positional()
        .ok_or("replay needs a gcs-trace/v1 artifact")?;
    args.finish()?;
    let threads = threads.unwrap_or(1);
    let outcome = read_artifact(&path, |text| gcs_scenarios::replay_trace(text, threads))?;
    let a = &outcome.artifact;
    match &outcome.divergence {
        None => {
            println!(
                "replay identical: {} seed {} ({} node(s)), {} record(s), {}, {} thread(s)",
                a.scenario, a.seed, a.nodes, a.records, a.hash, outcome.threads
            );
            Ok(())
        }
        Some(d) => {
            println!("{}", divergence_json(d));
            Err(Failure::at(
                Failure::DIVERGED,
                format!(
                    "replay of {} seed {} diverges at line {} (original {}, replayed {})",
                    a.scenario, a.seed, d.line, a.hash, outcome.replayed_hash
                ),
            ))
        }
    }
}

/// Seeded adversarial fault-schedule search over one base scenario.
fn cmd_chaos_search(mut args: Args) -> Result<(), Failure> {
    let mut opts = gcs_scenarios::ChaosOptions::default();
    if let Some(seed) = args.value("--seed", "a non-negative integer", |v| v.parse().ok())? {
        opts.seed = seed;
    }
    if let Some(budget) = args.value("--budget", "a positive integer", positive)? {
        opts.budget = budget;
    }
    if let Some(threads) = args.threads()? {
        opts.threads = threads;
    }
    let (run_seeds, scale) = args.seeds_and_scale(1, Scale::Default)?;
    opts.run_seeds = run_seeds;
    let log_out = args.value("--log", "a file", path)?;
    let resume = args.value("--resume", "a file", |v| Some(v.to_string()))?;
    let export = args.value("--export", "a file", path)?;
    let rename = args.value("--rename", "a name", |v| Some(v.to_string()))?;
    let violation_out = args.value("--violation-out", "a file", path)?;
    let violation_out =
        violation_out.unwrap_or_else(|| PathBuf::from("results/CHAOS_violation.jsonl"));
    let target = args
        .positional()
        .ok_or("chaos-search needs a scenario name or .scn file")?;
    args.finish()?;
    let named = resolve_one("chaos-search attacks", &target, scale)?;
    let base = match &resume {
        Some(log_path) => {
            let frontier = read_artifact(log_path, gcs_scenarios::frontier_from_log)?;
            println!(
                "resuming from the frontier of {log_path} ({})",
                frontier.name
            );
            frontier
        }
        None => named,
    };
    println!(
        "chaos-search {:?}: seed {}, budget {}, {} run seed(s), scale {}, objective = worst \
         conformance-margin utilization",
        base.name,
        opts.seed,
        opts.budget,
        opts.run_seeds.len(),
        scale.name()
    );
    let started = std::time::Instant::now();
    let result = gcs_scenarios::chaos_search(&base, &opts).map_err(|e| e.to_string())?;
    println!(
        "evaluated {} candidate(s) ({} envelope-violating draw(s) skipped) in {:.1}s",
        result.evaluated,
        result.skipped,
        started.elapsed().as_secs_f64()
    );
    println!(
        "best: iter {} ({}), {} utilization {:.1}% at run seed {}",
        result.best.iter,
        result.best.op,
        result.best.family,
        100.0 * result.best.utilization,
        result.best.run_seed
    );
    if let Some(path) = &log_out {
        write_file(path, &result.log)?;
        println!("wrote search log to {}", path.display());
    }
    if let Some(path) = &export {
        let mut spec = result.best.spec.clone();
        if let Some(name) = &rename {
            spec.name.clone_from(name);
        }
        spec.validate().map_err(|e| e.to_string())?;
        write_file(path, &gcs_scenarios::format::write(&spec))?;
        println!(
            "exported best schedule as {} ({})",
            path.display(),
            spec.name
        );
    }
    match result.violation {
        None => {
            println!(
                "ok: best-found schedule stays within the paper bounds \
                 (frontier proves the base maximal within this budget when iter = 0)"
            );
            Ok(())
        }
        Some(v) => {
            write_file(&violation_out, &v.trace)?;
            for line in &v.violations {
                eprintln!("VIOLATION {}: {line}", v.candidate.spec.name);
            }
            Err(Failure::at(
                Failure::VIOLATION,
                format!(
                    "candidate {} exceeded a paper bound ({} utilization {:.1}%); replayable \
                     trace written to {} (verify with `gcs-scenarios replay`)",
                    v.candidate.iter,
                    v.candidate.family,
                    100.0 * v.candidate.utilization,
                    violation_out.display()
                ),
            ))
        }
    }
}

/// Writes an artifact through the one file writer, wording its failure.
fn write_file(path: &Path, text: &str) -> Result<(), String> {
    json::write_file(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs the conformance oracles over a scenario selection.
fn cmd_conformance(mut args: Args) -> Result<(), String> {
    let (seeds, scale) = args.seeds_and_scale(2, Scale::Tiny)?;
    let rate = |v: &str| v.parse().ok().filter(|p: &f64| *p > 0.0 && *p <= 1.0);
    let seed = |v: &str| v.parse().ok();
    let defaults = ConformanceOptions::default();
    let opts = ConformanceOptions {
        oracle_sample: args.value("--oracle-sample", "a rate in (0, 1]", rate)?,
        oracle_seed: args
            .value("--oracle-seed", "a non-negative integer", seed)?
            .unwrap_or(defaults.oracle_seed),
        threads: args.threads()?.unwrap_or(defaults.threads),
    };
    let progress = args.switch("--progress");
    let telemetry_out = args.value("--telemetry", "a file", path)?;
    let target = args.positional().unwrap_or_else(|| "all".to_string());
    args.finish()?;
    let (title, specs) = resolve_specs(&target, scale)?;
    println!(
        "conformance {title:?}: {} scenario(s) x {} seed(s), scale {}, {} engine thread(s) — \
         checking every sampled snapshot against the Theorem 5.6 / 5.22 bounds",
        specs.len(),
        seeds.len(),
        scale.name(),
        opts.threads
    );
    if let Some(p) = opts.oracle_sample {
        // The escape bound is per snapshot and per pair: at rate p a
        // violating pair dodges one snapshot's stratified source draw with
        // probability at most (1-p)^2 — and sampled checks are a strict
        // subset of the exact sweep, so a sampled alarm is never false.
        println!(
            "sampled oracle: source rate {p}, per-snapshot pair escape probability <= {:.4}",
            (1.0 - p) * (1.0 - p)
        );
    }
    let started = std::time::Instant::now();
    // The recorder, when asked for, rides the oracle's own pass.
    let (rows, runs) = gcs_scenarios::conformance::run_conformance(
        &specs,
        &seeds,
        &opts,
        telemetry_out.is_some(),
        |spec, seed, result| match result {
            _ if !progress => {}
            Ok(r) => println!(
                "done {:<18} seed {:>3}: {}",
                spec.name,
                seed,
                if r.is_conformant() { "ok" } else { "VIOLATION" }
            ),
            Err(e) => println!("FAIL {:<18} seed {:>3}: {e}", spec.name, seed),
        },
    )
    .map_err(|e| e.to_string())?;
    println!("\n{}", gcs_scenarios::conformance::conformance_table(&rows));
    let violations = gcs_scenarios::conformance::violations(&rows);
    println!(
        "{} run(s) in {:.1}s",
        rows.len(),
        started.elapsed().as_secs_f64()
    );
    if let Some(tpath) = telemetry_out {
        write_telemetry(&tpath, scale, &runs)?;
    }
    if violations.is_empty() {
        println!("ok: every run conforms to the paper bounds");
        Ok(())
    } else {
        for (name, seed, lines) in &violations {
            for line in lines {
                eprintln!("VIOLATION {name} seed {seed}: {line}");
            }
        }
        // The full per-run breakdown helps localize the failure.
        for row in rows.iter().filter(|r| !r.report.is_conformant()) {
            eprintln!(
                "\n{} seed {}:\n{}",
                row.name,
                row.seed,
                row.report.to_table()
            );
        }
        Err(format!(
            "{} run(s) violated a paper bound",
            violations.len()
        ))
    }
}

/// Resolves a `run`/`conformance` target into a title and spec
/// list at `scale`: a file iff it ends in `.scn` (whatever else the
/// working directory holds — an entry named `all` or `ring-steady` must
/// not shadow the selection), otherwise a [`registry::select`] selection
/// — a comma list of built-in names and sets (`all`, `campaign`, `bench`,
/// `fault-heavy`). A selection that matches nothing is a hard error, so a
/// typo'd scenario name can never turn a CI gate into an empty (vacuously
/// green) sweep.
fn resolve_specs(target: &str, scale: Scale) -> Result<(String, Vec<ScenarioSpec>), String> {
    if target.ends_with(".scn") {
        let spec = read_artifact(target, format::parse)?;
        spec.validate().map_err(|e| format!("{target}: {e}"))?;
        return Ok((spec.name.clone(), vec![spec.scaled(scale)]));
    }
    let specs = registry::select(target)?;
    Ok((
        target.to_string(),
        specs.iter().map(|s| s.scaled(scale)).collect(),
    ))
}

/// Resolves the target of a verb that takes exactly one scenario.
fn resolve_one(verb: &str, target: &str, scale: Scale) -> Result<ScenarioSpec, String> {
    match resolve_specs(target, scale)?.1.as_slice() {
        [spec] => Ok(spec.clone()),
        _ => Err(format!(
            "{verb} exactly one scenario (a name or a .scn file)"
        )),
    }
}

/// Reads the file at `path` and parses it, naming the path in either
/// failure.
fn read_artifact<T, E: std::fmt::Display>(
    path: &str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_baseline(mut args: Args) -> Result<(), String> {
    let out = args.value("--out", "a file", path)?;
    let input = args
        .positional()
        .ok_or("baseline needs a campaign artifact")?;
    args.finish()?;
    let mut summary = read_artifact(&input, trend::read_summary)?;
    if summary.tolerances.is_empty() {
        // Pin the default per-scenario tolerance table alongside the
        // stats: tight for deterministic scenarios, loose for
        // seed-realized random families. Hand-tune the file if needed.
        summary.tolerances = trend::default_tolerances(&summary);
    }
    let baseline = trend::baseline_json(&summary);
    match out {
        None => print!("{baseline}"),
        Some(path) => {
            write_file(&path, &baseline)?;
            println!(
                "wrote {} ({} scenario(s), {} seed(s))",
                path.display(),
                summary.rows.len(),
                summary.seeds.len()
            );
        }
    }
    Ok(())
}

fn cmd_compare(mut args: Args) -> Result<(), String> {
    let tol_pct = args.value("--tol", "a non-negative percentage", non_negative)?;
    let tol_pct = tol_pct.unwrap_or(20.0);
    let baseline_path = args.positional().ok_or("compare needs a baseline file")?;
    // Everything positional after the baseline is a campaign artifact —
    // `results/campaign_*.json` may glob to several accumulated runs;
    // the newest one (by modification time) is the campaign under test.
    let campaign_paths: Vec<String> = std::iter::from_fn(|| args.positional()).collect();
    args.finish()?;
    let current_path = campaign_paths
        .iter()
        .max_by_key(|p| {
            std::fs::metadata(p.as_str())
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH)
        })
        .ok_or("compare needs a campaign artifact")?;
    if campaign_paths.len() > 1 {
        println!(
            "{} campaign artifact(s) given; comparing the newest: {current_path}",
            campaign_paths.len()
        );
    }
    let baseline = read_artifact(&baseline_path, trend::read_summary)?;
    let current = read_artifact(current_path, trend::read_summary)?;
    let report = trend::compare(&baseline, &current, tol_pct / 100.0);
    println!("{}", report.table);
    if report.passed() {
        println!(
            "ok: {} scenario(s) within ±{tol_pct}% of {baseline_path}, seeds, node counts \
             and engine counters identical",
            baseline.rows.len()
        );
        Ok(())
    } else {
        for m in &report.mismatches {
            eprintln!("{m}");
        }
        for f in &report.findings {
            let (name, column, relative) = (&f.scenario, &f.column, f.relative() * 100.0);
            let (base, cur) = (f.baseline, f.current);
            eprintln!("DRIFT {name}: {column} {base} -> {cur} ({relative:+.1}%)");
        }
        Err(format!(
            "{} exact mismatch(es) and {} drift finding(s) beyond ±{tol_pct}% (refresh \
             the baseline with `gcs-scenarios baseline` if this change is intentional)",
            report.mismatches.len(),
            report.findings.len()
        ))
    }
}
