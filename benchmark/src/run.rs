//! One run of one workload in this process: the timed repetitions, the
//! output checks, and with `--trace 1` the traced repetition and the
//! layer kernels. This is what `BENCHMARK.json`'s command executes.

use gcs_analysis::stats;
use gcs_scenarios::json::{self, Json, JsonValue};

use crate::host::{nproc, status_kib};
use crate::kernels;
use crate::loopback;
use crate::metrics::{iqr_share, median, short, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{engine_rep, Kind, Layer, Rep, Workload, FULL_SECONDS};

/// Pinned seed-0 outputs per workload and `--seconds`.
const EXPECTED: &str = include_str!("../expected.json");

/// Set-up is sampled until this many host seconds of it have been seen
/// (or [`MAX_SETUPS`] samples), so a millisecond set-up is judged on
/// hundreds of samples instead of a handful.
const MIN_SETUP_SECS: f64 = 0.1;
const MAX_SETUPS: usize = 1000;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub reps: usize,
    pub trace: bool,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub nodes: usize,
    /// Simulated (or virtual) seconds of warm-up and window.
    pub warmup: f64,
    pub window: f64,
    pub window_events: u64,
    pub digest: u64,
    pub attempted: u64,
    pub failed: Vec<String>,
    /// The end-to-end values, or with `--trace 1` the per-layer values,
    /// in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The pinned `(window events, digest)` for seed 0 at `seconds`, if any.
pub fn expected(workload: &str, seconds: f64) -> Option<(u64, String)> {
    let doc = json::parse(EXPECTED).expect("expected.json parses");
    let entry = doc.get(workload)?.get(&format!("{seconds}"))?;
    Some((
        entry.get("events")?.as_u64()?,
        entry.get("digest")?.as_str()?.to_string(),
    ))
}

fn one_rep(
    w: &Workload,
    args: &Args,
    shards: usize,
    full: bool,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let scale = args.seconds / FULL_SECONDS;
    match w.kind {
        Kind::Loopback => loopback::rep(args.seed, w.window * scale, full, tr),
        _ => engine_rep(w, args.seed, scale, shards, full, tr),
    }
}

/// The window's host time with interference removed slice by slice: the
/// sum over slices of the fastest repetition of that slice. Interference
/// on a shared host only ever slows a slice down, and every repetition
/// does identical work in it, so the fastest is the least disturbed.
fn slicewise_best_secs(reps: &[Rep]) -> f64 {
    (0..reps[0].slices.len())
        .map(|i| {
            reps.iter()
                .map(|r| r.slices[i].secs)
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

pub fn measure(w: &'static Workload, args: &Args) -> Result<Outcome, String> {
    if nproc() < w.threads() {
        return Err(format!(
            "{} needs {} hardware threads and this host has {}: skipped, not measured",
            w.name,
            w.threads(),
            nproc()
        ));
    }
    let mut off = Tracer::new(false);
    let mut reps = Vec::with_capacity(args.reps);
    for _ in 0..args.reps {
        reps.push(one_rep(w, args, w.threads(), true, &mut off)?);
    }
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.iter().sum::<f64>() < MIN_SETUP_SECS && setups.len() < MAX_SETUPS {
        setups.push(one_rep(w, args, w.threads(), false, &mut off)?.setup_s);
    }

    // Output checks: each one is an operation that can fail.
    let first = &reps[0];
    let window_events: u64 = first.slices.iter().map(|s| s.events).sum();
    let mut checks: Vec<(String, bool)> = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        for &(name, ok) in &rep.checks {
            checks.push((format!("{name} (repetition {i})"), ok));
        }
        if i > 0 {
            checks.push((
                format!("digest repeats (repetition {i})"),
                rep.digest == first.digest,
            ));
            let same = rep.slices.len() == first.slices.len()
                && rep
                    .slices
                    .iter()
                    .zip(&first.slices)
                    .all(|(a, b)| a.events == b.events);
            checks.push((format!("slice events repeat (repetition {i})"), same));
        }
    }
    if args.seed == 0 {
        if let Some((events, digest)) = expected(w.name, args.seconds) {
            checks.push((
                "window events as pinned".to_string(),
                window_events == events,
            ));
            checks.push((
                "digest as pinned".to_string(),
                format!("{:016x}", first.digest) == digest,
            ));
        }
    }

    let run_s = slicewise_best_secs(&reps);
    // Best of the samples, for the reason given at `slicewise_best_secs`.
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let mut metrics = Vec::new();
    if args.trace {
        let layer = traced(w, args, &reps, run_s, &setups, &mut checks)?;
        for (name, unit, _) in PER_LAYER {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let values = [
            setup_s,
            run_s,
            window_events as f64 / run_s,
            status_kib("VmHWM") as f64 / 1024.0,
        ];
        for (m, v) in END_TO_END.iter().zip(values) {
            metrics.push((m.name, v, m.unit));
        }
    }
    let scale = args.seconds / FULL_SECONDS;
    Ok(Outcome {
        workload: w.name,
        nodes: first.nodes,
        warmup: w.warmup * scale,
        window: w.window * scale,
        window_events,
        digest: first.digest,
        attempted: checks.len() as u64,
        failed: checks
            .into_iter()
            .filter_map(|(name, ok)| (!ok).then_some(name))
            .collect(),
        metrics,
    })
}

/// The traced repetition and everything derived from it.
fn traced(
    w: &Workload,
    args: &Args,
    reps: &[Rep],
    run_s: f64,
    setups: &[f64],
    checks: &mut Vec<(String, bool)>,
) -> Result<Layer, String> {
    let mut tr = Tracer::new(true);
    let rep = one_rep(w, args, w.threads(), true, &mut tr)?;
    checks.push((
        "digest repeats (traced repetition)".to_string(),
        rep.digest == reps[0].digest,
    ));
    let mut layer = rep.layer;
    // Memory per node is only visible the first time this process builds.
    if let Some(&bytes) = reps[0].layer.get("core.bytes_per_node") {
        layer.insert("core.bytes_per_node", bytes);
    }
    // Slice by slice against the typical untraced repetition, and the
    // median of those ratios: a slow spell or a change of the host's mood
    // during either side moves a minority of slices, not the estimate.
    let untraced = |i: usize| median(&reps.iter().map(|r| r.slices[i].secs).collect::<Vec<_>>());
    let ratios: Vec<f64> = (rep.slices.iter().enumerate())
        .map(|(i, s)| s.secs / untraced(i))
        .collect();
    layer.insert("trace_overhead_pct", 100.0 * (median(&ratios) - 1.0));
    let whole: Vec<f64> = reps
        .iter()
        .map(|r| r.slices.iter().map(|s| s.secs).sum())
        .collect();
    layer.insert("host.run_s_median", median(&whole));
    layer.insert("host.run_s_iqr_pct", 100.0 * iqr_share(&whole));
    layer.insert("host.setup_s_median", median(setups));
    layer.insert("host.reps", reps.len() as f64);

    if !matches!(w.kind, Kind::Loopback) {
        let per_event: Vec<f64> = reps
            .iter()
            .flat_map(|r| &r.slices)
            .filter(|s| s.events > 0)
            .map(|s| s.work_secs * 1e9 / s.events as f64)
            .collect();
        layer.insert("core.slice_ns_per_event_p50", median(&per_event));
        layer.insert(
            "core.slice_ns_per_event_p90",
            stats::quantile(&per_event, 0.9),
        );
        layer.insert("core.slice_ns_per_event_max", stats::max(&per_event));
        layer.insert("core.slice_samples", per_event.len() as f64);
        layer.insert("core.window_s", run_s);
    }

    if let Kind::Sharded(_) = w.kind {
        let open = tr.begin("sequential_twin");
        let twin = one_rep(w, args, 1, true, &mut tr)?;
        tr.end(open);
        checks.push((
            "digest equals the sequential engine's".to_string(),
            twin.digest == reps[0].digest,
        ));
        // One whole window each way: the sequential one against the
        // typical sharded one.
        let twin_s: f64 = twin.slices.iter().map(|s| s.secs).sum();
        layer.insert("core.par.speedup_vs_seq", twin_s / median(&whole));
        if let Some(&rounds) = layer.get("core.par.barrier_rounds") {
            layer.insert("core.par.us_per_round", run_s * 1e6 / rounds);
        }
    }

    // Kernels sized from the counts just seen, and the attribution they
    // allow from outside: events x kernel cost as a share of the window.
    if let (Some((params, info)), Some(&depth)) =
        (&rep.kernel_inputs, layer.get("sim.queue_depth_mean"))
    {
        let open = tr.begin("kernels");
        let degree = (2.0 * layer["net.edges"] / rep.nodes as f64).round() as usize;
        let queue = kernels::queue_pair_ns(depth.round() as usize);
        let [advance, merge, decide] = kernels::protocol_ns(rep.nodes, degree, params, *info);
        tr.end(open);
        layer.insert("sim.queue_pair_ns", queue);
        layer.insert("protocol.advance_to_ns", advance);
        layer.insert("protocol.merge_flood_ns", merge);
        layer.insert("protocol.decide_certify_ns", decide);
        let window_ns = run_s * 1e9;
        let shares = [
            ("core.est_share_queue", layer["core.events"] * queue),
            (
                "core.est_share_merge",
                layer["protocol.flood_merges"] * (merge + advance),
            ),
            (
                "core.est_share_decide",
                layer["core.mode_evaluations"] * decide,
            ),
        ];
        let mut residual = 1.0;
        for (name, ns) in shares {
            layer.insert(name, ns / window_ns);
            residual -= ns / window_ns;
        }
        layer.insert("core.est_share_residual", residual);
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("trace-{}.jsonl", w.name)),
                tr.to_jsonl(w.name),
            )
        })
        .map_err(|e| format!("cannot write the trace under {}: {e}", dir.display()))?;
    println!("self time by span (traced repetition):");
    for (name, ns, calls) in tr.self_ns_by_name() {
        println!("  {name:<32} {:>12.6} s  {calls:>9} calls", ns as f64 / 1e9);
    }
    Ok(layer)
}

impl Outcome {
    /// The run's details beyond the contract's last line, for the suite.
    pub fn detail_json(&self) -> Json {
        Json::Obj(vec![
            ("workload", Json::Str(self.workload.to_string())),
            ("nodes", Json::Int(self.nodes as u64)),
            ("warmup_sim_s", Json::Num(self.warmup)),
            ("window_sim_s", Json::Num(self.window)),
            ("events", Json::Int(self.window_events)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            (
                "failed_checks",
                Json::Arr(self.failed.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }

    /// The contract's last line.
    pub fn result_json(&self) -> Json {
        Json::Obj(vec![
            ("correct", Json::Bool(self.failed.is_empty())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed.len() as u64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name,
                                Json::Obj(vec![
                                    ("value", Json::Num(value)),
                                    ("unit", Json::Str(unit.to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Prints every metric by name and unit, each failed check, the
    /// detail line and the result line (last).
    pub fn print(&self) {
        println!(
            "workload {} nodes {} warm-up {} window {} (simulated s) events {} digest {:016x}",
            self.workload, self.nodes, self.warmup, self.window, self.window_events, self.digest
        );
        for (name, value, unit) in &self.metrics {
            println!("{name:<34} {:>14} {unit}", short(*value));
        }
        for check in &self.failed {
            println!("FAILED CHECK {}: {check}", self.workload);
        }
        println!("detail {}", self.detail_json());
        println!("{}", self.result_json());
    }
}

/// Parses the `detail` and result lines a child run printed.
pub fn parse_child(stdout: &str) -> Result<(JsonValue, JsonValue), String> {
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("the run printed nothing")?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .ok_or("the run printed no detail line")?;
    Ok((json::parse(detail)?, json::parse(result)?))
}
