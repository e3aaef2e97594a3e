//! The one scenario-run driver, and the campaign built on it.
//!
//! Every consumer of a scenario — campaign statistics, the conformance
//! oracle, the telemetry recorder, chaos scoring, replay —
//! does the same thing to it: build `(spec, seed, threads)`, replay the
//! scripted faults, step the observation grid, look. That exists once:
//! [`run_pass`] feeds every attached [`Observer`] from a single pass, and
//! [`sweep`] fans a job over the scenario × seed matrix through
//! [`gcs_analysis::parallel_map_progress`] (the executor the experiment
//! harness uses as `gcs_bench::parallel_map`).
//!
//! The campaign itself is one observer ([`OutcomeObserver`]), aggregation
//! through [`EnsembleStats`] — so campaign numbers are directly
//! comparable with the theorem experiments — and the machine-readable
//! `results/campaign_*.json` trajectory artifact (`gcs-campaign/v1`),
//! whose writer [`campaign_json`] and reader [`read_campaign`] come from
//! the one schema declared here.

use std::iter::Peekable;
use std::time::Instant;

use gcs_analysis::{local_skew_with, parallel_map_progress, EnsembleStats};
use gcs_core::{Engine, SimStats};
use gcs_net::EdgeKey;

use crate::error::ScenarioError;
use crate::json::{self, Field, Json, JsonValue};
use crate::spec::{FaultSpec, Metric, Scale, ScenarioSpec};
use crate::telemetry::{TelemetryObserver, TelemetryRun};

/// A spec's scripted faults in firing order. The subtle invariants of
/// fault replay — ordering by `total_cmp` here, and a fault due *at* an
/// instant firing before anything else happens there in [`fire_due`] —
/// live in these two functions and nowhere else.
fn firing_order(faults: &[FaultSpec]) -> Peekable<impl Iterator<Item = FaultSpec>> {
    let mut faults = faults.to_vec();
    faults.sort_by(|a, b| a.at().total_cmp(&b.at()));
    faults.into_iter().peekable()
}

/// Injects every remaining fault due by `t`, each at its own exact
/// instant.
fn fire_due<E: Engine + ?Sized>(
    sim: &mut E,
    faults: &mut Peekable<impl Iterator<Item = FaultSpec>>,
    t: f64,
) {
    while let Some(f) = faults.next_if(|f| f.at() <= t) {
        sim.run_until_secs(f.at());
        match f {
            FaultSpec::ClockOffset { node, amount, .. } => {
                sim.inject_clock_offset(gcs_net::NodeId::from(node), amount);
            }
            FaultSpec::EstimateBias { node, bias, .. } => {
                sim.inject_estimate_bias(gcs_net::NodeId::from(node), bias);
            }
        }
    }
}

/// Replays a spec's scripted faults into a hand-driven simulation: runs
/// it forward to each fault's instant (in time order) and injects the
/// offset. This is the seam for experiment harnesses that drive their
/// own observation loop but still source injections from the spec.
pub fn apply_faults<E: Engine + ?Sized>(sim: &mut E, faults: &[FaultSpec]) {
    fire_due(sim, &mut firing_order(faults), f64::INFINITY);
}

/// Drives a built simulation over a scenario's observation grid: at every
/// instant `k · sample` (with the exact `end` instant appended), any
/// scripted fault due by then is injected at *its* exact instant first,
/// then the simulation is advanced to the sample instant and `observe` is
/// called. This is the one sampling loop: [`run_pass`] and the
/// engine-equivalence suites all go through it, so the `end − 1e-12`
/// epsilon lives here and nowhere else.
pub fn drive_sampled<E: Engine + ?Sized>(
    sim: &mut E,
    faults: &[FaultSpec],
    sample: f64,
    end: f64,
    mut observe: impl FnMut(f64, &E),
) {
    let mut faults = firing_order(faults);
    let mut k = 0u64;
    loop {
        let t = (k as f64 * sample).min(end);
        fire_due(sim, &mut faults, t);
        sim.run_until_secs(t);
        observe(t, sim);
        if t >= end - 1e-12 {
            break;
        }
        k += 1;
    }
}

/// One consumer of a scenario pass. Observers only look — none may change
/// the run, which is what lets any set of them share one pass
/// (`tests/parallel_equivalence.rs` holds them to it).
pub trait Observer {
    /// Called once, on the freshly built engine still at time zero.
    fn attach(&mut self, _engine: &mut dyn Engine, _spec: &ScenarioSpec, _seed: u64) {}
    /// Called at every grid instant `t`, with the engine quiescent there.
    fn sample(&mut self, _t: f64, _engine: &dyn Engine) {}
    /// Called once, after the end instant.
    fn detach(&mut self, _engine: &mut dyn Engine) {}
}

/// What every pass reports, whoever observed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Scenario name.
    pub scenario: String,
    /// The run seed.
    pub seed: u64,
    /// Worker threads the engine was asked for (at least 1).
    pub threads: usize,
    /// Node count after scaling.
    pub nodes: usize,
    /// Wall-clock seconds for the drive (excludes build and attach).
    pub wall_secs: f64,
    /// The engine's deterministic counters at the end instant.
    pub stats: SimStats,
}

/// Runs one scenario once: builds the engine ([`ScenarioSpec::engine`]),
/// attaches the observers, drives it over the observation grid
/// ([`drive_sampled`]) and detaches.
/// Identical `(spec, seed)` give bit-identical observations at every
/// thread count and with any set of observers attached.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec fails to validate or build.
pub fn run_pass(
    spec: &ScenarioSpec,
    seed: u64,
    threads: usize,
    observers: &mut [&mut dyn Observer],
) -> Result<Pass, ScenarioError> {
    let mut engine = spec.engine(seed, threads)?;
    for o in observers.iter_mut() {
        o.attach(&mut *engine, spec, seed);
    }
    let end = spec.end_secs();
    let started = Instant::now();
    drive_sampled(&mut *engine, &spec.faults, spec.sample, end, |t, e| {
        for o in observers.iter_mut() {
            o.sample(t, e);
        }
    });
    let wall_secs = started.elapsed().as_secs_f64();
    for o in observers.iter_mut() {
        o.detach(&mut *engine);
    }
    Ok(Pass {
        scenario: spec.name.clone(),
        seed,
        threads: threads.max(1),
        nodes: engine.as_sim().node_count(),
        wall_secs,
        stats: engine.as_sim().stats(),
    })
}

/// Runs `job` for every scenario × seed combination in parallel and
/// returns the results scenario-major, then by seed. `on_done(spec, seed,
/// result)` fires once per job **in that same order** regardless of
/// which worker finished first, so progress output is deterministic and
/// CI logs diff cleanly; a no-op callback is the non-progress sweep.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] any job produced (after every job
/// has been reported).
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn sweep<R: Send>(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    job: impl Fn(&ScenarioSpec, u64) -> Result<R, ScenarioError> + Sync,
    on_done: impl Fn(&ScenarioSpec, u64, &Result<R, ScenarioError>) + Sync,
) -> Result<Vec<R>, ScenarioError> {
    assert!(!seeds.is_empty(), "a sweep needs at least one seed");
    let jobs: Vec<(usize, u64)> = (0..specs.len())
        .flat_map(|i| seeds.iter().map(move |&s| (i, s)))
        .collect();
    parallel_map_progress(
        jobs,
        |(i, seed)| job(&specs[i], seed),
        |idx, result| on_done(&specs[idx / seeds.len()], seeds[idx % seeds.len()], result),
    )
    .into_iter()
    .collect()
}

/// Everything one seeded run of one scenario produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioOutcome {
    /// The run seed.
    pub seed: u64,
    /// The scenario's primary metric (see [`Metric`]).
    pub primary: f64,
    /// Maximum global skew over the observation window.
    pub max_global_skew: f64,
    /// Maximum local (per-edge) skew over the observation window.
    pub max_local_skew: f64,
    /// Global skew at the final instant.
    pub final_global_skew: f64,
    /// Sampled instants (inside the observation window) at which
    /// [`Simulation::verify_invariants`](gcs_core::Simulation::verify_invariants)
    /// reported violations. Nonzero is expected while a partition is open
    /// or right after a fault injection.
    pub invariant_violations: u64,
    /// Messages handed to the transport.
    pub messages_sent: u64,
    /// Messages delivered.
    pub messages_delivered: u64,
    /// Messages dropped by the continuity rule.
    pub messages_dropped: u64,
    /// Total events the engine processed.
    pub events: u64,
    /// Tick sweeps executed.
    pub ticks: u64,
    /// Nodes actually re-evaluated across all tick sweeps (the dirty-set
    /// engine's work, vs `nodes × ticks` for a full per-tick pass).
    pub mode_evaluations: u64,
    /// `(t, global skew)` at every sampled instant of the whole run —
    /// the trajectory other tooling plots or regression-checks.
    pub trajectory: Vec<(f64, f64)>,
}

/// The campaign's observer: the global-skew trajectory over the whole
/// run, and skew maxima plus invariant checks inside the observation
/// window.
#[derive(Debug)]
pub struct OutcomeObserver {
    warmup: f64,
    metric: Metric,
    outcome: ScenarioOutcome,
    // One edge buffer for the whole observation loop (the local-skew
    // samples would otherwise allocate a fresh vector per instant).
    edges: Vec<EdgeKey>,
}

impl OutcomeObserver {
    /// An observer for one run of `spec` (its warm-up bounds the
    /// observation window, its metric picks the primary).
    #[must_use]
    pub fn new(spec: &ScenarioSpec) -> Self {
        OutcomeObserver {
            warmup: spec.warmup,
            metric: spec.metric,
            outcome: ScenarioOutcome::default(),
            edges: Vec::new(),
        }
    }

    /// The outcome of the pass this observer rode.
    #[must_use]
    pub fn finish(self, pass: &Pass) -> ScenarioOutcome {
        let o = self.outcome;
        let final_global_skew = o.trajectory.last().map_or(0.0, |&(_, g)| g);
        ScenarioOutcome {
            seed: pass.seed,
            primary: match self.metric {
                Metric::GlobalSkew => o.max_global_skew,
                Metric::LocalSkew => o.max_local_skew,
                Metric::FinalGlobalSkew => final_global_skew,
            },
            final_global_skew,
            messages_sent: pass.stats.messages_sent,
            messages_delivered: pass.stats.messages_delivered,
            messages_dropped: pass.stats.messages_dropped,
            events: pass.stats.events,
            ticks: pass.stats.ticks,
            mode_evaluations: pass.stats.mode_evaluations,
            ..o
        }
    }
}

impl Observer for OutcomeObserver {
    fn sample(&mut self, t: f64, engine: &dyn Engine) {
        let (sim, o) = (engine.as_sim(), &mut self.outcome);
        let g = sim.global_skew_now();
        o.trajectory.push((t, g));
        if t >= self.warmup - 1e-9 {
            o.max_global_skew = o.max_global_skew.max(g);
            o.max_local_skew = o.max_local_skew.max(local_skew_with(sim, &mut self.edges));
            if !sim.verify_invariants().is_empty() {
                o.invariant_violations += 1;
            }
        }
    }
}

/// One campaign pass on `threads` engine threads: the outcome, plus the
/// instrumented run when the telemetry recorder rides along.
fn observed_run(
    spec: &ScenarioSpec,
    seed: u64,
    threads: usize,
    record: bool,
) -> Result<(ScenarioOutcome, Option<TelemetryRun>), ScenarioError> {
    let mut outcome = OutcomeObserver::new(spec);
    let mut recorder = record.then(|| TelemetryObserver::new(false));
    let mut observers: Vec<&mut dyn Observer> = vec![&mut outcome];
    observers.extend(recorder.as_mut().map(|r| r as &mut dyn Observer));
    let pass = run_pass(spec, seed, threads, &mut observers)?;
    Ok((outcome.finish(&pass), recorder.map(|r| r.finish(&pass))))
}

/// Runs one scenario once on the sequential engine and returns the
/// campaign outcome.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec fails to validate or build.
pub fn run_scenario(spec: &ScenarioSpec, seed: u64) -> Result<ScenarioOutcome, ScenarioError> {
    Ok(observed_run(spec, seed, 1, false)?.0)
}

/// One scenario's aggregated campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRow {
    /// Scenario name.
    pub name: String,
    /// Node count after scaling.
    pub nodes: usize,
    /// The aggregated metric.
    pub metric: Metric,
    /// Ensemble statistics of the primary metric across seeds.
    pub stats: EnsembleStats,
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Runs every scenario × seed combination through [`sweep`] on `threads`
/// engine threads and aggregates per scenario; `on_done` is its in-order
/// completion callback. With `record` the telemetry recorder rides every
/// pass and the instrumented runs come back too, in job order. The
/// outcomes are the same either way, and at every thread count.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] any run produced.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn run_campaign(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    threads: usize,
    record: bool,
    on_done: impl Fn(&ScenarioSpec, u64, Result<&ScenarioOutcome, &ScenarioError>) + Sync,
) -> Result<(Vec<CampaignRow>, Vec<TelemetryRun>), ScenarioError> {
    let (outcomes, runs): (Vec<_>, Vec<_>) = sweep(
        specs,
        seeds,
        |spec, seed| observed_run(spec, seed, threads, record),
        |spec, seed, result| on_done(spec, seed, result.as_ref().map(|(outcome, _)| outcome)),
    )?
    .into_iter()
    .unzip();
    let mut outcomes = outcomes.into_iter();
    let rows = specs.iter().map(|spec| {
        let outcomes: Vec<ScenarioOutcome> = outcomes.by_ref().take(seeds.len()).collect();
        let primaries: Vec<f64> = outcomes.iter().map(|o| o.primary).collect();
        CampaignRow {
            name: spec.name.clone(),
            nodes: spec.topology.node_count(),
            metric: spec.metric,
            stats: EnsembleStats::from_values(&primaries),
            outcomes,
        }
    });
    Ok((rows.collect(), runs.into_iter().flatten().collect()))
}

/// The artifact format tag the campaign writer emits.
pub const CAMPAIGN_FORMAT: &str = "gcs-campaign/v1";

/// A fully parsed `gcs-campaign/v1` artifact — the same [`CampaignRow`]s
/// the runner aggregated before writing.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignArtifact {
    /// Campaign title.
    pub campaign: String,
    /// Scale token (`tiny` / `default` / `full`).
    pub scale: String,
    /// The seed list the campaign fanned out over.
    pub seeds: Vec<u64>,
    /// Per-scenario rows, in artifact order.
    pub rows: Vec<CampaignRow>,
}

// The `gcs-campaign/v1` schema (`scenarios/README.md`): each key, once.
json::record! { CampaignArtifact as "campaign artifact" {
    "campaign" => campaign, "scale" => scale, "seeds" => seeds, "scenarios" => rows,
} }

json::record! { CampaignRow as "campaign scenario" {
    "name" => name, "nodes" => nodes, "metric" => metric, "stats" => stats,
    "outcomes" => outcomes,
} }

json::record! { EnsembleStats as "ensemble stats" {
    "runs" => runs, "mean" => mean, "min" => min, "max" => max, "median" => median,
    "stddev" => stddev, "p10" => p10, "p90" => p90,
} }

json::record! { ScenarioOutcome as "outcome" {
    "seed" => seed, "primary" => primary,
    "max_global_skew" => max_global_skew, "max_local_skew" => max_local_skew,
    "final_global_skew" => final_global_skew,
    "invariant_violations" => invariant_violations,
    "messages_sent" => messages_sent, "messages_delivered" => messages_delivered,
    "messages_dropped" => messages_dropped,
    "events" => events, "ticks" => ticks, "mode_evaluations" => mode_evaluations,
    "trajectory" => trajectory,
} }

/// A metric is written as its token.
impl Field for Metric {
    fn write(&self) -> Json {
        Json::Str(self.token().to_string())
    }
    fn read(v: &JsonValue) -> Result<Self, String> {
        let token = String::read(v)?;
        Metric::parse(&token).ok_or_else(|| format!("unknown metric {token:?}"))
    }
}

/// Serializes a campaign to the `gcs-campaign/v1` artifact, on one line.
#[must_use]
pub fn campaign_json(title: &str, scale: Scale, seeds: &[u64], rows: &[CampaignRow]) -> String {
    let artifact = CampaignArtifact {
        campaign: title.to_string(),
        scale: scale.name().to_string(),
        seeds: seeds.to_vec(),
        rows: rows.to_vec(),
    };
    format!("{}\n", Json::Obj(json::tagged(CAMPAIGN_FORMAT, &artifact)))
}

/// Parses a `gcs-campaign/v1` artifact back into its [`CampaignRow`]s,
/// bit-identical to the rows [`campaign_json`] wrote (property-tested).
/// Keys the schema does not name are ignored.
///
/// # Errors
///
/// Returns a message on malformed JSON, a wrong `format` tag, or a
/// missing/mistyped field.
pub fn read_campaign(text: &str) -> Result<CampaignArtifact, String> {
    json::read_tagged(&json::parse(text)?, CAMPAIGN_FORMAT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn tiny(name: &str) -> ScenarioSpec {
        registry::find(name).expect("built-in").scaled(Scale::Tiny)
    }

    #[test]
    fn run_scenario_is_deterministic() {
        let spec = tiny("line-worstcase");
        let a = run_scenario(&spec, 3).unwrap();
        let b = run_scenario(&spec, 3).unwrap();
        assert_eq!(a, b, "identical spec + seed must give identical outcomes");
        let c = run_scenario(&spec, 4).unwrap();
        assert_ne!(a.trajectory, c.trajectory, "seeds must matter");
    }

    #[test]
    fn faults_fire_and_show_in_the_trajectory() {
        let spec = tiny("self-heal");
        let fault_at = spec.faults[0].at();
        let out = run_scenario(&spec, 1).unwrap();
        // Just after the injection the global skew must reflect the offset.
        let after = out
            .trajectory
            .iter()
            .find(|&&(t, _)| t >= fault_at)
            .expect("samples after the fault");
        assert!(after.1 >= 0.9, "fault not visible: {after:?}");
        // final-global-skew metric: recovery should beat the spike.
        assert!(out.primary < out.max_global_skew);
    }

    #[test]
    fn campaign_aggregates_per_scenario() {
        let specs = vec![tiny("line-worstcase"), tiny("ring-steady")];
        let seeds = [1, 2];
        let (rows, _) = run_campaign(&specs, &seeds, 1, false, |_, _, _| {}).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "line-worstcase");
        assert_eq!(rows[0].stats.runs, 2);
        assert!(rows[0].stats.min <= rows[0].stats.max);
        let json = campaign_json("smoke", Scale::Tiny, &seeds, &rows);
        assert!(json.starts_with("{\"format\":\"gcs-campaign/v1\""));
        assert!(json.contains("\"stddev\""));
        assert!(json.contains("\"p90\""));
        assert!(json.contains("\"trajectory\":[["));
        assert!(json.contains("\"events\":"));
        assert!(json.contains("\"ticks\":"));
        assert!(json.contains("\"mode_evaluations\":"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn campaign_reader_inverts_the_writer() {
        let specs = vec![tiny("line-worstcase"), tiny("self-heal")];
        let seeds = [0, 1];
        let (rows, _) = run_campaign(&specs, &seeds, 1, false, |_, _, _| {}).unwrap();
        let text = campaign_json("smoke", Scale::Tiny, &seeds, &rows);
        let artifact = read_campaign(&text).unwrap();
        assert_eq!(artifact.campaign, "smoke");
        assert_eq!(artifact.scale, "tiny");
        assert_eq!(artifact.seeds, seeds);
        assert_eq!(artifact.rows, rows, "parsed rows must be bit-identical");
        // An outcome without its engine counters is malformed, not zero;
        // the error walks down to the record that lost the key.
        let ticks = format!(",\"ticks\":{}", rows[0].outcomes[0].ticks);
        let err = read_campaign(&text.replacen(&ticks, "", 1)).unwrap_err();
        assert_eq!(
            err,
            "campaign artifact \"smoke\": field \"scenarios\": item 0: campaign \
             scenario \"line-worstcase\": field \"outcomes\": item 0: outcome: missing field \"ticks\""
        );
        // A metric token the reader does not know is named.
        let err = read_campaign(&text.replacen("\"global-skew\"", "\"skew\"", 1)).unwrap_err();
        assert!(
            err.ends_with("field \"metric\": unknown metric \"skew\""),
            "{err}"
        );
    }

    #[test]
    fn campaign_progress_reports_every_job_in_canonical_order() {
        use std::sync::Mutex;
        let specs = vec![tiny("line-worstcase"), tiny("ring-steady")];
        let seeds = [1, 2, 3];
        let seen = Mutex::new(Vec::new());
        let (rows, _) = run_campaign(&specs, &seeds, 1, false, |spec, seed, result| {
            assert!(result.is_ok());
            seen.lock().unwrap().push((spec.name.clone(), seed));
        })
        .unwrap();
        assert_eq!(rows.len(), 2);
        let seen = seen.into_inner().unwrap();
        // Scenario-major then seed order, independent of completion order.
        let expected: Vec<(String, u64)> = specs
            .iter()
            .flat_map(|s| seeds.iter().map(|&x| (s.name.clone(), x)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn outcome_surfaces_engine_counters() {
        let out = run_scenario(&tiny("ring-steady"), 0).unwrap();
        assert!(out.events > 0);
        assert!(out.ticks > 0);
        assert!(out.mode_evaluations > 0);
        // The dirty-set engine evaluates strictly less than nodes × ticks
        // on a steady scenario (that headroom is what the counter shows).
        assert!(out.events > out.ticks);
    }
}
