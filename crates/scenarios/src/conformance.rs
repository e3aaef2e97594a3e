//! The conformance campaign: every registry scenario × seed driven
//! through the paper-bound oracles of [`gcs_analysis::oracle`].
//!
//! Where [`campaign`](crate::campaign) measures *what* a run did (skew
//! statistics, trajectories), conformance checks *that it was allowed to*:
//! each sampled snapshot is verified against the Theorem 5.6 global-skew
//! envelope, the Theorem 5.22 gradient bound, and the weak-edge legality
//! bound, with the realized fault/insertion log widening the envelope
//! exactly where the theorems permit. `gcs-scenarios conformance` sweeps
//! the whole registry and exits non-zero on any bound violation — the
//! theorem-level CI gate next to the statistical `compare` gate.

use gcs_analysis::oracle::{ConformanceChecker, ConformanceReport, OracleConfig, OracleSampling};
use gcs_analysis::Table;
use gcs_core::Engine;

use crate::campaign::{run_pass, sweep, Observer, Stops};
use crate::error::ScenarioError;
use crate::spec::ScenarioSpec;
use crate::telemetry::{TelemetryObserver, TelemetryRun};

/// Knobs for a conformance sweep beyond the default exact sequential pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConformanceOptions {
    /// Sampled-oracle source rate in `(0, 1]`; `None` keeps the exact
    /// all-pairs oracle. See [`OracleSampling`] for the detection bound.
    pub oracle_sample: Option<f64>,
    /// Base seed for the sampled oracle's source draws. Mixed with each
    /// run seed so different runs draw independent source sets while one
    /// `(scenario, seed)` run stays byte-deterministic — including across
    /// engine shard counts, because the draw never sees the engine.
    pub oracle_seed: u64,
    /// Worker threads per run: 1 drives the sequential reference engine,
    /// larger values drive the sharded engine with that many shards.
    pub threads: usize,
}

impl Default for ConformanceOptions {
    fn default() -> Self {
        ConformanceOptions {
            oracle_sample: None,
            oracle_seed: 0,
            threads: 1,
        }
    }
}

impl ConformanceOptions {
    /// The per-run sampling plan (`None` in exact mode). The oracle seed
    /// is mixed with the run seed via a golden-ratio multiply so seed 0
    /// and seed 1 do not share source draws.
    #[must_use]
    pub fn sampling_for(&self, run_seed: u64) -> Option<OracleSampling> {
        self.oracle_sample.map(|rate| {
            OracleSampling::new(
                rate,
                self.oracle_seed ^ run_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
        })
    }
}

/// What the oracle saw over one pass: the verdict, plus the margin time
/// series a telemetry artifact carries.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleTrack {
    /// The finished verdict.
    pub report: ConformanceReport,
    /// `(t, global utilization, gradient utilization)` per sample instant.
    pub series: Vec<(f64, f64, f64)>,
}

/// The conformance oracle as a pass observer: a [`ConformanceChecker`]
/// built from the engine it is attached to, checking every sampled
/// snapshot against the paper bounds. It sees only quiescent snapshots
/// through the engine-agnostic [`Engine`] seam, so the verdict is
/// identical at every shard count; with a sampling plan it is a
/// conservative projection of the exact verdict (never a larger worst
/// case). The checker folds every sample into O(hop classes) state.
#[derive(Debug)]
pub struct OracleObserver {
    sampling: Option<OracleSampling>,
    checker: Option<ConformanceChecker>,
    series: Vec<(f64, f64, f64)>,
}

impl OracleObserver {
    /// An exact all-pairs oracle (`None`) or a sampled-source one.
    #[must_use]
    pub fn new(sampling: Option<OracleSampling>) -> Self {
        OracleObserver {
            sampling,
            checker: None,
            series: Vec::new(),
        }
    }

    /// The verdict and utilization series of the pass this observer rode.
    ///
    /// # Panics
    ///
    /// Panics if the observer never rode a pass.
    #[must_use]
    pub fn finish(self) -> OracleTrack {
        OracleTrack {
            report: self
                .checker
                .expect("the oracle observer rode a pass")
                .finish(),
            series: self.series,
        }
    }
}

impl Observer for OracleObserver {
    fn attach(&mut self, engine: &mut dyn Engine, spec: &ScenarioSpec, _seed: u64) {
        let mut cfg = OracleConfig::for_sim(engine.as_sim(), spec.sample);
        cfg.sampling = self.sampling;
        self.checker = Some(ConformanceChecker::with_config(engine.as_sim(), cfg));
    }

    fn sample(&mut self, t: f64, engine: &dyn Engine) {
        let checker = self.checker.as_mut().expect("attach precedes sample");
        checker.observe(engine.as_sim());
        let r = checker.report_so_far();
        self.series
            .push((t, r.global.worst_utilization, r.gradient.worst_utilization));
    }
}

/// One scenario × seed conformance verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceRow {
    /// Scenario name.
    pub name: String,
    /// Run seed.
    pub seed: u64,
    /// The oracle's verdict for this run.
    pub report: ConformanceReport,
}

/// One conformance pass: the verdict, plus the instrumented run (carrying
/// the oracle's utilization series) when the telemetry recorder rides
/// along.
fn observed_run(
    spec: &ScenarioSpec,
    seed: u64,
    opts: &ConformanceOptions,
    record: bool,
) -> Result<(ConformanceRow, Option<TelemetryRun>), ScenarioError> {
    let mut oracle = OracleObserver::new(opts.sampling_for(seed));
    let mut recorder = record.then(|| TelemetryObserver::new(false));
    let mut observers: Vec<&mut dyn Observer> = vec![&mut oracle];
    observers.extend(recorder.as_mut().map(|r| r as &mut dyn Observer));
    let pass = run_pass(spec, seed, opts.threads, Stops::Grid, &mut observers)?;
    let run = recorder.map(|r| r.finish(&pass));
    let track = oracle.finish();
    let row = ConformanceRow {
        name: pass.scenario,
        seed,
        report: track.report.clone(),
    };
    let oracle = Some(track);
    Ok((row, run.map(|r| TelemetryRun { oracle, ..r })))
}

/// Drives one seeded scenario over its observation grid — replaying
/// scripted faults at their exact instants, exactly like the campaign
/// runner — and checks every sampled snapshot against the paper bounds,
/// on the engine and in the exact/sampled mode `opts` picks.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec fails to validate or build.
pub fn run_scenario_conformance(
    spec: &ScenarioSpec,
    seed: u64,
    opts: &ConformanceOptions,
) -> Result<ConformanceReport, ScenarioError> {
    Ok(observed_run(spec, seed, opts, false)?.0.report)
}

/// Runs every scenario × seed combination through [`sweep`]; `on_done` is
/// its in-order completion callback. With `record` the telemetry recorder
/// rides every pass next to the oracle and the instrumented runs come
/// back too, in job order — the verdicts are the same either way.
///
/// # Errors
///
/// Returns the first [`ScenarioError`] any run produced.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn run_conformance(
    specs: &[ScenarioSpec],
    seeds: &[u64],
    opts: &ConformanceOptions,
    record: bool,
    on_done: impl Fn(&ScenarioSpec, u64, Result<&ConformanceReport, &ScenarioError>) + Sync,
) -> Result<(Vec<ConformanceRow>, Vec<TelemetryRun>), ScenarioError> {
    let (rows, runs): (Vec<_>, Vec<_>) = sweep(
        specs,
        seeds,
        |spec, seed| observed_run(spec, seed, opts, record),
        |spec, seed, result| on_done(spec, seed, result.as_ref().map(|(row, _)| &row.report)),
    )?
    .into_iter()
    .unzip();
    Ok((rows, runs.into_iter().flatten().collect()))
}

/// Renders a conformance sweep as one row per scenario × seed.
#[must_use]
pub fn conformance_table(rows: &[ConformanceRow]) -> Table {
    let mut t = Table::new(
        format!("conformance sweep — {} run(s)", rows.len()),
        &[
            "scenario",
            "seed",
            "samples",
            "global use",
            "gradient use",
            "weak use",
            "faults",
            "verdict",
        ],
    );
    t.caption(
        "use = worst observed/allowed ratio of each bound family (global-skew \
         envelope, pairwise gradient, weak-edge legality); > 100% is a violation. \
         faults = corruptions replayed from the realized change log.",
    );
    let pct = |c: &gcs_analysis::BoundCheck| {
        if c.checks == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * c.worst_utilization)
        }
    };
    for r in rows {
        t.row([
            r.name.clone(),
            r.seed.to_string(),
            r.report.samples.to_string(),
            pct(&r.report.global),
            pct(&r.report.gradient),
            pct(&r.report.weak_edges),
            r.report.faults_seen.to_string(),
            if r.report.is_conformant() {
                "ok".to_string()
            } else {
                "VIOLATION".to_string()
            },
        ]);
    }
    t
}

/// The violating runs of a sweep, with their violation descriptions.
#[must_use]
pub fn violations(rows: &[ConformanceRow]) -> Vec<(String, u64, Vec<String>)> {
    rows.iter()
        .filter(|r| !r.report.is_conformant())
        .map(|r| (r.name.clone(), r.seed, r.report.violations()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::spec::Scale;

    #[test]
    fn steady_and_fault_scenarios_conform() {
        for name in ["ring-steady", "self-heal"] {
            let spec = registry::find(name).expect("built-in").scaled(Scale::Tiny);
            let report =
                run_scenario_conformance(&spec, 1, &ConformanceOptions::default()).unwrap();
            assert!(report.is_conformant(), "{name}: {:?}", report.violations());
            assert!(report.samples > 0);
            if name == "self-heal" {
                assert_eq!(report.faults_seen, 1, "the scripted fault must be replayed");
            }
        }
    }

    #[test]
    fn sweep_runs_in_parallel_and_tabulates() {
        let specs = vec![
            registry::find("line-worstcase")
                .unwrap()
                .scaled(Scale::Tiny),
            registry::find("churn-burst").unwrap().scaled(Scale::Tiny),
        ];
        let opts = ConformanceOptions::default();
        let (rows, _) = run_conformance(&specs, &[0, 1], &opts, false, |_, _, _| {}).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].name, "line-worstcase");
        assert_eq!(rows[0].seed, 0);
        assert!(violations(&rows).is_empty(), "{:?}", violations(&rows));
        let table = conformance_table(&rows).to_string();
        assert!(table.contains("conformance sweep"));
        assert!(table.contains("churn-burst"));
    }

    #[test]
    fn conformance_is_deterministic() {
        let spec = registry::find("byzantine-est").unwrap().scaled(Scale::Tiny);
        let a = run_scenario_conformance(&spec, 5, &ConformanceOptions::default()).unwrap();
        let b = run_scenario_conformance(&spec, 5, &ConformanceOptions::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.faults_seen, 3, "all three scripted corruptions replay");
    }

    #[test]
    fn sampled_streaming_verdict_is_shard_count_invariant() {
        let spec = registry::find("self-heal").unwrap().scaled(Scale::Tiny);
        let opts = |threads| ConformanceOptions {
            oracle_sample: Some(0.25),
            oracle_seed: 7,
            threads,
        };
        let seq = run_scenario_conformance(&spec, 2, &opts(1)).unwrap();
        let two = run_scenario_conformance(&spec, 2, &opts(2)).unwrap();
        let four = run_scenario_conformance(&spec, 2, &opts(4)).unwrap();
        assert_eq!(seq, two, "sampled oracle must not see the engine");
        assert_eq!(seq, four);
        assert!(seq.sampled_sources > 0, "sampled mode actually sampled");
        assert!(seq.is_conformant(), "{:?}", seq.violations());
    }

    #[test]
    fn sampled_streaming_is_a_conservative_projection_of_exact() {
        // Default scale (36 nodes): large enough that the 8-source floor
        // still samples a strict subset of the exact all-pairs sweep.
        let spec = registry::find("grid-sensor")
            .unwrap()
            .scaled(Scale::Default);
        let exact = run_scenario_conformance(&spec, 3, &ConformanceOptions::default()).unwrap();
        let sampled = run_scenario_conformance(
            &spec,
            3,
            &ConformanceOptions {
                oracle_sample: Some(0.3),
                oracle_seed: 11,
                threads: 1,
            },
        )
        .unwrap();
        assert!(sampled.gradient.checks < exact.gradient.checks);
        assert!(sampled.gradient.worst_utilization <= exact.gradient.worst_utilization);
        assert!(sampled.gradient.min_margin >= exact.gradient.min_margin);
        // The global envelope and weak-edge families are not sampled.
        assert_eq!(sampled.global, exact.global);
        assert_eq!(sampled.weak_edges, exact.weak_edges);
    }

    #[test]
    fn run_seed_perturbs_the_source_draw() {
        let opts = ConformanceOptions {
            oracle_sample: Some(0.25),
            oracle_seed: 7,
            threads: 1,
        };
        let a = opts.sampling_for(0).expect("sampled");
        let b = opts.sampling_for(1).expect("sampled");
        assert_ne!(a.seed, b.seed, "run seeds must decorrelate source draws");
        assert_eq!(opts.sampling_for(0).expect("sampled").seed, a.seed);
    }
}
