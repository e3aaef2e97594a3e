//! Declarative scenarios for `gradient-clock-sync`.
//!
//! The paper's guarantees are claims over *adversarial dynamic-network
//! scenarios* — churn, insertion, partition, drift flips. This crate makes
//! those scenarios first-class data instead of per-scenario Rust:
//!
//! * [`spec`] — [`ScenarioSpec`]: topology family + size, drift model,
//!   estimate layer, edge-schedule generator, fault injections, parameters,
//!   and the observation plan, compiled through one seam
//!   ([`ScenarioSpec::build`]) into a ready-to-run
//!   [`Simulation`](gcs_core::Simulation);
//! * [`format`](mod@format) — the line-oriented `.scn` text format (hand-rolled parser
//!   and canonical writer with exact round-trip; grammar in
//!   `scenarios/README.md`);
//! * [`registry`] — a table of the checked-in `scenarios/*.scn` files:
//!   ≥ 20 named built-in scenarios spanning
//!   ring/line/grid/torus/geometric/small-world/scale-free/hypercube
//!   topologies and churn-storm / churn-burst / byzantine-est /
//!   flash-join / partition-heal / mobile-swarm / drift-flip dynamics,
//!   including the four `bench`-class engine-scale entries (`ring-1k`,
//!   `geometric-4k`, `ring-100k`, `geometric-100k`) that `run all` leaves
//!   out;
//! * [`presets`] — parametric families the experiment harness and the
//!   benchmark resize;
//! * [`campaign`] — the one run driver: [`run_pass`] builds the engine
//!   for `(spec, seed, threads)` ([`ScenarioSpec::engine`]), replays the
//!   scripted faults, steps the observation grid and feeds any list of
//!   [`Observer`]s from that single pass; [`sweep`] fans jobs over
//!   scenario × seed. The campaign is one observer
//!   ([`OutcomeObserver`]) plus the `results/campaign_*.json` artifact
//!   (`gcs-campaign/v1`), whose schema, writer and reader live here;
//! * [`trend`] — distillation of campaign artifacts into
//!   `gcs-baseline/v3` summaries (scalar stats + trajectory envelopes +
//!   per-scenario tolerances + each seed's engine counters), their
//!   schema, and the comparison CI runs against the checked-in points,
//!   `scenarios/baseline-{tiny,default,scale}.json`: statistics within
//!   tolerance, and seeds, node counts and engine counters exactly (the
//!   counter gate; speed is measured by `benchmark/`, not here);
//! * [`conformance`] — the paper-bound gate as an observer
//!   ([`OracleObserver`]): every sampled snapshot checked against the
//!   Theorem 5.6 / 5.22 bounds of [`gcs_analysis::oracle`], on either
//!   engine, exact or in sampled-source mode ([`ConformanceOptions`])
//!   for conformance at 10⁵-node scale;
//! * [`chaos`] — bit-exact trace replay (a sealed `gcs-trace/v1`
//!   artifact re-materializes its run stand-alone via the embedded
//!   `.scn` record) and the seeded adversarial fault-schedule search
//!   whose best finds ratchet the conformance gates (`gcs-chaos/v1`
//!   logs, `gcs-scenarios replay` / `chaos-search`);
//! * [`json`] — the hand-rolled JSON writer and bounded reader, and the
//!   record layer: each artifact record (campaign, baseline, trace run
//!   header) declares its keys once, and its writer and
//!   reader both come from that declaration;
//! * [`telemetry`] — the [`gcs_telemetry`] recorder as an observer
//!   ([`TelemetryObserver`]) that rides whatever pass is being made: the
//!   engine-invariant `gcs-trace/v1` run log behind `gcs-scenarios
//!   trace`/`trace-diff`, and the `gcs-telemetry/v1` metrics artifact
//!   behind the `--telemetry` flag of `run`/`conformance`;
//! * the `gcs-scenarios` CLI (`list | validate <dir> | run <name|file> |
//!   trace | trace-diff | replay | chaos-search | conformance | baseline |
//!   compare | node-smoke | show <name>`).
//!
//! # Example
//!
//! ```
//! use gcs_scenarios::{registry, Scale};
//!
//! let spec = registry::find("churn-storm").unwrap().scaled(Scale::Tiny);
//! let mut sim = spec.build(7).unwrap();
//! sim.run_until_secs(spec.end_secs());
//! assert!(sim.snapshot().global_skew().is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod chaos;
pub mod conformance;
pub mod error;
pub mod format;
pub mod json;
pub mod presets;
pub mod registry;
pub mod spec;
pub mod telemetry;
pub mod trend;

pub use campaign::{
    run_campaign, run_pass, run_scenario, sweep, CampaignArtifact, CampaignRow, Observer,
    OutcomeObserver, Pass, ScenarioOutcome,
};
pub use chaos::{
    chaos_search, frontier_from_log, read_trace, replay_trace, ChaosCandidate, ChaosOptions,
    ChaosResult, ChaosViolation, ReplayOutcome, TraceArtifact, CHAOS_FORMAT,
};
pub use conformance::{
    run_conformance, run_scenario_conformance, ConformanceOptions, ConformanceRow, OracleObserver,
    OracleTrack,
};
pub use error::ScenarioError;
pub use spec::{
    DriftSpec, DynamicsSpec, EstimateSpec, FaultSpec, Metric, Scale, ScenarioSpec, TopologySpec,
};
pub use telemetry::{run_instrumented, TelemetryObserver, TelemetryRun, TELEMETRY_FORMAT};
pub use trend::{
    CompareReport, EnvelopeStats, Mismatch, SeedCounters, TrajectoryEnvelope, TrendRow,
    TrendSummary,
};
