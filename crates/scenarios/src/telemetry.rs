//! Instrumented scenario runs: the glue between the run driver and the
//! [`gcs_telemetry`] observability crate.
//!
//! * [`TelemetryObserver`] — a [`SharedRecorder`] as a pass
//!   [`Observer`]: it counts what the run did, samples engine-invariant
//!   gauges (global skew, pending events, dirty nodes) at every
//!   observation instant and optionally builds the sealed `gcs-trace/v1`
//!   run log. It rides whatever pass is being made — the campaign's, the
//!   conformance oracle's, or one of its own ([`run_instrumented`]) — and
//!   never changes it: `bench --telemetry` re-drives every entry
//!   with it attached and fails on any counter drift;
//! * [`telemetry_json`] — the `gcs-telemetry/v1` artifact, the
//!   machine-readable run log that sits next to `BENCH_engine.json`.
//!
//! The trace byte-identity contract (same scenario + seed ⇒ the same
//! JSONL bytes and FNV-1a hash from the sequential and the sharded engine
//! at every shard count) is enforced by `tests/parallel_equivalence.rs`;
//! this module only has to *feed* both engines identically, which it does
//! by sampling exclusively at quiescent instants through the
//! engine-agnostic [`Engine`] seam.

use gcs_core::Engine;
use gcs_telemetry::{Histogram, RunTelemetry, Sample, SharedRecorder, StreamStats};

use crate::campaign::{run_pass, Observer, Pass, Stops};
use crate::conformance::OracleTrack;
use crate::error::ScenarioError;
use crate::json::{self, Field, Json};
use crate::spec::{Scale, ScenarioSpec};

/// The artifact format tag.
pub const TELEMETRY_FORMAT: &str = "gcs-telemetry/v1";

/// One fully instrumented scenario × seed run.
#[derive(Debug)]
pub struct TelemetryRun {
    /// The pass the recorder rode (its thread count, wall-clock and
    /// engine counters are what the artifact row reports).
    pub pass: Pass,
    /// Everything the recorder accumulated (counters, histograms,
    /// samples, and the sealed trace when requested).
    pub telemetry: RunTelemetry,
    /// The conformance oracle's verdict and utilization series when it
    /// rode the same pass (`None` otherwise).
    pub oracle: Option<OracleTrack>,
}

impl TelemetryRun {
    /// Which engine ran (`"sequential"` / `"sharded"`), told by whether
    /// any shard reported in. Deliberately NOT part of the trace itself —
    /// the trace is engine-invariant.
    #[must_use]
    pub fn engine(&self) -> &'static str {
        if self.telemetry.per_shard_drained.is_empty() {
            "sequential"
        } else {
            "sharded"
        }
    }
}

/// The telemetry recorder as a pass observer.
#[derive(Debug)]
pub struct TelemetryObserver(SharedRecorder);

impl TelemetryObserver {
    /// A fresh recorder; with `trace` it also builds the sealed
    /// `gcs-trace/v1` JSONL run log.
    #[must_use]
    pub fn new(trace: bool) -> Self {
        TelemetryObserver(SharedRecorder::new(trace))
    }

    /// Packages what the recorder accumulated over the pass it rode.
    #[must_use]
    pub fn finish(self, pass: &Pass) -> TelemetryRun {
        TelemetryRun {
            pass: pass.clone(),
            telemetry: self.0.finish(),
            oracle: None,
        }
    }
}

impl Observer for TelemetryObserver {
    fn attach(&mut self, engine: &mut dyn Engine, spec: &ScenarioSpec, seed: u64) {
        // Embed the canonical `.scn` text so a trace artifact alone
        // suffices to re-materialize the run (`gcs-scenarios replay`).
        self.0.begin_run(
            &spec.name,
            seed,
            engine.as_sim().node_count(),
            Some(&crate::format::write(spec)),
        );
        engine.set_telemetry(self.0.sink());
    }

    fn sample(&mut self, t: f64, engine: &dyn Engine) {
        // Every gauge here is engine-invariant at a quiescent instant, so
        // sample records hash identically across engines. The
        // allocation-free gauges read replaces a full clock snapshot —
        // bit-identical values, bounded memory.
        let g = engine.gauges();
        self.0.on_sample(Sample {
            t,
            global_skew: g.global_skew,
            queue_depth: g.queue_depth,
            dirty_nodes: g.dirty_nodes,
            events: g.events,
        });
    }

    fn detach(&mut self, engine: &mut dyn Engine) {
        // Dropping the sink flushes its pending local counters.
        drop(engine.take_telemetry());
    }
}

/// Runs one scenario × seed over its observation grid with the recorder
/// as the only observer; with `trace` the result carries the sealed
/// `gcs-trace/v1` JSONL log.
///
/// # Errors
///
/// Returns [`ScenarioError`] if the spec fails to validate or build.
pub fn run_instrumented(
    spec: &ScenarioSpec,
    seed: u64,
    threads: usize,
    trace: bool,
) -> Result<TelemetryRun, ScenarioError> {
    let mut recorder = TelemetryObserver::new(trace);
    let pass = run_pass(spec, seed, threads, Stops::Grid, &mut [&mut recorder])?;
    Ok(recorder.finish(&pass))
}

fn hist_json(h: &Histogram) -> Json {
    Json::Obj(vec![
        (
            "buckets",
            Json::Arr(
                h.counts()
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        Json::Arr(vec![Json::Int(Histogram::bucket_lo(i)), Json::Int(c)])
                    })
                    .collect(),
            ),
        ),
        ("total", Json::Int(h.total())),
        ("sum", Json::Int(h.sum())),
        ("max", Json::Int(h.max())),
    ])
}

fn entry_json(r: &TelemetryRun) -> Json {
    let (pass, tel) = (&r.pass, &r.telemetry);
    let mut fields = vec![
        ("scenario", Json::Str(pass.scenario.clone())),
        ("seed", Json::Int(pass.seed)),
        ("threads", Json::Int(pass.threads as u64)),
        ("engine", Json::Str(r.engine().to_string())),
        ("nodes", Json::Int(pass.nodes as u64)),
        ("wall_secs", Json::Num(pass.wall_secs)),
        (
            "counters",
            Json::Obj(vec![
                ("events", Json::Int(pass.stats.events)),
                ("ticks", Json::Int(pass.stats.ticks)),
                ("mode_evaluations", Json::Int(pass.stats.mode_evaluations)),
                ("messages_sent", Json::Int(pass.stats.messages_sent)),
                (
                    "messages_delivered",
                    Json::Int(pass.stats.messages_delivered),
                ),
                ("messages_dropped", Json::Int(pass.stats.messages_dropped)),
                ("floods", Json::Int(tel.local.floods)),
                ("deliveries", Json::Int(tel.local.deliveries)),
                ("rate_changes", Json::Int(tel.local.rate_changes)),
                ("leader_checks", Json::Int(tel.local.leader_checks)),
                ("follower_applies", Json::Int(tel.local.follower_applies)),
                ("flood_merges", Json::Int(tel.local.flood_merges)),
                ("m_jumps", Json::Int(tel.local.m_jumps)),
                ("mode_switches", Json::Int(tel.mode_switches)),
                ("edge_events", Json::Int(tel.edge_events)),
                ("faults", Json::Int(tel.faults)),
            ]),
        ),
        (
            "parallel",
            Json::Obj(vec![
                ("segments", Json::Int(tel.segments)),
                ("barrier_rounds", Json::Int(tel.barrier_rounds)),
                ("stalled_shard_rounds", Json::Int(tel.stalled_shard_rounds)),
                ("mailbox_events", Json::Int(tel.mailbox_events)),
                ("per_shard_drained", tel.per_shard_drained.write()),
            ]),
        ),
        (
            "hist",
            Json::Obj(vec![
                ("eval_per_tick", hist_json(&tel.eval_hist)),
                ("queue_depth", hist_json(&tel.queue_hist)),
            ]),
        ),
        (
            "series",
            Json::Arr(
                tel.samples
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Num(s.t),
                            Json::Num(s.global_skew),
                            Json::Int(s.queue_depth as u64),
                            Json::Int(s.dirty_nodes as u64),
                            Json::Int(s.events),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    if let Some(track) = &r.oracle {
        let rep = &track.report;
        fields.push((
            "oracle_series",
            Json::Arr(
                track
                    .series
                    .iter()
                    .map(|&(t, g, l)| Json::Arr(vec![Json::Num(t), Json::Num(g), Json::Num(l)]))
                    .collect(),
            ),
        ));
        // Running summaries of the two utilization columns; a left-to-right
        // fold over the deterministic sample order, so they are as
        // engine-invariant as the series itself.
        let stream = |column: fn(&(f64, f64, f64)) -> f64| {
            let mut s = StreamStats::new();
            track.series.iter().map(column).for_each(|v| s.observe(v));
            Json::Obj(vec![
                ("count", Json::Int(s.count())),
                ("min", Json::Num(s.min().unwrap_or(f64::NAN))),
                ("max", Json::Num(s.max().unwrap_or(f64::NAN))),
                ("mean", Json::Num(s.mean().unwrap_or(f64::NAN))),
            ])
        };
        fields.push((
            "oracle",
            Json::Obj(vec![
                ("conformant", Json::Bool(rep.is_conformant())),
                ("samples", Json::Int(rep.samples)),
                ("sampled_sources", Json::Int(rep.sampled_sources)),
                ("global_worst", Json::Num(rep.global.worst_utilization)),
                ("gradient_worst", Json::Num(rep.gradient.worst_utilization)),
                ("weak_worst", Json::Num(rep.weak_edges.worst_utilization)),
                ("global_util", stream(|&(_, global, _)| global)),
                ("gradient_util", stream(|&(_, _, gradient)| gradient)),
            ]),
        ));
    }
    if let Some(trace) = &tel.trace {
        fields.push((
            "trace",
            Json::Obj(vec![
                ("records", Json::Int(trace.records)),
                ("hash", Json::Str(trace.hash_hex())),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Serializes instrumented runs to the `gcs-telemetry/v1` JSON artifact
/// (one entry per line, like the bench artifact, so checked-in files diff
/// cleanly).
#[must_use]
pub fn telemetry_json(scale: Scale, entries: &[TelemetryRun]) -> String {
    json::document(vec![
        ("format", Json::Str(TELEMETRY_FORMAT.to_string())),
        ("scale", Json::Str(scale.name().to_string())),
        (
            "entries",
            Json::Arr(entries.iter().map(entry_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::OracleObserver;
    use crate::registry;
    use gcs_analysis::oracle::OracleSampling;

    /// One pass with the oracle and the recorder both attached.
    fn ride(
        spec: &ScenarioSpec,
        seed: u64,
        threads: usize,
        sampling: Option<OracleSampling>,
    ) -> TelemetryRun {
        let mut oracle = OracleObserver::new(sampling);
        let mut recorder = TelemetryObserver::new(true);
        let observers: &mut [&mut dyn Observer] = &mut [&mut oracle, &mut recorder];
        let pass = run_pass(spec, seed, threads, Stops::Grid, observers).unwrap();
        TelemetryRun {
            oracle: Some(oracle.finish()),
            ..recorder.finish(&pass)
        }
    }

    #[test]
    fn instrumented_run_collects_counters_and_trace() {
        let spec = registry::find("ring-steady")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let run = run_instrumented(&spec, 0, 1, true).unwrap();
        assert_eq!(run.engine(), "sequential");
        assert!(run.pass.stats.events > 0);
        assert_eq!(run.telemetry.ticks, run.pass.stats.ticks);
        assert!(run.telemetry.local.deliveries > 0, "flood traffic flows");
        assert!(run.telemetry.local.flood_merges > 0);
        assert!(!run.telemetry.samples.is_empty());
        assert!(run.telemetry.eval_hist.total() > 0);
        let trace = run.telemetry.trace.as_ref().expect("trace requested");
        assert!(trace.text.starts_with("{\"rec\":\"run\""));
        gcs_telemetry::verify_trace(&trace.text).expect("sealed trace verifies");
        // Sequential runs report exactly one local-counter block origin
        // and no parallel-only activity.
        assert_eq!(run.telemetry.segments, 0);
        assert!(run.telemetry.per_shard_drained.is_empty());
    }

    #[test]
    fn traces_are_byte_identical_across_engines() {
        let spec = registry::find("churn-burst")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let seq = run_instrumented(&spec, 3, 1, true).unwrap();
        let par = run_instrumented(&spec, 3, 2, true).unwrap();
        let (a, b) = (
            seq.telemetry.trace.as_ref().unwrap(),
            par.telemetry.trace.as_ref().unwrap(),
        );
        assert_eq!(a.text, b.text, "trace bytes must not depend on the engine");
        assert_eq!(a.hash, b.hash);
        // The order-free counter channel must agree too.
        assert_eq!(seq.telemetry.local, par.telemetry.local);
        // ... while the parallel-only metrics exist only on the shard run.
        assert!(par.telemetry.segments > 0);
        assert_eq!(par.telemetry.per_shard_drained.len(), 2);
    }

    #[test]
    fn end_only_instrumented_pass_matches_timed_bench_counters_exactly() {
        let spec = registry::find("ring-steady")
            .expect("built-in")
            .scaled(Scale::Tiny);
        for threads in [1usize, 2] {
            let timed = crate::bench::run_one(&spec, 0, threads).unwrap();
            let mut recorder = TelemetryObserver::new(false);
            let inst = run_pass(&spec, 0, threads, Stops::EndOnly, &mut [&mut recorder]).unwrap();
            assert!(recorder.finish(&inst).telemetry.samples.is_empty());
            assert_eq!(
                crate::bench::BenchEntry::of(&spec, &inst).gated(),
                timed.gated(),
                "threads {threads}: instrumentation must not change the run"
            );
        }
    }

    #[test]
    fn conformance_ride_along_produces_oracle_series() {
        let spec = registry::find("self-heal")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let run = ride(&spec, 1, 1, None);
        let track = run.oracle.as_ref().expect("oracle rode along");
        assert_eq!(track.series.len(), run.telemetry.samples.len());
        assert!(track
            .series
            .iter()
            .all(|&(_, g, l)| (0.0..=1.0).contains(&g) && (0.0..=1.0).contains(&l)));
        assert_eq!(run.telemetry.faults, 1, "the scripted fault is traced");
        let rep = &track.report;
        assert!(rep.is_conformant(), "{:?}", rep.violations());
        assert_eq!(rep.sampled_sources, 0, "exact mode draws no sources");
        assert_eq!(
            track.series.last().map(|&(_, global, _)| global),
            Some(rep.global.worst_utilization),
            "the running series ends at the report's worst case"
        );
    }

    #[test]
    fn sampled_oracle_ride_is_engine_invariant() {
        let spec = registry::find("churn-burst")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let sampling = Some(OracleSampling::new(0.5, 13));
        let seq = ride(&spec, 3, 1, sampling);
        let par = ride(&spec, 3, 2, sampling);
        assert_eq!(
            seq.telemetry.trace.as_ref().unwrap().text,
            par.telemetry.trace.as_ref().unwrap().text,
            "the oracle ride-along must not perturb the trace"
        );
        assert_eq!(seq.oracle, par.oracle, "verdict and series");
        let track = seq.oracle.expect("oracle rode along");
        assert!(
            track.report.sampled_sources > 0,
            "sampled mode actually sampled"
        );
    }

    #[test]
    fn artifact_serializes_with_format_tag() {
        let spec = registry::find("ring-steady")
            .expect("built-in")
            .scaled(Scale::Tiny);
        let runs = vec![
            run_instrumented(&spec, 0, 1, true).unwrap(),
            run_instrumented(&spec, 0, 2, true).unwrap(),
        ];
        let json = telemetry_json(Scale::Tiny, &runs);
        assert!(json.starts_with("{\"format\":\"gcs-telemetry/v1\""));
        assert!(json.contains("\"flood_merges\""));
        assert!(json.contains("\"per_shard_drained\":["));
        assert!(json.contains("\"eval_per_tick\""));
        assert!(json.contains("\"engine\":\"sequential\""));
        assert!(json.contains("\"engine\":\"sharded\""));
        assert!(json.contains("\"trace\":{\"records\":"));
        assert!(json.ends_with("]}\n"));
        // No oracle rode along, so the artifact carries no oracle block.
        assert!(!json.contains("\"oracle\":"));
        // Both engines embed the same trace hash.
        let hash = runs[0].telemetry.trace.as_ref().unwrap().hash_hex();
        assert_eq!(json.matches(&hash).count(), 2);
    }
}
