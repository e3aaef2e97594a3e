//! The eight workloads and one repetition of each engine-driven one:
//! set-up (spec → schedule → engine → warm-up), then the measured window
//! cut into simulated-time slices.

use std::collections::BTreeMap;
use std::time::Instant;

use gcs_analysis::oracle::{ConformanceChecker, OracleConfig, OracleSampling};
use gcs_analysis::stats;
use gcs_core::{EdgeInfo, Engine, EngineGauges, ParallelSimBuilder, Params, SimBuilder, SimStats};
use gcs_scenarios::{campaign, presets, registry};
use gcs_scenarios::{DynamicsSpec, EstimateSpec, ScenarioSpec, TopologySpec};
use gcs_telemetry::{Fnv1a, RunTelemetry, SharedRecorder};

use crate::host::status_kib;
use crate::trace::Tracer;

/// `--seconds` at which the windows below apply unscaled: five
/// repetitions of roughly five seconds each on the reference container.
/// Every other `--seconds` scales warm-up and window by `seconds / 25`.
pub const FULL_SECONDS: f64 = 25.0;

/// Slices a measured window is cut into.
pub const SLICES: usize = 100;

/// Share of sources the sampled oracle sweeps per snapshot.
const ORACLE_RATE: f64 = 0.01;

/// Longest interval between two oracle snapshots, simulated seconds.
const ORACLE_SAMPLE: f64 = 0.05;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// The sequential reference engine.
    Sequential(fn() -> ScenarioSpec),
    /// The sharded engine, 2 shards, default partition.
    Sharded(fn() -> ScenarioSpec),
    /// The sequential engine observed by the sampled conformance oracle.
    Conformance(fn() -> ScenarioSpec),
    /// `NodeCore`s driven the way the socket daemon drives them.
    Loopback,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Warm-up, simulated seconds at [`FULL_SECONDS`].
    pub warmup: f64,
    /// Measured window, simulated seconds at [`FULL_SECONDS`].
    pub window: f64,
    /// The sequential workload that runs the same scenario and window,
    /// whose digest this one's must equal.
    pub twin: Option<&'static str>,
}

fn registered(name: &str) -> ScenarioSpec {
    registry::find(name).unwrap_or_else(|| panic!("registry scenario {name} is gone"))
}

fn ring_1k() -> ScenarioSpec {
    registered("ring-1k")
}

fn geometric_4k() -> ScenarioSpec {
    registered("geometric-4k")
}

fn ring_100k() -> ScenarioSpec {
    registered("ring-100k")
}

fn grid_sensor() -> ScenarioSpec {
    registered("grid-sensor")
}

fn churn_1k() -> ScenarioSpec {
    let mut spec = presets::churn("churn-1k", TopologySpec::Torus { w: 32, h: 32 });
    spec.dynamics = DynamicsSpec::Churn {
        mean_up: 2.0,
        mean_down: 1.0,
        skew: 0.004,
        start_up: 0.7,
    };
    spec.estimates = EstimateSpec::Messages;
    spec
}

pub const WORKLOADS: [Workload; 8] = [
    Workload {
        name: "ring-1k",
        why: "cache-resident state at degree 2: queue pop/schedule, the tick sweep and decide_and_certify dominate; the baseline every other sequential workload is read against",
        kind: Kind::Sequential(ring_1k),
        warmup: 5.0,
        window: 120.0,
        twin: None,
    },
    Workload {
        name: "geo-4k",
        why: "mean degree 12, nine events in ten are deliveries: Deliver, merge_flood and flood fan-out dominate and ticks are rare, so a tick-path gain must show nothing here",
        kind: Kind::Sequential(geometric_4k),
        warmup: 0.5,
        window: 3.0,
        twin: None,
    },
    Workload {
        name: "ring-100k",
        why: "ring-1k's event mix with 100x the state: isolates the cache-hierarchy cliff, and is the only workload where peak memory and engine build time are large",
        kind: Kind::Sequential(ring_100k),
        warmup: 0.05,
        window: 0.3,
        twin: None,
    },
    Workload {
        name: "ring-100k-par2",
        why: "ring-100k on the sharded engine with 2 shards: shard compute dominates and barriers are cheap, so this is where sharded-tick and partitioning work must show",
        kind: Kind::Sharded(ring_100k),
        warmup: 0.05,
        window: 0.3,
        twin: Some("ring-100k"),
    },
    Workload {
        name: "grid-36-par2",
        why: "36 nodes on 2 shards: nearly all time is per-round thread spawn and barrier with no shard compute; a worker pool or sequential fallback moves this and not ring-100k-par2",
        kind: Kind::Sharded(grid_sensor),
        warmup: 5.0,
        window: 120.0,
        twin: None,
    },
    Workload {
        name: "churn-1k",
        why: "the paper's subject: the only workload with edge churn, insertion handshakes, dropped messages and message-mode estimates, and the only one where schedule compilation dominates set-up",
        kind: Kind::Sequential(churn_1k),
        warmup: 5.0,
        window: 50.0,
        twin: None,
    },
    Workload {
        name: "conformance-100k",
        why: "ring-100k under the sampled conformance oracle: gcs-analysis does most of the work (1000 BFS sources per snapshot), the path behind the costliest CI job; every other workload bypasses it",
        kind: Kind::Conformance(ring_100k),
        warmup: 0.0,
        window: 0.15,
        twin: None,
    },
    Workload {
        name: "node-loopback",
        why: "64 NodeCores as 2 virtual hosts on a complete graph, driven like the daemon loop (frames, on_message, poll_sends, evaluate) on a virtual clock: gcs-protocol without either engine",
        kind: Kind::Loopback,
        warmup: 0.0,
        window: 100.0,
        twin: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Worker threads the workload needs (the `nproc` guard rail).
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Sharded(_) => 2,
            _ => 1,
        }
    }

    /// The scenario with warm-up and window scaled by `scale`, or `None`
    /// for the workload that runs no engine.
    pub fn spec(&self, scale: f64) -> Option<ScenarioSpec> {
        let base = match self.kind {
            Kind::Sequential(f) | Kind::Sharded(f) | Kind::Conformance(f) => f,
            Kind::Loopback => return None,
        };
        let mut spec = base();
        spec.warmup = self.warmup * scale;
        spec.duration = self.window * scale;
        // Only the oracle workload samples; the others need a legal value.
        spec.sample = ORACLE_SAMPLE.min(spec.duration);
        Some(spec)
    }
}

/// Per-layer values a repetition gathered, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// One slice of a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Events the slice processed (deterministic).
    pub events: u64,
    /// Host seconds, observation included where the workload observes.
    pub secs: f64,
    /// Host seconds inside the engine or the `NodeCore` loop alone.
    pub work_secs: f64,
}

/// One repetition: a fresh set-up and, unless only the set-up was asked
/// for, one measured window.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    pub slices: Vec<Slice>,
    pub nodes: usize,
    /// FNV-1a over every deterministic output of the repetition.
    pub digest: u64,
    /// `(check name, passed)`.
    pub checks: Vec<(&'static str, bool)>,
    pub layer: Layer,
    /// The run's derived parameters and one edge's, for the layer kernels
    /// (traced repetitions only).
    pub kernel_inputs: Option<(Params, EdgeInfo)>,
}

/// Every `SimStats` field under its per-layer metric name.
fn stats_fields(s: &SimStats) -> [(&'static str, u64); 9] {
    [
        ("core.messages_sent", s.messages_sent),
        ("core.messages_delivered", s.messages_delivered),
        ("core.messages_dropped", s.messages_dropped),
        ("core.ticks", s.ticks),
        ("core.events", s.events),
        ("core.mode_evaluations", s.mode_evaluations),
        ("core.handshakes_offered", s.handshakes_offered),
        ("core.insertions_scheduled", s.insertions_scheduled),
        ("core.edge_removals", s.edge_removals),
    ]
}

fn counter_digest(stats: &SimStats, gauges: &EngineGauges, extra: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    for (_, v) in stats_fields(stats) {
        h.update(&v.to_le_bytes());
    }
    for v in [
        gauges.t.to_bits(),
        gauges.global_skew.to_bits(),
        gauges.queue_depth as u64,
        gauges.dirty_nodes as u64,
        gauges.events,
    ] {
        h.update(&v.to_le_bytes());
    }
    for v in extra {
        h.update(&v.to_le_bytes());
    }
    h.digest()
}

/// The per-layer counts of a traced window: the `SimStats` deltas
/// `window`, and what the counting sink `t` saw.
fn counted_layers(
    layer: &mut Layer,
    t: &RunTelemetry,
    window: &[(&'static str, u64)],
    nodes: usize,
) {
    let of = |name: &str| window.iter().find(|w| w.0 == name).map_or(0, |w| w.1) as f64;
    let sink = [
        ("core.floods", t.local.floods),
        ("core.deliveries", t.local.deliveries),
        ("core.leader_checks", t.local.leader_checks),
        ("core.follower_applies", t.local.follower_applies),
        ("core.rate_changes", t.local.rate_changes),
        ("core.mode_switches", t.mode_switches),
        ("protocol.flood_merges", t.local.flood_merges),
    ];
    for &(name, count) in window.iter().chain(&sink) {
        layer.insert(name, count as f64);
    }
    if of("core.ticks") > 0.0 {
        layer.insert(
            "core.eval_skip_ratio",
            1.0 - of("core.mode_evaluations") / (of("core.ticks") * nodes as f64),
        );
    }
    if t.local.flood_merges > 0 {
        layer.insert(
            "protocol.m_jump_ratio",
            t.local.m_jumps as f64 / t.local.flood_merges as f64,
        );
    }
    if t.barrier_rounds > 0 {
        let rounds = t.barrier_rounds as f64;
        let drained: Vec<f64> = t.per_shard_drained.iter().map(|&v| v as f64).collect();
        layer.insert("core.par.barrier_rounds", rounds);
        layer.insert("core.par.segment_cuts", t.segments as f64);
        layer.insert("core.par.events_per_round", of("core.events") / rounds);
        layer.insert(
            "core.par.stalled_share",
            t.stalled_shard_rounds as f64 / (rounds * drained.len().max(1) as f64),
        );
        layer.insert("core.par.mailbox_moved", t.mailbox_events as f64);
        if stats::mean(&drained) > 0.0 {
            layer.insert(
                "core.par.shard_imbalance",
                stats::max(&drained) / stats::mean(&drained),
            );
        }
    }
}

/// Runs one repetition of an engine workload on `shards` shards (1 = the
/// sequential engine). With `full` false it stops after the set-up.
pub fn engine_rep(
    w: &Workload,
    seed: u64,
    scale: f64,
    shards: usize,
    full: bool,
    tr: &mut Tracer,
) -> Result<Rep, String> {
    let spec = w.spec(scale).expect("engine workloads have a scenario");
    let oracle = matches!(w.kind, Kind::Conformance(_));
    if shards > 1 {
        drive(&spec, seed, oracle, full, tr, |b| {
            ParallelSimBuilder::new(b)
                .shards(shards)
                .build()
                .map_err(|e| e.to_string())
        })
    } else {
        drive(&spec, seed, oracle, full, tr, |b| {
            b.build().map_err(|e| e.to_string())
        })
    }
}

fn drive<E: Engine>(
    spec: &ScenarioSpec,
    seed: u64,
    oracle: bool,
    full: bool,
    tr: &mut Tracer,
    build: impl FnOnce(SimBuilder) -> Result<E, String>,
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut probe_edge = None;
    if tr.enabled() {
        // Stand-alone probes of the two halves of schedule compilation;
        // the set-up below compiles the schedule again through the one
        // seam every consumer uses.
        let open = tr.begin("net.topology_realize");
        let topo = spec.topology.realize(seed);
        let realize_s = tr.end(open);
        let open = tr.begin("scenarios.schedule");
        let schedule = spec.schedule(seed).map_err(|e| e.to_string())?;
        let schedule_s = tr.end(open);
        rep.layer.insert("net.topology_realize_s", realize_s);
        rep.layer.insert("scenarios.schedule_s", schedule_s);
        rep.layer
            .insert("net.schedule_generate_s", (schedule_s - realize_s).max(0.0));
        rep.layer.insert("net.edges", topo.edge_count() as f64);
        probe_edge = topo.edges().first().copied();
        rep.layer
            .insert("net.schedule_events", schedule.events().len() as f64);
    }

    let setup = tr.begin("setup");
    let open = tr.begin("scenarios.builder");
    let builder = spec.builder(seed).map_err(|e| e.to_string())?;
    tr.end(open);
    let rss_before = status_kib("VmRSS");
    let open = tr.begin("core.build");
    let mut engine = build(builder)?;
    rep.layer.insert("core.build_s", tr.end(open));
    rep.nodes = engine.as_sim().node_count();
    rep.kernel_inputs = probe_edge
        .and_then(|e| engine.as_sim().edge_info(e))
        .map(|info| (engine.as_sim().params().clone(), info));
    let built_kib = status_kib("VmRSS").saturating_sub(rss_before);
    rep.layer.insert(
        "core.bytes_per_node",
        built_kib as f64 * 1024.0 / rep.nodes as f64,
    );
    let mut checker = None;
    if oracle {
        let open = tr.begin("analysis.oracle_build");
        let mut cfg = OracleConfig::for_sim(engine.as_sim(), spec.sample);
        let sampling = OracleSampling::new(ORACLE_RATE, seed);
        cfg.sampling = Some(sampling);
        checker = Some(ConformanceChecker::with_config(engine.as_sim(), cfg));
        rep.layer.insert("analysis.oracle_build_s", tr.end(open));
        rep.layer.insert(
            "analysis.sources_per_snapshot",
            sampling.sources_for(rep.nodes) as f64,
        );
    }
    let open = tr.begin("core.warmup");
    engine.run_until_secs(spec.warmup);
    rep.layer.insert("core.warmup_s", tr.end(open));
    rep.setup_s = tr.end(setup);
    if !full {
        return Ok(rep);
    }

    let before = engine.as_sim().stats();
    let recorder = tr.enabled().then(|| {
        let recorder = SharedRecorder::new(false);
        engine.set_telemetry(recorder.sink());
        recorder
    });
    let mut seen = before.events;
    let mut depths = Vec::new();
    let mut dirty = Vec::new();
    let mut observe_ms = Vec::new();
    let window = tr.begin("window");
    if let Some(checker) = checker.as_mut() {
        let mut last = Instant::now();
        campaign::drive_sampled(&mut engine, &[], spec.sample, spec.end_secs(), |_, e| {
            let ran = Instant::now();
            tr.record("core.slice", last, ran);
            let open = tr.begin("analysis.observe");
            checker.observe(e.as_sim());
            let observe_s = tr.end(open);
            let work_secs = ran.duration_since(last).as_secs_f64();
            let events = e.as_sim().stats().events;
            rep.slices.push(Slice {
                events: events - seen,
                secs: work_secs + observe_s,
                work_secs,
            });
            seen = events;
            observe_ms.push(observe_s * 1e3);
            last = Instant::now();
        });
    } else {
        for i in 1..=SLICES {
            let until = spec.warmup + spec.duration * i as f64 / SLICES as f64;
            let open = tr.begin("core.slice");
            engine.run_until_secs(until);
            let secs = tr.end(open);
            let events = engine.as_sim().stats().events;
            rep.slices.push(Slice {
                events: events - seen,
                secs,
                work_secs: secs,
            });
            seen = events;
            if tr.enabled() {
                let g = engine.gauges();
                depths.push(g.queue_depth as f64);
                dirty.push(g.dirty_nodes as f64);
            }
        }
    }
    tr.end(window);

    let after = engine.as_sim().stats();
    let gauges = engine.gauges();
    let mut extra = Vec::new();
    if let Some(checker) = checker {
        let report = checker.finish();
        rep.checks.push(("conformant", report.is_conformant()));
        extra.push(report.samples);
        extra.push(report.worst_utilization().1.to_bits());
        rep.layer
            .insert("analysis.snapshots", report.samples as f64);
        rep.layer
            .insert("analysis.worst_utilization", report.worst_utilization().1);
        rep.layer
            .insert("analysis.observe_s", observe_ms.iter().sum::<f64>() / 1e3);
        rep.layer
            .insert("analysis.observe_ms_p50", stats::quantile(&observe_ms, 0.5));
        rep.layer
            .insert("analysis.observe_ms_max", stats::max(&observe_ms));
    }
    rep.digest = counter_digest(&after, &gauges, &extra);
    rep.checks
        .push(("invariants", engine.as_sim().verify_invariants().is_empty()));

    if let Some(recorder) = recorder {
        drop(engine.take_telemetry());
        let window: Vec<(&'static str, u64)> = stats_fields(&after)
            .into_iter()
            .zip(stats_fields(&before))
            .map(|((name, a), (_, b))| (name, a - b))
            .collect();
        counted_layers(&mut rep.layer, &recorder.finish(), &window, rep.nodes);
        if !depths.is_empty() {
            rep.layer
                .insert("sim.queue_depth_mean", stats::mean(&depths));
            rep.layer.insert("sim.queue_depth_max", stats::max(&depths));
            rep.layer
                .insert("core.dirty_nodes_mean", stats::mean(&dirty));
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_validates_at_every_scale() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            for seconds in [0.1, 5.0, FULL_SECONDS] {
                if let Some(spec) = w.spec(seconds / FULL_SECONDS) {
                    spec.validate()
                        .unwrap_or_else(|e| panic!("{} at {seconds}: {e}", w.name));
                    assert!(
                        spec.faults.is_empty(),
                        "{}: faults are not replayed",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn churn_is_the_issue_s_scenario() {
        let spec = find("churn-1k").unwrap().spec(1.0).unwrap();
        assert_eq!(spec.topology.node_count(), 1024);
        assert_eq!((spec.warmup, spec.duration), (5.0, 50.0));
        assert_eq!(spec.estimates, EstimateSpec::Messages);
    }

    #[test]
    fn a_repetition_is_deterministic_and_checks_its_output() {
        let w = find("grid-36-par2").unwrap();
        let mut tr = Tracer::new(false);
        let a = engine_rep(w, 3, 0.002, 2, true, &mut tr).unwrap();
        let b = engine_rep(w, 3, 0.002, 1, true, &mut tr).unwrap();
        assert_eq!(a.digest, b.digest, "the engines are bit-identical");
        assert_eq!(a.slices.len(), SLICES);
        assert!(a.slices.iter().map(|s| s.events).sum::<u64>() > 0);
        assert!(a.checks.iter().all(|c| c.1), "{:?}", a.checks);
        let other = engine_rep(w, 4, 0.002, 1, true, &mut tr).unwrap();
        assert_ne!(a.digest, other.digest, "the seed reaches the inputs");
        let setup = engine_rep(w, 3, 0.002, 2, false, &mut tr).unwrap();
        assert!(setup.slices.is_empty() && setup.setup_s > 0.0);
    }
}
