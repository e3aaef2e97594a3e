//! Bit-identity of the parallel sharded engine.
//!
//! The sharded engine's contract is stronger than "statistically the
//! same": at every shard count it must reproduce the sequential reference **bit for bit** — every clock,
//! every mode, every realized change-log entry, and every deterministic
//! counter, *including* `mode_evaluations` (the tick sweeps run
//! sequentially on the master, so even the dirty-set bookkeeping is
//! shared). This is the whole-system check of the merge-order argument
//! in the `gcs-core` parallel module: original `(time, seq)` keys +
//! namespaced shard counters + the conservative lookahead window.

use gradient_clock_sync::analysis::oracle::ConformanceChecker;
use gradient_clock_sync::core::{
    ClockSnapshot, Engine, ParallelBuildError, ParallelSimBuilder, SimStats,
};
use gradient_clock_sync::scenarios::campaign::drive_sampled;
use gradient_clock_sync::scenarios::{registry, Scale, ScenarioSpec, TopologySpec};

/// The same scenario grid as the sequential `engine_equivalence` suite:
/// oracle and message estimates, static and churning topologies, drift
/// flips, scripted corruptions.
fn grid() -> Vec<ScenarioSpec> {
    [
        "ring-steady",
        "line-worstcase",
        "torus-messages",
        "churn-storm",
        "churn-burst",
        "byzantine-est",
        "drift-flip",
        "self-heal",
    ]
    .iter()
    .map(|n| registry::find(n).expect("built-in").scaled(Scale::Tiny))
    .collect()
}

struct Run {
    snapshots: Vec<ClockSnapshot>,
    changes: Vec<String>,
    stats: SimStats,
}

/// Drives either engine over the scenario's observation grid via the one
/// shared sampling/fault-replay loop, snapshotting at every sample.
fn drive<E: Engine>(spec: &ScenarioSpec, mut sim: E) -> Run {
    let mut snapshots = Vec::new();
    drive_sampled(
        &mut sim,
        &spec.faults,
        spec.sample,
        spec.end_secs(),
        |_, sim| {
            snapshots.push(sim.as_sim().snapshot());
        },
    );
    Run {
        snapshots,
        changes: sim
            .as_sim()
            .change_log()
            .iter()
            .map(|c| format!("{c:?}"))
            .collect(),
        stats: sim.as_sim().stats(),
    }
}

fn sequential(spec: &ScenarioSpec, seed: u64) -> Run {
    drive(spec, spec.build(seed).expect("spec builds"))
}

fn sharded(spec: &ScenarioSpec, seed: u64, shards: usize) -> Run {
    let sim = ParallelSimBuilder::new(spec.builder(seed).expect("spec builds"))
        .shards(shards)
        .build()
        .expect("parallel build");
    drive(spec, sim)
}

/// Full bit-identity: snapshots, change log, and *all* counters — no
/// scrubbing, unlike the sequential suite's full-reevaluation comparison.
fn assert_identical(ctx: &str, reference: &Run, candidate: &Run) {
    assert_eq!(
        reference.snapshots.len(),
        candidate.snapshots.len(),
        "{ctx}: sample count diverged"
    );
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    for (i, (a, b)) in reference
        .snapshots
        .iter()
        .zip(&candidate.snapshots)
        .enumerate()
    {
        let at = |field: &str| format!("{ctx}: sample {i} (t={}): {field} diverged", a.time);
        assert_eq!(bits(&a.logical), bits(&b.logical), "{}", at("logical"));
        assert_eq!(bits(&a.hardware), bits(&b.hardware), "{}", at("hardware"));
        assert_eq!(
            bits(&a.max_estimates),
            bits(&b.max_estimates),
            "{}",
            at("max_estimates")
        );
        assert_eq!(a.modes, b.modes, "{}", at("modes"));
    }
    assert_eq!(
        reference.changes, candidate.changes,
        "{ctx}: change log diverged"
    );
    assert_eq!(
        reference.stats, candidate.stats,
        "{ctx}: counters diverged (events/ticks/mode_evaluations/messages must all match)"
    );
}

#[test]
fn sharded_engine_is_bit_identical_across_the_grid() {
    for spec in grid() {
        for seed in 0..2u64 {
            let reference = sequential(&spec, seed);
            for shards in [1usize, 2, 3, 7] {
                let candidate = sharded(&spec, seed, shards);
                assert_identical(
                    &format!("{} seed {seed}, {shards} shards", spec.name),
                    &reference,
                    &candidate,
                );
            }
        }
    }
}

#[test]
fn sub_bucket_delays_stay_bit_identical_across_shards() {
    // Every registry scenario's delays (2–10 ms) exceed the calendar's
    // 244 µs bucket width, so deliveries always land in a ring bucket.
    // 50–150 µs delays land most of them in the already-open bucket
    // instead — the sorted-insert path — on both engines.
    use gradient_clock_sync::net::{EdgeParams, EdgeParamsMap};
    let fast = EdgeParamsMap::uniform(EdgeParams::new(0.002, 0.010, 50e-6, 150e-6));
    for name in ["torus-messages", "churn-storm"] {
        let mut spec = registry::find(name).expect("built-in").scaled(Scale::Tiny);
        // Floods refresh with the delay bound, so keep the run short.
        spec.warmup = 0.5;
        spec.duration = 1.5;
        let builder = || {
            spec.builder(0)
                .expect("spec builds")
                .edge_params(fast.clone())
        };
        let reference = drive(&spec, builder().build().expect("builds"));
        assert!(reference.stats.messages_delivered > 0, "{name}: no traffic");
        for shards in [2usize, 3] {
            let sim = ParallelSimBuilder::new(builder())
                .shards(shards)
                .build()
                .expect("parallel build");
            let candidate = drive(&spec, sim);
            assert_identical(
                &format!("{name} with sub-bucket delays, {shards} shards"),
                &reference,
                &candidate,
            );
        }
    }
}

#[test]
fn chunked_calendar_buckets_stay_bit_identical_across_shards() {
    // The grid's buckets hold a few dozen events, so none fills one of the
    // calendar's 256-entry chunks. On a 2¹⁵-node ring, 21 to 25 of the
    // run's 25 buckets open by gathering parked chunks, in the sequential
    // queue and in every shard's at 2 and 3 shards — under the cross-shard
    // debug assertions when this suite runs in debug (about a second).
    // At 8 192 nodes only the sequential queue fills chunks.
    let mut spec = registry::find("ring-100k")
        .expect("built-in")
        .scaled(Scale::Default);
    spec.topology = TopologySpec::Ring { n: 1 << 15 };
    spec.warmup = 0.002;
    spec.duration = 0.004;
    spec.sample = 0.002;
    let reference = sequential(&spec, 0);
    for shards in [2usize, 3] {
        assert_identical(
            &format!("2^15-node ring, {shards} shards"),
            &reference,
            &sharded(&spec, 0, shards),
        );
    }
}

#[test]
fn conformance_reports_match_the_sequential_engine() {
    // The conformance oracle reads clocks, levels, weights, counters, and
    // the realized change log through the same observation surface — the
    // whole report must come out identical on the sharded engine.
    for name in ["churn-burst", "byzantine-est"] {
        let spec = registry::find(name).expect("built-in").scaled(Scale::Tiny);
        for seed in 0..2u64 {
            let reports: Vec<_> = [1usize, 3]
                .iter()
                .map(|&shards| {
                    let mut sim = ParallelSimBuilder::new(spec.builder(seed).expect("builds"))
                        .shards(shards)
                        .build()
                        .expect("parallel build");
                    let mut checker = ConformanceChecker::new(&sim, spec.sample);
                    drive_sampled(
                        &mut sim,
                        &spec.faults,
                        spec.sample,
                        spec.end_secs(),
                        |_, sim| {
                            checker.observe(sim);
                        },
                    );
                    checker.finish()
                })
                .collect();
            let mut sim = spec.build(seed).expect("builds");
            let mut checker = ConformanceChecker::new(&sim, spec.sample);
            drive_sampled(
                &mut sim,
                &spec.faults,
                spec.sample,
                spec.end_secs(),
                |_, sim| {
                    checker.observe(sim);
                },
            );
            let sequential = checker.finish();
            for (i, report) in reports.iter().enumerate() {
                assert_eq!(
                    report, &sequential,
                    "{name} seed {seed}, variant {i}: conformance report diverged"
                );
            }
        }
    }
}

#[test]
fn zero_transit_latency_builds_one_shard_and_refuses_two() {
    // The window is the scenario's minimum transit latency (§3.1), derived
    // at build time and never set. With `delay_min = 0` no conservative
    // window exists, so more than one shard is refused; one shard needs
    // no window and stays bit-identical to the sequential engine.
    use gradient_clock_sync::net::{EdgeParams, EdgeParamsMap};
    let instant = EdgeParamsMap::uniform(EdgeParams::new(0.002, 0.010, 0.0, 0.004));
    let spec = registry::find("ring-steady")
        .expect("built-in")
        .scaled(Scale::Tiny);
    let builder = || {
        spec.builder(0)
            .expect("spec builds")
            .edge_params(instant.clone())
    };
    let err = ParallelSimBuilder::new(builder())
        .shards(2)
        .build()
        .map(|_| ())
        .expect_err("no lookahead for two shards");
    assert!(matches!(err, ParallelBuildError::NoLookahead), "{err:?}");

    let one = ParallelSimBuilder::new(builder())
        .shards(1)
        .build()
        .expect("one shard needs no window");
    let reference = drive(&spec, builder().build().expect("builds"));
    assert!(reference.stats.messages_delivered > 0, "no traffic");
    assert_identical(
        "ring-steady with zero transit latency, 1 shard",
        &reference,
        &drive(&spec, one),
    );
}

#[test]
fn trace_bytes_are_identical_across_engines_and_shard_counts() {
    // The telemetry trace is the replayable run log: for the same
    // (scenario, seed) the sequential engine and the sharded engine at
    // EVERY shard count must emit the identical JSONL bytes — and the
    // same sealed FNV-1a content hash. This is the acceptance contract
    // of the observability layer: a trace that depended on the engine
    // would be useless as a cross-engine equivalence witness.
    use gradient_clock_sync::scenarios::telemetry::run_instrumented;
    for spec in grid() {
        for seed in 0..2u64 {
            let reference = run_instrumented(&spec, seed, 1, true).expect("runs");
            let ref_trace = reference.telemetry.trace.as_ref().expect("trace on");
            gradient_clock_sync::telemetry::verify_trace(&ref_trace.text)
                .expect("sequential trace seals");
            for shards in [2usize, 7] {
                let candidate = run_instrumented(&spec, seed, shards, true).expect("runs");
                let cand_trace = candidate.telemetry.trace.as_ref().expect("trace on");
                assert_eq!(
                    ref_trace.text, cand_trace.text,
                    "{} seed {seed}, {shards} shards: trace bytes diverged",
                    spec.name
                );
                assert_eq!(
                    ref_trace.hash, cand_trace.hash,
                    "{} seed {seed}, {shards} shards: trace hash diverged",
                    spec.name
                );
                // The order-free local-counter channel agrees too, even
                // though its increments happen in a different order.
                assert_eq!(
                    reference.telemetry.local, candidate.telemetry.local,
                    "{} seed {seed}, {shards} shards: local counters diverged",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn trace_diff_pinpoints_the_first_divergent_record() {
    // Negative control: perturb a run (one extra scripted clock fault)
    // and the diff must land exactly on the injected fault record, not
    // merely report "something differs".
    use gradient_clock_sync::scenarios::telemetry::run_instrumented;
    use gradient_clock_sync::scenarios::FaultSpec;
    use gradient_clock_sync::telemetry::trace_diff;

    let spec = registry::find("ring-steady")
        .expect("built-in")
        .scaled(Scale::Tiny);
    let mut perturbed = spec.clone();
    perturbed.faults.push(FaultSpec::ClockOffset {
        at: spec.end_secs() / 2.0,
        node: 0,
        amount: 0.25,
    });

    let base = run_instrumented(&spec, 0, 1, true).expect("runs");
    let pert = run_instrumented(&perturbed, 0, 2, true).expect("runs");
    let a = base.telemetry.trace.as_ref().expect("trace on");
    let b = pert.telemetry.trace.as_ref().expect("trace on");
    assert_ne!(a.hash, b.hash, "the perturbation must change the hash");

    // The first divergence is the embedded spec record on line 2: the
    // perturbed run scripts an extra fault, and the trace carries its
    // canonical .scn (what makes replay-from-artifact possible).
    let d = trace_diff(&a.text, &b.text).expect("traces must diverge");
    assert_eq!(d.line, 2, "the embedded spec records differ first");
    assert!(
        d.b.as_deref()
            .expect("both traces carry a spec record")
            .contains("\"rec\":\"spec\""),
        "line 2 is the spec record"
    );

    // With the spec records masked the *runs* must diverge exactly at
    // the injected fault record — the diff pinpoints it, not merely
    // "something differs".
    let strip_spec = |t: &str| {
        t.lines()
            .filter(|l| !l.starts_with("{\"rec\":\"spec\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let (a_run, b_run) = (strip_spec(&a.text), strip_spec(&b.text));
    let d = trace_diff(&a_run, &b_run).expect("the runs themselves diverge");
    assert!(d.line > 1, "prefix before the fault instant is shared");
    let diverging =
        d.b.as_deref()
            .expect("perturbed trace has the extra record");
    assert!(
        diverging.contains("\"rec\":\"fault\""),
        "the first divergent record is the injected fault, got {diverging:?}"
    );
    // Everything before the divergence is byte-identical.
    let prefix = |t: &str| t.lines().take(d.line - 1).collect::<Vec<_>>().join("\n");
    assert_eq!(prefix(&a_run), prefix(&b_run));
}

#[test]
fn one_pass_with_every_observer_equals_one_pass_each() {
    // The property that makes riding an existing pass safe (`run
    // --telemetry`, `conformance --telemetry`): observers only look. One
    // pass with the campaign, oracle and trace observers all attached
    // must yield the outcome, the report and the sealed trace bytes of
    // three single-observer passes — at the same shard count, and on the
    // sequential engine.
    use gradient_clock_sync::scenarios::{
        run_campaign, run_pass, Observer, OracleObserver, OutcomeObserver, Stops, TelemetryObserver,
    };
    let specs: Vec<ScenarioSpec> = ["churn-burst", "self-heal"]
        .iter()
        .map(|n| registry::find(n).expect("built-in").scaled(Scale::Tiny))
        .collect();
    for spec in &specs {
        for seed in 0..2u64 {
            let pass = |shards: usize, observers: &mut [&mut dyn Observer]| {
                run_pass(spec, seed, shards, Stops::Grid, observers).expect("runs")
            };
            let ctx = |what: &str, shards: usize| {
                format!(
                    "{} seed {seed}: {what} diverged at {shards} shard(s)",
                    spec.name
                )
            };
            let mut reference = None;
            for shards in [1usize, 3] {
                let (mut outcome, mut oracle, mut recorder) = (
                    OutcomeObserver::new(spec),
                    OracleObserver::new(None),
                    TelemetryObserver::new(true),
                );
                let shared = pass(shards, &mut [&mut outcome, &mut oracle, &mut recorder]);
                let together = (
                    outcome.finish(&shared),
                    oracle.finish().report,
                    recorder
                        .finish(&shared)
                        .telemetry
                        .trace
                        .expect("trace on")
                        .text,
                );

                let mut outcome = OutcomeObserver::new(spec);
                let alone = pass(shards, &mut [&mut outcome]);
                assert_eq!(alone.stats, shared.stats, "{}", ctx("counters", shards));
                assert_eq!(
                    outcome.finish(&alone),
                    together.0,
                    "{}",
                    ctx("outcome", shards)
                );
                let mut oracle = OracleObserver::new(None);
                pass(shards, &mut [&mut oracle]);
                assert_eq!(
                    oracle.finish().report,
                    together.1,
                    "{}",
                    ctx("report", shards)
                );
                let mut recorder = TelemetryObserver::new(true);
                let alone = pass(shards, &mut [&mut recorder]);
                let trace = recorder.finish(&alone).telemetry.trace.expect("trace on");
                assert_eq!(trace.text, together.2, "{}", ctx("trace", shards));

                let reference = reference.get_or_insert_with(|| together.clone());
                assert_eq!(
                    &together,
                    reference,
                    "{}",
                    ctx("the sequential engine", shards)
                );
            }
        }
    }

    // The campaign entry with the recorder riding along makes that one
    // pass per scenario × seed: same rows as without it, and each
    // instrumented run carries the very counters and sample instants of
    // the outcome next to it.
    let seeds = [0u64, 1];
    let (plain, none) = run_campaign(&specs, &seeds, false, |_, _, _| {}).expect("runs");
    let (ridden, runs) = run_campaign(&specs, &seeds, true, |_, _, _| {}).expect("runs");
    assert!(none.is_empty());
    assert_eq!(plain, ridden, "the recorder must not change the campaign");
    let outcomes: Vec<_> = ridden.iter().flat_map(|r| &r.outcomes).collect();
    assert_eq!(runs.len(), outcomes.len());
    for (run, outcome) in runs.iter().zip(outcomes) {
        assert_eq!(
            (run.pass.seed, run.pass.stats.events),
            (outcome.seed, outcome.events)
        );
        let sampled: Vec<f64> = run.telemetry.samples.iter().map(|s| s.t).collect();
        let observed: Vec<f64> = outcome.trajectory.iter().map(|&(t, _)| t).collect();
        assert_eq!(sampled, observed);
    }
}

#[test]
fn diameter_tracking_is_rejected() {
    let spec = registry::find("ring-steady")
        .expect("built-in")
        .scaled(Scale::Tiny);
    let err = ParallelSimBuilder::new(spec.builder(0).expect("builds").track_diameter(true))
        .shards(2)
        .build()
        .map(|_| ())
        .expect_err("diameter tracking is sequential-only");
    assert!(matches!(
        err,
        ParallelBuildError::DiameterTrackingUnsupported
    ));
}
