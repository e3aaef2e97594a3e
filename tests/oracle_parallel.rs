//! Worker-count invariance of the conformance oracle's gradient sweep.
//!
//! The sweep fans a snapshot's sources over scoped workers, each into
//! its own accumulator, and merges the accumulators with integer sums
//! and f64 min/max only — so the `ConformanceReport` must be `==`, bit
//! for bit, however many workers ran and whichever sources each of them
//! happened to take. Like the shard grid of `parallel_equivalence.rs`
//! this is held at widths {1, 2, 3, 7}, in exact and in sampled mode, on
//! one scenario per path through the sweep.

use gradient_clock_sync::analysis::oracle::OracleSampling;
use gradient_clock_sync::analysis::paths::full_level_graph;
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::scenarios::campaign::drive_sampled;
use gradient_clock_sync::scenarios::Scale;

const WIDTHS: [usize; 4] = [1, 2, 3, 7];

fn tiny(name: &str) -> ScenarioSpec {
    registry::find(name).expect("built-in").scaled(Scale::Tiny)
}

/// The one-worker report of a run, and how many of its snapshots had a
/// strong graph with mixed weights (the Dijkstra path of the sweep).
struct Run {
    report: ConformanceReport,
    mixed_weight_snapshots: u64,
}

/// Drives one seeded run of `spec` under `params` with every snapshot
/// observed by one checker per forced width plus one that chooses its
/// own, and asserts that all their reports equal the one-worker report.
/// With `corrupt`, a 3·Ĝ clock corruption is injected at t = 4 s that the
/// oracle is told not to credit, as in `conformance_gate.rs`.
fn run_at_every_width(
    spec: &ScenarioSpec,
    params: &Params,
    seed: u64,
    sampling: Option<OracleSampling>,
    corrupt: bool,
) -> Run {
    let mut sim = spec
        .builder_with(params.clone(), seed)
        .and_then(|b| Ok(b.build()?))
        .expect("spec builds");
    let mut cfg = OracleConfig::for_sim(&sim, spec.sample);
    cfg.sampling = sampling;
    cfg.credit_faults = !corrupt;
    let mut faults = spec.faults.clone();
    if corrupt {
        faults.push(FaultSpec::ClockOffset {
            at: 4.0,
            node: 0,
            amount: 3.0 * cfg.g_hat,
        });
    }
    let mut forced = WIDTHS.map(|_| ConformanceChecker::with_config(&sim, cfg.clone()));
    let mut own = ConformanceChecker::with_config(&sim, cfg);
    let mut mixed_weight_snapshots = 0;

    drive_sampled(&mut sim, &faults, spec.sample, spec.end_secs(), |_, sim| {
        if full_level_graph(sim).uniform_weight().is_none() && !sim.level_edges(u32::MAX).is_empty()
        {
            mixed_weight_snapshots += 1;
        }
        for (checker, workers) in forced.iter_mut().zip(WIDTHS) {
            checker.observe_with_workers(sim, workers);
        }
        own.observe(sim);
    });

    let [one, wider @ ..] = forced.map(ConformanceChecker::finish);
    let mode = if sampling.is_some() {
        "sampled"
    } else {
        "exact"
    };
    for (report, workers) in wider.iter().zip(&WIDTHS[1..]) {
        assert_eq!(
            *report, one,
            "{} seed {seed} {mode}: {workers} workers",
            spec.name
        );
    }
    assert_eq!(
        own.finish(),
        one,
        "{} seed {seed} {mode}: own width",
        spec.name
    );
    assert!(one.gradient.checks > 0, "{}: the sweep ran", spec.name);
    Run {
        report: one,
        mixed_weight_snapshots,
    }
}

/// Exact mode, then `OracleSampling::new(0.25, seed)`.
fn both_modes_with(spec: &ScenarioSpec, params: &Params, seed: u64, corrupt: bool) -> [Run; 2] {
    [None, Some(OracleSampling::new(0.25, seed))]
        .map(|sampling| run_at_every_width(spec, params, seed, sampling, corrupt))
}

fn both_modes(spec: &ScenarioSpec, seed: u64, corrupt: bool) -> [Run; 2] {
    both_modes_with(spec, &spec.params().expect("valid spec"), seed, corrupt)
}

#[test]
fn uniform_sweep_is_worker_count_invariant() {
    for name in ["ring-steady", "torus-messages"] {
        for run in both_modes(&tiny(name), 0, false) {
            assert_eq!(run.mixed_weight_snapshots, 0, "{name}: hop-counting path");
            assert!(run.report.is_conformant(), "{name}");
        }
    }
}

#[test]
fn dijkstra_sweep_is_worker_count_invariant() {
    // Every registry scenario inserts edges in stages, at their final κ,
    // so all their strong graphs are weight-uniform. Under the
    // decaying-weight strategy a re-inserted edge starts at an inflated κ:
    // churn snapshots then mix weights and every pair gets its own
    // Dijkstra bound. (Seed 2: the tiny run's first seed with an edge
    // coming back up inside the window.)
    let spec = tiny("churn-storm");
    let mut pb = Params::builder();
    pb.rho(spec.rho)
        .mu(spec.mu)
        .insertion_strategy(InsertionStrategy::DecayingWeight { halving: 1.0 });
    let params = pb.build().expect("valid parameters");
    for run in both_modes_with(&spec, &params, 2, false) {
        assert!(run.mixed_weight_snapshots > 0, "no snapshot mixed weights");
        assert!(!run.report.per_hop.is_empty());
    }
}

#[test]
fn sweep_across_components_is_worker_count_invariant() {
    // While the ring is cut, sources sit in different components: what a
    // worker's BFS marked for one source must not leak into its next.
    for run in both_modes(&tiny("partition-heal"), 0, false) {
        assert!(run.report.disconnected_samples > 0, "the cut opened");
    }
}

#[test]
fn violation_recount_is_worker_count_invariant() {
    for run in both_modes(&tiny("ring-steady"), 3, true) {
        assert!(
            run.report.gradient.violations > 0,
            "the un-credited corruption breaches the gradient bound"
        );
        assert!(!run.report.is_conformant());
    }
}
