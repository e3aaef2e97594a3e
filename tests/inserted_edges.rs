//! `Simulation::inserted_edges_into` — the conformance oracle's one read
//! of a snapshot's level sets — against the composition it replaces:
//! `level_edges_into(u32::MAX)` for the strong edges, `level_edges_into(1)`
//! minus those for the weak ones, `level_between` for a weak edge's level
//! and `effective_kappa` for every `κ`. Same edges, same order, bit-equal
//! levels and weights, on every registry scenario at tiny scale and on a
//! decaying-weight build.

use gradient_clock_sync::core::edge_state::Level;
use gradient_clock_sync::net::{EdgeKey, NetworkSchedule, NodeId};
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::scenarios::campaign::drive_sampled;
use gradient_clock_sync::scenarios::Scale;

type Strong = Vec<(EdgeKey, f64)>;
type Weak = Vec<(EdgeKey, u32, f64)>;

/// The strong and weak lists as the oracle used to assemble them.
fn composed(sim: &Simulation) -> (Strong, Weak) {
    let kappa = |e: EdgeKey| {
        sim.effective_kappa(e)
            .expect("a level edge has both slots")
            .to_bits()
    };
    let strong_keys = sim.level_edges(u32::MAX);
    let strong = strong_keys
        .iter()
        .map(|&e| (e, f64::from_bits(kappa(e))))
        .collect();
    let weak = sim
        .level_edges(1)
        .into_iter()
        .filter(|e| strong_keys.binary_search(e).is_err())
        .filter_map(|e| match sim.level_between(e.lo(), e.hi()) {
            Some(Level::Finite(s)) => Some((e, s, f64::from_bits(kappa(e)))),
            _ => None,
        })
        .collect();
    (strong, weak)
}

/// Asserts the one-pass lists equal the composed ones bit for bit, and
/// returns how many weak edges the instant had.
fn check(sim: &Simulation, what: &str, strong: &mut Strong, weak: &mut Weak) -> usize {
    sim.inserted_edges_into(strong, weak);
    let (want_strong, want_weak) = composed(sim);
    let t = sim.now().as_secs();
    let bits = |l: &[(EdgeKey, f64)]| l.iter().map(|&(e, k)| (e, k.to_bits())).collect::<Vec<_>>();
    assert_eq!(bits(strong), bits(&want_strong), "{what} t={t}: strong");
    let bits = |l: &[(EdgeKey, u32, f64)]| {
        l.iter()
            .map(|&(e, s, k)| (e, s, k.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(weak), bits(&want_weak), "{what} t={t}: weak");
    weak.len()
}

#[test]
fn one_pass_matches_the_level_composition_on_every_registry_scenario() {
    // Every scenario at tiny scale, plus `churn-storm` at default scale:
    // its tiny run ends before the first churned edge comes back up.
    // The flag marks the runs that must show an edge mid-insertion.
    let tiny = registry::all().into_iter().map(|s| {
        let churned = ["flash-join", "churn-burst"].contains(&s.name.as_str());
        (s.scaled(Scale::Tiny), churned)
    });
    let storm = registry::find("churn-storm").expect("built-in");
    let (mut strong, mut weak) = (Vec::new(), Vec::new());
    for (spec, churned) in tiny.chain([(storm.scaled(Scale::Default), true)]) {
        let mut sim = spec.build(0).expect("registry scenario builds");
        // A sixteenth of the sampling period: a short insertion (churn at
        // a small `insertion-scale`) climbs its levels between the
        // oracle's own sample instants.
        let (step, mut instants, mut weak_seen) = (spec.sample / 16.0, 0, 0);
        drive_sampled(&mut sim, &spec.faults, step, spec.end_secs(), |_, sim| {
            weak_seen += check(sim, &spec.name, &mut strong, &mut weak);
            instants += 1;
        });
        assert!(instants > 4, "{}: only {instants} instants", spec.name);
        if churned {
            assert!(weak_seen > 0, "{}: no edge seen mid-insertion", spec.name);
        }
    }
}

#[test]
fn one_pass_matches_the_level_composition_under_decaying_weight() {
    // A ring with a chord inserted at t = 2 s: the chord's weight decays
    // from its inflated start to κ, and `κ` is the larger of the two
    // endpoints' decayed weights.
    let n = 10;
    let chord = EdgeKey::new(NodeId(0), NodeId::from(n / 2));
    let schedule = NetworkSchedule::with_edge_insertion(
        &Topology::ring(n),
        &[(chord, SimTime::from_secs(2.0))],
        0.002,
    );
    let mut pb = Params::builder();
    pb.rho(0.01)
        .mu(0.1)
        .insertion_strategy(InsertionStrategy::DecayingWeight { halving: 1.0 });
    let mut sim = SimBuilder::new(pb.build().unwrap())
        .schedule(schedule)
        .drift(DriftModel::TwoBlock)
        .seed(1)
        .build()
        .unwrap();
    let (mut strong, mut weak) = (Vec::new(), Vec::new());
    let mut inflated = 0;
    for k in 1..=40 {
        sim.run_until_secs(f64::from(k) * 0.5);
        assert_eq!(check(&sim, "decaying", &mut strong, &mut weak), 0);
        let kappa = strong.iter().find(|&&(e, _)| e == chord).map(|&(_, k)| k);
        if kappa.is_some_and(|k| k > sim.edge_info(chord).unwrap().kappa) {
            inflated += 1;
        }
    }
    assert!(
        inflated > 0,
        "the chord was never seen with an inflated weight"
    );
}
