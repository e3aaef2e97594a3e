//! `Simulation::inserted_edges_into` — the conformance oracle's one read
//! of a snapshot's level sets — against the composition it replaces:
//! `level_edges_into(u32::MAX)` for the strong edges, `level_edges_into(1)`
//! minus those for the weak ones, `level_between` for a weak edge's level
//! and `effective_kappa` for every `κ`. Same edges, same order, bit-equal
//! levels and weights, on every registry scenario at tiny scale and on a
//! decaying-weight build. And the oracle's gradient check on what that
//! read returns, against a reference computed from the same lists.

use gradient_clock_sync::analysis::oracle::HopClass;
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

/// A ring of `n` with `chord` inserted at t = 2 s under decaying weight,
/// its first half fast and its second half slow: the chord's weight
/// decays from its inflated start to `κ`, and its `κ` is the larger of
/// the two endpoints' decayed weights.
fn decaying_chord_ring(n: usize, chord: EdgeKey) -> Simulation {
    let schedule = NetworkSchedule::with_edge_insertion(
        &Topology::ring(n),
        &[(chord, SimTime::from_secs(2.0))],
        0.002,
    );
    let mut pb = Params::builder();
    pb.rho(0.01)
        .mu(0.1)
        .insertion_strategy(InsertionStrategy::DecayingWeight { halving: 1.0 });
    SimBuilder::new(pb.build().unwrap())
        .schedule(schedule)
        .drift(DriftModel::TwoBlock)
        .seed(1)
        .build()
        .unwrap()
}

#[test]
fn one_pass_matches_the_level_composition_under_decaying_weight() {
    let chord = EdgeKey::new(NodeId(0), NodeId(5));
    let mut sim = decaying_chord_ring(10, chord);
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

/// Shortest distances from `src` over the undirected `edges`, by a plain
/// O(n²) Dijkstra: weighted when `weight` reads the edge's `κ`, hop counts
/// when it reads 1.
fn dijkstra(n: usize, edges: &[(EdgeKey, f64)], src: usize, weight: fn(f64) -> f64) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    dist[src] = 0.0;
    while let Some(u) = (0..n)
        .filter(|&v| !done[v] && dist[v].is_finite())
        .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
    {
        done[u] = true;
        for &(e, kappa) in edges {
            let (a, b) = (e.lo().index(), e.hi().index());
            let v = match u {
                _ if u == a => b,
                _ if u == b => a,
                _ => continue,
            };
            dist[v] = dist[v].min(dist[u] + weight(kappa));
        }
    }
    dist
}

/// The oracle's gradient family, recomputed independently: every pair
/// `u < v` connected in `G_∞(t)` is held to `gradient_bound` of its
/// weighted distance, and filed under its hop distance. No fault and no
/// partition happens here, so the allowance is zero.
#[derive(Debug, Default)]
struct Reference {
    checks: u64,
    violations: u64,
    min_margin: Option<f64>,
    worst_utilization: f64,
    per_hop: Vec<HopClass>,
}

impl Reference {
    fn observe(&mut self, sim: &Simulation, strong: &[(EdgeKey, f64)], g_hat: f64, slack: f64) {
        let n = sim.node_count();
        let logical: Vec<f64> = (0..n)
            .map(|u| sim.node(NodeId::from(u)).logical())
            .collect();
        for u in 0..n {
            let kdist = dijkstra(n, strong, u, |k| k);
            let hops = dijkstra(n, strong, u, |_| 1.0);
            for v in u + 1..n {
                if !kdist[v].is_finite() {
                    continue;
                }
                let skew = (logical[u] - logical[v]).abs();
                let allowed = gradient_bound(sim.params(), g_hat, kdist[v]) + 0.0 + slack;
                let (margin, util) = (allowed - skew, skew / allowed);
                self.checks += 1;
                self.violations += u64::from(margin < 0.0);
                self.min_margin = Some(self.min_margin.map_or(margin, |m| m.min(margin)));
                self.worst_utilization = self.worst_utilization.max(util);
                let d = hops[v] as u32;
                while self.per_hop.len() < d as usize {
                    self.per_hop.push(HopClass {
                        hops: self.per_hop.len() as u32 + 1,
                        pairs: 0,
                        worst_skew: 0.0,
                        min_margin: f64::INFINITY,
                        worst_utilization: 0.0,
                    });
                }
                let class = &mut self.per_hop[d as usize - 1];
                class.pairs += 1;
                class.worst_skew = class.worst_skew.max(skew);
                class.min_margin = class.min_margin.min(margin);
                class.worst_utilization = class.worst_utilization.max(util);
            }
        }
    }
}

/// Asserts the oracle's gradient family equals the reference, bit for bit.
fn assert_same_gradient(report: &ConformanceReport, reference: &Reference, t: f64) {
    let got = &report.gradient;
    let bits = |x: f64| x.to_bits();
    assert_eq!(got.checks, reference.checks, "t={t}: checks");
    assert_eq!(got.violations, reference.violations, "t={t}: violations");
    assert_eq!(
        bits(got.min_margin),
        bits(reference.min_margin.expect("pairs were checked")),
        "t={t}: min margin {} vs {:?}",
        got.min_margin,
        reference.min_margin
    );
    assert_eq!(
        bits(got.worst_utilization),
        bits(reference.worst_utilization),
        "t={t}: worst utilization {} vs {}",
        got.worst_utilization,
        reference.worst_utilization
    );
    let classes = |per_hop: &[HopClass]| {
        per_hop
            .iter()
            .map(|c| {
                let f = [c.worst_skew, c.min_margin, c.worst_utilization].map(f64::to_bits);
                (c.hops, c.pairs, f)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        classes(&report.per_hop),
        classes(&reference.per_hop),
        "t={t}: hop classes"
    );
}

/// The oracle picks, per snapshot, between the weight-uniform passes
/// (all strong weights bit-equal) and Dijkstra (mixed weights). While the
/// decaying chord is heavier than the ring's edges it must take Dijkstra;
/// before the chord appears and once it has decayed, the uniform passes.
/// Either way each snapshot's gradient report must be the reference's,
/// bit for bit. The chord joins the fast half's middle to the slow
/// half's, the pair with the largest skew: a uniform pass on a mixed
/// snapshot would hold that skew to one hop's bound. Each snapshot gets a
/// checker of its own, so one instant's worst case cannot hide another's.
#[test]
fn the_oracle_gradient_family_matches_dijkstra_on_mixed_and_uniform_snapshots() {
    let mut sim = decaying_chord_ring(10, EdgeKey::new(NodeId(2), NodeId(7)));
    let cfg = OracleConfig::for_sim(&sim, 0.5);
    let (mut strong, mut weak) = (Vec::new(), Vec::new());
    let (mut mixed, mut uniform) = (0, 0);
    for k in 1..=30 {
        sim.run_until_secs(f64::from(k) * 0.5);
        assert!(sim.is_support_connected(), "the ring never splits");
        let mut oracle = ConformanceChecker::with_config(&sim, cfg.clone());
        oracle.observe(&sim);
        sim.inserted_edges_into(&mut strong, &mut weak);
        let first = strong[0].1.to_bits();
        if strong.iter().all(|&(_, w)| w.to_bits() == first) {
            uniform += 1;
        } else {
            mixed += 1;
        }
        let mut reference = Reference::default();
        reference.observe(&sim, &strong, cfg.g_hat, cfg.slack);
        assert_same_gradient(&oracle.finish(), &reference, sim.now().as_secs());
    }
    assert!(mixed > 0 && uniform > 0, "{mixed} mixed, {uniform} uniform");
}
