//! Reproducibility: a simulation is a pure function of its configuration
//! and seed.

use gradient_clock_sync::net::{ChurnOptions, NetworkSchedule, NodeId, Topology};
use gradient_clock_sync::prelude::*;

fn params() -> Params {
    Params::builder().rho(0.01).mu(0.1).build().unwrap()
}

#[test]
fn identical_configs_give_identical_traces() {
    let build = || {
        SimBuilder::new(params())
            .topology(Topology::grid(3, 3))
            .drift(DriftModel::RandomWalk {
                period: 1.0,
                step_frac: 0.3,
            })
            .estimates(EstimateMode::Messages)
            .horizon(40.0)
            .seed(1234)
            .build()
            .unwrap()
    };
    let mut a = build();
    let mut b = build();
    for k in 1..=20 {
        a.run_until_secs(f64::from(k));
        b.run_until_secs(f64::from(k));
        assert_eq!(a.snapshot(), b.snapshot(), "diverged at t={k}s");
    }
    assert_eq!(a.stats(), b.stats());
}

/// Every clock reading of every node, as bits: the snapshot's three
/// columns plus the bounds and fast-mode time the snapshot leaves out.
fn clock_bits(sim: &Simulation) -> Vec<u64> {
    (0..sim.node_count())
        .flat_map(|i| {
            let node = sim.node(NodeId::from(i));
            [
                node.logical(),
                node.hardware(),
                node.max_estimate(),
                node.max_upper_bound(),
                node.min_lower_bound(),
                node.fast_secs(),
            ]
        })
        .map(f64::to_bits)
        .collect()
}

#[test]
fn different_run_granularity_gives_equivalent_results() {
    // Stepping in 0.5 s increments or one 10 s jump must not matter, to
    // the bit: event processing is driven purely by the queue, and
    // advancing a node's clocks to a query instant evaluates them from
    // its last anchor without moving it, so a query leaves no trace.
    let build = || {
        SimBuilder::new(params())
            .topology(Topology::ring(6))
            .drift(DriftModel::TwoBlock)
            .seed(77)
            .build()
            .unwrap()
    };
    let mut fine = build();
    for k in 1..=20 {
        fine.run_until_secs(f64::from(k) * 0.5);
    }
    let mut coarse = build();
    coarse.run_until_secs(10.0);
    assert_eq!(fine.snapshot(), coarse.snapshot());
    assert_eq!(clock_bits(&fine), clock_bits(&coarse));
    assert_eq!(fine.stats(), coarse.stats());
}

#[test]
fn churn_schedules_replay_identically() {
    let topo = Topology::ring(6);
    let schedule = NetworkSchedule::churn(&topo, ChurnOptions::default(), 5);
    let build = |s: &NetworkSchedule| {
        let mut pb = Params::builder();
        pb.rho(0.01).mu(0.1).insertion_scale(0.05);
        SimBuilder::new(pb.build().unwrap())
            .schedule(s.clone())
            .seed(5)
            .build()
            .unwrap()
    };
    let mut a = build(&schedule);
    let mut b = build(&schedule);
    a.run_until_secs(30.0);
    b.run_until_secs(30.0);
    assert_eq!(a.snapshot(), b.snapshot());
}
