//! The engine keeps each edge fact once. Presence and `discovered_at`
//! live in the neighbour tables (release builds keep no graph beside
//! them), and each edge's derived `EdgeInfo` lives in a table of edge
//! classes. These tests rebuild the graph from the schedule's initial
//! edges plus `change_log()` and derive every edge's info on its own,
//! then hold the engine's answers to both.

use gradient_clock_sync::core::{ChangeRecord, EdgeInfo};
use gradient_clock_sync::net::{DynamicGraph, EdgeKey, NetworkSchedule, NodeId};
use gradient_clock_sync::prelude::*;
use gradient_clock_sync::scenarios::campaign::drive_sampled;
use gradient_clock_sync::scenarios::Scale;

/// The directed graph `schedule` starts from, at `t = 0`.
fn initial_graph(schedule: &NetworkSchedule) -> DynamicGraph {
    let mut g = DynamicGraph::new(schedule.node_count());
    for &(u, v) in schedule.initial_directed() {
        g.insert_directed(u, v, SimTime::ZERO);
    }
    g
}

/// Applies the change log's edge records from `cursor` on; returns the
/// new cursor.
fn replay(g: &mut DynamicGraph, log: &[ChangeRecord], cursor: usize) -> usize {
    for rec in &log[cursor..] {
        match *rec {
            ChangeRecord::EdgeUp { at, from, to } => {
                g.insert_directed(from, to, SimTime::from_secs(at));
            }
            ChangeRecord::EdgeDown { from, to, .. } => g.remove_directed(from, to),
            ChangeRecord::ClockFault { .. } | ChangeRecord::EstimateFault { .. } => {}
        }
    }
    log.len()
}

/// Asserts the neighbour tables are `g` (ids and `discovered_at`, bit for
/// bit), and that the slot-derived graph queries answer what `g` does.
fn check_tables(sim: &Simulation, g: &DynamicGraph, what: &str) {
    let t = sim.now().as_secs();
    for u in 0..sim.node_count() {
        let u = NodeId::from(u);
        let slots: Vec<(NodeId, u64)> = sim
            .node(u)
            .slots
            .iter()
            .map(|e| (e.id, e.slot.discovered_at.as_secs().to_bits()))
            .collect();
        let graph: Vec<(NodeId, u64)> = g
            .neighbors(u)
            .map(|v| (v, g.up_since(u, v).expect("neighbour").as_secs().to_bits()))
            .collect();
        assert_eq!(slots, graph, "{what} t={t}: row of {u}");
    }
    assert_eq!(
        sim.is_support_connected(),
        g.is_support_connected(),
        "{what} t={t}: support connectivity"
    );
    let ours: Vec<EdgeKey> = sim.undirected_edges().collect();
    let want: Vec<EdgeKey> = g.undirected_edges().collect();
    assert_eq!(ours, want, "{what} t={t}: undirected edges");
}

/// `e`'s info derived on its own, the way the builder derived it before
/// edges were grouped into classes.
fn derived(base: &Params, mode: EstimateMode, refresh: f64, ep: EdgeParams) -> EdgeInfo {
    let epsilon = mode.advertised_epsilon(base, ep, refresh);
    EdgeInfo {
        params: ep,
        epsilon,
        kappa: base.kappa(ep, epsilon),
        delta: base.delta(ep, epsilon),
    }
}

fn bits(info: EdgeInfo) -> [u64; 7] {
    let p = info.params;
    [
        p.epsilon,
        p.tau,
        p.delay_min,
        p.delay_max,
        info.epsilon,
        info.kappa,
        info.delta,
    ]
    .map(f64::to_bits)
}

/// Every universe edge's interned info is bit-equal to its own
/// derivation, and a pair outside the universe has none.
fn check_edge_info(
    sim: &Simulation,
    schedule: &NetworkSchedule,
    edge_params: &EdgeParamsMap,
    base: &Params,
    mode: EstimateMode,
    what: &str,
) {
    let universe = schedule.edge_universe();
    let refresh = sim.refresh_interval();
    for &e in &universe {
        let want = derived(base, mode, refresh, edge_params.get(e));
        let got = sim.edge_info(e).expect("a universe edge has info");
        assert_eq!(bits(got), bits(want), "{what}: edge {e}");
    }
    let n = sim.node_count() as u32;
    let outside = (1..n)
        .map(|v| EdgeKey::new(NodeId(0), NodeId(v)))
        .find(|e| universe.binary_search(e).is_err());
    if let Some(e) = outside {
        assert!(
            sim.edge_info(e).is_none(),
            "{what}: {e} is outside the universe"
        );
    }
}

#[test]
fn slot_tables_answer_what_the_replayed_graph_does_on_every_registry_scenario() {
    // Every scenario at tiny scale, plus `churn-storm` at default scale:
    // its tiny run ends before the first churned edge comes back up.
    let tiny = registry::all().into_iter().map(|s| s.scaled(Scale::Tiny));
    let storm = registry::find("churn-storm").expect("built-in");
    let (mut ups, mut downs, mut split) = (0, 0, 0);
    for spec in tiny.chain([storm.scaled(Scale::Default)]) {
        let schedule = spec.schedule(0).expect("registry scenario compiles");
        let base = spec.params().expect("registry parameters");
        let mut sim = spec.build(0).expect("registry scenario builds");
        check_edge_info(
            &sim,
            &schedule,
            &EdgeParamsMap::default(),
            &base,
            spec.estimates.mode(),
            &spec.name,
        );
        let mut g = initial_graph(&schedule);
        let mut cursor = 0;
        drive_sampled(
            &mut sim,
            &spec.faults,
            spec.sample,
            spec.end_secs(),
            |_, sim| {
                cursor = replay(&mut g, sim.change_log(), cursor);
                check_tables(sim, &g, &spec.name);
                split += usize::from(!g.is_support_connected());
            },
        );
        for rec in sim.change_log() {
            match rec {
                ChangeRecord::EdgeUp { .. } => ups += 1,
                ChangeRecord::EdgeDown { .. } => downs += 1,
                _ => {}
            }
        }
    }
    assert!(ups > 0 && downs > 0, "{ups} edge-ups, {downs} edge-downs");
    assert!(split > 0, "no instant had a disconnected support");
}

#[test]
fn interned_edge_info_equals_a_per_edge_derivation_under_overrides() {
    // A ring whose edges fall into three classes: the default, a slow
    // edge, and two edges sharing a wide one — under the message layer,
    // whose `ε` also depends on the refresh period.
    let n = 8;
    let schedule = NetworkSchedule::static_graph(&Topology::ring(n));
    let mut map = EdgeParamsMap::default();
    let slow = EdgeParams::new(0.002, 0.02, 0.004, 0.02);
    let wide = EdgeParams::new(0.004, 0.01, 0.001, 0.008);
    map.set(EdgeKey::new(NodeId(2), NodeId(3)), slow);
    map.set(EdgeKey::new(NodeId(5), NodeId(6)), wide);
    map.set(EdgeKey::new(NodeId(0), NodeId(7)), wide);
    let base = Params::builder().rho(0.01).mu(0.1).build().unwrap();
    let mode = EstimateMode::Messages;
    let mut sim = SimBuilder::new(base.clone())
        .schedule(schedule.clone())
        .edge_params(map.clone())
        .estimates(mode)
        .drift(DriftModel::TwoBlock)
        .seed(5)
        .build()
        .unwrap();
    check_edge_info(&sim, &schedule, &map, &base, mode, "overrides");
    let kappas: Vec<u64> = schedule
        .edge_universe()
        .iter()
        .map(|&e| sim.edge_info(e).unwrap().kappa.to_bits())
        .collect();
    let mut distinct = kappas.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 3, "three classes of weight: {kappas:?}");
    // The neighbour entries carry the same info the table hands out.
    sim.run_until_secs(2.0);
    for u in 0..n {
        let u = NodeId::from(u);
        for entry in &sim.node(u).slots {
            let want = sim.edge_info(EdgeKey::new(u, entry.id)).unwrap();
            assert_eq!(bits(entry.info), bits(want), "entry ({u}, {})", entry.id);
        }
    }
    check_tables(&sim, &initial_graph(&schedule), "overrides");
}
