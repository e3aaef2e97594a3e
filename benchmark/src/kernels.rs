//! Isolated kernels of the per-event work, sized from what the traced
//! repetition just saw: the same public functions the engines call, on
//! state as large as the workload's, visited in pseudo-random order so
//! the cache behaves as it does under the engine. Each returns
//! nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use gcs_net::NodeId;
use gcs_protocol::edge_state::{EdgeSlot, EstimateEntry};
use gcs_protocol::{
    merge_flood, AoptPolicy, EdgeInfo, FloodMsg, ModePolicy, NeighborView, NodeState, NodeView,
    Params,
};
use gcs_sim::{EventQueue, SimTime};

/// Operations per kernel: ten visits per node at 10^5 nodes.
const OPS: u64 = 1 << 20;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One `EventQueue::pop` plus one `schedule` a few milliseconds ahead, at
/// a standing backlog of `backlog` events — the engines' steady state.
/// The payload is four words, about the size of an engine event.
pub fn queue_pair_ns(backlog: usize) -> f64 {
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15);
    let mut ahead = move || (rng.next() % 1_000_000) as f64 * 1e-8;
    let mut q: EventQueue<[u64; 4]> = EventQueue::new();
    for i in 0..backlog.max(1) as u64 {
        q.schedule(SimTime::from_secs(ahead()), [i; 4]);
    }
    let start = Instant::now();
    for _ in 0..OPS {
        let (when, payload) = q.pop().expect("standing backlog");
        q.schedule(SimTime::from_secs(when.as_secs() + ahead()), payload);
    }
    black_box(q.len());
    start.elapsed().as_secs_f64() * 1e9 / OPS as f64
}

/// Nanoseconds per `NodeState::advance_to`, per `merge_flood`, and per
/// neighbour-view fill plus `AoptPolicy::decide_and_certify`, over
/// `nodes` node states of `degree` neighbours each.
pub fn protocol_ns(nodes: usize, degree: usize, params: &Params, info: EdgeInfo) -> [f64; 3] {
    let degree = degree.clamp(1, nodes - 1);
    let mut states: Vec<NodeState> = (0..nodes)
        .map(|i| {
            let mut state = NodeState::new(NodeId(i as u32), 1.0);
            for j in 0..degree {
                // Neighbours at ring offsets +1, -1, +2, -2, ...
                let hop = j / 2 + 1;
                let peer = if j % 2 == 0 {
                    (i + hop) % nodes
                } else {
                    (i + nodes - hop) % nodes
                };
                let mut slot = EdgeSlot::initial();
                slot.estimate = Some(EstimateEntry {
                    value: j as f64 * 1e-4,
                    hw_at_recv: 0.0,
                });
                state.slots.insert(NodeId(peer as u32), info, slot);
            }
            state
        })
        .collect();
    let mut rng = Lcg(0xD1B5_4A32_D192_ED03);
    let per_op = |start: Instant| start.elapsed().as_secs_f64() * 1e9 / OPS as f64;

    let start = Instant::now();
    for k in 1..=OPS {
        let r = rng.next() as usize % nodes;
        states[r].advance_to(SimTime::from_secs(k as f64 * 1e-6), params);
    }
    let advance = per_op(start);

    let (rho, beta) = (params.rho(), params.beta());
    let start = Instant::now();
    for k in 1..=OPS {
        let r = rng.next() as usize % nodes;
        let at = k as f64 * 1e-6;
        let msg = FloodMsg {
            logical: at,
            max_est: at + 1e-3,
            min_lb: 0.0,
            max_ub: at + 2e-3,
        };
        let src = NodeId(((r + 1) % nodes) as u32);
        black_box(merge_flood(
            &mut states[r],
            src,
            msg,
            info.params,
            rho,
            beta,
        ));
    }
    let merge = per_op(start);

    let policy = AoptPolicy::new(params.max_levels());
    let mut views: Vec<NeighborView> = Vec::with_capacity(degree);
    let start = Instant::now();
    for _ in 0..OPS {
        let state = &states[rng.next() as usize % nodes];
        let (logical, hw) = (state.logical(), state.hardware());
        views.clear();
        views.extend(state.slots.iter().map(|entry| NeighborView {
            estimate: entry.slot.reckoned_estimate(hw),
            kappa: entry.info.kappa,
            epsilon: entry.info.epsilon,
            tau: entry.info.params.tau,
            delta: entry.info.delta,
            level: entry.slot.insert.level_at(logical),
        }));
        let view = NodeView {
            logical,
            max_estimate: state.max_estimate(),
            current_mode: state.mode(),
            iota: params.iota(),
            mu: params.mu(),
            rho,
            neighbors: &views,
        };
        black_box(policy.decide_and_certify(&view));
    }
    [advance, merge, per_op(start)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_report_positive_costs() {
        assert!(queue_pair_ns(100) > 0.0);
        let spec = gcs_scenarios::registry::find("ring-steady").unwrap();
        let sim = spec.build(0).unwrap();
        let edge = spec.topology.realize(0).edges()[0];
        let info = sim.edge_info(edge).unwrap();
        for ns in protocol_ns(64, 2, sim.params(), info) {
            assert!(ns > 0.0);
        }
    }
}
