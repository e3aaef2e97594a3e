//! The Condition 4.3 flood: what a node broadcasts, and how a receiver
//! merges an arrival into its own state.
//!
//! The merge is written once here and called from one place,
//! [`handlers::deliver`](crate::handlers::deliver), so every host — the
//! sequential engine, the sharded engine, [`NodeCore`](crate::NodeCore) —
//! executes the *same float expressions* in the same order.

use gcs_net::transport;
use gcs_net::{EdgeParams, NodeId};

use crate::edge_state::EstimateEntry;
use crate::node::NodeState;

/// The body of one periodic flood message: the sender's clock sample plus
/// the three network-wide bounds of Condition 4.3 / §7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FloodMsg {
    /// The sender's logical clock `L_v` at the send instant.
    pub logical: f64,
    /// The sender's max estimate `M_v`.
    pub max_est: f64,
    /// The sender's lower bound `W_v` on the network-wide minimum.
    pub min_lb: f64,
    /// The sender's upper bound `P_v` on the network-wide maximum.
    pub max_ub: f64,
}

/// What [`merge_flood`] changed on the receiving node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MergeOutcome {
    /// Whether any of the merged bounds actually moved (an upward `M`
    /// jump is the event that can flip a slow node fast, see
    /// [`m_jump_triggers_fast`]).
    pub m_moved: bool,
    /// The clock sample stored in the sender's neighbour slot (`None`
    /// when the sender is no longer a neighbour), so a host that tracks
    /// its samples needs no second lookup.
    pub estimate_written: Option<EstimateEntry>,
}

/// Samples the sender's state into a flood message.
///
/// The caller must have advanced `node` to the send instant; the message
/// is a pure read of the four tracked quantities.
#[must_use]
pub fn flood_from(node: &NodeState) -> FloodMsg {
    FloodMsg {
        logical: node.logical(),
        max_est: node.max_estimate(),
        min_lb: node.min_lower_bound(),
        max_ub: node.max_upper_bound(),
    }
}

/// Merges one delivered flood message into the receiver's state:
/// Condition 4.3 with the min-transit credit, the `[W, P]` bracket merge,
/// and the per-neighbour clock-sample write that feeds the message-mode
/// estimate layer.
///
/// The caller owns time and must have advanced `node` to the delivery
/// instant; `edge` is the connecting edge's parameters and `rho`/`beta`
/// come from the run's [`Params`](crate::Params). The §3.1 delivery rule
/// is also the caller's job — this function assumes the message is
/// deliverable (though a concurrently removed neighbour slot degrades
/// gracefully to `estimate_written: None`).
// Inlined into its callers: returned through memory, the sample came back
// as two 8-byte stores read by one 16-byte load, a failed store forward
// that cost `NodeCore::on_message` about 10 % on `node-loopback`.
#[inline]
pub fn merge_flood(
    node: &mut NodeState,
    src: NodeId,
    msg: FloodMsg,
    edge: EdgeParams,
    rho: f64,
    beta: f64,
) -> MergeOutcome {
    let entry = node.slots.index_of(src);
    merge_flood_at(node, entry, msg, edge, rho, beta)
}

/// [`merge_flood`] with the sender's table entry already found
/// ([`NeighborTable::index_of`](crate::node::NeighborTable::index_of)),
/// for [`handlers::deliver`](crate::handlers::deliver), which searched
/// the table for the §3.1 rule.
#[inline]
pub(crate) fn merge_flood_at(
    node: &mut NodeState,
    entry: Option<usize>,
    msg: FloodMsg,
    edge: EdgeParams,
    rho: f64,
    beta: f64,
) -> MergeOutcome {
    let credit = transport::min_transit_credit(edge, rho);
    let m_moved = node.merge_flood_bounds(
        msg.max_est + credit,
        msg.min_lb,
        msg.max_ub + beta * edge.delay_bound(),
    );
    let sample = EstimateEntry {
        value: msg.logical + credit,
        hw_at_recv: node.hardware(),
    };
    let estimate_written = entry.map(|i| {
        node.slots.at_mut(i).slot.estimate = Some(sample);
        sample
    });
    MergeOutcome {
        m_moved,
        estimate_written,
    }
}

/// Whether an upward `M` jump puts the node in fast-trigger territory.
///
/// An upward jump flips a slow-decided node only once the lifted gap
/// reaches `ι` (below that it lands in the hysteresis band, which keeps
/// the slow decision). The comparison is the *same float expression* as
/// the policy's fast branch (`L ≤ M − ι`) — an algebraically equivalent
/// rearrangement could disagree with it by an ulp right at the boundary.
#[must_use]
pub fn m_jump_triggers_fast(node: &NodeState, iota: f64) -> bool {
    node.logical() <= node.max_estimate() - iota
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_state::EdgeSlot;
    use crate::node::EdgeInfo;
    use gcs_net::EdgeParams;
    use gcs_sim::SimTime;

    fn info(edge: EdgeParams) -> EdgeInfo {
        EdgeInfo {
            params: edge,
            epsilon: 0.002,
            kappa: 0.0135,
            delta: 0.001,
        }
    }

    fn node_with_neighbor(id: u32, peer: u32, edge: EdgeParams) -> NodeState {
        let mut node = NodeState::new(NodeId(id), 1.0);
        node.slots
            .insert(NodeId(peer), info(edge), EdgeSlot::initial());
        node
    }

    #[test]
    fn merge_applies_min_transit_credit_to_bounds_and_sample() {
        let edge = EdgeParams::new(0.002, 0.010, 0.004, 0.004);
        let rho = 0.01;
        let beta = (1.0 + rho) * (1.0 + 0.1);
        let mut node = node_with_neighbor(0, 1, edge);
        let msg = FloodMsg {
            logical: 7.0,
            max_est: 7.5,
            min_lb: 1.0,
            max_ub: 9.0,
        };
        let out = merge_flood(&mut node, NodeId(1), msg, edge, rho, beta);
        assert!(out.m_moved);
        let credit = transport::min_transit_credit(edge, rho);
        assert_eq!(node.max_estimate(), 7.5 + credit);
        let slot = node.slots.get(NodeId(1)).unwrap();
        assert_eq!(slot.estimate.unwrap().value, 7.0 + credit);
        assert_eq!(out.estimate_written, slot.estimate);
        // P merges by tightening and clamps at M from below; on a fresh
        // node the clamp wins.
        assert_eq!(node.max_upper_bound(), node.max_estimate());
    }

    #[test]
    fn merge_pads_the_upper_bound_with_beta_delay() {
        let edge = EdgeParams::new(0.002, 0.010, 0.004, 0.004);
        let rho = 0.01;
        let beta = (1.0 + rho) * (1.0 + 0.1);
        let p = crate::Params::builder().rho(rho).mu(0.1).build().unwrap();
        let mut node = node_with_neighbor(0, 1, edge);
        // Let P outrun M by drifting (P advances at the aggressive rate),
        // then tighten it with a message whose padded bound lands strictly
        // between M and the drifted P.
        node.advance_to(SimTime::from_secs(10.0), &p);
        assert!(node.max_upper_bound() > node.max_estimate());
        let target = 10.1;
        let msg = FloodMsg {
            logical: 0.0,
            max_est: 0.0, // dominated: M must not move
            min_lb: 0.0,
            max_ub: target - beta * edge.delay_bound(),
        };
        let out = merge_flood(&mut node, NodeId(1), msg, edge, rho, beta);
        assert!(!out.m_moved);
        assert_eq!(node.max_upper_bound(), target);
    }

    #[test]
    fn merge_from_unknown_sender_still_merges_bounds_but_writes_no_sample() {
        let edge = EdgeParams::new(0.002, 0.010, 0.004, 0.004);
        let mut node = NodeState::new(NodeId(0), 1.0);
        let msg = FloodMsg {
            logical: 3.0,
            max_est: 4.0,
            min_lb: 0.5,
            max_ub: 6.0,
        };
        let out = merge_flood(&mut node, NodeId(9), msg, edge, 0.01, 1.1);
        assert!(out.m_moved);
        assert_eq!(out.estimate_written, None);
        assert!(node.slots.is_empty());
    }

    #[test]
    fn dominated_message_moves_nothing() {
        let edge = EdgeParams::new(0.002, 0.010, 0.004, 0.004);
        let mut node = node_with_neighbor(0, 1, edge);
        let big = FloodMsg {
            logical: 7.0,
            max_est: 7.5,
            min_lb: 1.0,
            max_ub: 9.0,
        };
        merge_flood(&mut node, NodeId(1), big, edge, 0.01, 1.1);
        let dominated = FloodMsg {
            logical: 2.0,
            max_est: 1.0,
            min_lb: 0.5,
            max_ub: 1.5,
        };
        let out = merge_flood(&mut node, NodeId(1), dominated, edge, 0.01, 1.1);
        assert!(!out.m_moved);
        // The clock sample is still refreshed: newer is better even when
        // the advertised bounds are stale.
        assert!(out.estimate_written.is_some());
    }

    #[test]
    fn flood_from_samples_the_four_tracked_quantities() {
        let mut node = NodeState::new(NodeId(3), 1.0);
        let p = crate::Params::builder().rho(0.01).mu(0.1).build().unwrap();
        node.advance_to(SimTime::from_secs(2.0), &p);
        let msg = flood_from(&node);
        assert_eq!(msg.logical, node.logical());
        assert_eq!(msg.max_est, node.max_estimate());
        assert_eq!(msg.min_lb, node.min_lower_bound());
        assert_eq!(msg.max_ub, node.max_upper_bound());
    }

    #[test]
    fn m_jump_matches_the_fast_trigger_boundary() {
        let mut node = NodeState::new(NodeId(0), 1.0);
        let edge = EdgeParams::new(0.002, 0.010, 0.004, 0.004);
        let iota = 0.001;
        // Lift M exactly iota above L: boundary inclusive.
        let msg = FloodMsg {
            logical: 0.0,
            max_est: iota - transport::min_transit_credit(edge, 0.01),
            min_lb: 0.0,
            max_ub: iota,
        };
        merge_flood(&mut node, NodeId(1), msg, edge, 0.01, 1.1);
        assert!(m_jump_triggers_fast(&node, iota));
        assert!(!m_jump_triggers_fast(&node, iota + 1e-9));
    }
}
