//! [`NodeCore`]: one complete virtual node as a sans-IO state machine,
//! plus the derivation of the run constants every harness must agree on.
//!
//! A `NodeCore` is what [`Daemon`](crate::daemon::Daemon) multiplexes
//! over a transport: the caller owns time (it passes explicit [`SimTime`]
//! instants read from whatever clock it trusts) and transport (it carries
//! the returned [`Send`]s and feeds received messages back in). Every
//! state transition is a call into [`handlers`] —
//! the functions the simulation engines call for their nodes — and so is
//! its mode decision, whose O(1) quiet test lives there beside
//! [`handlers::decide`]. A `NodeCore` is a *host* of the algorithm, not a
//! second implementation: it owns one node's [`NodeState`], run
//! constants, policy and decision bounds, and turns the handlers' effects
//! into [`Send`]s and its flood deadline.
//!
//! Scope: `NodeCore` runs the *message-mode* estimate layer (clock
//! samples carried by the floods themselves; it has no scripted truth for
//! the oracle layer to perturb) over neighbours installed fully inserted
//! at startup ([`cluster_config`](crate::daemon::cluster_config)'s static
//! complete graph). The staged-insertion handshake lives in [`handlers`],
//! but this host does not drive it yet: there is no wire frame for an
//! offer, no neighbour-up input and no timer queue, so it never starts one.

use std::collections::HashMap;

use gcs_net::{EdgeKey, EdgeParams, EdgeParamsMap, NodeId};
use gcs_sim::SimTime;

use crate::estimate::EstimateMode;
use crate::flood::{FloodMsg, MergeOutcome};
use crate::handlers::{self, Delivered, Host, Message, QuietBounds, Run, Timer};
use crate::node::{EdgeInfo, NodeState};
use crate::params::Params;
use crate::triggers::{AoptPolicy, Mode};

/// One outbound message: the flood body to put on the wire for `dst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Send {
    /// The sending node (the wire frame carries it for routing).
    pub src: NodeId,
    /// The neighbour to deliver to.
    pub dst: NodeId,
    /// The send instant (travels with the message for the §3.1 check).
    pub sent_at: SimTime,
    /// The flood body.
    pub msg: FloodMsg,
}

/// The constants a run derives from its parameters and edge universe:
/// what [`derive_run_config`] returns.
///
/// Both the simulation builder and the daemon call the same derivation,
/// so a daemon cluster configured like a scenario uses bit-identical
/// `ε`/`κ`/`ι`/`G̃` values — the conformance oracle's envelope is
/// comparable across harnesses.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parameters with `ι` and the static `G̃` filled in.
    pub params: Params,
    /// The flood refresh period (hardware seconds).
    pub refresh: f64,
    /// The mode-evaluation tick interval (seconds).
    pub tick: f64,
    /// Cached per-edge derived quantities for the whole edge universe.
    pub edge_info: HashMap<EdgeKey, EdgeInfo>,
}

/// Derives the run constants — refresh period, per-edge `ε`/`κ`/`δ`,
/// `ι`, the static `G̃` default, and the tick interval — from validated
/// parameters, an estimate layer, per-edge model parameters, and the
/// scenario's edge universe. This is the exact computation
/// `SimBuilder::build` performs (it delegates here).
#[must_use]
pub fn derive_run_config(
    base: &Params,
    mode: EstimateMode,
    edge_params: &EdgeParamsMap,
    universe: &[EdgeKey],
    n: usize,
) -> RunConfig {
    let refresh = base
        .refresh_period()
        .unwrap_or_else(|| edge_params.max_delay_bound());

    let mut edge_info = HashMap::with_capacity(universe.len());
    let mut kappa_min = f64::INFINITY;
    let mut per_hop_max = 0.0f64;
    for &e in universe {
        let ep = edge_params.get(e);
        let epsilon = mode.advertised_epsilon(base, ep, refresh);
        let kappa = base.kappa(ep, epsilon);
        let delta = base.delta(ep, epsilon);
        kappa_min = kappa_min.min(kappa);
        let drift_window = refresh / base.alpha() + ep.delay_bound();
        let per_hop = epsilon
            + base.mu() * ep.tau
            + (2.0 * base.rho() + base.mu() * base.rho()) * drift_window;
        per_hop_max = per_hop_max.max(per_hop);
        edge_info.insert(
            e,
            EdgeInfo {
                params: ep,
                epsilon,
                kappa,
                delta,
            },
        );
    }
    if !kappa_min.is_finite() {
        // A universe without any edges: still runnable (clocks free-run).
        kappa_min = 1.0;
        per_hop_max = 1.0;
    }

    let iota = kappa_min / 8.0;
    // Conservative static estimate: four times the worst-case accumulated
    // per-hop uncertainty across the longest possible path.
    let g_tilde_default = 4.0 * n as f64 * per_hop_max + iota;
    let params = base
        .clone()
        .with_iota_default(iota)
        .with_g_tilde_default(g_tilde_default);

    let tick = params
        .tick()
        .unwrap_or_else(|| kappa_min / (8.0 * params.beta()));

    RunConfig {
        params,
        refresh,
        tick,
        edge_info,
    }
}

/// A complete virtual node: clock/bound state, neighbour table, flood
/// schedule, and mode policy — everything but time and transport.
#[derive(Debug)]
pub struct NodeCore {
    state: NodeState,
    params: Params,
    policy: AoptPolicy,
    refresh: f64,
    next_flood: SimTime,
    bounds: QuietBounds,
}

/// The [`Host`] a `NodeCore` lends its handlers: a send becomes a
/// [`Send`] for the caller to carry, the flood timer becomes the deadline
/// [`NodeCore::poll_sends`] polls against.
struct Effects<'a> {
    src: NodeId,
    t: SimTime,
    out: &'a mut Vec<Send>,
    next_flood: &'a mut SimTime,
}

impl Host for Effects<'_> {
    fn send(&mut self, dst: NodeId, _edge: EdgeParams, msg: Message) {
        // Offers have no wire frame yet, and this host never starts the
        // handshake that would produce one.
        if let Message::Flood(msg) = msg {
            self.out.push(Send {
                src: self.src,
                dst,
                sent_at: self.t,
                msg,
            });
        }
    }

    fn wake(&mut self, at: SimTime, timer: Timer) {
        if timer == Timer::Flood {
            *self.next_flood = at;
        }
    }
}

/// The run constants of a `NodeCore`: always the message-mode layer.
fn message_run(params: &Params, refresh: f64) -> Run<'_> {
    Run {
        params,
        refresh,
        mode: EstimateMode::Messages,
    }
}

impl NodeCore {
    /// Creates a virtual node with the default [`AoptPolicy`].
    ///
    /// `params` must come out of [`derive_run_config`] (so `ι` and `G̃`
    /// are filled); `refresh` is the flood period in hardware seconds;
    /// `first_flood` schedules the initial broadcast (stagger these
    /// across a cluster so the network does not send in lockstep).
    #[must_use]
    pub fn new(
        id: NodeId,
        params: Params,
        refresh: f64,
        hw_rate: f64,
        first_flood: SimTime,
    ) -> Self {
        let policy = AoptPolicy::new(params.max_levels());
        NodeCore {
            state: NodeState::new(id, hw_rate),
            params,
            policy,
            refresh,
            next_flood: first_flood,
            bounds: QuietBounds::UNKNOWN,
        }
    }

    /// Read access to the tracked clock state.
    #[must_use]
    pub fn state(&self) -> &NodeState {
        &self.state
    }

    /// The run parameters this node decides under.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The instant of the next scheduled flood.
    #[must_use]
    pub fn next_flood_at(&self) -> SimTime {
        self.next_flood
    }

    /// Installs `peer` as a fully inserted neighbour (the `N^s(0) = N(0)`
    /// startup case of §4.2: every configured edge is present and past
    /// its insertion schedule from the start).
    pub fn add_neighbor(&mut self, peer: NodeId, info: EdgeInfo) {
        handlers::neighbor_initial(&mut self.state, peer, info, 0.0);
        self.bounds = QuietBounds::UNKNOWN;
    }

    /// Drops `peer` from the neighbour table; returns whether it was
    /// present. Subsequent messages from it fail the delivery rule.
    pub fn remove_neighbor(&mut self, peer: NodeId) -> bool {
        handlers::neighbor_down(&mut self.state, peer)
    }

    /// Applies a hardware-clock rate change at `t` (the drift adversary,
    /// or a measured-frequency update from the host clock).
    pub fn set_hw_rate(&mut self, t: SimTime, rate: f64) {
        let run = message_run(&self.params, self.refresh);
        handlers::rate_change(&mut self.state, t, rate, &run);
    }

    /// Feeds one received flood message in. Returns `None` if the §3.1
    /// delivery rule drops it (unknown sender, or the slot was discovered
    /// after the send), otherwise what the merge changed.
    pub fn on_message(
        &mut self,
        t: SimTime,
        src: NodeId,
        sent_at: SimTime,
        msg: FloodMsg,
    ) -> Option<MergeOutcome> {
        // A flood delivery has no effects to carry.
        let mut host = Effects {
            src: self.state.id(),
            t,
            out: &mut Vec::new(),
            next_flood: &mut self.next_flood,
        };
        let run = message_run(&self.params, self.refresh);
        let msg = Message::Flood(msg);
        match handlers::deliver(&mut self.state, t, src, sent_at, msg, &run, &mut host) {
            Delivered::Flood(outcome) => {
                if let Some(sample) = outcome.estimate_written {
                    self.bounds.cover(sample);
                }
                Some(outcome)
            }
            Delivered::Rejected | Delivered::Offer { .. } => None,
        }
    }

    /// Emits any flood due at `t` into `out` (one [`Send`] per
    /// neighbour) and schedules the next one `refresh` hardware seconds
    /// later. Call this whenever the caller's clock passes
    /// [`next_flood_at`](NodeCore::next_flood_at).
    pub fn poll_sends(&mut self, t: SimTime, out: &mut Vec<Send>) {
        if t < self.next_flood {
            return;
        }
        let mut host = Effects {
            src: self.state.id(),
            t,
            out,
            next_flood: &mut self.next_flood,
        };
        let run = message_run(&self.params, self.refresh);
        handlers::on_timer(&mut self.state, t, Timer::Flood, &run, &mut host);
    }

    /// Evaluates the mode triggers at `t` and applies the decision,
    /// returning the (possibly unchanged) mode. This is the tick-sweep
    /// body of the engines, without the incremental skipping — a polled
    /// node re-decides every call, which is always bit-identical to the
    /// certified skip (that is the certificates' soundness contract).
    ///
    /// The node's `QuietBounds` (in [`handlers`]) decide: in O(1) while
    /// the bounds on its clock samples leave every neighbour short of
    /// both level-1 clauses — 99.98 % of calls on `node-loopback`, about
    /// 15 ns each — and through [`handlers::decide`] otherwise. No
    /// certificate is cached: the O(1) decision costs less than checking
    /// one would.
    pub fn evaluate(&mut self, t: SimTime) -> Mode {
        let run = message_run(&self.params, self.refresh);
        self.state.advance_to(t, run.params);
        let mode = self.bounds.decide(&self.state, &self.policy, &run);
        self.state.set_mode(mode);
        mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_state::EdgeSlot;
    use gcs_net::EdgeParams;

    fn two_node_universe() -> (Vec<EdgeKey>, EdgeParamsMap) {
        let universe = vec![EdgeKey::new(NodeId(0), NodeId(1))];
        let map = EdgeParamsMap::uniform(EdgeParams::default());
        (universe, map)
    }

    fn config() -> RunConfig {
        let base = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        let (universe, map) = two_node_universe();
        derive_run_config(&base, EstimateMode::Messages, &map, &universe, 2)
    }

    fn core(id: u32, cfg: &RunConfig, hw_rate: f64) -> NodeCore {
        let mut c = NodeCore::new(
            NodeId(id),
            cfg.params.clone(),
            cfg.refresh,
            hw_rate,
            SimTime::ZERO,
        );
        let info = cfg.edge_info[&EdgeKey::new(NodeId(0), NodeId(1))];
        c.add_neighbor(NodeId(1 - id), info);
        c
    }

    #[test]
    fn derive_fills_iota_and_g_tilde() {
        let cfg = config();
        assert!(cfg.params.iota() > 0.0);
        assert!(cfg.params.g_tilde().unwrap() > 0.0);
        assert!(cfg.refresh > 0.0 && cfg.tick > 0.0);
        assert_eq!(cfg.edge_info.len(), 1);
    }

    #[test]
    fn floods_carry_the_senders_bounds_and_respect_the_schedule() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0);
        let mut out = Vec::new();
        a.poll_sends(SimTime::from_secs(0.5), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, NodeId(1));
        assert_eq!(out[0].sent_at, SimTime::from_secs(0.5));
        // Not due again until a refresh period has elapsed.
        let before = out.len();
        a.poll_sends(SimTime::from_secs(0.5001), &mut out);
        assert_eq!(out.len(), before);
        a.poll_sends(a.next_flood_at(), &mut out);
        assert_eq!(out.len(), before + 1);
    }

    #[test]
    fn message_exchange_moves_the_receivers_estimate() {
        let cfg = config();
        let mut a = core(0, &cfg, 1.0 + cfg.params.rho());
        let mut b = core(1, &cfg, 1.0 - cfg.params.rho());
        let t1 = SimTime::from_secs(1.0);
        let mut out = Vec::new();
        a.poll_sends(t1, &mut out);
        let t2 = SimTime::from_secs(1.005);
        let outcome = b
            .on_message(t2, NodeId(0), out[0].sent_at, out[0].msg)
            .expect("deliverable");
        assert!(outcome.m_moved, "the faster sender lifts the receiver's M");
        assert!(outcome.estimate_written.is_some());
        assert!(b.state().slots.get(NodeId(0)).unwrap().estimate.is_some());
        let _ = b.evaluate(t2);
    }

    /// `NodeCore` is glue: the same floods through it and through the
    /// shared handlers on a bare `NodeState` leave bit-equal state.
    #[test]
    fn hosting_adds_nothing_to_the_shared_handlers() {
        let cfg = config();
        let rate = 1.0 - cfg.params.rho();
        let mut hosted = core(1, &cfg, rate);
        let mut bare = NodeState::new(NodeId(1), rate);
        let info = cfg.edge_info[&EdgeKey::new(NodeId(0), NodeId(1))];
        handlers::neighbor_initial(&mut bare, NodeId(0), info, 0.0);
        let run = message_run(&cfg.params, cfg.refresh);
        let mut t = SimTime::ZERO;
        let mut host = Effects {
            src: NodeId(1),
            t,
            out: &mut Vec::new(),
            next_flood: &mut SimTime::from_secs(0.0),
        };
        for (k, logical) in [1.2, 2.6, 2.9].into_iter().enumerate() {
            let sent = SimTime::from_secs(k as f64 + 1.0);
            t = SimTime::from_secs(k as f64 + 1.004);
            let msg = FloodMsg {
                logical,
                max_est: logical + 0.1,
                min_lb: 0.5,
                max_ub: logical + 1.0,
            };
            let via_core = hosted.on_message(t, NodeId(0), sent, msg);
            let flood = Message::Flood(msg);
            let direct = handlers::deliver(&mut bare, t, NodeId(0), sent, flood, &run, &mut host);
            assert_eq!(direct, Delivered::Flood(via_core.expect("deliverable")));
        }
        let policy = AoptPolicy::new(cfg.params.max_levels());
        // Bounds that cover nothing decide through the table.
        let mut fresh = QuietBounds::UNKNOWN;
        bare.set_mode(fresh.decide(&bare, &policy, &run));
        assert_eq!(hosted.evaluate(t), bare.mode());
        let bits = |n: &NodeState| {
            let est = n.slots.get(NodeId(0)).unwrap().estimate.unwrap();
            [
                n.logical(),
                n.hardware(),
                n.max_estimate(),
                n.min_lower_bound(),
                n.max_upper_bound(),
                est.value,
                est.hw_at_recv,
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(hosted.state()), bits(&bare));
    }

    #[test]
    fn delivery_rule_drops_unknown_and_prediscovery_senders() {
        let cfg = config();
        let mut b = core(1, &cfg, 1.0);
        let msg = FloodMsg {
            logical: 1.0,
            max_est: 1.0,
            min_lb: 0.0,
            max_ub: 2.0,
        };
        // Unknown sender.
        assert!(b
            .on_message(SimTime::from_secs(1.0), NodeId(7), SimTime::ZERO, msg)
            .is_none());
        // Known sender, message sent before (re)discovery: drop. Reinstall
        // the neighbour with a later discovery instant to simulate churn.
        assert!(b.remove_neighbor(NodeId(0)));
        let info = cfg.edge_info[&EdgeKey::new(NodeId(0), NodeId(1))];
        b.state.slots.insert(
            NodeId(0),
            info,
            EdgeSlot::discovered(SimTime::from_secs(2.0), 0.0, 1),
        );
        assert!(b
            .on_message(
                SimTime::from_secs(2.5),
                NodeId(0),
                SimTime::from_secs(1.5),
                msg
            )
            .is_none());
        // Sent exactly at the discovery instant: the closed interval
        // includes the endpoint, so this delivers.
        assert!(b
            .on_message(
                SimTime::from_secs(2.5),
                NodeId(0),
                SimTime::from_secs(2.0),
                msg
            )
            .is_some());
    }
}
