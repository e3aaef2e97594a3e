//! The per-node transitions of `A_OPT`, written once.
//!
//! The paper specifies the algorithm per node: Listing 1 says what one
//! node does when a neighbour appears or vanishes and when an
//! `insertedge` offer arrives, Listing 2 turns an offer into insertion
//! times, Listing 3 picks the mode, and Condition 4.3 says how a flood is
//! merged. Each of those is one function here over a `&mut NodeState`,
//! the run's shared constants ([`Run`]) and a [`Host`] that carries the
//! effects — a message to a neighbour, a request to be woken later.
//! What a transition changed comes back as its return value.
//!
//! | Paper | Handler |
//! |---|---|
//! | §3.1 delivery rule, Condition 4.3 merge, Listing 1 lines 10–11 | [`deliver`] |
//! | periodic flood of `(L, M, W, P)` (§7) | [`on_timer`] with [`Timer::Flood`] |
//! | Listing 1 lines 1–9 (discovery, `∆` wait, offer) | [`neighbor_up`], [`Timer::LeaderCheck`] |
//! | Listing 1 lines 12–14, Listing 2 (`T + τ` wait, `T₀`) | [`Timer::FollowerApply`] |
//! | Listing 1 lines 15–18 (edge loss) | [`neighbor_down`] |
//! | Listing 3 over the views of Defs 4.5–4.7 | [`decide`]; a polling host's quiet node: `QuietBounds` |
//!
//! Two hosts run this module and nothing else decides for a node: the
//! simulation engines in `gcs-core` (effects become delay-sampled queue
//! events) and [`NodeCore`](crate::NodeCore) (effects become wire sends
//! and a flood deadline). Every float expression below is therefore the
//! one both execute, which is what makes engine/daemon bit-identity a
//! property of the structure rather than of a mirror test.
//!
//! Every handler taking an instant `t` first advances the node to `t`;
//! [`decide`] and [`estimate`] read a node the caller has advanced.

use gcs_net::{EdgeParams, NodeId};
use gcs_sim::{SimDuration, SimTime};

use crate::edge_state::{align_t0, EdgeSlot, EstimateEntry, InsertState, Level};
use crate::estimate::EstimateMode;
use crate::flood::{flood_from, merge_flood_at, FloodMsg, MergeOutcome};
use crate::node::{EdgeInfo, NeighborEntry, NodeState};
use crate::params::{InsertionStrategy, Params};
use crate::triggers::{
    ahead_threshold, behind_threshold, AoptPolicy, Mode, ModePolicy, NeighborView, NodeView,
    StabilityCert,
};

/// The constants every node of one run shares (what
/// [`derive_run_config`](crate::runtime::derive_run_config) produced).
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Parameters with `ι` and the static `G̃` filled in.
    pub params: &'a Params,
    /// Flood refresh period (hardware seconds).
    pub refresh: f64,
    /// Which estimate layer feeds the triggers.
    pub mode: EstimateMode,
}

/// What nodes say to each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Message {
    /// The periodic flood: clock sample plus the three network-wide bounds.
    Flood(FloodMsg),
    /// Listing 1 line 9: the leader's insertion offer.
    InsertEdge {
        /// The logical insertion anchor `L_ins`.
        l_ins: f64,
        /// The leader's global-skew estimate `G̃`.
        g_tilde: f64,
    },
}

/// What a node asks to be woken for. The two handshake timers are
/// expressed as logical-clock targets: reaching one is a *lower* bound on
/// elapsed real time, which is what Listing 1 needs, and a timer that
/// fires early (rates changed during the wait) re-arms itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timer {
    /// The next periodic flood is due.
    Flood,
    /// The leader's `∆` wait on the edge to `peer` (Listing 1 line 6).
    LeaderCheck {
        /// The follower.
        peer: NodeId,
        /// The slot incarnation the wait belongs to.
        generation: u64,
        /// The logical clock value that ends the wait.
        target_logical: f64,
    },
    /// The follower's `T + τ` wait after an offer (Listing 1 line 12).
    FollowerApply {
        /// The leader.
        peer: NodeId,
        /// The slot incarnation the wait belongs to.
        generation: u64,
        /// The logical clock value that ends the wait.
        target_logical: f64,
    },
}

/// Where a transition's effects go: the one seam between the algorithm
/// and whatever carries messages and keeps time for it.
pub trait Host {
    /// Carries `msg` to neighbour `dst` over an edge with parameters
    /// `edge`, sent at the handler's instant.
    fn send(&mut self, dst: NodeId, edge: EdgeParams, msg: Message);
    /// Asks for [`on_timer`] to be called with `timer` at `at`.
    fn wake(&mut self, at: SimTime, timer: Timer);
}

/// What [`deliver`] did with a message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delivered {
    /// The §3.1 rule dropped it: the sender is no neighbour, or the slot
    /// was discovered after the send. Nothing was touched.
    Rejected,
    /// A flood was merged; what the merge changed.
    Flood(MergeOutcome),
    /// An insertion offer arrived; it is accepted only by a fresh
    /// (`Pending`) incarnation of the slot.
    Offer {
        /// Whether the follower's wait was started.
        accepted: bool,
    },
}

/// What [`on_timer`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fired {
    /// The flood went out and the next one is requested.
    Flooded,
    /// A handshake timer of an earlier incarnation, or for a slot that
    /// has moved on: ignored.
    Stale,
    /// The logical target is not reached yet; the timer was requested
    /// again for when it will be.
    Rearmed,
    /// The leader installed its insertion times and sent the offer.
    Offered,
    /// The follower installed its insertion times.
    Applied,
}

/// A neighbour the host has just detected, and what only the host knows
/// about the new slot.
#[derive(Debug, Clone, Copy)]
pub struct Discovered {
    /// The neighbour.
    pub peer: NodeId,
    /// Derived constants of the connecting edge.
    pub info: EdgeInfo,
    /// Distinguishes this incarnation of the slot from earlier ones.
    pub generation: u64,
    /// The slot's fixed oracle-layer bias, in units of `ε`.
    pub oracle_bias: f64,
}

/// The deterministic leader of a potential edge: the lower id (§4.3).
fn leads(u: NodeId, v: NodeId) -> bool {
    u < v
}

/// The instant `node`'s logical clock reaches `target` at its current
/// rate (now, if it already has).
fn when_logical_reaches(node: &NodeState, t: SimTime, target: f64, params: &Params) -> SimTime {
    let rate = node.mode().multiplier(params.mu()) * node.hw_rate();
    let dt = ((target - node.logical()) / rate).max(0.0);
    t + SimDuration::from_secs(dt)
}

/// Installs `peer` as a neighbour present since time 0: a member of every
/// level from the start (`N^s(0) = N(0)`, §4.2).
pub fn neighbor_initial(node: &mut NodeState, peer: NodeId, info: EdgeInfo, oracle_bias: f64) {
    let mut slot = EdgeSlot::initial();
    slot.oracle_bias = oracle_bias;
    node.slots.insert(peer, info, slot);
}

/// Listing 1 lines 1–5: a neighbour appeared at `t`. Installs a fresh
/// slot; under staged insertion the lower id then starts its `∆` wait.
/// Returns whether insertion times were installed on the spot — only the
/// decaying-weight strategy of §5.5 does that, staged slots report theirs
/// through [`Fired`].
pub fn neighbor_up<H: Host>(
    node: &mut NodeState,
    t: SimTime,
    found: Discovered,
    run: &Run<'_>,
    host: &mut H,
) -> bool {
    let params = run.params;
    node.advance_to(t, params);
    let logical = node.logical();
    let mut slot = EdgeSlot::discovered(t, logical, found.generation);
    slot.oracle_bias = found.oracle_bias;
    let decaying = matches!(
        params.insertion_strategy(),
        InsertionStrategy::DecayingWeight { .. }
    );
    if decaying {
        // No handshake: start the local weight decay from 2x the best
        // available global-skew bound.
        slot.insert = InsertState::Decaying {
            l0: logical,
            kappa0: (2.0 * skew_bound(node, params)).max(found.info.kappa),
        };
    }
    node.slots.insert(found.peer, found.info, slot);
    if !decaying && leads(node.id(), found.peer) {
        let delta = params.handshake_delta(found.info.params);
        let target_logical = logical + params.beta() * delta;
        host.wake(
            when_logical_reaches(node, t, target_logical, params),
            Timer::LeaderCheck {
                peer: found.peer,
                generation: found.generation,
                target_logical,
            },
        );
    }
    decaying
}

/// Listing 1 lines 15–18: the neighbour vanished — drop it from every
/// `N^s` and forget its insertion times. Returns whether it was present.
/// Later messages from it fail the delivery rule.
pub fn neighbor_down(node: &mut NodeState, peer: NodeId) -> bool {
    node.slots.remove(peer)
}

/// The hardware clock changes rate at `t`.
pub fn rate_change(node: &mut NodeState, t: SimTime, rate: f64, run: &Run<'_>) {
    node.advance_to(t, run.params);
    node.set_hw_rate(rate);
}

/// The global-skew bound an insertion started now is sized for: the
/// node's own bracket plus `ι` (which absorbs the bracket's tick-level
/// optimism) under dynamic estimates, else the static `G̃`.
fn skew_bound(node: &NodeState, params: &Params) -> f64 {
    if params.dynamic_estimates() {
        node.g_estimate() + params.iota()
    } else {
        params.g_tilde().expect("static G~ filled at build")
    }
}

/// A message sent by `src` at `sent_at` arrives at `t`.
///
/// The §3.1 delivery rule — `(node, src)` continuously present since the
/// send — is answered from the receiver's own slot table: the slot exists
/// and was discovered no later than the send. One table search serves
/// the rule, the edge constants and the slot the message then writes.
pub fn deliver<H: Host>(
    node: &mut NodeState,
    t: SimTime,
    src: NodeId,
    sent_at: SimTime,
    msg: Message,
    run: &Run<'_>,
    host: &mut H,
) -> Delivered {
    let i = match node.slots.index_of(src) {
        Some(i) if node.slots.at(i).slot.discovered_at <= sent_at => i,
        _ => return Delivered::Rejected,
    };
    let edge = node.slots.at(i).info.params;
    let params = run.params;
    node.advance_to(t, params);
    match msg {
        Message::Flood(flood) => Delivered::Flood(merge_flood_at(
            node,
            Some(i),
            flood,
            edge,
            params.rho(),
            params.beta(),
        )),
        Message::InsertEdge { l_ins, g_tilde } => {
            let l_now = node.logical();
            let slot = &mut node.slots.at_mut(i).slot;
            // Only a fresh, unscheduled incarnation accepts an offer.
            if !matches!(slot.insert, InsertState::Pending) {
                return Delivered::Offer { accepted: false };
            }
            slot.insert = InsertState::FollowerWait {
                l_ins,
                g_tilde,
                l_at_receive: l_now,
            };
            let generation = slot.generation;
            let target_logical = l_now + params.beta() * (edge.delay_bound() + edge.tau);
            host.wake(
                when_logical_reaches(node, t, target_logical, params),
                Timer::FollowerApply {
                    peer: src,
                    generation,
                    target_logical,
                },
            );
            Delivered::Offer { accepted: true }
        }
    }
}

/// A timer the node asked for through [`Host::wake`] fires at `t`.
pub fn on_timer<H: Host>(
    node: &mut NodeState,
    t: SimTime,
    timer: Timer,
    run: &Run<'_>,
    host: &mut H,
) -> Fired {
    let params = run.params;
    node.advance_to(t, params);
    match timer {
        Timer::Flood => {
            let msg = Message::Flood(flood_from(node));
            for entry in node.slots.iter() {
                host.send(entry.id, entry.info.params, msg);
            }
            // `refresh` is in *hardware* seconds: converting with the
            // current rate keeps the real period within
            // [P/(1+rho), P/(1-rho)].
            let dt = run.refresh / node.hw_rate();
            host.wake(t + SimDuration::from_secs(dt), Timer::Flood);
            Fired::Flooded
        }
        Timer::LeaderCheck {
            peer,
            generation,
            target_logical,
        } => {
            let Some(entry) = node.slots.entry(peer) else {
                return Fired::Stale; // Edge went down; a rediscovery starts anew.
            };
            if entry.slot.generation != generation
                || !matches!(entry.slot.insert, InsertState::Pending)
            {
                return Fired::Stale;
            }
            if node.logical() < target_logical - 1e-12 {
                host.wake(when_logical_reaches(node, t, target_logical, params), timer);
                return Fired::Rearmed;
            }
            // Continuity (Listing 1 line 6) holds by construction: the slot
            // has existed since `discovered_l` and L has advanced by
            // beta * Delta.
            let edge = entry.info.params;
            let g_tilde = skew_bound(node, params);
            let l_ins = node.logical() + g_tilde + params.beta() * edge.delay_bound();
            install_schedule(node, peer, edge, l_ins, g_tilde, params);
            host.send(peer, edge, Message::InsertEdge { l_ins, g_tilde });
            Fired::Offered
        }
        Timer::FollowerApply {
            peer,
            generation,
            target_logical,
        } => {
            let Some(entry) = node.slots.entry(peer) else {
                return Fired::Stale;
            };
            if entry.slot.generation != generation {
                return Fired::Stale;
            }
            let InsertState::FollowerWait {
                l_ins,
                g_tilde,
                l_at_receive,
            } = entry.slot.insert
            else {
                return Fired::Stale;
            };
            if node.logical() < target_logical - 1e-12 {
                host.wake(when_logical_reaches(node, t, target_logical, params), timer);
                return Fired::Rearmed;
            }
            // Listing 1 line 13: the edge must have been present throughout
            // the logical window reaching back to the receive instant.
            if entry.slot.discovered_l > l_at_receive {
                return Fired::Stale;
            }
            let edge = entry.info.params;
            install_schedule(node, peer, edge, l_ins, g_tilde, params);
            Fired::Applied
        }
    }
}

/// Listing 2: both endpoints compute `I` and the dyadically aligned `T₀`
/// from the same `(L_ins, G̃)`, so they install bit-equal insertion times
/// (Lemma 5.5).
fn install_schedule(
    node: &mut NodeState,
    peer: NodeId,
    edge: EdgeParams,
    l_ins: f64,
    g_tilde: f64,
    params: &Params,
) {
    let i = params.insertion_duration(edge, g_tilde);
    let t0 = align_t0(l_ins, i);
    if let Some(slot) = node.slots.get_mut(peer) {
        slot.insert = InsertState::Scheduled { t0, i };
    }
}

/// The estimate `L̃ᵥᵤ` the node holds for one neighbour entry.
///
/// `truth` is the host's window onto the neighbour's actual logical clock
/// at the node's instant: a simulator has one (the oracle layer perturbs
/// it, a scripted estimate fault clamps against it), a real node returns
/// `None` and lives on the message layer alone. It is consulted only
/// when the answer needs it.
#[must_use]
pub fn estimate(
    node: &NodeState,
    entry: &NeighborEntry,
    mode: EstimateMode,
    truth: impl FnOnce(NodeId) -> Option<f64>,
) -> Option<f64> {
    let eps = entry.info.epsilon;
    let scripted = node.scripted_bias();
    let truth = match (mode, scripted) {
        (EstimateMode::Messages, None) => None,
        _ => truth(entry.id),
    };
    let base = match mode {
        EstimateMode::Oracle(model) => {
            model.apply(node.logical(), truth?, entry.slot.oracle_bias * eps, eps)
        }
        EstimateMode::Messages => entry.slot.reckoned_estimate(node.hardware())?,
    };
    // A scripted estimate corruption pushes the read by bias·ε, then
    // clamps back into the advertised envelope — inequality (1) is
    // preserved by construction, whatever the underlying layer produced.
    Some(match (scripted, truth) {
        (Some(bias), Some(truth)) => (base + bias * eps).clamp(truth - eps, truth + eps),
        _ => base,
    })
}

/// The node's view of one neighbour entry, reading the per-edge constants
/// from the node's own table, and the logical-clock distance to the
/// entry's next *scheduled level unlock* (`INFINITY` if none is pending).
// Forced inline into its callers: outlined, it hands each view back
// through memory, which cost `churn-1k` 7 % and `ring-1k` 3 % even on the
// filled path alone.
#[inline(always)]
fn neighbor_view(
    node: &NodeState,
    run: &Run<'_>,
    entry: &NeighborEntry,
    truth: impl FnOnce(NodeId) -> Option<f64>,
) -> (NeighborView, f64) {
    let info = &entry.info;
    let logical = node.logical();
    let level = entry.slot.insert.level_at(logical);
    let mut unlock = f64::INFINITY;
    if let InsertState::Scheduled { t0, i } = entry.slot.insert {
        if let Level::Finite(s) = level {
            // T_{s+1} is the next threshold L_u can cross
            // (T_1 = t0 covers the not-yet-started case).
            unlock = InsertState::t_s(t0, i, s + 1) - logical;
        }
    }
    // Under the decaying-weight strategy the edge's effective
    // weight (and with it delta) shrinks with the local clock.
    let (kappa, delta) = match run.params.insertion_strategy() {
        InsertionStrategy::Staged => (info.kappa, info.delta),
        InsertionStrategy::DecayingWeight { halving } => {
            let k = entry
                .slot
                .insert
                .effective_kappa(logical, info.kappa, halving);
            (k, run.params.delta_for_kappa(k, info.params, info.epsilon))
        }
    };
    let view = NeighborView {
        estimate: estimate(node, entry, run.mode, truth),
        kappa,
        epsilon: info.epsilon,
        tau: info.params.tau,
        delta,
        level,
    };
    (view, unlock)
}

/// Clears `out` and fills it with the node's neighbour views, in
/// neighbour order. Returns the logical-clock distance to the nearest
/// *scheduled level unlock* among the neighbours (`INFINITY` if none is
/// pending) — the level part of a stability certificate.
pub fn fill_views(
    node: &NodeState,
    run: &Run<'_>,
    truth: impl Fn(NodeId) -> Option<f64>,
    out: &mut Vec<NeighborView>,
) -> f64 {
    out.clear();
    let mut unlock_margin = f64::INFINITY;
    for entry in node.slots.iter() {
        let (view, unlock) = neighbor_view(node, run, entry, &truth);
        unlock_margin = unlock_margin.min(unlock);
        out.push(view);
    }
    unlock_margin
}

/// The policy's view of the node over already filled neighbour views.
#[must_use]
pub fn node_view<'a>(
    node: &NodeState,
    params: &Params,
    neighbors: &'a [NeighborView],
) -> NodeView<'a> {
    NodeView {
        logical: node.logical(),
        max_estimate: node.max_estimate(),
        current_mode: node.mode(),
        iota: params.iota(),
        mu: params.mu(),
        rho: params.rho(),
        neighbors,
    }
}

/// One mode decision, with what a host needs to cache it.
#[derive(Debug, Clone, Copy)]
pub struct Decision {
    /// The mode Listing 3 (or the plugged-in policy) picks.
    pub mode: Mode,
    /// The policy's stability certificate, when one was asked for and the
    /// policy issues them.
    pub cert: Option<StabilityCert>,
    /// [`fill_views`]' distance to the next level unlock.
    pub unlock_margin: f64,
}

/// Decides the node's mode at its current instant. Pure — applying the
/// decision (`NodeState::set_mode`) is the host's move, so a sweep can
/// decide many nodes from one pre-update state. With `certify` the policy
/// also says how long the decision provably stands; a host that
/// re-decides every time passes `false` and skips that work.
///
/// An `A_OPT` policy ([`ModePolicy::as_aopt`]) first decides straight off
/// the neighbour table, building one neighbour's view at a time, and is
/// done unless some neighbour is a level away (the triggers' level-1
/// exit; see [`triggers`](crate::triggers)). Only then, and for every
/// other policy, are `views` filled and handed to the policy. Both paths
/// return the same decision bit for bit; debug builds re-derive every
/// streamed decision through `views` and assert it.
pub fn decide(
    node: &NodeState,
    policy: &dyn ModePolicy,
    certify: bool,
    run: &Run<'_>,
    truth: impl Fn(NodeId) -> Option<f64>,
    views: &mut Vec<NeighborView>,
) -> Decision {
    if let Some(aopt) = policy.as_aopt() {
        let mut unlock_margin = f64::INFINITY;
        let streamed = node.slots.iter().map(|entry| {
            let (view, unlock) = neighbor_view(node, run, entry, &truth);
            unlock_margin = unlock_margin.min(unlock);
            view
        });
        let own = node_view(node, run.params, &[]);
        if let Some((mode, cert)) = aopt.decide_streamed(&own, certify, streamed) {
            let decision = Decision {
                mode,
                cert,
                unlock_margin,
            };
            #[cfg(debug_assertions)]
            assert_as_filled(&decision, node, aopt, certify, run, &truth, views);
            return decision;
        }
    }
    decide_filled(node, policy, certify, run, truth, views)
}

/// [`decide`] over filled views: what every policy but `A_OPT`'s quiet
/// case goes through.
fn decide_filled(
    node: &NodeState,
    policy: &dyn ModePolicy,
    certify: bool,
    run: &Run<'_>,
    truth: impl Fn(NodeId) -> Option<f64>,
    views: &mut Vec<NeighborView>,
) -> Decision {
    let unlock_margin = fill_views(node, run, truth, views);
    let view = node_view(node, run.params, views);
    let (mode, cert) = if certify {
        policy.decide_and_certify(&view)
    } else {
        (policy.decide(&view), None)
    };
    Decision {
        mode,
        cert,
        unlock_margin,
    }
}

/// The decision cross-check of debug builds: a shortcut decision —
/// [`decide`]'s streamed exit or [`QuietBounds::decide`]'s O(1) one — is
/// the one [`decide_filled`] returns over the same node, bit for bit.
#[cfg(debug_assertions)]
fn assert_as_filled(
    shortcut: &Decision,
    node: &NodeState,
    policy: &dyn ModePolicy,
    certify: bool,
    run: &Run<'_>,
    truth: impl Fn(NodeId) -> Option<f64>,
    views: &mut Vec<NeighborView>,
) {
    let filled = decide_filled(node, policy, certify, run, truth, views);
    let bits = |d: &Decision| {
        let cert = d.cert.map(|c| {
            (
                c.estimate_margin.to_bits(),
                c.m_margin.to_bits(),
                c.m_jump_sensitive,
            )
        });
        (d.mode, cert, d.unlock_margin.to_bits())
    };
    assert_eq!(
        bits(shortcut),
        bits(&filled),
        "shortcut decision of {} diverged from the filled views at {:?}: {shortcut:?} vs {filled:?}",
        node.id(),
        node.last_update()
    );
}

/// What a polling message-mode host (`NodeCore`) decides a quiet node
/// from: bounds on the table's clock samples and the smallest level-1
/// thresholds of its edges.
#[derive(Debug)]
pub(crate) struct QuietBounds {
    /// Upper bound on `value − hw_at_recv` over the table's clock samples:
    /// those the last full decision found and every one written since.
    /// `−∞` over none.
    hi: f64,
    /// Lower bound on the same; `+∞` over none.
    lo: f64,
    /// The smallest level-1 fast-trigger threshold `κ − ε` over the
    /// table's edges at the last full decision. A removed edge only leaves
    /// it lower than need be; an added one makes the bounds `UNKNOWN`.
    ahead_floor: f64,
    /// The smallest level-1 slow-trigger threshold `1.5κ − δ − ε`, alike.
    behind_floor: f64,
    /// The buffer a full decision fills its views into.
    views: Vec<NeighborView>,
}

impl QuietBounds {
    /// Bounds that cover nothing: the floors are `−∞`, so [`quiet`]
    /// fails until a full decision derives them from the table.
    ///
    /// [`quiet`]: QuietBounds::quiet
    pub(crate) const UNKNOWN: QuietBounds = QuietBounds {
        hi: f64::NEG_INFINITY,
        lo: f64::INFINITY,
        ahead_floor: f64::NEG_INFINITY,
        behind_floor: f64::NEG_INFINITY,
        views: Vec::new(),
    };

    /// `A_OPT`'s mode for the message-mode `node` at its current instant:
    /// what [`decide`] returns without a certificate, bit for bit. While
    /// [`quiet`](QuietBounds::quiet) holds, neither trigger can (the
    /// triggers' level-1 exit), and the mode is Listing 3's max-estimate
    /// branch, read off three clock values. Otherwise [`decide`] decides
    /// over the table and the bounds are re-derived from it.
    pub(crate) fn decide(&mut self, node: &NodeState, policy: &AoptPolicy, run: &Run<'_>) -> Mode {
        debug_assert_eq!(run.mode, EstimateMode::Messages, "samples are message-mode");
        if self.quiet(node) {
            let mode = node_view(node, run.params, &[]).max_estimate_mode();
            #[cfg(debug_assertions)]
            {
                // Initial slots only: no level unlock is pending.
                let quiet = Decision {
                    mode,
                    cert: None,
                    unlock_margin: f64::INFINITY,
                };
                assert_as_filled(&quiet, node, policy, false, run, |_| None, &mut self.views);
            }
            return mode;
        }
        // Sizing `views` with the table keeps the first decision that
        // fills them, maybe hours into a run, from allocating inside the
        // loop.
        self.views.reserve(node.slots.len());
        let mode = decide(node, policy, false, run, |_| None, &mut self.views).mode;
        self.of_table(node, run);
        mode
    }

    /// Re-derives the bounds over `node`'s table as it stands. The floors
    /// take the thresholds of the views every decision builds, valid while
    /// the table holds only initial slots, whose view constants are fixed.
    fn of_table(&mut self, node: &NodeState, run: &Run<'_>) {
        (self.hi, self.lo) = (f64::NEG_INFINITY, f64::INFINITY);
        (self.ahead_floor, self.behind_floor) = (f64::INFINITY, f64::INFINITY);
        for entry in node.slots.iter() {
            let (view, _) = neighbor_view(node, run, entry, |_| None);
            self.ahead_floor = self.ahead_floor.min(ahead_threshold(&view, 1.0));
            self.behind_floor = self.behind_floor.min(behind_threshold(&view, 1.5));
            if let Some(sample) = entry.slot.estimate {
                self.cover(sample);
            }
        }
    }

    /// Widens the sample bounds over `sample`. A NaN difference fails
    /// both comparisons and is skipped: it needs a NaN value, whose
    /// estimate meets no clause.
    pub(crate) fn cover(&mut self, sample: EstimateEntry) {
        let d = sample.value - sample.hw_at_recv;
        if d > self.hi {
            self.hi = d;
        }
        if d < self.lo {
            self.lo = d;
        }
    }

    /// Whether no neighbour can meet a level-1 existential clause at
    /// `node`'s current instant. In message mode `est = v + (H − w)`, so
    /// the clauses `est − L ≥ κ − ε` and `L − est ≥ 1.5κ − δ − ε` read
    /// each neighbour's sample only through `d = v − w`, and the bounds
    /// on `d` and the floors decide for the whole table at once; see
    /// [`QUIET_SLACK`] for why rounding cannot make this pass where a
    /// clause holds.
    fn quiet(&self, node: &NodeState) -> bool {
        let (h, l) = (node.hardware(), node.logical());
        let skew = h - l;
        let magnitude = self.hi.abs().max(self.lo.abs())
            + h.abs()
            + l.abs()
            + self.ahead_floor.abs().max(self.behind_floor.abs());
        let slack = QUIET_SLACK * magnitude;
        self.hi + skew < self.ahead_floor - slack && -(self.lo + skew) < self.behind_floor - slack
    }
}

/// The quiet test's headroom below each floor, per unit of the magnitude
/// sum `S = max(|D⁺|, |D⁻|) + H + |L| + max(|F_a|, |F_b|)` of the sample
/// bounds `D±`, the clocks and the floors `F`: `2⁻⁴⁸ = 32u`, with
/// `u = 2⁻⁵³` the unit roundoff.
///
/// Why `32u·S` is enough. Take a sample `(v, w)` with `d = fl(v − w)`
/// inside `[D⁻, D⁺]`, so `|v − w| ≤ |d|/(1−u) ≤ A(1+2u)` with
/// `A = max(|D⁺|, |D⁻|)`, and `0 ≤ w ≤ H` (the hardware clock starts at 0
/// and never runs back). The exact value both clauses read is
/// `X = (v − w) + (H − L)`.
///
/// - The clauses compute `a = fl(H − w)`, `b = fl(v + a)` (the estimate)
///   and `fl(b − L)` or `fl(L − b)`. Each step is off by at most `u`
///   times its result, and `|H − w| ≤ H`, `|v + a| ≤ A + 2H`,
///   `|b − L| ≤ A + 2H + |L|` (to first order), so the clause operand
///   is within `u·(2A + 5H + |L|)` of `±X`.
/// - The filter computes `g = fl(H − L)` and `fl(D± + g)`. Rounding `d`,
///   `g` and the sum costs at most `u·(A + (H + |L|) + (A + H + |L|))`, so
///   `fl(D⁺ + g)` is at least `X` less `u·(2A + 2H + 2|L|)`, and
///   `−fl(D⁻ + g)` at least `−X` less the same.
/// - `fl(F − tol)` exceeds `F − tol` by at most `u·(|F| + tol)`.
///
/// Together the clause operand exceeds the filter's left side by less
/// than `u·(4A + 7H + 3|L| + |F|) ≤ 7u·S` (higher-order terms included),
/// so a filter side strictly below `fl(F − 32u·S)` leaves every clause
/// operand strictly below `F`, which no edge's threshold undercuts.
/// Computing `S` itself loses at most three roundings, and the product
/// by a power of two is exact for `S ≥ 2⁻⁹⁷⁴`; floors of level-1 weights
/// keep `S` far above that. A non-finite bound, clock or floor makes the
/// headroom infinite or NaN, and the test then falls back.
const QUIET_SLACK: f64 = 1.0 / (1u64 << 48) as f64;

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;

    impl Host for Silent {
        fn send(&mut self, _dst: NodeId, _edge: EdgeParams, _msg: Message) {}
        fn wake(&mut self, _at: SimTime, _timer: Timer) {}
    }

    /// The §3.1 lookup on a table wider than a cache line of ids: every
    /// one of 64 neighbours (even ids) is found and its own slot takes the
    /// sample, and every id between or beside them is rejected untouched.
    #[test]
    fn deliver_finds_every_neighbour_of_a_wide_table_and_nothing_else() {
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        let run = Run {
            params: &params,
            refresh: 0.1,
            mode: EstimateMode::Messages,
        };
        let info = EdgeInfo {
            params: EdgeParams::default(),
            epsilon: 0.002,
            kappa: 0.0135,
            delta: 0.001,
        };
        let mut node = NodeState::new(NodeId(1000), 1.0);
        for k in 0..64u32 {
            neighbor_initial(&mut node, NodeId(2 * k), info, 0.0);
        }
        let flood = |k: u32| {
            Message::Flood(FloodMsg {
                logical: f64::from(k),
                max_est: 0.0,
                min_lb: 0.0,
                max_ub: 1.0e9,
            })
        };
        let sent = SimTime::from_secs(0.5);
        let at = SimTime::from_secs(1.0);

        for v in (1..128u32).step_by(2).chain([128, 5000]) {
            let got = deliver(&mut node, at, NodeId(v), sent, flood(v), &run, &mut Silent);
            assert_eq!(got, Delivered::Rejected, "id {v} is no neighbour");
        }
        assert_eq!(
            node.last_update(),
            SimTime::ZERO,
            "a rejection touches nothing"
        );
        assert!(node.slots.iter().all(|e| e.slot.estimate.is_none()));

        for k in 0..64u32 {
            let got = deliver(
                &mut node,
                at,
                NodeId(2 * k),
                sent,
                flood(k),
                &run,
                &mut Silent,
            );
            assert!(
                matches!(got, Delivered::Flood(m) if m.estimate_written.is_some()),
                "neighbour {} was not accepted: {got:?}",
                2 * k
            );
        }
        let credit = gcs_net::transport::min_transit_credit(info.params, params.rho());
        for (k, entry) in (0..64u32).zip(node.slots.iter()) {
            assert_eq!(entry.id, NodeId(2 * k));
            let sample = entry.slot.estimate.expect("sample written").value;
            assert_eq!(
                sample,
                f64::from(k) + credit,
                "sample landed in the wrong slot"
            );
        }
    }

    /// A node with `degree` initial neighbours, each holding the sample of
    /// a flood sent and received at 0.5 s that carries the node's logical
    /// clock less `lag`, advanced to `at` seconds.
    fn sampled_node(params: &Params, degree: u32, rate: f64, lag: f64, at: f64) -> NodeState {
        let run = Run {
            params,
            refresh: 0.1,
            mode: EstimateMode::Messages,
        };
        let info = EdgeInfo {
            params: EdgeParams::default(),
            epsilon: 0.002,
            kappa: 0.0135,
            delta: 0.001,
        };
        let sent = SimTime::from_secs(0.5);
        let mut node = NodeState::new(NodeId(1000), rate);
        for k in 0..degree {
            neighbor_initial(&mut node, NodeId(k), info, 0.0);
            let flood = Message::Flood(FloodMsg {
                logical: 0.5 * rate - lag,
                max_est: 0.0,
                min_lb: 0.0,
                max_ub: 1.0e9,
            });
            deliver(&mut node, sent, NodeId(k), sent, flood, &run, &mut Silent);
        }
        node.advance_to(SimTime::from_secs(at), params);
        node
    }

    /// Whether `bounds` finds `node` quiet, after checking that its
    /// decision is [`decide`]'s.
    fn decides_as_decide(bounds: &mut QuietBounds, node: &NodeState, params: &Params) -> bool {
        let run = Run {
            params,
            refresh: 0.1,
            mode: EstimateMode::Messages,
        };
        let policy = AoptPolicy::new(params.max_levels());
        let quiet = bounds.quiet(node);
        let full = decide(node, &policy, false, &run, |_| None, &mut Vec::new()).mode;
        assert_eq!(bounds.decide(node, &policy, &run), full);
        quiet
    }

    fn quiet_params() -> Params {
        Params::builder().rho(0.01).mu(0.1).build().unwrap()
    }

    /// `UNKNOWN` covers nothing, so it is never quiet, whether the node
    /// is calm, behind or ahead of its neighbours; the fallback derives
    /// bounds under which the calm node, and only it, is quiet.
    #[test]
    fn unknown_bounds_are_never_quiet() {
        let params = quiet_params();
        for (lag, calm) in [(0.0, true), (0.5, false), (-0.5, false)] {
            let node = sampled_node(&params, 3, 1.0, lag, 1.0);
            let mut bounds = QuietBounds::UNKNOWN;
            assert!(!decides_as_decide(&mut bounds, &node, &params), "lag {lag}");
            assert_eq!(
                decides_as_decide(&mut bounds, &node, &params),
                calm,
                "lag {lag}"
            );
        }
    }

    /// A NaN sample fails both of `cover`'s comparisons: the bounds keep
    /// their bits, and the node stays quiet.
    #[test]
    fn cover_skips_a_nan_sample() {
        let params = quiet_params();
        let node = sampled_node(&params, 3, 1.0, 0.0, 1.0);
        let mut bounds = QuietBounds::UNKNOWN;
        decides_as_decide(&mut bounds, &node, &params);
        let bits = |b: &QuietBounds| [b.hi, b.lo, b.ahead_floor, b.behind_floor].map(f64::to_bits);
        let before = bits(&bounds);
        bounds.cover(EstimateEntry {
            value: f64::NAN,
            hw_at_recv: 0.7,
        });
        assert_eq!(bits(&bounds), before);
        assert!(decides_as_decide(&mut bounds, &node, &params));
    }

    /// With no neighbour the floors are +∞, so the headroom is NaN and the
    /// test fails: the node decides through [`decide`] every time.
    #[test]
    fn a_table_without_neighbours_is_never_quiet() {
        let params = quiet_params();
        let node = sampled_node(&params, 0, 1.0, 0.0, 1.0);
        let mut bounds = QuietBounds::UNKNOWN;
        for _ in 0..3 {
            assert!(!decides_as_decide(&mut bounds, &node, &params));
        }
        assert_eq!(bounds.ahead_floor, f64::INFINITY);
    }

    /// An infinite sample bound or clock makes the headroom infinite or
    /// NaN, and the test fails.
    #[test]
    fn infinite_clocks_or_bounds_are_never_quiet() {
        let params = quiet_params();
        let node = sampled_node(&params, 3, 1.0, 0.0, 1.0);
        let calm = || {
            let mut bounds = QuietBounds::UNKNOWN;
            assert!(!decides_as_decide(&mut bounds, &node, &params));
            bounds
        };
        assert!(calm().quiet(&node));
        for value in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut bounds = calm();
            bounds.cover(EstimateEntry {
                value,
                hw_at_recv: 0.7,
            });
            assert!(!decides_as_decide(&mut bounds, &node, &params), "{value}");
        }
        // At the largest rate the hardware clock overflows to +∞ by 2 s.
        let runaway = sampled_node(&params, 3, f64::MAX, 0.0, 2.0);
        assert_eq!(runaway.hardware(), f64::INFINITY);
        assert!(!decides_as_decide(&mut calm(), &runaway, &params));
    }
}
