//! Per-node algorithm state: the logical clock, the max-estimate `M_u` of
//! Condition 4.3, and the `[W_u, P_u]` global-skew bracket used for the
//! dynamic estimates `G̃_u(t)` of §7.
//!
//! All four quantities are piecewise linear between simulation events and
//! integrated exactly:
//!
//! * `L_u` advances at `mult · h_u` where `mult ∈ {1, 1+µ}` (Listing 3),
//! * `M_u` advances at `(1−ρ)/(1+ρ) · h_u` and is clamped to `≥ L_u`; this
//!   realizes both update rules of Condition 4.3 (when `M_u = L_u` the clamp
//!   makes it track the logical clock exactly),
//! * `W_u` (lower bound on the network's *minimum* logical clock) advances
//!   at `(1−ρ)/(1+ρ) · h_u ≤ 1−ρ`, never exceeding `L_u`,
//! * `P_u` (upper bound on the network's *maximum* logical clock) advances
//!   at `(1+ρ)(1+µ)/(1−ρ) · h_u ≥ (1+ρ)(1+µ)`, never below `M_u`.
//!
//! `G̃_u(t) := P_u − W_u` then satisfies inequality (5): it upper-bounds the
//! true global skew at all times.
//!
//! # Anchored integration
//!
//! The state is stored as an *anchor* — the exact values at the last
//! discontinuity (rate change, mode switch, flood merge, corruption) — plus
//! a cache of the values at the last queried instant. [`advance_to`] only
//! refreshes the cache: it evaluates each piecewise-linear segment in closed
//! form from the anchor and never rewrites it. Two consequences the engine
//! relies on:
//!
//! * **Query-invariance.** Advancing a node at extra intermediate instants
//!   (the full reference pass's tick sweeps, observation sampling, debug
//!   checks) does not perturb any future value by even an ulp — the
//!   trajectory is a pure function of the anchor sequence, which only
//!   events determine. Lazy and eager advancement are therefore
//!   *bit-identical* (the `advancement_is_query_invariant_bitwise`
//!   property).
//! * **O(1) advancement.** A node untouched for a thousand ticks catches up
//!   with the same handful of multiply-adds as one advanced every tick.
//!
//! [`advance_to`]: NodeState::advance_to

use gcs_net::{EdgeParams, NodeId};
use gcs_sim::SimTime;

use crate::edge_state::EdgeSlot;
use crate::params::Params;
use crate::triggers::Mode;

/// Cached per-edge derived quantities.
#[derive(Debug, Clone, Copy)]
pub struct EdgeInfo {
    /// Raw model parameters of the edge.
    pub params: EdgeParams,
    /// The uncertainty `ε` advertised by the configured estimate layer.
    pub epsilon: f64,
    /// Edge weight `κ` (eq. 9).
    pub kappa: f64,
    /// Slow-trigger slack `δ`.
    pub delta: f64,
}

/// Everything a node tracks about one discovered neighbour, plus the cached
/// per-edge derived constants (`ε`, `κ`, `δ`, delays) of the connecting
/// edge — so the per-tick mode evaluation never touches the engine's
/// edge-info map.
#[derive(Debug, Clone)]
pub struct NeighborEntry {
    /// The neighbour's id.
    pub id: NodeId,
    /// Cached `EdgeInfo` of the undirected edge to this neighbour.
    pub info: EdgeInfo,
    /// Discovery/handshake/estimate state of this directed slot.
    pub slot: EdgeSlot,
}

/// A node's discovered-neighbour table (`N⁰ᵤ`): a flat vector sorted by
/// neighbour id. Degrees are small and topology changes are rare compared
/// to trigger evaluations, so a sorted slab beats a tree on every hot
/// operation (linear scans for views, binary search for lookups) while
/// iterating in the same deterministic ascending order.
///
/// The ids are kept a second time in their own column, `ids[i] ==
/// entries[i].id`, and lookups binary-search that. Every delivery makes
/// one: searching the 152-byte entries put each of a degree-12 node's ~4
/// dependent probes on its own cache line, while that node's 48 bytes of
/// ids span one or two. On `geo-4k` (mean degree 12, nine events in ten
/// deliveries) the column took a sixth off `run_s`.
#[derive(Debug, Clone, Default)]
pub struct NeighborTable {
    ids: IdColumn,
    entries: Vec<NeighborEntry>,
}

/// How many ids a [`NeighborTable`] holds inside itself: a ring node's
/// two and a torus node's four.
const INLINE_IDS: usize = 4;

/// The id column of a [`NeighborTable`]: inline up to [`INLINE_IDS`] ids,
/// on the heap beyond. Held inline, a low-degree node allocates nothing
/// for its ids and finds a neighbour on its own cache lines. As a plain
/// `Vec` the column cost `ring-100k` (degree 2) 10⁵ more allocations,
/// +4.8 MiB of peak RSS and one more dependent load per lookup: `run_s`
/// rose 2–6 % over a table without the column in two sets of ten pairs.
/// Inline, `ring-100k` ran 8 % faster than with the `Vec` in 10 of 10
/// pairs, and `geo-4k` (most tables on the heap) did not move.
#[derive(Debug, Clone)]
enum IdColumn {
    Inline { len: u8, ids: [NodeId; INLINE_IDS] },
    Heap(Vec<NodeId>),
}

impl Default for IdColumn {
    fn default() -> Self {
        IdColumn::Inline {
            len: 0,
            ids: [NodeId(0); INLINE_IDS],
        }
    }
}

impl IdColumn {
    fn as_slice(&self) -> &[NodeId] {
        match self {
            IdColumn::Inline { len, ids } => &ids[..usize::from(*len)],
            IdColumn::Heap(ids) => ids,
        }
    }

    fn insert(&mut self, i: usize, v: NodeId) {
        match self {
            IdColumn::Inline { len, ids } if usize::from(*len) < INLINE_IDS => {
                ids.copy_within(i..usize::from(*len), i + 1);
                ids[i] = v;
                *len += 1;
            }
            IdColumn::Inline { .. } => {
                let mut ids = self.as_slice().to_vec();
                ids.insert(i, v);
                *self = IdColumn::Heap(ids);
            }
            IdColumn::Heap(ids) => ids.insert(i, v),
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            IdColumn::Inline { len, ids } => {
                ids.copy_within(i + 1..usize::from(*len), i);
                *len -= 1;
            }
            IdColumn::Heap(ids) => {
                ids.remove(i);
            }
        }
    }

    fn reserve_exact(&mut self, additional: usize) {
        let len = self.as_slice().len();
        match self {
            IdColumn::Inline { .. } if len + additional <= INLINE_IDS => {}
            IdColumn::Inline { .. } => {
                let mut ids = Vec::with_capacity(len + additional);
                ids.extend_from_slice(self.as_slice());
                *self = IdColumn::Heap(ids);
            }
            IdColumn::Heap(ids) => ids.reserve_exact(additional),
        }
    }
}

impl NeighborTable {
    /// Number of discovered neighbours.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no neighbour has been discovered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reserves room for exactly `additional` more neighbours. For a
    /// table whose final degree is known up front (the engine's initial
    /// graph); `Vec`'s amortised growth would hold at least four 152-byte
    /// entries per node, twice a ring node's degree. Later inserts keep
    /// amortised growth.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.ids.reserve_exact(additional);
        self.entries.reserve_exact(additional);
    }

    fn position(&self, v: NodeId) -> Result<usize, usize> {
        self.ids.as_slice().binary_search(&v)
    }

    /// Whether `v` has been discovered.
    #[must_use]
    pub fn contains(&self, v: NodeId) -> bool {
        self.position(v).is_ok()
    }

    /// The slot for neighbour `v`, if discovered.
    #[must_use]
    pub fn get(&self, v: NodeId) -> Option<&EdgeSlot> {
        self.position(v).ok().map(|i| &self.entries[i].slot)
    }

    /// Mutable access to the slot for neighbour `v`.
    pub fn get_mut(&mut self, v: NodeId) -> Option<&mut EdgeSlot> {
        match self.position(v) {
            Ok(i) => Some(&mut self.entries[i].slot),
            Err(_) => None,
        }
    }

    /// The full entry (slot + cached edge info) for neighbour `v`.
    #[must_use]
    pub fn entry(&self, v: NodeId) -> Option<&NeighborEntry> {
        self.position(v).ok().map(|i| &self.entries[i])
    }

    /// Mutable access to the full entry for neighbour `v` (one search for
    /// callers that read the cached info *and* write the slot). The
    /// entry's `id` must not be changed: lookups search a copy of it.
    pub fn entry_mut(&mut self, v: NodeId) -> Option<&mut NeighborEntry> {
        match self.position(v) {
            Ok(i) => Some(&mut self.entries[i]),
            Err(_) => None,
        }
    }

    /// Inserts (or replaces) the slot for `v`, keeping the table sorted.
    pub fn insert(&mut self, v: NodeId, info: EdgeInfo, slot: EdgeSlot) {
        let entry = NeighborEntry { id: v, info, slot };
        match self.position(v) {
            Ok(i) => self.entries[i] = entry,
            Err(i) => {
                self.ids.insert(i, v);
                self.entries.insert(i, entry);
            }
        }
    }

    /// Removes the slot for `v`; returns whether it existed.
    pub fn remove(&mut self, v: NodeId) -> bool {
        match self.position(v) {
            Ok(i) => {
                self.ids.remove(i);
                self.entries.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over all entries in ascending neighbour order.
    pub fn iter(&self) -> std::slice::Iter<'_, NeighborEntry> {
        self.entries.iter()
    }

    /// Iterates over the discovered neighbour ids in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.as_slice().iter().copied()
    }
}

impl<'a> IntoIterator for &'a NeighborTable {
    type Item = &'a NeighborEntry;
    type IntoIter = std::slice::Iter<'a, NeighborEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// The full state of one node.
#[derive(Debug, Clone)]
pub struct NodeState {
    id: NodeId,
    mode: Mode,
    hw_rate: f64,
    /// Instant of the last discontinuity; all clocks are linear since then.
    anchor: SimTime,
    hw_at_anchor: f64,
    logical_at_anchor: f64,
    max_est_at_anchor: f64,
    min_lb_at_anchor: f64,
    max_ub_at_anchor: f64,
    fast_at_anchor: f64,
    /// Last queried instant; the `cur_*` caches hold the values there.
    now: SimTime,
    cur_hw: f64,
    cur_logical: f64,
    cur_max_est: f64,
    cur_min_lb: f64,
    cur_max_ub: f64,
    cur_fast: f64,
    /// Scripted estimate corruption (chaos experiments): when set, every
    /// neighbour estimate this node reads is pushed by `bias · ε` and
    /// clamped back into the advertised `±ε` envelope, so inequality (1)
    /// still holds. `None` until a fault script installs one.
    scripted_bias: Option<f64>,
    /// Discovered neighbours (`N⁰ᵤ`) with their handshake/estimate state.
    pub slots: NeighborTable,
}

impl NodeState {
    /// A node at time 0 with all clocks zero, in slow mode.
    #[must_use]
    pub fn new(id: NodeId, hw_rate: f64) -> Self {
        assert!(
            hw_rate.is_finite() && hw_rate > 0.0,
            "clock rate must be finite and positive, got {hw_rate}"
        );
        NodeState {
            id,
            mode: Mode::Slow,
            hw_rate,
            anchor: SimTime::ZERO,
            hw_at_anchor: 0.0,
            logical_at_anchor: 0.0,
            max_est_at_anchor: 0.0,
            min_lb_at_anchor: 0.0,
            max_ub_at_anchor: 0.0,
            fast_at_anchor: 0.0,
            now: SimTime::ZERO,
            cur_hw: 0.0,
            cur_logical: 0.0,
            cur_max_est: 0.0,
            cur_min_lb: 0.0,
            cur_max_ub: 0.0,
            cur_fast: 0.0,
            scripted_bias: None,
            slots: NeighborTable::default(),
        }
    }

    /// Node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Logical clock `L_u` (as of the last advance).
    #[must_use]
    pub fn logical(&self) -> f64 {
        self.cur_logical
    }

    /// Hardware clock `H_u`.
    #[must_use]
    pub fn hardware(&self) -> f64 {
        self.cur_hw
    }

    /// Current hardware rate `h_u`.
    #[must_use]
    pub fn hw_rate(&self) -> f64 {
        self.hw_rate
    }

    /// Current mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Max estimate `M_u` (Condition 4.3).
    #[must_use]
    pub fn max_estimate(&self) -> f64 {
        self.cur_max_est
    }

    /// Lower bound `W_u` on the minimum logical clock in the network.
    #[must_use]
    pub fn min_lower_bound(&self) -> f64 {
        self.cur_min_lb
    }

    /// Upper bound `P_u` on the maximum logical clock in the network.
    #[must_use]
    pub fn max_upper_bound(&self) -> f64 {
        self.cur_max_ub
    }

    /// The node-local global-skew estimate `G̃_u(t) = P_u − W_u` (§7).
    #[must_use]
    pub fn g_estimate(&self) -> f64 {
        (self.cur_max_ub - self.cur_min_lb).max(0.0)
    }

    /// Total real seconds this node has spent in fast mode — a proxy for
    /// the extra energy/rate budget the algorithm consumed.
    #[must_use]
    pub fn fast_secs(&self) -> f64 {
        self.cur_fast
    }

    /// Time of the last advance.
    #[must_use]
    pub fn last_update(&self) -> SimTime {
        self.now
    }

    /// The logical clock value at `t`, computed from the anchor without
    /// mutating anything — bit-identical to what [`advance_to`] +
    /// [`logical`] would report, letting read-only observers (the view
    /// builder reading *neighbour* clocks) avoid dirtying node state.
    ///
    /// [`advance_to`]: NodeState::advance_to
    /// [`logical`]: NodeState::logical
    #[must_use]
    pub fn logical_at(&self, t: SimTime, params: &Params) -> f64 {
        if t == self.now {
            return self.cur_logical;
        }
        let dt = t.as_secs() - self.anchor.as_secs();
        let h_delta = self.hw_rate * dt;
        self.logical_at_anchor + self.mode.multiplier(params.mu()) * h_delta
    }

    /// Refreshes the cached clock values at `t` by evaluating each
    /// piecewise-linear segment in closed form from the anchor. Pure with
    /// respect to future values: extra intermediate calls change nothing
    /// (see the module docs), so advancement can be as lazy or as eager as
    /// the caller likes.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last advance.
    pub fn advance_to(&mut self, t: SimTime, params: &Params) {
        if t == self.now {
            return;
        }
        assert!(
            t >= self.now,
            "cannot advance {} backwards from {:?} to {t:?}",
            self.id,
            self.now
        );
        let dt = t.as_secs() - self.anchor.as_secs();
        let h_delta = self.hw_rate * dt;
        self.cur_hw = self.hw_at_anchor + h_delta;
        self.cur_logical = self.logical_at_anchor + self.mode.multiplier(params.mu()) * h_delta;

        let rho = params.rho();
        let conservative = (1.0 - rho) / (1.0 + rho);
        // (4): M_u >= L_u; combined with the conservative rate this yields
        // exactly the two-case update rule of Condition 4.3.
        self.cur_max_est = (self.max_est_at_anchor + conservative * h_delta).max(self.cur_logical);
        // W_u lower-bounds the network minimum, which is <= L_u (the min is
        // mathematically a no-op — W never outruns L — but keeps the
        // invariant robust).
        self.cur_min_lb = (self.min_lb_at_anchor + conservative * h_delta).min(self.cur_logical);
        // The network maximum advances at most at rate 1+rho: a node holding
        // the maximum is in slow mode (Theorem 5.6's argument holds for all
        // policies built on the max-estimate rule), so growing P at
        // (1+rho)/(1-rho) * h >= 1+rho keeps it an upper bound. Brief
        // fast-mode episodes of a *newly* maximal node (bounded by one
        // trigger-evaluation tick) are absorbed by the invariant tolerance.
        let aggressive = (1.0 + rho) / (1.0 - rho);
        self.cur_max_ub = (self.max_ub_at_anchor + aggressive * h_delta).max(self.cur_max_est);

        self.cur_fast = self.fast_at_anchor + if self.mode == Mode::Fast { dt } else { 0.0 };
        self.now = t;
    }

    /// Moves the anchor to the current instant, materializing the cached
    /// values. Every discontinuity (rate change, mode switch, merge,
    /// corruption) must re-anchor first; the caller must have advanced the
    /// node to the discontinuity's time.
    fn reanchor(&mut self) {
        self.anchor = self.now;
        self.hw_at_anchor = self.cur_hw;
        self.logical_at_anchor = self.cur_logical;
        self.max_est_at_anchor = self.cur_max_est;
        self.min_lb_at_anchor = self.cur_min_lb;
        self.max_ub_at_anchor = self.cur_max_ub;
        self.fast_at_anchor = self.cur_fast;
    }

    /// Re-applies the invariant clamps to the anchor values (after a merge
    /// or corruption) and refreshes the caches (anchor time == now here).
    fn clamp_and_commit(&mut self) {
        if self.max_est_at_anchor < self.logical_at_anchor {
            self.max_est_at_anchor = self.logical_at_anchor;
        }
        if self.min_lb_at_anchor > self.logical_at_anchor {
            self.min_lb_at_anchor = self.logical_at_anchor;
        }
        if self.max_ub_at_anchor < self.max_est_at_anchor {
            self.max_ub_at_anchor = self.max_est_at_anchor;
        }
        self.cur_hw = self.hw_at_anchor;
        self.cur_logical = self.logical_at_anchor;
        self.cur_max_est = self.max_est_at_anchor;
        self.cur_min_lb = self.min_lb_at_anchor;
        self.cur_max_ub = self.max_ub_at_anchor;
        self.cur_fast = self.fast_at_anchor;
    }

    /// Changes the hardware rate (caller must advance to the change time
    /// first).
    pub fn set_hw_rate(&mut self, rate: f64) {
        assert!(
            rate.is_finite() && rate > 0.0,
            "clock rate must be finite and positive, got {rate}"
        );
        self.reanchor();
        self.hw_rate = rate;
    }

    /// Switches mode (caller must advance to the switch time first).
    /// Setting the current mode again is a no-op and does not re-anchor.
    pub fn set_mode(&mut self, mode: Mode) {
        if mode != self.mode {
            self.reanchor();
            self.mode = mode;
        }
    }

    /// Merges a received max estimate (already credited for minimum
    /// transit). Returns whether `M_u` actually moved — the engine uses
    /// this to keep its dirty-node bookkeeping precise.
    pub fn merge_max_estimate(&mut self, candidate: f64) -> bool {
        self.reanchor();
        let changed = candidate > self.max_est_at_anchor;
        if changed {
            self.max_est_at_anchor = candidate;
        }
        self.clamp_and_commit();
        changed
    }

    /// Merges a full flood `(M, W, P)` triple in one re-anchor — the
    /// per-delivery hot path. Equivalent to calling the three single-bound
    /// merges in sequence (the interleaved clamps commute; see the unit
    /// test). Returns whether `M_u` moved.
    pub fn merge_flood_bounds(&mut self, max_est: f64, min_lb: f64, max_ub: f64) -> bool {
        // All three bounds already dominated: nothing changes, so skip the
        // re-anchor (the cached values equal the anchored segment at `now`,
        // making the comparison against them exact).
        if max_est <= self.cur_max_est && min_lb <= self.cur_min_lb && max_ub >= self.cur_max_ub {
            return false;
        }
        self.reanchor();
        let changed = max_est > self.max_est_at_anchor;
        if changed {
            self.max_est_at_anchor = max_est;
        }
        if min_lb > self.min_lb_at_anchor {
            self.min_lb_at_anchor = min_lb;
        }
        if max_ub < self.max_ub_at_anchor {
            self.max_ub_at_anchor = max_ub;
        }
        self.clamp_and_commit();
        changed
    }

    /// Merges a received minimum-clock lower bound.
    pub fn merge_min_lower_bound(&mut self, candidate: f64) {
        self.reanchor();
        if candidate > self.min_lb_at_anchor {
            self.min_lb_at_anchor = candidate;
        }
        self.clamp_and_commit();
    }

    /// Merges a received maximum-clock upper bound (already padded for
    /// maximal in-transit growth).
    pub fn merge_max_upper_bound(&mut self, candidate: f64) {
        self.reanchor();
        if candidate < self.max_ub_at_anchor {
            self.max_ub_at_anchor = candidate;
        }
        self.clamp_and_commit();
    }

    /// Overwrites the logical clock (fault injection / corruption
    /// experiments), keeping the derived bounds consistent.
    pub fn corrupt_logical(&mut self, value: f64) {
        assert!(value.is_finite(), "clock value must be finite");
        self.reanchor();
        self.logical_at_anchor = value;
        self.clamp_and_commit();
    }

    /// The scripted estimate corruption currently installed, if any
    /// (in units of the per-edge `ε`, always within `[-1, 1]`).
    #[must_use]
    pub fn scripted_bias(&self) -> Option<f64> {
        self.scripted_bias
    }

    /// Installs a scripted estimate corruption (the engine's
    /// `Simulation::inject_estimate_bias` routes here).
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is finite and within `[-1, 1]` — the scripted
    /// adversary may pick any direction, but never more error than the
    /// estimate layer advertises.
    pub fn corrupt_estimates(&mut self, bias: f64) {
        assert!(
            bias.is_finite() && (-1.0..=1.0).contains(&bias),
            "estimate bias must be within [-1, 1], got {bias}"
        );
        self.scripted_bias = Some(bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params::builder().rho(0.01).mu(0.1).build().unwrap()
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn slow_mode_tracks_hardware() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.01);
        n.advance_to(t(10.0), &p);
        assert!((n.logical() - 10.1).abs() < 1e-12);
        assert!((n.hardware() - 10.1).abs() < 1e-12);
    }

    #[test]
    fn fast_mode_multiplies_rate() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        n.set_mode(Mode::Fast);
        n.advance_to(t(10.0), &p);
        assert!((n.logical() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn max_estimate_tracks_logical_when_equal() {
        // Node alone at the maximum: M must advance with L (Condition 4.3).
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        n.advance_to(t(100.0), &p);
        assert!((n.max_estimate() - n.logical()).abs() < 1e-12);
    }

    #[test]
    fn max_estimate_rate_is_conservative_when_ahead() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        assert!(n.merge_max_estimate(1000.0));
        n.advance_to(t(10.0), &p);
        let expected = 1000.0 + (0.99 / 1.01) * 10.0;
        assert!((n.max_estimate() - expected).abs() < 1e-9);
        assert!(n.max_estimate() >= n.logical());
    }

    #[test]
    fn bracket_brackets_in_isolation() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        for k in 1..=50 {
            n.advance_to(t(f64::from(k)), &p);
            assert!(n.min_lower_bound() <= n.logical() + 1e-12);
            assert!(n.max_upper_bound() >= n.max_estimate() - 1e-12);
            assert!(n.g_estimate() >= 0.0);
        }
        // The bracket widens over time when no floods arrive.
        assert!(n.g_estimate() > 0.0);
    }

    #[test]
    fn merges_move_bounds_monotonically() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        n.advance_to(t(1.0), &p);
        let g0 = n.g_estimate();
        n.merge_min_lower_bound(0.9); // tighter floor
        n.merge_max_upper_bound(1.5); // tighter ceiling
        assert!(n.g_estimate() <= g0);
        // Merging weaker information changes nothing.
        let g1 = n.g_estimate();
        n.merge_min_lower_bound(-5.0);
        n.merge_max_upper_bound(100.0);
        assert_eq!(n.g_estimate(), g1);
    }

    #[test]
    fn merge_max_estimate_respects_clamp() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        n.advance_to(t(5.0), &p);
        assert!(!n.merge_max_estimate(2.0)); // below L: clamp keeps M = L
        assert!((n.max_estimate() - n.logical()).abs() < 1e-12);
        assert!(n.merge_max_estimate(7.0));
        assert!((n.max_estimate() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn corrupt_logical_keeps_invariants() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        n.advance_to(t(5.0), &p);
        n.corrupt_logical(50.0);
        assert!(n.max_estimate() >= 50.0);
        n.corrupt_logical(-3.0);
        assert!(n.min_lower_bound() <= -3.0);
    }

    #[test]
    fn advance_is_idempotent_at_same_time() {
        let p = params();
        let mut n = NodeState::new(NodeId(0), 1.0);
        n.advance_to(t(3.0), &p);
        let l = n.logical();
        n.advance_to(t(3.0), &p);
        assert_eq!(n.logical(), l);
    }

    #[test]
    fn merge_flood_bounds_matches_sequential_merges() {
        let p = params();
        for (cm, cw, cp) in [
            (5.0, 0.5, 9.0),
            (0.1, 3.0, 0.2),
            (2.0, 2.0, 2.0),
            (-1.0, -1.0, 100.0),
        ] {
            let mut a = NodeState::new(NodeId(0), 1.0);
            let mut b = NodeState::new(NodeId(0), 1.0);
            for n in [&mut a, &mut b] {
                n.advance_to(t(1.0), &p);
                n.merge_max_estimate(1.5);
                n.advance_to(t(2.0), &p);
            }
            let fused = a.merge_flood_bounds(cm, cw, cp);
            let seq = b.merge_max_estimate(cm);
            b.merge_min_lower_bound(cw);
            b.merge_max_upper_bound(cp);
            assert_eq!(fused, seq);
            a.advance_to(t(5.0), &p);
            b.advance_to(t(5.0), &p);
            assert_eq!(a.max_estimate().to_bits(), b.max_estimate().to_bits());
            assert_eq!(a.min_lower_bound().to_bits(), b.min_lower_bound().to_bits());
            assert_eq!(a.max_upper_bound().to_bits(), b.max_upper_bound().to_bits());
        }
    }

    #[test]
    fn neighbor_table_stays_sorted_and_searchable() {
        use crate::edge_state::EdgeSlot;
        use gcs_net::EdgeParams;
        let info = EdgeInfo {
            params: EdgeParams::default(),
            epsilon: 0.002,
            kappa: 0.0135,
            delta: 0.001,
        };
        let mut table = NeighborTable::default();
        for v in [5u32, 1, 9, 3] {
            table.insert(NodeId(v), info, EdgeSlot::initial());
        }
        assert_eq!(table.len(), 4);
        let ids: Vec<NodeId> = table.ids().collect();
        assert_eq!(ids, vec![NodeId(1), NodeId(3), NodeId(5), NodeId(9)]);
        assert!(table.contains(NodeId(3)));
        assert!(table.get(NodeId(9)).is_some());
        assert!(table.get(NodeId(2)).is_none());
        assert!(table.entry(NodeId(5)).is_some());
        assert!(table.remove(NodeId(3)));
        assert!(!table.remove(NodeId(3)));
        assert_eq!(table.len(), 3);
        assert!(table.get_mut(NodeId(1)).is_some());
        // Re-inserting an existing id replaces in place.
        table.insert(NodeId(1), info, EdgeSlot::discovered(t(1.0), 2.0, 7));
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(NodeId(1)).unwrap().generation, 7);
    }

    #[test]
    fn reserve_exact_holds_exactly_the_initial_degree() {
        use crate::edge_state::EdgeSlot;
        let info = EdgeInfo {
            params: EdgeParams::default(),
            epsilon: 0.002,
            kappa: 0.0135,
            delta: 0.001,
        };
        for degree in [1usize, 2, 3, INLINE_IDS, INLINE_IDS + 1, 12] {
            let mut table = NeighborTable::default();
            table.reserve_exact(degree);
            for v in 0..degree {
                table.insert(NodeId(v as u32), info, EdgeSlot::initial());
            }
            assert_eq!(table.len(), degree);
            // Up to `INLINE_IDS` the id column allocates nothing at all.
            match &table.ids {
                IdColumn::Inline { .. } => assert!(degree <= INLINE_IDS),
                IdColumn::Heap(ids) => {
                    assert!(degree > INLINE_IDS);
                    assert_eq!(ids.capacity(), degree);
                }
            }
            assert_eq!(table.entries.capacity(), degree);
        }
    }

    /// An entry whose info and slot both carry `tag`, so a lookup that
    /// returns the wrong entry, or a replace that keeps the old one, shows.
    fn tagged(tag: u64) -> (EdgeInfo, EdgeSlot) {
        let info = EdgeInfo {
            params: EdgeParams::default(),
            epsilon: 0.002,
            kappa: tag as f64,
            delta: 0.001,
        };
        (info, EdgeSlot::discovered(t(1.0), 0.0, tag))
    }

    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Every value a caller can read off a node, as bits.
    fn reads(n: &NodeState) -> ([u64; 8], Mode) {
        let bits = [
            n.logical(),
            n.hardware(),
            n.max_estimate(),
            n.min_lower_bound(),
            n.max_upper_bound(),
            n.g_estimate(),
            n.fast_secs(),
            n.hw_rate(),
        ]
        .map(f64::to_bits);
        (bits, n.mode())
    }

    /// Advances `sparse` from `from` straight to `to`, and `dense` there
    /// through `extra` evenly spaced queries strictly in between.
    fn walk(sparse: &mut NodeState, dense: &mut NodeState, from: f64, to: f64, extra: u32) {
        let p = params();
        for k in 1..=extra {
            dense.advance_to(
                t(from + (to - from) * f64::from(k) / f64::from(extra + 1)),
                &p,
            );
        }
        sparse.advance_to(t(to), &p);
        dense.advance_to(t(to), &p);
    }

    proptest! {
        /// The property the engines' lazy advancement rests on: one script
        /// of discontinuities, queried on a sparse and on a dense grid,
        /// reads bit-identically at every instant both grids share.
        /// `advance_to` only refreshes the cached values and never moves an
        /// anchor, so how often a node is advanced cannot change a value.
        #[test]
        fn advancement_is_query_invariant_bitwise(
            rate in 0.99f64..1.01,
            script in proptest::collection::vec(
                (0u8..4, 0.0f64..1.5, -2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0),
                1..40,
            ),
            extra in 1u32..9,
        ) {
            let mut sparse = NodeState::new(NodeId(0), rate);
            let mut dense = NodeState::new(NodeId(0), rate);
            let mut now = 0.0;
            for (op, gap, a, b, c) in script {
                walk(&mut sparse, &mut dense, now, now + gap, extra);
                now += gap;
                prop_assert_eq!(reads(&sparse), reads(&dense));
                let l = sparse.logical();
                match op {
                    0 => {
                        let mode = if a < 0.0 { Mode::Slow } else { Mode::Fast };
                        sparse.set_mode(mode);
                        dense.set_mode(mode);
                    }
                    1 => prop_assert_eq!(
                        sparse.merge_flood_bounds(l + a, l + b, l + c),
                        dense.merge_flood_bounds(l + a, l + b, l + c)
                    ),
                    2 => {
                        sparse.set_hw_rate(1.0 + 0.005 * a);
                        dense.set_hw_rate(1.0 + 0.005 * a);
                    }
                    _ => {
                        sparse.corrupt_logical(l + a);
                        dense.corrupt_logical(l + a);
                    }
                }
                prop_assert_eq!(reads(&sparse), reads(&dense));
            }
            walk(&mut sparse, &mut dense, now, now + 1.0, extra);
            prop_assert_eq!(reads(&sparse), reads(&dense));
        }

        #[test]
        fn id_column_tracks_a_btreemap_reference(
            ops in proptest::collection::vec((0u8..4, 0u32..24, any::<u64>()), 0..80),
            // At most `INLINE_IDS` distinct ids keep a table inline for the
            // whole case; more move it to the heap, where it then shrinks.
            distinct in 2u32..24,
        ) {
            let mut table = NeighborTable::default();
            let mut reference: BTreeMap<NodeId, u64> = BTreeMap::new();
            for (op, id, tag) in ops {
                let v = NodeId(id % distinct);
                match op {
                    // Inserts twice as often as removes, so tables grow.
                    0 | 1 => {
                        let (info, slot) = tagged(tag);
                        table.insert(v, info, slot);
                        reference.insert(v, tag);
                    }
                    2 => prop_assert_eq!(table.remove(v), reference.remove(&v).is_some()),
                    _ => table.reserve_exact(id as usize % 5),
                }
                let ids: Vec<NodeId> = table.ids().collect();
                prop_assert_eq!(&ids, &reference.keys().copied().collect::<Vec<_>>());
                prop_assert_eq!(&ids, &table.iter().map(|e| e.id).collect::<Vec<_>>());
                prop_assert_eq!(table.len(), reference.len());
                let tags: Vec<u64> = table.iter().map(|e| e.slot.generation).collect();
                prop_assert_eq!(&tags, &reference.values().copied().collect::<Vec<_>>());
                // Every id in range, present or not, answers as the
                // reference does, through every lookup.
                for probe in 0..25u32 {
                    let v = NodeId(probe);
                    let want = reference.get(&v).copied();
                    prop_assert_eq!(table.contains(v), want.is_some());
                    prop_assert_eq!(table.get(v).map(|s| s.generation), want);
                    let entry = table.entry(v);
                    prop_assert_eq!(entry.map(|e| e.id), want.map(|_| v));
                    prop_assert_eq!(entry.map(|e| e.info.kappa), want.map(|g| g as f64));
                }
            }
        }
    }
}
