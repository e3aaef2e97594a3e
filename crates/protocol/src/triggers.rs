//! The fast / slow mode triggers (Definitions 4.5–4.7) and the mode
//! selection logic of Listing 3, plus the [`ModePolicy`] abstraction that
//! lets baseline algorithms reuse the same node substrate.
//!
//! The triggers quantify over integer levels `s ∈ ℕ`, and
//! `s = 0` must be excluded (otherwise a node holding the global
//! maximum could be forced into fast mode, contradicting Theorem 5.6's
//! proof), so the scan ranges over `s ≥ 1`. The scan terminates at the first
//! level at which no neighbour can satisfy the existential clause anymore —
//! skews are bounded by the global skew, so this is a small number.
//!
//! Almost every decision ends at level 1. In the synchronized steady
//! state neighbours sit well inside one `κ` of each other, so no
//! neighbour meets either trigger's existential clause even at `s = 1`,
//! and [`fast_trigger`] / [`slow_trigger`] return `false` after one pass
//! over `N¹ᵤ`, before they compute the scan bound or loop over levels.
//! The exit is exact: the existential thresholds `s·κ − ε` and
//! `(s+½)·κ − δ − ε` never decrease as `s` grows (f64 multiplication and
//! subtraction round monotonically, and `κ > 0`), and `N^sᵤ ⊆ N¹ᵤ`, so a
//! clause no neighbour meets at level 1 is met by none at any level.
//!
//! The hosts take that exit before they fill any view.
//! [`handlers::decide`](crate::handlers::decide) hands an `A_OPT` policy
//! ([`ModePolicy::as_aopt`]) one neighbour view at a time, built on the
//! stack, and `AoptPolicy::decide_streamed` checks both level-1 clauses
//! with the functions the two exits call ([`fast_trigger`]'s `ahead`,
//! [`slow_trigger`]'s `behind`). When no neighbour meets either, it
//! returns Listing 3's max-estimate branch and, if asked, the certificate
//! with each neighbour's margin folded in as it goes by; the view vector
//! is never written. The first neighbour that meets a clause sends the
//! decision back to the filled views and the level scans. Every decision
//! on `ring-1k`, `geo-4k`, `churn-1k` and `node-loopback` stays on the
//! streamed path; fault scenarios leave it often (`self-heal` 58 %,
//! `adversarial-partition` 97 % of decisions at default scale).

use std::fmt;

use crate::edge_state::Level;

/// The two logical clock rates of the algorithm (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Rate `h_u(t)` (multiplier 1).
    #[default]
    Slow,
    /// Rate `(1+µ) · h_u(t)`.
    Fast,
}

impl Mode {
    /// The logical-rate multiplier (`1` or `1 + µ`).
    #[must_use]
    pub fn multiplier(self, mu: f64) -> f64 {
        match self {
            Mode::Slow => 1.0,
            Mode::Fast => 1.0 + mu,
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Slow => f.write_str("slow"),
            Mode::Fast => f.write_str("fast"),
        }
    }
}

/// What a node can see about one neighbour when deciding its mode.
///
/// All quantities are in logical-clock units except `tau` (real seconds).
#[derive(Debug, Clone, Copy)]
pub struct NeighborView {
    /// The estimate `L̃ᵥᵤ(t)`, if one is available. Estimates are always
    /// available for neighbours at level ≥ 1 (the handshake takes longer
    /// than the first flood); a `None` blocks the universal clauses
    /// conservatively.
    pub estimate: Option<f64>,
    /// Edge weight `κ` (eq. 9).
    pub kappa: f64,
    /// Estimate uncertainty `ε`.
    pub epsilon: f64,
    /// Detection delay `τ` (seconds).
    pub tau: f64,
    /// Slow-trigger slack `δ`.
    pub delta: f64,
    /// Unlocked level: the neighbour is in `N^sᵤ` for `1 ≤ s ≤ level`.
    pub level: Level,
}

/// Everything a [`ModePolicy`] may consult.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    /// Own logical clock `L_u(t)`.
    pub logical: f64,
    /// Max estimate `M_u(t)` (Condition 4.3).
    pub max_estimate: f64,
    /// Current mode (policies may keep it in the hysteresis region).
    pub current_mode: Mode,
    /// The `ι` separation constant (Definition 4.4).
    pub iota: f64,
    /// Fast-mode boost `µ`.
    pub mu: f64,
    /// Drift bound `ρ`.
    pub rho: f64,
    /// All discovered neighbours (the paper's `N⁰ᵤ`), in neighbour order.
    pub neighbors: &'a [NeighborView],
}

impl NodeView<'_> {
    /// Upper bound on the level scan: beyond this `s`, no neighbour can
    /// satisfy either existential clause.
    fn scan_limit(&self, max_levels: u32) -> u32 {
        let mut hi = 0u32;
        for n in self.neighbors {
            let Some(est) = n.estimate else { continue };
            let diff = (est - self.logical).abs() + n.epsilon + n.delta + n.kappa;
            let s = (diff / n.kappa).ceil();
            if s.is_finite() && s > 0.0 {
                hi = hi.max(s as u32);
            }
        }
        hi.min(max_levels)
    }

    /// Whether some neighbour in `N¹ᵤ` with an estimate meets `clause`, an
    /// existential clause at `s = 1`. When none does, none does at any
    /// level (the level-1 exit; see the module doc).
    fn any_at_level_one(&self, clause: impl Fn(f64, &NeighborView) -> bool) -> bool {
        self.neighbors.iter().any(|n| n.at_level_one(&clause))
    }

    /// Listing 3's steps 3–5, the max-estimate branch: the mode when
    /// neither trigger holds.
    fn max_estimate_mode(&self) -> Mode {
        if self.logical >= self.max_estimate {
            // M_u is clamped to be >= L_u, so >= means equality.
            Mode::Slow
        } else if self.logical <= self.max_estimate - self.iota {
            Mode::Fast
        } else {
            self.current_mode
        }
    }
}

impl NeighborView {
    /// Whether this neighbour is in `N¹ᵤ` and has an estimate that meets
    /// `clause`, an existential clause at `s = 1`.
    fn at_level_one(&self, clause: impl Fn(f64, &NeighborView) -> bool) -> bool {
        self.level.includes(1) && self.estimate.is_some_and(|est| clause(est, self))
    }
}

/// Definition 4.5's existential clause for neighbour `n` at level `s`:
/// `L̃ʷᵤ − L_u ≥ s·κ − ε`. At `s = 1` the product is `κ` exactly.
fn ahead(logical: f64, est: f64, n: &NeighborView, s: f64) -> bool {
    est - logical >= s * n.kappa - n.epsilon
}

/// Definition 4.6's existential clause for neighbour `n` at level `s`,
/// given `sh = s + ½`: `L_u − L̃ʷᵤ ≥ (s+½)κ − δ − ε`. At `s = 1`, `sh` is
/// 1.5 exactly.
fn behind(logical: f64, est: f64, n: &NeighborView, sh: f64) -> bool {
    logical - est >= sh * n.kappa - n.delta - n.epsilon
}

/// The fast-mode trigger of Definition 4.5: there is a level `s ≥ 1` such
/// that some `w ∈ N^sᵤ` satisfies `L̃ʷᵤ − L_u ≥ s·κ − ε` while every
/// `v ∈ N^sᵤ` satisfies `L_u − L̃ᵛᵤ ≤ s·κ + 2µτ + ε`.
#[must_use]
pub fn fast_trigger(view: &NodeView<'_>, max_levels: u32) -> bool {
    if !view.any_at_level_one(|est, n| ahead(view.logical, est, n, 1.0)) {
        return false;
    }
    let limit = view.scan_limit(max_levels);
    for s in 1..=limit {
        let mut exists_ahead = false;
        let mut all_within = true;
        for n in view.neighbors {
            if !n.level.includes(s) {
                continue;
            }
            let sf = f64::from(s);
            match n.estimate {
                Some(est) => {
                    if ahead(view.logical, est, n, sf) {
                        exists_ahead = true;
                    }
                    if view.logical - est > sf * n.kappa + 2.0 * view.mu * n.tau + n.epsilon {
                        all_within = false;
                        break;
                    }
                }
                // Unknown neighbour state blocks the universal clause.
                None => {
                    all_within = false;
                    break;
                }
            }
        }
        if exists_ahead && all_within {
            return true;
        }
    }
    false
}

/// The slow-mode trigger of Definition 4.6: there is a level `s ≥ 1` such
/// that some `w ∈ N^sᵤ` satisfies `L_u − L̃ʷᵤ ≥ (s+½)κ − δ − ε` while every
/// `v ∈ N^sᵤ` satisfies `L̃ᵛᵤ − L_u ≤ (s+½)κ + δ + ε + µ(1+ρ)τ`.
#[must_use]
pub fn slow_trigger(view: &NodeView<'_>, max_levels: u32) -> bool {
    if !view.any_at_level_one(|est, n| behind(view.logical, est, n, 1.5)) {
        return false;
    }
    let limit = view.scan_limit(max_levels);
    for s in 1..=limit {
        let mut exists_behind = false;
        let mut all_within = true;
        for n in view.neighbors {
            if !n.level.includes(s) {
                continue;
            }
            let sh = f64::from(s) + 0.5;
            match n.estimate {
                Some(est) => {
                    if behind(view.logical, est, n, sh) {
                        exists_behind = true;
                    }
                    if est - view.logical
                        > sh * n.kappa + n.delta + n.epsilon + view.mu * (1.0 + view.rho) * n.tau
                    {
                        all_within = false;
                        break;
                    }
                }
                None => {
                    all_within = false;
                    break;
                }
            }
        }
        if exists_behind && all_within {
            return true;
        }
    }
    false
}

/// A decision-stability certificate: how far the decision inputs can move
/// before the mode just decided could possibly change.
///
/// All margins are in logical-clock units. The engine converts them into a
/// real-time horizon using the worst-case relative drift rates and skips
/// re-evaluating the node until the horizon expires or an event touches its
/// inputs — the decisions stay *bit-identical* to a full per-tick pass
/// because a node is only skipped while no compared quantity can have
/// crossed a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityCert {
    /// Minimum distance of any `L̃ᵥᵤ − L_u` difference to any trigger
    /// threshold (over both triggers, all clauses, all levels, all
    /// neighbours). `INFINITY` when no neighbour constrains the decision.
    pub estimate_margin: f64,
    /// How far `M_u − L_u` may *drift* (it only shrinks between merges)
    /// before the decision could change. `INFINITY` when the decision does
    /// not depend on it: a trigger fired, or the decision is `Slow`, which
    /// shrinking `m` can only re-confirm (via the `L = M` branch).
    pub m_margin: f64,
    /// Whether a discontinuous *upward* jump of `M_u` (a flood merge) can
    /// change the decision: true exactly when the decision was `Slow` with
    /// neither trigger firing — a merge lifting `M_u − L_u` to `≥ ι` then
    /// flips the node fast. The engine checks the lifted value against `ι`
    /// at each merge; jumps below `ι` land in the hysteresis band and keep
    /// the slow decision.
    pub m_jump_sensitive: bool,
}

/// A rule choosing a node's mode each evaluation step.
///
/// `A_OPT` implements Listing 3; the baseline crates provide alternatives
/// over the same [`NodeView`].
pub trait ModePolicy: fmt::Debug + Send {
    /// Decides the node's mode for the current instant.
    fn decide(&self, view: &NodeView<'_>) -> Mode;

    /// Short, stable policy name for reports.
    fn name(&self) -> &'static str;

    /// An optional [`StabilityCert`] for the decision just made. Policies
    /// that return `None` (the default) are re-evaluated every tick;
    /// policies that can bound their thresholds let the engine skip
    /// re-evaluations without changing any decision.
    fn stability(&self, _view: &NodeView<'_>, _decided: Mode) -> Option<StabilityCert> {
        None
    }

    /// Decision and certificate in one call — the engine's tick path.
    /// The default composes [`decide`](ModePolicy::decide) and
    /// [`stability`](ModePolicy::stability); policies whose two answers
    /// share work (like `A_OPT`'s trigger scans) override it.
    fn decide_and_certify(&self, view: &NodeView<'_>) -> (Mode, Option<StabilityCert>) {
        let mode = self.decide(view);
        let cert = self.stability(view, mode);
        (mode, cert)
    }

    /// The [`AoptPolicy`] this policy decides and certifies exactly as, if
    /// any. [`handlers::decide`](crate::handlers::decide) then tries
    /// `A_OPT`'s level-1 exit straight off the neighbour table before it
    /// fills any view. The default, `None`, always fills the views.
    fn as_aopt(&self) -> Option<&AoptPolicy> {
        None
    }
}

/// The paper's mode logic (Listing 3):
///
/// 1. slow trigger ⇒ slow,
/// 2. else fast trigger ⇒ fast,
/// 3. else `L_u = M_u` ⇒ slow (slow max-estimate trigger),
/// 4. else `L_u ≤ M_u − ι` ⇒ fast (fast max-estimate trigger),
/// 5. else keep the current mode (the free region; footnote 6).
#[derive(Debug, Clone, Copy)]
pub struct AoptPolicy {
    max_levels: u32,
}

impl AoptPolicy {
    /// Creates the policy with the given level-scan cap, normally
    /// [`Params::max_levels`](crate::Params::max_levels).
    ///
    /// # Panics
    ///
    /// If `max_levels` is 0, which [`ParamsBuilder::build`](crate::ParamsBuilder::build)
    /// refuses: no level would be scanned, and the certificate's level
    /// range `1..=max_levels` would be empty.
    #[must_use]
    pub fn new(max_levels: u32) -> Self {
        assert!(max_levels >= 1, "the trigger-level cap must be at least 1");
        AoptPolicy { max_levels }
    }
}

impl ModePolicy for AoptPolicy {
    fn decide(&self, view: &NodeView<'_>) -> Mode {
        self.listing3(view).0
    }

    fn name(&self) -> &'static str {
        "aopt"
    }

    fn stability(&self, view: &NodeView<'_>, decided: Mode) -> Option<StabilityCert> {
        let cap = self.max_levels;
        let triggered = slow_trigger(view, cap) || fast_trigger(view, cap);
        Some(self.certify(view, triggered, decided))
    }

    /// Decision and certificate sharing one pair of trigger scans — the
    /// tick-path entry point (the default would scan the triggers twice).
    fn decide_and_certify(&self, view: &NodeView<'_>) -> (Mode, Option<StabilityCert>) {
        let (mode, triggered) = self.listing3(view);
        (mode, Some(self.certify(view, triggered, mode)))
    }

    fn as_aopt(&self) -> Option<&AoptPolicy> {
        Some(self)
    }
}

impl AoptPolicy {
    /// Listing 3 over filled views: the mode, and whether a trigger
    /// (rather than the max-estimate branch) decided it.
    fn listing3(&self, view: &NodeView<'_>) -> (Mode, bool) {
        let cap = self.max_levels;
        if slow_trigger(view, cap) {
            (Mode::Slow, true)
        } else if fast_trigger(view, cap) {
            (Mode::Fast, true)
        } else {
            (view.max_estimate_mode(), false)
        }
    }

    /// Listing 3's decision is a pure function of (a) the comparison of
    /// each `d = L̃ᵥᵤ − L_u` against the four per-level threshold families
    /// of Definitions 4.5/4.6, (b) the comparison of `m = M_u − L_u`
    /// against `0` and `ι`, (c) neighbour level membership, and (d) the
    /// current mode. (c) and (d) only change at events or level unlocks
    /// (the engine bounds those separately); this certificate bounds (a)
    /// and (b).
    fn certify(&self, view: &NodeView<'_>, triggered: bool, decided: Mode) -> StabilityCert {
        let cap = f64::from(self.max_levels);
        let mut estimate_margin = f64::INFINITY;
        for n in view.neighbors {
            // A neighbour without an estimate blocks the universal clauses
            // until a delivery provides one — an event, not a drift.
            let Some(est) = n.estimate else { continue };
            estimate_margin = estimate_margin.min(threshold_margin(view, est, n, cap));
        }
        certificate(view, triggered, decided, estimate_margin)
    }

    /// Listing 3 for a node with no neighbour a level away, fed the
    /// neighbour views one at a time instead of as a filled slice.
    /// `own` carries the node's scalars (its `neighbors` is not read).
    ///
    /// Returns `None` at the first neighbour in `N¹ᵤ` whose estimate meets
    /// either trigger's existential clause at `s = 1`: the triggers must
    /// then scan their levels over filled views. Otherwise neither trigger
    /// holds (the level-1 exit; see the module doc), and the answer is
    /// what [`decide`](ModePolicy::decide) — or, with `certify`,
    /// [`decide_and_certify`](ModePolicy::decide_and_certify) — returns
    /// over the same views, bit for bit: the max-estimate branch, and the
    /// certificate with each neighbour's margin folded in as it streams
    /// by.
    // Forced inline, like `handlers`' per-neighbour view, so each view
    // stays in registers: without both, `churn-1k` ran about 20 % slower
    // than with the views filled.
    #[inline(always)]
    pub(crate) fn decide_streamed(
        &self,
        own: &NodeView<'_>,
        certify: bool,
        neighbors: impl Iterator<Item = NeighborView>,
    ) -> Option<(Mode, Option<StabilityCert>)> {
        let cap = f64::from(self.max_levels);
        let logical = own.logical;
        let mut estimate_margin = f64::INFINITY;
        for n in neighbors {
            if n.at_level_one(|est, n| ahead(logical, est, n, 1.0) || behind(logical, est, n, 1.5))
            {
                return None;
            }
            if certify {
                let Some(est) = n.estimate else { continue };
                estimate_margin = estimate_margin.min(threshold_margin(own, est, &n, cap));
            }
        }
        let mode = own.max_estimate_mode();
        let cert = certify.then(|| certificate(own, false, mode, estimate_margin));
        Some((mode, cert))
    }
}

/// How far neighbour `n`'s `d = L̃ᵥᵤ − L_u` may move before it crosses any
/// of the four threshold families of Definitions 4.5/4.6 at any level in
/// `1..=cap`. Each family is an arithmetic progression with step `κ`, so
/// the distance to its nearest threshold is a constant-time
/// nearest-integer computation.
fn threshold_margin(view: &NodeView<'_>, est: f64, n: &NeighborView, cap: f64) -> f64 {
    let d = est - view.logical;
    let inv_kappa = 1.0 / n.kappa;
    // FC exists:   d        >= s*k - eps
    let y1 = (d + n.epsilon) * inv_kappa;
    // FC forall:  -d        >  s*k + 2*mu*tau + eps
    let y2 = (-d - (2.0 * view.mu * n.tau + n.epsilon)) * inv_kappa;
    // SC exists:  -d        >= (s+1/2)*k - delta - eps
    let y3 = (-d + n.delta + n.epsilon) * inv_kappa - 0.5;
    // SC forall:   d        >  (s+1/2)*k + delta + eps + mu(1+rho)tau
    let y4 = (d - (n.delta + n.epsilon + view.mu * (1.0 + view.rho) * n.tau)) * inv_kappa - 0.5;
    let mut margin = f64::INFINITY;
    for y in [y1, y2, y3, y4] {
        margin = margin.min((y - nearest_level(y, cap)).abs() * n.kappa);
    }
    margin
}

/// The certificate of a decision whose neighbour margins fold to
/// `estimate_margin`. Within that margin both trigger outcomes are
/// pinned, so the decision's dependence on `m = M_u − L_u` follows from
/// the branch that decided it.
fn certificate(
    view: &NodeView<'_>,
    triggered: bool,
    decided: Mode,
    estimate_margin: f64,
) -> StabilityCert {
    let (m_margin, m_jump_sensitive) = if triggered {
        // A trigger decided; m is not consulted at all.
        (f64::INFINITY, false)
    } else if decided == Mode::Fast {
        // Fast via the max-estimate branch or hysteresis: stays fast
        // while m > 0 (the band only keeps it fast), flips slow
        // exactly when the clamp closes m to 0. Upward jumps only
        // re-confirm fast.
        let m = view.max_estimate - view.logical;
        (m.max(0.0), false)
    } else {
        // Slow with no trigger: drift only shrinks m, which keeps the
        // slow decision (via L = M at the bottom); only an upward
        // merge jump reaching iota flips it.
        (f64::INFINITY, true)
    };
    StabilityCert {
        estimate_margin,
        m_margin,
        m_jump_sensitive,
    }
}

/// The level in `1..=cap` nearest to `y`, bit for bit what
/// `y.round().clamp(1.0, cap)` returns. Below 1.5 that is always 1
/// (`round` gives at most 1 there and the clamp lifts anything lower), so
/// the common case, a neighbour within a level of the node, skips the
/// rounding; NaN fails the comparison and takes the general path.
fn nearest_level(y: f64, cap: f64) -> f64 {
    if y < 1.5 {
        1.0
    } else {
        y.round().clamp(1.0, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neighbor(est: f64, level: Level) -> NeighborView {
        NeighborView {
            estimate: Some(est),
            kappa: 1.0,
            epsilon: 0.05,
            tau: 0.01,
            delta: 0.2,
            level,
        }
    }

    fn view<'a>(logical: f64, m: f64, neighbors: &'a [NeighborView]) -> NodeView<'a> {
        NodeView {
            logical,
            max_estimate: m,
            current_mode: Mode::Slow,
            iota: 0.01,
            mu: 0.1,
            rho: 0.01,
            neighbors,
        }
    }

    #[test]
    fn mode_multiplier() {
        assert_eq!(Mode::Slow.multiplier(0.1), 1.0);
        assert!((Mode::Fast.multiplier(0.1) - 1.1).abs() < 1e-15);
        assert_eq!(Mode::Slow.to_string(), "slow");
    }

    #[test]
    fn fast_trigger_fires_when_neighbor_far_ahead() {
        // Neighbour ahead by 2.0 >= 1*kappa - eps; nobody behind.
        let ns = [neighbor(12.0, Level::Infinite)];
        assert!(fast_trigger(&view(10.0, 12.0, &ns), 64));
    }

    #[test]
    fn fast_trigger_blocked_by_laggard() {
        // One neighbour ahead, but another is far behind: must not race away.
        let ns = [
            neighbor(12.0, Level::Infinite),
            neighbor(5.0, Level::Infinite),
        ];
        assert!(!fast_trigger(&view(10.0, 12.0, &ns), 64));
    }

    #[test]
    fn fast_trigger_uses_higher_level_when_laggard_is_shallow() {
        // The laggard is only in N^1; at level 3 the leader alone counts.
        let ns = [
            neighbor(14.0, Level::Infinite), // ahead by 4 >= 3*kappa - eps
            neighbor(8.0, Level::Finite(1)), // behind by 2, blocks level 1..=1
        ];
        assert!(fast_trigger(&view(10.0, 14.0, &ns), 64));
    }

    #[test]
    fn slow_trigger_fires_when_neighbor_far_behind() {
        let ns = [neighbor(8.0, Level::Infinite)];
        assert!(slow_trigger(&view(10.0, 10.0, &ns), 64));
    }

    #[test]
    fn slow_trigger_blocked_by_leader() {
        let ns = [
            neighbor(8.0, Level::Infinite),
            neighbor(13.0, Level::Infinite),
        ];
        assert!(!slow_trigger(&view(10.0, 13.0, &ns), 64));
    }

    #[test]
    fn triggers_ignore_level_zero_neighbors() {
        // A freshly discovered neighbour (level 0) is invisible to triggers.
        let ns = [neighbor(100.0, Level::Finite(0))];
        let v = view(10.0, 10.0, &ns);
        assert!(!fast_trigger(&v, 64));
        assert!(!slow_trigger(&v, 64));
    }

    #[test]
    fn missing_estimate_blocks_universal_clauses() {
        let mut unknown = neighbor(0.0, Level::Infinite);
        unknown.estimate = None;
        let ns = [neighbor(12.0, Level::Infinite), unknown];
        assert!(!fast_trigger(&view(10.0, 12.0, &ns), 64));
    }

    #[test]
    fn triggers_are_disjoint_on_random_states() {
        // Lemma 5.3: with kappa > 4(eps + mu*tau) and delta within range,
        // the two triggers can never fire together. Randomized check.
        use rand::Rng;
        let mut rng = gcs_sim::rng::stream(99, "trigger-disjoint", 0);
        for _ in 0..5000 {
            let deg = rng.gen_range(1..5);
            let ns: Vec<NeighborView> = (0..deg)
                .map(|_| {
                    let level = if rng.gen_bool(0.3) {
                        Level::Finite(rng.gen_range(0..6))
                    } else {
                        Level::Infinite
                    };
                    NeighborView {
                        estimate: Some(rng.gen_range(-20.0..20.0)),
                        kappa: 1.0,
                        epsilon: 0.05,
                        tau: 0.01,
                        delta: 0.2,
                        level,
                    }
                })
                .collect();
            let v = view(rng.gen_range(-20.0..20.0), 25.0, &ns);
            assert!(
                !(fast_trigger(&v, 64) && slow_trigger(&v, 64)),
                "triggers fired together: {v:?}"
            );
        }
    }

    #[test]
    fn aopt_policy_follows_listing3_order() {
        let p = AoptPolicy::new(64);
        // Slow trigger dominates.
        let behind = [neighbor(8.0, Level::Infinite)];
        assert_eq!(p.decide(&view(10.0, 20.0, &behind)), Mode::Slow);
        // Fast trigger next.
        let ahead = [neighbor(12.0, Level::Infinite)];
        assert_eq!(p.decide(&view(10.0, 20.0, &ahead)), Mode::Fast);
        // Max-estimate slow when L = M.
        assert_eq!(p.decide(&view(10.0, 10.0, &[])), Mode::Slow);
        // Max-estimate fast when far below M.
        assert_eq!(p.decide(&view(10.0, 11.0, &[])), Mode::Fast);
        // Hysteresis region keeps the current mode.
        let mut v = view(10.0, 10.005, &[]);
        v.current_mode = Mode::Fast;
        assert_eq!(p.decide(&v), Mode::Fast);
        v.current_mode = Mode::Slow;
        assert_eq!(p.decide(&v), Mode::Slow);
    }

    #[test]
    fn max_node_is_never_fast() {
        // Theorem 5.6 prerequisite: a node at the network maximum with
        // M = L must be slow regardless of neighbours behind it.
        let p = AoptPolicy::new(64);
        let ns = [
            neighbor(5.0, Level::Infinite),
            neighbor(9.9, Level::Infinite),
        ];
        assert_eq!(p.decide(&view(10.0, 10.0, &ns)), Mode::Slow);
    }

    #[test]
    fn nearest_level_is_round_then_clamp_bit_for_bit() {
        use rand::Rng;
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
        let mut rng = gcs_sim::rng::stream(7, "nearest-level", 0);
        for cap in [1.0, 2.0, 64.0] {
            let mut ys = vec![
                1.5,
                1.5f64.next_down(),
                1.5f64.next_up(),
                0.5,
                -0.5,
                2.5,
                cap - 0.5,
                cap + 0.5,
                1e300,
                -1e300,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ];
            ys.extend((0..10_000).map(|_| rng.gen_range(-4.0..cap + 4.0)));
            for y in ys {
                let (got, want) = (nearest_level(y, cap), y.round().clamp(1.0, cap));
                assert!(same(got, want), "y = {y}, cap = {cap}: {got} != {want}");
            }
        }
    }
}
