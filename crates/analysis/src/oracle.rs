//! Paper-bound conformance oracles: the theorems of Kuhn–Lenzen–Locher–
//! Oshman checked as machine oracles over a running simulation.
//!
//! Given the validated [`Params`] and the *realized* dynamic graph (the
//! level sets, effective weights, and the fault/insertion
//! [`change_log`](Simulation::change_log) of a live [`Simulation`]), a
//! [`ConformanceChecker`] verifies every sampled snapshot against three
//! bound families:
//!
//! 1. **Global-skew envelope** (Theorem 5.6): `G(t) ≤ Ĝ`, widened by a
//!    *decaying* self-stabilization allowance after every injected clock
//!    corruption (§5.2: excess skew drains at rate at least
//!    `µ(1−ρ) − 2ρ` once the flood bounds have re-converged) and by a
//!    *growing* `β − α` allowance while the realized graph is
//!    disconnected (across an open cut the model bounds nothing: the
//!    components' logical clocks can spread at the full rate envelope).
//! 2. **Gradient (local-skew) bound** (Theorem 5.22 via Lemma 5.14 and
//!    Corollary 7.10): for every pair connected in the *fully inserted*
//!    graph `G_∞(t)`, `|L_u − L_v| ≤ (s(p) + 1)·κ_p` with
//!    `s(p) = max{2 + ⌈log_σ(4Ĝ/κ_p)⌉, 1}` — the `O(log n)` gradient.
//!    Checked pairwise and aggregated per hop-distance class.
//! 3. **Weak-edge bound**: an edge still climbing the staged-insertion
//!    levels (unlocked to some finite `s ≥ 1`, not yet fully inserted) is
//!    only promised the level-`s` legality bound
//!    `(s + ½)·κ_e + C_s/2` with `C_s = 2Ĝ/σ^{max(s−2,0)}`
//!    (Definition 5.13 / Lemma 5.14) — for `s ≤ 2` that is ≈ `Ĝ`, which
//!    is exactly why fresh edges must not be held to the strong gradient.
//!
//! The checker is deterministic and read-only: feeding it bit-identical
//! snapshots produces bit-identical [`ConformanceReport`]s (the engine
//! equivalence suite leans on this).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

use gcs_core::{ChangeRecord, Params, Simulation};
use gcs_net::{EdgeKey, NodeId};
use rand::{rngs::StdRng, Rng as _, SeedableRng as _};

use crate::legality::{gradient_bound, gradient_sequence};
use crate::parallel::{parallelism, run_workers, spawn_workers};
use crate::paths::{HopGraph, HopScratch, WeightedGraph};

/// Stratified pair-sampling mode for the gradient sweep — the
/// `--oracle-sample` knob that makes conformance practical at 10⁴–10⁵
/// nodes.
///
/// The exact gradient pass is all-pairs: one Dijkstra+BFS sweep per
/// source plus an `O(n)` pair loop, `O(n·(m log n + n))` per snapshot.
/// Sampled mode draws `K = max(min_sources, ⌈rate · n⌉)` *source* nodes
/// per snapshot from a seeded, deterministic RNG (a fresh draw at every
/// snapshot) and runs the identical sweep from only those sources,
/// against **every** target. Because one sweep touches every hop class
/// reachable from its source, each sampled source stratifies the checks
/// across the full hop-class range — no class is silently skipped, which
/// is what makes per-class worst-skew statistics meaningful under
/// sampling.
///
/// **Detection bound.** A fixed violating pair `(u, v)` is checked
/// whenever `u` or `v` is drawn. Drawing `K` of `n` sources without
/// replacement, the chance the pair escapes one snapshot is
/// `C(n−2, K)/C(n, K) = (n−K)(n−K−1)/(n(n−1)) ≤ (1 − rate)²`, and the
/// draws are independent across snapshots, so a violation persisting for
/// `S` sampled snapshots escapes the whole run with probability at most
/// `(1 − rate)^{2S}` (≈ `e^{−2·rate·S}`). [`escape_probability`]
/// evaluates the exact per-snapshot bound.
///
/// **Conservatism.** Every check sampled mode performs is one the exact
/// sweep also performs, with bit-identical arithmetic — so the sampled
/// report's worst case can only be *weaker*: per family and per hop
/// class, `worst_skew` and `worst_utilization` lower-bound the exact
/// sweep's and `min_margin` upper-bounds it, and sampled mode never
/// reports a violation the exact oracle would not. (Property-tested in
/// `tests/oracle_sampling.rs`.)
///
/// The draw depends only on `(seed, snapshot index, n)` — never on the
/// engine — so sampled reports are bit-identical across shard counts.
///
/// [`escape_probability`]: OracleSampling::escape_probability
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleSampling {
    /// Target fraction of sources swept per snapshot, in `(0, 1]`.
    pub rate: f64,
    /// Seed of the deterministic sampling RNG (mixed with the snapshot
    /// index so consecutive snapshots draw different strata).
    pub seed: u64,
    /// Coverage floor: at least this many sources per snapshot, so tiny
    /// graphs under an aggressive `rate` still get a meaningful sweep.
    pub min_sources: usize,
}

impl OracleSampling {
    /// Sampling at fraction `rate` with the default coverage floor.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < rate ≤ 1`.
    #[must_use]
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(
            rate > 0.0 && rate <= 1.0,
            "oracle sample rate must be in (0, 1], got {rate}"
        );
        OracleSampling {
            rate,
            seed,
            min_sources: 8,
        }
    }

    /// Sources drawn per snapshot on an `n`-node graph:
    /// `min(n, max(min_sources, ⌈rate · n⌉))`.
    #[must_use]
    pub fn sources_for(&self, n: usize) -> usize {
        let k = (self.rate * n as f64).ceil() as usize;
        k.max(self.min_sources).min(n)
    }

    /// The documented detection-probability knob: the exact probability
    /// that one fixed violating pair is missed by a single snapshot's
    /// draw, `(n−K)(n−K−1) / (n(n−1))` with `K =`
    /// [`sources_for`](Self::sources_for)`(n)` — at most `(1 − rate)²`.
    /// Independent draws per snapshot compound this exponentially for
    /// persistent violations.
    #[must_use]
    pub fn escape_probability(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let k = self.sources_for(n) as f64;
        let n = n as f64;
        ((n - k) * (n - k - 1.0) / (n * (n - 1.0))).max(0.0)
    }
}

/// Tuning of the conformance envelope. Everything is derived from the
/// simulation's own parameters by [`OracleConfig::for_sim`]; the fields
/// are public so tests can sharpen or (deliberately) mis-specify them.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// The global-skew anchor `Ĝ` every bound is expressed against
    /// (normally the run's `G̃`, which Theorem 5.6 guarantees).
    pub g_hat: f64,
    /// Additive slack on every check: trigger discretization plus one
    /// sampling period of relative clock movement.
    pub slack: f64,
    /// Credited drain rate of the post-corruption allowance, seconds of
    /// skew per second. Half the guaranteed `µ(1−ρ) − 2ρ` by default —
    /// the guarantee holds once the flood bounds have re-converged, and
    /// halving it absorbs propagation hiccups.
    pub recovery_rate: f64,
    /// Seconds after a corruption before its allowance starts draining
    /// (the gossip rounds the §5.2 re-convergence needs).
    pub recovery_latency: f64,
    /// Whether injected clock faults earn a decaying allowance. Disabling
    /// this holds a corrupted run to the *undisturbed* envelope — the
    /// knob negative-path tests use to prove violations are caught.
    pub credit_faults: bool,
    /// Stratified pair sampling for the gradient sweep; `None` (the
    /// default) is the exact all-pairs pass. See [`OracleSampling`].
    pub sampling: Option<OracleSampling>,
}

impl OracleConfig {
    /// Derives the envelope configuration from a built simulation: `Ĝ`
    /// from the run's `G̃`, slack from the trigger discretization plus
    /// `sample_period` of relative drift, recovery from the paper's rate.
    ///
    /// # Panics
    ///
    /// Panics if the simulation carries no `G̃` (the builder always
    /// derives one) or `sample_period` is negative.
    #[must_use]
    pub fn for_sim(sim: &Simulation, sample_period: f64) -> Self {
        assert!(sample_period >= 0.0, "sample period must be non-negative");
        let params = sim.params();
        let g_hat = params
            .g_tilde()
            .expect("simulation builder always derives a G~");
        let rate = params.mu() * (1.0 - params.rho()) - 2.0 * params.rho();
        let gossip_hop = sim.refresh_interval() / params.alpha() + sim.tick_interval();
        OracleConfig {
            g_hat,
            slack: params.discretization_slack(sim.tick_interval())
                + sample_period * (params.beta() - params.alpha()),
            recovery_rate: (0.5 * rate).max(0.0),
            recovery_latency: sim.node_count() as f64 * gossip_hop,
            credit_faults: true,
            sampling: None,
        }
    }
}

/// Aggregated outcome of one bound family across all observed samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCheck {
    /// Individual `(observed, allowed)` comparisons made.
    pub checks: u64,
    /// Comparisons where the observed value exceeded the allowed bound.
    pub violations: u64,
    /// Sample time of the first violation, if any.
    pub first_violation: Option<f64>,
    /// The tightest margin seen: `min(allowed − observed)`. Negative iff
    /// a violation occurred; `INFINITY` if nothing was checked.
    pub min_margin: f64,
    /// The worst utilization seen: `max(observed / allowed)`.
    pub worst_utilization: f64,
}

impl BoundCheck {
    fn new() -> Self {
        BoundCheck {
            checks: 0,
            violations: 0,
            first_violation: None,
            min_margin: f64::INFINITY,
            worst_utilization: 0.0,
        }
    }

    fn record(&mut self, t: f64, observed: f64, allowed: f64) {
        self.checks += 1;
        let margin = allowed - observed;
        if margin < self.min_margin {
            self.min_margin = margin;
        }
        let util = observed / allowed;
        if util > self.worst_utilization {
            self.worst_utilization = util;
        }
        if margin < 0.0 {
            self.violations += 1;
            if self.first_violation.is_none() {
                self.first_violation = Some(t);
            }
        }
    }

    /// Adds the comparisons `later` aggregated — none of them earlier
    /// than any of `self`'s. Integer sums and f64 min/max only, so any
    /// split of one instant's comparisons merges to the same bits.
    fn merge(&mut self, later: &BoundCheck) {
        self.checks += later.checks;
        self.violations += later.violations;
        self.first_violation = self.first_violation.or(later.first_violation);
        self.min_margin = self.min_margin.min(later.min_margin);
        self.worst_utilization = self.worst_utilization.max(later.worst_utilization);
    }

    /// Whether every comparison stayed within its bound.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations == 0
    }
}

/// Worst case observed for one hop-distance class of the fully inserted
/// graph — how the measured gradient compares against the Theorem 5.22
/// bound at each distance.
#[derive(Debug, Clone, PartialEq)]
pub struct HopClass {
    /// Hop distance `d ≥ 1` in `G_∞(t)`.
    pub hops: u32,
    /// Pair samples observed at this distance (across all instants).
    pub pairs: u64,
    /// Largest `|L_u − L_v|` seen at this distance.
    pub worst_skew: f64,
    /// Tightest margin (`allowed − observed`) seen at this distance.
    pub min_margin: f64,
    /// Worst `observed / allowed` at this distance.
    pub worst_utilization: f64,
}

impl HopClass {
    /// Adds `pairs` pair samples with the given worst case among them.
    fn absorb(&mut self, pairs: u64, worst_skew: f64, min_margin: f64, worst_utilization: f64) {
        self.pairs += pairs;
        self.worst_skew = self.worst_skew.max(worst_skew);
        self.min_margin = self.min_margin.min(min_margin);
        self.worst_utilization = self.worst_utilization.max(worst_utilization);
    }
}

/// The class of hop distance `d` in a dense `d = 1`-first table, which
/// grows to cover it. Only the appended classes are written, so growing
/// one class at a time to `D` classes costs `O(D)`.
fn hop_class_mut(per_hop: &mut Vec<HopClass>, d: u32) -> &mut HopClass {
    for hops in per_hop.len() as u32 + 1..=d {
        per_hop.push(HopClass {
            hops,
            pairs: 0,
            worst_skew: 0.0,
            min_margin: f64::INFINITY,
            worst_utilization: 0.0,
        });
    }
    &mut per_hop[d as usize - 1]
}

/// Hop classes [`ConformanceReport::to_table`] prints one row each
/// however many there are.
const TABLE_NEAR_HOPS: u32 = 16;

/// The per-run verdict of the conformance oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// The anchor `Ĝ` the bounds were expressed against.
    pub g_hat: f64,
    /// Additive slack applied to every bound.
    pub slack: f64,
    /// Snapshots observed.
    pub samples: u64,
    /// Global-skew envelope results (Theorem 5.6 + §5.2 allowance).
    pub global: BoundCheck,
    /// Pairwise gradient results over `G_∞(t)` (Theorem 5.22).
    pub gradient: BoundCheck,
    /// Weak-edge results (level-`s` legality, Lemma 5.14).
    pub weak_edges: BoundCheck,
    /// Per-hop-distance worst cases of the gradient check, `d = 1` first.
    pub per_hop: Vec<HopClass>,
    /// Total gradient sources swept under [`OracleSampling`], across all
    /// snapshots; `0` when the exact all-pairs mode ran.
    pub sampled_sources: u64,
    /// Clock corruptions replayed from the realized change log.
    pub faults_seen: u64,
    /// Scripted estimate corruptions replayed. These are *in-model*
    /// adversaries (the estimate layer is permitted exactly that error),
    /// so they earn no envelope allowance — counted for the record only.
    pub est_faults_seen: u64,
    /// Directed edge appearances replayed.
    pub insertions_seen: u64,
    /// Directed edge disappearances replayed.
    pub removals_seen: u64,
    /// Samples at which the realized graph was disconnected.
    pub disconnected_samples: u64,
}

impl ConformanceReport {
    /// Whether every check of every family passed.
    #[must_use]
    pub fn is_conformant(&self) -> bool {
        self.global.passed() && self.gradient.passed() && self.weak_edges.passed()
    }

    /// The chaos-search objective: the worst margin utilization observed
    /// across all three bound families, as `(family name, observed /
    /// allowed)`. `1.0` is a bound violation; the adversary search
    /// hill-climbs this toward it. Family order breaks exact ties
    /// (global, then gradient, then weak edges), so the extraction is
    /// deterministic.
    #[must_use]
    pub fn worst_utilization(&self) -> (&'static str, f64) {
        let mut worst = ("global", self.global.worst_utilization);
        for (name, check) in [
            ("gradient", &self.gradient),
            ("weak-edges", &self.weak_edges),
        ] {
            if check.worst_utilization > worst.1 {
                worst = (name, check.worst_utilization);
            }
        }
        worst
    }

    /// The earliest violation instant across all families, if any.
    #[must_use]
    pub fn first_violation(&self) -> Option<f64> {
        [&self.global, &self.gradient, &self.weak_edges]
            .into_iter()
            .filter_map(|c| c.first_violation)
            .min_by(f64::total_cmp)
    }

    /// One human-readable line per violated bound family.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push = |name: &str, c: &BoundCheck| {
            if !c.passed() {
                out.push(format!(
                    "{name}: {}/{} checks violated (first at t={:.3}s, worst margin {:.6})",
                    c.violations,
                    c.checks,
                    c.first_violation.unwrap_or(f64::NAN),
                    c.min_margin,
                ));
            }
        };
        push("global-skew envelope (Thm 5.6)", &self.global);
        push("gradient bound (Thm 5.22)", &self.gradient);
        push("weak-edge bound (Lemma 5.14)", &self.weak_edges);
        out
    }

    /// Renders the per-family and per-hop-class results as a printable
    /// [`Table`](crate::Table). Every hop class up to `d = 16` gets a
    /// row; further out only the worst-use and the min-margin class do,
    /// and one summary row covers the rest (a 10⁵-node ring has 50 000
    /// classes).
    #[must_use]
    pub fn to_table(&self) -> crate::Table {
        let mut t = crate::Table::new(
            format!(
                "conformance vs paper bounds (G^ = {:.4}, {} samples)",
                self.g_hat, self.samples
            ),
            &[
                "bound",
                "checks",
                "violations",
                "first viol.",
                "min margin",
                "worst use",
            ],
        );
        t.caption(
            "global = Theorem 5.6 envelope (with self-stabilization and partition \
             allowances); gradient = the Theorem 5.22 pairwise bound over the fully \
             inserted graph, also broken out per hop distance; weak d=... rows cover \
             edges still climbing the staged-insertion levels (Lemma 5.14).",
        );
        let fam = |t: &mut crate::Table, name: String, c: &BoundCheck| {
            t.row([
                name,
                c.checks.to_string(),
                c.violations.to_string(),
                c.first_violation
                    .map_or("-".to_string(), |v| format!("{v:.3}s")),
                if c.checks == 0 {
                    "-".to_string()
                } else {
                    crate::report::fmt_val(c.min_margin)
                },
                if c.checks == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}%", 100.0 * c.worst_utilization)
                },
            ]);
        };
        fam(&mut t, "global".to_string(), &self.global);
        fam(&mut t, "gradient".to_string(), &self.gradient);
        fam(&mut t, "weak edges".to_string(), &self.weak_edges);
        let hop_row = |t: &mut crate::Table, name: String, h: &HopClass| {
            t.row([
                name,
                h.pairs.to_string(),
                "-".to_string(),
                "-".to_string(),
                crate::report::fmt_val(h.min_margin),
                format!("{:.1}%", 100.0 * h.worst_utilization),
            ]);
        };
        // The first class of the worst use and of the least margin.
        let worst = |better: fn(&HopClass, &HopClass) -> bool| {
            self.per_hop
                .iter()
                .reduce(|a, b| if better(b, a) { b } else { a })
                .map(|h| h.hops)
        };
        let worst_use = worst(|a, b| a.worst_utilization > b.worst_utilization);
        let least_margin = worst(|a, b| a.min_margin < b.min_margin);
        // The elided classes summed into the first of them, and the last.
        let mut rest: Option<(HopClass, u32)> = None;
        for h in &self.per_hop {
            if h.hops <= TABLE_NEAR_HOPS
                || Some(h.hops) == worst_use
                || Some(h.hops) == least_margin
            {
                hop_row(&mut t, format!("gradient d={}", h.hops), h);
            } else if let Some((sum, last)) = &mut rest {
                sum.absorb(h.pairs, h.worst_skew, h.min_margin, h.worst_utilization);
                *last = h.hops;
            } else {
                rest = Some((h.clone(), h.hops));
            }
        }
        if let Some((sum, last)) = rest {
            let name = format!("gradient d={}..{last} (rest)", sum.hops);
            hop_row(&mut t, name, &sum);
        }
        t
    }
}

/// One still-draining corruption allowance.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultAllowance {
    at: f64,
    magnitude: f64,
}

/// A snapshot's gradient sweep stays on the calling thread below this
/// many units of BFS work, `sources × (nodes + edges)`. Measured on the
/// 2-vCPU reference container (rings and tori of 16 to 10⁵ nodes, exact
/// and sampled, one worker against two): a unit costs 3–8 ns, spawning
/// and joining two scoped workers 30–55 µs, and two workers first break
/// even at 2¹⁵–2¹⁷ units, inside the timing noise. From 2²⁰ units — a
/// 3–8 ms sweep — up, two workers took 0.39–0.73 of one worker's time on
/// every graph, and the fan-out costs about 1 % of what it splits. Every
/// `tiny`-scale campaign scenario sits orders of magnitude below it.
const FAN_OUT_MIN_WORK: usize = 1 << 20;

/// What a gradient sweep accumulates over the pairs it visits: one
/// worker's share, or all workers' shares merged. Every field is an
/// integer sum or an f64 min/max over pairs (and all pairs of one sweep
/// share the instant `t`), so the merged result is bit-identical however
/// the sources were split.
#[derive(Debug, Clone, PartialEq)]
struct SweepPartial {
    // Weight-uniform snapshots: pair count and worst skew per hop class
    // (indexed by d − 1) — all the fused BFS sweep touches per pair.
    // `fold_uniform_gradient` turns them into report updates.
    class_pairs: Vec<u64>,
    class_skew: Vec<f64>,
    // Other snapshots: every pair recorded against its own Dijkstra bound.
    // The violation re-count of a uniform snapshot tallies into
    // `gradient.violations` alone.
    gradient: BoundCheck,
    per_hop: Vec<HopClass>,
}

impl Default for SweepPartial {
    fn default() -> Self {
        SweepPartial {
            class_pairs: Vec::new(),
            class_skew: Vec::new(),
            gradient: BoundCheck::new(),
            per_hop: Vec::new(),
        }
    }
}

impl SweepPartial {
    fn clear(&mut self) {
        self.class_pairs.clear();
        self.class_skew.clear();
        self.gradient = BoundCheck::new();
        self.per_hop.clear();
    }

    fn merge(&mut self, other: &SweepPartial) {
        if self.class_pairs.len() < other.class_pairs.len() {
            self.class_pairs.resize(other.class_pairs.len(), 0);
            self.class_skew.resize(other.class_skew.len(), 0.0);
        }
        for (mine, theirs) in self.class_pairs.iter_mut().zip(&other.class_pairs) {
            *mine += theirs;
        }
        for (mine, theirs) in self.class_skew.iter_mut().zip(&other.class_skew) {
            *mine = mine.max(*theirs);
        }
        self.gradient.merge(&other.gradient);
        merge_per_hop(&mut self.per_hop, &other.per_hop);
    }
}

fn merge_per_hop(into: &mut Vec<HopClass>, from: &[HopClass]) {
    for c in from {
        hop_class_mut(into, c.hops).absorb(
            c.pairs,
            c.worst_skew,
            c.min_margin,
            c.worst_utilization,
        );
    }
}

/// The common weight of `edges`, if there is at least one and every
/// weight is bitwise identical: [`WeightedGraph::uniform_weight`] of the
/// graph they would build, without building it.
fn uniform_weight(edges: &[(EdgeKey, f64)]) -> Option<f64> {
    let (&(_, w), rest) = edges.split_first()?;
    rest.iter()
        .all(|&(_, k)| k.to_bits() == w.to_bits())
        .then_some(w)
}

/// A snapshot whose strong graph is one path or one cycle, laid out in
/// walk order ([`HopGraph::walk_order`]) so the weight-uniform passes read
/// hop class `d` of walk position `p` at positions `p ± d` instead of
/// running a BFS. The three buffers are kept between snapshots.
#[derive(Debug, Clone, Default)]
struct WalkLayout {
    order: Vec<u32>,
    /// Each node's walk position.
    pos: Vec<u32>,
    /// The clocks in walk order — a cycle's twice over, so `p + d` and
    /// `p + n − d` index it without a modulo.
    clock: Vec<f64>,
    closed: bool,
}

/// One source's targets in classes `lo..=hi`: class `d`'s are
/// `clock[fwd + d]` and `clock[back − d]`, for each side that is set.
#[derive(Debug, Clone, Copy)]
struct WalkRun {
    lo: usize,
    hi: usize,
    fwd: Option<usize>,
    back: Option<usize>,
}

impl WalkLayout {
    /// Lays out this snapshot's strong graph and its clocks, and returns
    /// whether it is a path or a cycle (else the buffers are stale).
    fn fill(&mut self, hop_graph: &HopGraph, logical: &[f64]) -> bool {
        let Some(closed) = hop_graph.walk_order(&mut self.order) else {
            return false;
        };
        let n = self.order.len();
        self.closed = closed;
        self.pos.resize(n, 0);
        self.clock.clear();
        self.clock.reserve_exact(if closed { 2 * n } else { n });
        for (p, &u) in self.order.iter().enumerate() {
            self.pos[u as usize] = p as u32;
            self.clock.push(logical[u as usize]);
        }
        if closed {
            self.clock.extend_from_within(..n);
        }
        true
    }

    /// The targets of walk position `p`, as at most two runs of hop
    /// classes. `both_ways` (a drawn source) reaches every other node.
    /// Otherwise (the exact pass) `p` reaches only the nodes after it in
    /// walk order, and an even cycle's antipode only from its first half,
    /// so every unordered pair comes once.
    fn runs(&self, p: usize, both_ways: bool) -> [WalkRun; 2] {
        let n = self.pos.len();
        let none = WalkRun {
            lo: 1,
            hi: 0,
            fwd: None,
            back: None,
        };
        if self.closed {
            let antipode = n.is_multiple_of(2) && (both_ways || p < n / 2);
            [
                WalkRun {
                    lo: 1,
                    hi: (n - 1) / 2,
                    fwd: Some(p),
                    back: both_ways.then_some(p + n),
                },
                if antipode {
                    WalkRun {
                        lo: n / 2,
                        hi: n / 2,
                        fwd: Some(p),
                        back: None,
                    }
                } else {
                    none
                },
            ]
        } else if both_ways {
            let (ahead, behind) = (n - 1 - p, p);
            let near = ahead.min(behind);
            [
                WalkRun {
                    lo: 1,
                    hi: near,
                    fwd: Some(p),
                    back: Some(p),
                },
                WalkRun {
                    lo: near + 1,
                    hi: ahead.max(behind),
                    fwd: (ahead > behind).then_some(p),
                    back: (behind > ahead).then_some(p),
                },
            ]
        } else {
            [
                WalkRun {
                    lo: 1,
                    hi: n - 1 - p,
                    fwd: Some(p),
                    back: None,
                },
                none,
            ]
        }
    }
}

/// Raises each class's worst skew to that of its target in `targets`.
fn raise_class_skew<'a>(worst: &mut [f64], lu: f64, targets: impl Iterator<Item = &'a f64>) {
    for (cur, &lv) in worst.iter_mut().zip(targets) {
        let skew = (lu - lv).abs();
        // `if skew > cur`, written as a select so the loop vectorizes.
        *cur = if skew > *cur { skew } else { *cur };
    }
}

/// [`raise_class_skew`] for a two-sided run, in one pass: each class
/// takes its `ahead` target, then its `behind` one — the same selects, in
/// the same order, as two one-sided passes.
fn raise_class_skew_both<'a>(
    worst: &mut [f64],
    lu: f64,
    ahead: impl Iterator<Item = &'a f64>,
    behind: impl Iterator<Item = &'a f64>,
) {
    for ((cur, &la), &lb) in worst.iter_mut().zip(ahead).zip(behind) {
        let (sa, sb) = ((lu - la).abs(), (lu - lb).abs());
        let first = if sa > *cur { sa } else { *cur };
        *cur = if sb > first { sb } else { first };
    }
}

/// Targets in `targets` whose skew exceeds their class's bound.
fn count_breaches<'a>(allowed: &[f64], lu: f64, targets: impl Iterator<Item = &'a f64>) -> u64 {
    allowed
        .iter()
        .zip(targets)
        .filter(|&(&a, &lv)| a - (lu - lv).abs() < 0.0)
        .count() as u64
}

/// [`count_breaches`] for a two-sided run, in one pass.
fn count_breaches_both<'a>(
    allowed: &[f64],
    lu: f64,
    ahead: impl Iterator<Item = &'a f64>,
    behind: impl Iterator<Item = &'a f64>,
) -> u64 {
    allowed
        .iter()
        .zip(ahead)
        .zip(behind)
        .map(|((&a, &la), &lb)| {
            u64::from(a - (lu - la).abs() < 0.0) + u64::from(a - (lu - lb).abs() < 0.0)
        })
        .sum()
}

/// One sweep worker's private scratch, kept between snapshots.
#[derive(Debug, Clone, Default)]
struct SweepWorker {
    bfs: HopScratch,
    kdist: Vec<f64>,
    partial: SweepPartial,
}

/// What a sweep does with each pair it reaches.
#[derive(Debug, Clone, Copy)]
enum SweepPass {
    /// Weight-uniform snapshot: the weighted distance to a hop-`d` target
    /// is the `d`-fold running sum of the common weight, so the bound is
    /// a pure function of the hop class and the Dijkstra is skipped. The
    /// sweep only accumulates each class's pair count and worst skew;
    /// the per-class bound comparison is folded into the report once per
    /// snapshot. Bit-identical to the weighted pass: Dijkstra settles a
    /// hop-`d` node via a hop-`(d−1)` predecessor at exactly the running
    /// sum, division by a (positive) bound and subtraction from it are
    /// monotone in the skew, and running min/max are order-invariant.
    /// On a path or cycle ([`WalkLayout`]) the BFS goes too: class `d` of
    /// walk position `p` is the clocks at `p ± d`, so the hot loop is two
    /// loads, a subtract, and a compare per pair, over consecutive
    /// memory, and the pair counts come in closed form. It visits the
    /// same (pair, class) set as the BFS (`fl(a − b) = −fl(b − a)` makes
    /// the skew independent of which end is the source), so the
    /// accumulators are bit-identical. This is what keeps the sampled
    /// oracle at 10⁵-node scale inside the CI smoke budget.
    UniformClasses,
    /// Any other snapshot: Dijkstra from the source, then the Theorem
    /// 5.22 bound for every reached target, recorded pair by pair.
    Weighted,
    /// Weight-uniform snapshot with a breached class: count the pairs
    /// whose skew exceeds their class's (already cached) bound.
    UniformViolations,
}

/// The gradient check's inputs that are fixed once a snapshot's global
/// family has been checked and its sources drawn.
#[derive(Debug, Clone, Copy)]
struct GradientInstant {
    t: f64,
    allowance: f64,
    slack: f64,
    /// Sources drawn into `pool[..k]` (sampled mode), or `None` (exact).
    sampled_k: Option<usize>,
    forced_workers: Option<usize>,
}

/// One pass over one snapshot's sources: everything the workers share,
/// read-only.
struct Sweep<'a> {
    pass: SweepPass,
    /// The drawn sources, each swept against every target (a pair whose
    /// both endpoints are drawn is recorded twice, which leaves every
    /// worst-case statistic unchanged because skew and bound are
    /// symmetric); `None` sweeps every node against the higher-indexed
    /// targets only, each unordered pair once.
    sources: Option<&'a [u32]>,
    hop_graph: &'a HopGraph,
    /// The snapshot in walk order, if its strong graph is a path or a
    /// cycle; the uniform passes then read it instead of running a BFS.
    walk: Option<&'a WalkLayout>,
    /// The weighted strong graph: current only on a snapshot of mixed
    /// weights, the one the [`SweepPass::Weighted`] pass reads.
    strong: &'a WeightedGraph,
    logical: &'a [f64],
    allowed_by_hop: &'a [f64],
    params: &'a Params,
    g_hat: f64,
    at: GradientInstant,
}

impl Sweep<'_> {
    /// Sweeps the `i`-th source into `w.partial`.
    fn sweep_source(&self, i: usize, w: &mut SweepWorker) {
        if let Some(walk) = self.walk {
            return self.sweep_walk(walk, i, &mut w.partial);
        }
        let (u, v_lo) = match self.sources {
            Some(drawn) => (drawn[i] as usize, 0),
            None => (i, i + 1),
        };
        let src = NodeId::from(u);
        let logical = self.logical;
        let lu = logical[u];
        let SweepWorker {
            bfs,
            kdist,
            partial,
        } = w;
        match self.pass {
            SweepPass::UniformClasses => {
                let SweepPartial {
                    class_pairs,
                    class_skew,
                    ..
                } = partial;
                self.hop_graph.for_each_reached(src, bfs, |v, d| {
                    if v < v_lo {
                        return;
                    }
                    let idx = d as usize - 1;
                    if idx >= class_pairs.len() {
                        class_pairs.resize(idx + 1, 0);
                        class_skew.resize(idx + 1, 0.0);
                    }
                    class_pairs[idx] += 1;
                    let skew = (lu - logical[v]).abs();
                    if skew > class_skew[idx] {
                        class_skew[idx] = skew;
                    }
                });
            }
            SweepPass::Weighted => {
                self.strong.distances_into(src, kdist);
                self.hop_graph.for_each_reached(src, bfs, |v, d| {
                    if v < v_lo {
                        return;
                    }
                    let skew = (lu - logical[v]).abs();
                    let allowed = gradient_bound(self.params, self.g_hat, kdist[v])
                        + self.at.allowance
                        + self.at.slack;
                    partial.gradient.record(self.at.t, skew, allowed);
                    hop_class_mut(&mut partial.per_hop, d).absorb(
                        1,
                        skew,
                        allowed - skew,
                        skew / allowed,
                    );
                });
            }
            SweepPass::UniformViolations => {
                self.hop_graph.for_each_reached(src, bfs, |v, d| {
                    if v < v_lo {
                        return;
                    }
                    let skew = (lu - logical[v]).abs();
                    if self.allowed_by_hop[d as usize] - skew < 0.0 {
                        partial.gradient.violations += 1;
                    }
                });
            }
        }
    }

    /// [`sweep_source`](Self::sweep_source) on a path or cycle: the `i`-th
    /// drawn source, or walk position `i` in the exact pass.
    fn sweep_walk(&self, walk: &WalkLayout, i: usize, partial: &mut SweepPartial) {
        let (p, both_ways) = match self.sources {
            Some(drawn) => (walk.pos[drawn[i] as usize] as usize, true),
            None => (i, false),
        };
        let clock = &walk.clock[..];
        let lu = clock[p];
        for run in walk.runs(p, both_ways) {
            let WalkRun { lo, hi, fwd, back } = run;
            if lo > hi {
                continue;
            }
            let ahead = fwd.map(|f| clock[f + lo..=f + hi].iter());
            let behind = back.map(|b| clock[b - hi..=b - lo].iter().rev());
            match self.pass {
                SweepPass::UniformClasses => {
                    let SweepPartial {
                        class_pairs,
                        class_skew,
                        ..
                    } = partial;
                    if class_pairs.len() < hi {
                        class_pairs.resize(hi, 0);
                        class_skew.resize(hi, 0.0);
                    }
                    let sides = u64::from(fwd.is_some()) + u64::from(back.is_some());
                    for pairs in &mut class_pairs[lo - 1..hi] {
                        *pairs += sides;
                    }
                    let worst = &mut class_skew[lo - 1..hi];
                    match (ahead, behind) {
                        (Some(a), Some(b)) => raise_class_skew_both(worst, lu, a, b),
                        (Some(a), None) => raise_class_skew(worst, lu, a),
                        (None, Some(b)) => raise_class_skew(worst, lu, b),
                        (None, None) => {}
                    }
                }
                SweepPass::UniformViolations => {
                    let allowed = &self.allowed_by_hop[lo..=hi];
                    partial.gradient.violations += match (ahead, behind) {
                        (Some(a), Some(b)) => count_breaches_both(allowed, lu, a, b),
                        (Some(a), None) => count_breaches(allowed, lu, a),
                        (None, Some(b)) => count_breaches(allowed, lu, b),
                        (None, None) => 0,
                    };
                }
                SweepPass::Weighted => {
                    unreachable!("only the weight-uniform passes read a walk")
                }
            }
        }
    }

    /// Sweeps every source and leaves the merged result in `total`.
    /// Workers take sources one at a time off a shared counter, each into
    /// its own scratch from `scratch` (grown on demand, returned for the
    /// next snapshot), and merge into `total` as they finish. The thread
    /// count is the machine's parallelism, as far as the process-wide
    /// worker budget allows and only for sweeps of at least
    /// [`FAN_OUT_MIN_WORK`] — or exactly `at.forced_workers` (the
    /// worker-invariance tests), and then no worker starts its second
    /// source before every worker holds its first, so tiny sweeps are
    /// really split.
    fn run(&self, scratch: &mut Vec<SweepWorker>, total: &mut SweepPartial) {
        total.clear();
        let sources = self
            .sources
            .map_or(self.hop_graph.node_count(), <[u32]>::len);
        let all_started = self.at.forced_workers.map(Barrier::new);
        let next = AtomicUsize::new(0);
        let idle = Mutex::new(std::mem::take(scratch));
        let merged = Mutex::new(total);
        let worker = || {
            let mut w = idle
                .lock()
                .expect("no sweep worker panics holding the scratch pool")
                .pop()
                .unwrap_or_default();
            w.partial.clear();
            let mut i = next.fetch_add(1, Ordering::Relaxed);
            if let Some(barrier) = &all_started {
                barrier.wait();
            }
            while i < sources {
                self.sweep_source(i, &mut w);
                i = next.fetch_add(1, Ordering::Relaxed);
            }
            merged
                .lock()
                .expect("merging a partial does not panic")
                .merge(&w.partial);
            idle.lock()
                .expect("no sweep worker panics holding the scratch pool")
                .push(w);
        };
        let work =
            sources.saturating_mul(self.hop_graph.node_count() + self.hop_graph.edge_count());
        match self.at.forced_workers {
            Some(workers) => spawn_workers(workers, worker),
            None if work >= FAN_OUT_MIN_WORK => run_workers(parallelism().min(sources), worker),
            None => worker(),
        }
        *scratch = idle
            .into_inner()
            .expect("no sweep worker panics holding the scratch pool");
    }
}

/// The incremental conformance oracle: feed it every sampled instant of a
/// run via [`observe`](ConformanceChecker::observe), then
/// [`finish`](ConformanceChecker::finish) it into a
/// [`ConformanceReport`].
#[derive(Debug, Clone)]
pub struct ConformanceChecker {
    cfg: OracleConfig,
    params: Params,
    last_t: Option<f64>,
    change_cursor: usize,
    faults: Vec<FaultAllowance>,
    partition_slack: f64,
    report: ConformanceReport,
    // Scratch reused across samples. Each snapshot's strong edges (with
    // κ) and weak edges (with level and κ) come from one pass; the hop
    // structure for the sweep is built straight from the strong list, and
    // the weighted graph only for a snapshot of mixed weights (the
    // Dijkstra pass is its one reader).
    strong_edges: Vec<(EdgeKey, f64)>,
    weak_edges: Vec<(EdgeKey, u32, f64)>,
    strong: WeightedGraph,
    hop_graph: HopGraph,
    logical: Vec<f64>,
    // The strong graph in walk order, read by the uniform passes while
    // `on_walk` (this snapshot is weight-uniform and a path or a cycle).
    walk: WalkLayout,
    on_walk: bool,
    // The gradient sweep's per-worker scratch and its merged result.
    sweep_scratch: Vec<SweepWorker>,
    swept: SweepPartial,
    // Source-draw scratch for sampled mode (partial Fisher–Yates pool).
    pool: Vec<u32>,
    // Per-snapshot gradient-bound cache for weight-uniform strong graphs:
    // every hop-d node sits at the identical weighted distance, so the
    // bound is a pure function of d and the per-source Dijkstra is
    // skipped. `level_sums[d]` is the d-fold running sum of the common
    // weight; `allowed_by_hop[d]` the finished bound (NaN = not yet
    // computed). Both reset every observation instant.
    level_sums: Vec<f64>,
    allowed_by_hop: Vec<f64>,
}

impl ConformanceChecker {
    /// Creates a checker for the given simulation (reads `Params` and the
    /// derived envelope configuration; `sample_period` is the caller's
    /// observation grid, used only to size the discretization slack).
    #[must_use]
    pub fn new(sim: &Simulation, sample_period: f64) -> Self {
        Self::with_config(sim, OracleConfig::for_sim(sim, sample_period))
    }

    /// Creates a checker with an explicit configuration (tests use this to
    /// sharpen or deliberately mis-specify the envelope).
    ///
    /// # Panics
    ///
    /// Panics if `g_hat` is not positive and finite.
    #[must_use]
    pub fn with_config(sim: &Simulation, cfg: OracleConfig) -> Self {
        assert!(
            cfg.g_hat > 0.0 && cfg.g_hat.is_finite(),
            "g_hat must be positive and finite"
        );
        ConformanceChecker {
            params: sim.params().clone(),
            report: ConformanceReport {
                g_hat: cfg.g_hat,
                slack: cfg.slack,
                samples: 0,
                global: BoundCheck::new(),
                gradient: BoundCheck::new(),
                weak_edges: BoundCheck::new(),
                per_hop: Vec::new(),
                sampled_sources: 0,
                faults_seen: 0,
                est_faults_seen: 0,
                insertions_seen: 0,
                removals_seen: 0,
                disconnected_samples: 0,
            },
            cfg,
            last_t: None,
            change_cursor: 0,
            faults: Vec::new(),
            partition_slack: 0.0,
            strong_edges: Vec::new(),
            weak_edges: Vec::new(),
            strong: WeightedGraph::new(0),
            hop_graph: HopGraph::default(),
            logical: Vec::new(),
            walk: WalkLayout::default(),
            on_walk: false,
            sweep_scratch: Vec::new(),
            swept: SweepPartial::default(),
            pool: Vec::new(),
            level_sums: Vec::new(),
            allowed_by_hop: Vec::new(),
        }
    }

    /// Draws this snapshot's source set into `self.pool[..K]` via a
    /// partial Fisher–Yates shuffle of the identity permutation, seeded
    /// from `(sampling.seed, snapshot index)` only — the draw is
    /// independent of the engine and of everything previously observed,
    /// so sampled reports are bit-identical across shard counts and a
    /// fresh stratum is swept at every snapshot.
    fn draw_sources(&mut self, n: usize) -> usize {
        let sampling = self.cfg.sampling.as_ref().expect("sampled mode");
        let k = sampling.sources_for(n);
        let snapshot_seed = sampling
            .seed
            .wrapping_add((self.report.samples + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(snapshot_seed);
        self.pool.clear();
        self.pool.extend(0..n as u32);
        for i in 0..k {
            let j = rng.gen_range(i..n);
            self.pool.swap(i, j);
        }
        k
    }

    /// The current decaying allowance earned by past corruptions.
    fn fault_allowance(&self, t: f64) -> f64 {
        if !self.cfg.credit_faults {
            return 0.0;
        }
        self.faults
            .iter()
            .map(|f| {
                let draining = (t - f.at - self.cfg.recovery_latency).max(0.0);
                (f.magnitude - self.cfg.recovery_rate * draining).max(0.0)
            })
            .sum()
    }

    /// Checks the simulation's current instant against every bound
    /// family. Must be called at (weakly) increasing times; typically once
    /// per observation sample. Read-only on the simulation.
    ///
    /// # Panics
    ///
    /// Panics if called with time running backwards.
    pub fn observe(&mut self, sim: &Simulation) {
        self.observe_on(sim, None);
    }

    /// [`observe`](Self::observe) with the gradient sweep forced onto
    /// exactly `workers` threads, whatever the snapshot's size and the
    /// machine's parallelism. The report does not depend on it; this
    /// exists so `tests/oracle_parallel.rs` can hold that.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[doc(hidden)]
    pub fn observe_with_workers(&mut self, sim: &Simulation, workers: usize) {
        assert!(workers > 0, "a sweep needs at least one worker");
        self.observe_on(sim, Some(workers));
    }

    fn observe_on(&mut self, sim: &Simulation, forced_workers: Option<usize>) {
        let t = sim.now().as_secs();
        let dt = match self.last_t {
            Some(prev) => {
                assert!(t >= prev, "conformance samples must move forward in time");
                t - prev
            }
            None => 0.0,
        };

        // Replay the realized change log since the previous sample.
        let log = sim.change_log();
        for rec in &log[self.change_cursor..] {
            match *rec {
                ChangeRecord::ClockFault { at, amount, .. } => {
                    self.report.faults_seen += 1;
                    self.faults.push(FaultAllowance {
                        at,
                        magnitude: amount.abs(),
                    });
                }
                // In-model by construction (the scripted bias is clamped
                // into the advertised ±ε envelope), so no allowance.
                ChangeRecord::EstimateFault { .. } => self.report.est_faults_seen += 1,
                ChangeRecord::EdgeUp { .. } => self.report.insertions_seen += 1,
                ChangeRecord::EdgeDown { .. } => self.report.removals_seen += 1,
            }
        }
        self.change_cursor = log.len();
        // Drop fully drained allowances so long runs stay O(active faults).
        let (rate, latency) = (self.cfg.recovery_rate, self.cfg.recovery_latency);
        if rate > 0.0 {
            self.faults
                .retain(|f| f.magnitude - rate * (t - f.at - latency).max(0.0) > 0.0);
        }

        // Partition allowance: while the realized support is disconnected
        // the model bounds nothing across the cut — the components can
        // drift apart at the full logical-rate spread β − α (one side may
        // be catching up internally at β while the other coasts at α; the
        // steady-state 2ρ rate only holds once both transients settle), so
        // the envelope widens at that worst-case rate. Once reconnected
        // the excess drains like a corruption.
        if sim.is_support_connected() {
            self.partition_slack = (self.partition_slack - rate * dt).max(0.0);
        } else {
            self.report.disconnected_samples += 1;
            self.partition_slack += (self.params.beta() - self.params.alpha()) * dt;
        }

        let allowance = self.fault_allowance(t) + self.partition_slack;
        let slack = self.cfg.slack;
        let n = sim.node_count();

        self.logical.clear();
        self.logical
            .extend((0..n).map(|u| sim.node(NodeId::from(u)).logical()));

        // 1. Global-skew envelope.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &l in &self.logical {
            lo = lo.min(l);
            hi = hi.max(l);
        }
        self.report
            .global
            .record(t, hi - lo, self.cfg.g_hat + allowance + slack);

        // 2. Pairwise gradient bound over the fully inserted graph.
        sim.inserted_edges_into(&mut self.strong_edges, &mut self.weak_edges);
        self.hop_graph
            .rebuild_from_edges(n, self.strong_edges.iter().map(|&(e, _)| e));
        let uniform = uniform_weight(&self.strong_edges);
        if uniform.is_none() {
            self.strong.reset(n);
            for &(e, kappa) in &self.strong_edges {
                self.strong.add_edge(e, kappa);
            }
        }
        // The hop-class bound cache is per snapshot: the allowance, the
        // slack, and the realized weights all move between instants.
        self.level_sums.clear();
        self.allowed_by_hop.clear();
        // Sampled mode sweeps only this snapshot's drawn sources, but
        // against every target (`v ≠ u`), so each sweep stratifies the
        // checks across the source's full hop-class range. Every check is
        // one the exact pass also makes, with identical arithmetic — the
        // sampled report is a conservative projection of the exact one.
        let sampled_k = self.cfg.sampling.is_some().then(|| self.draw_sources(n));
        self.report.sampled_sources += sampled_k.unwrap_or(0) as u64;
        let gradient = GradientInstant {
            t,
            allowance,
            slack,
            sampled_k,
            forced_workers,
        };
        self.on_walk = uniform.is_some() && self.walk.fill(&self.hop_graph, &self.logical);
        match uniform {
            Some(w) => {
                self.sweep_gradient(SweepPass::UniformClasses, gradient);
                self.fold_uniform_gradient(w, gradient);
            }
            None => {
                self.sweep_gradient(SweepPass::Weighted, gradient);
                self.report.gradient.merge(&self.swept.gradient);
                merge_per_hop(&mut self.report.per_hop, &self.swept.per_hop);
            }
        }

        // 3. Weak edges: unlocked to a finite level, not yet fully
        // inserted — only the level-s legality bound applies.
        let sigma = self.params.sigma();
        for &(e, s, kappa) in &self.weak_edges {
            let skew = (self.logical[e.lo().index()] - self.logical[e.hi().index()]).abs();
            let c_s = gradient_sequence(self.cfg.g_hat, sigma, s);
            let allowed = (f64::from(s) + 0.5) * kappa + c_s / 2.0 + allowance + slack;
            self.report.weak_edges.record(t, skew, allowed);
        }

        self.report.samples += 1;
        self.last_t = Some(t);
    }

    /// Runs one pass of the pairwise gradient check over this snapshot's
    /// sources, leaving the merged accumulators in `self.swept`.
    fn sweep_gradient(&mut self, pass: SweepPass, at: GradientInstant) {
        Sweep {
            pass,
            sources: at.sampled_k.map(|k| &self.pool[..k]),
            hop_graph: &self.hop_graph,
            walk: self.on_walk.then_some(&self.walk),
            strong: &self.strong,
            logical: &self.logical,
            allowed_by_hop: &self.allowed_by_hop,
            params: &self.params,
            g_hat: self.cfg.g_hat,
            at,
        }
        .run(&mut self.sweep_scratch, &mut self.swept);
    }

    /// Folds the per-class `(pairs, worst skew)` accumulators of a
    /// weight-uniform snapshot (common weight `w`) into the report — the
    /// per-class equivalent of calling [`BoundCheck::record`] for every
    /// pair, exploiting that all pairs of a class share one bound.
    /// Violation *counts* need the individual skews, so a snapshot whose
    /// worst class skew breaches its bound takes a second sweep over the
    /// same sources to tally them — the rare path, only ever paid by
    /// non-conformant runs.
    fn fold_uniform_gradient(&mut self, w: f64, at: GradientInstant) {
        let mut violating = false;
        for idx in 0..self.swept.class_pairs.len() {
            let pairs = self.swept.class_pairs[idx];
            if pairs == 0 {
                continue;
            }
            let maxskew = self.swept.class_skew[idx];
            let d = idx as u32 + 1;
            let allowed = self.allowed_at_hop(d, w, at.allowance, at.slack);
            debug_assert!(allowed > 0.0, "gradient bounds are strictly positive");
            let margin = allowed - maxskew;
            let util = maxskew / allowed;
            let gradient = &mut self.report.gradient;
            gradient.checks += pairs;
            gradient.min_margin = gradient.min_margin.min(margin);
            gradient.worst_utilization = gradient.worst_utilization.max(util);
            violating |= margin < 0.0;
            hop_class_mut(&mut self.report.per_hop, d).absorb(pairs, maxskew, margin, util);
        }
        if violating {
            self.sweep_gradient(SweepPass::UniformViolations, at);
            let viol = self.swept.gradient.violations;
            debug_assert!(viol > 0, "a breached class implies a breached pair");
            self.report.gradient.violations += viol;
            self.report.gradient.first_violation.get_or_insert(at.t);
        }
    }

    /// The cached gradient bound for a hop-`d` target on a weight-uniform
    /// strong graph. `level_sums[d]` accumulates the common weight by
    /// repeated addition — the exact floating-point value Dijkstra
    /// produces along a shortest `d`-hop path — and `allowed_by_hop[d]`
    /// memoizes the finished bound (the bound itself is finite, so NaN is
    /// a free "not yet computed" sentinel).
    fn allowed_at_hop(&mut self, d: u32, w: f64, allowance: f64, slack: f64) -> f64 {
        let idx = d as usize;
        if self.level_sums.is_empty() {
            self.level_sums.push(0.0);
        }
        while self.level_sums.len() <= idx {
            let last = self.level_sums[self.level_sums.len() - 1];
            self.level_sums.push(last + w);
        }
        while self.allowed_by_hop.len() <= idx {
            self.allowed_by_hop.push(f64::NAN);
        }
        if self.allowed_by_hop[idx].is_nan() {
            self.allowed_by_hop[idx] =
                gradient_bound(&self.params, self.cfg.g_hat, self.level_sums[idx])
                    + allowance
                    + slack;
        }
        self.allowed_by_hop[idx]
    }

    /// The report accumulated so far ([`observe`](Self::observe) updates
    /// it incrementally) — telemetry reads the running envelope
    /// utilization from here at every observation instant without
    /// consuming the checker.
    #[must_use]
    pub fn report_so_far(&self) -> &ConformanceReport {
        &self.report
    }

    /// Consumes the checker and returns the accumulated report.
    #[must_use]
    pub fn finish(self) -> ConformanceReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_core::SimBuilder;
    use gcs_net::Topology;
    use gcs_sim::DriftModel;

    fn sim(n: usize, seed: u64) -> Simulation {
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        SimBuilder::new(params)
            .topology(Topology::line(n))
            .drift(DriftModel::TwoBlock)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn drive(sim: &mut Simulation, checker: &mut ConformanceChecker, until: f64, every: f64) {
        let mut t = sim.now().as_secs();
        checker.observe(sim);
        while t < until - 1e-12 {
            t = (t + every).min(until);
            sim.run_until_secs(t);
            checker.observe(sim);
        }
    }

    #[test]
    fn stabilized_line_conforms() {
        let mut s = sim(8, 1);
        let mut c = ConformanceChecker::new(&s, 0.5);
        drive(&mut s, &mut c, 20.0, 0.5);
        let r = c.finish();
        assert!(r.is_conformant(), "{:?}", r.violations());
        assert!(r.samples > 30);
        assert!(r.global.checks == r.samples);
        assert!(r.gradient.checks > 0);
        assert!(!r.per_hop.is_empty());
        assert_eq!(r.per_hop[0].hops, 1);
        // Margins are positive and utilization sane.
        assert!(r.global.min_margin > 0.0);
        assert!(r.global.worst_utilization < 1.0);
        assert!(r.first_violation().is_none());
    }

    #[test]
    fn corruption_is_forgiven_with_credit_and_caught_without() {
        let run = |credit: bool| -> ConformanceReport {
            let mut s = sim(6, 2);
            let mut cfg = OracleConfig::for_sim(&s, 0.5);
            cfg.credit_faults = credit;
            let mut c = ConformanceChecker::with_config(&s, cfg);
            drive(&mut s, &mut c, 5.0, 0.5);
            s.inject_clock_offset(NodeId(0), 2.0 * s.params().g_tilde().unwrap());
            drive(&mut s, &mut c, 15.0, 0.5);
            c.finish()
        };
        let forgiven = run(true);
        assert_eq!(forgiven.faults_seen, 1);
        assert!(
            forgiven.global.passed(),
            "self-stabilization allowance must absorb the injected fault: {:?}",
            forgiven.violations()
        );
        let strict = run(false);
        assert!(!strict.is_conformant(), "uncredited fault must violate");
        assert!(!strict.global.passed());
        assert!(
            strict.gradient.violations > 0,
            "a 2G^ corruption must also break the pairwise gradient bound"
        );
        let first = strict.first_violation().expect("violation time recorded");
        assert!((5.0..=6.0).contains(&first), "got {first}");
        assert!(strict.global.min_margin < 0.0);
        // The violation renders readably.
        let lines = strict.violations();
        assert!(!lines.is_empty());
        assert!(lines[0].contains("Thm 5.6"), "{lines:?}");
        let table = strict.to_table().to_string();
        assert!(table.contains("conformance"));
    }

    #[test]
    fn worst_utilization_picks_the_tightest_family_deterministically() {
        let mut s = sim(8, 1);
        let mut c = ConformanceChecker::new(&s, 0.5);
        drive(&mut s, &mut c, 20.0, 0.5);
        let r = c.finish();
        let (family, util) = r.worst_utilization();
        assert!(util > 0.0 && util < 1.0, "{family}: {util}");
        let max = r
            .global
            .worst_utilization
            .max(r.gradient.worst_utilization)
            .max(r.weak_edges.worst_utilization);
        assert_eq!(util, max);
    }

    #[test]
    fn scripted_estimate_faults_are_counted_but_earn_no_allowance() {
        let run = |bias: Option<f64>| -> ConformanceReport {
            let mut s = sim(6, 2);
            let mut c = ConformanceChecker::new(&s, 0.5);
            drive(&mut s, &mut c, 5.0, 0.5);
            if let Some(b) = bias {
                s.inject_estimate_bias(NodeId(0), b);
            }
            drive(&mut s, &mut c, 15.0, 0.5);
            c.finish()
        };
        let clean = run(None);
        let biased = run(Some(1.0));
        assert_eq!(clean.est_faults_seen, 0);
        assert_eq!(biased.est_faults_seen, 1);
        assert_eq!(biased.faults_seen, 0, "no clock corruption was injected");
        // The scripted corruption is in-model: the run must still conform
        // without any fault allowance having been granted.
        assert!(biased.is_conformant(), "{:?}", biased.violations());
    }

    #[test]
    fn understated_anchor_trips_the_envelope() {
        // An absurdly small G^ shrinks the global envelope below any real
        // run (the gradient bound floors at 2 kappa_p, which honest runs
        // respect, so the violation surfaces in the global family).
        let mut s = sim(8, 3);
        let mut cfg = OracleConfig::for_sim(&s, 0.5);
        cfg.g_hat = 1e-7;
        cfg.slack = 0.0;
        let mut c = ConformanceChecker::with_config(&s, cfg);
        drive(&mut s, &mut c, 10.0, 0.5);
        let r = c.finish();
        assert!(!r.is_conformant());
        assert!(r.global.violations > 0);
        assert!(r.first_violation().is_some());
    }

    #[test]
    fn report_is_deterministic_for_identical_runs() {
        let run = || -> ConformanceReport {
            let mut s = sim(7, 9);
            let mut c = ConformanceChecker::new(&s, 0.25);
            drive(&mut s, &mut c, 8.0, 0.25);
            c.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sampled_mode_is_a_conservative_projection_of_exact() {
        // The same run observed by an exact and a sampled checker: every
        // sampled statistic must be a conservative projection (sampled
        // worst case ≤ exact worst case, sampled margin ≥ exact margin).
        let run = |sampling: Option<OracleSampling>| -> ConformanceReport {
            let mut s = sim(24, 11);
            let mut cfg = OracleConfig::for_sim(&s, 0.5);
            cfg.sampling = sampling;
            let mut c = ConformanceChecker::with_config(&s, cfg);
            drive(&mut s, &mut c, 10.0, 0.5);
            c.finish()
        };
        let exact = run(None);
        let sampled = run(Some(OracleSampling::new(0.25, 7)));
        assert_eq!(exact.sampled_sources, 0);
        assert!(sampled.sampled_sources > 0);
        assert!(sampled.gradient.checks > 0);
        assert!(sampled.gradient.checks < exact.gradient.checks);
        assert!(sampled.gradient.worst_utilization <= exact.gradient.worst_utilization);
        assert!(sampled.gradient.min_margin >= exact.gradient.min_margin);
        assert!(sampled.per_hop.len() <= exact.per_hop.len());
        for (s_class, e_class) in sampled.per_hop.iter().zip(&exact.per_hop) {
            assert_eq!(s_class.hops, e_class.hops);
            assert!(s_class.worst_skew <= e_class.worst_skew);
            assert!(s_class.min_margin >= e_class.min_margin);
        }
        // Non-gradient families are untouched by sampling.
        assert_eq!(sampled.global, exact.global);
        assert_eq!(sampled.weak_edges, exact.weak_edges);
    }

    #[test]
    fn sampled_mode_is_deterministic_and_seed_dependent() {
        let run = |oracle_seed: u64| -> ConformanceReport {
            let mut s = sim(20, 3);
            let mut cfg = OracleConfig::for_sim(&s, 0.5);
            cfg.sampling = Some(OracleSampling::new(0.3, oracle_seed));
            let mut c = ConformanceChecker::with_config(&s, cfg);
            drive(&mut s, &mut c, 6.0, 0.5);
            c.finish()
        };
        assert_eq!(run(42), run(42), "same sampling seed, same report");
        let (a, b) = (run(1), run(2));
        assert_eq!(a.sampled_sources, b.sampled_sources);
        // Different sampling seeds draw different source positions, which
        // shows up in the per-hop-class coverage counts (on a line, how
        // many targets a source has at distance d depends on where the
        // source sits).
        let coverage =
            |r: &ConformanceReport| r.per_hop.iter().map(|h| h.pairs).collect::<Vec<_>>();
        assert_ne!(
            coverage(&a),
            coverage(&b),
            "different sampling seeds must draw different strata"
        );
    }

    #[test]
    fn sampling_knobs_have_documented_shapes() {
        let s = OracleSampling::new(0.01, 0);
        assert_eq!(s.sources_for(100_000), 1000);
        assert_eq!(s.sources_for(4), 4, "floor clamps to n on tiny graphs");
        assert_eq!(s.sources_for(500), 8, "min_sources floor applies");
        // The per-snapshot escape bound is ≤ (1 − rate)² once past the
        // floor, and exactly (n−K)(n−K−1)/(n(n−1)).
        let p = s.escape_probability(100_000);
        assert!(p < (1.0 - 0.01f64).powi(2) + 1e-12, "{p}");
        assert!(p > 0.97, "{p}");
        assert_eq!(s.escape_probability(4), 0.0, "full sweep misses nothing");
        // A full-rate sampler is exhaustive.
        assert_eq!(OracleSampling::new(1.0, 0).sources_for(33), 33);
        assert_eq!(OracleSampling::new(1.0, 0).escape_probability(33), 0.0);
    }

    #[test]
    #[should_panic(expected = "oracle sample rate")]
    fn rejects_out_of_range_rate() {
        let _ = OracleSampling::new(0.0, 1);
    }

    #[test]
    fn sampled_mode_still_catches_a_global_scale_violation() {
        // An uncredited 2Ĝ corruption breaks neighbouring pairs badly
        // enough that even a thin sample sees it: the corrupted node is
        // a target of every drawn source.
        let mut s = sim(16, 5);
        let mut cfg = OracleConfig::for_sim(&s, 0.5);
        cfg.credit_faults = false;
        cfg.sampling = Some(OracleSampling::new(0.2, 9));
        let mut c = ConformanceChecker::with_config(&s, cfg);
        drive(&mut s, &mut c, 5.0, 0.5);
        s.inject_clock_offset(NodeId(0), 2.0 * s.params().g_tilde().unwrap());
        drive(&mut s, &mut c, 12.0, 0.5);
        let r = c.finish();
        assert!(!r.is_conformant());
        assert!(r.gradient.violations > 0);
    }

    #[test]
    fn hop_table_growth_labels_only_what_it_appends() {
        let mut per_hop = Vec::new();
        // One class at a time, then in jumps; a mark on each class asked
        // for shows that growth never rewrites an existing entry.
        for d in [1, 2, 3, 7, 50_000, 4, 50_000] {
            hop_class_mut(&mut per_hop, d).pairs += 1;
            assert!(per_hop.len() >= d as usize);
        }
        assert_eq!(per_hop.len(), 50_000);
        for (i, class) in per_hop.iter().enumerate() {
            assert_eq!(class.hops as usize, i + 1);
            let marks = match class.hops {
                50_000 => 2,
                1 | 2 | 3 | 4 | 7 => 1,
                _ => 0,
            };
            assert_eq!(class.pairs, marks, "class {}", class.hops);
            assert_eq!(class.worst_skew, 0.0);
            assert_eq!(class.min_margin, f64::INFINITY);
            assert_eq!(class.worst_utilization, 0.0);
        }
    }

    /// A weight-uniform graph on `n` nodes with the given edges.
    fn uniform_graph(n: usize, edges: &[(u32, u32)]) -> (WeightedGraph, HopGraph) {
        let mut strong = WeightedGraph::new(n);
        for &(a, b) in edges {
            strong.add_edge(EdgeKey::new(NodeId(a), NodeId(b)), 0.5);
        }
        let mut hop_graph = HopGraph::default();
        hop_graph.rebuild(&strong);
        (strong, hop_graph)
    }

    #[test]
    fn uniform_weight_agrees_with_the_weighted_graph() {
        let e = |a: u32, b: u32| EdgeKey::new(NodeId(a), NodeId(b));
        let cases: [&[f64]; 6] = [
            &[],
            &[0.5],
            &[0.5, 0.5, 0.5],
            &[0.5, 0.5, 0.25],
            &[0.25, 0.5, 0.5],
            // One ulp apart: equal within any tolerance, not to the bit.
            &[0.3, 0.1 + 0.2],
        ];
        for weights in cases {
            let edges: Vec<(EdgeKey, f64)> =
                (0..).zip(weights).map(|(i, &w)| (e(i, i + 1), w)).collect();
            let mut g = WeightedGraph::new(weights.len() + 1);
            for &(edge, w) in &edges {
                g.add_edge(edge, w);
            }
            assert_eq!(uniform_weight(&edges), g.uniform_weight(), "{weights:?}");
        }
    }

    #[test]
    fn walk_kernel_matches_the_bfs_sweep() {
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut breaches = 0;
        let shapes = [(3, true), (4, true), (5, true), (8, true), (9, true)]
            .into_iter()
            .chain([(2, false), (3, false), (8, false)]);
        for (n, closed) in shapes {
            // Walk position p holds node perm[p], so walk order is not
            // index order.
            let mut perm: Vec<u32> = (0..n as u32).collect();
            for i in 0..n {
                perm.swap(i, rng.gen_range(i..n));
            }
            let links = if closed { n } else { n - 1 };
            let edges: Vec<(u32, u32)> = (0..links).map(|p| (perm[p], perm[(p + 1) % n])).collect();
            let (strong, hop_graph) = uniform_graph(n, &edges);
            let logical: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut walk = WalkLayout::default();
            assert!(walk.fill(&hop_graph, &logical), "n = {n}");
            assert_eq!(walk.closed, closed, "n = {n}");
            // Bounds that grow with d but not as fast as random clocks'
            // spread, so some classes breach and some do not.
            let allowed_by_hop: Vec<f64> = (0..=n).map(|d| 0.35 * d as f64).collect();
            let mut drawn: Vec<u32> = (0..n as u32).collect();
            for i in 0..n {
                drawn.swap(i, rng.gen_range(i..n));
            }
            let source_sets = [
                Some(&drawn[..1]),
                Some(&drawn[..n.div_ceil(2)]),
                Some(&drawn[..]),
                None,
            ];
            for sources in source_sets {
                for pass in [SweepPass::UniformClasses, SweepPass::UniformViolations] {
                    for forced_workers in [None, Some(2)] {
                        let sweep = |walk: Option<&WalkLayout>| {
                            let mut total = SweepPartial::default();
                            Sweep {
                                pass,
                                sources,
                                hop_graph: &hop_graph,
                                walk,
                                strong: &strong,
                                logical: &logical,
                                allowed_by_hop: &allowed_by_hop,
                                params: &params,
                                g_hat: 1.0,
                                at: GradientInstant {
                                    t: 0.0,
                                    allowance: 0.0,
                                    slack: 0.0,
                                    sampled_k: None,
                                    forced_workers,
                                },
                            }
                            .run(&mut Vec::new(), &mut total);
                            total
                        };
                        let (ours, bfs) = (sweep(Some(&walk)), sweep(None));
                        let bits = |p: &SweepPartial| -> Vec<u64> {
                            p.class_skew.iter().map(|x| x.to_bits()).collect()
                        };
                        assert_eq!(ours, bfs, "n = {n}, {pass:?}, {sources:?}");
                        assert_eq!(bits(&ours), bits(&bfs));
                        breaches += ours.gradient.violations;
                    }
                }
            }
        }
        assert!(breaches > 0, "some class must breach its bound");
    }

    #[test]
    fn walk_kernel_falls_back_off_paths_and_cycles() {
        let star = [(0, 1), (0, 2), (0, 3)];
        let two_paths = [(0, 1), (1, 2), (3, 4)];
        let cycle_and_chord = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)];
        for (n, edges) in [
            (4, &star[..]),
            (5, &two_paths[..]),
            (5, &cycle_and_chord[..]),
            (1, &[][..]),
        ] {
            let (_, hop_graph) = uniform_graph(n, edges);
            let logical = vec![0.0; n];
            assert!(
                !WalkLayout::default().fill(&hop_graph, &logical),
                "{edges:?} is not a path or a cycle"
            );
        }
    }

    #[test]
    fn table_elides_far_hop_classes_into_one_row() {
        let mut report = report_with_classes(50_000);
        report.per_hop[29_999].worst_utilization = 0.9;
        report.per_hop[40_000].min_margin = -1.0;
        let table = report.to_table();
        assert!(table.row_count() <= 25, "{} rows", table.row_count());
        let text = table.to_string();
        for d in 1..=TABLE_NEAR_HOPS {
            assert!(text.contains(&format!("gradient d={d} ")), "class {d}");
        }
        assert!(!text.contains("gradient d=17 "));
        assert!(text.contains("gradient d=30000 ") && text.contains("90.0%"));
        assert!(text.contains("gradient d=40001 ") && text.contains("-1.0000"));
        // The rest: classes 17..=50000 less the two shown, one pair each.
        assert!(text.contains("gradient d=17..50000 (rest)"), "{text}");
        assert!(text.contains(&format!(" {} ", 50_000 - 16 - 2)));
        // A table that needs no eliding prints every class.
        let short = report_with_classes(TABLE_NEAR_HOPS);
        assert_eq!(short.to_table().row_count(), 3 + TABLE_NEAR_HOPS as usize);
    }

    /// A passing report with `classes` hop classes of one pair each.
    fn report_with_classes(classes: u32) -> ConformanceReport {
        let mut per_hop = Vec::new();
        for d in 1..=classes {
            hop_class_mut(&mut per_hop, d).absorb(1, 0.01, 0.5, 0.1);
        }
        let s = sim(4, 1);
        let mut report = ConformanceChecker::new(&s, 0.5).finish();
        report.per_hop = per_hop;
        report
    }

    #[test]
    fn per_hop_classes_cover_the_diameter() {
        let mut s = sim(6, 4);
        let mut c = ConformanceChecker::new(&s, 0.5);
        drive(&mut s, &mut c, 6.0, 0.5);
        let r = c.finish();
        assert_eq!(r.per_hop.len(), 5, "line(6) has hop classes 1..=5");
        for (i, h) in r.per_hop.iter().enumerate() {
            assert_eq!(h.hops as usize, i + 1);
            assert!(h.pairs > 0);
            assert!(h.min_margin > 0.0);
        }
    }
}
