//! Scenario specifications: every adversarial ingredient of a run as data.
//!
//! A [`ScenarioSpec`] captures what the repo used to assemble by hand in
//! `examples/` and the experiment harness: topology family and size, drift
//! model, estimate layer, edge-schedule generator, fault injections,
//! algorithm parameters, and the observation plan. One seam —
//! [`ScenarioSpec::build`] — compiles the spec into a configured
//! [`Simulation`] on top of [`SimBuilder`]; identical spec + seed gives
//! bit-identical runs.

use std::collections::BTreeSet;

use gcs_core::{
    Engine, ErrorModel, EstimateMode, ParallelSimBuilder, Params, SimBuilder, Simulation,
};
use gcs_net::mobility::RandomWaypoint;
use gcs_net::{ChurnOptions, EdgeEventKind, EdgeKey, NetworkSchedule, NodeId, Topology};
use gcs_sim::{DriftModel, SimTime};

use crate::error::ScenarioError;

/// Campaign sizing: `Tiny` shrinks node counts and time spans for smoke
/// tests and CI, `Full` doubles the observation window for recorded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Halved node counts, quartered time spans (CI smoke).
    Tiny,
    /// The spec as written.
    #[default]
    Default,
    /// Doubled time spans.
    Full,
}

impl Scale {
    /// Parses a CLI token.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The canonical token (`tiny` / `default` / `full`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Default => "default",
            Scale::Full => "full",
        }
    }

    /// Multiplier applied to every time span in the spec.
    #[must_use]
    pub fn time_factor(self) -> f64 {
        match self {
            Scale::Tiny => 0.25,
            Scale::Default => 1.0,
            Scale::Full => 2.0,
        }
    }
}

/// A named topology family plus its size parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// A path on `n` nodes.
    Line {
        /// Node count (≥ 2).
        n: usize,
    },
    /// A cycle on `n` nodes.
    Ring {
        /// Node count (≥ 3).
        n: usize,
    },
    /// A `w × h` grid with 4-neighbourhood.
    Grid {
        /// Width.
        w: usize,
        /// Height.
        h: usize,
    },
    /// A `w × h` torus.
    Torus {
        /// Width (≥ 3).
        w: usize,
        /// Height (≥ 3).
        h: usize,
    },
    /// A star with node 0 as hub.
    Star {
        /// Node count (≥ 2).
        n: usize,
    },
    /// The complete graph.
    Complete {
        /// Node count (≥ 2).
        n: usize,
    },
    /// The `dim`-dimensional hypercube (`2^dim` nodes, log diameter).
    Hypercube {
        /// Dimension (1–16).
        dim: u32,
    },
    /// Erdős–Rényi `G(n, p)`, connectivity-repaired; the graph depends on
    /// the run seed.
    Gnp {
        /// Node count (≥ 2).
        n: usize,
        /// Edge probability in `[0, 1]`.
        p: f64,
    },
    /// Random geometric graph in the unit square, connectivity-repaired;
    /// seed-dependent.
    Geometric {
        /// Node count (≥ 2).
        n: usize,
        /// Connection radius (> 0).
        radius: f64,
    },
    /// Watts–Strogatz small world; seed-dependent.
    SmallWorld {
        /// Node count (≥ 4).
        n: usize,
        /// Even base degree, `2 ≤ k < n`.
        k: usize,
        /// Rewiring probability in `[0, 1]`.
        beta: f64,
    },
    /// Barabási–Albert scale-free graph; seed-dependent.
    ScaleFree {
        /// Node count (> m).
        n: usize,
        /// Edges attached per arriving node (≥ 1).
        m: usize,
    },
}

/// The largest node count a scenario may ask for: ample for the parked
/// 10⁶-node tier, far below the `u32` node-id space, and small enough that
/// an engine build fails by validation rather than by allocation.
pub const MAX_NODES: usize = 2_000_000;

impl TopologySpec {
    /// Number of nodes the realized topology will have, or `None` when the
    /// size parameters overflow `usize`.
    fn checked_node_count(&self) -> Option<usize> {
        match *self {
            TopologySpec::Line { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Star { n }
            | TopologySpec::Complete { n }
            | TopologySpec::Gnp { n, .. }
            | TopologySpec::Geometric { n, .. }
            | TopologySpec::SmallWorld { n, .. }
            | TopologySpec::ScaleFree { n, .. } => Some(n),
            TopologySpec::Grid { w, h } | TopologySpec::Torus { w, h } => w.checked_mul(h),
            TopologySpec::Hypercube { dim } => 1usize.checked_shl(dim),
        }
    }

    /// Number of nodes the realized topology will have (saturating; a
    /// validated spec never saturates).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.checked_node_count().unwrap_or(usize::MAX)
    }

    /// Materializes the topology. Random families draw from the run seed,
    /// so ensembles explore the family rather than one fixed instance.
    #[must_use]
    pub fn realize(&self, seed: u64) -> Topology {
        match *self {
            TopologySpec::Line { n } => Topology::line(n),
            TopologySpec::Ring { n } => Topology::ring(n),
            TopologySpec::Grid { w, h } => Topology::grid(w, h),
            TopologySpec::Torus { w, h } => Topology::torus(w, h),
            TopologySpec::Star { n } => Topology::star(n),
            TopologySpec::Complete { n } => Topology::complete(n),
            TopologySpec::Hypercube { dim } => Topology::hypercube(dim),
            TopologySpec::Gnp { n, p } => Topology::random_gnp(n, p, seed),
            TopologySpec::Geometric { n, radius } => Topology::random_geometric(n, radius, seed),
            TopologySpec::SmallWorld { n, k, beta } => Topology::small_world(n, k, beta, seed),
            TopologySpec::ScaleFree { n, m } => Topology::scale_free(n, m, seed),
        }
    }

    /// The family keyword used by the `.scn` format.
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            TopologySpec::Line { .. } => "line",
            TopologySpec::Ring { .. } => "ring",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Torus { .. } => "torus",
            TopologySpec::Star { .. } => "star",
            TopologySpec::Complete { .. } => "complete",
            TopologySpec::Hypercube { .. } => "hypercube",
            TopologySpec::Gnp { .. } => "gnp",
            TopologySpec::Geometric { .. } => "geometric",
            TopologySpec::SmallWorld { .. } => "small-world",
            TopologySpec::ScaleFree { .. } => "scale-free",
        }
    }

    /// Resizes the family towards `target` nodes, respecting each family's
    /// structural minimum and shape (grids stay square-ish, hypercubes pick
    /// the nearest power of two). Used by the `tiny-nodes` clamp that lets
    /// engine-scale benchmark scenarios (10³–10⁴ nodes) shrink to CI size.
    #[must_use]
    pub fn with_node_target(&self, target: usize) -> Self {
        match *self {
            TopologySpec::Line { .. } => TopologySpec::Line { n: target.max(2) },
            TopologySpec::Ring { .. } => TopologySpec::Ring { n: target.max(3) },
            TopologySpec::Grid { .. } => {
                let side = ((target as f64).sqrt().round() as usize).max(2);
                TopologySpec::Grid { w: side, h: side }
            }
            TopologySpec::Torus { .. } => {
                let side = ((target as f64).sqrt().round() as usize).max(3);
                TopologySpec::Torus { w: side, h: side }
            }
            TopologySpec::Star { .. } => TopologySpec::Star { n: target.max(2) },
            TopologySpec::Complete { .. } => TopologySpec::Complete { n: target.max(2) },
            TopologySpec::Hypercube { .. } => TopologySpec::Hypercube {
                dim: ((target.max(2) as f64).log2().round() as u32).clamp(1, 16),
            },
            TopologySpec::Gnp { p, .. } => TopologySpec::Gnp {
                n: target.max(4),
                p,
            },
            TopologySpec::Geometric { radius, .. } => TopologySpec::Geometric {
                n: target.max(4),
                radius,
            },
            TopologySpec::SmallWorld { k, beta, .. } => TopologySpec::SmallWorld {
                n: target.max(4).max(k + 1),
                k,
                beta,
            },
            TopologySpec::ScaleFree { m, .. } => TopologySpec::ScaleFree {
                n: target.max(m + 1).max(4),
                m,
            },
        }
    }

    /// Shrinks node counts for [`Scale::Tiny`], respecting each family's
    /// structural minimum; other scales leave sizes untouched.
    #[must_use]
    pub fn scaled(&self, scale: Scale) -> Self {
        if scale != Scale::Tiny {
            return self.clone();
        }
        match *self {
            TopologySpec::Line { n } => TopologySpec::Line { n: (n / 2).max(2) },
            TopologySpec::Ring { n } => TopologySpec::Ring { n: (n / 2).max(3) },
            TopologySpec::Grid { w, h } => TopologySpec::Grid {
                w: (w / 2).max(2),
                h: (h / 2).max(2),
            },
            TopologySpec::Torus { w, h } => TopologySpec::Torus {
                w: (w / 2).max(3),
                h: (h / 2).max(3),
            },
            TopologySpec::Star { n } => TopologySpec::Star { n: (n / 2).max(2) },
            TopologySpec::Complete { n } => TopologySpec::Complete { n: (n / 2).max(2) },
            TopologySpec::Hypercube { dim } => TopologySpec::Hypercube {
                dim: (dim / 2).max(1),
            },
            TopologySpec::Gnp { n, p } => TopologySpec::Gnp {
                n: (n / 2).max(4),
                p,
            },
            TopologySpec::Geometric { n, radius } => TopologySpec::Geometric {
                n: (n / 2).max(4),
                radius,
            },
            TopologySpec::SmallWorld { n, k, beta } => TopologySpec::SmallWorld {
                n: (n / 2).max(4).max(k + 1),
                k,
                beta,
            },
            TopologySpec::ScaleFree { n, m } => TopologySpec::ScaleFree {
                n: (n / 2).max(m + 1).max(4),
                m,
            },
        }
    }
}

/// The hardware-drift adversary (mirrors [`DriftModel`], minus the
/// explicit-schedule variant, which is not expressible as a data file).
#[derive(Debug, Clone, PartialEq)]
pub enum DriftSpec {
    /// All clocks run at rate 1.
    None,
    /// Independent constant rate per node in `[1−ρ, 1+ρ]`.
    RandomConstant,
    /// First half fast, second half slow — the worst case on a line.
    TwoBlock,
    /// Even nodes fast, odd nodes slow — stresses every edge.
    Alternating,
    /// Bounded random walk of every rate.
    RandomWalk {
        /// Seconds between steps.
        period: f64,
        /// Maximum step as a fraction of ρ.
        step: f64,
    },
    /// The two blocks of `TwoBlock` swap extremes every `period` seconds.
    FlipFlop {
        /// Seconds between swaps.
        period: f64,
    },
}

impl DriftSpec {
    /// The concrete drift model.
    #[must_use]
    pub fn model(&self) -> DriftModel {
        match *self {
            DriftSpec::None => DriftModel::None,
            DriftSpec::RandomConstant => DriftModel::RandomConstant,
            DriftSpec::TwoBlock => DriftModel::TwoBlock,
            DriftSpec::Alternating => DriftModel::Alternating,
            DriftSpec::RandomWalk { period, step } => DriftModel::RandomWalk {
                period,
                step_frac: step,
            },
            DriftSpec::FlipFlop { period } => DriftModel::FlipFlop { period },
        }
    }
}

/// The estimate layer (§3.1, inequality (1)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateSpec {
    /// Oracle with exact values.
    OracleNone,
    /// Oracle with a persistent per-edge bias within `±ε`.
    OracleBias,
    /// Oracle hiding up to `ε` of skew per edge (adversarial).
    OracleHide,
    /// Periodic floods + dead reckoning.
    Messages,
}

impl EstimateSpec {
    /// The concrete estimate mode.
    #[must_use]
    pub fn mode(&self) -> EstimateMode {
        match self {
            EstimateSpec::OracleNone => EstimateMode::Oracle(ErrorModel::None),
            EstimateSpec::OracleBias => EstimateMode::Oracle(ErrorModel::RandomBias),
            EstimateSpec::OracleHide => EstimateMode::Oracle(ErrorModel::Hide),
            EstimateSpec::Messages => EstimateMode::Messages,
        }
    }

    /// The `.scn` token.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            EstimateSpec::OracleNone => "oracle-none",
            EstimateSpec::OracleBias => "oracle-bias",
            EstimateSpec::OracleHide => "oracle-hide",
            EstimateSpec::Messages => "messages",
        }
    }
}

/// The edge-schedule generator layered over the topology.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsSpec {
    /// All topology edges up forever.
    Static,
    /// `count` chords appear at time `at`: chord `i` connects node `i` to
    /// node `(i + n/2) mod n` (deterministic, so observers know which
    /// pairs to watch); chords duplicating topology edges are skipped.
    Insertion {
        /// Appearance time (seconds).
        at: f64,
        /// Number of chords.
        count: usize,
        /// Offset between the two directions of each appearance.
        skew: f64,
    },
    /// One shortcut edge joining the two extreme nodes (`0` and `n − 1`)
    /// appears at time `at` — the Theorem 8.1 lower-bound construction,
    /// where a legal `Θ(n)` gradient suddenly gains an edge spanning it.
    /// A shortcut duplicating a topology edge is skipped.
    Shortcut {
        /// Appearance time (seconds).
        at: f64,
        /// Offset between the two directions of the appearance.
        skew: f64,
    },
    /// Correlated churn bursts: a spanning tree stays up forever; every
    /// `period` seconds *all* other edges go down simultaneously for
    /// `down` seconds. Unlike [`DynamicsSpec::Churn`]'s independent
    /// exponential phases, the bursts are perfectly correlated — the
    /// worst case for the staged-insertion machinery, which must
    /// re-insert the whole non-backbone edge set at once, every time.
    ChurnBurst {
        /// Seconds between burst starts (the first burst is at `period`).
        period: f64,
        /// Burst duration: how long the non-backbone edges stay down.
        down: f64,
        /// Maximum direction-detection offset.
        skew: f64,
    },
    /// Connectivity-preserving churn: a spanning tree stays up, every
    /// other edge flaps with exponential phases until the scenario ends.
    Churn {
        /// Mean up-phase duration (seconds).
        mean_up: f64,
        /// Mean down-phase duration (seconds).
        mean_down: f64,
        /// Maximum direction-detection offset.
        skew: f64,
        /// Probability a churnable edge starts up.
        start_up: f64,
    },
    /// Random-waypoint mobility; only the topology's node count is used —
    /// links are distance-induced.
    Mobility {
        /// Radio range (fraction of the unit square's side).
        radius: f64,
        /// Disconnect at `radius * hysteresis` (≥ 1).
        hysteresis: f64,
        /// Minimum node speed.
        speed_min: f64,
        /// Maximum node speed.
        speed_max: f64,
        /// Walk sampling period (seconds).
        sample: f64,
        /// Maximum direction-detection offset (< `sample`).
        skew: f64,
    },
    /// Every edge crossing the cut between the first `n/2` nodes and the
    /// rest goes down at `split` and comes back at `merge`.
    Partition {
        /// Cut-open time (seconds).
        split: f64,
        /// Cut-close time (seconds).
        merge: f64,
        /// Maximum direction-detection offset.
        skew: f64,
    },
}

impl DynamicsSpec {
    /// The `.scn` keyword of this generator.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            DynamicsSpec::Static => "static",
            DynamicsSpec::Insertion { .. } => "insertion",
            DynamicsSpec::Shortcut { .. } => "shortcut",
            DynamicsSpec::ChurnBurst { .. } => "churn-burst",
            DynamicsSpec::Churn { .. } => "churn",
            DynamicsSpec::Mobility { .. } => "mobility",
            DynamicsSpec::Partition { .. } => "partition",
        }
    }

    /// Rescales scripted instants by `factor` (phase means, geometry, and
    /// skews are physical constants and stay put).
    #[must_use]
    pub fn time_scaled(&self, factor: f64) -> Self {
        match *self {
            DynamicsSpec::Insertion { at, count, skew } => DynamicsSpec::Insertion {
                at: at * factor,
                count,
                skew,
            },
            DynamicsSpec::Shortcut { at, skew } => DynamicsSpec::Shortcut {
                at: at * factor,
                skew,
            },
            // The burst schedule is scripted instants (unlike the
            // exponential churn phases, which are physical constants), so
            // it scales with the run — *including* the direction skew:
            // its validity constraint (2·skew < down < period − 2·skew)
            // couples it to the scripted spans, so scaling all three by
            // the same factor is what keeps a valid spec valid at every
            // scale.
            DynamicsSpec::ChurnBurst { period, down, skew } => DynamicsSpec::ChurnBurst {
                period: period * factor,
                down: down * factor,
                skew: skew * factor,
            },
            DynamicsSpec::Partition { split, merge, skew } => DynamicsSpec::Partition {
                split: split * factor,
                merge: merge * factor,
                skew,
            },
            ref other => other.clone(),
        }
    }
}

/// A scripted out-of-model fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Adds `amount` seconds to one node's logical clock at time `at`
    /// (the self-stabilization experiments of §5.2).
    ClockOffset {
        /// Injection time (seconds).
        at: f64,
        /// Target node index.
        node: usize,
        /// Offset added to the logical clock.
        amount: f64,
    },
    /// Pushes one node's neighbour estimates towards `bias · ε` from time
    /// `at` on, clamped into the `±ε` envelope of inequality (1) — an
    /// *in-model* adversary, so the conformance oracle grants it no
    /// recovery allowance.
    EstimateBias {
        /// Injection time (seconds).
        at: f64,
        /// Target node index.
        node: usize,
        /// Bias fraction in `[-1, 1]` of the estimate-error bound ε.
        bias: f64,
    },
}

impl FaultSpec {
    /// When the fault fires.
    #[must_use]
    pub fn at(&self) -> f64 {
        match *self {
            FaultSpec::ClockOffset { at, .. } | FaultSpec::EstimateBias { at, .. } => at,
        }
    }

    /// The targeted node index.
    #[must_use]
    pub fn node(&self) -> usize {
        match *self {
            FaultSpec::ClockOffset { node, .. } | FaultSpec::EstimateBias { node, .. } => node,
        }
    }
}

/// Which scalar a campaign aggregates across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Maximum global skew over the observation window.
    GlobalSkew,
    /// Maximum local (per-edge) skew over the observation window.
    LocalSkew,
    /// Global skew at the final instant (recovery scenarios).
    FinalGlobalSkew,
}

impl Metric {
    /// The `.scn` token.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            Metric::GlobalSkew => "global-skew",
            Metric::LocalSkew => "local-skew",
            Metric::FinalGlobalSkew => "final-global-skew",
        }
    }

    /// Parses a `.scn` token.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "global-skew" => Some(Metric::GlobalSkew),
            "local-skew" => Some(Metric::LocalSkew),
            "final-global-skew" => Some(Metric::FinalGlobalSkew),
            _ => None,
        }
    }
}

/// A complete, self-contained scenario: everything needed to reproduce a
/// run except the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Unique name (`[a-z0-9-]+`), doubles as the `.scn` file stem.
    pub name: String,
    /// One-line human description (may be empty).
    pub description: String,
    /// Topology family and size.
    pub topology: TopologySpec,
    /// Hardware-drift adversary.
    pub drift: DriftSpec,
    /// Estimate layer.
    pub estimates: EstimateSpec,
    /// Edge-schedule generator.
    pub dynamics: DynamicsSpec,
    /// Scripted faults, applied by the campaign runner in time order.
    pub faults: Vec<FaultSpec>,
    /// Drift bound ρ.
    pub rho: f64,
    /// Fast-mode boost µ.
    pub mu: f64,
    /// Optional insertion-duration scale (paper constant when absent).
    pub insertion_scale: Option<f64>,
    /// Optional static global-skew estimate `G̃` (derived when absent).
    pub g_tilde: Option<f64>,
    /// §7 node-local dynamic `G̃_u(t)` estimates.
    pub dynamic_estimates: bool,
    /// Warm-up before the observation window (seconds).
    pub warmup: f64,
    /// Observation-window length (seconds).
    pub duration: f64,
    /// Sampling period of the observation plan (seconds).
    pub sample: f64,
    /// Primary metric aggregated across seeds.
    pub metric: Metric,
    /// Engine-scale benchmark scenario: excluded from default campaigns
    /// (`run all` and the CI regression gate keep their historical scenario
    /// set) but fully runnable by name and swept by `gcs-scenarios bench`.
    pub bench: bool,
    /// Explicit node-count clamp applied at [`Scale::Tiny`] instead of the
    /// default halving — how 10³–10⁴-node benchmark scenarios stay
    /// CI-sized. `None` keeps the halving rule.
    pub tiny_nodes: Option<usize>,
}

impl ScenarioSpec {
    /// End of the run: `warmup + duration`.
    #[must_use]
    pub fn end_secs(&self) -> f64 {
        self.warmup + self.duration
    }

    /// The spec resized for `scale`: node counts shrink under
    /// [`Scale::Tiny`], and every scripted time span (warm-up, duration,
    /// dynamics instants, fault times) is multiplied by the scale's time
    /// factor. The sampling period is left alone so tiny runs still
    /// observe enough instants. Faults targeting nodes that no longer
    /// exist are dropped — *not* re-aimed at surviving nodes, which would
    /// stack offsets and corrupt multi-node scripts like the
    /// `line-shortcut` gradient install (per-node offsets keep their
    /// spacing, so a truncated install is still a legal gradient).
    #[must_use]
    pub fn scaled(&self, scale: Scale) -> Self {
        let f = scale.time_factor();
        let mut spec = self.clone();
        spec.topology = match (scale, self.tiny_nodes) {
            (Scale::Tiny, Some(target)) => self.topology.with_node_target(target),
            _ => self.topology.scaled(scale),
        };
        spec.dynamics = self.dynamics.time_scaled(f);
        spec.warmup *= f;
        spec.duration = (self.duration * f).max(self.sample);
        let nodes = spec.topology.node_count();
        spec.faults = self
            .faults
            .iter()
            .filter(|fault| fault.node() < nodes)
            .map(|fault| match *fault {
                FaultSpec::ClockOffset { at, node, amount } => FaultSpec::ClockOffset {
                    at: at * f,
                    node,
                    amount,
                },
                FaultSpec::EstimateBias { at, node, bias } => FaultSpec::EstimateBias {
                    at: at * f,
                    node,
                    bias,
                },
            })
            .collect();
        spec
    }

    /// Checks every range constraint, returning the first problem found.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] describing the offending field.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |msg: String| Err(ScenarioError::Invalid(msg));
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return fail(format!(
                "name {:?} must be non-empty and use only [a-z0-9-]",
                self.name
            ));
        }
        if self.description.chars().any(|c| (c as u32) < 0x20)
            || self.description != self.description.trim()
        {
            return fail(
                "description must be a single trimmed line without control characters \
                 (anything else cannot round-trip through the .scn format)"
                    .to_string(),
            );
        }
        let n = match self.topology.checked_node_count() {
            Some(n) if n <= MAX_NODES => n,
            count => {
                let count = count.map_or("overflows usize".to_string(), |n| n.to_string());
                return fail(format!(
                    "topology {} has more than MAX_NODES = {MAX_NODES} nodes ({count})",
                    self.topology.family()
                ));
            }
        };
        match self.topology {
            TopologySpec::Line { n } | TopologySpec::Star { n } | TopologySpec::Complete { n } => {
                if n < 2 {
                    return fail(format!("{} needs n >= 2", self.topology.family()));
                }
            }
            TopologySpec::Ring { n } => {
                if n < 3 {
                    return fail("ring needs n >= 3".to_string());
                }
            }
            TopologySpec::Grid { .. } => {
                if n < 2 {
                    return fail("grid needs w*h >= 2".to_string());
                }
            }
            TopologySpec::Torus { w, h } => {
                if w < 3 || h < 3 {
                    return fail("torus needs w, h >= 3".to_string());
                }
            }
            TopologySpec::Hypercube { dim } => {
                if !(1..=16).contains(&dim) {
                    return fail("hypercube needs 1 <= dim <= 16".to_string());
                }
            }
            TopologySpec::Gnp { n, p } => {
                if n < 2 || !(0.0..=1.0).contains(&p) {
                    return fail("gnp needs n >= 2 and p in [0, 1]".to_string());
                }
            }
            TopologySpec::Geometric { n, radius } => {
                if n < 2 || radius <= 0.0 {
                    return fail("geometric needs n >= 2 and radius > 0".to_string());
                }
            }
            TopologySpec::SmallWorld { n, k, beta } => {
                if n < 4 || k % 2 != 0 || k < 2 || k >= n || !(0.0..=1.0).contains(&beta) {
                    return fail(
                        "small-world needs n >= 4, even 2 <= k < n, beta in [0, 1]".to_string(),
                    );
                }
            }
            TopologySpec::ScaleFree { n, m } => {
                if m < 1 || n <= m {
                    return fail("scale-free needs m >= 1 and n > m".to_string());
                }
            }
        }
        match self.dynamics {
            DynamicsSpec::Static => {}
            DynamicsSpec::Insertion { at, count, skew } => {
                if at < 0.0 || count == 0 || skew < 0.0 {
                    return fail("insertion needs t >= 0, count >= 1, skew >= 0".to_string());
                }
                if n < 4 {
                    return fail("insertion needs at least 4 nodes for a chord".to_string());
                }
            }
            DynamicsSpec::Shortcut { at, skew } => {
                if at < 0.0 || skew < 0.0 {
                    return fail("shortcut needs t >= 0 and skew >= 0".to_string());
                }
                if n < 3 {
                    return fail("shortcut needs at least 3 nodes".to_string());
                }
            }
            DynamicsSpec::ChurnBurst { period, down, skew } => {
                if period <= 0.0 || down <= 0.0 || skew < 0.0 {
                    return fail("churn-burst needs period > 0, down > 0, skew >= 0".to_string());
                }
                // The mirrored Up of one burst must not overtake the
                // mirrored Down of the next (same clamp as the churn
                // generator's minimum phase).
                if down + 2.0 * skew >= period || down <= 2.0 * skew {
                    return fail(format!(
                        "churn-burst needs 2*skew < down < period - 2*skew \
                         (got period={period}, down={down}, skew={skew})"
                    ));
                }
            }
            DynamicsSpec::Churn {
                mean_up,
                mean_down,
                skew,
                start_up,
            } => {
                if mean_up <= 0.0 || mean_down <= 0.0 {
                    return fail("churn phase means must be positive".to_string());
                }
                if skew < 0.0 || !(0.0..=1.0).contains(&start_up) {
                    return fail("churn needs skew >= 0 and start-up in [0, 1]".to_string());
                }
            }
            DynamicsSpec::Mobility {
                radius,
                hysteresis,
                speed_min,
                speed_max,
                sample,
                skew,
            } => {
                if radius <= 0.0
                    || hysteresis < 1.0
                    || speed_min <= 0.0
                    || speed_min > speed_max
                    || sample <= 0.0
                    || skew < 0.0
                    || skew >= sample
                {
                    return fail(
                        "mobility needs radius > 0, hysteresis >= 1, 0 < speed-min <= \
                         speed-max, sample > 0, 0 <= skew < sample"
                            .to_string(),
                    );
                }
            }
            DynamicsSpec::Partition { split, merge, skew } => {
                if split < 0.0 || merge <= split || skew < 0.0 {
                    return fail("partition needs 0 <= split < merge and skew >= 0".to_string());
                }
                // The two halves must be internally connected for *every*
                // seed; only families whose node order guarantees that are
                // allowed (random families or stars could strand a side).
                let ok = matches!(
                    self.topology,
                    TopologySpec::Line { .. }
                        | TopologySpec::Ring { .. }
                        | TopologySpec::Grid { .. }
                        | TopologySpec::Torus { .. }
                        | TopologySpec::Complete { .. }
                        | TopologySpec::Hypercube { .. }
                );
                if !ok {
                    return fail(format!(
                        "partition dynamics require a line/ring/grid/torus/complete/hypercube \
                         topology (both halves stay connected); got {}",
                        self.topology.family()
                    ));
                }
                if n < 4 {
                    return fail("partition needs at least 4 nodes".to_string());
                }
            }
        }
        for f in &self.faults {
            match *f {
                FaultSpec::ClockOffset { at, node, amount } => {
                    if at < 0.0 || node >= n || !amount.is_finite() {
                        return fail(format!(
                            "fault offset needs t >= 0, node < {n}, finite amount (got t={at}, \
                             node={node}, amount={amount})"
                        ));
                    }
                }
                FaultSpec::EstimateBias { at, node, bias } => {
                    if at < 0.0 || node >= n || !bias.is_finite() || !(-1.0..=1.0).contains(&bias) {
                        return fail(format!(
                            "fault est-bias needs t >= 0, node < {n}, bias in [-1, 1] (got \
                             t={at}, node={node}, bias={bias})"
                        ));
                    }
                }
            }
            if f.at() > self.end_secs() {
                return fail(format!(
                    "fault at t={} is after the scenario end ({}) and would never fire",
                    f.at(),
                    self.end_secs()
                ));
            }
        }
        if self.warmup < 0.0 || self.duration <= 0.0 {
            return fail("need warmup >= 0 and duration > 0".to_string());
        }
        if self.sample <= 0.0 || self.sample > self.duration {
            return fail("need 0 < sample <= duration".to_string());
        }
        if let Some(s) = self.insertion_scale {
            if s <= 0.0 {
                return fail(format!("insertion-scale must be positive, got {s}"));
            }
        }
        if let Some(g) = self.g_tilde {
            if g <= 0.0 {
                return fail(format!("g-tilde must be positive, got {g}"));
            }
        }
        if let Some(t) = self.tiny_nodes {
            if t < 2 {
                return fail(format!("tiny-nodes must be at least 2, got {t}"));
            }
            if t > self.topology.node_count() {
                return fail(format!(
                    "tiny-nodes ({t}) must not exceed the full-scale node count ({})",
                    self.topology.node_count()
                ));
            }
        }
        // Delegate the algorithm-parameter constraints to the real
        // validator so `.scn` authors get the paper's error messages.
        self.params()?;
        Ok(())
    }

    /// The validated algorithm parameters of this scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Params`] when the combination is rejected.
    pub fn params(&self) -> Result<Params, ScenarioError> {
        let mut pb = Params::builder();
        pb.rho(self.rho).mu(self.mu);
        if let Some(s) = self.insertion_scale {
            pb.insertion_scale(s);
        }
        if let Some(g) = self.g_tilde {
            pb.g_tilde(g);
        }
        if self.dynamic_estimates {
            pb.dynamic_estimates(true);
        }
        Ok(pb.build()?)
    }

    /// Compiles the scenario's network schedule for `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] if validation fails.
    pub fn schedule(&self, seed: u64) -> Result<NetworkSchedule, ScenarioError> {
        self.validate()?;
        let topo = self.topology.realize(seed);
        let end = self.end_secs();
        Ok(match self.dynamics {
            DynamicsSpec::Static => NetworkSchedule::static_graph(&topo),
            DynamicsSpec::Insertion { at, count, skew } => {
                let n = topo.node_count();
                let existing: BTreeSet<EdgeKey> = topo.edges().iter().copied().collect();
                let mut chosen = BTreeSet::new();
                let mut chords = Vec::new();
                for i in 0..count {
                    let (u, v) = (i % n, (i + n / 2) % n);
                    if u == v {
                        continue;
                    }
                    let e = EdgeKey::new(NodeId::from(u), NodeId::from(v));
                    if existing.contains(&e) || !chosen.insert(e) {
                        continue;
                    }
                    chords.push((e, SimTime::from_secs(at)));
                }
                NetworkSchedule::with_edge_insertion(&topo, &chords, skew)
            }
            DynamicsSpec::Shortcut { at, skew } => {
                let n = topo.node_count();
                let e = EdgeKey::new(NodeId(0), NodeId::from(n - 1));
                let chords: Vec<(EdgeKey, SimTime)> = if topo.edges().contains(&e) {
                    Vec::new()
                } else {
                    vec![(e, SimTime::from_secs(at))]
                };
                NetworkSchedule::with_edge_insertion(&topo, &chords, skew)
            }
            DynamicsSpec::ChurnBurst { period, down, skew } => {
                let mut s = NetworkSchedule::static_graph(&topo);
                let backbone: BTreeSet<EdgeKey> = topo.spanning_tree().into_iter().collect();
                let mut changes = Vec::new();
                let mut t = period;
                while t < end {
                    for &e in topo.edges() {
                        if backbone.contains(&e) {
                            continue;
                        }
                        changes.push((e, SimTime::from_secs(t), EdgeEventKind::Down));
                        changes.push((e, SimTime::from_secs(t + down), EdgeEventKind::Up));
                    }
                    t += period;
                }
                s.extend_undirected(changes, skew);
                s
            }
            DynamicsSpec::Churn {
                mean_up,
                mean_down,
                skew,
                start_up,
            } => NetworkSchedule::churn(
                &topo,
                ChurnOptions {
                    horizon: end,
                    mean_up,
                    mean_down,
                    direction_skew_max: skew,
                    start_up_probability: start_up,
                },
                seed,
            ),
            DynamicsSpec::Mobility {
                radius,
                hysteresis,
                speed_min,
                speed_max,
                sample,
                skew,
            } => RandomWaypoint {
                n: topo.node_count(),
                radius,
                hysteresis,
                speed: (speed_min, speed_max),
                horizon: end,
                sample_period: sample,
                direction_skew_max: skew,
            }
            .generate(seed),
            DynamicsSpec::Partition { split, merge, skew } => {
                let left: Vec<NodeId> = (0..topo.node_count() / 2).map(NodeId::from).collect();
                NetworkSchedule::partition_and_merge(
                    &topo,
                    &left,
                    SimTime::from_secs(split),
                    SimTime::from_secs(merge),
                    skew,
                )
            }
        })
    }

    /// A [`SimBuilder`] pre-loaded with everything the spec describes —
    /// compiled schedule, drift, estimates, horizon, seed, and the spec's
    /// own parameters. The experiment harness chains observation-only
    /// toggles (diameter tracking, baseline policies, a longer horizon)
    /// before calling [`SimBuilder::build`]; the topology and edge
    /// schedule always come from the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if validation or the parameters reject
    /// the spec.
    pub fn builder(&self, seed: u64) -> Result<SimBuilder, ScenarioError> {
        let params = self.params()?;
        self.builder_with(params, seed)
    }

    /// Like [`ScenarioSpec::builder`], but with caller-supplied
    /// parameters. This is the seam for ablations that sweep algorithm
    /// knobs the scenario format deliberately does not model (κ scale,
    /// refresh period, insertion strategy): the adversary — topology,
    /// dynamics, drift, estimates — still comes from the spec.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if validation rejects the spec.
    pub fn builder_with(&self, params: Params, seed: u64) -> Result<SimBuilder, ScenarioError> {
        let schedule = self.schedule(seed)?;
        Ok(SimBuilder::new(params)
            .schedule(schedule)
            .drift(self.drift.model())
            .estimates(self.estimates.mode())
            .horizon(self.end_secs() + 10.0)
            .seed(seed))
    }

    /// Compiles the spec into a ready-to-run [`Simulation`]: the single
    /// seam every consumer (examples, experiments, campaigns) goes
    /// through. Identical spec + seed ⇒ bit-identical runs.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if validation, the parameters, or the
    /// simulation builder reject the spec.
    pub fn build(&self, seed: u64) -> Result<Simulation, ScenarioError> {
        Ok(self.builder(seed)?.build()?)
    }

    /// Compiles the spec into a boxed [`Engine`]: the sequential
    /// reference for one thread (or none), the sharded engine with
    /// `threads` shards above. The only place that picks — everything
    /// downstream drives `dyn Engine`, bit-identically at every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] if validation, the parameters, or either
    /// engine's builder reject the spec.
    pub fn engine(&self, seed: u64, threads: usize) -> Result<Box<dyn Engine>, ScenarioError> {
        let builder = self.builder(seed)?;
        if threads <= 1 {
            return Ok(Box::new(builder.build()?));
        }
        let sharded = ParallelSimBuilder::new(builder)
            .shards(threads)
            .build()
            .map_err(|e| ScenarioError::Invalid(format!("{}: {e}", self.name)))?;
        Ok(Box::new(sharded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn base() -> ScenarioSpec {
        registry::find("line-worstcase").expect("built-in")
    }

    #[test]
    fn build_compiles_and_runs() {
        let spec = base();
        let mut sim = spec.build(1).unwrap();
        sim.run_until_secs(5.0);
        assert!(sim.snapshot().global_skew().is_finite());
        assert_eq!(sim.node_count(), spec.topology.node_count());
    }

    #[test]
    fn validation_rejects_bad_names() {
        let mut spec = base();
        spec.name = "Bad Name".to_string();
        assert!(matches!(spec.validate(), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn validation_rejects_faults_after_the_end() {
        let mut spec = base();
        spec.faults.push(FaultSpec::ClockOffset {
            at: spec.end_secs() + 1.0,
            node: 0,
            amount: 0.5,
        });
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("never"), "{err}");
    }

    #[test]
    fn validation_rejects_untrimmed_descriptions() {
        for bad in ["trailing space ", " leading", "car\rriage", "two\nlines"] {
            let mut spec = base();
            spec.description = bad.to_string();
            assert!(spec.validate().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn tiny_scale_never_grows_a_topology() {
        let one = TopologySpec::Hypercube { dim: 1 };
        assert_eq!(one.scaled(Scale::Tiny).node_count(), one.node_count());
        for spec in registry::all() {
            let tiny = spec.topology.scaled(Scale::Tiny);
            assert!(
                tiny.node_count() <= spec.topology.node_count(),
                "{}: {} -> {}",
                spec.name,
                spec.topology.node_count(),
                tiny.node_count()
            );
        }
    }

    #[test]
    fn tiny_scale_drops_faults_on_vanished_nodes() {
        // The line-shortcut gradient install has one offset per node;
        // shrinking the line must drop the out-of-range faults, not
        // re-aim them (stacking offsets would corrupt the legal
        // 2-kappa-per-edge gradient).
        let spec = registry::find("line-shortcut").expect("built-in");
        let tiny = spec.scaled(Scale::Tiny);
        let n = tiny.topology.node_count();
        assert_eq!(tiny.faults.len(), n, "one fault per surviving node");
        let mut amounts = vec![f64::NAN; n];
        for f in &tiny.faults {
            let FaultSpec::ClockOffset { node, amount, .. } = *f else {
                panic!("line-shortcut uses clock offsets only");
            };
            assert!(node < n);
            assert!(amounts[node].is_nan(), "faults stacked on node {node}");
            amounts[node] = amount;
        }
        // Adjacent offsets keep their original spacing: still a uniform
        // gradient after truncation.
        let step = amounts[0] - amounts[1];
        assert!(step > 0.0);
        for w in amounts.windows(2) {
            assert!((w[0] - w[1] - step).abs() < 1e-12);
        }
    }

    #[test]
    fn churn_burst_scaling_preserves_validity() {
        // The burst geometry constraint couples skew to period/down, so
        // all three must scale together — a spec valid at default must
        // stay valid (same relative geometry) at every scale, even with
        // tight margins.
        let mut spec = base();
        spec.topology = TopologySpec::Ring { n: 8 };
        spec.dynamics = DynamicsSpec::ChurnBurst {
            period: 1.0,
            down: 0.05,
            skew: 0.02,
        };
        spec.validate().unwrap();
        for scale in [Scale::Tiny, Scale::Default, Scale::Full] {
            spec.scaled(scale)
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", scale.name()));
        }
    }

    #[test]
    fn validation_rejects_out_of_range_fault_node() {
        let mut spec = base();
        spec.faults.push(FaultSpec::ClockOffset {
            at: 1.0,
            node: 10_000,
            amount: 0.5,
        });
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_bounds_estimate_bias_to_the_envelope() {
        let mut spec = base();
        spec.faults.push(FaultSpec::EstimateBias {
            at: 1.0,
            node: 0,
            bias: 1.0,
        });
        spec.validate().unwrap();
        spec.faults[0] = FaultSpec::EstimateBias {
            at: 1.0,
            node: 0,
            bias: 1.5,
        };
        assert!(spec.validate().is_err(), "bias beyond epsilon must fail");
        spec.faults[0] = FaultSpec::EstimateBias {
            at: 1.0,
            node: 10_000,
            bias: 0.5,
        };
        assert!(spec.validate().is_err(), "node out of range must fail");
    }

    #[test]
    fn tiny_scale_rescales_and_drops_estimate_bias_faults() {
        let mut spec = base();
        spec.topology = TopologySpec::Line { n: 8 };
        spec.faults = vec![
            FaultSpec::EstimateBias {
                at: 4.0,
                node: 0,
                bias: -1.0,
            },
            FaultSpec::EstimateBias {
                at: 4.0,
                node: 7,
                bias: 1.0,
            },
        ];
        spec.validate().unwrap();
        let tiny = spec.scaled(Scale::Tiny);
        assert_eq!(
            tiny.faults,
            vec![FaultSpec::EstimateBias {
                at: 1.0,
                node: 0,
                bias: -1.0,
            }],
            "time rescaled, vanished-node fault dropped"
        );
    }

    #[test]
    fn validation_rejects_partition_on_random_topology() {
        let mut spec = base();
        spec.topology = TopologySpec::Gnp { n: 16, p: 0.2 };
        spec.dynamics = DynamicsSpec::Partition {
            split: 5.0,
            merge: 10.0,
            skew: 0.001,
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn validation_rejects_bad_params_via_params_error() {
        let mut spec = base();
        spec.mu = 0.5; // violates eq. (7)
        assert!(matches!(spec.validate(), Err(ScenarioError::Params(_))));
    }

    #[test]
    fn insertion_chords_skip_existing_edges() {
        let mut spec = base();
        spec.topology = TopologySpec::Ring { n: 8 };
        spec.dynamics = DynamicsSpec::Insertion {
            at: 2.0,
            count: 3,
            skew: 0.002,
        };
        let sched = spec.schedule(0).unwrap();
        // Three antipodal chords, none of which is a ring edge: 2 directed
        // Up events each.
        assert_eq!(sched.events().len(), 6);
    }

    #[test]
    fn tiny_scale_shrinks_everything() {
        let spec = registry::find("churn-storm").expect("built-in");
        let tiny = spec.scaled(Scale::Tiny);
        assert!(tiny.topology.node_count() < spec.topology.node_count());
        assert!(tiny.end_secs() < spec.end_secs() / 2.0);
        assert!(tiny.validate().is_ok());
        // Every built-in stays valid at every scale.
        for s in registry::all() {
            for scale in [Scale::Tiny, Scale::Default, Scale::Full] {
                s.scaled(scale)
                    .validate()
                    .unwrap_or_else(|e| panic!("{} at {}: {e}", s.name, scale.name()));
            }
        }
    }

    #[test]
    fn random_families_vary_with_seed_but_not_within_it() {
        let spec = ScenarioSpec {
            topology: TopologySpec::Gnp { n: 12, p: 0.3 },
            ..base()
        };
        let a = spec.topology.realize(1);
        let b = spec.topology.realize(1);
        let c = spec.topology.realize(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
