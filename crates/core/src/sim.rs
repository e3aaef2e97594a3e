//! The simulation engine: replays a dynamic-network scenario and runs the
//! clock synchronization algorithm on every node.
//!
//! The engine is a discrete-event simulation with one twist: clocks are
//! piecewise linear between events, so node state is integrated *lazily and
//! exactly* — a node is advanced to the current instant only when an event
//! touches it (or a global tick fires). The paper's continuous-time mode
//! triggers (footnote 6) are evaluated every [`Simulation::tick_interval`]
//! seconds; the induced slack on measured bounds is
//! [`Params::discretization_slack`].
//!
//! The hot path is *incremental*: per tick, only nodes whose decision
//! inputs may have changed since their last evaluation are re-decided. A
//! node evaluated at time `t` receives a
//! [`StabilityCert`](crate::triggers::StabilityCert) from its policy
//! — margins within which no trigger threshold can be crossed — which the
//! engine converts into a real-time horizon using the worst-case relative
//! drift rate `β − α`; until the horizon expires (or an event dirties the
//! node) the decision provably cannot change, so skipping the evaluation
//! is *bit-identical* to the full per-node pass (property-tested, and
//! re-checked against the full pass on every tick in debug builds).
//!
//! Event kinds:
//!
//! * `Tick` — re-evaluate the [`ModePolicy`] on dirty/expired nodes,
//! * `Timer` — a wake-up a node asked for: its periodic flood of
//!   `(L, M, W, P)` (Condition 4.3 / §7; in message-estimate mode it
//!   doubles as the clock-sample carrier) or one of the two timed steps of
//!   the Listing 1 insertion handshake,
//! * `Deliver` — message arrival, subject to the §3.1 continuity rule,
//! * `EdgeUp` / `EdgeDown` — the scenario's scripted edge dynamics,
//! * `RateChange` — the drift adversary adjusting a hardware clock.
//!
//! What a node *does* on any of these is not in this crate: the engine
//! calls [`gcs_protocol::handlers`] and turns the effects into queue
//! entries (see [`crate::shard`]'s `EngineHost`). What is here is what a
//! simulator adds around the node: the queue, the scripted network, the
//! oracle's window onto true clocks, and the stability-certificate cache
//! that lets a tick skip nodes whose decision provably stands.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::Rng;

use gcs_net::transport;
use gcs_net::{
    DynamicGraph, EdgeEventKind, EdgeKey, EdgeParamsMap, NetworkSchedule, NodeId, Topology,
};
use gcs_sim::{rng, DriftModel, EventQueue, SimDuration, SimTime};
use gcs_telemetry::{LocalCounters, TelemetrySink};

use crate::shard::{EngineHost, EventSink, LocalCtx};
use crate::snapshot::ClockSnapshot;
use gcs_protocol::edge_state::{InsertState, Level};
use gcs_protocol::handlers::{self, Discovered, Message, Run, Timer};
use gcs_protocol::node::NodeState;
use gcs_protocol::runtime::derive_run_config;
use gcs_protocol::triggers::{
    fast_trigger, slow_trigger, AoptPolicy, Mode, ModePolicy, NeighborView,
};
use gcs_protocol::{EdgeInfo, EstimateMode, InsertionStrategy, Params};

/// Engine events.
///
/// Crate-visible because the sharded engine
/// ([`ParallelSimulation`](crate::ParallelSimulation)) routes these
/// between per-shard queues; the variants stay out of the public API.
#[derive(Debug)]
pub(crate) enum Event {
    Tick,
    /// A wake-up `node` requested through its handlers' host.
    Timer {
        node: NodeId,
        timer: Timer,
    },
    /// A message arriving (the delivery instant is the event time itself,
    /// so only the send time travels with the event).
    Deliver {
        src: NodeId,
        dst: NodeId,
        sent_at: SimTime,
        payload: Message,
    },
    EdgeUp {
        from: NodeId,
        to: NodeId,
    },
    EdgeDown {
        from: NodeId,
        to: NodeId,
    },
    RateChange {
        node: usize,
        rate: f64,
    },
}

/// The master-side sink: the master queue, or — when the sharding seam is
/// armed — the redirect buffer the parallel engine routes to the owning
/// shard.
struct MasterSink<'a> {
    queue: &'a mut EventQueue<Event>,
    redirect: &'a mut Option<Vec<(SimTime, Event)>>,
}

impl EventSink for MasterSink<'_> {
    fn schedule(&mut self, time: SimTime, event: Event) {
        match self.redirect {
            Some(buf) => buf.push((time, event)),
            None => self.queue.schedule(time, event),
        }
    }
}

/// Counters the engine maintains while running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages handed to the transport.
    pub messages_sent: u64,
    /// Messages delivered (continuity rule satisfied).
    pub messages_delivered: u64,
    /// Messages dropped by the continuity rule.
    pub messages_dropped: u64,
    /// Tick events processed.
    pub ticks: u64,
    /// Total events processed.
    pub events: u64,
    /// Per-node mode decisions actually evaluated (the full reference pass
    /// would evaluate `ticks * node_count`; the difference is what the
    /// dirty-set/stability-certificate machinery skipped).
    pub mode_evaluations: u64,
    /// Listing 1 handshakes the leader completed (offer sent).
    pub handshakes_offered: u64,
    /// Insertion schedules installed (leader + follower sides).
    pub insertions_scheduled: u64,
    /// Edge-down detections that cleared neighbour state.
    pub edge_removals: u64,
}

/// One realized out-of-model or topology change, in event order. The
/// simulation records these unconditionally so that *a posteriori*
/// verifiers such as the conformance oracle can reconstruct exactly when
/// the theorems' preconditions were perturbed: a clock corruption starts
/// a self-stabilization window (§5.2), an edge appearance starts a staged
/// insertion (§6), and a disappearance may open a partition. The log is
/// bounded: one entry per realized [`NetworkSchedule`] edge event (a
/// script that is itself held in memory in full, so the log at most
/// doubles what the scenario already allocates, and never grows past it)
/// plus one per injected fault — nothing is recorded on the per-message
/// or per-tick hot paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChangeRecord {
    /// A directed edge appeared (the *from* node discovered *to*).
    EdgeUp {
        /// Event time in seconds.
        at: f64,
        /// The node whose neighbour set grew.
        from: NodeId,
        /// The discovered neighbour.
        to: NodeId,
    },
    /// A directed edge vanished.
    EdgeDown {
        /// Event time in seconds.
        at: f64,
        /// The node whose neighbour set shrank.
        from: NodeId,
        /// The lost neighbour.
        to: NodeId,
    },
    /// An out-of-model logical-clock corruption
    /// ([`Simulation::inject_clock_offset`]).
    ClockFault {
        /// Injection time in seconds.
        at: f64,
        /// The corrupted node.
        node: NodeId,
        /// Offset added to the logical clock.
        amount: f64,
    },
    /// A scripted estimate corruption
    /// ([`Simulation::inject_estimate_bias`]): from `at` on, the node
    /// reads every neighbour estimate pushed by `bias · ε`, clamped back
    /// into the advertised `±ε` envelope. Inequality (1) still holds, so
    /// the paper bounds earn no allowance — this is the *in-model*
    /// adversary, unlike [`ClockFault`](Self::ClockFault).
    EstimateFault {
        /// Injection time in seconds.
        at: f64,
        /// The node whose estimate reads are corrupted.
        node: NodeId,
        /// Scripted bias in units of the per-edge `ε`, within `[-1, 1]`.
        bias: f64,
    },
}

impl ChangeRecord {
    /// When the change was realized (seconds).
    #[must_use]
    pub fn at(&self) -> f64 {
        match *self {
            ChangeRecord::EdgeUp { at, .. }
            | ChangeRecord::EdgeDown { at, .. }
            | ChangeRecord::ClockFault { at, .. }
            | ChangeRecord::EstimateFault { at, .. } => at,
        }
    }
}

/// Errors from [`SimBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// Neither a topology nor a schedule was provided.
    NoScenario,
    /// The scenario has fewer than two nodes.
    TooFewNodes(usize),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::NoScenario => {
                f.write_str("no scenario: call .topology(..) or .schedule(..)")
            }
            BuildError::TooFewNodes(n) => write!(f, "scenario has {n} node(s), need at least 2"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Configures and constructs a [`Simulation`].
///
/// # Example
///
/// ```
/// use gcs_core::{Params, SimBuilder};
/// use gcs_net::Topology;
/// use gcs_sim::DriftModel;
///
/// let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
/// let mut sim = SimBuilder::new(params)
///     .topology(Topology::line(4))
///     .drift(DriftModel::TwoBlock)
///     .seed(7)
///     .build()
///     .unwrap();
/// sim.run_until_secs(5.0);
/// assert!(sim.snapshot().global_skew() < 0.5);
/// ```
#[derive(Debug)]
pub struct SimBuilder {
    params: Params,
    schedule: Option<NetworkSchedule>,
    edge_params: EdgeParamsMap,
    drift: DriftModel,
    mode: EstimateMode,
    policy: Option<Box<dyn ModePolicy>>,
    seed: u64,
    horizon: f64,
    // Crate-visible so the parallel builder can reject a configuration the
    // sharded engine does not support before building.
    pub(crate) track_diameter: bool,
}

impl SimBuilder {
    /// Starts a builder with the given algorithm parameters.
    #[must_use]
    pub fn new(params: Params) -> Self {
        SimBuilder {
            params,
            schedule: None,
            edge_params: EdgeParamsMap::default(),
            drift: DriftModel::None,
            mode: EstimateMode::default(),
            policy: None,
            seed: 0,
            horizon: 3600.0,
            track_diameter: false,
        }
    }

    /// Uses a static topology (all edges up from `t = 0`, no dynamics).
    #[must_use]
    pub fn topology(mut self, topo: Topology) -> Self {
        self.schedule = Some(NetworkSchedule::static_graph(&topo));
        self
    }

    /// Uses an explicit dynamic-network script.
    #[must_use]
    pub fn schedule(mut self, schedule: NetworkSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the per-edge model parameters (default:
    /// [`EdgeParams::default`](gcs_net::EdgeParams::default) everywhere).
    #[must_use]
    pub fn edge_params(mut self, map: EdgeParamsMap) -> Self {
        self.edge_params = map;
        self
    }

    /// Sets the hardware-drift adversary.
    #[must_use]
    pub fn drift(mut self, drift: DriftModel) -> Self {
        self.drift = drift;
        self
    }

    /// Selects the estimate layer implementation.
    #[must_use]
    pub fn estimates(mut self, mode: EstimateMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the `A_OPT` mode policy (used by the baseline algorithms).
    #[must_use]
    pub fn policy(mut self, policy: Box<dyn ModePolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Root RNG seed; identical seeds give bit-identical runs.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Horizon used to materialize time-varying drift schedules (seconds).
    #[must_use]
    pub fn horizon(mut self, secs: f64) -> Self {
        self.horizon = secs;
        self
    }

    /// Enables the [`DiameterTracker`](crate::DiameterTracker): the
    /// simulation then measures the dynamic estimate diameter `D(t)` of
    /// Definition 3.1 (O(n) extra work per delivered flood).
    #[must_use]
    pub fn track_diameter(mut self, on: bool) -> Self {
        self.track_diameter = on;
        self
    }

    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if no scenario was configured or it is too
    /// small.
    pub fn build(self) -> Result<Simulation, BuildError> {
        let schedule = self.schedule.ok_or(BuildError::NoScenario)?;
        let n = schedule.node_count();
        if n < 2 {
            return Err(BuildError::TooFewNodes(n));
        }

        // Derived knobs: refresh period, per-edge info, iota, G~, tick —
        // the shared derivation in `gcs-protocol`, so a daemon cluster
        // configured like this scenario lands on bit-identical constants.
        let universe = schedule.edge_universe();
        let cfg = derive_run_config(&self.params, self.mode, &self.edge_params, &universe, n);
        let (params, refresh, tick, edge_info) = (cfg.params, cfg.refresh, cfg.tick, cfg.edge_info);

        // Drift realization and node construction.
        let drift =
            self.drift
                .realize(n, params.rho(), SimTime::from_secs(self.horizon), self.seed);
        // Directed edges present at t = 0. Each node's neighbour table is
        // sized for exactly its initial out-degree: at 10⁵ nodes, `Vec`'s
        // minimum of four entries would be most of a ring node's memory.
        let initial: std::collections::BTreeSet<(NodeId, NodeId)> =
            schedule.initial_directed().iter().copied().collect();
        let mut degree = vec![0; n];
        for &(u, _) in &initial {
            degree[u.index()] += 1;
        }
        let nodes: Vec<NodeState> = (0..n)
            .map(|i| {
                let mut node = NodeState::new(NodeId::from(i), drift.initial[i]);
                node.slots.reserve_exact(degree[i]);
                node
            })
            .collect();

        let mut queue: EventQueue<Event> = EventQueue::new();
        for c in &drift.changes {
            queue.schedule(
                c.time,
                Event::RateChange {
                    node: c.node,
                    rate: c.rate,
                },
            );
        }
        for ev in schedule.events() {
            let e = match ev.kind {
                EdgeEventKind::Up => Event::EdgeUp {
                    from: ev.from,
                    to: ev.to,
                },
                EdgeEventKind::Down => Event::EdgeDown {
                    from: ev.from,
                    to: ev.to,
                },
            };
            queue.schedule(ev.time, e);
        }
        queue.schedule(SimTime::from_secs(tick), Event::Tick);

        // Stagger initial floods uniformly inside one refresh period so the
        // network does not send in lockstep.
        let mut stagger = rng::stream(self.seed, "flood-stagger", 0);
        for i in 0..n {
            let offset = stagger.gen_range(0.0..refresh.max(1e-9));
            queue.schedule(
                SimTime::from_secs(offset),
                Event::Timer {
                    node: NodeId::from(i),
                    timer: Timer::Flood,
                },
            );
        }

        let mut bias_rng = rng::stream(self.seed, "oracle-bias", 0);
        let rho = params.rho();
        // The stability certificates assume staged insertion (constant
        // per-edge weights); the decaying-weight strategy varies κ and δ
        // continuously, so it falls back to full per-tick re-evaluation.
        let certs_enabled = matches!(params.insertion_strategy(), InsertionStrategy::Staged);
        let mut sim = Simulation {
            policy: self
                .policy
                .unwrap_or_else(|| Box::new(AoptPolicy::new(params.max_levels()))),
            params,
            mode: self.mode,
            graph: DynamicGraph::new(n),
            nodes,
            queue,
            edge_info,
            tick,
            refresh,
            now: SimTime::ZERO,
            bias_rng: rng::stream(self.seed, "oracle-bias", 1),
            gen_counter: 0,
            stats: SimStats::default(),
            diameter: self
                .track_diameter
                .then(|| crate::diameter::DiameterTracker::new(n, rho)),
            fault_injected: false,
            changes: Vec::new(),
            hot: HotColumns {
                stable_until: vec![f64::NEG_INFINITY; n],
                m_jump_sensitive: vec![true; n],
                delay_rng: (0..n)
                    .map(|i| rng::stream(self.seed, "delay", i as u64))
                    .collect(),
            },
            certs_enabled,
            full_reevaluation: false,
            scratch: Scratch::default(),
            redirect: None,
            telemetry: None,
            tel_local: LocalCounters::default(),
        };
        // Initial graph: pairs present in both directions are fully
        // inserted (N^s(0) = N(0), §4.2); loners are discovered at t = 0
        // like any later arrival.
        for &(u, v) in &initial {
            sim.graph.insert_directed(u, v, SimTime::ZERO);
            let oracle_bias = bias_rng.gen_range(-1.0..=1.0);
            if initial.contains(&(v, u)) {
                let info = sim.edge_info[&EdgeKey::new(u, v)];
                handlers::neighbor_initial(&mut sim.nodes[u.index()], v, info, oracle_bias);
            } else {
                sim.discover(SimTime::ZERO, u, v, oracle_bias);
            }
        }
        Ok(sim)
    }
}

/// A running simulation: the dynamic network, all node states, and the
/// event queue.
///
/// Construct via [`SimBuilder`]; drive with [`run_until_secs`]
/// (or [`run_until`]); inspect with [`snapshot`], [`node`], and the
/// level-set accessors.
///
/// [`run_until_secs`]: Simulation::run_until_secs
/// [`run_until`]: Simulation::run_until
/// [`snapshot`]: Simulation::snapshot
/// [`node`]: Simulation::node
#[derive(Debug)]
pub struct Simulation {
    pub(crate) params: Params,
    policy: Box<dyn ModePolicy>,
    pub(crate) mode: EstimateMode,
    pub(crate) graph: DynamicGraph,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) edge_info: HashMap<EdgeKey, EdgeInfo>,
    tick: f64,
    pub(crate) refresh: f64,
    pub(crate) now: SimTime,
    bias_rng: StdRng,
    gen_counter: u64,
    pub(crate) stats: SimStats,
    diameter: Option<crate::diameter::DiameterTracker>,
    /// Set once [`Simulation::inject_clock_offset`] has been used: the
    /// flood-bound invariants then only hold up to the self-stabilization
    /// slack (see [`Simulation::verify_invariants`]).
    fault_injected: bool,
    /// Realized fault/edge changes, in event order
    /// (see [`Simulation::change_log`]).
    changes: Vec<ChangeRecord>,
    /// Struct-of-arrays layout of the per-node hot state the event path
    /// touches on every message and tick (see [`HotColumns`]).
    pub(crate) hot: HotColumns,
    /// Stability certificates apply (staged insertion only).
    certs_enabled: bool,
    /// Verification seam: evaluate every node at every tick.
    full_reevaluation: bool,
    scratch: Scratch,
    /// Sharding seam: when set, node-local events spawned by
    /// *master-side* handlers (the leader check an edge-up schedules) are
    /// diverted here instead of the master queue, so the parallel engine
    /// can route them to the owning shard. `None` in the sequential
    /// engine — the plain queue path stays bit-identical.
    pub(crate) redirect: Option<Vec<(SimTime, Event)>>,
    /// Observability seam: when set, master-side dispatch reports ticks,
    /// mode switches, edge transitions, and fault injections to the sink
    /// (see [`gcs_telemetry::TelemetrySink`] for the determinism
    /// contract). `None` costs one branch per hook site — no allocation,
    /// no formatting, no drift in any counter.
    pub(crate) telemetry: Option<Box<dyn TelemetrySink>>,
    /// Node-local counter block the sequential engine's [`LocalCtx`]
    /// accumulates into when telemetry is enabled; flushed to the sink at
    /// the end of every [`Simulation::run_until`]. (The parallel engine
    /// keeps one such block per shard instead.)
    pub(crate) tel_local: LocalCounters,
}

/// Per-node hot state in struct-of-arrays layout, indexed by node id.
///
/// These are the columns the per-event and per-tick hot paths touch for
/// *many* nodes in one sweep: splitting them out of [`NodeState`] keeps
/// each sweep cache-linear, and (crucially for the sharded engine) each
/// column splits into disjoint contiguous per-shard `&mut` slices, so
/// worker threads borrow exactly their shard's rows with no locking.
#[derive(Debug)]
pub(crate) struct HotColumns {
    /// Per node: the instant (seconds) until which the last decision is
    /// certified stable against pure drift. `NEG_INFINITY` marks the node
    /// dirty (an event changed a decision input: a delivery that moved `M`
    /// while sensitive, an estimate update in message mode, a slot change,
    /// a rate change, a corruption); `INFINITY` means "until the next
    /// event". One array doubles as dirty set and horizon table, so the
    /// per-tick selection scan reads a single cache stream.
    pub stable_until: Vec<f64>,
    /// Per node: whether an upward jump of `M_u` (flood merge) can change
    /// the decision (see `StabilityCert::m_jump_sensitive`).
    pub m_jump_sensitive: Vec<bool>,
    /// Per node: the transport-delay stream for messages *sent* by this
    /// node. Per-node streams (rather than one engine-global stream) make
    /// the draw order a function of the sender's own event order, which
    /// is identical under sequential and sharded execution.
    pub delay_rng: Vec<StdRng>,
}

/// Reusable buffers for the per-tick hot path — the engine allocates
/// nothing per tick in steady state.
#[derive(Debug, Default)]
struct Scratch {
    /// Nodes selected for re-evaluation this tick.
    eval: Vec<u32>,
    /// Neighbour views of the node currently being decided.
    views: Vec<NeighborView>,
    /// Decisions of this tick, applied after all views are taken.
    decisions: Vec<Decision>,
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    node: u32,
    mode: Mode,
    stable_until: f64,
    m_jump_sensitive: bool,
}

impl Simulation {
    /// The effective (validated + derived) parameters.
    #[must_use]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// The run constants the node handlers read.
    fn run_consts(&self) -> Run<'_> {
        Run {
            params: &self.params,
            refresh: self.refresh,
            mode: self.mode,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Trigger-evaluation period in seconds.
    #[must_use]
    pub fn tick_interval(&self) -> f64 {
        self.tick
    }

    /// Flood refresh period (hardware seconds).
    #[must_use]
    pub fn refresh_interval(&self) -> f64 {
        self.refresh
    }

    /// Immutable view of one node.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn node(&self, u: NodeId) -> &NodeState {
        &self.nodes[u.index()]
    }

    /// The current dynamic graph.
    #[must_use]
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Name of the active mode policy.
    #[must_use]
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Derived info (`ε`, `κ`, `δ`) for an edge of the scenario's universe.
    #[must_use]
    pub fn edge_info(&self, e: EdgeKey) -> Option<EdgeInfo> {
        self.edge_info.get(&e).copied()
    }

    /// Runs until simulated time `t` (inclusive of events at `t`), then
    /// advances every node's clocks exactly to `t`.
    ///
    /// Behaviour is a pure function of configuration and seed. Querying at
    /// intermediate times splits the exact piecewise-linear integration
    /// into more `f64` additions, which can perturb clock values in the
    /// last few ulps (≈ 1e−12) relative to a single long run; decisions
    /// and statistics are unaffected.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot run backwards to {t:?}");
        while let Some(next) = self.queue.next_time() {
            if next > t {
                break;
            }
            let (when, event) = self.queue.pop().expect("peeked");
            self.now = when;
            self.stats.events += 1;
            self.handle(when, event);
        }
        self.now = t;
        self.advance_all(t);
        self.flush_local_telemetry();
    }

    /// Verification seam: when enabled, *every* node is re-decided at
    /// every tick — the reference O(n·deg) pass the incremental dirty-set
    /// engine is property-tested to be bit-identical to. Decisions (and
    /// therefore clocks, messages, and statistics) must not change.
    pub fn set_full_reevaluation(&mut self, on: bool) {
        self.full_reevaluation = on;
    }

    /// [`run_until`](Simulation::run_until) with a plain seconds argument.
    pub fn run_until_secs(&mut self, secs: f64) {
        self.run_until(SimTime::from_secs(secs));
    }

    /// The current global skew `max_u L_u − min_u L_u`, folded directly
    /// over the node table — the streaming gauge behind per-sample
    /// observation loops. Bit-identical to
    /// `self.snapshot().global_skew()` (same iteration order, same
    /// `f64::max`/`min` folds) without allocating the `O(n)` snapshot
    /// vectors, which matters when a 10⁵-node run is sampled every
    /// period.
    ///
    /// # Panics
    ///
    /// Panics if the simulation has no nodes.
    #[must_use]
    pub fn global_skew_now(&self) -> f64 {
        let max = self
            .nodes
            .iter()
            .map(NodeState::logical)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = self
            .nodes
            .iter()
            .map(NodeState::logical)
            .fold(f64::INFINITY, f64::min);
        assert!(max.is_finite() && min.is_finite(), "empty simulation");
        max - min
    }

    /// Snapshot of all clocks at the current instant.
    #[must_use]
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            time: self.now.as_secs(),
            logical: self.nodes.iter().map(NodeState::logical).collect(),
            hardware: self.nodes.iter().map(NodeState::hardware).collect(),
            max_estimates: self.nodes.iter().map(NodeState::max_estimate).collect(),
            modes: self.nodes.iter().map(NodeState::mode).collect(),
        }
    }

    /// The unlocked level of the *undirected* edge `{u, v}`: the largest `s`
    /// with `v ∈ N^s_u` **and** `u ∈ N^s_v` (`None` if either side has not
    /// discovered the other).
    #[must_use]
    pub fn level_between(&self, u: NodeId, v: NodeId) -> Option<Level> {
        let a = self.nodes[u.index()]
            .slots
            .get(v)?
            .insert
            .level_at(self.nodes[u.index()].logical());
        let b = self.nodes[v.index()]
            .slots
            .get(u)?
            .insert
            .level_at(self.nodes[v.index()].logical());
        Some(a.min(b))
    }

    /// The level-`s` edge set `E_s(t)` of Definition 5.8.
    #[must_use]
    pub fn level_edges(&self, s: u32) -> Vec<EdgeKey> {
        let mut out = Vec::new();
        self.level_edges_into(s, &mut out);
        out
    }

    /// Buffer-reusing variant of [`level_edges`](Simulation::level_edges):
    /// clears `out` and fills it with `E_s(t)`. Analysis loops that sample
    /// every observation instant reuse one buffer instead of allocating a
    /// fresh vector per sample.
    pub fn level_edges_into(&self, s: u32, out: &mut Vec<EdgeKey>) {
        out.clear();
        for node in &self.nodes {
            let u = node.id();
            let logical = node.logical();
            for entry in node.slots.iter() {
                let v = entry.id;
                if u >= v {
                    continue;
                }
                // min(level_a, level_b) includes s iff both sides do.
                if !entry.slot.insert.level_at(logical).includes(s) {
                    continue;
                }
                let Some(back) = self.nodes[v.index()].slots.get(u) else {
                    continue;
                };
                if back
                    .insert
                    .level_at(self.nodes[v.index()].logical())
                    .includes(s)
                {
                    out.push(EdgeKey::new(u, v));
                }
            }
        }
    }

    /// Injects a logical-clock corruption (self-stabilization experiments):
    /// adds `offset` to node `u`'s logical clock.
    ///
    /// This is an out-of-model state change: the *other* nodes' flood
    /// bounds (`M`, `W`, `P`) knew nothing about it, so the invariants of
    /// Condition 4.3 and the `[W, P]` bracket re-establish themselves only
    /// after a few gossip rounds (the self-stabilization the paper
    /// discusses in §5.2). Expect [`verify_invariants`] to report
    /// violations during that window.
    ///
    /// [`verify_invariants`]: Simulation::verify_invariants
    pub fn inject_clock_offset(&mut self, u: NodeId, offset: f64) {
        let t = self.now;
        self.nodes[u.index()].advance_to(t, &self.params);
        let node = &mut self.nodes[u.index()];
        let l = node.logical();
        node.corrupt_logical(l + offset);
        self.fault_injected = true;
        self.changes.push(ChangeRecord::ClockFault {
            at: t.as_secs(),
            node: u,
            amount: offset,
        });
        if let Some(sink) = self.telemetry.as_deref_mut() {
            sink.on_fault(t.as_secs(), u.index(), offset);
        }
        // Oracle estimates read the corrupted clock directly, so every
        // node's decision inputs may have jumped: drop all certificates.
        for s in &mut self.hot.stable_until {
            *s = f64::NEG_INFINITY;
        }
    }

    /// Installs a scripted estimate corruption (chaos experiments): from
    /// now on, node `u` reads every neighbour estimate pushed by
    /// `bias · ε` (the scripted worst-case direction), clamped back into
    /// the advertised `±ε` envelope of inequality (1).
    ///
    /// Unlike [`inject_clock_offset`](Simulation::inject_clock_offset)
    /// this is an *in-model* adversary — the estimate layer is permitted
    /// exactly this much error — so the paper's bounds hold without any
    /// self-stabilization allowance, and the conformance oracle credits
    /// nothing for it.
    ///
    /// # Panics
    ///
    /// Panics unless `bias` is finite and within `[-1, 1]`.
    pub fn inject_estimate_bias(&mut self, u: NodeId, bias: f64) {
        let t = self.now;
        self.nodes[u.index()].advance_to(t, &self.params);
        self.nodes[u.index()].corrupt_estimates(bias);
        self.changes.push(ChangeRecord::EstimateFault {
            at: t.as_secs(),
            node: u,
            bias,
        });
        if let Some(sink) = self.telemetry.as_deref_mut() {
            sink.on_est_fault(t.as_secs(), u.index(), bias);
        }
        // The node's trigger inputs changed out of band: its stability
        // certificate (and those of neighbours reading nothing — only u
        // reads these estimates) is stale. Dropping u's horizon alone
        // would suffice; dropping all of them mirrors inject_clock_offset
        // and keeps the reasoning local.
        for s in &mut self.hot.stable_until {
            *s = f64::NEG_INFINITY;
        }
    }

    /// Installs a telemetry sink (post-build — works identically under
    /// both engines, so the parallel builder needs no special case).
    /// Replaces any previously installed sink.
    pub fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        self.telemetry = Some(sink);
    }

    /// Removes the telemetry sink, flushing any pending node-local
    /// counters into it first. `None` if no sink was installed.
    pub fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.flush_local_telemetry();
        self.telemetry.take()
    }

    /// Number of events pending in this engine's queue.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Size of the current dirty set: nodes whose stability horizon has
    /// expired at the current instant, i.e. exactly the nodes the next
    /// tick sweep would re-evaluate.
    #[must_use]
    pub fn dirty_nodes(&self) -> usize {
        let ts = self.now.as_secs();
        self.hot.stable_until.iter().filter(|&&s| ts >= s).count()
    }

    /// Reports the node-local counters accumulated since the last flush.
    fn flush_local_telemetry(&mut self) {
        if let Some(sink) = self.telemetry.as_deref_mut() {
            let counters = std::mem::take(&mut self.tel_local);
            sink.on_local(0, &counters);
        }
    }

    /// The realized fault/insertion log: every scripted edge transition
    /// and injected clock corruption this run has executed so far, in
    /// event order. Always recorded (the entries are rare and small) —
    /// this is the ground truth a conformance oracle replays to know when
    /// the paper's bounds must be widened (self-stabilization after a
    /// [`ChangeRecord::ClockFault`], staged-insertion slack after a
    /// [`ChangeRecord::EdgeUp`], possible partitions after a
    /// [`ChangeRecord::EdgeDown`]).
    #[must_use]
    pub fn change_log(&self) -> &[ChangeRecord] {
        &self.changes
    }

    /// Runs until `until` seconds, snapshotting every `every` seconds
    /// (including the start and end instants), and returns the recorded
    /// [`Trace`](crate::Trace).
    ///
    /// # Panics
    ///
    /// Panics if `every` is not positive or `until` is in the past.
    pub fn record_trace(&mut self, until: f64, every: f64) -> crate::Trace {
        assert!(every > 0.0, "sampling period must be positive");
        let mut trace = crate::Trace::new();
        let mut t = self.now.as_secs();
        trace.push(self.snapshot());
        while t < until - 1e-12 {
            t = (t + every).min(until);
            self.run_until_secs(t);
            trace.push(self.snapshot());
        }
        trace
    }

    /// The measured dynamic estimate diameter `D(t)` of Definition 3.1, if
    /// tracking was enabled via [`SimBuilder::track_diameter`].
    /// `f64::INFINITY` while some node has not yet heard (transitively)
    /// from every other node since an edge change isolated it.
    #[must_use]
    pub fn dynamic_diameter(&mut self) -> Option<f64> {
        let t = self.now;
        self.diameter.as_mut().map(|d| d.diameter(t))
    }

    /// The measured dynamic estimate radius `R_u(t)`, if tracking is on.
    #[must_use]
    pub fn dynamic_radius(&mut self, u: NodeId) -> Option<f64> {
        let t = self.now;
        self.diameter.as_mut().map(|d| d.radius(u.index(), t))
    }

    /// The estimate `L̃ᵥᵤ(t)` node `u` currently holds for `v`, if any.
    /// Nodes must be advanced to `now` (true after any `run_until`).
    #[must_use]
    pub fn estimate_of(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let node = &self.nodes[u.index()];
        let entry = node.slots.entry(v)?;
        handlers::estimate(node, entry, self.mode, |v| Some(self.truth(v, node)))
    }

    /// The oracle's window onto neighbour `v`'s true logical clock at the
    /// instant `observer` was last advanced to: the pure `logical_at`, so
    /// reading it leaves `v` untouched (it agrees bitwise with advancing
    /// `v` and reading `logical()`).
    fn truth(&self, v: NodeId, observer: &NodeState) -> f64 {
        self.nodes[v.index()].logical_at(observer.last_update(), &self.params)
    }

    /// Checks the runtime invariants of the model and algorithm at the
    /// current instant, returning one description per violation. Intended
    /// for tests; cost is `O(n·deg)` plus a trigger evaluation per node.
    #[must_use]
    pub fn verify_invariants(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let max_l = self
            .nodes
            .iter()
            .map(NodeState::logical)
            .fold(f64::NEG_INFINITY, f64::max);
        let min_l = self
            .nodes
            .iter()
            .map(NodeState::logical)
            .fold(f64::INFINITY, f64::min);
        const TOL: f64 = 1e-9;
        let run = self.run_consts();
        let mut views = Vec::new();

        // P may briefly undershoot the maximum while a newly maximal
        // node finishes a fast-mode episode (at most a few ticks).
        //
        // After an out-of-model clock corruption the exact bound is
        // gone for good: P re-establishes itself from relayed max
        // estimates, and each relay hop undercredits in-transit growth
        // (credit is (1−ρ)·delay_min while the true maximum may grow by
        // β·delay_max, plus up to one refresh period of relay latency).
        // From then on §5.2's self-stabilization guarantee applies
        // instead: P trails the maximum by at most the accumulated
        // per-hop credit error, which we bound by (n−1) worst-case
        // hops.
        let mut p_tol = 10.0 * self.params.mu() * self.params.beta() * self.tick + TOL;
        if self.fault_injected {
            let per_hop = self
                .edge_info
                .values()
                .map(|info| {
                    self.params.beta()
                        * (info.params.delay_bound() + self.refresh / self.params.alpha())
                        - transport::min_transit_credit(info.params, self.params.rho())
                })
                .fold(0.0, f64::max);
            p_tol += (self.nodes.len() as f64 - 1.0) * per_hop;
        }

        for node in &self.nodes {
            let u = node.id();
            if node.max_estimate() < node.logical() - TOL {
                violations.push(format!("{u}: M < L (Condition 4.3 (4))"));
            }
            if node.max_estimate() > max_l + TOL {
                violations.push(format!(
                    "{u}: M = {} exceeds max logical {} (Condition 4.3 (2))",
                    node.max_estimate(),
                    max_l
                ));
            }
            if node.min_lower_bound() > min_l + TOL {
                violations.push(format!("{u}: W exceeds the network minimum"));
            }
            if node.max_upper_bound() < max_l - p_tol {
                violations.push(format!("{u}: P below the network maximum"));
            }
            // Estimate accuracy: inequality (1).
            for entry in node.slots.iter() {
                let v = entry.id;
                let truth = self.truth(v, node);
                if let Some(est) = handlers::estimate(node, entry, self.mode, |_| Some(truth)) {
                    if (est - truth).abs() > entry.info.epsilon + TOL {
                        violations.push(format!(
                            "estimate error |{est} - {truth}| > eps {} on ({u}, {v})",
                            entry.info.epsilon
                        ));
                    }
                }
            }
            // Lemma 5.3: the triggers are mutually exclusive.
            handlers::fill_views(node, &run, |v| Some(self.truth(v, node)), &mut views);
            let view = handlers::node_view(node, &self.params, &views);
            if fast_trigger(&view, self.params.max_levels())
                && slow_trigger(&view, self.params.max_levels())
            {
                violations.push(format!("{u}: fast and slow triggers both hold (Lemma 5.3)"));
            }
        }

        // Lemma 5.5 (I): both endpoints of a scheduled insertion agree.
        for node in &self.nodes {
            let u = node.id();
            for entry in node.slots.iter() {
                let v = entry.id;
                if u >= v {
                    continue;
                }
                if let (
                    InsertState::Scheduled { t0: a0, i: ai },
                    Some(InsertState::Scheduled { t0: b0, i: bi }),
                ) = (
                    entry.slot.insert,
                    self.nodes[v.index()].slots.get(u).map(|s| s.insert),
                ) {
                    if (a0 - b0).abs() > TOL || (ai - bi).abs() > TOL {
                        violations.push(format!(
                            "insertion disagreement on {{{u}, {v}}}: ({a0}, {ai}) vs ({b0}, {bi})"
                        ));
                    }
                }
            }
        }
        violations
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    /// Executes one event. Crate-visible: the parallel engine calls this
    /// for the cross-shard-state events (`Tick`, `EdgeUp`, `EdgeDown`) it
    /// executes sequentially at rendezvous points; node-local events go
    /// through the same [`LocalCtx`] the shard workers use, so both
    /// engines execute literally identical code.
    pub(crate) fn handle(&mut self, t: SimTime, event: Event) {
        match event {
            Event::Tick => {
                self.stats.ticks += 1;
                self.reevaluate_modes(t);
                if let Some(sink) = self.telemetry.as_deref_mut() {
                    // `scratch.eval` still holds this sweep's selection.
                    sink.on_tick(t.as_secs(), self.scratch.eval.len());
                }
                self.queue
                    .schedule(t + SimDuration::from_secs(self.tick), Event::Tick);
            }
            Event::EdgeUp { from, to } => self.on_edge_up(t, from, to),
            Event::EdgeDown { from, to } => self.on_edge_down(t, from, to),
            local => self.local_ctx().handle(t, local),
        }
    }

    /// The node-local handler context of the sequential engine: the whole
    /// node range, with the master queue as the event sink.
    fn local_ctx(&mut self) -> LocalCtx<'_, EventQueue<Event>> {
        LocalCtx {
            range: 0..self.nodes.len(),
            nodes: &mut self.nodes,
            stable_until: &mut self.hot.stable_until,
            m_jump_sensitive: &mut self.hot.m_jump_sensitive,
            delay_rng: &mut self.hot.delay_rng,
            stats: &mut self.stats,
            sink: &mut self.queue,
            run: Run {
                params: &self.params,
                refresh: self.refresh,
                mode: self.mode,
            },
            graph: &self.graph,
            diameter: self.diameter.as_mut(),
            tel: self.telemetry.is_some().then_some(&mut self.tel_local),
        }
    }

    pub(crate) fn advance_all(&mut self, t: SimTime) {
        let Simulation { nodes, params, .. } = self;
        for node in nodes.iter_mut() {
            node.advance_to(t, params);
        }
    }

    /// The *effective* weight of the undirected edge `{u, v}` right now:
    /// the final `κ` under staged insertion, or the larger of the two
    /// endpoints' decayed weights under the decaying-weight strategy.
    /// `None` if either endpoint has not discovered the other.
    #[must_use]
    pub fn effective_kappa(&self, e: EdgeKey) -> Option<f64> {
        let info = self.edge_info.get(&e)?;
        match self.params.insertion_strategy() {
            InsertionStrategy::Staged => {
                self.nodes[e.lo().index()].slots.get(e.hi())?;
                self.nodes[e.hi().index()].slots.get(e.lo())?;
                Some(info.kappa)
            }
            InsertionStrategy::DecayingWeight { halving } => {
                let a = self.nodes[e.lo().index()].slots.get(e.hi())?;
                let b = self.nodes[e.hi().index()].slots.get(e.lo())?;
                let ka = a.insert.effective_kappa(
                    self.nodes[e.lo().index()].logical(),
                    info.kappa,
                    halving,
                );
                let kb = b.insert.effective_kappa(
                    self.nodes[e.hi().index()].logical(),
                    info.kappa,
                    halving,
                );
                Some(ka.max(kb))
            }
        }
    }

    /// The per-tick mode evaluation. Only nodes that are dirty (an event
    /// touched their decision inputs) or whose stability horizon expired
    /// are re-decided; everyone else provably decides the same mode, so the
    /// skip is bit-identical to the full pass (debug builds re-check this
    /// against the reference pass on every tick).
    fn reevaluate_modes(&mut self, t: SimTime) {
        let ts = t.as_secs();
        let mut eval = std::mem::take(&mut self.scratch.eval);
        eval.clear();
        for u in 0..self.nodes.len() {
            if self.full_reevaluation || ts >= self.hot.stable_until[u] {
                eval.push(u as u32);
            }
        }

        // Advance only the nodes under evaluation; their neighbours' clocks
        // are read through the pure `logical_at`, so skipped nodes are not
        // even touched. Advancement is query-invariant, so advancing a
        // subset (rather than all) changes no trajectory.
        for &u in &eval {
            self.nodes[u as usize].advance_to(t, &self.params);
        }

        // Decide every selected node from the pre-update state, then apply.
        let mut views = std::mem::take(&mut self.scratch.views);
        let mut decisions = std::mem::take(&mut self.scratch.decisions);
        decisions.clear();
        self.stats.mode_evaluations += eval.len() as u64;
        // Worst-case rate at which any compared difference (estimate − L,
        // M − L) can drift: fastest logical rate minus slowest.
        let drift_rate = self.params.beta() - self.params.alpha();
        let run = self.run_consts();
        for &u in &eval {
            let node = &self.nodes[u as usize];
            // Neighbours' clocks are read, not advanced. With certificates
            // disabled (decaying-weight strategy) the margin computation
            // would be discarded — don't ask for it.
            let decision = handlers::decide(
                node,
                &*self.policy,
                self.certs_enabled,
                &run,
                |v| Some(self.truth(v, node)),
                &mut views,
            );
            let (stable_until, m_jump_sensitive) = match decision.cert {
                Some(cert) => {
                    let margin_secs = (cert.estimate_margin / drift_rate)
                        .min(cert.m_margin / drift_rate)
                        .min(decision.unlock_margin / self.params.beta());
                    // Halve the horizon: the margins are computed in real
                    // arithmetic while the clocks integrate in f64, so keep
                    // a wide safety band against rounding.
                    (ts + 0.5 * margin_secs, cert.m_jump_sensitive)
                }
                None => (f64::NEG_INFINITY, true),
            };
            decisions.push(Decision {
                node: u,
                mode: decision.mode,
                stable_until,
                m_jump_sensitive,
            });
        }
        for d in &decisions {
            let u = d.node as usize;
            let node = &mut self.nodes[u];
            if node.mode() != d.mode {
                if let Some(sink) = self.telemetry.as_deref_mut() {
                    sink.on_mode_switch(ts, u, d.mode == Mode::Fast);
                }
            }
            node.set_mode(d.mode);
            self.hot.stable_until[u] = d.stable_until;
            self.hot.m_jump_sensitive[u] = d.m_jump_sensitive;
        }

        #[cfg(debug_assertions)]
        self.debug_verify_skipped(t, &eval);

        self.scratch.eval = eval;
        self.scratch.views = views;
        self.scratch.decisions = decisions;
    }

    /// Debug-build cross-check of the stability certificates: every node
    /// *not* re-evaluated this tick must decide exactly its current mode
    /// under the reference pass.
    #[cfg(debug_assertions)]
    fn debug_verify_skipped(&mut self, t: SimTime, evaluated: &[u32]) {
        if self.full_reevaluation {
            return;
        }
        let mut skipped = vec![true; self.nodes.len()];
        for &u in evaluated {
            skipped[u as usize] = false;
        }
        let mut views = Vec::new();
        for (u, _) in skipped.iter().enumerate().filter(|&(_, &s)| s) {
            self.nodes[u].advance_to(t, &self.params);
            let node = &self.nodes[u];
            let truth = |v| Some(self.truth(v, node));
            let run = self.run_consts();
            let decision = handlers::decide(node, &*self.policy, false, &run, truth, &mut views);
            assert_eq!(
                decision.mode,
                node.mode(),
                "stability certificate violated for node {u} at {t:?}"
            );
        }
    }

    fn on_edge_up(&mut self, t: SimTime, from: NodeId, to: NodeId) {
        if self.graph.contains(from, to) {
            return; // Idempotent: scripted duplicate.
        }
        self.graph.insert_directed(from, to, t);
        self.changes.push(ChangeRecord::EdgeUp {
            at: t.as_secs(),
            from,
            to,
        });
        if let Some(sink) = self.telemetry.as_deref_mut() {
            sink.on_edge(t.as_secs(), from.index(), to.index(), true);
        }
        let oracle_bias = self.bias_rng.gen_range(-1.0..=1.0);
        self.discover(t, from, to, oracle_bias);
    }

    /// Tells node `from` that neighbour `to` appeared at `t`. The wake-up
    /// a leader asks for goes to the master queue, or — when the redirect
    /// seam is armed (parallel engine) — into the buffer routed to its
    /// owning shard.
    fn discover(&mut self, t: SimTime, from: NodeId, to: NodeId, oracle_bias: f64) {
        self.gen_counter += 1;
        let found = Discovered {
            peer: to,
            info: self.edge_info[&EdgeKey::new(from, to)],
            generation: self.gen_counter,
            oracle_bias,
        };
        let run = Run {
            params: &self.params,
            refresh: self.refresh,
            mode: self.mode,
        };
        let u = from.index();
        let mut host = EngineHost {
            node: from,
            t,
            delay_rng: &mut self.hot.delay_rng[u],
            stats: &mut self.stats,
            sink: &mut MasterSink {
                queue: &mut self.queue,
                redirect: &mut self.redirect,
            },
        };
        if handlers::neighbor_up(&mut self.nodes[u], t, found, &run, &mut host) {
            self.stats.insertions_scheduled += 1;
        }
        self.hot.stable_until[u] = f64::NEG_INFINITY;
    }

    fn on_edge_down(&mut self, t: SimTime, from: NodeId, to: NodeId) {
        if !self.graph.contains(from, to) {
            return;
        }
        self.graph.remove_directed(from, to);
        self.changes.push(ChangeRecord::EdgeDown {
            at: t.as_secs(),
            from,
            to,
        });
        if let Some(sink) = self.telemetry.as_deref_mut() {
            sink.on_edge(t.as_secs(), from.index(), to.index(), false);
        }
        handlers::neighbor_down(&mut self.nodes[from.index()], to);
        self.hot.stable_until[from.index()] = f64::NEG_INFINITY;
        self.stats.edge_removals += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::ErrorModel;

    fn params() -> Params {
        Params::builder().rho(0.01).mu(0.1).build().unwrap()
    }

    fn line_sim(n: usize, seed: u64) -> Simulation {
        SimBuilder::new(params())
            .topology(Topology::line(n))
            .drift(DriftModel::TwoBlock)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn build_requires_scenario() {
        let err = SimBuilder::new(params()).build().unwrap_err();
        assert_eq!(err, BuildError::NoScenario);
        assert!(err.to_string().contains("scenario"));
    }

    #[test]
    fn runs_and_keeps_clocks_near_real_time() {
        let mut sim = line_sim(4, 1);
        sim.run_until_secs(10.0);
        let snap = sim.snapshot();
        for (i, &l) in snap.logical.iter().enumerate() {
            let lo = 10.0 * sim.params().alpha() - 1e-9;
            let hi = 10.0 * sim.params().beta() + 1e-9;
            assert!((lo..=hi).contains(&l), "node {i}: L = {l} outside envelope");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = line_sim(6, 42);
        let mut b = line_sim(6, 42);
        a.run_until_secs(20.0);
        b.run_until_secs(20.0);
        assert_eq!(a.snapshot().logical, b.snapshot().logical);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = line_sim(6, 1);
        let mut b = line_sim(6, 2);
        a.run_until_secs(20.0);
        b.run_until_secs(20.0);
        assert_ne!(a.snapshot().logical, b.snapshot().logical);
    }

    #[test]
    fn initial_edges_are_fully_inserted() {
        let sim = line_sim(4, 0);
        assert_eq!(
            sim.level_between(NodeId(0), NodeId(1)),
            Some(Level::Infinite)
        );
        let e1 = sim.level_edges(1);
        assert_eq!(e1.len(), 3);
    }

    #[test]
    fn invariants_hold_during_run() {
        let mut sim = line_sim(5, 3);
        for k in 1..=20 {
            sim.run_until_secs(k as f64);
            let v = sim.verify_invariants();
            assert!(v.is_empty(), "violations at t={k}: {v:?}");
        }
    }

    #[test]
    fn global_skew_stays_small_on_line() {
        let mut sim = line_sim(6, 7);
        sim.run_until_secs(60.0);
        let g = sim.snapshot().global_skew();
        // Loose sanity bound; the precise Theorem 5.6 test lives in the
        // integration suite.
        assert!(g < 0.5, "global skew {g} too large");
        assert!(g > 0.0);
    }

    #[test]
    fn floods_flow_and_deliver() {
        let mut sim = line_sim(4, 5);
        sim.run_until_secs(5.0);
        let s = sim.stats();
        assert!(s.messages_sent > 0);
        assert!(s.messages_delivered > 0);
        assert!(s.messages_delivered <= s.messages_sent);
    }

    #[test]
    fn inserted_edge_completes_handshake_and_schedules() {
        let base = Topology::line(4);
        let chord = EdgeKey::new(NodeId(0), NodeId(3));
        let schedule =
            NetworkSchedule::with_edge_insertion(&base, &[(chord, SimTime::from_secs(2.0))], 0.001);
        let mut p = Params::builder();
        p.rho(0.01).mu(0.1).insertion_scale(0.02);
        let mut sim = SimBuilder::new(p.build().unwrap())
            .schedule(schedule)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(sim.level_between(NodeId(0), NodeId(3)), None);
        sim.run_until_secs(1.0);
        assert_eq!(sim.level_between(NodeId(0), NodeId(3)), None);
        sim.run_until_secs(60.0);
        // Handshake done and insertion scheduled on both sides.
        assert!(sim.stats().handshakes_offered >= 1);
        assert_eq!(sim.stats().insertions_scheduled, 2);
        let lvl = sim.level_between(NodeId(0), NodeId(3)).unwrap();
        assert!(lvl >= Level::Finite(0));
        assert!(sim.verify_invariants().is_empty());
    }

    #[test]
    fn edge_removal_clears_state() {
        let base = Topology::ring(4);
        let mut schedule = NetworkSchedule::static_graph(&base);
        schedule.add_undirected_down(
            EdgeKey::new(NodeId(0), NodeId(1)),
            SimTime::from_secs(3.0),
            0.001,
        );
        let mut sim = SimBuilder::new(params())
            .schedule(schedule)
            .seed(4)
            .build()
            .unwrap();
        sim.run_until_secs(2.0);
        assert!(sim.level_between(NodeId(0), NodeId(1)).is_some());
        sim.run_until_secs(4.0);
        assert_eq!(sim.level_between(NodeId(0), NodeId(1)), None);
        assert_eq!(sim.stats().edge_removals, 2);
        assert!(sim.verify_invariants().is_empty());
    }

    #[test]
    fn corruption_is_reflected_and_recovered_from() {
        let mut sim = line_sim(4, 8);
        sim.run_until_secs(5.0);
        sim.inject_clock_offset(NodeId(0), 0.2);
        let g0 = sim.snapshot().global_skew();
        assert!(g0 >= 0.2 - 1e-9);
        // Corruption is an out-of-model state injection: the flood bounds
        // (P >= max L) take a few seconds of gossip + drift margin to
        // re-establish themselves.
        sim.run_until_secs(10.0);
        assert!(
            sim.verify_invariants().is_empty(),
            "{:?}",
            sim.verify_invariants()
        );
        sim.run_until_secs(25.0);
        let g1 = sim.snapshot().global_skew();
        assert!(g1 < g0 / 2.0, "skew did not recover: {g0} -> {g1}");
    }

    #[test]
    fn scripted_estimate_bias_stays_in_envelope_and_is_logged() {
        let mut sim = line_sim(4, 8);
        sim.run_until_secs(5.0);
        sim.inject_estimate_bias(NodeId(1), -1.0);
        // The change log records the fault at the injection instant.
        let rec = *sim.change_log().last().expect("fault recorded");
        match rec {
            ChangeRecord::EstimateFault { at, node, bias } => {
                assert!((at - 5.0).abs() < 1e-9);
                assert_eq!(node, NodeId(1));
                assert_eq!(bias, -1.0);
            }
            other => panic!("expected EstimateFault, got {other:?}"),
        }
        // Every estimate node 1 reads is pushed to the bottom of the
        // advertised envelope: est = truth - ε exactly (default oracle
        // model is exact, so the scripted push is never re-clamped).
        let node = sim.node(NodeId(1));
        let neighbours: Vec<NodeId> = node.slots.ids().collect();
        for v in neighbours {
            let truth = sim.node(v).logical();
            let eps = sim
                .node(NodeId(1))
                .slots
                .entry(v)
                .expect("neighbour entry")
                .info
                .epsilon;
            let est = sim.estimate_of(NodeId(1), v).expect("estimate");
            assert!(
                (est - (truth - eps)).abs() < 1e-12,
                "estimate {est} should sit at truth-eps {}",
                truth - eps
            );
            assert!((est - truth).abs() <= eps + 1e-12, "inequality (1) holds");
        }
        // The run continues and the model invariants stay intact: the
        // corruption is in-model, not a clock discontinuity.
        sim.run_until_secs(15.0);
        assert!(
            sim.verify_invariants().is_empty(),
            "{:?}",
            sim.verify_invariants()
        );
    }

    #[test]
    fn message_estimate_mode_works() {
        let mut sim = SimBuilder::new(params())
            .topology(Topology::ring(5))
            .estimates(EstimateMode::Messages)
            .drift(DriftModel::RandomConstant)
            .seed(11)
            .build()
            .unwrap();
        sim.run_until_secs(10.0);
        // After a few refresh periods every neighbour has an estimate.
        for u in 0..5u32 {
            let node = sim.node(NodeId(u));
            for v in node.slots.ids() {
                assert!(
                    sim.estimate_of(NodeId(u), v).is_some(),
                    "missing estimate ({u}, {v})"
                );
            }
        }
        assert!(sim.verify_invariants().is_empty());
    }

    #[test]
    fn hide_error_model_respects_epsilon() {
        let mut sim = SimBuilder::new(params())
            .topology(Topology::line(4))
            .estimates(EstimateMode::Oracle(ErrorModel::Hide))
            .drift(DriftModel::TwoBlock)
            .seed(12)
            .build()
            .unwrap();
        sim.run_until_secs(15.0);
        assert!(sim.verify_invariants().is_empty());
    }

    #[test]
    fn run_until_is_monotone() {
        let mut sim = line_sim(3, 0);
        sim.run_until_secs(1.0);
        sim.run_until_secs(1.0); // same time: fine
        let l = sim.node(NodeId(0)).logical();
        sim.run_until_secs(2.0);
        assert!(sim.node(NodeId(0)).logical() > l);
    }

    #[test]
    #[should_panic(expected = "cannot run backwards")]
    fn run_backwards_panics() {
        let mut sim = line_sim(3, 0);
        sim.run_until_secs(5.0);
        sim.run_until_secs(1.0);
    }

    #[test]
    fn record_trace_samples_inclusively() {
        let mut sim = line_sim(3, 1);
        let trace = sim.record_trace(2.0, 0.5);
        assert_eq!(trace.len(), 5); // 0.0, 0.5, 1.0, 1.5, 2.0
        assert_eq!(trace.samples()[0].time, 0.0);
        assert_eq!(trace.samples()[4].time, 2.0);
        assert!(trace.max_global_skew() >= 0.0);
    }

    #[test]
    fn decaying_strategy_needs_no_handshake() {
        use crate::params::InsertionStrategy;
        let base = Topology::line(4);
        let chord = EdgeKey::new(NodeId(0), NodeId(3));
        let schedule =
            NetworkSchedule::with_edge_insertion(&base, &[(chord, SimTime::from_secs(2.0))], 0.001);
        let mut p = Params::builder();
        p.rho(0.01)
            .mu(0.1)
            .insertion_strategy(InsertionStrategy::DecayingWeight { halving: 0.5 });
        let mut sim = SimBuilder::new(p.build().unwrap())
            .schedule(schedule)
            .drift(DriftModel::TwoBlock)
            .seed(4)
            .build()
            .unwrap();
        sim.run_until_secs(3.0);
        // Immediately a member of every level, with an inflated weight.
        assert_eq!(
            sim.level_between(NodeId(0), NodeId(3)),
            Some(Level::Infinite)
        );
        let info = sim.edge_info(chord).unwrap();
        let k_now = sim.effective_kappa(chord).unwrap();
        assert!(k_now > info.kappa, "weight still inflated shortly after");
        // No handshake traffic was needed.
        assert_eq!(sim.stats().handshakes_offered, 0);
        assert_eq!(sim.stats().insertions_scheduled, 2);
        // The weight decays monotonically to the final value.
        let mut last = k_now;
        loop {
            let t = sim.now().as_secs() + 2.0;
            sim.run_until_secs(t);
            let k = sim.effective_kappa(chord).unwrap();
            assert!(k <= last + 1e-12, "weight must not grow");
            last = k;
            if (k - info.kappa).abs() < 1e-12 {
                break;
            }
            assert!(t < 120.0, "decay did not complete");
        }
        assert!(sim.verify_invariants().is_empty());
    }

    #[test]
    fn fast_time_is_accounted() {
        let mut sim = line_sim(6, 2);
        sim.run_until_secs(20.0);
        let total_fast: f64 = (0..6).map(|u| sim.node(NodeId(u)).fast_secs()).sum();
        // Under two-block drift the slow half must spend time catching up.
        assert!(total_fast > 0.0);
        for u in 0..6u32 {
            assert!(sim.node(NodeId(u)).fast_secs() <= 20.0 + 1e-9);
        }
    }
}
