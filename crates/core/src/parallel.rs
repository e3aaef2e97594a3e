//! The parallel sharded engine: conservative lookahead simulation that is
//! bit-identical to the sequential [`Simulation`].
//!
//! # Model-derived lookahead
//!
//! The paper's network model (§3.1) guarantees every message spends at
//! least the edge's minimum transit latency in flight. The smallest
//! `delay_min` over the scenario's edge universe is therefore a *lookahead
//! bound*: an event executed at time `s` cannot affect another shard
//! before `s + lookahead`. That is exactly the window width a conservative
//! parallel discrete-event simulator needs — no optimism, no rollback.
//!
//! # Architecture
//!
//! Nodes are split into contiguous-ID shards of near-equal size. Each
//! shard owns a calendar [`EventQueue`] holding every node-local event
//! (floods, deliveries, rate changes, handshake timers) of its nodes, a
//! namespaced sequence counter, and private scratch. The master
//! [`Simulation`] keeps only the cross-shard-state events — ticks and
//! scripted edge transitions — plus all shared read-only state.
//!
//! [`ParallelSimulation::run_until`] advances in segments bounded by
//! `cut = min(target, next master event, earliest shard event + window)`.
//! Within a segment, worker threads drain their shard's events `≤ cut`
//! (clean `split_at_mut` borrows of the node array and hot columns — no
//! locks, no `unsafe`; rounds too small to pay for the threads drain the
//! same borrows on the calling thread), exchanging cross-shard
//! deliveries through mailboxes at round barriers; then the master
//! executes its events at `cut` sequentially (mode re-evaluation sweeps,
//! edge up/down), routing any node-local events they spawn back to the
//! owning shard.
//!
//! # Why the merged order is the sequential order
//!
//! - Routed events keep their original `(time, seq)` keys, and all
//!   shard-spawned events draw keys from per-shard counters namespaced
//!   above every build-time key, so the merged key order is a pure
//!   function of the simulation — never of thread scheduling.
//! - Capping `cut` at the next master event time means master events only
//!   ever execute at `time == cut`, after every shard event `< cut`. The
//!   boundary instant itself is merged explicitly: master and shard events
//!   at exactly `cut` run in ascending sequence order — the order the
//!   sequential engine's single queue pops them — so even a delivery
//!   colliding with a scripted edge transition lands on the correct side
//!   of the §3.1 delivery rule.
//! - Cross-shard deliveries land at `≥ cut` by the lookahead bound, so no
//!   shard ever receives an event earlier than something it already ran.
//! - Same-instant deliveries to one node (a flood fan-out over
//!   equal-latency edges) commute: bound merges are max/min operations and
//!   per-sender estimate slots are disjoint.
//!
//! The equivalence test grid (scenarios × shard counts) enforces all of this bit-for-bit, counters included.

use std::ops::Range;

use rand::rngs::StdRng;

use gcs_net::{DynamicGraph, NodeId};
use gcs_protocol::handlers::Run;
use gcs_sim::{EventQueue, SimTime};
use gcs_telemetry::{LocalCounters, TelemetrySink};

use crate::node::NodeState;
use crate::shard::{contiguous_ranges, owner, owning_node, LocalCtx, ShardSink};
use crate::sim::{BuildError, Event, SimBuilder, SimStats, Simulation};

/// Shard-spawned events take sequence keys from per-shard counters
/// namespaced above this bit, keeping them disjoint from build-time keys
/// (small integers) and from every other shard.
const SEQ_NAMESPACE_SHIFT: u32 = 48;

/// A drain round spawns worker threads only if the round before it
/// drained at least this many events; below it the calling thread drains
/// the active shards one after another. Measured on the 2-vCPU reference
/// container, rings of 1k–32k nodes on two shards with every round forced
/// down one path, five alternating runs each: a threaded round cost
/// 23–57 µs more than an inline one at 0.5k–1.9k events per round, 1.08×
/// the inline time at 3.7k, and 0.48× from 7.4k up, so two shards break
/// even between 3.7k and 7.4k events. The constant sits lower because the
/// previous round predicts the next only roughly: on `ring-100k-par2`
/// (12.9k events per round on average) a cut at 4096 drained 15 % of the
/// events inline, this one 4 %. `grid-36-par2` (25 events per round)
/// never spawns.
const THREAD_DRAIN_MIN_EVENTS: u64 = 1024;

/// Why [`ParallelSimBuilder::build`] refused to construct an engine.
#[derive(Debug)]
pub enum ParallelBuildError {
    /// The underlying sequential build failed.
    Build(BuildError),
    /// Diameter tracking observes every delivery globally and is only
    /// supported on the sequential engine.
    DiameterTrackingUnsupported,
    /// The scenario's minimum transit latency is zero (or there are no
    /// edges with positive `delay_min`), so no conservative window exists
    /// for more than one shard.
    NoLookahead,
}

impl std::fmt::Display for ParallelBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelBuildError::Build(e) => write!(f, "{e}"),
            ParallelBuildError::DiameterTrackingUnsupported => {
                f.write_str("diameter tracking is only supported on the sequential engine")
            }
            ParallelBuildError::NoLookahead => f.write_str(
                "scenario has no positive minimum transit latency: no conservative window exists",
            ),
        }
    }
}

impl std::error::Error for ParallelBuildError {}

impl From<BuildError> for ParallelBuildError {
    fn from(e: BuildError) -> Self {
        ParallelBuildError::Build(e)
    }
}

/// Builder for [`ParallelSimulation`]: wraps a fully configured
/// [`SimBuilder`] and adds the shard count. The shards are contiguous ID
/// ranges, and the window is derived from the scenario, never set.
#[derive(Debug)]
pub struct ParallelSimBuilder {
    inner: SimBuilder,
    shards: usize,
}

impl ParallelSimBuilder {
    /// Wraps a configured sequential builder. Default: 1 shard.
    #[must_use]
    pub fn new(inner: SimBuilder) -> Self {
        ParallelSimBuilder { inner, shards: 1 }
    }

    /// Number of shards (worker parallelism). Clamped to the node count
    /// at build time.
    #[must_use]
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Builds the sharded engine.
    ///
    /// # Errors
    ///
    /// Everything [`SimBuilder::build`] rejects, plus the parallel-only
    /// conditions documented on [`ParallelBuildError`].
    pub fn build(self) -> Result<ParallelSimulation, ParallelBuildError> {
        if self.inner.track_diameter {
            return Err(ParallelBuildError::DiameterTrackingUnsupported);
        }
        let mut sim = self.inner.build()?;
        let n = sim.nodes.len();
        let shards = self.shards.min(n);

        // Model-derived lookahead: the smallest minimum transit latency
        // over the scenario's whole edge universe (§3.1 lower bound). One
        // shard needs no cross-shard rendezvous, so no window at all.
        let window = if shards == 1 {
            f64::INFINITY
        } else {
            sim.edge_info
                .values()
                .map(|info| info.params.delay_min)
                .fold(f64::INFINITY, f64::min)
        };
        if window.is_nan() || window <= 0.0 {
            return Err(ParallelBuildError::NoLookahead);
        }

        let ranges = contiguous_ranges(n, shards);
        let starts: Vec<usize> = ranges.iter().map(|r| r.start).collect();
        let mut shard_states: Vec<Shard> = ranges
            .into_iter()
            .enumerate()
            .map(|(i, range)| Shard {
                index: i,
                range,
                queue: EventQueue::new(),
                seq: (i as u64 + 1) << SEQ_NAMESPACE_SHIFT,
                stats: SimStats::default(),
                outbox: Vec::new(),
                tel: LocalCounters::default(),
            })
            .collect();

        // Deal the build-time events out by owner, preserving their
        // original (time, seq) keys: the master keeps ticks and scripted
        // edge transitions; each shard gets its nodes' local events.
        let mut master: EventQueue<Event> = EventQueue::new();
        let mut built = std::mem::replace(&mut sim.queue, EventQueue::new());
        while let Some((t, seq, ev)) = built.pop_keyed() {
            match owning_node(&ev) {
                None => master.schedule_keyed(t, seq, ev),
                Some(u) => shard_states[owner(&starts, u)]
                    .queue
                    .schedule_keyed(t, seq, ev),
            }
        }
        sim.queue = master;
        // Arm the redirect seam: node-local events spawned by master-side
        // handlers now surface in `sim.redirect` for routing.
        sim.redirect = Some(Vec::new());

        Ok(ParallelSimulation {
            sim,
            shards: shard_states,
            starts,
            window,
            last_round_events: 0,
            thread_min_events: THREAD_DRAIN_MIN_EVENTS,
        })
    }
}

/// One shard: a contiguous node range, its event queue, its namespaced
/// sequence counter, and private scratch.
#[derive(Debug)]
struct Shard {
    index: usize,
    range: Range<usize>,
    queue: EventQueue<Event>,
    seq: u64,
    stats: SimStats,
    outbox: Vec<(usize, SimTime, u64, Event)>,
    /// Telemetry counter block this shard accumulates into (when enabled);
    /// folded into the master sink by `merge_stats`, like `stats`.
    tel: LocalCounters,
}

/// Read-only state shared by all workers during a drain round.
struct SharedCtx<'a> {
    run: Run<'a>,
    graph: &'a DynamicGraph,
    starts: &'a [usize],
    /// Whether a telemetry sink is installed (workers can't touch the
    /// sink itself — they count into their shard's block instead).
    telemetry: bool,
}

/// One worker's disjoint mutable state for a drain round: its shard plus
/// the matching slices of the node array and hot columns.
struct Work<'a> {
    shard: &'a mut Shard,
    /// The global node range the slices cover: the shard's own under a
    /// parallel drain, the whole array at the boundary merge.
    range: Range<usize>,
    nodes: &'a mut [NodeState],
    stable_until: &'a mut [f64],
    m_jump_sensitive: &'a mut [bool],
    delay_rng: &'a mut [StdRng],
}

/// Splits one column into per-shard `&mut` slices along `ranges`
/// (contiguous, ascending, starting at 0).
fn split_ranges<'a, T>(mut rest: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut offset = 0;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.end - offset);
        out.push(head);
        rest = tail;
        offset = r.end;
    }
    out
}

impl Work<'_> {
    /// Pops the shard's earliest event and runs it through the shared
    /// [`LocalCtx`] with the shard's own sink, sequence counter, stats,
    /// and telemetry block. Returns the event's time.
    fn step(&mut self, shared: &SharedCtx<'_>) -> SimTime {
        let Shard {
            index,
            queue,
            seq,
            stats,
            outbox,
            tel,
            ..
        } = &mut *self.shard;
        let (t, _seq, ev) = queue.pop_keyed().expect("peeked");
        stats.events += 1;
        let mut sink = ShardSink {
            queue,
            starts: shared.starts,
            shard: *index,
            seq,
            outbox,
        };
        let mut ctx = LocalCtx {
            range: self.range.clone(),
            nodes: &mut *self.nodes,
            stable_until: &mut *self.stable_until,
            m_jump_sensitive: &mut *self.m_jump_sensitive,
            delay_rng: &mut *self.delay_rng,
            stats,
            sink: &mut sink,
            run: shared.run,
            graph: shared.graph,
            diameter: None,
            tel: shared.telemetry.then_some(tel),
        };
        ctx.handle(t, ev);
        t
    }
}

/// Drains every event inside the segment (`< cut` when `strict`, else
/// `≤ cut`) from one shard. Runs on a worker thread.
fn drain_one(mut work: Work<'_>, shared: &SharedCtx<'_>, cut: SimTime, strict: bool) {
    while matches!(work.shard.queue.next_time(), Some(t) if t < cut || (!strict && t == cut)) {
        work.step(shared);
    }
}

/// The sharded engine. Observation goes through `Deref<Target =
/// Simulation>`: snapshots, change log, stats, and node accessors all
/// read the master state, which is fully synchronized whenever no
/// `run_until` call is in progress.
#[derive(Debug)]
pub struct ParallelSimulation {
    sim: Simulation,
    shards: Vec<Shard>,
    starts: Vec<usize>,
    /// The synchronization window width in seconds (`INFINITY` for a
    /// single shard, which needs no cross-shard rendezvous).
    window: f64,
    /// Events the most recent drain round executed, across all shards.
    last_round_events: u64,
    /// [`THREAD_DRAIN_MIN_EVENTS`]; the tests pin it to force one path.
    thread_min_events: u64,
}

impl std::ops::Deref for ParallelSimulation {
    type Target = Simulation;

    fn deref(&self) -> &Simulation {
        &self.sim
    }
}

impl ParallelSimulation {
    /// Runs until simulated time `t` (inclusive), bit-identically to
    /// [`Simulation::run_until`] on the same configuration and seed.
    pub fn run_until(&mut self, target: SimTime) {
        assert!(target >= self.sim.now, "cannot run backwards to {target:?}");
        loop {
            // Conservative segment bound: nothing at or before `cut` can
            // still be affected by an unexecuted event elsewhere.
            let master_next = self.sim.queue.next_time();
            let earliest = self
                .shards
                .iter_mut()
                .filter_map(|s| s.queue.next_time())
                .fold(None, |acc: Option<SimTime>, t| {
                    Some(acc.map_or(t, |a| a.min(t)))
                });
            let mut cut = target;
            if let Some(m) = master_next {
                cut = cut.min(m);
            }
            if self.window.is_finite() {
                if let Some(e) = earliest {
                    cut = cut.min(SimTime::from_secs(e.as_secs() + self.window));
                }
            }
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                sink.on_segment_cut(cut.as_secs());
            }

            // 1. Shard events strictly before the cut, in parallel.
            //    Events exactly *at* the cut are boundary events: the cut
            //    is capped at the next master event, so a scripted edge
            //    transition can coincide with a same-instant delivery or
            //    flood there, and those must not run before the master's
            //    earlier-keyed events.
            self.drain_shards(cut, true);
            // 2. The boundary instant itself: master events and shard
            //    events at exactly the cut, interleaved in ascending
            //    sequence order — the order the sequential engine's single
            //    queue pops them. This pins the §3.1 closed-interval
            //    semantics at window barriers: an edge up exactly at a send
            //    time delivers, a removal exactly at a delivery instant
            //    drops (scripted transitions carry build-time keys, which
            //    sort before every dynamically spawned event).
            // 3. Node-local events the master spawned (leader checks from
            //    edge-ups) go to their owners; redirected events land at or
            //    after the cut, so only another boundary pass can run any
            //    that landed inside this segment.
            loop {
                self.boundary_merge(cut);
                if !self.route_redirects(cut) {
                    break;
                }
            }
            if cut >= target {
                break;
            }
            self.sim.now = cut;
        }
        self.sim.now = target;
        self.merge_stats();
        self.sim.advance_all(target);
    }

    /// Pending events across the master queue and every shard queue. At
    /// quiescence (between `run_until` calls) the pending multiset is
    /// engine-invariant, so this gauge matches the sequential engine's.
    /// It stays inherent: without it, a call on a `ParallelSimulation`
    /// would resolve through `Deref` to the master queue's count alone.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.sim.queue.len() + self.shards.iter().map(|s| s.queue.len()).sum::<usize>()
    }

    /// Runs drain rounds until every shard's next event is outside the
    /// segment: each round drains all shards in parallel, then exchanges
    /// mailbox deliveries at the barrier; only an exchanged event landing
    /// back inside the segment (possible exactly at the lookahead bound on
    /// zero-jitter edges) forces another round. With `strict` the segment
    /// is `t < cut` — events exactly at the cut stay queued for the
    /// boundary merge, which orders them against same-instant master
    /// events; without it the segment is `t ≤ cut`.
    fn drain_shards(&mut self, cut: SimTime, strict: bool) {
        let inside = |t: SimTime| if strict { t < cut } else { t <= cut };
        loop {
            let active: Vec<bool> = self
                .shards
                .iter_mut()
                .map(|s| matches!(s.queue.next_time(), Some(t) if inside(t)))
                .collect();
            let busy = active.iter().filter(|&&a| a).count();
            if busy == 0 {
                return;
            }
            self.drain_round(&active, cut, strict);
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                sink.on_barrier_round(busy, active.len() - busy);
            }
            // Barrier: exchange cross-shard deliveries.
            let mut moved: Vec<(usize, SimTime, u64, Event)> = Vec::new();
            for s in &mut self.shards {
                moved.append(&mut s.outbox);
            }
            if !moved.is_empty() {
                if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                    sink.on_mailbox(moved.len());
                }
            }
            let mut exchanged_in_window = false;
            for (dest, t, seq, ev) in moved {
                exchanged_in_window |= inside(t);
                self.shards[dest].queue.schedule_keyed(t, seq, ev);
            }
            if !exchanged_in_window {
                return;
            }
        }
    }

    /// Executes every event scheduled exactly at `cut` — master and shard
    /// alike — in ascending sequence order, i.e. exactly the order the
    /// sequential engine's single queue would pop them. Shard events run
    /// on the calling thread against the full node range, but keep their
    /// owning shard's sink, sequence counter, stats, per-node RNG rows,
    /// and telemetry block, so spawned keys and per-shard counters are
    /// indistinguishable from a parallel drain. Cross-shard deliveries
    /// spawned here (which land strictly later — the builder guarantees a
    /// positive lookahead) are exchanged before returning.
    fn boundary_merge(&mut self, cut: SimTime) {
        loop {
            let master = self
                .sim
                .queue
                .next_key()
                .filter(|&(t, _)| t == cut)
                .map(|(_, seq)| seq);
            let shard = self
                .shards
                .iter_mut()
                .filter_map(|s| {
                    let (t, seq) = s.queue.next_key()?;
                    (t == cut).then_some((seq, s.index))
                })
                .min();
            match (master, shard) {
                (None, None) => break,
                (Some(_), None) => self.pop_master_at(cut),
                (None, Some((_, i))) => self.pop_shard_at(i, cut),
                (Some(m), Some((s, i))) => {
                    if m < s {
                        self.pop_master_at(cut);
                    } else {
                        self.pop_shard_at(i, cut);
                    }
                }
            }
        }
        let mut moved: Vec<(usize, SimTime, u64, Event)> = Vec::new();
        for s in &mut self.shards {
            moved.append(&mut s.outbox);
        }
        if !moved.is_empty() {
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                sink.on_mailbox(moved.len());
            }
            for (dest, t, seq, ev) in moved {
                debug_assert!(t > cut, "boundary sends land after the cut");
                self.shards[dest].queue.schedule_keyed(t, seq, ev);
            }
        }
    }

    /// Pops and executes the master queue's earliest event (at `cut`).
    fn pop_master_at(&mut self, cut: SimTime) {
        let (when, ev) = self.sim.queue.pop().expect("peeked");
        debug_assert_eq!(when, cut);
        self.sim.now = when;
        self.sim.stats.events += 1;
        self.sim.handle(when, ev);
    }

    /// Pops and executes shard `index`'s earliest event (at `cut`) on the
    /// calling thread, with the shard's own sink, stats, and counters.
    fn pop_shard_at(&mut self, index: usize, cut: SimTime) {
        let sim = &mut self.sim;
        let shared = SharedCtx {
            run: Run {
                params: &sim.params,
                refresh: sim.refresh,
                mode: sim.mode,
            },
            graph: &sim.graph,
            starts: &self.starts,
            telemetry: sim.telemetry.is_some(),
        };
        let mut work = Work {
            shard: &mut self.shards[index],
            range: 0..sim.nodes.len(),
            nodes: &mut sim.nodes,
            stable_until: &mut sim.hot.stable_until,
            m_jump_sensitive: &mut sim.hot.m_jump_sensitive,
            delay_rng: &mut sim.hot.delay_rng,
        };
        let t = work.step(&shared);
        debug_assert_eq!(t, cut);
    }

    /// One parallel round: every active shard drains on its own thread
    /// (the first active one on the calling thread), with disjoint
    /// `split_at_mut` borrows of the node array and hot columns. After a
    /// round of fewer than [`THREAD_DRAIN_MIN_EVENTS`] events the calling
    /// thread drains them all, one after another, over the same borrows:
    /// a shard's drain reads and writes only its own slices and outbox,
    /// so the order the shards run in changes nothing.
    fn drain_round(&mut self, active: &[bool], cut: SimTime, strict: bool) {
        let events_before: u64 = self.shards.iter().map(|s| s.stats.events).sum();
        let threaded = self.last_round_events >= self.thread_min_events;
        let sim = &mut self.sim;
        let shared = SharedCtx {
            run: Run {
                params: &sim.params,
                refresh: sim.refresh,
                mode: sim.mode,
            },
            graph: &sim.graph,
            starts: &self.starts,
            telemetry: sim.telemetry.is_some(),
        };
        let ranges: Vec<Range<usize>> = self.shards.iter().map(|s| s.range.clone()).collect();
        let node_cols = split_ranges(&mut sim.nodes, &ranges);
        let su_cols = split_ranges(&mut sim.hot.stable_until, &ranges);
        let mj_cols = split_ranges(&mut sim.hot.m_jump_sensitive, &ranges);
        let dr_cols = split_ranges(&mut sim.hot.delay_rng, &ranges);
        let mut works: Vec<Option<Work<'_>>> = Vec::with_capacity(self.shards.len());
        for ((((shard, nodes), stable_until), m_jump_sensitive), delay_rng) in self
            .shards
            .iter_mut()
            .zip(node_cols)
            .zip(su_cols)
            .zip(mj_cols)
            .zip(dr_cols)
        {
            let is_active = active[shard.index];
            let w = Work {
                range: shard.range.clone(),
                shard,
                nodes,
                stable_until,
                m_jump_sensitive,
                delay_rng,
            };
            works.push(is_active.then_some(w));
        }
        let mut iter = works.into_iter().flatten();
        let first = iter.next().expect("at least one active shard");
        let rest: Vec<Work<'_>> = iter.collect();
        if rest.is_empty() || !threaded {
            for w in std::iter::once(first).chain(rest) {
                drain_one(w, &shared, cut, strict);
            }
        } else {
            let shared = &shared;
            std::thread::scope(|scope| {
                for w in rest {
                    scope.spawn(move || drain_one(w, shared, cut, strict));
                }
                drain_one(first, shared, cut, strict);
            });
        }
        let events_after: u64 = self.shards.iter().map(|s| s.stats.events).sum();
        self.last_round_events = events_after - events_before;
    }

    /// Routes master-spawned node-local events to their owning shards
    /// with owner-namespaced keys, in spawn order. Returns whether any
    /// landed at or before `cut`.
    fn route_redirects(&mut self, cut: SimTime) -> bool {
        let buf = self
            .sim
            .redirect
            .as_mut()
            .expect("parallel engine always arms the redirect seam");
        if buf.is_empty() {
            return false;
        }
        let drained: Vec<(SimTime, Event)> = std::mem::take(buf);
        let mut in_window = false;
        for (t, ev) in drained {
            let u = owning_node(&ev).expect("redirected events are node-local");
            let shard = &mut self.shards[owner(&self.starts, u)];
            let seq = shard.seq;
            shard.seq += 1;
            shard.queue.schedule_keyed(t, seq, ev);
            in_window |= t <= cut;
        }
        in_window
    }

    /// Folds every shard's counters into the master stats (shard
    /// accumulators reset to zero), so the `Deref`'d
    /// [`Simulation::stats`] is exact at every observation point.
    fn merge_stats(&mut self) {
        for s in &mut self.shards {
            let st = std::mem::take(&mut s.stats);
            if let Some(sink) = self.sim.telemetry.as_deref_mut() {
                let tel = std::mem::take(&mut s.tel);
                sink.on_local(s.index, &tel);
                sink.on_shard_drained(s.index, st.events);
            }
            let total = &mut self.sim.stats;
            total.messages_sent += st.messages_sent;
            total.messages_delivered += st.messages_delivered;
            total.messages_dropped += st.messages_dropped;
            total.ticks += st.ticks;
            total.events += st.events;
            total.mode_evaluations += st.mode_evaluations;
            total.handshakes_offered += st.handshakes_offered;
            total.insertions_scheduled += st.insertions_scheduled;
        }
    }
}

/// Engine-invariant gauges read at a quiescent instant — the streaming
/// snapshot hook the per-sample observation loops use instead of
/// materializing a full [`ClockSnapshot`](crate::ClockSnapshot). Every
/// field is deterministic and identical across the sequential and the
/// sharded engine at any shard count (the telemetry trace contract leans
/// on this), and reading them allocates nothing, so observers stay
/// bounded-memory at 10⁵ nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineGauges {
    /// The current instant, seconds.
    pub t: f64,
    /// `max_u L_u − min_u L_u` over all logical clocks.
    pub global_skew: f64,
    /// Pending events across every queue the engine owns.
    pub queue_depth: usize,
    /// Nodes whose stability horizon has expired (the next tick sweep's
    /// work).
    pub dirty_nodes: usize,
    /// Total events processed so far.
    pub events: u64,
}

/// A uniform driving interface over the sequential and sharded engines,
/// so campaign/bench/conformance code is generic in which one it runs.
pub trait Engine {
    /// Runs until `secs` simulated seconds (inclusive).
    fn run_until_secs(&mut self, secs: f64);

    /// Reads the engine-invariant [`EngineGauges`] at the current
    /// (quiescent) instant, allocation-free.
    fn gauges(&self) -> EngineGauges {
        let sim = self.as_sim();
        EngineGauges {
            t: sim.now().as_secs(),
            global_skew: sim.global_skew_now(),
            queue_depth: self.pending_events(),
            dirty_nodes: sim.dirty_nodes(),
            events: sim.stats().events,
        }
    }
    /// Injects a clock fault at the current instant.
    fn inject_clock_offset(&mut self, u: NodeId, offset: f64);
    /// Installs a scripted estimate corruption at the current instant.
    fn inject_estimate_bias(&mut self, u: NodeId, bias: f64);
    /// The master simulation state, for observation.
    fn as_sim(&self) -> &Simulation;
    /// Installs a telemetry sink (post-build, either engine).
    fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>);
    /// Removes the telemetry sink, flushing pending counters into it.
    fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>>;
    /// Pending events across every queue this engine owns (an
    /// engine-invariant gauge at quiescent instants).
    fn pending_events(&self) -> usize;
}

impl Engine for Simulation {
    fn run_until_secs(&mut self, secs: f64) {
        Simulation::run_until_secs(self, secs);
    }

    fn inject_clock_offset(&mut self, u: NodeId, offset: f64) {
        Simulation::inject_clock_offset(self, u, offset);
    }

    fn inject_estimate_bias(&mut self, u: NodeId, bias: f64) {
        Simulation::inject_estimate_bias(self, u, bias);
    }

    fn as_sim(&self) -> &Simulation {
        self
    }

    fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        Simulation::set_telemetry(self, sink);
    }

    fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        Simulation::take_telemetry(self)
    }

    fn pending_events(&self) -> usize {
        Simulation::pending_events(self)
    }
}

/// Shards are quiescent between `run_until` calls, so faults and the
/// telemetry sink go straight to the master. Master-side hooks report
/// through the sink directly; shard workers count into per-shard blocks
/// that the stats merge at the end of every `run_until` folds in.
impl Engine for ParallelSimulation {
    fn run_until_secs(&mut self, secs: f64) {
        self.run_until(SimTime::from_secs(secs));
    }

    fn inject_clock_offset(&mut self, u: NodeId, offset: f64) {
        self.sim.inject_clock_offset(u, offset);
    }

    fn inject_estimate_bias(&mut self, u: NodeId, bias: f64) {
        self.sim.inject_estimate_bias(u, bias);
    }

    fn as_sim(&self) -> &Simulation {
        self
    }

    fn set_telemetry(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sim.set_telemetry(sink);
    }

    fn take_telemetry(&mut self) -> Option<Box<dyn TelemetrySink>> {
        self.sim.take_telemetry()
    }

    fn pending_events(&self) -> usize {
        ParallelSimulation::pending_events(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use gcs_net::Topology;
    use gcs_protocol::handlers::Message;
    use gcs_protocol::FloodMsg;
    use gcs_sim::DriftModel;

    fn builder(seed: u64) -> SimBuilder {
        let params = Params::builder().rho(0.01).mu(0.1).build().unwrap();
        SimBuilder::new(params)
            .topology(Topology::ring(4))
            .drift(DriftModel::TwoBlock)
            .seed(seed)
    }

    /// A flood whose bounds no organic run could produce, so whether it
    /// was delivered is visible in the receiver's state.
    fn poison() -> Message {
        Message::Flood(FloodMsg {
            logical: 1.0e6,
            max_est: 1.0e6,
            min_lb: 0.0,
            max_ub: 2.0e6,
        })
    }

    /// §3.1 boundary, removal side: an edge removal scheduled at exactly a
    /// delivery instant sorts first (scripted transitions carry build-time
    /// keys, below every dynamic key), so the message drops — and the
    /// sharded engine must reproduce that at its window barrier, where the
    /// removal is a master event and the delivery a shard event. Before
    /// the boundary merge, the shard drained its side of the instant
    /// first and delivered through the removed edge.
    #[test]
    fn removal_at_the_delivery_instant_drops_in_both_engines() {
        let cut = SimTime::from_secs(1.7717);
        let sent = SimTime::from_secs(1.7);
        let dyn_seq = (1u64 << SEQ_NAMESPACE_SHIFT) | 7;
        let down = || Event::EdgeDown {
            from: NodeId(1),
            to: NodeId(0),
        };
        let deliver = || Event::Deliver {
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: sent,
            payload: poison(),
        };

        let mut seq_sim = builder(11).build().unwrap();
        let mut par = ParallelSimBuilder::new(builder(11))
            .shards(2)
            .build()
            .unwrap();
        seq_sim.run_until_secs(1.0);
        par.run_until_secs(1.0);

        seq_sim.queue.schedule_keyed(cut, 1_000, down());
        seq_sim.queue.schedule_keyed(cut, dyn_seq, deliver());
        par.sim.queue.schedule_keyed(cut, 1_000, down());
        let shard = owner(&par.starts, 1);
        par.shards[shard]
            .queue
            .schedule_keyed(cut, dyn_seq, deliver());

        let dropped_before = seq_sim.stats().messages_dropped;
        seq_sim.run_until_secs(2.5);
        par.run_until_secs(2.5);

        assert!(
            seq_sim.stats().messages_dropped > dropped_before,
            "the colliding delivery must be dropped"
        );
        assert!(
            seq_sim.nodes[1].max_estimate() < 1.0e5,
            "sequential engine delivered through a removed edge"
        );
        assert!(
            par.nodes[1].max_estimate() < 1.0e5,
            "sharded engine delivered through a removed edge"
        );
        assert_eq!(seq_sim.stats(), par.stats());
        assert_eq!(seq_sim.snapshot().logical, par.snapshot().logical);
    }

    /// §3.1 boundary, insertion side: a message sent at exactly the
    /// instant the receiver discovered the sender is deliverable — the
    /// presence interval is closed on the left — identically in both
    /// engines (here across the shard boundary).
    #[test]
    fn send_at_the_discovery_instant_delivers_in_both_engines() {
        let at = SimTime::from_secs(0.006);
        let sent = SimTime::from_secs(0.0);
        let dyn_seq = (1u64 << SEQ_NAMESPACE_SHIFT) | 7;
        let deliver = || Event::Deliver {
            src: NodeId(2),
            dst: NodeId(1),
            sent_at: sent,
            payload: poison(),
        };

        let mut seq_sim = builder(17).build().unwrap();
        seq_sim.queue.schedule_keyed(at, dyn_seq, deliver());
        let mut par = ParallelSimBuilder::new(builder(17))
            .shards(2)
            .build()
            .unwrap();
        let shard = owner(&par.starts, 1);
        par.shards[shard]
            .queue
            .schedule_keyed(at, dyn_seq, deliver());

        seq_sim.run_until_secs(1.0);
        par.run_until_secs(1.0);

        assert!(
            seq_sim.nodes[1].max_estimate() >= 1.0e6,
            "the boundary send must be delivered"
        );
        assert_eq!(seq_sim.stats(), par.stats());
        assert_eq!(seq_sim.snapshot().logical, par.snapshot().logical);
        assert_eq!(
            seq_sim.nodes[1].max_estimate().to_bits(),
            par.nodes[1].max_estimate().to_bits()
        );
    }

    /// A round drained on the calling thread and one drained by scoped
    /// workers are the same computation: pinning every round to either
    /// path reproduces the sequential engine bit for bit, on a churning
    /// grid with message-mode estimates over three shards.
    #[test]
    fn inline_and_threaded_rounds_are_bit_identical() {
        use gcs_net::{ChurnOptions, NetworkSchedule};
        use gcs_protocol::EstimateMode;

        let scenario = || {
            let topo = Topology::grid(8, 8);
            let churn = ChurnOptions {
                horizon: 3.0,
                mean_up: 0.4,
                mean_down: 0.2,
                ..ChurnOptions::default()
            };
            builder(23)
                .schedule(NetworkSchedule::churn(&topo, churn, 23))
                .estimates(EstimateMode::Messages)
        };
        let trace = |sim: &mut dyn Engine| {
            let mut bits = Vec::new();
            for k in 1..=12 {
                sim.run_until_secs(0.25 * f64::from(k));
                let snap = sim.as_sim().snapshot();
                for v in [&snap.logical, &snap.hardware, &snap.max_estimates] {
                    bits.extend(v.iter().map(|x| x.to_bits()));
                }
            }
            let changes: Vec<String> = sim
                .as_sim()
                .change_log()
                .iter()
                .map(|c| format!("{c:?}"))
                .collect();
            (bits, changes, sim.as_sim().stats())
        };
        let reference = trace(&mut scenario().build().unwrap());
        for thread_min_events in [0, u64::MAX] {
            let mut par = ParallelSimBuilder::new(scenario())
                .shards(3)
                .build()
                .unwrap();
            par.thread_min_events = thread_min_events;
            assert!(
                trace(&mut par) == reference,
                "thread_min_events {thread_min_events}"
            );
        }
    }
}
