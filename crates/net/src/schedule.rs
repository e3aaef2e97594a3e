//! Deterministic scripts of edge dynamics.
//!
//! A [`NetworkSchedule`] is the paper's worst-case adversary made concrete:
//! an initial directed edge set plus a time-ordered list of [`EdgeEvent`]s.
//! The two directions of an undirected edge are scripted separately, offset
//! by at most the edge's detection delay `τ` — this is precisely the
//! asymmetry the model of §3.1 permits.
//!
//! Generators provided here:
//!
//! * [`NetworkSchedule::static_graph`] — all edges of a topology up forever,
//! * [`NetworkSchedule::with_edge_insertion`] — a static base plus extra
//!   edges appearing (and optionally disappearing) at scripted times: the
//!   stabilization experiments E4/E5/E7,
//! * [`NetworkSchedule::churn`] — connectivity-preserving random churn: a
//!   spanning tree stays up forever while every other edge flaps with
//!   exponentially distributed up/down phases (experiment E8).

use rand::Rng;

use gcs_sim::{rng, SimTime};

use crate::graph::{EdgeKey, NodeId};
use crate::topology::Topology;

/// Whether a directed edge appears or disappears.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeEventKind {
    /// The directed edge becomes present (the *from* node discovers it).
    Up,
    /// The directed edge vanishes (the *from* node detects the failure).
    Down,
}

/// A scripted change of one directed edge `(from, to)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeEvent {
    /// When the change happens.
    pub time: SimTime,
    /// The node whose neighbour set changes.
    pub from: NodeId,
    /// The neighbour being added or removed.
    pub to: NodeId,
    /// Added or removed.
    pub kind: EdgeEventKind,
}

/// Options for the connectivity-preserving churn generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnOptions {
    /// Script horizon in seconds; no events are generated past it.
    pub horizon: f64,
    /// Mean duration of an edge's *up* phase (exponential), seconds.
    pub mean_up: f64,
    /// Mean duration of an edge's *down* phase (exponential), seconds.
    pub mean_down: f64,
    /// Maximum offset between the two directions of an up/down transition;
    /// must not exceed the edge's detection delay `τ`.
    pub direction_skew_max: f64,
    /// Probability that a churnable edge starts in the up state.
    pub start_up_probability: f64,
}

impl Default for ChurnOptions {
    fn default() -> Self {
        ChurnOptions {
            horizon: 100.0,
            mean_up: 30.0,
            mean_down: 10.0,
            direction_skew_max: 0.005,
            start_up_probability: 0.7,
        }
    }
}

/// An initial directed edge set plus a time-ordered event script.
///
/// # Example
///
/// ```
/// use gcs_net::{EdgeKey, NetworkSchedule, NodeId, Topology};
/// use gcs_sim::SimTime;
///
/// let ring = Topology::ring(6);
/// let chord = EdgeKey::new(NodeId(0), NodeId(3));
/// let sched = NetworkSchedule::with_edge_insertion(
///     &ring,
///     &[(chord, SimTime::from_secs(10.0))],
///     0.001,
/// );
/// assert_eq!(sched.initial_directed().len(), 2 * ring.edge_count());
/// assert_eq!(sched.events().len(), 2); // both directions of the chord
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetworkSchedule {
    n: usize,
    initial: Vec<(NodeId, NodeId)>,
    events: Vec<EdgeEvent>,
}

impl NetworkSchedule {
    /// An empty schedule on `n` nodes (no edges ever).
    #[must_use]
    pub fn empty(n: usize) -> Self {
        NetworkSchedule {
            n,
            initial: Vec::new(),
            events: Vec::new(),
        }
    }

    /// All edges of `topo` present (in both directions) from `t = 0` on,
    /// with no changes.
    #[must_use]
    pub fn static_graph(topo: &Topology) -> Self {
        let mut s = NetworkSchedule::empty(topo.node_count());
        for &e in topo.edges() {
            s.add_initial_undirected(e);
        }
        s
    }

    /// A static base plus extra undirected edges appearing at scripted
    /// times. The second direction of each insertion is offset by
    /// `direction_skew` seconds (use a value `< τ`).
    #[must_use]
    pub fn with_edge_insertion(
        base: &Topology,
        insertions: &[(EdgeKey, SimTime)],
        direction_skew: f64,
    ) -> Self {
        let mut s = NetworkSchedule::static_graph(base);
        for &(e, t) in insertions {
            s.append_undirected(e, t, direction_skew, EdgeEventKind::Up);
        }
        s.sort_events();
        s
    }

    /// Connectivity-preserving random churn over `topo`: a BFS spanning tree
    /// stays up for the whole run; every non-tree edge alternates up/down
    /// phases with exponentially distributed durations.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is disconnected or options are non-positive.
    #[must_use]
    pub fn churn(topo: &Topology, opts: ChurnOptions, seed: u64) -> Self {
        assert!(opts.horizon > 0.0, "horizon must be positive");
        assert!(
            opts.mean_up > 0.0 && opts.mean_down > 0.0,
            "phase means must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&opts.start_up_probability),
            "start_up_probability must be a probability"
        );
        let mut s = NetworkSchedule::empty(topo.node_count());
        let backbone: std::collections::BTreeSet<EdgeKey> =
            topo.spanning_tree().into_iter().collect();
        for &e in &backbone {
            s.add_initial_undirected(e);
        }
        for (idx, &e) in topo.edges().iter().enumerate() {
            if backbone.contains(&e) {
                continue;
            }
            let mut r = rng::stream(seed, "churn", idx as u64);
            // Phases shorter than the direction-detection asymmetry are
            // physically meaningless (and would let a mirrored Up overtake
            // the preceding mirrored Down); clamp them away.
            let min_phase = 2.0 * opts.direction_skew_max;
            let exp = move |r: &mut rand::rngs::StdRng, mean: f64| {
                (-mean * (1.0 - r.gen::<f64>()).ln()).max(min_phase)
            };
            let mut up = r.gen::<f64>() < opts.start_up_probability;
            if up {
                s.add_initial_undirected(e);
            }
            // Walk phase boundaries until the horizon.
            let mut t = exp(&mut r, if up { opts.mean_up } else { opts.mean_down });
            while t < opts.horizon {
                let skew = if opts.direction_skew_max > 0.0 {
                    r.gen_range(0.0..=opts.direction_skew_max)
                } else {
                    0.0
                };
                let kind = if up {
                    EdgeEventKind::Down
                } else {
                    EdgeEventKind::Up
                };
                s.append_undirected(e, SimTime::from_secs(t), skew, kind);
                up = !up;
                t += exp(&mut r, if up { opts.mean_up } else { opts.mean_down });
            }
        }
        s.sort_events();
        s
    }

    /// A temporary partition: every edge crossing the cut between `left`
    /// and its complement disappears during `[t_split, t_merge]` and
    /// reappears afterwards. Both sides must remain internally connected —
    /// the paper's model demands connectivity *within* what it bounds; the
    /// cross-partition skew is exactly what grows unboundedly while the cut
    /// is open (experiment E10).
    ///
    /// # Panics
    ///
    /// Panics if a side would be disconnected, the cut is empty/full, or
    /// `t_merge <= t_split`.
    #[must_use]
    pub fn partition_and_merge(
        topo: &Topology,
        left: &[NodeId],
        t_split: SimTime,
        t_merge: SimTime,
        direction_skew: f64,
    ) -> Self {
        assert!(t_merge > t_split, "merge must come after the split");
        let left_set: std::collections::BTreeSet<NodeId> = left.iter().copied().collect();
        assert!(
            !left_set.is_empty() && left_set.len() < topo.node_count(),
            "the cut must be a proper, non-empty subset"
        );
        let right: Vec<NodeId> = (0..topo.node_count())
            .map(NodeId::from)
            .filter(|v| !left_set.contains(v))
            .collect();
        assert!(
            topo.induced_connected(left),
            "left side would be internally disconnected"
        );
        assert!(
            topo.induced_connected(&right),
            "right side would be internally disconnected"
        );
        let mut s = NetworkSchedule::static_graph(topo);
        for &e in topo.edges() {
            if left_set.contains(&e.lo()) != left_set.contains(&e.hi()) {
                s.append_undirected(e, t_split, direction_skew, EdgeEventKind::Down);
                s.append_undirected(e, t_merge, direction_skew, EdgeEventKind::Up);
            }
        }
        s.sort_events();
        s
    }

    /// Marks both directions of `e` present at `t = 0`.
    pub fn add_initial_undirected(&mut self, e: EdgeKey) {
        self.assert_edge(e);
        self.initial.push((e.lo(), e.hi()));
        self.initial.push((e.hi(), e.lo()));
    }

    /// Marks a single direction present at `t = 0`.
    pub fn add_initial_directed(&mut self, from: NodeId, to: NodeId) {
        self.assert_edge(EdgeKey::new(from, to));
        self.initial.push((from, to));
    }

    /// Scripts both directions of `e` to appear: `lo → hi` at `t`,
    /// `hi → lo` at `t + direction_skew`.
    pub fn add_undirected_up(&mut self, e: EdgeKey, t: SimTime, direction_skew: f64) {
        for ev in undirected(e, t, direction_skew, EdgeEventKind::Up) {
            self.push_event(ev);
        }
    }

    /// Scripts both directions of `e` to disappear, offset by
    /// `direction_skew`.
    pub fn add_undirected_down(&mut self, e: EdgeKey, t: SimTime, direction_skew: f64) {
        for ev in undirected(e, t, direction_skew, EdgeEventKind::Down) {
            self.push_event(ev);
        }
    }

    /// Appends a raw directed event, keeping the script sorted (after every
    /// event at the same instant). O(events) per call; the bulk generators
    /// append and sort once instead.
    pub fn push_event(&mut self, ev: EdgeEvent) {
        self.assert_edge(EdgeKey::new(ev.from, ev.to));
        self.events.push(ev);
        let mut i = self.events.len() - 1;
        while i > 0 && self.events[i - 1].time > self.events[i].time {
            self.events.swap(i - 1, i);
            i -= 1;
        }
    }

    /// Scripts a batch of undirected changes, each offset by
    /// `direction_skew` like [`add_undirected_up`](Self::add_undirected_up),
    /// appending them all and sorting once. The script equals what the
    /// per-change `add_undirected_*` calls, in the same order, yield.
    pub fn extend_undirected(
        &mut self,
        changes: impl IntoIterator<Item = (EdgeKey, SimTime, EdgeEventKind)>,
        direction_skew: f64,
    ) {
        for (e, t, kind) in changes {
            self.append_undirected(e, t, direction_skew, kind);
        }
        self.sort_events();
    }

    /// Appends both directions of a change without restoring the order;
    /// the caller finishes with [`sort_events`](Self::sort_events).
    pub(crate) fn append_undirected(
        &mut self,
        e: EdgeKey,
        t: SimTime,
        skew: f64,
        kind: EdgeEventKind,
    ) {
        self.assert_edge(e);
        self.events.extend(undirected(e, t, skew, kind));
    }

    /// Restores the time order after bulk appends. The sort is stable, so
    /// the script equals what pushing the same sequence one event at a
    /// time through [`push_event`](Self::push_event) yields.
    pub(crate) fn sort_events(&mut self) {
        self.events.sort_by_key(|ev| ev.time);
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Directed edges present at `t = 0`.
    #[must_use]
    pub fn initial_directed(&self) -> &[(NodeId, NodeId)] {
        &self.initial
    }

    /// The event script, sorted by time.
    #[must_use]
    pub fn events(&self) -> &[EdgeEvent] {
        &self.events
    }

    /// All undirected edges that are ever present (initial or scripted),
    /// ascending and each once — the edge universe for which parameters
    /// must exist.
    #[must_use]
    pub fn edge_universe(&self) -> Vec<EdgeKey> {
        let mut keys: Vec<EdgeKey> = self
            .initial
            .iter()
            .map(|&(u, v)| EdgeKey::new(u, v))
            .chain(self.events.iter().map(|ev| EdgeKey::new(ev.from, ev.to)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    fn assert_edge(&self, e: EdgeKey) {
        assert!(
            e.hi().index() < self.n,
            "edge {e} references a node outside 0..{}",
            self.n
        );
    }
}

/// Both directions of one undirected change: `lo → hi` at `t`, `hi → lo`
/// at `t + direction_skew`.
fn undirected(e: EdgeKey, t: SimTime, direction_skew: f64, kind: EdgeEventKind) -> [EdgeEvent; 2] {
    [
        EdgeEvent {
            time: t,
            from: e.lo(),
            to: e.hi(),
            kind,
        },
        EdgeEvent {
            time: t + gcs_sim::SimDuration::from_secs(direction_skew),
            from: e.hi(),
            to: e.lo(),
            kind,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_graph_has_no_events() {
        let s = NetworkSchedule::static_graph(&Topology::line(4));
        assert_eq!(s.initial_directed().len(), 6);
        assert!(s.events().is_empty());
        assert_eq!(s.edge_universe().len(), 3);
    }

    #[test]
    fn insertion_scripts_both_directions() {
        let chord = EdgeKey::new(NodeId(0), NodeId(2));
        let s = NetworkSchedule::with_edge_insertion(
            &Topology::line(4),
            &[(chord, SimTime::from_secs(5.0))],
            0.002,
        );
        let evs = s.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].time, SimTime::from_secs(5.0));
        assert_eq!(evs[0].kind, EdgeEventKind::Up);
        assert!((evs[1].time.as_secs() - 5.002).abs() < 1e-12);
        assert_eq!(
            (evs[0].from, evs[0].to, evs[1].from, evs[1].to),
            (NodeId(0), NodeId(2), NodeId(2), NodeId(0))
        );
    }

    #[test]
    fn events_stay_sorted() {
        let mut s = NetworkSchedule::empty(3);
        s.add_undirected_up(
            EdgeKey::new(NodeId(0), NodeId(1)),
            SimTime::from_secs(9.0),
            0.0,
        );
        s.add_undirected_up(
            EdgeKey::new(NodeId(1), NodeId(2)),
            SimTime::from_secs(1.0),
            0.0,
        );
        let times: Vec<f64> = s.events().iter().map(|e| e.time.as_secs()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bulk_append_then_sort_equals_incremental_pushes() {
        // A random churn script with many same-instant events (coarse
        // times, zero skews): the stable sort must reproduce the insertion
        // sort's tie order exactly.
        let topo = Topology::grid(4, 4);
        let mut r = rng::stream(7, "churn-order", 0);
        let mut bulk = NetworkSchedule::empty(topo.node_count());
        let mut incremental = NetworkSchedule::empty(topo.node_count());
        for _ in 0..2000 {
            let e = topo.edges()[r.gen_range(0..topo.edges().len())];
            let t = SimTime::from_secs(f64::from(r.gen_range(0u32..50)) * 0.5);
            let skew = if r.gen::<bool>() { 0.0 } else { 0.25 };
            let kind = if r.gen::<bool>() {
                EdgeEventKind::Up
            } else {
                EdgeEventKind::Down
            };
            bulk.append_undirected(e, t, skew, kind);
            match kind {
                EdgeEventKind::Up => incremental.add_undirected_up(e, t, skew),
                EdgeEventKind::Down => incremental.add_undirected_down(e, t, skew),
            }
        }
        bulk.sort_events();
        assert_eq!(bulk.events(), incremental.events());
    }

    #[test]
    fn extend_undirected_equals_incremental_adds() {
        // Batches on top of a script that already holds events, on the
        // same coarse time grid, so ties fall both inside a batch and
        // between a batch and what came before it.
        let topo = Topology::grid(4, 4);
        let mut r = rng::stream(11, "extend-order", 0);
        let mut bulk = NetworkSchedule::empty(topo.node_count());
        let mut incremental = NetworkSchedule::empty(topo.node_count());
        for _ in 0..20 {
            let skew = if r.gen::<bool>() { 0.0 } else { 0.25 };
            let batch: Vec<(EdgeKey, SimTime, EdgeEventKind)> = (0..r.gen_range(0..100))
                .map(|_| {
                    let e = topo.edges()[r.gen_range(0..topo.edges().len())];
                    let t = SimTime::from_secs(f64::from(r.gen_range(0u32..50)) * 0.5);
                    let kind = if r.gen::<bool>() {
                        EdgeEventKind::Up
                    } else {
                        EdgeEventKind::Down
                    };
                    (e, t, kind)
                })
                .collect();
            for &(e, t, kind) in &batch {
                match kind {
                    EdgeEventKind::Up => incremental.add_undirected_up(e, t, skew),
                    EdgeEventKind::Down => incremental.add_undirected_down(e, t, skew),
                }
            }
            bulk.extend_undirected(batch, skew);
            assert_eq!(bulk.events(), incremental.events());
        }
    }

    #[test]
    fn churn_keeps_backbone_untouched() {
        let topo = Topology::ring(8);
        let opts = ChurnOptions {
            horizon: 50.0,
            mean_up: 5.0,
            mean_down: 5.0,
            direction_skew_max: 0.001,
            start_up_probability: 0.5,
        };
        let s = NetworkSchedule::churn(&topo, opts, 13);
        let backbone: std::collections::BTreeSet<EdgeKey> =
            topo.spanning_tree().into_iter().collect();
        for ev in s.events() {
            let e = EdgeKey::new(ev.from, ev.to);
            assert!(!backbone.contains(&e), "backbone edge {e} churned");
            assert!(ev.time.as_secs() < 50.0 + 0.001 + 1e-9);
        }
        // Backbone present initially.
        for e in &backbone {
            assert!(s.initial_directed().contains(&(e.lo(), e.hi())));
            assert!(s.initial_directed().contains(&(e.hi(), e.lo())));
        }
    }

    #[test]
    fn churn_is_deterministic() {
        let topo = Topology::grid(3, 3);
        let a = NetworkSchedule::churn(&topo, ChurnOptions::default(), 5);
        let b = NetworkSchedule::churn(&topo, ChurnOptions::default(), 5);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.initial_directed(), b.initial_directed());
    }

    #[test]
    fn churn_alternates_up_down_per_edge() {
        let topo = Topology::ring(6);
        let s = NetworkSchedule::churn(
            &topo,
            ChurnOptions {
                horizon: 200.0,
                mean_up: 3.0,
                mean_down: 3.0,
                direction_skew_max: 0.0,
                start_up_probability: 1.0,
            },
            2,
        );
        use std::collections::HashMap;
        let mut last: HashMap<(NodeId, NodeId), EdgeEventKind> = HashMap::new();
        for ev in s.events() {
            match last.insert((ev.from, ev.to), ev.kind) {
                Some(prev) => {
                    assert_ne!(prev, ev.kind, "same-kind consecutive events on an edge");
                }
                // All edges start up, so the first event must be Down.
                None => assert_eq!(ev.kind, EdgeEventKind::Down),
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn schedule_validates_nodes() {
        let mut s = NetworkSchedule::empty(2);
        s.add_initial_undirected(EdgeKey::new(NodeId(0), NodeId(7)));
    }

    #[test]
    fn partition_cuts_exactly_the_crossing_edges() {
        let topo = Topology::ring(6);
        let left: Vec<NodeId> = (0..3u32).map(NodeId).collect();
        let s = NetworkSchedule::partition_and_merge(
            &topo,
            &left,
            SimTime::from_secs(5.0),
            SimTime::from_secs(10.0),
            0.001,
        );
        // The ring 0-1-2-3-4-5-0 has two crossing edges: {2,3} and {0,5}.
        let downs: Vec<_> = s
            .events()
            .iter()
            .filter(|e| e.kind == EdgeEventKind::Down)
            .collect();
        let ups: Vec<_> = s
            .events()
            .iter()
            .filter(|e| e.kind == EdgeEventKind::Up)
            .collect();
        assert_eq!(downs.len(), 4, "2 undirected crossing edges x 2 directions");
        assert_eq!(ups.len(), 4);
        assert!(downs.iter().all(|e| e.time.as_secs() < 5.1));
        assert!(ups.iter().all(|e| e.time.as_secs() >= 10.0));
    }

    #[test]
    #[should_panic(expected = "internally disconnected")]
    fn partition_rejects_disconnected_sides() {
        let topo = Topology::line(6);
        // {0, 2} is not internally connected on a line.
        let _ = NetworkSchedule::partition_and_merge(
            &topo,
            &[NodeId(0), NodeId(2)],
            SimTime::from_secs(1.0),
            SimTime::from_secs(2.0),
            0.0,
        );
    }

    #[test]
    #[should_panic(expected = "merge must come after")]
    fn partition_rejects_bad_interval() {
        let topo = Topology::ring(4);
        let _ = NetworkSchedule::partition_and_merge(
            &topo,
            &[NodeId(0), NodeId(1)],
            SimTime::from_secs(2.0),
            SimTime::from_secs(1.0),
            0.0,
        );
    }
}
