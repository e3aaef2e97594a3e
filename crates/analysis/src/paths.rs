//! Shortest κ-weighted paths over level graphs.
//!
//! The gradient analysis reasons about *level-s paths* (Definition 5.9):
//! paths all of whose edges lie in `E_s(t)`. The relevant quantity for the
//! potentials and the legality checker is the minimum path weight
//! `κ_p` between node pairs, computed here with Dijkstra from every source
//! (`O(n · m · log n)`) — the experiment-sized path. At engine scale
//! (10⁴–10⁵ nodes) the conformance oracle sweeps a *sample* of sources,
//! counts hops on a [`HopGraph`] (`O(n + m)` per source, with no
//! per-source `O(n)` reset), and on weight-uniform graphs skips the
//! Dijkstra altogether. When the graph is one path or one cycle,
//! [`HopGraph::walk_order`] lays it out in walk order once (`O(n)`), and
//! hop distance becomes a difference of walk positions: the oracle then
//! skips the BFS as well.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gcs_core::Simulation;
use gcs_net::{EdgeKey, NodeId};

/// A dense all-pairs distance matrix; `f64::INFINITY` marks unreachable
/// pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<f64>,
}

impl DistanceMatrix {
    /// Distance from `u` to `v`.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    #[must_use]
    pub fn get(&self, u: NodeId, v: NodeId) -> f64 {
        self.dist[u.index() * self.n + v.index()]
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The largest finite distance (the weighted diameter), or `None` if
    /// some pair is unreachable or the matrix is trivial.
    #[must_use]
    pub fn diameter(&self) -> Option<f64> {
        let mut best = 0.0f64;
        for u in 0..self.n {
            for v in 0..self.n {
                let d = self.dist[u * self.n + v];
                if d.is_infinite() {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }
}

/// Weighted edge list of an undirected graph on `n` nodes.
#[derive(Debug, Clone, Default)]
pub struct WeightedGraph {
    n: usize,
    adj: Vec<Vec<(usize, f64)>>,
    // Weight-uniformity tracking: `Some(w)` while every edge added since
    // the last reset carries the bitwise-identical weight `w`; `None`
    // before the first edge and forever after weights diverge.
    uniform: Option<f64>,
    mixed: bool,
}

impl WeightedGraph {
    /// An empty graph on `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        WeightedGraph {
            n,
            adj: vec![Vec::new(); n],
            uniform: None,
            mixed: false,
        }
    }

    /// Adds an undirected edge with the given positive weight.
    ///
    /// # Panics
    ///
    /// Panics if the weight is not finite and positive or a node is out of
    /// range.
    pub fn add_edge(&mut self, e: EdgeKey, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weight must be positive, got {weight}"
        );
        assert!(e.hi().index() < self.n, "edge {e} out of range");
        match self.uniform {
            None if !self.mixed => self.uniform = Some(weight),
            Some(w) if w.to_bits() == weight.to_bits() => {}
            Some(_) => {
                self.uniform = None;
                self.mixed = true;
            }
            None => {}
        }
        self.adj[e.lo().index()].push((e.hi().index(), weight));
        self.adj[e.hi().index()].push((e.lo().index(), weight));
    }

    /// The common weight of every edge, if the graph is *weight-uniform*:
    /// at least one edge, and every weight bitwise-identical. On such a
    /// graph [`distances_into`](Self::distances_into) degenerates to hop
    /// counting — the shortest weighted path to a hop-`d` node is the
    /// `d`-fold left-to-right sum of the common weight — which analysis
    /// sweeps exploit to skip the per-source Dijkstra entirely at engine
    /// scale.
    #[must_use]
    pub fn uniform_weight(&self) -> Option<f64> {
        self.uniform
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Clears every edge and resizes to `n` nodes, keeping the per-node
    /// adjacency allocations — per-sample analysis loops (the conformance
    /// oracle rebuilds the strong graph at every observation instant whose
    /// weights are mixed) reuse one graph instead of reallocating `n`
    /// vectors each time.
    pub fn reset(&mut self, n: usize) {
        self.adj.iter_mut().for_each(Vec::clear);
        self.adj.resize_with(n, Vec::new);
        self.n = n;
        self.uniform = None;
        self.mixed = false;
    }

    /// Breadth-first *hop* distances from one source (every edge counts 1),
    /// into a caller-provided buffer — the cheap companion to the weighted
    /// [`distances_from`](WeightedGraph::distances_from) when both metrics
    /// are needed over the same edge set. `f64::INFINITY` marks unreachable
    /// nodes, matching the Dijkstra convention (and bit-identical to
    /// unit-weight Dijkstra: hop counts are exact small-integer sums).
    pub fn hop_distances_into(&self, src: NodeId, dist: &mut Vec<f64>, queue: &mut Vec<u32>) {
        dist.clear();
        dist.resize(self.n, f64::INFINITY);
        queue.clear();
        dist[src.index()] = 0.0;
        queue.push(src.index() as u32);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            let next = dist[u] + 1.0;
            for &(v, _) in &self.adj[u] {
                if dist[v].is_infinite() {
                    dist[v] = next;
                    queue.push(v as u32);
                }
            }
        }
    }

    /// Dijkstra from one source.
    #[must_use]
    pub fn distances_from(&self, src: NodeId) -> Vec<f64> {
        let mut dist = vec![f64::INFINITY; self.n];
        self.distances_into(src, &mut dist);
        dist
    }

    /// Dijkstra from one source into a caller-provided buffer (resized and
    /// overwritten) — the per-sample analysis loops reuse one allocation.
    pub fn distances_into(&self, src: NodeId, dist: &mut Vec<f64>) {
        #[derive(PartialEq)]
        struct Entry(f64, usize);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                // Min-heap on distance.
                other
                    .0
                    .partial_cmp(&self.0)
                    .expect("distances are never NaN")
                    .then(other.1.cmp(&self.1))
            }
        }

        dist.clear();
        dist.resize(self.n, f64::INFINITY);
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(Entry(0.0, src.index()));
        while let Some(Entry(d, u)) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &(v, w) in &self.adj[u] {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Entry(nd, v));
                }
            }
        }
    }

    /// All-pairs shortest distances.
    #[must_use]
    pub fn all_pairs(&self) -> DistanceMatrix {
        let mut dist = Vec::with_capacity(self.n * self.n);
        for u in 0..self.n {
            dist.extend(self.distances_from(NodeId::from(u)));
        }
        DistanceMatrix { n: self.n, dist }
    }
}

/// The hop structure of a [`WeightedGraph`], or of an edge list, in CSR
/// form (one offsets array, one targets array) for sweeps that run a BFS
/// from many sources over one fixed graph: the oracle's gradient sweep
/// rebuilds it from the strong edges once per snapshot and shares it
/// read-only between its workers.
#[derive(Debug, Clone, Default)]
pub struct HopGraph {
    // Neighbours of `u` are `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

/// Per-worker BFS scratch for [`HopGraph::for_each_reached`], reusable
/// across sources and graphs. Visited marks are epoch stamps, so starting
/// a new source is O(1) instead of an `n`-long refill.
#[derive(Debug, Clone, Default)]
pub struct HopScratch {
    // `stamp[v] == epoch` iff `v` was reached from the current source.
    stamp: Vec<u32>,
    epoch: u32,
    queue: Vec<u32>,
}

impl HopGraph {
    /// Replaces the contents with the adjacency of `g` (neighbour order
    /// preserved), keeping the allocations.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than `u32::MAX` directed edges.
    pub fn rebuild(&mut self, g: &WeightedGraph) {
        self.offsets.clear();
        self.targets.clear();
        self.offsets.push(0);
        for nbrs in &g.adj {
            self.targets.extend(nbrs.iter().map(|&(v, _)| v as u32));
            let end = u32::try_from(self.targets.len()).expect("directed edge count fits u32");
            self.offsets.push(end);
        }
    }

    /// Replaces the contents with the `n`-node graph of the undirected
    /// `edges`, keeping the allocations and building no per-node vector:
    /// a counting pass sizes each row, and a fill pass writes every edge
    /// into both its rows. Neighbour order is the one
    /// [`WeightedGraph::add_edge`] gives when fed the same edges in the
    /// same order, so the result equals [`rebuild`](Self::rebuild) of that
    /// graph.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or there are more than
    /// `u32::MAX` directed edges.
    pub fn rebuild_from_edges(&mut self, n: usize, edges: impl Iterator<Item = EdgeKey> + Clone) {
        // `offsets[u + 1]` first counts `u`'s degree; the running sum then
        // makes `offsets[u]` where `u`'s row starts, and the fill advances
        // it to where the row ends — row `u + 1`'s start — so shifting the
        // array by one slot restores the starts.
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for e in edges.clone() {
            self.offsets[e.lo().index() + 1] += 1;
            self.offsets[e.hi().index() + 1] += 1;
        }
        let mut total = 0u32;
        for start in &mut self.offsets {
            total = total
                .checked_add(*start)
                .expect("directed edge count fits u32");
            *start = total;
        }
        self.targets.clear();
        self.targets.resize(total as usize, 0);
        for e in edges {
            let (a, b) = (e.lo().index(), e.hi().index());
            self.targets[self.offsets[a] as usize] = b as u32;
            self.offsets[a] += 1;
            self.targets[self.offsets[b] as usize] = a as u32;
            self.offsets[b] += 1;
        }
        self.offsets.copy_within(..n, 1);
        self.offsets[0] = 0;
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbours of `u`, in insertion order.
    fn neighbours(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The walk order of a graph that is one simple path or one simple
    /// cycle: fills `order` with every node, each once, so that walk
    /// neighbours are graph neighbours, and returns whether the walk is
    /// closed (a cycle). A path starts at its lower-indexed end, a cycle
    /// at node 0. On such a graph the hop distance between walk positions
    /// `p` and `q` is `|p − q|` on a path and `min(|p − q|, n − |p − q|)`
    /// on a cycle, so no BFS is needed to find a hop class.
    ///
    /// Returns `None` (leaving `order` unspecified) when some degree is
    /// above 2, some node is isolated, the graph has more than one
    /// component, or `n < 2`. One `O(n)` pass.
    pub fn walk_order(&self, order: &mut Vec<u32>) -> Option<bool> {
        let n = self.node_count();
        order.clear();
        if n < 2 {
            return None;
        }
        let (mut ends, mut start) = (0, 0);
        for u in 0..n {
            match self.neighbours(u).len() {
                1 => {
                    if ends == 0 {
                        start = u;
                    }
                    ends += 1;
                }
                2 => {}
                _ => return None,
            }
        }
        if ends != 0 && ends != 2 {
            return None;
        }
        // Each step leaves by the neighbour it did not arrive from, so a
        // walk of degree-≤2 nodes needs no visited marks.
        let (mut prev, mut cur) = (u32::MAX, start as u32);
        let closed = loop {
            order.push(cur);
            match self.neighbours(cur as usize).iter().find(|&&v| v != prev) {
                None => break false,
                Some(&v) if v as usize == start => break true,
                Some(_) if order.len() == n => return None,
                Some(&v) => (prev, cur) = (cur, v),
            }
        };
        // A closed walk must come from an endless graph and vice versa (a
        // doubled edge is the one way this fails), and it must cover all.
        (closed == (ends == 0) && order.len() == n).then_some(closed)
    }

    /// Breadth-first search from `src`: calls `visit(v, d)` once for every
    /// node `v ≠ src` reachable from it, with its hop distance `d ≥ 1`, in
    /// non-decreasing order of `d`. Agrees with
    /// [`WeightedGraph::hop_distances_into`] on every reached node;
    /// unreachable nodes are simply never visited.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn for_each_reached(
        &self,
        src: NodeId,
        scratch: &mut HopScratch,
        mut visit: impl FnMut(usize, u32),
    ) {
        let epoch = scratch.next_epoch(self.node_count());
        let HopScratch { stamp, queue, .. } = scratch;
        queue.clear();
        stamp[src.index()] = epoch;
        queue.push(src.index() as u32);
        // Level-synchronous: `queue[head..level_end]` is hop class `d − 1`
        // and everything it pushes is class `d`, so no per-node distance
        // is stored.
        let (mut head, mut d) = (0, 0);
        while head < queue.len() {
            let level_end = queue.len();
            d += 1;
            while head < level_end {
                let u = queue[head] as usize;
                head += 1;
                for &v in self.neighbours(u) {
                    let seen = &mut stamp[v as usize];
                    if *seen != epoch {
                        *seen = epoch;
                        queue.push(v);
                        visit(v as usize, d);
                    }
                }
            }
        }
    }
}

impl HopScratch {
    /// Sizes the stamps for an `n`-node graph and returns a stamp value no
    /// entry currently holds.
    fn next_epoch(&mut self, n: usize) -> u32 {
        if self.stamp.len() != n || self.epoch == u32::MAX {
            // Resized, or every u32 has been used: the one time stale
            // stamps could alias a fresh epoch, so pay the O(n) clear.
            self.stamp.clear();
            self.stamp.resize(n, 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The level-`s` graph `E_s(t)` of a running simulation, weighted by the
/// *effective* `κ` (which, under the decaying-weight insertion strategy,
/// may still be inflated for fresh edges).
#[must_use]
pub fn level_graph(sim: &Simulation, s: u32) -> WeightedGraph {
    let mut g = WeightedGraph::new(sim.node_count());
    for e in sim.level_edges(s) {
        let kappa = sim
            .effective_kappa(e)
            .expect("level edge present at both endpoints");
        g.add_edge(e, kappa);
    }
    g
}

/// The current fully-inserted graph (`E_s` for `s → ∞`), weighted by `κ` —
/// the graph `G_∞(t)` of Corollary 5.26.
#[must_use]
pub fn full_level_graph(sim: &Simulation) -> WeightedGraph {
    level_graph(sim, u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> WeightedGraph {
        // 0 -1- 1 -1- 3, 0 -3- 2 -3- 3
        let mut g = WeightedGraph::new(4);
        g.add_edge(EdgeKey::new(NodeId(0), NodeId(1)), 1.0);
        g.add_edge(EdgeKey::new(NodeId(1), NodeId(3)), 1.0);
        g.add_edge(EdgeKey::new(NodeId(0), NodeId(2)), 3.0);
        g.add_edge(EdgeKey::new(NodeId(2), NodeId(3)), 3.0);
        g
    }

    #[test]
    fn dijkstra_picks_short_route() {
        let g = diamond();
        let d = g.distances_from(NodeId(0));
        assert_eq!(d[3], 2.0);
        assert_eq!(d[2], 3.0);
        assert_eq!(d[0], 0.0);
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let m = diamond().all_pairs();
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(m.get(NodeId(u), NodeId(v)), m.get(NodeId(v), NodeId(u)));
            }
        }
        assert_eq!(m.diameter(), Some(4.0)); // 2 -> 1 via 0? 2-0-1 = 4
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut g = WeightedGraph::new(3);
        g.add_edge(EdgeKey::new(NodeId(0), NodeId(1)), 1.0);
        let m = g.all_pairs();
        assert!(m.get(NodeId(0), NodeId(2)).is_infinite());
        assert_eq!(m.diameter(), None);
    }

    #[test]
    fn hop_bfs_survives_the_epoch_wrapping() {
        // The diamond plus an isolated node, swept from every source with
        // one scratch whose epoch counter is about to run out of u32s.
        let mut g = WeightedGraph::new(5);
        for (a, b) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            g.add_edge(EdgeKey::new(NodeId(a), NodeId(b)), 1.0);
        }
        let mut csr = HopGraph::default();
        csr.rebuild(&g);
        assert_eq!((csr.node_count(), csr.edge_count()), (5, 4));
        let mut scratch = HopScratch::default();
        csr.for_each_reached(NodeId(0), &mut scratch, |_, _| {});
        scratch.epoch = u32::MAX - 3;
        let (mut reference, mut queue) = (Vec::new(), Vec::new());
        for round in 0..8u32 {
            let src = NodeId(round % 5);
            g.hop_distances_into(src, &mut reference, &mut queue);
            let mut ours = vec![f64::INFINITY; 5];
            ours[src.index()] = 0.0;
            let mut last = 0;
            csr.for_each_reached(src, &mut scratch, |v, d| {
                assert!(ours[v].is_infinite(), "node {v} visited twice");
                assert!(d >= last, "hop classes arrive in order");
                last = d;
                ours[v] = f64::from(d);
            });
            assert_eq!(ours, reference, "round {round}");
        }
        assert!(scratch.epoch < 8, "the counter wrapped during the rounds");
    }

    #[test]
    fn csr_from_the_edge_list_equals_the_rebuilt_weighted_graph() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut from_edges, mut rebuilt) = (HopGraph::default(), HopGraph::default());
        let (mut order, mut want_order) = (Vec::new(), Vec::new());
        let mut walks = 0;
        for round in 0..300 {
            let n = round % 14;
            let mut edges = Vec::new();
            match round % 3 {
                // Random, in no particular order, repeats allowed.
                0 if n >= 2 => {
                    for _ in 0..next(2 * n) {
                        let (a, b) = (next(n), next(n));
                        if a != b {
                            edges.push(EdgeKey::new(NodeId::from(a), NodeId::from(b)));
                        }
                    }
                }
                // A path or a cycle over shuffled labels, sorted as the
                // oracle's strong list is.
                1 | 2 if n >= 3 => {
                    let mut walk: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        walk.swap(i, next(i + 1));
                    }
                    let links = if round % 3 == 2 { n } else { n - 1 };
                    for p in 0..links {
                        let (a, b) = (walk[p], walk[(p + 1) % n]);
                        edges.push(EdgeKey::new(NodeId::from(a), NodeId::from(b)));
                    }
                    edges.sort();
                }
                _ => {}
            }
            let mut g = WeightedGraph::new(n);
            for &e in &edges {
                g.add_edge(e, 1.0);
            }
            rebuilt.rebuild(&g);
            from_edges.rebuild_from_edges(n, edges.iter().copied());
            assert_eq!(from_edges.node_count(), n, "round {round}");
            for u in 0..n {
                assert_eq!(
                    from_edges.neighbours(u),
                    rebuilt.neighbours(u),
                    "round {round}, node {u}: {edges:?}"
                );
            }
            let walk = from_edges.walk_order(&mut order);
            assert_eq!(walk, rebuilt.walk_order(&mut want_order), "round {round}");
            if walk.is_some() {
                assert_eq!(order, want_order, "round {round}");
                walks += 1;
            }
        }
        assert!(walks > 100, "only {walks} rounds were paths or cycles");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_weight() {
        let mut g = WeightedGraph::new(2);
        g.add_edge(EdgeKey::new(NodeId(0), NodeId(1)), 0.0);
    }
}
