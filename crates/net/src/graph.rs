//! The directed dynamic estimate graph.
//!
//! Following §3.1, the network is a fixed node set `V` and a time-varying set
//! of *directed* estimate edges `E(t)`. `(u, v) ∈ E(t)` means that at time
//! `t`, node `u` has a means of obtaining estimates of `v`'s logical clock
//! (`v ∈ N_u(t)` in the paper's notation). The two directions of an
//! undirected estimate edge `{u, v}` are managed independently because nodes
//! may detect link formation/failure up to `τ_{u,v}` apart.
//!
//! Besides current presence, the graph records since when each directed edge
//! has been *continuously* present; the algorithm's handshake (Listing 1) and
//! the transport delivery rule both need exactly this continuity query.

use std::fmt;

use gcs_sim::SimTime;

/// Identifier of a node: a dense index in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's index, for indexing into per-node arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An *undirected* edge identity `{u, v}` with `u < v`.
///
/// Edge-level parameters (`ε`, `τ`, delays, weights `κ`) are attached to the
/// undirected edge; presence is per direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeKey {
    a: NodeId,
    b: NodeId,
}

impl EdgeKey {
    /// Creates the canonical key for the pair, normalizing order.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops carry no information).
    #[must_use]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loop edge {u}");
        if u < v {
            EdgeKey { a: u, b: v }
        } else {
            EdgeKey { a: v, b: u }
        }
    }

    /// The lower-indexed endpoint.
    #[must_use]
    pub fn lo(self) -> NodeId {
        self.a
    }

    /// The higher-indexed endpoint.
    #[must_use]
    pub fn hi(self) -> NodeId {
        self.b
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not an endpoint of this edge.
    #[must_use]
    pub fn other(self, u: NodeId) -> NodeId {
        if u == self.a {
            self.b
        } else if u == self.b {
            self.a
        } else {
            panic!("{u} is not an endpoint of {self}")
        }
    }

    /// Both endpoints, lower first.
    #[must_use]
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }
}

impl fmt::Display for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.a, self.b)
    }
}

/// The directed dynamic graph `G = (V, E(t))` with continuity tracking.
///
/// # Example
///
/// ```
/// use gcs_net::{DynamicGraph, NodeId};
/// use gcs_sim::SimTime;
///
/// let mut g = DynamicGraph::new(3);
/// let (u, v) = (NodeId(0), NodeId(1));
/// g.insert_directed(u, v, SimTime::from_secs(1.0));
/// assert!(g.contains(u, v));
/// assert!(!g.contains(v, u));
/// assert_eq!(g.up_since(u, v), Some(SimTime::from_secs(1.0)));
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// `adj[u]` maps neighbour `v` to the time `(u, v)` last became present.
    /// Each row is sorted by neighbour id — a flat sorted vector rather than
    /// a tree, because presence checks sit on the per-message hot path and
    /// degrees are small.
    adj: Vec<Vec<(NodeId, SimTime)>>,
}

impl DynamicGraph {
    /// Creates an empty graph on `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Position of `v` in `u`'s sorted row, or the insertion point.
    fn find(&self, u: NodeId, v: NodeId) -> Result<usize, usize> {
        self.adj[u.index()].binary_search_by_key(&v, |&(w, _)| w)
    }

    /// Inserts the directed edge `(u, v)` at time `t`. Idempotent: if the
    /// edge is already present its `up_since` time is *not* reset.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or `u == v`.
    pub fn insert_directed(&mut self, u: NodeId, v: NodeId, t: SimTime) {
        assert_ne!(u, v, "self-loop at {u}");
        assert!(v.index() < self.adj.len(), "unknown node {v}");
        if let Err(pos) = self.find(u, v) {
            self.adj[u.index()].insert(pos, (v, t));
        }
    }

    /// Removes the directed edge `(u, v)`. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn remove_directed(&mut self, u: NodeId, v: NodeId) {
        if let Ok(pos) = self.find(u, v) {
            self.adj[u.index()].remove(pos);
        }
    }

    /// Whether `(u, v) ∈ E(t)` right now, i.e. `v ∈ N_u(t)`.
    #[must_use]
    pub fn contains(&self, u: NodeId, v: NodeId) -> bool {
        self.find(u, v).is_ok()
    }

    /// Whether both directions of `{u, v}` are present (the paper's
    /// `{u, v} ∈ E(t)`).
    #[must_use]
    pub fn contains_undirected(&self, e: EdgeKey) -> bool {
        self.contains(e.lo(), e.hi()) && self.contains(e.hi(), e.lo())
    }

    /// The time since which `(u, v)` has been continuously present, if it is
    /// present now.
    #[must_use]
    pub fn up_since(&self, u: NodeId, v: NodeId) -> Option<SimTime> {
        self.find(u, v).ok().map(|pos| self.adj[u.index()][pos].1)
    }

    /// Whether `(u, v)` has been continuously present throughout `[t0, now]`.
    #[must_use]
    pub fn continuously_present_since(&self, u: NodeId, v: NodeId, t0: SimTime) -> bool {
        matches!(self.up_since(u, v), Some(up) if up <= t0)
    }

    /// Iterates over `N_u(t)` in ascending node order (deterministic).
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adj[u.index()].iter().map(|&(v, _)| v)
    }

    /// Out-degree of `u`.
    #[must_use]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Iterates over all directed edges `(u, v)` in deterministic order.
    pub fn directed_edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, m)| m.iter().map(move |&(v, _)| (NodeId::from(u), v)))
    }

    /// Iterates over the undirected edges present in *both* directions, each
    /// reported once, in deterministic order.
    pub fn undirected_edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.directed_edges()
            .filter(move |&(u, v)| u < v && self.contains(v, u))
            .map(|(u, v)| EdgeKey::new(u, v))
    }

    /// Whether the *undirected support* (edges present in at least one
    /// direction) connects all nodes. Used by schedule validators: the paper
    /// requires global connectivity over time for a bounded global skew.
    #[must_use]
    pub fn is_support_connected(&self) -> bool {
        support_connected(self.node_count(), self.directed_edges())
    }
}

/// Whether the directed pairs `edges` connect all `n` nodes when each
/// joins its two endpoints, whatever its direction: the undirected
/// support's connectivity, for [`DynamicGraph::is_support_connected`] and
/// for any other table of directed edges (the engine's neighbour tables).
///
/// Union-find, O(m·α(n)) with one n-long array: materializing the support
/// adjacency would cost one vector per node at 10⁵-node scale.
///
/// # Panics
///
/// Panics if an endpoint is out of range.
#[must_use]
pub fn support_connected(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> bool {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    let mut components = n;
    for (u, v) in edges {
        let (a, b) = (
            find_root(&mut parent, u.index()),
            find_root(&mut parent, v.index()),
        );
        if a != b {
            // Hang the higher root under the lower: roots are never
            // re-parented upwards, so no cycle can form.
            parent[a.max(b)] = a.min(b) as u32;
            components -= 1;
            if components == 1 {
                return true;
            }
        }
    }
    components <= 1
}

/// The root of `x`'s set, halving the path to it on the way.
fn find_root(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        let grand = parent[parent[x] as usize];
        parent[x] = grand;
        x = grand as usize;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn edge_key_normalizes() {
        let e = EdgeKey::new(NodeId(5), NodeId(2));
        assert_eq!(e.lo(), NodeId(2));
        assert_eq!(e.hi(), NodeId(5));
        assert_eq!(e, EdgeKey::new(NodeId(2), NodeId(5)));
        assert_eq!(e.other(NodeId(2)), NodeId(5));
        assert_eq!(e.other(NodeId(5)), NodeId(2));
        assert_eq!(e.endpoints(), (NodeId(2), NodeId(5)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_key_rejects_self_loop() {
        let _ = EdgeKey::new(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_rejects_non_endpoint() {
        let _ = EdgeKey::new(NodeId(0), NodeId(1)).other(NodeId(2));
    }

    #[test]
    fn directed_presence_is_asymmetric() {
        let mut g = DynamicGraph::new(2);
        g.insert_directed(NodeId(0), NodeId(1), t(1.0));
        assert!(g.contains(NodeId(0), NodeId(1)));
        assert!(!g.contains(NodeId(1), NodeId(0)));
        assert!(!g.contains_undirected(EdgeKey::new(NodeId(0), NodeId(1))));
        g.insert_directed(NodeId(1), NodeId(0), t(2.0));
        assert!(g.contains_undirected(EdgeKey::new(NodeId(0), NodeId(1))));
    }

    #[test]
    fn up_since_not_reset_by_reinsert() {
        let mut g = DynamicGraph::new(2);
        g.insert_directed(NodeId(0), NodeId(1), t(1.0));
        g.insert_directed(NodeId(0), NodeId(1), t(5.0));
        assert_eq!(g.up_since(NodeId(0), NodeId(1)), Some(t(1.0)));
        assert!(g.continuously_present_since(NodeId(0), NodeId(1), t(2.0)));
        assert!(!g.continuously_present_since(NodeId(0), NodeId(1), t(0.5)));
    }

    #[test]
    fn removal_clears_continuity() {
        let mut g = DynamicGraph::new(2);
        g.insert_directed(NodeId(0), NodeId(1), t(1.0));
        g.remove_directed(NodeId(0), NodeId(1));
        assert!(!g.contains(NodeId(0), NodeId(1)));
        assert_eq!(g.up_since(NodeId(0), NodeId(1)), None);
        g.insert_directed(NodeId(0), NodeId(1), t(9.0));
        assert_eq!(g.up_since(NodeId(0), NodeId(1)), Some(t(9.0)));
    }

    #[test]
    fn neighbor_iteration_is_sorted() {
        let mut g = DynamicGraph::new(4);
        g.insert_directed(NodeId(0), NodeId(3), t(0.0));
        g.insert_directed(NodeId(0), NodeId(1), t(0.0));
        g.insert_directed(NodeId(0), NodeId(2), t(0.0));
        let ns: Vec<NodeId> = g.neighbors(NodeId(0)).collect();
        assert_eq!(ns, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(g.degree(NodeId(0)), 3);
    }

    #[test]
    fn undirected_edges_reported_once() {
        let mut g = DynamicGraph::new(3);
        g.insert_directed(NodeId(0), NodeId(1), t(0.0));
        g.insert_directed(NodeId(1), NodeId(0), t(0.0));
        g.insert_directed(NodeId(1), NodeId(2), t(0.0)); // one-way only
        let es: Vec<EdgeKey> = g.undirected_edges().collect();
        assert_eq!(es, vec![EdgeKey::new(NodeId(0), NodeId(1))]);
    }

    #[test]
    fn support_connectivity_uses_either_direction() {
        let mut g = DynamicGraph::new(3);
        g.insert_directed(NodeId(0), NodeId(1), t(0.0));
        g.insert_directed(NodeId(2), NodeId(1), t(0.0));
        assert!(g.is_support_connected());
        g.remove_directed(NodeId(2), NodeId(1));
        assert!(!g.is_support_connected());
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(DynamicGraph::new(0).is_support_connected());
        assert!(DynamicGraph::new(1).is_support_connected());
    }

    /// Whether the undirected support reaches every node, by a plain BFS
    /// over an adjacency matrix.
    fn reference_connected(g: &DynamicGraph) -> bool {
        let n = g.node_count();
        let linked = |a: usize, b: usize| {
            g.contains(NodeId::from(a), NodeId::from(b))
                || g.contains(NodeId::from(b), NodeId::from(a))
        };
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0];
        while let Some(u) = stack.pop() {
            for (v, seen) in seen.iter_mut().enumerate() {
                if !*seen && linked(u, v) {
                    *seen = true;
                    stack.push(v);
                }
            }
        }
        seen.iter().all(|&s| s)
    }

    #[test]
    fn support_connectivity_matches_a_reference_bfs() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let (mut connected, mut split) = (0, 0);
        for round in 0..400 {
            let n = round % 12;
            let mut g = DynamicGraph::new(n);
            // Sparse to dense: some rounds leave isolated nodes or two
            // components, and most edges point one way only.
            let edges = if n < 2 { 0 } else { next(2 * n + 1) };
            for _ in 0..edges {
                let (a, b) = (next(n), next(n));
                if a != b {
                    g.insert_directed(NodeId::from(a), NodeId::from(b), t(0.0));
                }
            }
            let want = reference_connected(&g);
            assert_eq!(g.is_support_connected(), want, "round {round}: {:?}", g.adj);
            if want {
                connected += 1;
            } else {
                split += 1;
            }
        }
        assert!(
            connected > 50 && split > 50,
            "{connected} connected, {split} split"
        );
    }

    #[test]
    fn two_components_joined_by_one_directed_edge() {
        // {0, 1, 2} and {3, 4}, each linked one way only, then bridged by
        // a single directed edge from the second into the first.
        let mut g = DynamicGraph::new(5);
        for (a, b) in [(1, 0), (2, 1), (3, 4)] {
            g.insert_directed(NodeId(a), NodeId(b), t(0.0));
        }
        assert!(!g.is_support_connected());
        g.insert_directed(NodeId(4), NodeId(2), t(0.0));
        assert!(g.is_support_connected());
        // An isolated sixth node splits it again.
        let mut h = DynamicGraph::new(6);
        for (a, b) in [(1, 0), (2, 1), (3, 4), (4, 2)] {
            h.insert_directed(NodeId(a), NodeId(b), t(0.0));
        }
        assert!(!h.is_support_connected());
    }
}
