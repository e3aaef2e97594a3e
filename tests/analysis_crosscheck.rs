//! Cross-validation of the analysis layer against independent
//! brute-force implementations: the Dijkstra-based all-pairs distances
//! against Floyd–Warshall, the potential computation against explicit
//! simple-path enumeration, and the oracle's CSR hop kernel and its
//! walk-order reading of paths and cycles against the plain BFS.

use proptest::prelude::*;

use gradient_clock_sync::analysis::paths::{HopGraph, HopScratch, WeightedGraph};
use gradient_clock_sync::analysis::potentials::potentials_from;
use gradient_clock_sync::net::{EdgeKey, NodeId};

/// A random connected weighted graph on `n` nodes: a random spanning chain
/// plus extra random edges.
fn arb_graph(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3..=max_n).prop_flat_map(|n| {
        let chain = (0..n - 1)
            .map(|i| (Just(i), Just(i + 1), 0.1f64..5.0))
            .collect::<Vec<_>>();
        let extras = proptest::collection::vec(
            (0..n, 0..n, 0.1f64..5.0).prop_filter("no self-loops", |(a, b, _)| a != b),
            0..2 * n,
        );
        (chain, extras).prop_map(move |(chain, extras)| {
            let mut edges: Vec<(usize, usize, f64)> = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            for (a, b, w) in chain.into_iter().chain(extras) {
                let key = (a.min(b), a.max(b));
                if seen.insert(key) {
                    edges.push((key.0, key.1, w));
                }
            }
            (n, edges)
        })
    })
}

/// A path or a cycle (`closed`, when `n ≥ 3`) on `n` nodes whose walk
/// visits the nodes in a random order: `(n, closed, walk)`.
fn arb_chain(max_n: usize) -> impl Strategy<Value = (usize, bool, Vec<usize>)> {
    (
        2..=max_n,
        any::<bool>(),
        proptest::collection::vec(0u32..1_000_000, max_n),
    )
        .prop_map(|(n, closed, keys)| {
            let mut walk: Vec<usize> = (0..n).collect();
            walk.sort_by_key(|&u| (keys[u], u));
            (n, closed && n >= 3, walk)
        })
}

fn build(n: usize, edges: &[(usize, usize, f64)]) -> WeightedGraph {
    let mut g = WeightedGraph::new(n);
    for &(a, b, w) in edges {
        g.add_edge(EdgeKey::new(NodeId::from(a), NodeId::from(b)), w);
    }
    g
}

/// Reference implementation: Floyd–Warshall.
fn floyd_warshall(n: usize, edges: &[(usize, usize, f64)]) -> Vec<f64> {
    let mut d = vec![f64::INFINITY; n * n];
    for v in 0..n {
        d[v * n + v] = 0.0;
    }
    for &(a, b, w) in edges {
        d[a * n + b] = d[a * n + b].min(w);
        d[b * n + a] = d[b * n + a].min(w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i * n + k] + d[k * n + j];
                if via < d[i * n + j] {
                    d[i * n + j] = via;
                }
            }
        }
    }
    d
}

/// Reference implementation: enumerate all simple paths from `start` and
/// return the max of `score(endpoint, path_weight)`.
fn brute_force_paths(
    n: usize,
    edges: &[(usize, usize, f64)],
    start: usize,
    score: &dyn Fn(usize, f64) -> f64,
) -> f64 {
    let mut adj = vec![Vec::new(); n];
    for &(a, b, w) in edges {
        adj[a].push((b, w));
        adj[b].push((a, w));
    }
    let mut best = score(start, 0.0); // trivial path
    let mut visited = vec![false; n];
    visited[start] = true;
    fn dfs(
        u: usize,
        weight: f64,
        adj: &[Vec<(usize, f64)>],
        visited: &mut Vec<bool>,
        score: &dyn Fn(usize, f64) -> f64,
        best: &mut f64,
    ) {
        for &(v, w) in &adj[u] {
            if !visited[v] {
                visited[v] = true;
                let total = weight + w;
                *best = best.max(score(v, total));
                dfs(v, total, adj, visited, score, best);
                visited[v] = false;
            }
        }
    }
    dfs(start, 0.0, &adj, &mut visited, score, &mut best);
    best
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn dijkstra_matches_floyd_warshall((n, edges) in arb_graph(10)) {
        let g = build(n, &edges);
        let ours = g.all_pairs();
        let reference = floyd_warshall(n, &edges);
        for i in 0..n {
            for j in 0..n {
                let a = ours.get(NodeId::from(i), NodeId::from(j));
                let b = reference[i * n + j];
                prop_assert!((a - b).abs() < 1e-9, "({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn potentials_match_brute_force(
        (n, edges) in arb_graph(7),
        clocks in proptest::collection::vec(-10.0f64..10.0, 7),
        s in 1u32..5,
    ) {
        let clocks = &clocks[..n.min(clocks.len())];
        prop_assume!(clocks.len() == n);
        let g = build(n, &edges);
        let dist = g.all_pairs();
        let pots = potentials_from(clocks, &dist, s);
        for u in 0..n {
            // Definitions 5.11 / 5.12 computed by explicit simple-path
            // enumeration. The shortest-path reduction is only valid as a
            // *maximum* over paths (longer paths only lower the score), so
            // brute force must agree exactly.
            let xi_ref = brute_force_paths(n, &edges, u, &|v, w| {
                clocks[u] - clocks[v] - f64::from(s) * w
            });
            let psi_ref = brute_force_paths(n, &edges, u, &|v, w| {
                clocks[v] - clocks[u] - (f64::from(s) + 0.5) * w
            });
            prop_assert!((pots.xi[u] - xi_ref.max(0.0)).abs() < 1e-9,
                "xi[{u}]: {} vs {}", pots.xi[u], xi_ref);
            prop_assert!((pots.psi[u] - psi_ref.max(0.0)).abs() < 1e-9,
                "psi[{u}]: {} vs {}", pots.psi[u], psi_ref);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn hop_kernel_matches_plain_bfs((n, edges) in arb_graph(10)) {
        // Three more nodes than the connected part: a second component
        // (one edge) and an isolated node, so some targets are unreachable
        // from every source.
        let mut edges = edges;
        edges.push((n, n + 1, 1.0));
        let n = n + 3;
        let g = build(n, &edges);
        let mut csr = HopGraph::default();
        csr.rebuild(&g);
        let (mut hops, mut queue) = (Vec::new(), Vec::new());
        let reference: Vec<Vec<f64>> = (0..n)
            .map(|u| {
                g.hop_distances_into(NodeId::from(u), &mut hops, &mut queue);
                hops.clone()
            })
            .collect();
        // One scratch for more sweeps than a 16-bit visited stamp could
        // tell apart: no sweep may see marks an earlier one left behind.
        let mut scratch = HopScratch::default();
        let mut ours = Vec::new();
        for sweep in 0..(1usize << 16) + 2 * n {
            let u = sweep % n;
            ours.clear();
            ours.resize(n, f64::INFINITY);
            ours[u] = 0.0;
            csr.for_each_reached(NodeId::from(u), &mut scratch, |v, d| {
                assert!(ours[v].is_infinite(), "sweep {sweep}: node {v} visited twice");
                ours[v] = f64::from(d);
            });
            prop_assert_eq!(&ours, &reference[u], "sweep {} from {}", sweep, u);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn walk_order_hop_distance_matches_plain_bfs((n, closed, walk) in arb_chain(12)) {
        let links = if closed { n } else { n - 1 };
        let edges: Vec<_> = (0..links).map(|p| (walk[p], walk[(p + 1) % n], 1.0)).collect();
        let g = build(n, &edges);
        let mut csr = HopGraph::default();
        csr.rebuild(&g);
        let mut order = Vec::new();
        prop_assert_eq!(csr.walk_order(&mut order), Some(closed));
        let mut pos = vec![0; n];
        for (p, &u) in order.iter().enumerate() {
            pos[u as usize] = p;
        }
        let (mut hops, mut queue) = (Vec::new(), Vec::new());
        for u in 0..n {
            g.hop_distances_into(NodeId::from(u), &mut hops, &mut queue);
            for v in 0..n {
                let gap = pos[u].abs_diff(pos[v]);
                let d = if closed { gap.min(n - gap) } else { gap };
                prop_assert_eq!(hops[v], d as f64, "{} -> {} on {:?}", u, v, walk);
            }
        }
    }

    #[test]
    fn walk_order_refuses_a_degree_above_two((n, edges) in arb_graph(10)) {
        let g = build(n, &edges);
        let mut csr = HopGraph::default();
        csr.rebuild(&g);
        let mut degree = vec![0; n];
        for &(a, b, _) in &edges {
            degree[a] += 1;
            degree[b] += 1;
        }
        let found = csr.walk_order(&mut Vec::new());
        if degree.iter().any(|&d| d > 2) {
            prop_assert_eq!(found, None);
        } else {
            // The spanning chain alone, or closed by its one extra edge.
            prop_assert_eq!(found, Some(edges.len() == n));
        }
    }
}
