//! Property tests for the graph substrate: cross-checked shortest paths,
//! mask/view consistency, component invariants, and net coverage.

use proptest::prelude::*;

use psep_graph::components::{components, largest_component_after_removal};
use psep_graph::dijkstra::{dijkstra, path_cost, DijkstraScratch};
use psep_graph::generators::{special, trees};
use psep_graph::graph::{Graph, NodeId, Weight, INFINITY};
use psep_graph::view::{GraphRef, NodeMask, SubgraphView};

/// Bellman–Ford distances from `source`: iterated edge relaxation, an
/// `O(n · m)` reference that shares no code with Dijkstra.
fn bellman_ford(g: &Graph, source: NodeId) -> Vec<Weight> {
    let mut dist = vec![INFINITY; g.num_nodes()];
    dist[source.index()] = 0;
    // non-negative weights reach the fixpoint within n - 1 rounds
    for _ in 0..g.num_nodes() {
        let mut changed = false;
        for u in g.nodes() {
            let du = dist[u.index()];
            if du == INFINITY {
                continue;
            }
            for e in g.neighbors(u) {
                let nd = du + e.weight;
                if nd < dist[e.to.index()] {
                    dist[e.to.index()] = nd;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Strategy: a connected random graph built from a random tree plus
/// extra random edges, with weights in 1..=16.
fn connected_graph() -> impl Strategy<Value = Graph> {
    (2usize..40, 0usize..40, any::<u64>()).prop_map(|(n, extra, seed)| {
        let mut g = trees::random_weighted_tree(n, 16, seed);
        let mut rng_state = seed;
        let mut next = || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng_state
        };
        for _ in 0..extra {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
            let w = (next() % 16 + 1) as Weight;
            let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v, w);
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra and Bellman–Ford agree on every vertex from every source.
    #[test]
    fn dijkstra_matches_bellman_ford(g in connected_graph()) {
        let src = NodeId(0);
        let dj = dijkstra(&g, &[src]);
        let bf = bellman_ford(&g, src);
        for v in g.nodes() {
            prop_assert_eq!(dj.dist_raw()[v.index()], bf[v.index()]);
        }
    }

    /// Extracted shortest paths have cost equal to the reported distance
    /// and consist of real edges.
    #[test]
    fn dijkstra_paths_realize_distances(g in connected_graph()) {
        let src = NodeId(0);
        let sp = dijkstra(&g, &[src]);
        for v in g.nodes() {
            let p = sp.path_to(v).expect("connected");
            prop_assert_eq!(p.first().copied(), Some(src));
            prop_assert_eq!(p.last().copied(), Some(v));
            prop_assert_eq!(path_cost(&g, &p), sp.dist(v));
        }
    }

    /// A targeted run settles its target with exactly the distance and
    /// parent chain a full Dijkstra over the same masked view computes,
    /// and a limit below the true distance never reproduces it. One
    /// scratch serves every run, so stale state would show.
    #[test]
    fn targeted_run_matches_full_dijkstra(
        g in connected_graph(),
        dead in proptest::collection::vec(0u8..4, 40),
        ps in any::<u64>(),
        pt in any::<u64>(),
    ) {
        let n = g.num_nodes();
        let mut mask = NodeMask::all(n);
        for v in g.nodes().filter(|v| dead[v.index()] == 0) {
            mask.remove(v);
        }
        let alive: Vec<NodeId> = g.nodes().filter(|&v| mask.contains(v)).collect();
        prop_assume!(!alive.is_empty());
        let s = alive[(ps % alive.len() as u64) as usize];
        let t = alive[(pt % alive.len() as u64) as usize];
        let view = SubgraphView::new(&g, &mask);
        let full = dijkstra(&view, &[s]);
        let mut scratch = DijkstraScratch::new(n);
        let truth = full.dist(t);
        for limit in [INFINITY, truth.unwrap_or(INFINITY)] {
            scratch.run(&g, &[t]); // leave unrelated state behind
            scratch.run_to(&view, s, t, limit);
            prop_assert_eq!(scratch.dist(t), truth);
            if truth.is_some() {
                let mut chain = vec![t];
                while let Some(p) = scratch.parent(*chain.last().unwrap()) {
                    chain.push(p);
                }
                chain.reverse();
                prop_assert_eq!(Some(chain), full.path_to(t));
            }
        }
        if let Some(d) = truth.filter(|&d| d > 0) {
            scratch.run_to(&view, s, t, d - 1);
            prop_assert_eq!(scratch.dist(t), None);
        }
    }

    /// Triangle inequality holds for the shortest-path metric.
    #[test]
    fn triangle_inequality(g in connected_graph()) {
        let n = g.num_nodes();
        let d0 = dijkstra(&g, &[NodeId(0)]);
        let dm = dijkstra(&g, &[NodeId::from_index(n / 2)]);
        for v in g.nodes() {
            let lhs = d0.dist(v).unwrap();
            let via = d0.dist(NodeId::from_index(n / 2)).unwrap()
                + dm.dist(v).unwrap();
            prop_assert!(lhs <= via);
        }
    }

    /// Distances never decrease when restricting to a subgraph view.
    #[test]
    fn subgraph_distances_dominate(g in connected_graph(), kill in any::<u64>()) {
        let n = g.num_nodes();
        let victim = NodeId::from_index(1 + (kill as usize) % (n - 1));
        let mut mask = NodeMask::all(n);
        mask.remove(victim);
        let view = SubgraphView::new(&g, &mask);
        let full = dijkstra(&g, &[NodeId(0)]);
        let sub = dijkstra(&view, &[NodeId(0)]);
        for v in view.node_iter() {
            if let Some(ds) = sub.dist(v) {
                prop_assert!(ds >= full.dist(v).unwrap());
            }
        }
    }

    /// Components partition the alive vertex set.
    #[test]
    fn components_partition(g in connected_graph(), kill in any::<u64>()) {
        let n = g.num_nodes();
        let victim = NodeId::from_index((kill as usize) % n);
        let mut mask = NodeMask::all(n);
        mask.remove(victim);
        let view = SubgraphView::new(&g, &mask);
        let comps = components(&view);
        let total: usize = comps.iter().map(|c| c.len()).sum();
        prop_assert_eq!(total, n - 1);
        let mut seen = vec![false; n];
        for c in &comps {
            for v in c {
                prop_assert!(!seen[v.index()], "vertex in two components");
                seen[v.index()] = true;
            }
        }
        let biggest = comps.iter().map(|c| c.len()).max().unwrap_or(0);
        prop_assert_eq!(
            biggest,
            largest_component_after_removal(&g, &[victim])
        );
    }

    /// Hypercube distances equal Hamming distances.
    #[test]
    fn hypercube_metric_is_hamming(d in 1usize..6, v in any::<u64>()) {
        let g = special::hypercube(d);
        let n = 1usize << d;
        let v = (v as usize) % n;
        let sp = dijkstra(&g, &[NodeId(0)]);
        prop_assert_eq!(
            sp.dist(NodeId::from_index(v)),
            Some((v.count_ones()) as Weight)
        );
    }
}
