//! Nested dissection from path-separator decompositions.
//!
//! A classic payoff of balanced separators: eliminating the vertices of
//! `G` children-first / separators-last (the reverse of the
//! decomposition) keeps fill-in low in sparse Cholesky-style
//! eliminations, and doubles as a tree-decomposition constructor. This
//! module derives that ordering from a [`DecompositionTree`] and
//! measures fill against the local min-degree heuristic — a concrete
//! demonstration that the paper's separators are useful beyond object
//! location.

use std::collections::HashSet;

use psep_graph::graph::{Graph, NodeId};

use crate::decomposition::DecompositionTree;

/// The nested-dissection elimination order of `tree`: vertices of deeper
/// nodes first, separator vertices of a node after all its descendants
/// (within a node, group order is respected: later groups eliminate
/// first, since earlier groups separate them).
pub fn nested_dissection_order(tree: &DecompositionTree) -> Vec<NodeId> {
    // sort node indices by depth descending; ties by index for
    // determinism. Children always have larger depth than parents.
    let mut nodes: Vec<usize> = (0..tree.nodes().len()).collect();
    nodes.sort_by_key(|&i| (std::cmp::Reverse(tree.node(i).depth), i));
    let mut order = Vec::new();
    let mut seen: HashSet<NodeId> = HashSet::new();
    for i in nodes {
        let sep = &tree.node(i).separator;
        for group in sep.groups.iter().rev() {
            for v in group.vertices() {
                if seen.insert(v) {
                    order.push(v);
                }
            }
        }
    }
    order
}

/// Number of fill edges created by eliminating `g` in `order`
/// (the sparse-factorization cost proxy).
pub fn fill_in(g: &Graph, order: &[NodeId]) -> usize {
    let n = g.num_nodes();
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    let mut adj: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
    for (u, v, _) in g.edge_list() {
        adj[u.index()].insert(v);
        adj[v.index()].insert(u);
    }
    let mut fill = 0usize;
    for &v in order {
        let nbrs: Vec<NodeId> = adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > pos[v.index()])
            .collect();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if adj[a.index()].insert(b) {
                    adj[b.index()].insert(a);
                    fill += 1;
                }
            }
        }
    }
    fill
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separator::Separator;
    use crate::strategy::{AutoStrategy, FundamentalCycleStrategy, TreeCenterStrategy};
    use psep_graph::generators::{grids, trees};
    use psep_treedec::elimination::decomposition_from_order;

    #[test]
    fn order_is_a_permutation() {
        let g = grids::grid2d(8, 8, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let order = nested_dissection_order(&tree);
        assert_eq!(order.len(), g.num_nodes());
        let set: HashSet<NodeId> = order.iter().copied().collect();
        assert_eq!(set.len(), g.num_nodes());
    }

    #[test]
    fn separators_eliminate_after_their_components() {
        let g = grids::grid2d(7, 7, 1);
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let order = nested_dissection_order(&tree);
        let mut pos = vec![0usize; g.num_nodes()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        // every vertex of a node's separator comes after every vertex
        // homed at any strict descendant node
        for (i, node) in tree.nodes().iter().enumerate() {
            for &c in &node.children {
                for &v in &tree.node(c).vertices {
                    if tree.home(v) == i {
                        continue;
                    }
                    for sv in node.separator.vertices() {
                        assert!(
                            pos[sv.index()] > pos[v.index()],
                            "separator vertex {sv:?} before descendant {v:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tree_fill_is_polylog_per_vertex() {
        // nested dissection is not a perfect elimination even on trees
        // (a vertex may see several pairwise non-adjacent ancestor
        // separators), but fill stays O(n·log²n); a leaves-first order
        // (what min-degree finds) is perfect with zero fill.
        let g = trees::random_tree(60, 2);
        let tree = DecompositionTree::build(&g, &TreeCenterStrategy);
        let order = nested_dissection_order(&tree);
        let f = fill_in(&g, &order);
        let bound = 60.0 * (60f64).log2().powi(2);
        assert!((f as f64) < bound, "fill {f} exceeds n·log²n");

        // min-degree (leaves-first) order is perfect on trees:
        let leaves_first: Vec<NodeId> = {
            let mut deg: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
            let mut alive = vec![true; g.num_nodes()];
            let mut order = Vec::new();
            for _ in 0..g.num_nodes() {
                let v = g
                    .nodes()
                    .filter(|v| alive[v.index()])
                    .min_by_key(|v| (deg[v.index()], v.index()))
                    .unwrap();
                alive[v.index()] = false;
                order.push(v);
                for e in g.edges(v) {
                    if alive[e.to.index()] {
                        deg[e.to.index()] -= 1;
                    }
                }
            }
            order
        };
        assert_eq!(fill_in(&g, &leaves_first), 0);
    }

    #[test]
    fn dissection_order_yields_valid_decomposition() {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let order = nested_dissection_order(&tree);
        let dec = decomposition_from_order(&g, &order);
        dec.validate(&g).unwrap();
    }

    #[test]
    fn grid_fill_is_moderate() {
        // nested dissection on a √n-separator family: fill O(n log n),
        // far from the worst-case O(n²)
        let g = grids::grid2d(10, 10, 1);
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let order = nested_dissection_order(&tree);
        let f = fill_in(&g, &order);
        assert!(f < 100 * 100 / 4, "fill {f} too large");
    }
}
