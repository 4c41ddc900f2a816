//! Fundamental-cycle separator search.
//!
//! A nontree edge `{u, v}` of a shortest-path tree `T` induces the
//! *fundamental cycle* `T(r,u) ∪ {u,v} ∪ T(r,v)`. On planar graphs some
//! fundamental cycle of a (triangulated) spanning tree is a balanced
//! separator (Lipton–Tarjan); with `T` a shortest-path tree the two root
//! paths are minimum-cost paths, giving Thorup's strong 3-path separator.
//!
//! [`root_path_separator`] searches candidate nontree edges directly and
//! greedily extends with additional root paths until the largest
//! remaining component is at most half — producing a set of root paths
//! that is small (≤ 3 on the planar families, measured by experiment E2)
//! and always a valid set of minimum-cost paths.

use psep_graph::graph::NodeId;
use psep_graph::view::GraphRef;

use crate::sptree::SpTree;

/// Tuning for the candidate search.
#[derive(Clone, Debug)]
pub struct CycleSearch {
    /// Maximum number of nontree-edge candidates to evaluate (evenly
    /// sampled from the candidate list). `usize::MAX` = exhaustive.
    pub max_candidates: usize,
    /// Stop the scan early at the first candidate reaching the balance
    /// target (largest component ≤ target).
    pub accept_first: bool,
    /// Maximum number of extra root paths to add greedily after the best
    /// cycle.
    pub max_extra_paths: usize,
}

impl Default for CycleSearch {
    fn default() -> Self {
        CycleSearch {
            max_candidates: 512,
            accept_first: true,
            max_extra_paths: 8,
        }
    }
}

/// Outcome of a fundamental-cycle evaluation.
#[derive(Clone, Debug)]
pub struct CycleCandidate {
    /// The nontree edge inducing the cycle.
    pub edge: (NodeId, NodeId),
    /// Size of the largest component of `g \ (T(r,u) ∪ T(r,v))`.
    pub largest_component: usize,
}

/// Finds the best fundamental cycle of `tree` over `g`: the nontree edge
/// whose two root paths, when removed, minimize the largest remaining
/// component (the first such edge in candidate order). Returns `None` if
/// `g` has no nontree edge (i.e. `g` is a forest).
///
/// A candidate's search stops as soon as one of its components reaches
/// the best size so far, since it can then no longer be strictly better.
pub fn best_fundamental_cycle<G: GraphRef>(
    g: &G,
    tree: &SpTree,
    search: &CycleSearch,
    target: usize,
) -> Option<CycleCandidate> {
    let candidates = sampled_nontree_edges(g, tree, search.max_candidates);
    if candidates.is_empty() {
        return None;
    }
    let mut best: Option<CycleCandidate> = None;
    let mut scratch = RemovalScratch::new(g.universe());
    psep_obs::counter!("planar.cycle.searches").incr();
    let mut evaluated: u64 = 0;
    for (u, v) in candidates {
        evaluated += 1;
        let mut removed: Vec<NodeId> = Vec::new();
        removed.extend(tree.root_path(u).unwrap_or_default());
        removed.extend(tree.root_path(v).unwrap_or_default());
        let stop = best.as_ref().map_or(usize::MAX, |b| b.largest_component);
        let largest = scratch.largest_component_after_removal(g, &removed, stop);
        if largest < stop {
            best = Some(CycleCandidate {
                edge: (u, v),
                largest_component: largest,
            });
            if search.accept_first && largest <= target {
                break;
            }
        }
    }
    psep_obs::counter!("planar.cycle.candidates_evaluated").add(evaluated);
    best
}

/// The nontree edges `{u, v}` (`u < v`) of `tree` over `g`, in vertex
/// order, sampled at an even stride down to about `max` of them.
pub fn sampled_nontree_edges<G: GraphRef>(
    g: &G,
    tree: &SpTree,
    max: usize,
) -> Vec<(NodeId, NodeId)> {
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for u in g.node_iter() {
        for e in g.neighbors(u) {
            if u < e.to && !tree.is_tree_edge(u, e.to) {
                edges.push((u, e.to));
            }
        }
    }
    let stride = (edges.len() / max.max(1)).max(1);
    edges.into_iter().step_by(stride).collect()
}

/// Computes a set of root paths of a single shortest-path tree whose
/// removal leaves components of at most `target` vertices.
///
/// Strategy: take the best fundamental cycle (two root paths), then
/// greedily add the root path to the deepest vertex of the largest
/// remaining component until the target is met or
/// [`CycleSearch::max_extra_paths`] is exhausted. Returns the root paths
/// (each a minimum-cost path of `g`); the balance target may be missed
/// only on non-planar inputs, in which case the caller (the iterative
/// strategy of `psep-core`) starts a new group.
pub fn root_path_separator<G: GraphRef>(
    g: &G,
    tree: &SpTree,
    search: &CycleSearch,
    target: usize,
) -> Vec<Vec<NodeId>> {
    let mut paths: Vec<Vec<NodeId>> = Vec::new();
    let mut removed: Vec<NodeId> = Vec::new();
    let mut scratch = RemovalScratch::new(g.universe());

    if let Some(best) = best_fundamental_cycle(g, tree, search, target) {
        for endpoint in [best.edge.0, best.edge.1] {
            if let Some(p) = tree.root_path(endpoint) {
                paths.push(dedup_against(&p, &removed));
                removed.extend(p);
            }
        }
    } else {
        // forest: the root path to the deepest vertex
        if let Some(deep) = deepest_vertex(g, tree) {
            if let Some(p) = tree.root_path(deep) {
                paths.push(p.clone());
                removed.extend(p);
            }
        }
    }

    for _ in 0..search.max_extra_paths {
        let comps = scratch.components_after_removal(g, &removed);
        let Some(big) = comps.iter().max_by_key(|c| c.len()) else {
            break;
        };
        if big.len() <= target {
            break;
        }
        // deepest vertex of the big component (max root distance)
        let w = big
            .iter()
            .copied()
            .filter(|&v| tree.reached(v))
            .max_by_key(|&v| (tree.dist(v).unwrap_or(0), v.0));
        let Some(w) = w else { break };
        let Some(p) = tree.root_path(w) else { break };
        let fresh = dedup_against(&p, &removed);
        if fresh.is_empty() {
            break;
        }
        paths.push(fresh);
        removed.extend(p);
    }
    paths
}

/// Deepest reachable vertex of the tree (largest distance from the
/// root, then largest id), or `None` if `g` has no reached vertex.
pub fn deepest_vertex<G: GraphRef>(g: &G, tree: &SpTree) -> Option<NodeId> {
    g.node_iter()
        .filter(|&v| tree.reached(v))
        .max_by_key(|&v| (tree.dist(v).unwrap_or(0), v.0))
}

/// The suffix of `path` that is disjoint from `already`: root paths of
/// the same tree share a prefix; the fresh part is itself a monotone tree
/// path, hence still a minimum-cost path.
fn dedup_against(path: &[NodeId], already: &[NodeId]) -> Vec<NodeId> {
    let set: std::collections::HashSet<NodeId> = already.iter().copied().collect();
    let fresh: Vec<NodeId> = path.iter().copied().filter(|v| !set.contains(v)).collect();
    fresh
}

/// Reusable buffers for repeated component computations.
pub struct RemovalScratch {
    dead: Vec<bool>,
    seen: Vec<bool>,
    stack: Vec<NodeId>,
}

impl RemovalScratch {
    /// Buffers for graphs with id universe `universe`.
    pub fn new(universe: usize) -> Self {
        RemovalScratch {
            dead: vec![false; universe],
            seen: vec![false; universe],
            stack: Vec::new(),
        }
    }

    /// Clears the marks and marks `removed` dead.
    fn reset(&mut self, removed: &[NodeId]) {
        self.dead.iter_mut().for_each(|d| *d = false);
        self.seen.iter_mut().for_each(|s| *s = false);
        for &v in removed {
            self.dead[v.index()] = true;
        }
    }

    /// The size of the largest component of `g` minus `removed`,
    /// counted without collecting the components; once one component
    /// reaches `stop`, returns a size `>= stop` without visiting more.
    fn largest_component_after_removal<G: GraphRef>(
        &mut self,
        g: &G,
        removed: &[NodeId],
        stop: usize,
    ) -> usize {
        self.reset(removed);
        let mut largest = 0;
        for v in g.node_iter() {
            if self.seen[v.index()] || self.dead[v.index()] {
                continue;
            }
            let mut size = 0;
            self.seen[v.index()] = true;
            self.stack.push(v);
            while let Some(u) = self.stack.pop() {
                size += 1;
                if size >= stop {
                    self.stack.clear();
                    return size;
                }
                for e in g.neighbors(u) {
                    let i = e.to.index();
                    if !self.seen[i] && !self.dead[i] {
                        self.seen[i] = true;
                        self.stack.push(e.to);
                    }
                }
            }
            largest = largest.max(size);
        }
        largest
    }

    /// The connected components of `g` minus `removed`, each in
    /// depth-first discovery order, in order of their first vertex.
    pub fn components_after_removal<G: GraphRef>(
        &mut self,
        g: &G,
        removed: &[NodeId],
    ) -> Vec<Vec<NodeId>> {
        self.reset(removed);
        let mut out = Vec::new();
        let mut stack = Vec::new();
        for v in g.node_iter() {
            if self.seen[v.index()] || self.dead[v.index()] {
                continue;
            }
            let mut comp = Vec::new();
            self.seen[v.index()] = true;
            stack.push(v);
            while let Some(u) = stack.pop() {
                comp.push(u);
                for e in g.neighbors(u) {
                    let i = e.to.index();
                    if !self.seen[i] && !self.dead[i] {
                        self.seen[i] = true;
                        stack.push(e.to);
                    }
                }
            }
            out.push(comp);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_graph::components::largest_component_after_removal;
    use psep_graph::dijkstra::path_cost;
    use psep_graph::generators::{grids, planar_families, trees};

    fn check_halves<G: GraphRef>(g: &G, paths: &[Vec<NodeId>]) {
        let removed: Vec<NodeId> = paths.iter().flatten().copied().collect();
        let biggest = largest_component_after_removal(g, &removed);
        assert!(
            biggest <= g.node_count() / 2,
            "largest component {biggest} > n/2 = {}",
            g.node_count() / 2
        );
    }

    #[test]
    fn grid_halved_by_few_root_paths() {
        let g = grids::grid2d(10, 10, 1);
        let tree = SpTree::new(&g, NodeId(0));
        let paths = root_path_separator(&g, &tree, &CycleSearch::default(), g.num_nodes() / 2);
        assert!(!paths.is_empty());
        assert!(paths.len() <= 3, "needed {} paths", paths.len());
        check_halves(&g, &paths);
    }

    #[test]
    fn triangulated_grid_halved() {
        for seed in 0..3 {
            let g = planar_families::triangulated_grid(8, 8, seed);
            let tree = SpTree::new(&g, NodeId(0));
            let paths = root_path_separator(&g, &tree, &CycleSearch::default(), g.num_nodes() / 2);
            assert!(paths.len() <= 3, "seed {seed}: {} paths", paths.len());
            check_halves(&g, &paths);
        }
    }

    #[test]
    fn apollonian_halved() {
        let g = planar_families::apollonian(60, 2);
        let tree = SpTree::new(&g, NodeId(0));
        let paths = root_path_separator(&g, &tree, &CycleSearch::default(), g.num_nodes() / 2);
        assert!(paths.len() <= 3, "{} paths", paths.len());
        check_halves(&g, &paths);
    }

    #[test]
    fn tree_input_uses_single_path() {
        let g = trees::path(11);
        let tree = SpTree::new(&g, NodeId(0));
        let paths = root_path_separator(&g, &tree, &CycleSearch::default(), g.num_nodes() / 2);
        check_halves(&g, &paths);
    }

    #[test]
    fn paths_are_shortest_in_g() {
        let g = planar_families::triangulated_grid(6, 6, 4);
        let tree = SpTree::new(&g, NodeId(0));
        // full root paths (before dedup) are shortest; the first path is
        // always a full root path
        if let Some(best) = best_fundamental_cycle(&g, &tree, &CycleSearch::default(), 18) {
            for v in [best.edge.0, best.edge.1] {
                let p = tree.root_path(v).unwrap();
                let cost = path_cost(&g, &p).unwrap();
                assert_eq!(Some(cost), tree.dist(v));
            }
        } else {
            panic!("triangulated grid must have nontree edges");
        }
    }

    #[test]
    fn best_cycle_none_on_forest() {
        let g = trees::random_tree(20, 1);
        let tree = SpTree::new(&g, NodeId(0));
        assert!(best_fundamental_cycle(&g, &tree, &CycleSearch::default(), 10).is_none());
    }

    /// The bounded search picks the candidate, and reports the size,
    /// that scoring every candidate in full picks.
    #[test]
    fn bounded_search_matches_full_scoring() {
        for g in [
            grids::grid2d(12, 9, 1),
            planar_families::triangulated_grid(10, 10, 3),
            planar_families::apollonian(80, 5),
        ] {
            let tree = SpTree::new(&g, NodeId(0));
            for (accept_first, target) in [(true, g.num_nodes() / 2), (false, 0)] {
                let search = CycleSearch {
                    max_candidates: usize::MAX,
                    accept_first,
                    ..CycleSearch::default()
                };
                let mut full: Option<(usize, (NodeId, NodeId))> = None;
                for (u, v) in sampled_nontree_edges(&g, &tree, search.max_candidates) {
                    let mut removed = tree.root_path(u).unwrap_or_default();
                    removed.extend(tree.root_path(v).unwrap_or_default());
                    let largest = largest_component_after_removal(&g, &removed);
                    if full.is_none_or(|(b, _)| largest < b) {
                        full = Some((largest, (u, v)));
                        if accept_first && largest <= target {
                            break;
                        }
                    }
                }
                let best = best_fundamental_cycle(&g, &tree, &search, target).unwrap();
                assert_eq!(Some((best.largest_component, best.edge)), full);
            }
        }
    }
}
