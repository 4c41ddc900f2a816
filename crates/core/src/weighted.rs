//! Vertex-weighted separators — the strengthening noted at the end of
//! Section 3: “the above proof of Theorem 1 can be strengthened to
//! construct a *k-path vertex-weighted separator*, that is a separator S
//! that splits G (having edge and vertex-weights) in components of
//! vertex-weight at most half of the total vertex-weight of G” (lemmas 1
//! and 5 adapt directly).
//!
//! P1 and P2 are unchanged; P3 becomes: every component of `G \ S` has
//! vertex-weight at most `W/2` where `W` is the component's total
//! vertex-weight. Useful when vertices model load (objects stored,
//! population, traffic) rather than unit size.
//!
//! [`WeightedStrategy`] wraps [`weighted_iterative_separator`] and
//! measures components by weight, so [`crate::DecompositionTree`]
//! builds the weight-halving tree; the checker and the tree centroid
//! are the unweighted ones with weights as the measure.

use psep_graph::components::components;
use psep_graph::graph::{Graph, NodeId};
use psep_graph::view::{GraphRef, NodeMask, SubgraphView};
use psep_planar::cycle::{deepest_vertex, sampled_nontree_edges, CycleSearch, RemovalScratch};
use psep_planar::sptree::SpTree;

use crate::check::{check_balanced, SeparatorError};
use crate::separator::{PathGroup, PathSeparator, SepPath};
use crate::strategy::{centroid_by, SeparatorStrategy};

/// Verifies the weighted Definition 1: P1 (minimum-cost paths in their
/// residual graphs) as [`crate::check_separator`] does, and weighted P3
/// (components of `component \ S` have vertex-weight ≤ half the
/// component's weight).
///
/// # Errors
///
/// Returns the first violation; weighted-P3 violations are reported as
/// [`SeparatorError::UnbalancedComponent`] with the component's weight
/// rounded and the half-weight rounded down.
pub fn check_weighted_separator(
    g: &Graph,
    component: &[NodeId],
    sep: &PathSeparator,
    weights: &[f64],
) -> Result<(), SeparatorError> {
    check_balanced(g, component, sep, |c| comp_weight(c, weights))
}

/// Weighted centroid of a tree component: a vertex whose removal leaves
/// components of weight ≤ half the total (weighted Lemma 1 on trees).
///
/// # Panics
///
/// Panics if the induced subgraph is not a tree or `component` is empty.
pub fn weighted_tree_centroid(g: &Graph, component: &[NodeId], weights: &[f64]) -> NodeId {
    centroid_by(g, component, |v| weights[v.index()])
}

/// Weighted iterative strategy: like
/// [`crate::strategy::IterativeStrategy`] but halving vertex *weight*.
/// Per round it removes the root paths of a shortest-path tree in the
/// heaviest residual component, scored by remaining component weight.
pub fn weighted_iterative_separator(
    g: &Graph,
    component: &[NodeId],
    weights: &[f64],
    search: &CycleSearch,
    max_groups: usize,
) -> PathSeparator {
    let total: f64 = component.iter().map(|v| weights[v.index()]).sum();
    let half = total / 2.0;
    let mut mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
    let mut groups: Vec<PathGroup> = Vec::new();
    if component.len() == 1 {
        return PathSeparator::strong(vec![SepPath::singleton(component[0])]);
    }
    for _ in 0..max_groups {
        let view = SubgraphView::new(g, &mask);
        let comps = components(&view);
        let heaviest = comps.iter().max_by(|a, b| {
            comp_weight(a, weights)
                .partial_cmp(&comp_weight(b, weights))
                .unwrap()
        });
        let Some(big) = heaviest else { break };
        if comp_weight(big, weights) <= half + 1e-9 {
            break;
        }
        // one shortest-path tree in the heavy component; pick the best
        // pair of root paths by remaining heaviest-component weight
        let tree = SpTree::new(&view, big[0]);
        let mut best: Option<(f64, Vec<Vec<NodeId>>)> = None;
        let mut scratch = RemovalScratch::new(view.universe());
        for (u, v) in sampled_nontree_edges(&view, &tree, search.max_candidates) {
            let mut removed: Vec<NodeId> = Vec::new();
            let mut paths: Vec<Vec<NodeId>> = Vec::new();
            for endpoint in [u, v] {
                if let Some(p) = tree.root_path(endpoint) {
                    paths.push(p.clone());
                    removed.extend(p);
                }
            }
            let comps = scratch.components_after_removal(&view, &removed);
            let score = comps
                .iter()
                .map(|c| comp_weight(c, weights))
                .fold(0.0, f64::max);
            if best.as_ref().is_none_or(|(s, _)| score < *s) {
                let done = score <= half + 1e-9;
                best = Some((score, paths));
                if done && search.accept_first {
                    break;
                }
            }
        }
        let paths = match best {
            Some((_, p)) if !p.is_empty() => p,
            _ => vec![vec![
                deepest_vertex(&view, &tree).expect("non-empty component")
            ]],
        };
        let sep_paths: Vec<SepPath> = paths.into_iter().map(|p| SepPath::new(&view, p)).collect();
        let group = PathGroup::new(sep_paths);
        mask.remove_all(group.vertices());
        groups.push(group);
    }
    PathSeparator::new(groups)
}

fn comp_weight(comp: &[NodeId], weights: &[f64]) -> f64 {
    comp.iter().map(|v| weights[v.index()]).sum()
}

/// The weight-halving strategy: [`weighted_iterative_separator`] at
/// every node, with vertex weight as the [`SeparatorStrategy::measure`].
/// Every child component then weighs at most half its parent, so the
/// tree's depth is bounded by `log₂(W / w_min)` for total weight `W`.
#[derive(Clone, Debug)]
pub struct WeightedStrategy<'a> {
    /// Vertex weights, indexed by vertex id.
    pub weights: &'a [f64],
    /// Candidate-search tuning of each round.
    pub search: CycleSearch,
    /// Most groups one separator may open.
    pub max_groups: usize,
}

impl SeparatorStrategy for WeightedStrategy<'_> {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        weighted_iterative_separator(g, component, self.weights, &self.search, self.max_groups)
    }

    fn name(&self) -> &'static str {
        "weighted-iterative"
    }

    fn measure(&self, vertices: &[NodeId]) -> f64 {
        comp_weight(vertices, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DecompositionParams, DecompositionTree};
    use psep_graph::generators::{grids, trees};

    #[test]
    fn weighted_centroid_shifts_toward_heavy_vertices() {
        // path 0-1-2-3-4 with all weight on vertex 4
        let g = trees::path(5);
        let comp: Vec<NodeId> = g.nodes().collect();
        let mut w = vec![1.0; 5];
        w[4] = 100.0;
        let c = weighted_tree_centroid(&g, &comp, &w);
        assert_eq!(c, NodeId(4));
        // uniform weights give the middle
        let c2 = weighted_tree_centroid(&g, &comp, &[1.0; 5]);
        assert_eq!(c2, NodeId(2));
    }

    #[test]
    fn weighted_centroid_is_valid_separator() {
        let g = trees::random_tree(60, 4);
        let comp: Vec<NodeId> = g.nodes().collect();
        let weights: Vec<f64> = (0..60).map(|i| 1.0 + (i % 7) as f64).collect();
        let c = weighted_tree_centroid(&g, &comp, &weights);
        let sep = PathSeparator::strong(vec![SepPath::singleton(c)]);
        check_weighted_separator(&g, &comp, &sep, &weights).unwrap();
    }

    #[test]
    fn weighted_iterative_halves_skewed_grid() {
        // all weight in one corner quadrant: the separator must cut there
        let g = grids::grid2d(10, 10, 1);
        let comp: Vec<NodeId> = g.nodes().collect();
        let weights: Vec<f64> = (0..100)
            .map(|i| {
                let (r, c) = (i / 10, i % 10);
                if r < 5 && c < 5 {
                    10.0
                } else {
                    1.0
                }
            })
            .collect();
        let sep = weighted_iterative_separator(&g, &comp, &weights, &CycleSearch::default(), 16);
        check_weighted_separator(&g, &comp, &sep, &weights).unwrap();
    }

    #[test]
    fn unit_weights_match_unweighted_checker() {
        let g = grids::grid2d(6, 6, 1);
        let comp: Vec<NodeId> = g.nodes().collect();
        let weights = vec![1.0; 36];
        let sep = weighted_iterative_separator(&g, &comp, &weights, &CycleSearch::default(), 16);
        check_weighted_separator(&g, &comp, &sep, &weights).unwrap();
        crate::check::check_separator(&g, &comp, &sep, None).unwrap();
    }

    #[test]
    fn weighted_decomposition_halves_weight_everywhere() {
        let g = grids::grid2d(9, 9, 1);
        // weight concentrated in one corner
        let weights: Vec<f64> = (0..81)
            .map(|i| if i % 9 < 3 && i / 9 < 3 { 20.0 } else { 1.0 })
            .collect();
        let strategy = WeightedStrategy {
            weights: &weights,
            search: CycleSearch::default(),
            max_groups: 16,
        };
        let tree = DecompositionTree::build(&g, &strategy);
        let par = DecompositionTree::build_with(&g, &strategy, &DecompositionParams { threads: 4 });
        assert_eq!(par, tree);
        // invariant asserted during build; also validate each node's
        // separator against the weighted Definition 1
        for node in tree.nodes() {
            check_weighted_separator(&g, &node.vertices, &node.separator, &weights).unwrap();
        }
        // depth ≤ log2(total weight / min weight) + slack
        let total: f64 = weights.iter().sum();
        let bound = (total.log2().ceil() as usize) + 2;
        assert!(tree.depth() < bound, "depth {} > {bound}", tree.depth() + 1);
        assert!(tree.max_paths_per_node() >= 1);
    }

    #[test]
    fn detects_weighted_imbalance() {
        let g = trees::path(6);
        let comp: Vec<NodeId> = g.nodes().collect();
        let mut weights = vec![1.0; 6];
        weights[5] = 50.0;
        // separating at the middle leaves the heavy vertex in a big side
        let sep = PathSeparator::strong(vec![SepPath::singleton(NodeId(2))]);
        let err = check_weighted_separator(&g, &comp, &sep, &weights).unwrap_err();
        assert!(matches!(err, SeparatorError::UnbalancedComponent { .. }));
    }
}
