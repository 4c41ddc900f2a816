//! Verification of Definition 1: separators are **checked, not assumed**.
//!
//! [`check_separator`] re-verifies, for every path of every group, that
//! the path's cost equals the Dijkstra distance between its endpoints in
//! the correct residual graph (P1), and that removal leaves components of
//! at most half the component size (P3). [`check_tree`] applies this to
//! every node of a [`crate::DecompositionTree`] — the property tests and
//! experiment E1 run it on every family.

use psep_graph::dijkstra::dijkstra_to;
use psep_graph::graph::{Graph, NodeId};
use psep_graph::view::{GraphRef, NodeMask, SubgraphView};

use crate::decomposition::DecompositionTree;
use crate::separator::PathSeparator;
use crate::strategy::within_half;

/// A violation of Definition 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeparatorError {
    /// A path vertex is outside the component being separated
    /// (or inside an earlier group — removed from its residual graph).
    PathVertexNotInResidual {
        /// Group index.
        group: usize,
        /// The offending vertex.
        vertex: NodeId,
    },
    /// Consecutive path vertices are not adjacent in the residual graph.
    NotAPath {
        /// Group index.
        group: usize,
        /// The non-adjacent pair.
        pair: (NodeId, NodeId),
    },
    /// P1 violated: the path costs more than the residual-graph distance
    /// between its endpoints.
    NotShortest {
        /// Group index.
        group: usize,
        /// Path endpoints.
        endpoints: (NodeId, NodeId),
        /// Cost of the claimed path.
        path_cost: u64,
        /// True distance in the residual graph.
        true_dist: u64,
    },
    /// P3 violated: a component of `G \ S` exceeds `n/2` vertices.
    UnbalancedComponent {
        /// Size of the offending component.
        size: usize,
        /// The allowed maximum (`n/2`).
        half: usize,
    },
    /// P2 violated (only reported when a budget is supplied).
    TooManyPaths {
        /// Paths used.
        used: usize,
        /// Budget `k`.
        budget: usize,
    },
}

impl std::fmt::Display for SeparatorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeparatorError::PathVertexNotInResidual { group, vertex } => {
                write!(f, "group {group}: vertex {vertex:?} not in residual graph")
            }
            SeparatorError::NotAPath { group, pair } => {
                write!(f, "group {group}: {:?}-{:?} not an edge", pair.0, pair.1)
            }
            SeparatorError::NotShortest {
                group,
                endpoints,
                path_cost,
                true_dist,
            } => write!(
                f,
                "group {group}: path {:?}→{:?} costs {path_cost} but distance is {true_dist}",
                endpoints.0, endpoints.1
            ),
            SeparatorError::UnbalancedComponent { size, half } => {
                write!(f, "component of size {size} exceeds n/2 = {half}")
            }
            SeparatorError::TooManyPaths { used, budget } => {
                write!(f, "{used} paths exceed budget k = {budget}")
            }
        }
    }
}

impl std::error::Error for SeparatorError {}

/// Verifies Definition 1 for `sep` on the component `component` of `g`.
///
/// * P1: every path of group `i` is a minimum-cost path of the residual
///   graph `component \ ⋃_{j<i} P_j` (verified with Dijkstra);
/// * P3: components of `component \ S` have at most
///   `⌊|component|/2⌋` vertices;
/// * P2: if `budget` is given, `Σ k_i ≤ budget`.
///
/// # Errors
///
/// Returns the first violation found.
///
/// # Example
///
/// ```
/// use psep_core::separator::{PathSeparator, SepPath};
/// use psep_core::check_separator;
/// use psep_graph::generators::grids;
///
/// let g = grids::grid2d(5, 5, 1);
/// let comp: Vec<_> = g.nodes().collect();
/// let row = SepPath::new(&g, grids::grid_row(5, 5, 2));
/// let sep = PathSeparator::strong(vec![row]);
/// assert!(check_separator(&g, &comp, &sep, Some(1)).is_ok());
/// ```
pub fn check_separator(
    g: &Graph,
    component: &[NodeId],
    sep: &PathSeparator,
    budget: Option<usize>,
) -> Result<(), SeparatorError> {
    if let Some(b) = budget {
        let used = sep.num_paths();
        if used > b {
            return Err(SeparatorError::TooManyPaths { used, budget: b });
        }
    }
    check_balanced(g, component, sep, |c| c.len() as f64)
}

/// P1 for every group of `sep`, then P3 under `measure`: every component
/// of `component \ S` measures at most half of `component`. An
/// imbalance reports the offending measure rounded and the half rounded
/// down, which for vertex counts are the exact size and `⌊n/2⌋`.
pub(crate) fn check_balanced(
    g: &Graph,
    component: &[NodeId],
    sep: &PathSeparator,
    measure: impl Fn(&[NodeId]) -> f64,
) -> Result<(), SeparatorError> {
    let mut mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
    for (gi, group) in sep.groups.iter().enumerate() {
        // residual graph for this group: `mask` as accumulated so far
        let view = SubgraphView::new(g, &mask);
        for path in &group.paths {
            for &v in path.vertices() {
                if !mask.contains(v) {
                    return Err(SeparatorError::PathVertexNotInResidual {
                        group: gi,
                        vertex: v,
                    });
                }
            }
            for w in path.vertices().windows(2) {
                if !view.neighbors(w[0]).any(|e| e.to == w[1]) {
                    return Err(SeparatorError::NotAPath {
                        group: gi,
                        pair: (w[0], w[1]),
                    });
                }
            }
            let (s, t) = path.endpoints();
            if s != t {
                let true_dist = dijkstra_to(&view, s, t)
                    .dist(t)
                    .expect("endpoints connected via the path itself");
                if path.cost() > true_dist {
                    return Err(SeparatorError::NotShortest {
                        group: gi,
                        endpoints: (s, t),
                        path_cost: path.cost(),
                        true_dist,
                    });
                }
            }
        }
        // remove the group to form the next residual graph
        mask.remove_all(group.vertices());
    }
    // P3 on what remains
    let total = measure(component);
    let view = SubgraphView::new(g, &mask);
    for comp in psep_graph::components::components(&view) {
        let part = measure(&comp);
        if !within_half(part, total) {
            return Err(SeparatorError::UnbalancedComponent {
                size: part.round() as usize,
                half: (total / 2.0).floor() as usize,
            });
        }
    }
    Ok(())
}

/// Verifies Definition 1 at **every node** of a decomposition tree, and
/// that each child component is at most half its parent.
///
/// # Errors
///
/// Returns the node index and the violation.
pub fn check_tree(g: &Graph, tree: &DecompositionTree) -> Result<(), (usize, SeparatorError)> {
    for (i, node) in tree.nodes().iter().enumerate() {
        check_separator(g, &node.vertices, &node.separator, None).map_err(|e| (i, e))?;
        for &c in &node.children {
            let child = &tree.nodes()[c];
            if child.vertices.len() > node.vertices.len() / 2 {
                return Err((
                    i,
                    SeparatorError::UnbalancedComponent {
                        size: child.vertices.len(),
                        half: node.vertices.len() / 2,
                    },
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::separator::{PathGroup, SepPath};
    use psep_graph::generators::{grids, trees};

    #[test]
    fn accepts_grid_middle_row() {
        let g = grids::grid2d(5, 5, 1);
        let row: Vec<NodeId> = grids::grid_row(5, 5, 2);
        let comp: Vec<NodeId> = g.nodes().collect();
        let path = SepPath::new(&g, row);
        let sep = PathSeparator::strong(vec![path]);
        check_separator(&g, &comp, &sep, Some(1)).unwrap();
    }

    #[test]
    fn rejects_non_shortest_path() {
        // path 0-1-2 plus heavy shortcut chain 0-3-2 of cost 10:
        // the chain 0,3,2 is a path but not a shortest one.
        let mut g = psep_graph::Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(2), 1);
        g.add_edge(NodeId(0), NodeId(3), 5);
        g.add_edge(NodeId(3), NodeId(2), 5);
        let comp: Vec<NodeId> = g.nodes().collect();
        let bad = SepPath::new(&g, vec![NodeId(0), NodeId(3), NodeId(2)]);
        let sep = PathSeparator::strong(vec![bad]);
        let err = check_separator(&g, &comp, &sep, None).unwrap_err();
        assert!(matches!(err, SeparatorError::NotShortest { .. }));
    }

    #[test]
    fn rejects_unbalanced() {
        let g = trees::path(10);
        let comp: Vec<NodeId> = g.nodes().collect();
        // removing an end vertex leaves a size-9 component > 5
        let sep = PathSeparator::strong(vec![SepPath::singleton(NodeId(0))]);
        let err = check_separator(&g, &comp, &sep, None).unwrap_err();
        assert!(matches!(err, SeparatorError::UnbalancedComponent { .. }));
    }

    #[test]
    fn rejects_over_budget() {
        let g = trees::path(4);
        let comp: Vec<NodeId> = g.nodes().collect();
        let sep = PathSeparator::strong(vec![
            SepPath::singleton(NodeId(1)),
            SepPath::singleton(NodeId(2)),
        ]);
        let err = check_separator(&g, &comp, &sep, Some(1)).unwrap_err();
        assert_eq!(err, SeparatorError::TooManyPaths { used: 2, budget: 1 });
    }

    #[test]
    fn sequential_groups_use_residual_graphs() {
        // mesh + apex: apex first (group 0), middle row second (group 1).
        // The middle row is NOT shortest in the full graph (the apex
        // shortcuts it) but IS shortest in the residual mesh.
        let t = 5;
        let g = psep_graph::generators::special::mesh_with_apex(t);
        let comp: Vec<NodeId> = g.nodes().collect();
        let apex = psep_graph::generators::special::mesh_apex_id(t);
        let row = grids::grid_row(t, t, t / 2);
        let row_path = SepPath::new(&g, row.clone());
        let sep = PathSeparator::new(vec![
            PathGroup::new(vec![SepPath::singleton(apex)]),
            PathGroup::new(vec![row_path.clone()]),
        ]);
        check_separator(&g, &comp, &sep, Some(2)).unwrap();

        // the same row as group 0 (with the apex still present) violates P1
        let bad = PathSeparator::strong(vec![row_path]);
        let err = check_separator(&g, &comp, &bad, None).unwrap_err();
        assert!(matches!(err, SeparatorError::NotShortest { .. }));
    }

    #[test]
    fn rejects_vertex_outside_component() {
        let g = trees::path(6);
        let comp = vec![NodeId(0), NodeId(1), NodeId(2)];
        let sep = PathSeparator::strong(vec![SepPath::singleton(NodeId(5))]);
        let err = check_separator(&g, &comp, &sep, None).unwrap_err();
        assert!(matches!(
            err,
            SeparatorError::PathVertexNotInResidual { .. }
        ));
    }
}
