//! `(k, α)`-doubling separators (§5.3).
//!
//! Condition P1 of Definition 1 is relaxed to (P1′): each `P_i` is the
//! union of `k_i` **isometric subgraphs of doubling dimension ≤ α** of
//! the residual graph. A `k`-path separator is exactly a
//! `(k, 1)`-doubling separator. The motivating example: a 3D mesh has no
//! bounded `k`-path separator, but its middle plane is an isometric
//! doubling-dimension-2 separator ([`GridPlaneStrategy`]).
//!
//! [`DoublingSeparator`] is a [`Separator`] kind, so its tree is the path
//! tree's [`DecompositionTree`] over it: the same wave-parallel builder,
//! node numbering, homes, halving check and residual graphs, and the
//! same bit-identical result at every thread count.

use psep_graph::dijkstra::dijkstra;
use psep_graph::graph::{Graph, NodeId};
use psep_graph::view::{NodeMask, SubgraphView};

use crate::decomposition::{DecompNode, DecompositionTree};
use crate::separator::Separator;
use crate::strategy::SeparatorStrategy;

/// One separator piece: an isometric subgraph of bounded doubling
/// dimension of its residual graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DoublingPiece {
    /// Sorted vertices of the piece.
    pub vertices: Vec<NodeId>,
}

/// A `(k, α)`-doubling separator: groups of pieces, removed sequentially
/// like path groups. Its [`Separator::num_paths`] counts pieces.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DoublingSeparator {
    /// The groups `P_i`, each a union of pieces isometric in the residual
    /// graph `H \ ⋃_{j<i} P_j`.
    pub groups: Vec<Vec<DoublingPiece>>,
}

impl Separator for DoublingSeparator {
    fn num_paths(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    fn vertex_groups(&self) -> impl Iterator<Item = impl Iterator<Item = NodeId> + '_> + '_ {
        let pieces = self.groups.iter().map(|g| g.iter());
        pieces.map(|ps| ps.flat_map(|p| p.vertices.iter().copied()))
    }
}

/// The doubling-decomposition tree: the [`DecompositionTree`] whose
/// nodes carry [`DoublingSeparator`]s, built by
/// [`DecompositionTree::build`] from a
/// `SeparatorStrategy<DoublingSeparator>` such as [`GridPlaneStrategy`].
pub type DoublingDecompositionTree = DecompositionTree<DoublingSeparator>;

/// One node of a [`DoublingDecompositionTree`].
pub type DoublingNode = DecompNode<DoublingSeparator>;

/// Middle-plane separator for 3D meshes built by
/// [`psep_graph::generators::grids::grid3d`]: infers the component's
/// bounding box from the row-major id scheme and removes the middle plane
/// orthogonal to the longest axis — an isometric 2D mesh of doubling
/// dimension ~2.
#[derive(Clone, Copy, Debug)]
pub struct GridPlaneStrategy {
    /// The full mesh dimensions `(x, y, z)` used at generation time.
    pub dims: (usize, usize, usize),
}

impl GridPlaneStrategy {
    fn coords(&self, v: NodeId) -> (usize, usize, usize) {
        let (_, y, z) = self.dims;
        let idx = v.index();
        (idx / (y * z), (idx / z) % y, idx % z)
    }
}

impl SeparatorStrategy<DoublingSeparator> for GridPlaneStrategy {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> DoublingSeparator {
        let _ = g;
        // bounding box of the component
        let mut lo = (usize::MAX, usize::MAX, usize::MAX);
        let mut hi = (0usize, 0usize, 0usize);
        for &v in component {
            let (i, j, k) = self.coords(v);
            lo = (lo.0.min(i), lo.1.min(j), lo.2.min(k));
            hi = (hi.0.max(i), hi.1.max(j), hi.2.max(k));
        }
        let span = (hi.0 - lo.0, hi.1 - lo.1, hi.2 - lo.2);
        // split orthogonal to the longest axis
        let axis = if span.0 >= span.1 && span.0 >= span.2 {
            0
        } else if span.1 >= span.2 {
            1
        } else {
            2
        };
        let mid = match axis {
            0 => lo.0 + span.0 / 2,
            1 => lo.1 + span.1 / 2,
            _ => lo.2 + span.2 / 2,
        };
        let plane: Vec<NodeId> = component
            .iter()
            .copied()
            .filter(|&v| {
                let c = self.coords(v);
                (match axis {
                    0 => c.0,
                    1 => c.1,
                    _ => c.2,
                }) == mid
            })
            .collect();
        DoublingSeparator {
            groups: vec![vec![DoublingPiece { vertices: plane }]],
        }
    }

    fn name(&self) -> &'static str {
        "grid-plane"
    }
}

/// Checks that `piece` is isometric in the subgraph of `g` induced by
/// `context`: `d_piece(x, y) = d_context(x, y)` for all sampled pairs
/// (exhaustive when `probe ≥ |piece|`).
pub fn is_isometric(g: &Graph, context: &[NodeId], piece: &[NodeId], probe: usize) -> bool {
    let universe = g.num_nodes();
    let ctx_mask = NodeMask::from_nodes(universe, context.iter().copied());
    let piece_mask = NodeMask::from_nodes(universe, piece.iter().copied());
    let ctx = SubgraphView::new(g, &ctx_mask);
    let pc = SubgraphView::new(g, &piece_mask);
    let stride = (piece.len() / probe.max(1)).max(1);
    for &s in piece.iter().step_by(stride) {
        let in_ctx = dijkstra(&ctx, &[s]);
        let in_piece = dijkstra(&pc, &[s]);
        for &t in piece {
            if in_ctx.dist(t) != in_piece.dist(t) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecompositionParams;
    use psep_graph::doubling::estimate_doubling_dimension;
    use psep_graph::generators::grids;
    use psep_graph::minors::induced_subgraph;

    #[test]
    fn middle_plane_is_isometric_low_doubling() {
        let (x, y, z) = (6, 6, 6);
        let g = grids::grid3d(x, y, z);
        let comp: Vec<NodeId> = g.nodes().collect();
        let strat = GridPlaneStrategy { dims: (x, y, z) };
        let sep = strat.separate(&g, &comp);
        assert_eq!(sep.num_paths(), 1);
        let piece = &sep.groups[0][0];
        assert_eq!(piece.vertices.len(), y * z);
        assert!(is_isometric(&g, &comp, &piece.vertices, 8));
        // doubling dimension of the plane (a 2D mesh) is small
        let (pg, _) = induced_subgraph(&g, &piece.vertices);
        let dim = estimate_doubling_dimension(&pg, 4);
        assert!(dim <= 3, "plane dimension estimate {dim}");
    }

    #[test]
    fn doubling_tree_on_3d_mesh() {
        let (x, y, z) = (4, 4, 4);
        let g = grids::grid3d(x, y, z);
        let strat = GridPlaneStrategy { dims: (x, y, z) };
        let t = DoublingDecompositionTree::build(&g, &strat);
        assert!(t.depth() <= 7, "depth {}", t.depth());
        assert_eq!(t.max_paths_per_node(), 1);
        let par =
            DoublingDecompositionTree::build_with(&g, &strat, &DecompositionParams { threads: 4 });
        assert_eq!(par, t);
        for v in g.nodes() {
            let chain = t.chain_of(v);
            assert_eq!(*chain.last().unwrap(), t.home(v));
        }
    }

    #[test]
    fn pieces_in_subboxes_remain_isometric() {
        let (x, y, z) = (5, 4, 4);
        let g = grids::grid3d(x, y, z);
        let strat = GridPlaneStrategy { dims: (x, y, z) };
        let t = DoublingDecompositionTree::build(&g, &strat);
        for node in t.nodes() {
            for group in &node.separator.groups {
                for piece in group {
                    assert!(is_isometric(&g, &node.vertices, &piece.vertices, 4));
                }
            }
        }
    }
}
