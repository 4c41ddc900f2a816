//! Frozen CSR (compressed sparse row) graphs: an immutable, cache-friendly
//! adjacency layout for the hot shortest-path loops.
//!
//! [`Graph`] uses one heap allocation per vertex (easy to build and
//! mutate); [`CsrGraph`] packs all half-edges into two flat arrays.
//! Both implement [`GraphRef`], so every algorithm in this workspace runs
//! on either; ablation A4 measures the difference on Dijkstra.

use crate::graph::{Edge, Graph, NodeId};
use crate::view::GraphRef;

/// An immutable CSR snapshot of a [`Graph`].
///
/// # Example
///
/// ```
/// use psep_graph::csr::CsrGraph;
/// use psep_graph::generators::grids;
/// use psep_graph::dijkstra::dijkstra;
/// use psep_graph::NodeId;
///
/// let g = grids::grid2d(5, 5, 1);
/// let frozen = CsrGraph::from_graph(&g);
/// let a = dijkstra(&g, &[NodeId(0)]);
/// let b = dijkstra(&frozen, &[NodeId(0)]);
/// assert_eq!(a.dist_raw(), b.dist_raw());
/// ```
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `edges` for vertex `v`.
    offsets: Vec<u32>,
    edges: Vec<Edge>,
    num_edges: usize,
}

impl CsrGraph {
    /// Freezes `g` into CSR form.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for v in g.nodes() {
            edges.extend_from_slice(g.edges(v));
            offsets.push(u32::try_from(edges.len()).expect("edge count fits u32"));
        }
        CsrGraph {
            offsets,
            edges,
            num_edges: g.num_edges(),
        }
    }

    /// Re-fills `self` with the subgraph of `g` induced by `verts`, with
    /// local ids: vertex `verts[l]` becomes `NodeId(l)`, and each
    /// adjacency list keeps `g`'s order minus the edges that leave
    /// `verts`. The buffers are reused, so a graph re-filled many times
    /// allocates only when it grows past every earlier size.
    ///
    /// `verts` must ascend, so local ids order exactly like global ids
    /// and every `(distance, id)` tie-break runs the same on both.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `verts` is not strictly ascending.
    pub fn induce(&mut self, g: &Graph, verts: &[NodeId]) {
        debug_assert!(
            verts.windows(2).all(|w| w[0] < w[1]),
            "unsorted vertex list"
        );
        self.offsets.clear();
        self.edges.clear();
        self.offsets.push(0);
        for &v in verts {
            self.edges.extend(g.edges(v).iter().filter_map(|e| {
                let l = verts.binary_search(&e.to).ok()?;
                Some(Edge {
                    to: NodeId::from_index(l),
                    weight: e.weight,
                })
            }));
            let end = u32::try_from(self.edges.len()).expect("edge count fits u32");
            self.offsets.push(end);
        }
        self.num_edges = self.edges.len() / 2;
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Adjacency slice of `v`.
    #[inline]
    pub fn edges(&self, v: NodeId) -> &[Edge] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.edges[lo..hi]
    }
}

impl Default for CsrGraph {
    /// The graph with no vertex.
    fn default() -> Self {
        CsrGraph {
            offsets: vec![0],
            edges: Vec::new(),
            num_edges: 0,
        }
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        CsrGraph::from_graph(g)
    }
}

impl GraphRef for CsrGraph {
    #[inline]
    fn universe(&self) -> usize {
        self.num_nodes()
    }

    #[inline]
    fn contains_node(&self, v: NodeId) -> bool {
        v.index() < self.num_nodes()
    }

    #[inline]
    fn neighbors(&self, v: NodeId) -> impl Iterator<Item = Edge> + '_ {
        self.edges(v).iter().copied()
    }

    #[inline]
    fn node_count(&self) -> usize {
        self.num_nodes()
    }

    fn node_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators::{grids, randomize_weights, trees};

    #[test]
    fn csr_matches_adjacency_structure() {
        let g = randomize_weights(&grids::grid2d(6, 7, 1), 1, 9, 2);
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        for v in g.nodes() {
            assert_eq!(c.edges(v), g.edges(v));
        }
    }

    #[test]
    fn dijkstra_identical_on_csr() {
        let g = trees::random_weighted_tree(100, 9, 8);
        let c = CsrGraph::from_graph(&g);
        let a = dijkstra(&g, &[NodeId(0)]);
        let b = dijkstra(&c, &[NodeId(0)]);
        assert_eq!(a.dist_raw(), b.dist_raw());
    }

    /// The induced CSR answers exactly like a masked view, with ids
    /// renumbered in ascending order.
    #[test]
    fn induced_matches_the_masked_view() {
        use crate::view::{NodeMask, SubgraphView};
        let g = randomize_weights(&grids::grid2d(7, 6, 1), 1, 9, 4);
        let verts: Vec<NodeId> = g.nodes().filter(|v| v.0 % 5 != 2).collect();
        let mask = NodeMask::from_nodes(g.num_nodes(), verts.iter().copied());
        let view = SubgraphView::new(&g, &mask);
        let mut j = CsrGraph::from_graph(&g);
        j.induce(&g, &verts);
        assert_eq!(j.num_nodes(), verts.len());
        for (l, &v) in verts.iter().enumerate() {
            let local: Vec<Edge> = j.edges(NodeId::from_index(l)).to_vec();
            let global: Vec<Edge> = view
                .neighbors(v)
                .map(|e| Edge {
                    to: NodeId::from_index(verts.binary_search(&e.to).unwrap()),
                    weight: e.weight,
                })
                .collect();
            assert_eq!(local, global, "{v:?}");
        }
        let (a, b) = (dijkstra(&view, &[verts[3]]), dijkstra(&j, &[NodeId(3)]));
        for (l, &v) in verts.iter().enumerate() {
            let local_parent = a
                .parent(v)
                .map(|p| NodeId::from_index(verts.binary_search(&p).unwrap()));
            assert_eq!(b.dist(NodeId::from_index(l)), a.dist(v));
            assert_eq!(b.parent(NodeId::from_index(l)), local_parent);
        }
    }

    #[test]
    fn empty_and_single_vertex() {
        let empty = CsrGraph::default();
        assert_eq!((empty.num_nodes(), empty.num_edges()), (0, 0));
        let g = Graph::new(1);
        let c = CsrGraph::from_graph(&g);
        assert_eq!(c.num_nodes(), 1);
        assert_eq!(c.edges(NodeId(0)).len(), 0);
    }
}
