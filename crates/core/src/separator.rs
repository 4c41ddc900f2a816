//! The separator data model: paths, groups, and separators (Definition 1).

use psep_graph::graph::{NodeId, Weight};
use psep_graph::view::GraphRef;

/// One separator path: a vertex sequence that is a minimum-cost path of
/// its residual graph, together with prefix-sum positions along it.
///
/// Positions let the oracle compute along-path distances
/// `d_Q(p, q) = |pos(p) − pos(q)|` in `O(1)`; because `Q` is a shortest
/// path of its residual graph `J`, along-path distance equals `d_J`
/// between any two path vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SepPath {
    vertices: Vec<NodeId>,
    prefix: Vec<Weight>,
}

impl SepPath {
    /// Builds a path from consecutive-adjacent vertices of `g`, computing
    /// prefix sums from the edge weights.
    ///
    /// # Panics
    ///
    /// Panics if `vertices` is empty or some consecutive pair is not an
    /// edge of `g`.
    pub fn new<G: GraphRef>(g: &G, vertices: Vec<NodeId>) -> Self {
        assert!(!vertices.is_empty(), "separator paths must be non-empty");
        let mut prefix = Vec::with_capacity(vertices.len());
        prefix.push(0);
        for w in vertices.windows(2) {
            let edge = g
                .neighbors(w[0])
                .find(|e| e.to == w[1])
                .unwrap_or_else(|| panic!("{:?}-{:?} is not an edge", w[0], w[1]));
            prefix.push(prefix.last().unwrap() + edge.weight);
        }
        SepPath { vertices, prefix }
    }

    /// Reassembles a path from already-validated parts (wire decode);
    /// checks only the internal invariants — non-empty, matching
    /// lengths, `prefix[0] == 0`, non-decreasing prefix — not adjacency
    /// in any graph (the artifact's checksum vouches for provenance).
    pub(crate) fn from_parts(vertices: Vec<NodeId>, prefix: Vec<Weight>) -> Option<Self> {
        if vertices.is_empty()
            || vertices.len() != prefix.len()
            || prefix[0] != 0
            || prefix.windows(2).any(|w| w[0] > w[1])
        {
            return None;
        }
        Some(SepPath { vertices, prefix })
    }

    /// A trivial single-vertex path (a minimum-cost path of any graph
    /// containing the vertex).
    pub fn singleton(v: NodeId) -> Self {
        SepPath {
            vertices: vec![v],
            prefix: vec![0],
        }
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[NodeId] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the path is a single vertex.
    pub fn is_singleton(&self) -> bool {
        self.vertices.len() == 1
    }

    /// Never true: paths are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Position (prefix-sum cost) of the `i`-th vertex.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn position(&self, i: usize) -> Weight {
        self.prefix[i]
    }

    /// Total cost of the path.
    pub fn cost(&self) -> Weight {
        *self.prefix.last().unwrap()
    }

    /// Along-path distance between the `i`-th and `j`-th vertices.
    pub fn along(&self, i: usize, j: usize) -> Weight {
        self.prefix[i.max(j)] - self.prefix[i.min(j)]
    }

    /// The two endpoints (equal for singletons).
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (
            *self.vertices.first().unwrap(),
            *self.vertices.last().unwrap(),
        )
    }

    /// Index of `v` on the path, if present.
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.vertices.iter().position(|&u| u == v)
    }
}

/// One group `P_i`: the union of paths that are each minimum-cost in the
/// *same* residual graph `G \ ⋃_{j<i} P_j` (paths within a group may
/// intersect; the residual graph shrinks only between groups).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathGroup {
    /// The paths of the group.
    pub paths: Vec<SepPath>,
}

impl PathGroup {
    /// Group from paths.
    pub fn new(paths: Vec<SepPath>) -> Self {
        PathGroup { paths }
    }

    /// All vertices of the group (sorted, deduplicated).
    pub fn vertices(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .paths
            .iter()
            .flat_map(|p| p.vertices().iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of paths `k_i`.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }
}

/// A separator `S = P₀ ∪ P₁ ∪ ⋯` (Definition 1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathSeparator {
    /// The groups, in removal order.
    pub groups: Vec<PathGroup>,
}

impl PathSeparator {
    /// Separator from groups.
    pub fn new(groups: Vec<PathGroup>) -> Self {
        PathSeparator { groups }
    }

    /// A *strong* separator: a single group.
    pub fn strong(paths: Vec<SepPath>) -> Self {
        PathSeparator {
            groups: vec![PathGroup::new(paths)],
        }
    }

    /// Total number of paths `Σ k_i` — the `k` of P2.
    pub fn num_paths(&self) -> usize {
        self.groups.iter().map(|g| g.num_paths()).sum()
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether this is a strong separator (`S = P₀`).
    pub fn is_strong(&self) -> bool {
        self.groups.len() <= 1
    }
}

/// A separator kind the decomposition tree recurses on: groups removed
/// in order, group `i`'s residual graph being the component minus every
/// earlier group. [`PathSeparator`] (Definition 1) and
/// [`crate::doubling::DoublingSeparator`] (§5.3) are the two kinds.
pub trait Separator: Send + Sync {
    /// Total number of paths (or pieces) `Σ k_i` — the `k` of P2.
    fn num_paths(&self) -> usize;

    /// Each group's vertices, groups in removal order; within a group in
    /// any order, possibly repeated.
    fn vertex_groups(&self) -> impl Iterator<Item = impl Iterator<Item = NodeId> + '_> + '_;

    /// Vertices of groups `0..upto` (exclusive), sorted and deduplicated —
    /// the set removed before group `upto`, defining its residual graph.
    fn vertices_before_group(&self, upto: usize) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.vertex_groups().take(upto).flatten().collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All separator vertices (sorted, deduplicated).
    fn vertices(&self) -> Vec<NodeId> {
        self.vertices_before_group(usize::MAX)
    }
}

impl Separator for PathSeparator {
    fn num_paths(&self) -> usize {
        PathSeparator::num_paths(self)
    }

    fn vertex_groups(&self) -> impl Iterator<Item = impl Iterator<Item = NodeId> + '_> + '_ {
        let paths = self.groups.iter().map(|g| g.paths.iter());
        paths.map(|ps| ps.flat_map(|p| p.vertices().iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_graph::generators::trees;

    #[test]
    fn prefix_sums_and_positions() {
        let mut g = psep_graph::Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 2);
        g.add_edge(NodeId(1), NodeId(2), 3);
        g.add_edge(NodeId(2), NodeId(3), 4);
        let p = SepPath::new(&g, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(p.cost(), 9);
        assert_eq!(p.position(0), 0);
        assert_eq!(p.position(2), 5);
        assert_eq!(p.along(1, 3), 7);
        assert_eq!(p.along(3, 1), 7);
        assert_eq!(p.endpoints(), (NodeId(0), NodeId(3)));
        assert_eq!(p.index_of(NodeId(2)), Some(2));
        assert_eq!(p.index_of(NodeId(9)), None);
    }

    #[test]
    fn singleton_path() {
        let p = SepPath::singleton(NodeId(7));
        assert!(p.is_singleton());
        assert_eq!(p.cost(), 0);
        assert_eq!(p.endpoints(), (NodeId(7), NodeId(7)));
    }

    #[test]
    #[should_panic(expected = "is not an edge")]
    fn rejects_non_adjacent() {
        let g = trees::path(3);
        SepPath::new(&g, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn separator_accounting() {
        let g = trees::path(5);
        let p1 = SepPath::new(&g, vec![NodeId(1), NodeId(2)]);
        let p2 = SepPath::singleton(NodeId(4));
        let s = PathSeparator::new(vec![PathGroup::new(vec![p1]), PathGroup::new(vec![p2])]);
        assert_eq!(s.num_paths(), 2);
        assert_eq!(s.num_groups(), 2);
        assert!(!s.is_strong());
        assert_eq!(s.vertices(), vec![NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(s.vertices_before_group(1), vec![NodeId(1), NodeId(2)]);
        assert_eq!(s.vertices_before_group(0), Vec::<NodeId>::new());
    }

    #[test]
    fn strong_separator_is_one_group() {
        let s = PathSeparator::strong(vec![SepPath::singleton(NodeId(0))]);
        assert!(s.is_strong());
        assert_eq!(s.num_paths(), 1);
    }
}
