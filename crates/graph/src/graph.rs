//! The core [`Graph`] type: a weighted undirected graph over dense node ids.

use std::fmt;

/// Identifier of a graph vertex.
///
/// Node ids are dense: a graph with `n` vertices uses ids `0..n`. The
/// newtype keeps vertex indices from being confused with positions,
/// counts, or weights in the higher layers.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `i` does not fit in `u32`.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Edge weight / distance value.
///
/// The paper assumes `min_{u≠v} d(u,v) = 1`; we use exact integer costs so
/// every distance computation is reproducible and comparable with `==`.
pub type Weight = u64;

/// Distance value representing "unreachable".
pub const INFINITY: Weight = Weight::MAX;

/// A directed half-edge as stored in adjacency lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Target endpoint.
    pub to: NodeId,
    /// Edge cost (`≥ 1` for graphs built by the generators).
    pub weight: Weight,
}

/// A weighted undirected graph with dense `u32` node ids.
///
/// Parallel edges and self-loops are rejected in debug builds (they never
/// arise from the generators and would complicate the shortest-path
/// separator invariants).
///
/// # Example
///
/// ```
/// use psep_graph::{Graph, NodeId};
///
/// let mut g = Graph::new(4);
/// g.add_edge(NodeId(0), NodeId(1), 1);
/// g.add_edge(NodeId(1), NodeId(2), 1);
/// assert_eq!(g.num_nodes(), 4);
/// assert_eq!(g.num_edges(), 2);
/// assert_eq!(g.degree(NodeId(1)), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    adj: Vec<Vec<Edge>>,
    num_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Number of vertices (the size of the id universe `0..n`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Appends a fresh isolated vertex and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.adj.len());
        self.adj.push(Vec::new());
        id
    }

    /// Adds the undirected edge `{u, v}` with cost `weight`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`, if either endpoint is out of range, if
    /// `weight == 0`, or (debug builds only) if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) {
        assert_ne!(u, v, "self-loops are not supported");
        assert!(u.index() < self.adj.len(), "node {u:?} out of range");
        assert!(v.index() < self.adj.len(), "node {v:?} out of range");
        assert!(weight >= 1, "edge weights must be >= 1");
        debug_assert!(
            !self.has_edge(u, v),
            "parallel edge {u:?}-{v:?} not supported"
        );
        self.adj[u.index()].push(Edge { to: v, weight });
        self.adj[v.index()].push(Edge { to: u, weight });
        self.num_edges += 1;
    }

    /// Returns whether the undirected edge `{u, v}` is present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].iter().any(|e| e.to == v)
    }

    /// Returns the weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.adj[u.index()]
            .iter()
            .find(|e| e.to == v)
            .map(|e| e.weight)
    }

    /// The neighbours of `u` (with weights), in insertion order.
    #[inline]
    pub fn edges(&self, u: NodeId) -> &[Edge] {
        &self.adj[u.index()]
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// Iterator over all undirected edges as `(u, v, w)` with `u < v`.
    pub fn edge_list(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.nodes().flat_map(move |u| {
            self.adj[u.index()]
                .iter()
                .filter(move |e| u < e.to)
                .map(move |e| (u, e.to, e.weight))
        })
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> Weight {
        self.edge_list().map(|(_, _, w)| w).sum()
    }

    /// Smallest edge weight, or `None` for an edgeless graph.
    pub fn min_edge_weight(&self) -> Option<Weight> {
        self.edge_list().map(|(_, _, w)| w).min()
    }

    /// Largest edge weight, or `None` for an edgeless graph.
    pub fn max_edge_weight(&self) -> Option<Weight> {
        self.edge_list().map(|(_, _, w)| w).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn add_edges_and_query() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 5);
        g.add_edge(NodeId(1), NodeId(2), 7);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(7));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(2)), None);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.total_weight(), 12);
        assert_eq!(g.min_edge_weight(), Some(5));
        assert_eq!(g.max_edge_weight(), Some(7));
    }

    #[test]
    fn edge_list_is_canonical() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(2), NodeId(0), 1);
        g.add_edge(NodeId(3), NodeId(1), 2);
        let edges: Vec<_> = g.edge_list().collect();
        assert_eq!(edges.len(), 2);
        for (u, v, _) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn add_node_grows_universe() {
        let mut g = Graph::new(1);
        let v = g.add_node();
        assert_eq!(v, NodeId(1));
        g.add_edge(NodeId(0), v, 1);
        assert_eq!(g.degree(v), 1);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(0), 1);
    }

    #[test]
    #[should_panic(expected = "weights must be >= 1")]
    fn rejects_zero_weight() {
        let mut g = Graph::new(2);
        g.add_edge(NodeId(0), NodeId(1), 0);
    }

    #[test]
    fn node_id_display_and_debug() {
        assert_eq!(format!("{}", NodeId(7)), "7");
        assert_eq!(format!("{:?}", NodeId(7)), "v7");
    }
}
