//! Dijkstra shortest paths with parent pointers, over any [`GraphRef`].
//!
//! This is the workhorse of the whole workspace: separator strategies use
//! it to certify that separator paths are minimum-cost paths in their
//! residual graphs (property P1 of Definition 1), the oracle layer uses it
//! to compute per-vertex portal distances in context graphs `J` and to
//! re-derive witness-path legs (a targeted run that stops at the leg's
//! endpoint), and the benchmarks use it as the exact baseline. Every
//! entry point runs the same loop, so all of them build the same
//! deterministic trees.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{NodeId, Weight, INFINITY};
use crate::view::GraphRef;

/// Result of a (multi-source) Dijkstra run: distances and a shortest-path
/// forest over the full id universe.
#[derive(Clone, Debug)]
pub struct ShortestPaths {
    dist: Vec<Weight>,
    parent: Vec<Option<NodeId>>,
}

impl ShortestPaths {
    /// Distance from the closest source to `v`, or `None` if unreachable
    /// (or masked out).
    #[inline]
    pub fn dist(&self, v: NodeId) -> Option<Weight> {
        let d = self.dist[v.index()];
        (d != INFINITY).then_some(d)
    }

    /// Raw distance array indexed by node id; unreachable is [`INFINITY`].
    #[inline]
    pub fn dist_raw(&self) -> &[Weight] {
        &self.dist
    }

    /// Parent of `v` in the shortest-path forest (`None` for sources and
    /// unreachable vertices).
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Whether `v` was reached.
    #[inline]
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v.index()] != INFINITY
    }

    /// The shortest path from the source forest root to `v`, as a vertex
    /// sequence starting at a source and ending at `v`. Returns `None` if
    /// `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if !self.reached(v) {
            return None;
        }
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// The root (source) of `v`'s tree, or `None` if unreachable.
    pub fn root_of(&self, v: NodeId) -> Option<NodeId> {
        if !self.reached(v) {
            return None;
        }
        let mut cur = v;
        while let Some(p) = self.parent[cur.index()] {
            cur = p;
        }
        Some(cur)
    }

    /// Vertices reached, in no particular order.
    pub fn reached_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.dist
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != INFINITY)
            .map(|(i, _)| NodeId::from_index(i))
    }
}

/// Runs Dijkstra from `sources` (distance 0 each) over `g`.
///
/// Ties are broken by smaller node id at equal distance, making
/// shortest-path trees deterministic — important so that separator
/// construction and oracle construction agree on the same trees.
///
/// # Panics
///
/// Panics if any source is not contained in `g`.
pub fn dijkstra<G: GraphRef>(g: &G, sources: &[NodeId]) -> ShortestPaths {
    dijkstra_with_limit(g, sources, INFINITY)
}

/// Dijkstra that abandons vertices at distance `> limit`. Useful for
/// bounded-radius explorations (e.g. net construction at a scale).
pub fn dijkstra_with_limit<G: GraphRef>(g: &G, sources: &[NodeId], limit: Weight) -> ShortestPaths {
    let mut scratch = DijkstraScratch::new(g.universe());
    scratch.search(g, sources, None, limit);
    scratch.into_paths()
}

/// Dijkstra with early exit once `target` is settled. Returns the full
/// (partial) result; `target`'s distance is exact if reachable.
pub fn dijkstra_to<G: GraphRef>(g: &G, source: NodeId, target: NodeId) -> ShortestPaths {
    let mut scratch = DijkstraScratch::new(g.universe());
    scratch.run_to(g, source, target, INFINITY);
    scratch.into_paths()
}

/// Reusable Dijkstra arenas for workloads that run many searches over
/// the same id universe (e.g. per-source portal Dijkstras during label
/// construction).
///
/// A fresh [`dijkstra`] call allocates `O(universe)` dist/parent arrays
/// every time; `DijkstraScratch` allocates them once and resets only the
/// entries the previous run touched, so a search that reaches `r`
/// vertices costs `O(r log r)` regardless of the universe size. Each
/// worker thread owns one scratch. Results are identical to [`dijkstra`]
/// (same deterministic smaller-id tie-breaking), and every run counts
/// toward `graph.dijkstra.invocations` / `graph.dijkstra.edges_relaxed`
/// exactly like the allocating entry points.
#[derive(Clone, Debug, Default)]
pub struct DijkstraScratch {
    dist: Vec<Weight>,
    parent: Vec<Option<NodeId>>,
    heap: BinaryHeap<Reverse<(Weight, u32)>>,
    touched: Vec<u32>,
}

impl DijkstraScratch {
    /// A scratch for graphs with id universe `universe`.
    pub fn new(universe: usize) -> Self {
        DijkstraScratch {
            dist: vec![INFINITY; universe],
            parent: vec![None; universe],
            heap: BinaryHeap::new(),
            touched: Vec::new(),
        }
    }

    /// The id universe this scratch was sized for.
    pub fn universe(&self) -> usize {
        self.dist.len()
    }

    /// Re-sizes the scratch for graphs with id universe `universe` and
    /// forgets the last run. The arenas' capacity never shrinks, so a
    /// scratch reused over many small graphs (e.g. the local-id residual
    /// graphs of label construction) allocates only when a graph is
    /// larger than every earlier one.
    pub fn resize(&mut self, universe: usize) {
        self.clear();
        self.dist.resize(universe, INFINITY);
        self.parent.resize(universe, None);
    }

    /// Resets every entry the last run touched.
    fn clear(&mut self) {
        for &t in &self.touched {
            self.dist[t as usize] = INFINITY;
            self.parent[t as usize] = None;
        }
        self.touched.clear();
    }

    /// Runs Dijkstra from `sources` over `g`, reusing the arenas.
    /// Distances and parents are readable until the next run.
    ///
    /// # Panics
    ///
    /// Panics if `g`'s universe differs from [`Self::universe`] or if a
    /// source is not contained in `g`.
    pub fn run<G: GraphRef>(&mut self, g: &G, sources: &[NodeId]) {
        self.search(g, sources, None, INFINITY);
    }

    /// Runs Dijkstra from `source` over `g` and stops as soon as `target`
    /// is settled; vertices farther than `limit` are never reached, so a
    /// `target` beyond `limit` (or unreachable) ends the search once
    /// nothing within `limit` is left and reads as `None`.
    ///
    /// `target`'s distance, and the parent of every vertex on its
    /// shortest-path chain, are exactly those a full [`Self::run`] from
    /// `source` computes. Edge weights are `≥ 1`, so a vertex settled
    /// after `target` has distance `≥ dist(target)` and any relaxation
    /// it makes costs at least `dist(target) + 1`: it can neither
    /// shorten nor re-tie a vertex at distance `≤ dist(target)`.
    /// Vertices off that chain may hold tentative values.
    ///
    /// # Panics
    ///
    /// As [`Self::run`].
    pub fn run_to<G: GraphRef>(&mut self, g: &G, source: NodeId, target: NodeId, limit: Weight) {
        self.search(g, &[source], Some(target), limit);
    }

    /// The one Dijkstra loop behind every entry point: settles vertices
    /// in `(distance, id)` order, never reaches a vertex farther than
    /// `limit`, and stops once `target` (if any) is settled.
    fn search<G: GraphRef>(
        &mut self,
        g: &G,
        sources: &[NodeId],
        target: Option<NodeId>,
        limit: Weight,
    ) {
        assert_eq!(
            g.universe(),
            self.dist.len(),
            "scratch sized for a different universe"
        );
        psep_obs::counter!("graph.dijkstra.invocations").incr();
        self.clear();
        self.heap.clear();
        for &s in sources {
            assert!(g.contains_node(s), "source {s:?} not in graph");
            if self.dist[s.index()] != 0 {
                self.dist[s.index()] = 0;
                self.touched.push(s.0);
                self.heap.push(Reverse((0, s.0)));
            }
        }
        // Relaxations accumulate locally; one atomic add at the end keeps
        // the hot loop free of shared-cache-line traffic.
        let mut relaxed: u64 = 0;
        let mut pops: u64 = 0;
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = NodeId(u);
            if d > self.dist[u.index()] {
                continue; // stale entry
            }
            pops += 1;
            if Some(u) == target {
                break;
            }
            for e in g.neighbors(u) {
                relaxed += 1;
                let nd = d.saturating_add(e.weight);
                if nd > limit {
                    continue;
                }
                let entry = &mut self.dist[e.to.index()];
                // (dist, id) min-heap plus the smaller-parent tie-break
                // give deterministic trees
                if nd < *entry || (nd == *entry && self.parent[e.to.index()].is_some_and(|p| u < p))
                {
                    if *entry == INFINITY {
                        self.touched.push(e.to.0);
                    }
                    *entry = nd;
                    self.parent[e.to.index()] = Some(u);
                    self.heap.push(Reverse((nd, e.to.0)));
                }
            }
        }
        psep_obs::counter!("graph.dijkstra.edges_relaxed").add(relaxed);
        psep_obs::histogram!("graph.dijkstra.pops").record(pops);
    }

    /// The last run's arrays as an owned [`ShortestPaths`].
    fn into_paths(self) -> ShortestPaths {
        ShortestPaths {
            dist: self.dist,
            parent: self.parent,
        }
    }

    /// Distance from the closest source of the last run, or `None` if
    /// unreachable.
    #[inline]
    pub fn dist(&self, v: NodeId) -> Option<Weight> {
        let d = self.dist[v.index()];
        (d != INFINITY).then_some(d)
    }

    /// Raw distance array of the last run; unreachable is [`INFINITY`].
    #[inline]
    pub fn dist_raw(&self) -> &[Weight] {
        &self.dist
    }

    /// Parent of `v` in the last run's shortest-path forest.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.index()]
    }

    /// Vertices the last run reached, with their distances, in discovery
    /// order (sources first). Cheap: proportional to the reached set,
    /// not the universe.
    pub fn reached(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.touched
            .iter()
            .map(|&t| (NodeId(t), self.dist[t as usize]))
    }
}

/// Exact distance between two vertices, or `None` if disconnected.
pub fn distance<G: GraphRef>(g: &G, u: NodeId, v: NodeId) -> Option<Weight> {
    dijkstra_to(g, u, v).dist(v)
}

/// Cost of a vertex path under `g`'s edge weights, or `None` if some
/// consecutive pair is not an edge of `g`.
pub fn path_cost<G: GraphRef>(g: &G, path: &[NodeId]) -> Option<Weight> {
    let mut total = 0;
    for w in path.windows(2) {
        let weight = g.neighbors(w[0]).find(|e| e.to == w[1]).map(|e| e.weight)?;
        total += weight;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::view::{NodeMask, SubgraphView};

    fn weighted_diamond() -> Graph {
        // 0 -1- 1 -1- 3,   0 -5- 2 -1- 3
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(1), NodeId(3), 1);
        g.add_edge(NodeId(0), NodeId(2), 5);
        g.add_edge(NodeId(2), NodeId(3), 1);
        g
    }

    #[test]
    fn single_source_distances() {
        let g = weighted_diamond();
        let sp = dijkstra(&g, &[NodeId(0)]);
        assert_eq!(sp.dist(NodeId(0)), Some(0));
        assert_eq!(sp.dist(NodeId(1)), Some(1));
        assert_eq!(sp.dist(NodeId(3)), Some(2));
        assert_eq!(sp.dist(NodeId(2)), Some(3)); // via 3, not the weight-5 edge
    }

    #[test]
    fn path_extraction_matches_distance() {
        let g = weighted_diamond();
        let sp = dijkstra(&g, &[NodeId(0)]);
        let p = sp.path_to(NodeId(2)).unwrap();
        assert_eq!(p.first(), Some(&NodeId(0)));
        assert_eq!(p.last(), Some(&NodeId(2)));
        assert_eq!(path_cost(&g, &p), Some(3));
    }

    #[test]
    fn multi_source_takes_closest() {
        let g = weighted_diamond();
        let sp = dijkstra(&g, &[NodeId(1), NodeId(2)]);
        assert_eq!(sp.dist(NodeId(0)), Some(1));
        assert_eq!(sp.dist(NodeId(3)), Some(1));
        assert_eq!(sp.root_of(NodeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn respects_mask() {
        let g = weighted_diamond();
        let mut mask = NodeMask::all(4);
        mask.remove(NodeId(1));
        let view = SubgraphView::new(&g, &mask);
        let sp = dijkstra(&view, &[NodeId(0)]);
        assert_eq!(sp.dist(NodeId(3)), Some(6)); // forced through the 5-edge
        assert!(!sp.reached(NodeId(1)));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1), 1);
        let sp = dijkstra(&g, &[NodeId(0)]);
        assert_eq!(sp.dist(NodeId(2)), None);
        assert_eq!(sp.path_to(NodeId(2)), None);
    }

    #[test]
    fn limit_prunes_far_vertices() {
        let g = weighted_diamond();
        let sp = dijkstra_with_limit(&g, &[NodeId(0)], 1);
        assert!(sp.reached(NodeId(1)));
        assert!(!sp.reached(NodeId(2)));
    }

    #[test]
    fn early_exit_target_exact() {
        let g = weighted_diamond();
        let sp = dijkstra_to(&g, NodeId(0), NodeId(3));
        assert_eq!(sp.dist(NodeId(3)), Some(2));
        assert_eq!(distance(&g, NodeId(0), NodeId(2)), Some(3));
    }

    #[test]
    fn scratch_matches_fresh_dijkstra_across_reuses() {
        let g = weighted_diamond();
        let mut scratch = DijkstraScratch::new(4);
        assert_eq!(scratch.universe(), 4);
        // reuse the same scratch over different sources and views; every
        // run must agree with an allocating dijkstra() call
        for round in 0..3 {
            for s in 0..4u32 {
                let src = NodeId(s);
                scratch.run(&g, &[src]);
                let fresh = dijkstra(&g, &[src]);
                for v in g.nodes() {
                    assert_eq!(scratch.dist(v), fresh.dist(v), "round {round} src {s}");
                    assert_eq!(scratch.parent(v), fresh.parent(v), "round {round} src {s}");
                }
                let mut reached: Vec<_> = scratch.reached().collect();
                reached.sort_unstable();
                let mut expect: Vec<_> = fresh
                    .reached_nodes()
                    .map(|v| (v, fresh.dist(v).unwrap()))
                    .collect();
                expect.sort_unstable();
                assert_eq!(reached, expect);
            }
        }
    }

    #[test]
    fn scratch_resets_between_masked_views() {
        let g = weighted_diamond();
        let mut scratch = DijkstraScratch::new(4);
        scratch.run(&g, &[NodeId(0)]);
        assert_eq!(scratch.dist(NodeId(3)), Some(2));
        let mut mask = NodeMask::all(4);
        mask.remove(NodeId(1));
        let view = SubgraphView::new(&g, &mask);
        scratch.run(&view, &[NodeId(0)]);
        assert_eq!(scratch.dist(NodeId(3)), Some(6)); // forced through the 5-edge
        assert_eq!(scratch.dist(NodeId(1)), None); // stale entry was reset
        assert_eq!(scratch.reached().count(), 3);
    }

    #[test]
    fn resized_scratch_runs_like_a_fresh_one() {
        let g = weighted_diamond();
        let mut scratch = DijkstraScratch::new(2);
        for universe in [4, 2, 4] {
            scratch.resize(universe);
            assert_eq!(scratch.universe(), universe);
            if universe == 4 {
                scratch.run(&g, &[NodeId(3)]);
                let fresh = dijkstra(&g, &[NodeId(3)]);
                assert_eq!(scratch.dist_raw(), fresh.dist_raw());
            } else {
                assert!(scratch.dist_raw().iter().all(|&d| d == INFINITY));
            }
        }
    }

    #[test]
    #[should_panic(expected = "different universe")]
    fn scratch_rejects_wrong_universe() {
        let g = weighted_diamond();
        let mut scratch = DijkstraScratch::new(3);
        scratch.run(&g, &[NodeId(0)]);
    }

    #[test]
    fn path_cost_rejects_non_path() {
        let g = weighted_diamond();
        assert_eq!(path_cost(&g, &[NodeId(0), NodeId(3)]), None);
        assert_eq!(path_cost(&g, &[NodeId(0)]), Some(0));
    }
}
