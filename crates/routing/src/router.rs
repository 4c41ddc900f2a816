//! The routing simulator: plan selection, message forwarding, and batch
//! routing.

use psep_core::exec::{ShardObs, ShardedRunner};
use psep_graph::graph::{Graph, NodeId, Weight};

use crate::error::Error;
use crate::tables::{RouteKey, RoutingLabel, RoutingTables};

/// Metric names for batch routing.
const ROUTE_OBS: ShardObs = ShardObs {
    prefix: "routing.batch",
    items: "routes",
    units: "hops",
    hist: Some("hops"),
};

/// The result of routing one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteOutcome {
    /// The full vertex route, starting at the source and ending at the
    /// target.
    pub route: Vec<NodeId>,
    /// Total edge cost of the route.
    pub cost: Weight,
    /// Number of hops.
    pub hops: usize,
}

/// A compact router: per-vertex tables plus the target's label drive
/// forwarding decisions; the simulator executes the three phases
/// (climb to the path, walk along it, descend the tree).
///
/// # Example
///
/// ```
/// use psep_core::{DecompositionTree, AutoStrategy};
/// use psep_graph::generators::grids;
/// use psep_graph::NodeId;
/// use psep_routing::{Router, RoutingTables};
///
/// let g = grids::grid2d(5, 5, 1);
/// let tree = DecompositionTree::build(&g, &AutoStrategy::default());
/// let router = Router::new(&g, RoutingTables::build(&g, &tree));
/// let address = router.label(NodeId(24));
/// let out = router.route(NodeId(0), NodeId(24), &address).unwrap();
/// assert_eq!(*out.route.last().unwrap(), NodeId(24));
/// assert!(out.cost >= 8); // true distance 8
/// ```
#[derive(Clone, Debug)]
pub struct Router<'a> {
    graph: std::sync::Arc<Graph>,
    tables: RoutingTables<'a>,
}

impl<'a> Router<'a> {
    /// Builds a router over `g` with precomputed `tables`.
    pub fn new(g: &Graph, tables: RoutingTables<'a>) -> Self {
        Router {
            graph: std::sync::Arc::new(g.clone()),
            tables,
        }
    }

    /// Builds a router sharing an already-`Arc`'d graph with other
    /// components (no clone of the adjacency arrays).
    pub fn with_shared(graph: std::sync::Arc<Graph>, tables: RoutingTables<'a>) -> Self {
        Router { graph, tables }
    }

    /// The tables (e.g. for size accounting).
    pub fn tables(&self) -> &RoutingTables<'a> {
        &self.tables
    }

    /// `true` when the table arenas borrow from an external buffer.
    pub fn is_borrowed(&self) -> bool {
        self.tables.is_borrowed()
    }

    /// Copies any borrowed table arenas so the router owns its data.
    pub fn into_owned(self) -> Router<'static> {
        Router {
            graph: self.graph,
            tables: self.tables.into_owned(),
        }
    }

    /// The graph the router forwards over.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The routing label (address) of `v`.
    pub fn label(&self, v: NodeId) -> RoutingLabel {
        self.tables.label(v)
    }

    /// Selects the cheapest plan from `u` to the holder of `label_t`:
    /// the key and exact route cost `d(u,Q) + d_Q(x_u, x_t) + d(t,Q)`,
    /// minimized over shared paths. `None` when no path is shared
    /// (different components).
    pub fn plan(&self, u: NodeId, label_t: &RoutingLabel) -> Option<(RouteKey, Weight)> {
        let table = self.tables.table(u);
        let mut best: Option<(RouteKey, Weight)> = None;
        for e in &label_t.entries {
            if let Some(info) = table.get(e.key) {
                let cost = info
                    .dist()
                    .saturating_add(info.entry_pos().abs_diff(e.entry_pos))
                    .saturating_add(e.dist);
                if best.is_none_or(|(_, c)| cost < c) {
                    best = Some((e.key, cost));
                }
            }
        }
        best
    }

    /// Routes a message from `u` to `t` (whose label the caller supplies,
    /// playing the role of the address on the envelope). Returns `None`
    /// when `u` and `t` share no decomposition path (disconnected).
    ///
    /// Delivery is guaranteed for connected pairs, and the executed cost
    /// equals the plan cost.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `t` is out of range, or if the tables disagree
    /// with the graph (tables from a corrupt or foreign bundle);
    /// [`Self::try_route`] returns an error for both instead.
    pub fn route(&self, u: NodeId, t: NodeId, label_t: &RoutingLabel) -> Option<RouteOutcome> {
        self.walk(u, t, label_t)
            .unwrap_or_else(|e| panic!("route {u:?}->{t:?}: {e}"))
    }

    /// [`Self::route`] with both endpoints validated first; a bad
    /// request is an [`Error::NodeOutOfRange`], and tables that disagree
    /// with the graph are an [`Error::Wire`], not a panic.
    pub fn try_route(
        &self,
        u: NodeId,
        t: NodeId,
        label_t: &RoutingLabel,
    ) -> Result<Option<RouteOutcome>, Error> {
        let n = self.tables.num_nodes();
        for node in [u, t] {
            if node.index() >= n {
                return Err(Error::NodeOutOfRange { node, num_nodes: n });
            }
        }
        self.walk(u, t, label_t)
    }

    /// The one forwarding walk behind every route: climb to the planned
    /// path, walk along it, descend by interval routing. Every step is
    /// checked against the tables and the graph, so tables that do not
    /// describe the graph end the walk with a corrupt-data error rather
    /// than a panic or an endless loop: a valid route takes at most
    /// `n − 1` hops per phase, so `3n` hops bound the whole walk.
    fn walk(
        &self,
        u: NodeId,
        t: NodeId,
        label_t: &RoutingLabel,
    ) -> Result<Option<RouteOutcome>, Error> {
        let t0 = psep_obs::now_if_enabled();
        let out = 'walk: {
            if u == t {
                break 'walk Some(RouteOutcome {
                    route: vec![u],
                    cost: 0,
                    hops: 0,
                });
            }
            let Some((key, _planned)) = self.plan(u, label_t) else {
                break 'walk None;
            };
            let target_entry = label_t
                .entries
                .iter()
                .find(|e| e.key == key)
                .expect("plan key comes from the label");
            let entry = |v: NodeId| {
                self.tables
                    .table(v)
                    .get(key)
                    .ok_or(Error::corrupt("route left the tree of its path"))
            };
            let max_hops = 3 * self.tables.num_nodes();
            let mut route = vec![u];
            let mut cost: Weight = 0;
            let mut cur = u;
            let mut step = |cur: &mut NodeId, next: Option<NodeId>| -> Result<(), Error> {
                let next = next.ok_or(Error::corrupt("route step has no next vertex"))?;
                let w = self
                    .graph
                    .edge_weight(*cur, next)
                    .ok_or(Error::corrupt("route step is not an edge"))?;
                if route.len() > max_hops {
                    return Err(Error::corrupt("route does not reach its target"));
                }
                cost = cost
                    .checked_add(w)
                    .ok_or(Error::corrupt("route cost overflows"))?;
                *cur = next;
                route.push(next);
                Ok(())
            };

            // Phase A: climb to the path along T_Q parents.
            loop {
                let info = entry(cur)?;
                if info.on_path().is_some() {
                    break;
                }
                step(&mut cur, info.parent())?;
            }

            // Phase B: walk along Q to the target's entry position.
            loop {
                let op = entry(cur)?
                    .on_path()
                    .ok_or(Error::corrupt("route left its path"))?;
                if op.pos == target_entry.entry_pos {
                    break;
                }
                let next = if op.pos < target_entry.entry_pos {
                    op.next
                } else {
                    op.prev
                };
                step(&mut cur, next)?;
            }

            // Phase C: descend T_Q by interval routing to dfs(t).
            while cur != t {
                let child = entry(cur)?.children().iter().copied().find(|&c| {
                    entry(c).is_ok_and(|ci| {
                        ci.dfs() <= target_entry.dfs && target_entry.dfs < ci.subtree_end()
                    })
                });
                step(&mut cur, child)?;
            }

            Some(RouteOutcome {
                hops: route.len() - 1,
                route,
                cost,
            })
        };
        if let Some(o) = &out {
            psep_obs::histogram!("routing.route.hops").record(o.hops as u64);
        }
        if let Some(t0) = t0 {
            psep_obs::histogram!("routing.route.latency_ns").record_elapsed(t0);
        }
        Ok(out)
    }

    /// Routes every `(u, t)` pair, in input order, over `threads`
    /// workers (`0` means the machine's available parallelism, honoring
    /// `PSEP_THREADS`) — bit-identical to a sequential [`Self::route`]
    /// loop with each target's own label.
    ///
    /// # Panics
    ///
    /// Panics if any vertex id is out of range, or if the tables
    /// disagree with the graph; use [`Self::try_route_many`] to get an
    /// error instead.
    pub fn route_many_with(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<RouteOutcome>> {
        self.walk_many(pairs, threads)
            .unwrap_or_else(|e| panic!("route_many: {e}"))
    }

    /// [`Self::route_many_with`] at available parallelism, with every
    /// vertex id validated first and tables that disagree with the
    /// graph reported as an [`Error::Wire`].
    pub fn try_route_many(
        &self,
        pairs: &[(NodeId, NodeId)],
    ) -> Result<Vec<Option<RouteOutcome>>, Error> {
        let n = self.tables.num_nodes();
        for &(u, t) in pairs {
            for node in [u, t] {
                if node.index() >= n {
                    return Err(Error::NodeOutOfRange { node, num_nodes: n });
                }
            }
        }
        self.walk_many(pairs, 0)
    }

    /// Runs [`Self::walk`] over `pairs` on sharded workers, in input
    /// order; the first failed walk (in input order) is the error.
    fn walk_many(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Result<Vec<Option<RouteOutcome>>, Error> {
        psep_obs::counter!("routing.batch.runs").incr();
        let runner = ShardedRunner::new(threads).min_chunk(64);
        let mut scratches = vec![(); runner.worker_count(pairs.len())];
        let (outcomes, _) = runner.run(pairs, Some(&ROUTE_OBS), &mut scratches, |_, &(u, t)| {
            let out = self.walk(u, t, &self.tables.label(t));
            let hops = match &out {
                Ok(Some(o)) => o.hops as u64,
                _ => 0,
            };
            (out, hops)
        });
        outcomes.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::RoutingTables;
    use psep_core::strategy::{AutoStrategy, IterativeStrategy};
    use psep_core::DecompositionTree;
    use psep_graph::dijkstra::dijkstra;
    use psep_graph::generators::{grids, ktree, planar_families, special, trees};

    fn check_all_pairs(g: &Graph, max_stretch: f64) -> f64 {
        let tree = DecompositionTree::build(g, &AutoStrategy::default());
        let tables = RoutingTables::build(g, &tree);
        let router = Router::new(g, tables);
        let labels: Vec<RoutingLabel> = g.nodes().map(|v| router.label(v)).collect();
        let mut worst: f64 = 1.0;
        for u in g.nodes() {
            let sp = dijkstra(g, &[u]);
            for t in g.nodes() {
                if u == t {
                    continue;
                }
                let d = sp.dist(t).expect("connected");
                let out = router
                    .route(u, t, &labels[t.index()])
                    .expect("connected pair must route");
                assert_eq!(*out.route.first().unwrap(), u);
                assert_eq!(*out.route.last().unwrap(), t);
                // route must consist of real edges (edge_weight panics
                // otherwise) and cost at least the distance
                assert!(out.cost >= d);
                let stretch = out.cost as f64 / d as f64;
                worst = worst.max(stretch);
                assert!(
                    stretch <= max_stretch + 1e-9,
                    "{u:?}->{t:?} stretch {stretch}"
                );
            }
        }
        worst
    }

    #[test]
    fn delivers_on_grid_with_bounded_stretch() {
        let g = grids::grid2d(7, 7, 1);
        let worst = check_all_pairs(&g, 3.0);
        assert!(worst >= 1.0);
    }

    #[test]
    fn delivers_on_tree_exactly() {
        let g = trees::random_tree(40, 6);
        // on a tree every plan walks tree paths; stretch can exceed 1
        // (via the separator vertex) but must stay within 3
        check_all_pairs(&g, 3.0);
    }

    #[test]
    fn delivers_on_weighted_k_tree() {
        let kt = ktree::random_weighted_k_tree(35, 2, 5, 4);
        check_all_pairs(&kt.graph, 3.0);
    }

    #[test]
    fn delivers_on_planar() {
        let g = planar_families::triangulated_grid(6, 6, 2);
        check_all_pairs(&g, 3.0);
    }

    #[test]
    fn delivers_on_mesh_with_apex() {
        let g = special::mesh_with_apex(5);
        let tree = DecompositionTree::build(&g, &IterativeStrategy::default());
        let tables = RoutingTables::build(&g, &tree);
        let router = Router::new(&g, tables);
        for u in g.nodes() {
            for t in g.nodes() {
                let out = router.route(u, t, &router.label(t)).expect("connected");
                assert_eq!(*out.route.last().unwrap(), t);
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        let g = grids::grid2d(3, 3, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let router = Router::new(&g, RoutingTables::build(&g, &tree));
        let out = router
            .route(NodeId(4), NodeId(4), &router.label(NodeId(4)))
            .unwrap();
        assert_eq!(out.hops, 0);
        assert_eq!(out.cost, 0);
    }

    #[test]
    fn disconnected_returns_none() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let router = Router::new(&g, RoutingTables::build(&g, &tree));
        assert!(router
            .route(NodeId(0), NodeId(2), &router.label(NodeId(2)))
            .is_none());
    }

    #[test]
    fn route_many_matches_sequential_routes() {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let router = Router::new(&g, RoutingTables::build(&g, &tree));
        let pairs: Vec<(NodeId, NodeId)> = (0..36u32)
            .flat_map(|u| (0..36u32).map(move |t| (NodeId(u), NodeId(t))))
            .collect();
        let sequential: Vec<_> = pairs
            .iter()
            .map(|&(u, t)| router.route(u, t, &router.label(t)))
            .collect();
        for threads in [1, 2, 4] {
            assert_eq!(
                router.route_many_with(&pairs, threads),
                sequential,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn try_route_rejects_out_of_range() {
        let g = grids::grid2d(4, 4, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let router = Router::new(&g, RoutingTables::build(&g, &tree));
        let label = router.label(NodeId(3));
        assert!(matches!(
            router.try_route(NodeId(99), NodeId(3), &label),
            Err(Error::NodeOutOfRange { num_nodes: 16, .. })
        ));
        assert!(matches!(
            router.try_route_many(&[(NodeId(0), NodeId(77))]),
            Err(Error::NodeOutOfRange { num_nodes: 16, .. })
        ));
        assert_eq!(
            router.try_route(NodeId(0), NodeId(3), &label).unwrap(),
            router.route(NodeId(0), NodeId(3), &label)
        );
    }

    #[test]
    fn tables_that_disagree_with_the_graph_are_typed_errors() {
        let g = grids::grid2d(4, 4, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        // the grid's tables over an edgeless graph on the same vertices:
        // every forwarding step leaves the graph
        let router = Router::new(&Graph::new(16), RoutingTables::build(&g, &tree));
        let label = router.label(NodeId(15));
        assert!(matches!(
            router.try_route(NodeId(0), NodeId(15), &label),
            Err(Error::Wire(_))
        ));
        assert!(matches!(
            router.try_route_many(&[(NodeId(5), NodeId(5)), (NodeId(0), NodeId(15))]),
            Err(Error::Wire(_))
        ));
        // a route that takes no step never touches the graph
        assert!(router
            .try_route(NodeId(5), NodeId(5), &router.label(NodeId(5)))
            .is_ok());
    }
}
