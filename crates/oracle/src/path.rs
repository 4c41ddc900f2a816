//! Witness-path reporting: reconstruct an actual walk of the graph
//! realizing the oracle's `(1+ε)` estimate.
//!
//! A query's winning candidate is `d_J(u,p) + d_Q(p,q) + d_J(q,v)` for a
//! portal pair `(p, q)` on one separator path `Q`, where `J` is the
//! residual graph of `Q`'s `(node, group)` in the decomposition tree.
//! Each term is the cost of a real walk:
//!
//! * `d_J(u,p)` and `d_J(q,v)` are Dijkstra distances inside `J` — the
//!   exact quantity label construction stored. [`crate::label`] runs its
//!   portal Dijkstras over the local-id `ResidualGraph` of `J`, this
//!   module over `SubgraphView(g, tree.residual_mask(..))`: the same
//!   vertex set with ids in the same order (local ids ascend with the
//!   global ids), so both searches settle the same distances and break
//!   parent ties toward the same smaller id. Re-running the
//!   deterministic Dijkstra from the portal therefore reproduces the
//!   stored distance and yields a parent chain to walk.
//!   Each leg's search stops as soon as its endpoint is settled (and
//!   never reaches past the stored distance): edge weights are `≥ 1`, so
//!   no vertex settled later could change the endpoint's chain, and the
//!   walk is the one a full Dijkstra over `J` gives, at a cost that
//!   grows with the ball of radius `d_J` rather than with `|J|`;
//! * `d_Q(p,q) = |pos(p) − pos(q)|` is the along-path distance between
//!   two vertices of `Q`, realized by `Q`'s own vertex sequence (a
//!   minimum-cost path of `J` with strictly increasing prefix
//!   positions, since edge weights are `≥ 1`).
//!
//! Splicing the three legs at the portals gives a [`WitnessPath`] whose
//! summed edge weight **exactly equals** the scalar
//! [`DistanceOracle::query`] answer for the same pair — pinned by the
//! `path_equivalence` suite through `psep_testkit::PathChecker`.
//! Reconstruction is per-pair independent and fully deterministic
//! (Dijkstra breaks ties toward smaller ids), so batch reporting is
//! bit-identical to a sequential loop at every thread count.

use psep_core::decomposition::DecompositionTree;
use psep_core::separator::SepPath;
use psep_graph::dijkstra::DijkstraScratch;
use psep_graph::graph::{Graph, NodeId, Weight};
use psep_graph::view::SubgraphView;

use crate::error::Error;
use crate::label::unpack_key;
use crate::oracle::{merge_join_best, DistanceOracle};

/// A witness path: an actual walk of the graph whose summed edge weight
/// exactly equals the `(1+ε)` estimate the oracle reported for the same
/// pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessPath {
    /// The vertex sequence, source first and target last; a self-query
    /// is the single-vertex walk `[u]`.
    pub nodes: Vec<NodeId>,
    /// Total edge weight of the walk — exactly the scalar
    /// [`DistanceOracle::query`] answer.
    pub weight: Weight,
}

impl WitnessPath {
    /// Number of edges in the walk.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

impl DistanceOracle<'_> {
    /// Reconstructs a witness path for `query(u, v)`: a real walk of `g`
    /// from `u` to `v` whose weight exactly equals the reported `(1+ε)`
    /// estimate; `None` for disconnected pairs.
    ///
    /// `g` and `tree` must be the graph and decomposition tree this
    /// oracle was built over (the [`LocationService`] bundle holds all
    /// three together); detectable mismatches surface as typed errors
    /// from [`Self::try_query_path`].
    ///
    /// [`LocationService`]: ../path_separators/struct.LocationService.html
    ///
    /// # Panics
    ///
    /// Panics if a vertex id is out of range or the oracle disagrees
    /// with `g`/`tree`; [`Self::try_query_path`] returns typed errors
    /// instead.
    pub fn query_path(
        &self,
        g: &Graph,
        tree: &DecompositionTree,
        u: NodeId,
        v: NodeId,
    ) -> Option<WitnessPath> {
        self.try_query_path(g, tree, u, v)
            .expect("vertex id out of range or mismatched oracle artifacts")
    }

    /// [`Self::query_path`] with out-of-range vertex ids reported as
    /// [`Error::NodeOutOfRange`] and oracle/tree disagreements as typed
    /// wire-corruption errors — the serving entry point.
    pub fn try_query_path(
        &self,
        g: &Graph,
        tree: &DecompositionTree,
        u: NodeId,
        v: NodeId,
    ) -> Result<Option<WitnessPath>, Error> {
        let t0 = psep_obs::now_if_enabled();
        let mut scratch = DijkstraScratch::new(g.num_nodes());
        let out = self.query_path_with(g, tree, &mut scratch, u, v)?;
        psep_obs::counter!("oracle.path.invocations").incr();
        if let Some(p) = &out {
            psep_obs::histogram!("oracle.path.nodes").record(p.nodes.len() as u64);
        }
        if let Some(t0) = t0 {
            psep_obs::histogram!("oracle.path.latency_ns").record_elapsed(t0);
        }
        Ok(out)
    }

    /// [`Self::try_query_path`] against a caller-owned scratch arena and
    /// without per-query instrumentation — the batch engine's hot path
    /// (workers publish aggregated counters once per run instead).
    pub(crate) fn query_path_with(
        &self,
        g: &Graph,
        tree: &DecompositionTree,
        scratch: &mut DijkstraScratch,
        u: NodeId,
        v: NodeId,
    ) -> Result<Option<WitnessPath>, Error> {
        let lu = self.try_label(u)?;
        let lv = self.try_label(v)?;
        if u == v {
            return Ok(Some(WitnessPath {
                nodes: vec![u],
                weight: 0,
            }));
        }
        if g.num_nodes() != self.num_nodes() {
            return Err(Error::corrupt(
                "graph does not match the oracle's vertex count",
            ));
        }
        if tree.num_vertices() != g.num_nodes() {
            return Err(Error::corrupt(
                "decomposition tree does not match the graph's vertex count",
            ));
        }
        let (_stats, best) = merge_join_best(lu.entries(), lv.entries());
        let Some((weight, key, pu, pv)) = best else {
            return Ok(None);
        };
        // resolve the winning (node, group, path) to its separator path
        let (h, gi, pi) = unpack_key(key);
        let node = tree.nodes().get(h as usize).ok_or(Error::corrupt(
            "label references a missing decomposition node",
        ))?;
        let group = node
            .separator
            .groups
            .get(gi as usize)
            .ok_or(Error::corrupt("label references a missing separator group"))?;
        let path = group
            .paths
            .get(pi as usize)
            .ok_or(Error::corrupt("label references a missing separator path"))?;
        let ip = position_index(path, pu.pos)?;
        let iq = position_index(path, pv.pos)?;
        let p = path.vertices()[ip];
        let q = path.vertices()[iq];
        // the residual graph J the stored portal distances were measured
        // in: the vertex set of label construction's local-id graph, ids
        // in the same order, so distances and tie-breaks agree
        let mask = tree.residual_mask(g.num_nodes(), h as usize, gi as usize);
        if !(mask.contains(u) && mask.contains(v) && mask.contains(p) && mask.contains(q)) {
            return Err(Error::corrupt(
                "witness vertices missing from the residual graph",
            ));
        }
        let view = SubgraphView::new(g, &mask);
        let mut nodes = leg(scratch, &view, p, u, pu.dist)?; // u … p
        let leg_v = leg(scratch, &view, q, v, pv.dist)?; // v … q
                                                         // p … q along the separator path (its prefix sums realize the
                                                         // |pos(p) − pos(q)| term exactly), joints deduplicated
        if ip <= iq {
            nodes.extend_from_slice(&path.vertices()[ip + 1..=iq]);
        } else {
            nodes.extend(path.vertices()[iq..ip].iter().rev());
        }
        nodes.extend(leg_v.iter().rev().skip(1));
        Ok(Some(WitnessPath { nodes, weight }))
    }
}

/// Maps a stored portal position back to its path index. Positions are
/// strictly increasing (edge weights are `≥ 1`), so the match is unique;
/// a position no vertex has means the label and tree disagree.
fn position_index(path: &SepPath, pos: Weight) -> Result<usize, Error> {
    let (mut lo, mut hi) = (0usize, path.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if path.position(mid) < pos {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo < path.len() && path.position(lo) == pos {
        Ok(lo)
    } else {
        Err(Error::corrupt("portal position not on its separator path"))
    }
}

/// One reconstruction leg: Dijkstra from `portal` inside `view` that
/// stops as soon as `from` is settled and never reaches past the stored
/// distance, a check that the stored distance is reproduced, and a walk
/// of the parent chain from `from` back to the portal. Returns
/// `[from, …, portal]`.
///
/// The chain is the one a full residual-graph Dijkstra would give:
/// edge weights are `≥ 1`, so nothing settled after `from` can shorten
/// or re-tie `from` or any of its ancestors (see
/// [`DijkstraScratch::run_to`]). A stored distance above the true one
/// settles `from` early with the smaller value; one below it leaves
/// `from` unreached. Either way the check fails with a typed error,
/// and the search never explores beyond the stored radius.
fn leg(
    scratch: &mut DijkstraScratch,
    view: &SubgraphView<'_>,
    portal: NodeId,
    from: NodeId,
    stored: Weight,
) -> Result<Vec<NodeId>, Error> {
    scratch.run_to(view, portal, from, stored);
    if scratch.dist(from) != Some(stored) {
        return Err(Error::corrupt(
            "stored portal distance disagrees with the residual graph",
        ));
    }
    let mut out = vec![from];
    let mut cur = from;
    while let Some(parent) = scratch.parent(cur) {
        out.push(parent);
        cur = parent;
    }
    debug_assert_eq!(*out.last().unwrap(), portal);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatLabels;
    use crate::oracle::{build_oracle, OracleParams};
    use psep_core::strategy::AutoStrategy;
    use psep_graph::dijkstra::{dijkstra, path_cost};
    use psep_graph::generators::{grids, ktree, randomize_weights};

    fn build(g: &Graph, eps: f64) -> (DecompositionTree, DistanceOracle<'_>) {
        let tree = DecompositionTree::build(g, &AutoStrategy::default());
        let o = build_oracle(
            g,
            &tree,
            OracleParams {
                epsilon: eps,
                threads: 1,
            },
        );
        (tree, o)
    }

    /// The witness rebuilt from scratch: the winning candidate's two
    /// legs read off full residual-graph Dijkstras from each portal,
    /// joined by the separator path between the portals.
    fn reference_witness(
        g: &Graph,
        tree: &DecompositionTree,
        o: &DistanceOracle,
        u: NodeId,
        v: NodeId,
    ) -> Option<WitnessPath> {
        if u == v {
            return Some(WitnessPath {
                nodes: vec![u],
                weight: 0,
            });
        }
        let (_, best) = merge_join_best(o.label(u).entries(), o.label(v).entries());
        let (weight, key, pu, pv) = best?;
        let (h, gi, pi) = unpack_key(key);
        let path = &tree.nodes()[h as usize].separator.groups[gi as usize].paths[pi as usize];
        let index = |pos| (0..path.len()).find(|&i| path.position(i) == pos).unwrap();
        let (ip, iq) = (index(pu.pos), index(pv.pos));
        let mask = tree.residual_mask(g.num_nodes(), h as usize, gi as usize);
        let view = SubgraphView::new(g, &mask);
        let from_p = dijkstra(&view, &[path.vertices()[ip]]);
        let from_q = dijkstra(&view, &[path.vertices()[iq]]);
        assert_eq!(from_p.dist(u), Some(pu.dist));
        assert_eq!(from_q.dist(v), Some(pv.dist));
        let mut nodes = from_p.path_to(u).unwrap(); // p … u
        nodes.reverse();
        let along: Vec<NodeId> = if ip <= iq {
            path.vertices()[ip..=iq].to_vec()
        } else {
            path.vertices()[iq..=ip].iter().rev().copied().collect()
        };
        nodes.extend(&along[1..]);
        nodes.extend(&from_q.path_to(v).unwrap()[1..]); // q … v
        Some(WitnessPath { nodes, weight })
    }

    /// Every pair: the witness is a real walk whose weight equals the
    /// scalar query answer exactly, and it is node for node the walk the
    /// full residual-graph Dijkstras give.
    fn check_all_pairs(g: &Graph, tree: &DecompositionTree, o: &DistanceOracle) {
        for u in g.nodes() {
            let sp = dijkstra(g, &[u]);
            for v in g.nodes() {
                let est = o.query(u, v);
                let path = o.query_path(g, tree, u, v);
                assert_eq!(
                    path,
                    reference_witness(g, tree, o, u, v),
                    "{u:?}->{v:?}: witness differs from the full-Dijkstra walk"
                );
                match (est, path) {
                    (None, None) => assert_eq!(sp.dist(v), None),
                    (Some(est), Some(p)) => {
                        assert_eq!(p.nodes.first(), Some(&u), "{u:?}->{v:?}");
                        assert_eq!(p.nodes.last(), Some(&v), "{u:?}->{v:?}");
                        assert_eq!(p.weight, est, "{u:?}->{v:?}: weight != estimate");
                        assert_eq!(
                            path_cost(g, &p.nodes),
                            Some(est),
                            "{u:?}->{v:?}: not a walk of cost {est}"
                        );
                        assert!(p.weight >= sp.dist(v).unwrap(), "{u:?}->{v:?}");
                    }
                    (est, path) => panic!("{u:?}->{v:?}: query {est:?} but path {path:?}"),
                }
            }
        }
    }

    #[test]
    fn witness_paths_on_grid() {
        let g = grids::grid2d(7, 7, 1);
        let (tree, o) = build(&g, 0.25);
        check_all_pairs(&g, &tree, &o);
    }

    #[test]
    fn witness_paths_on_weighted_grid() {
        let g = randomize_weights(&grids::grid2d(6, 6, 1), 1, 9, 5);
        let (tree, o) = build(&g, 0.25);
        check_all_pairs(&g, &tree, &o);
    }

    #[test]
    fn witness_paths_on_k_tree() {
        let g = ktree::random_weighted_k_tree(40, 3, 5, 11).graph;
        let (tree, o) = build(&g, 0.5);
        check_all_pairs(&g, &tree, &o);
    }

    /// A portal distance shifted by ±1 in a label is caught by the leg
    /// check as a typed error, never a panic, a hang or a wrong walk.
    #[test]
    fn shifted_portal_distances_are_typed_errors() {
        let g = grids::grid2d(7, 7, 1);
        let (tree, o) = build(&g, 0.25);
        let (es, keys, ps, portals) = o.flat_labels().as_parts();
        for shift in [1i64, -1] {
            let mut rejected = 0;
            for u in g.nodes() {
                for v in g.nodes().filter(|&v| v != u) {
                    let (_, best) = merge_join_best(o.label(u).entries(), o.label(v).entries());
                    let (_, key, pu, _) = best.unwrap();
                    if pu.dist == 0 && shift < 0 {
                        continue; // u is its own portal
                    }
                    let (lo, hi) = (es[u.index()] as usize, es[u.index() + 1] as usize);
                    let e = lo + keys[lo..hi].binary_search(&key).unwrap();
                    let mut bad = portals.to_vec();
                    let portal = bad[ps[e] as usize..ps[e + 1] as usize]
                        .iter_mut()
                        .find(|p| **p == pu)
                        .unwrap();
                    portal.dist = portal.dist.checked_add_signed(shift).unwrap();
                    let bad = FlatLabels::from_parts(es.to_vec(), keys.to_vec(), ps.to_vec(), bad)
                        .unwrap();
                    let bad = DistanceOracle::from_flat(bad, 0.25);
                    match bad.try_query_path(&g, &tree, u, v) {
                        Err(Error::Wire(_)) => rejected += 1,
                        // +1 can hand the win to another, intact candidate
                        Ok(Some(p)) if shift > 0 => {
                            assert_eq!(Some(p.weight), bad.query(u, v), "{u:?}->{v:?}");
                            assert_eq!(path_cost(&g, &p.nodes), Some(p.weight));
                        }
                        other => panic!("{u:?}->{v:?} shift {shift}: {other:?}"),
                    }
                }
            }
            assert!(rejected > 0, "shift {shift} never reached the leg check");
        }
    }

    #[test]
    fn self_query_is_a_single_vertex_walk() {
        let g = grids::grid2d(4, 4, 1);
        let (tree, o) = build(&g, 0.5);
        assert_eq!(
            o.query_path(&g, &tree, NodeId(5), NodeId(5)),
            Some(WitnessPath {
                nodes: vec![NodeId(5)],
                weight: 0
            })
        );
    }

    #[test]
    fn disconnected_pairs_report_no_path() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        let (tree, o) = build(&g, 0.5);
        assert_eq!(o.query_path(&g, &tree, NodeId(0), NodeId(2)), None);
        let p = o.query_path(&g, &tree, NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1)]);
        assert_eq!(p.weight, 1);
        assert_eq!(p.hops(), 1);
    }

    #[test]
    fn try_query_path_rejects_out_of_range_and_mismatched_graphs() {
        let g = grids::grid2d(4, 4, 1);
        let (tree, o) = build(&g, 0.5);
        assert!(matches!(
            o.try_query_path(&g, &tree, NodeId(0), NodeId(16)),
            Err(Error::NodeOutOfRange { num_nodes: 16, .. })
        ));
        // a graph with a different vertex count is rejected, not queried
        let other = grids::grid2d(5, 5, 1);
        assert!(matches!(
            o.try_query_path(&other, &tree, NodeId(0), NodeId(1)),
            Err(Error::Wire(_))
        ));
    }
}
