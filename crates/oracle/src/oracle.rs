//! The `(1+ε)`-approximate distance oracle (Theorem 2): all labels in a
//! flat arena plus a merge-join query.

use psep_core::decomposition::DecompositionTree;
use psep_graph::graph::{Graph, NodeId, Weight, INFINITY};

use crate::error::Error;
use crate::flat::{FlatLabels, LabelRef};
use crate::label::{build_labels, unpack_key, LabelStats, PortalEntry};

/// Construction parameters for [`build_oracle`].
#[derive(Clone, Copy, Debug)]
pub struct OracleParams {
    /// Approximation parameter: queries return at most `(1+ε) · d`.
    pub epsilon: f64,
    /// Worker threads for label construction (`0` = all available
    /// threads, honouring `PSEP_THREADS`).
    pub threads: usize,
}

impl Default for OracleParams {
    fn default() -> Self {
        OracleParams {
            epsilon: 0.25,
            threads: 1,
        }
    }
}

/// The distance oracle: every vertex's label in one [`FlatLabels`]
/// arena.
///
/// Queries satisfy `d(u,v) ≤ query(u,v) ≤ (1+ε) · d(u,v)` for connected
/// pairs (`None` for disconnected pairs), because:
///
/// * every candidate `d_J(u,p) + d_Q(p,q) + d_J(q,v)` is the cost of a
///   real walk of `G` (never an underestimate);
/// * at the deepest common component the first-crossed-group argument
///   produces a candidate within `1+ε` (see the crate docs).
#[derive(Clone, Debug)]
pub struct DistanceOracle<'a> {
    flat: FlatLabels<'a>,
    epsilon: f64,
}

/// Builds the oracle for `g` over the decomposition `tree`.
///
/// # Example
///
/// ```
/// use psep_core::{DecompositionTree, AutoStrategy};
/// use psep_graph::generators::grids;
/// use psep_graph::NodeId;
/// use psep_oracle::oracle::{build_oracle, OracleParams};
///
/// let g = grids::grid2d(6, 6, 1);
/// let tree = DecompositionTree::build(&g, &AutoStrategy::default());
/// let oracle = build_oracle(&g, &tree, OracleParams { epsilon: 0.25, threads: 1 });
/// let est = oracle.query(NodeId(0), NodeId(35)).unwrap();
/// assert!((10..=12).contains(&est)); // true distance 10, ε = 0.25
/// ```
pub fn build_oracle<'a>(
    g: &Graph,
    tree: &DecompositionTree,
    params: OracleParams,
) -> DistanceOracle<'a> {
    DistanceOracle {
        flat: build_labels(g, tree, params.epsilon, params.threads),
        epsilon: params.epsilon,
    }
}

impl<'a> DistanceOracle<'a> {
    /// Builds an oracle from a label arena — one returned by
    /// [`build_labels`], or one decoded or mapped from the wire format.
    pub fn from_flat(flat: FlatLabels<'a>, epsilon: f64) -> Self {
        DistanceOracle { flat, epsilon }
    }

    /// The approximation parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The flat label arena.
    pub fn flat_labels(&self) -> &FlatLabels<'a> {
        &self.flat
    }

    /// True when the label arena is served in place from an external
    /// buffer (zero-copy mapped bundle).
    pub fn is_borrowed(&self) -> bool {
        self.flat.is_borrowed()
    }

    /// Copies any borrowed storage onto the heap, detaching the oracle
    /// from the buffer it was mapped from.
    pub fn into_owned(self) -> DistanceOracle<'static> {
        DistanceOracle {
            flat: self.flat.into_owned(),
            epsilon: self.epsilon,
        }
    }

    /// Number of vertices the oracle covers.
    pub fn num_nodes(&self) -> usize {
        self.flat.num_labels()
    }

    /// The label of `v` — what a distributed deployment would store at
    /// `v` (Theorem 2's labeling scheme).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; [`Self::try_label`] returns an
    /// error instead.
    pub fn label(&self, v: NodeId) -> LabelRef<'_> {
        self.flat.label(v)
    }

    /// The label of `v`, or [`Error::NodeOutOfRange`].
    pub fn try_label(&self, v: NodeId) -> Result<LabelRef<'_>, Error> {
        self.flat.try_label(v)
    }

    /// `(1+ε)`-approximate distance between `u` and `v`; `None` if
    /// disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range; [`Self::try_query`] returns
    /// an error instead.
    pub fn query(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.try_query(u, v).unwrap()
    }

    /// `(1+ε)`-approximate distance, with out-of-range vertex ids
    /// reported as [`Error::NodeOutOfRange`] — the serving entry point:
    /// a malformed request must not take the process down.
    pub fn try_query(&self, u: NodeId, v: NodeId) -> Result<Option<Weight>, Error> {
        let t0 = psep_obs::now_if_enabled();
        let lu = self.flat.try_label(u)?;
        let lv = self.flat.try_label(v)?;
        if u == v {
            return Ok(Some(0));
        }
        let (stats, best) = merge_join_best(lu.entries(), lv.entries());
        record_query(stats);
        if let Some(t0) = t0 {
            psep_obs::histogram!("oracle.query.latency_ns").record_elapsed(t0);
        }
        Ok(best.map(|(w, ..)| w))
    }

    /// [`Self::query`] plus the merge-join statistics of the call
    /// (candidates scanned, keys and portal tails pruned), without
    /// touching global instrumentation — the batch engine's hot path
    /// (workers publish aggregated counters once per chunk instead) and
    /// the benchmark harness's probe into the pruned production path.
    pub fn query_with_stats(&self, u: NodeId, v: NodeId) -> (Option<Weight>, JoinStats) {
        if u == v {
            return (Some(0), JoinStats::default());
        }
        let (stats, best) =
            merge_join_best(self.flat.label(u).entries(), self.flat.label(v).entries());
        (best.map(|(w, ..)| w), stats)
    }

    /// Reference query that scans every candidate of every matched key —
    /// the unpruned baseline the pruned path is tested and benchmarked
    /// against. Answers (and witnesses, see [`Self::explain_unpruned`])
    /// are provably identical to the production path; only the
    /// [`JoinStats`] differ.
    pub fn query_unpruned(&self, u: NodeId, v: NodeId) -> (Option<Weight>, JoinStats) {
        if u == v {
            return (Some(0), JoinStats::default());
        }
        let (stats, best) = merge_join_core::<_, _, false>(
            self.flat.label(u).entries(),
            self.flat.label(v).entries(),
        );
        (best.map(|(w, ..)| w), stats)
    }

    /// Like [`Self::query`] but also returns the witnessing entry and
    /// portal pair. `None` when the labels share no entry (`u == v`
    /// included: a self-query crosses no separator path).
    pub fn explain(&self, u: NodeId, v: NodeId) -> Option<(Weight, QueryWitness)> {
        let (stats, best) =
            merge_join_best(self.flat.label(u).entries(), self.flat.label(v).entries());
        record_query(stats);
        best.map(|(w, key, pu, pv)| (w, QueryWitness::new(key, pu, pv)))
    }

    /// [`Self::explain`] over the unpruned reference scan — the
    /// equivalence tests compare witnesses (winning key and portal pair)
    /// against the pruned path.
    pub fn explain_unpruned(&self, u: NodeId, v: NodeId) -> Option<(Weight, QueryWitness)> {
        let (_, best) = merge_join_core::<_, _, false>(
            self.flat.label(u).entries(),
            self.flat.label(v).entries(),
        );
        best.map(|(w, key, pu, pv)| (w, QueryWitness::new(key, pu, pv)))
    }

    /// Total space in portal entries (the `O(k/ε · n log n)` of
    /// Theorem 2).
    pub fn space_entries(&self) -> usize {
        self.flat.num_portals()
    }

    /// Label statistics.
    pub fn stats(&self) -> LabelStats {
        self.flat.stats()
    }
}

/// The witness of a query: which separator path realized the minimum and
/// through which portal pair — Theorem 2's estimate made explainable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueryWitness {
    /// Decomposition node of the crossing path.
    pub node: u32,
    /// Group index.
    pub group: u16,
    /// Path index within the group.
    pub path: u16,
    /// `d_J(u, p)` for u's portal `p`.
    pub dist_u: Weight,
    /// Along-path distance `d_Q(p, q) = |pos_u − pos_v|`.
    pub along: Weight,
    /// `d_J(v, q)` for v's portal `q`.
    pub dist_v: Weight,
    /// Position of u's portal `p` on the path (prefix-sum cost from its
    /// first vertex).
    pub pos_u: Weight,
    /// Position of v's portal `q` on the path.
    pub pos_v: Weight,
}

impl QueryWitness {
    fn new(key: u64, pu: PortalEntry, pv: PortalEntry) -> Self {
        let (node, group, path) = unpack_key(key);
        QueryWitness {
            node,
            group,
            path,
            dist_u: pu.dist,
            along: pu.pos.abs_diff(pv.pos),
            dist_v: pv.dist,
            pos_u: pu.pos,
            pos_v: pv.pos,
        }
    }
}

/// Per-query merge-join statistics: candidates actually examined, plus
/// how much work the admissible prune bounds skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Portal-pair candidates whose weight was computed.
    pub scanned: u64,
    /// Matched keys skipped whole because `min_du + min_dv ≥ best`.
    pub pruned_keys: u64,
    /// Portal pairs skipped by the per-portal tail bound
    /// `d_J(u,p) + min_dv ≥ best`.
    pub pruned_portals: u64,
}

impl JoinStats {
    /// Accumulates another query's statistics (batch workers aggregate
    /// one `JoinStats` per chunk).
    pub fn merge(&mut self, other: JoinStats) {
        self.scanned += other.scanned;
        self.pruned_keys += other.pruned_keys;
        self.pruned_portals += other.pruned_portals;
    }
}

/// `(weight, key, portal_u, portal_v)` — the minimum and its witness.
type BestCandidate = (Weight, u64, PortalEntry, PortalEntry);

/// The pruned merge-join over two label views
/// ([`LabelRef::entries`]): what every production query
/// path ([`DistanceOracle::try_query`], [`DistanceOracle::explain`],
/// [`query_label_refs`], the batch engine and the witness-path builder)
/// runs.
///
/// Returns the join statistics and the best candidate (`None` when the
/// streams share no key).
pub(crate) fn merge_join_best<'a>(
    a: impl Iterator<Item = (u64, &'a [PortalEntry])>,
    b: impl Iterator<Item = (u64, &'a [PortalEntry])>,
) -> (JoinStats, Option<BestCandidate>) {
    merge_join_core::<_, _, true>(a, b)
}

/// The merge-join core: walks two ascending `(key, portals)` streams,
/// and on each key match scans the portal-pair cross product for the
/// cheapest `d_J(u,p) + d_Q(p,q) + d_J(q,v)` candidate.
///
/// With `PRUNE` admissible lower bounds skip work that provably cannot
/// improve the running minimum: a matched key is skipped whole when
/// `min_du + min_dv ≥ best`, and a portal's scan tail when
/// `d_J(u,p) + min_dv ≥ best`, where `min_du` and `min_dv` are the
/// smallest `dist` in the two portal tails ([`INFINITY`] for an empty
/// one). The bounds come from the tails the join holds: `min_dv` once
/// per matched key, and the key test, only when there is a minimum to
/// beat, reads u's tail up to its first portal under `best − min_dv`.
/// Every skipped candidate satisfies `cand ≥ bound ≥ best`, and updates
/// use strict `<`, so the returned minimum *and* witness (first minimal
/// candidate in ascending-key scan order) are identical to the
/// `PRUNE = false` reference scan — only [`JoinStats`] differ.
///
/// Inlined into every caller: out of line, the join reaches the label
/// views through memory, and perfbench's grid query batches ran 15–22%
/// slower.
#[inline(always)]
fn merge_join_core<'a, A, B, const PRUNE: bool>(
    mut a: A,
    mut b: B,
) -> (JoinStats, Option<BestCandidate>)
where
    A: Iterator<Item = (u64, &'a [PortalEntry])>,
    B: Iterator<Item = (u64, &'a [PortalEntry])>,
{
    let mut stats = JoinStats::default();
    let mut best: Option<BestCandidate> = None;
    let (mut na, mut nb) = (a.next(), b.next());
    while let (Some((ka, pa)), Some((kb, pb))) = (na, nb) {
        match ka.cmp(&kb) {
            std::cmp::Ordering::Less => na = a.next(),
            std::cmp::Ordering::Greater => nb = b.next(),
            std::cmp::Ordering::Equal => {
                let mb = if PRUNE {
                    pb.iter().map(|pv| pv.dist).min().unwrap_or(INFINITY)
                } else {
                    0
                };
                if PRUNE {
                    if let Some((cur, ..)) = best {
                        if pa.iter().all(|pu| pu.dist.saturating_add(mb) >= cur) {
                            stats.pruned_keys += 1;
                            na = a.next();
                            nb = b.next();
                            continue;
                        }
                    }
                }
                let mut pairs: u64 = 0;
                for pu in pa {
                    if PRUNE {
                        if let Some((cur, ..)) = best {
                            if pu.dist.saturating_add(mb) >= cur {
                                stats.pruned_portals += pb.len() as u64;
                                continue;
                            }
                        }
                    }
                    for pv in pb {
                        let along = pu.pos.abs_diff(pv.pos);
                        let cand = pu.dist.saturating_add(along).saturating_add(pv.dist);
                        if best.is_none_or(|(c, ..)| cand < c) {
                            best = Some((cand, ka, *pu, *pv));
                        }
                    }
                    pairs += pb.len() as u64;
                }
                stats.scanned += pairs;
                na = a.next();
                nb = b.next();
            }
        }
    }
    (stats, best)
}

/// Publishes one query's instrumentation. Candidates accumulate locally
/// in the merge-join; the query loop is the oracle's hot path and must
/// not touch shared counters per portal pair.
fn record_query(stats: JoinStats) {
    psep_obs::counter!("oracle.query.invocations").incr();
    psep_obs::counter!("oracle.query.candidates_scanned").add(stats.scanned);
    psep_obs::counter!("oracle.query.pruned_keys").add(stats.pruned_keys);
    psep_obs::counter!("oracle.query.pruned_portals").add(stats.pruned_portals);
    psep_obs::histogram!("oracle.query.candidates").record(stats.scanned);
}

/// Label-only distance estimate — usable by any two parties holding just
/// the two labels (the distributed reading of Theorem 2). Returns
/// [`INFINITY`] when the labels share no entry.
pub fn query_label_refs(lu: LabelRef<'_>, lv: LabelRef<'_>) -> Weight {
    let (stats, best) = merge_join_best(lu.entries(), lv.entries());
    record_query(stats);
    best.map_or(INFINITY, |(w, ..)| w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::strategy::{AutoStrategy, IterativeStrategy, TreeCenterStrategy};
    use psep_core::DecompositionTree;
    use psep_graph::dijkstra::dijkstra;
    use psep_graph::generators::{grids, ktree, planar_families, special, trees};

    /// Exhaustively checks `d ≤ est ≤ (1+ε)·d` on all pairs.
    fn check_stretch(g: &Graph, oracle: &DistanceOracle, eps: f64) {
        for u in g.nodes() {
            let sp = dijkstra(g, &[u]);
            for v in g.nodes() {
                match sp.dist(v) {
                    None => assert_eq!(oracle.query(u, v), None),
                    Some(d) => {
                        let est = oracle.query(u, v).expect("connected pair");
                        assert!(est >= d, "{u:?}->{v:?}: est {est} < d {d}");
                        assert!(
                            est as f64 <= (1.0 + eps) * d as f64 + 1e-9,
                            "{u:?}->{v:?}: est {est} > (1+{eps})·{d}"
                        );
                    }
                }
            }
        }
    }

    fn build(g: &Graph, eps: f64) -> DistanceOracle<'_> {
        let tree = DecompositionTree::build(g, &AutoStrategy::default());
        build_oracle(
            g,
            &tree,
            OracleParams {
                epsilon: eps,
                threads: 1,
            },
        )
    }

    #[test]
    fn exact_on_identical_vertices() {
        let g = grids::grid2d(4, 4, 1);
        let o = build(&g, 0.5);
        assert_eq!(o.query(NodeId(5), NodeId(5)), Some(0));
    }

    #[test]
    fn stretch_on_grid() {
        let g = grids::grid2d(7, 7, 1);
        let o = build(&g, 0.25);
        check_stretch(&g, &o, 0.25);
    }

    #[test]
    fn stretch_on_weighted_grid() {
        let base = grids::grid2d(6, 6, 1);
        let g = psep_graph::generators::randomize_weights(&base, 1, 9, 5);
        let o = build(&g, 0.25);
        check_stretch(&g, &o, 0.25);
    }

    #[test]
    fn stretch_on_random_tree() {
        let g = trees::random_weighted_tree(50, 7, 3);
        let tree = DecompositionTree::build(&g, &TreeCenterStrategy);
        let o = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: 0.1,
                threads: 1,
            },
        );
        check_stretch(&g, &o, 0.1);
    }

    #[test]
    fn stretch_on_k_tree() {
        let kt = ktree::random_weighted_k_tree(40, 3, 5, 11);
        let o = build(&kt.graph, 0.5);
        check_stretch(&kt.graph, &o, 0.5);
    }

    #[test]
    fn stretch_on_planar() {
        let g = planar_families::triangulated_grid(6, 6, 9);
        let o = build(&g, 0.25);
        check_stretch(&g, &o, 0.25);
    }

    #[test]
    fn stretch_on_mesh_with_apex() {
        let g = special::mesh_with_apex(5);
        let tree = DecompositionTree::build(&g, &IterativeStrategy::default());
        let o = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: 0.25,
                threads: 1,
            },
        );
        check_stretch(&g, &o, 0.25);
    }

    #[test]
    fn coarse_epsilon_still_bounded() {
        // very loose ε keeps the guarantee d ≤ est ≤ (1+ε)d
        let g = grids::grid2d(6, 6, 1);
        let o = build(&g, 4.0);
        check_stretch(&g, &o, 4.0);
        // and uses no more space than a tight ε
        let tight = build(&g, 0.1);
        assert!(o.space_entries() <= tight.space_entries());
    }

    #[test]
    fn disconnected_pairs_return_none() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1), 1);
        g.add_edge(NodeId(2), NodeId(3), 1);
        let o = build(&g, 0.5);
        assert_eq!(o.query(NodeId(0), NodeId(2)), None);
        assert_eq!(o.query(NodeId(0), NodeId(1)), Some(1));
    }

    #[test]
    fn label_query_is_symmetric() {
        let g = grids::grid2d(5, 5, 1);
        let o = build(&g, 0.25);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(o.query(u, v), o.query(v, u));
            }
        }
    }

    #[test]
    fn explain_agrees_with_query_and_decomposes_the_estimate() {
        let g = grids::grid2d(6, 6, 1);
        let o = build(&g, 0.25);
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let est = o.query(u, v).unwrap();
                let (w_est, w) = o.explain(u, v).unwrap();
                assert_eq!(est, w_est);
                assert_eq!(w.dist_u + w.along + w.dist_v, est);
                // two labels alone give the same answer
                assert_eq!(query_label_refs(o.label(u), o.label(v)), est);
            }
        }
    }

    #[test]
    fn space_accounting() {
        let g = grids::grid2d(6, 6, 1);
        let o = build(&g, 0.25);
        let total: usize = g.nodes().map(|v| o.label(v).size()).sum();
        assert_eq!(o.space_entries(), total);
        assert!(total > 0);
    }

    #[test]
    fn try_query_rejects_out_of_range() {
        let g = grids::grid2d(4, 4, 1);
        let o = build(&g, 0.5);
        assert!(matches!(
            o.try_query(NodeId(0), NodeId(16)),
            Err(Error::NodeOutOfRange { num_nodes: 16, .. })
        ));
        assert!(matches!(
            o.try_query(NodeId(99), NodeId(0)),
            Err(Error::NodeOutOfRange { .. })
        ));
        assert_eq!(
            o.try_query(NodeId(0), NodeId(15)).unwrap(),
            o.query(NodeId(0), NodeId(15))
        );
        assert!(o.try_label(NodeId(16)).is_err());
    }
}
