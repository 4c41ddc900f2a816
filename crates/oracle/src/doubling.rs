//! The `(k, α)`-doubling distance oracle (Theorem 8, §5.3).
//!
//! Pieces are isometric subgraphs of low doubling dimension instead of
//! shortest paths, so the portal trick (positions along a path) no longer
//! applies. Following Talwar/Slivkins-style constructions, each piece
//! carries a hierarchy of greedy `r`-nets at geometric scales
//! `r_j = ⌊ε′·2^j⌋`; each vertex stores its distance (in the correct
//! residual graph `J`) to the net points of every scale that lie within
//! `4·2^j` of it. A query joins the two vertices' landmark lists and
//! takes `min_ℓ d_J(u,ℓ) + d_J(ℓ,v)`.
//!
//! With `ε′ = ε/4` the estimate is at most `(1+ε)·d` (crossing vertex
//! `x`, scale `2^{j*} ∈ [D, 2D)` for `D = max(d_J(u,x), d_J(v,x))`, and a
//! net point within `ε′·2^{j*}` of `x` — within both vertices' stored
//! balls), and never below `d` (each candidate is a real walk).

use psep_core::csr::{by_vertex, Emitted, KeyedCsr};
use psep_core::doubling::DoublingDecompositionTree;
use psep_core::exec::ShardObs;
use psep_graph::csr::CsrGraph;
use psep_graph::doubling::greedy_net;
use psep_graph::graph::{Graph, NodeId, Weight, INFINITY};
use psep_graph::metrics::diameter_estimate;

use crate::error::Error;

/// Construction parameters for [`build_doubling_oracle`].
#[derive(Clone, Copy, Debug)]
pub struct DoublingOracleParams {
    /// Approximation parameter: queries return at most `(1+ε)·d`.
    pub epsilon: f64,
    /// Worker threads for label construction (`0` = all available
    /// threads, honouring `PSEP_THREADS`).
    pub threads: usize,
}

impl Default for DoublingOracleParams {
    fn default() -> Self {
        DoublingOracleParams {
            epsilon: 0.5,
            threads: 1,
        }
    }
}

/// One stored landmark: a net point and the owner's distance to it in `J`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoublingLandmark {
    /// The net point.
    pub landmark: NodeId,
    /// `d_J(v, landmark)` for the label owner `v`.
    pub dist: Weight,
}

/// Packs `(node, group, piece, scale)` into 32, 12, 12 and 8 bits of
/// one `u64` that orders like the tuple. The build checks that each
/// field fits.
fn pack_key(node: usize, group: usize, piece: usize, scale: usize) -> u64 {
    ((node as u64) << 32) | ((group as u64) << 20) | ((piece as u64) << 8) | scale as u64
}

/// Inverse of [`pack_key`].
fn unpack_key(key: u64) -> (u32, u16, u16, u8) {
    let (group, piece) = ((key >> 20) as u16 & 0xfff, (key >> 8) as u16 & 0xfff);
    ((key >> 32) as u32, group, piece, key as u8)
}

/// The `(1+ε)`-approximate doubling-separator oracle.
///
/// Its labels are one [`KeyedCsr`]: each vertex's entries are keyed by
/// the packed `(node, group, piece, scale)` in ascending order, and
/// each entry's tail is its landmarks in ascending vertex order.
#[derive(Clone, Debug, PartialEq)]
pub struct DoublingOracle {
    landmarks: KeyedCsr<'static, DoublingLandmark>,
    epsilon: f64,
}

/// Builds the Theorem 8 oracle for `g` over a doubling decomposition.
///
/// One task per `(node, group)` of
/// [`psep_core::DecompositionTree::residual_pass`] searches the group's
/// local-id residual graph `J` once from every vertex of `J`; a `J`
/// large enough to outlast the other tasks fans those searches out
/// ([`psep_core::decomposition::ResidualGraph::source_ranges`]). Local ids
/// ascend with the global ids, so every distance, and the diameter
/// sweep that sets the scale count, equal those of a search over `g`
/// masked to `J` (the [`crate::label`] module docs give the argument).
/// Each range of sources emits its entries in ascending key order, and
/// [`by_vertex`] gathers the ranges' emissions in task and range order
/// into the arena, the same at every thread count.
///
/// # Panics
///
/// Panics unless `epsilon > 0`, or if a node, group, piece or scale
/// index does not fit its field of the packed key.
pub fn build_doubling_oracle(
    g: &Graph,
    tree: &DoublingDecompositionTree,
    params: DoublingOracleParams,
) -> DoublingOracle {
    assert!(params.epsilon > 0.0, "epsilon must be positive");
    const DOUBLING_OBS: ShardObs = ShardObs {
        prefix: "oracle.doubling",
        items: "groups",
        units: "landmarks",
        hist: None,
    };
    let eps_net = params.epsilon / 4.0;
    let (groups, _) = tree.residual_pass(
        g,
        params.threads,
        &DOUBLING_OBS,
        |h, gi, j, scratch, _: &mut ()| {
            let pieces = &tree.nodes()[h].separator.groups[gi];
            let jmax = scale_count(j.graph());
            let fits = u32::try_from(h).is_ok() && gi < 1 << 12 && pieces.len() <= 1 << 12;
            assert!(
                fits && jmax < 1 << 8,
                "doubling key field out of range: node {h}, group {gi}, {} pieces, {} scales",
                pieces.len(),
                jmax + 1
            );
            // nets per piece per scale, on the induced piece subgraph
            // (isometric in J, so piece distances are J distances), as
            // ascending local ids of J
            let nets: Vec<Vec<Vec<NodeId>>> = pieces
                .iter()
                .map(|piece| {
                    let (pg, back) = psep_graph::minors::induced_subgraph(g, &piece.vertices);
                    (0..=jmax)
                        .map(|s| {
                            let r = (eps_net * (1u64 << s) as f64).floor() as Weight;
                            let mut net: Vec<NodeId> = greedy_net(&pg, r)
                                .into_iter()
                                .filter_map(|v| j.local(back[v.index()]))
                                .collect();
                            net.sort_unstable();
                            net
                        })
                        .collect()
                })
                .collect();
            // per vertex of J, ascending: its landmarks in key order, one
            // part per range of sources
            let parts = j.source_ranges(g.num_nodes(), params.threads, scratch, |scratch, ls| {
                let (mut emitted, mut landmarks) = (Vec::new(), Vec::new());
                for l in ls {
                    scratch.run(j.graph(), &[NodeId::from_index(l)]);
                    for (pi, piece_nets) in nets.iter().enumerate() {
                        for (s, net) in piece_nets.iter().enumerate() {
                            let (key, ball) = (pack_key(h, gi, pi, s), 4u64.saturating_mul(1 << s));
                            let lo = landmarks.len() as u32;
                            landmarks.extend(net.iter().filter_map(|&p| {
                                let d = scratch.dist_raw()[p.index()];
                                (d != INFINITY && d <= ball).then(|| DoublingLandmark {
                                    landmark: j.global(p),
                                    dist: d,
                                })
                            }));
                            if landmarks.len() as u32 > lo {
                                emitted.push(Emitted {
                                    vertex: j.verts()[l].0,
                                    key,
                                    record: (),
                                    tail: lo..landmarks.len() as u32,
                                });
                            }
                        }
                    }
                }
                (emitted, landmarks)
            });
            let found = parts
                .iter()
                .map(|(_, landmarks)| landmarks.len() as u64)
                .sum();
            (parts, found)
        },
    );
    let parts: Vec<_> = (groups.iter())
        .flat_map(|(_, parts)| parts)
        .map(|(emitted, landmarks)| (&emitted[..], &landmarks[..]))
        .collect();
    DoublingOracle {
        landmarks: by_vertex(g.num_nodes(), &parts).0,
        epsilon: params.epsilon,
    }
}

/// Number of geometric scales needed for a residual graph: enough to
/// cover its diameter.
fn scale_count(j: &CsrGraph) -> usize {
    let diam = diameter_estimate(j).unwrap_or(1).max(1);
    // double-sweep underestimates by at most 2x; +2 covers it
    ((diam as f64).log2().ceil() as usize + 2).min(40)
}

impl DoublingOracle {
    /// The approximation parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of vertices the oracle covers.
    fn num_nodes(&self) -> usize {
        self.landmarks.num_vertices()
    }

    /// `v`'s label: its `(node, group, piece, scale)` entries in
    /// ascending order, each with its landmarks in ascending vertex
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn label(
        &self,
        v: NodeId,
    ) -> impl ExactSizeIterator<Item = ((u32, u16, u16, u8), &[DoublingLandmark])> + '_ {
        let keys = self.landmarks.keys();
        self.landmarks
            .entry_range(v.index())
            .map(move |e| (unpack_key(keys[e]), self.landmarks.tail(e)))
    }

    /// `(1+ε)`-approximate distance; `None` when disconnected.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range; [`Self::try_query`] returns
    /// an error instead.
    pub fn query(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.try_query(u, v).unwrap()
    }

    /// `(1+ε)`-approximate distance, with out-of-range vertex ids
    /// reported as [`Error::NodeOutOfRange`].
    pub fn try_query(&self, u: NodeId, v: NodeId) -> Result<Option<Weight>, Error> {
        let num_nodes = self.num_nodes();
        if let Some(node) = [u, v].into_iter().find(|x| x.index() >= num_nodes) {
            return Err(Error::NodeOutOfRange { node, num_nodes });
        }
        if u == v {
            return Ok(Some(0));
        }
        let (a, b) = (
            self.landmarks.entry_range(u.index()),
            self.landmarks.entry_range(v.index()),
        );
        let keys = self.landmarks.keys();
        let mut best = INFINITY;
        let (mut i, mut j) = (a.start, b.start);
        while i < a.end && j < b.end {
            match keys[i].cmp(&keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // merge-join the sorted landmark lists
                    let (la, lb) = (self.landmarks.tail(i), self.landmarks.tail(j));
                    let (mut x, mut y) = (0usize, 0usize);
                    while x < la.len() && y < lb.len() {
                        match la[x].landmark.cmp(&lb[y].landmark) {
                            std::cmp::Ordering::Less => x += 1,
                            std::cmp::Ordering::Greater => y += 1,
                            std::cmp::Ordering::Equal => {
                                best = best.min(la[x].dist.saturating_add(lb[y].dist));
                                x += 1;
                                y += 1;
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        Ok((best != INFINITY).then_some(best))
    }

    /// Total stored landmarks across all labels (the label size
    /// Theorem 8 bounds by `O(τ · log n)` per vertex, with
    /// `τ ≤ k(α/ε)^{O(α)}`).
    pub fn space_entries(&self) -> usize {
        self.landmarks.tails().len()
    }

    /// Mean label size.
    pub fn mean_label_size(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.space_entries() as f64 / self.num_nodes() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::doubling::{
        DoublingDecompositionTree, DoublingPiece, DoublingSeparator, GridPlaneStrategy,
    };
    use psep_core::{AutoStrategy, SeparatorStrategy};
    use psep_graph::dijkstra::dijkstra;
    use psep_graph::generators::grids;

    fn check_stretch(g: &Graph, o: &DoublingOracle, eps: f64) {
        for u in g.nodes() {
            let sp = dijkstra(g, &[u]);
            for v in g.nodes() {
                let d = sp.dist(v).expect("mesh connected");
                if u == v {
                    continue;
                }
                let est = o.query(u, v).expect("connected");
                assert!(est >= d, "{u:?}->{v:?} est {est} < d {d}");
                assert!(
                    est as f64 <= (1.0 + eps) * d as f64 + 1e-9,
                    "{u:?}->{v:?} est {est} > (1+{eps})·{d}"
                );
            }
        }
    }

    #[test]
    fn stretch_on_3d_mesh() {
        let (x, y, z) = (4, 4, 4);
        let g = grids::grid3d(x, y, z);
        let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (x, y, z) });
        let o = build_doubling_oracle(
            &g,
            &tree,
            DoublingOracleParams {
                epsilon: 0.5,
                threads: 1,
            },
        );
        check_stretch(&g, &o, 0.5);
    }

    #[test]
    fn tighter_epsilon_tighter_answers() {
        let (x, y, z) = (4, 4, 3);
        let g = grids::grid3d(x, y, z);
        let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (x, y, z) });
        let o = build_doubling_oracle(
            &g,
            &tree,
            DoublingOracleParams {
                epsilon: 0.25,
                threads: 1,
            },
        );
        check_stretch(&g, &o, 0.25);
    }

    /// Path separators read as `(k, 1)`-doubling separators, each path
    /// one piece, so a doubling tree exists for every graph family.
    struct PathPieces;

    impl SeparatorStrategy<DoublingSeparator> for PathPieces {
        fn separate(&self, g: &Graph, component: &[NodeId]) -> DoublingSeparator {
            let paths = AutoStrategy::default().separate(g, component);
            let piece = |path: &psep_core::SepPath| {
                let mut vertices = path.vertices().to_vec();
                vertices.sort_unstable();
                DoublingPiece { vertices }
            };
            DoublingSeparator {
                groups: (paths.groups.iter())
                    .map(|group| group.paths.iter().map(piece).collect())
                    .collect(),
            }
        }

        fn name(&self) -> &'static str {
            "path-pieces"
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let (x, y, z) = (5, 5, 4);
        let mesh = grids::grid3d(x, y, z);
        let plane = DoublingDecompositionTree::build(&mesh, &GridPlaneStrategy { dims: (x, y, z) });
        let families = psep_testkit::equivalence_families()
            .into_iter()
            .map(|(name, g)| {
                let tree = DoublingDecompositionTree::build(&g, &PathPieces);
                (name, g, tree)
            });
        for (name, g, tree) in std::iter::once(("mesh", mesh, plane)).chain(families) {
            let build = |threads| {
                build_doubling_oracle(
                    &g,
                    &tree,
                    DoublingOracleParams {
                        epsilon: 0.5,
                        threads,
                    },
                )
            };
            let serial = build(1);
            for threads in [2, 3, 4, 8] {
                let parallel = build(threads);
                assert_eq!(parallel, serial, "{name}: threads = {threads}");
            }
        }
    }

    #[test]
    fn try_query_rejects_out_of_range() {
        let g = grids::grid3d(3, 3, 2);
        let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (3, 3, 2) });
        let o = build_doubling_oracle(&g, &tree, DoublingOracleParams::default());
        assert!(matches!(
            o.try_query(NodeId(0), NodeId(18)),
            Err(Error::NodeOutOfRange {
                node: NodeId(18),
                num_nodes: 18
            })
        ));
        assert!(matches!(
            o.try_query(NodeId(99), NodeId(99)),
            Err(Error::NodeOutOfRange { .. })
        ));
        assert_eq!(
            o.try_query(NodeId(0), NodeId(17)).unwrap(),
            o.query(NodeId(0), NodeId(17))
        );
    }
}
