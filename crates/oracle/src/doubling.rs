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

use psep_core::doubling::DoublingDecompositionTree;
use psep_graph::dijkstra::dijkstra;
use psep_graph::doubling::greedy_net;
use psep_graph::graph::{Graph, NodeId, Weight, INFINITY};
use psep_graph::metrics::diameter_estimate;
use psep_graph::view::{NodeMask, SubgraphView};

/// Construction parameters for [`build_doubling_oracle`].
#[derive(Clone, Copy, Debug)]
pub struct DoublingOracleParams {
    /// Approximation parameter: queries return at most `(1+ε)·d`.
    pub epsilon: f64,
    /// Worker threads for label construction.
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DoublingLandmark {
    /// The net point.
    pub landmark: NodeId,
    /// `d_J(v, landmark)` for the label owner `v`.
    pub dist: Weight,
}

/// A label entry: the owner's landmarks on one piece at one scale.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DoublingEntry {
    /// Decomposition node.
    pub node: u32,
    /// Group index.
    pub group: u16,
    /// Piece index within the group.
    pub piece: u16,
    /// Scale `j` (net radius `⌊ε′·2^j⌋`).
    pub scale: u8,
    /// Landmarks sorted by vertex id.
    pub landmarks: Vec<DoublingLandmark>,
}

impl DoublingEntry {
    fn key(&self) -> (u32, u16, u16, u8) {
        (self.node, self.group, self.piece, self.scale)
    }
}

/// The per-vertex label of the doubling oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DoublingLabel {
    /// Entries sorted by `(node, group, piece, scale)`.
    pub entries: Vec<DoublingEntry>,
}

impl DoublingLabel {
    /// Total stored landmarks (the label size Theorem 8 bounds by
    /// `O(τ · log n)` with `τ ≤ k(α/ε)^{O(α)}`).
    pub fn size(&self) -> usize {
        self.entries.iter().map(|e| e.landmarks.len()).sum()
    }
}

/// The `(1+ε)`-approximate doubling-separator oracle.
#[derive(Clone, Debug)]
pub struct DoublingOracle {
    labels: Vec<DoublingLabel>,
    epsilon: f64,
}

/// Builds the Theorem 8 oracle for `g` over a doubling decomposition.
pub fn build_doubling_oracle(
    g: &Graph,
    tree: &DoublingDecompositionTree,
    params: DoublingOracleParams,
) -> DoublingOracle {
    assert!(params.epsilon > 0.0, "epsilon must be positive");
    let eps_net = params.epsilon / 4.0;
    let n = g.num_nodes();
    let mut labels: Vec<DoublingLabel> = vec![DoublingLabel::default(); n];

    for (h, node) in tree.nodes().iter().enumerate() {
        for gi in 0..node.separator.groups.len() {
            let pieces = &node.separator.groups[gi];
            if pieces.is_empty() {
                continue;
            }
            // residual graph J for this group
            let mut mask = NodeMask::from_nodes(n, node.vertices.iter().copied());
            for earlier in &node.separator.groups[..gi] {
                for p in earlier {
                    mask.remove_all(p.vertices.iter().copied());
                }
            }
            let view = SubgraphView::new(g, &mask);
            let jmax = scale_count(&view);
            // nets per piece per scale, on the induced piece subgraph
            // (isometric in J, so piece distances are J distances)
            let nets: Vec<Vec<Vec<NodeId>>> = pieces
                .iter()
                .map(|piece| {
                    let (pg, back) = psep_graph::minors::induced_subgraph(g, &piece.vertices);
                    (0..=jmax)
                        .map(|j| {
                            let r = (eps_net * (1u64 << j) as f64).floor() as Weight;
                            greedy_net(&pg, r)
                                .into_iter()
                                .map(|v| back[v.index()])
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let alive: Vec<NodeId> = mask.iter().collect();
            let work = |chunk: &[NodeId]| -> Vec<(NodeId, Vec<DoublingEntry>)> {
                let mut out = Vec::with_capacity(chunk.len());
                for &v in chunk {
                    let sp = dijkstra(&view, &[v]);
                    let mut entries = Vec::new();
                    for (pi, piece_nets) in nets.iter().enumerate() {
                        for (j, net) in piece_nets.iter().enumerate() {
                            let ball = 4u64.saturating_mul(1u64 << j);
                            let mut landmarks: Vec<DoublingLandmark> = net
                                .iter()
                                .filter_map(|&p| {
                                    let d = sp.dist_raw()[p.index()];
                                    (d != INFINITY && d <= ball).then_some(DoublingLandmark {
                                        landmark: p,
                                        dist: d,
                                    })
                                })
                                .collect();
                            if !landmarks.is_empty() {
                                landmarks.sort_by_key(|l| l.landmark);
                                entries.push(DoublingEntry {
                                    node: h as u32,
                                    group: gi as u16,
                                    piece: pi as u16,
                                    scale: j as u8,
                                    landmarks,
                                });
                            }
                        }
                    }
                    out.push((v, entries));
                }
                out
            };
            let results: Vec<(NodeId, Vec<DoublingEntry>)> =
                if params.threads <= 1 || alive.len() < 64 {
                    work(&alive)
                } else {
                    let chunk_size = alive.len().div_ceil(params.threads);
                    let chunks: Vec<&[NodeId]> = alive.chunks(chunk_size).collect();
                    crossbeam::thread::scope(|s| {
                        let handles: Vec<_> = chunks
                            .into_iter()
                            .map(|c| s.spawn(move |_| work(c)))
                            .collect();
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("doubling worker panicked"))
                            .collect()
                    })
                    .expect("crossbeam scope failed")
                };
            for (v, entries) in results {
                labels[v.index()].entries.extend(entries);
            }
        }
    }
    for label in &mut labels {
        label.entries.sort_by_key(|e| e.key());
    }
    DoublingOracle {
        labels,
        epsilon: params.epsilon,
    }
}

/// Number of geometric scales needed for a residual graph: enough to
/// cover its diameter.
fn scale_count(view: &SubgraphView<'_>) -> usize {
    let diam = diameter_estimate(view).unwrap_or(1).max(1);
    // double-sweep underestimates by at most 2x; +2 covers it
    ((diam as f64).log2().ceil() as usize + 2).min(40)
}

impl DoublingOracle {
    /// The approximation parameter `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The labels (index = vertex id).
    pub fn labels(&self) -> &[DoublingLabel] {
        &self.labels
    }

    /// `(1+ε)`-approximate distance; `None` when disconnected.
    pub fn query(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        if u == v {
            return Some(0);
        }
        let (a, b) = (
            &self.labels[u.index()].entries,
            &self.labels[v.index()].entries,
        );
        let mut best = INFINITY;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].key().cmp(&b[j].key()) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // merge-join the sorted landmark lists
                    let (la, lb) = (&a[i].landmarks, &b[j].landmarks);
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
        (best != INFINITY).then_some(best)
    }

    /// Total stored landmarks across all labels.
    pub fn space_entries(&self) -> usize {
        self.labels.iter().map(|l| l.size()).sum()
    }

    /// Mean label size.
    pub fn mean_label_size(&self) -> f64 {
        if self.labels.is_empty() {
            0.0
        } else {
            self.space_entries() as f64 / self.labels.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::doubling::{DoublingDecompositionTree, GridPlaneStrategy};
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

    #[test]
    fn parallel_equals_serial() {
        // 100 vertices: the top-level residual is above the 64-vertex
        // cutoff, so threads > 1 really take the threaded branch
        let (x, y, z) = (5, 5, 4);
        let g = grids::grid3d(x, y, z);
        assert!(g.num_nodes() >= 64);
        let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (x, y, z) });
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
        for threads in [2, 4] {
            let parallel = build(threads);
            assert_eq!(parallel.labels(), serial.labels(), "threads = {threads}");
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(parallel.query(u, v), serial.query(u, v));
                }
            }
        }
    }
}
