//! The paper's augmentation distribution (Definitions 3–4) over a
//! decomposition tree.

use psep_core::decomposition::{DecompositionTree, ResidualGraph};
use psep_core::exec::{ShardObs, ShardedRunner};
use psep_graph::dijkstra::DijkstraScratch;
use psep_graph::graph::{Graph, NodeId, INFINITY};

use crate::landmarks::select_landmarks_by;

const AUGMENT_OBS: ShardObs = ShardObs {
    prefix: "smallworld.augment",
    items: "sources",
    units: "landmarks",
    hist: None,
};

/// One level of a vertex's distribution: the paths of `S(H_τ(v))`, each
/// with the vertex's Claim 1 landmark list (empty if the path is
/// unreachable in its residual graph).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelChoices {
    /// Per path of the level's separator: the landmark vertex ids.
    pub paths: Vec<Vec<NodeId>>,
}

/// The augmentation distribution `𝒟`: for each vertex, per chain level,
/// per separator path, the Claim 1 landmark set.
///
/// Sampling (`sample_contact`) follows the paper exactly: uniform level
/// `τ`, uniform path `Q` of `S(H_τ(v))`, uniform landmark of `L(Q)`;
/// when the chosen path has no landmarks (unreachable in `J`), no
/// long-range edge is added for that trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Augmentation {
    per_vertex: Vec<Vec<LevelChoices>>,
}

/// Builds the distribution for `g` over `tree`. `log_delta` should be
/// `⌈log₂ Δ⌉` for the aspect ratio `Δ` of `g` (the number of geometric
/// landmark scales).
///
/// Node-major construction: one Dijkstra per (alive vertex, node, group),
/// exactly like label construction. Equivalent to
/// [`build_augmentation_with`] at one thread.
///
/// # Example
///
/// ```
/// use psep_core::{DecompositionTree, AutoStrategy};
/// use psep_graph::generators::grids;
/// use psep_graph::NodeId;
/// use psep_smallworld::build_augmentation;
/// use rand::SeedableRng;
///
/// let g = grids::grid2d(6, 6, 1);
/// let tree = DecompositionTree::build(&g, &AutoStrategy::default());
/// let aug = build_augmentation(&g, &tree, 4);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// // some sampled contact exists for every vertex
/// assert!((0..50).any(|_| aug.sample_contact(NodeId(0), &mut rng).is_some()));
/// ```
pub fn build_augmentation(g: &Graph, tree: &DecompositionTree, log_delta: u32) -> Augmentation {
    build_augmentation_with(g, tree, log_delta, 1)
}

/// [`build_augmentation`] with an explicit worker count (`0` = all
/// available threads, honouring `PSEP_THREADS`).
///
/// Each `(node, group)`'s residual graph `J` is filled once as a
/// local-id graph ([`DecompositionTree::residual_graph`]), and each
/// worker's Dijkstra arena is sized to `J`. Local ids ascend with the
/// global ids, so every distance equals that of a search over `g`
/// masked to `J`. The per-source Dijkstra runs are sharded over a
/// [`ShardedRunner`] and merged in input order, so the resulting
/// distribution is **identical** at every thread count (and to the
/// sequential build).
pub fn build_augmentation_with(
    g: &Graph,
    tree: &DecompositionTree,
    log_delta: u32,
    threads: usize,
) -> Augmentation {
    let n = g.num_nodes();
    // chain level of each node per vertex: level index within the chain
    // is the node's depth (chains follow parent pointers), so per-vertex
    // storage is indexed by depth.
    let mut per_vertex: Vec<Vec<LevelChoices>> = (0..n)
        .map(|i| {
            let v = NodeId::from_index(i);
            let chain = tree.chain_of(v);
            chain
                .iter()
                .map(|&node_idx| LevelChoices {
                    paths: tree
                        .node(node_idx)
                        .separator
                        .groups
                        .iter()
                        .flat_map(|gr| gr.paths.iter())
                        .map(|_| Vec::new())
                        .collect(),
                })
                .collect()
        })
        .collect();

    let runner = ShardedRunner::new(threads);
    let mut scratches: Vec<DijkstraScratch> = (0..runner.threads())
        .map(|_| DijkstraScratch::new(0))
        .collect();
    let mut j = ResidualGraph::default();
    for (h, node) in tree.nodes().iter().enumerate() {
        // flattened path index offset per group
        let mut flat_offset: Vec<usize> = Vec::with_capacity(node.separator.num_groups());
        let mut acc = 0;
        for gr in &node.separator.groups {
            flat_offset.push(acc);
            acc += gr.paths.len();
        }
        #[allow(clippy::needless_range_loop)] // gi also names the group in emitted entries
        for gi in 0..node.separator.num_groups() {
            let paths = &node.separator.groups[gi].paths;
            if paths.is_empty() {
                continue;
            }
            tree.residual_graph(g, h, gi, &mut j);
            for scratch in &mut scratches {
                scratch.resize(j.len());
            }
            // each path vertex's local id, `None` where an earlier group
            // removed it from J
            let path_locals: Vec<Vec<Option<NodeId>>> = paths
                .iter()
                .map(|q| q.vertices().iter().map(|&x| j.local(x)).collect())
                .collect();
            let locals: Vec<NodeId> = (0..j.len()).map(NodeId::from_index).collect();
            let jg = j.graph();
            let (results, _) = runner.run(
                &locals,
                Some(&AUGMENT_OBS),
                &mut scratches,
                |scratch, &v| {
                    scratch.run(jg, &[v]);
                    let mut per_path: Vec<Vec<NodeId>> = Vec::with_capacity(paths.len());
                    let mut found = 0u64;
                    for (q, ids) in paths.iter().zip(&path_locals) {
                        let dist_at =
                            |i: usize| ids[i].map_or(INFINITY, |l| scratch.dist_raw()[l.index()]);
                        let lm = select_landmarks_by(dist_at, q, log_delta);
                        found += lm.len() as u64;
                        per_path.push(lm.iter().map(|&i| q.vertices()[i]).collect());
                    }
                    (per_path, found)
                },
            );
            let depth = node.depth;
            for (&v, per_path) in j.verts().iter().zip(results) {
                for (pi, ids) in per_path.into_iter().enumerate() {
                    if !ids.is_empty() {
                        per_vertex[v.index()][depth].paths[flat_offset[gi] + pi] = ids;
                    }
                }
            }
        }
    }
    Augmentation { per_vertex }
}

impl Augmentation {
    /// Samples `v`'s long-range contact: uniform level, uniform path,
    /// uniform landmark. `None` when the sampled path has no landmarks
    /// for `v` or `v`'s chain is empty.
    pub fn sample_contact<R: rand::Rng>(&self, v: NodeId, rng: &mut R) -> Option<NodeId> {
        let levels = &self.per_vertex[v.index()];
        if levels.is_empty() {
            return None;
        }
        let level = &levels[rng.gen_range(0..levels.len())];
        if level.paths.is_empty() {
            return None;
        }
        let lm = &level.paths[rng.gen_range(0..level.paths.len())];
        if lm.is_empty() {
            return None;
        }
        Some(lm[rng.gen_range(0..lm.len())])
    }

    /// Mean number of stored landmark entries per vertex (the support
    /// size of `𝒟(v, ·)` — `O(k log n log Δ)`).
    pub fn mean_support(&self) -> f64 {
        let total: usize = self
            .per_vertex
            .iter()
            .map(|lvls| {
                lvls.iter()
                    .map(|l| l.paths.iter().map(|p| p.len()).sum::<usize>())
                    .sum::<usize>()
            })
            .sum();
        total as f64 / self.per_vertex.len().max(1) as f64
    }

    /// The landmark lists of `v` at `level` (for tests).
    pub fn level_choices(&self, v: NodeId, level: usize) -> Option<&LevelChoices> {
        self.per_vertex[v.index()].get(level)
    }

    /// Number of chain levels of `v`.
    pub fn num_levels(&self, v: NodeId) -> usize {
        self.per_vertex[v.index()].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use rand::SeedableRng;

    #[test]
    fn every_vertex_can_sample() {
        let g = grids::grid2d(8, 8, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let aug = build_augmentation(&g, &tree, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        for v in g.nodes() {
            assert!(aug.num_levels(v) >= 1);
            // some samples may be None (unreachable paths), but over many
            // trials at least one contact must appear
            let got = (0..50).any(|_| aug.sample_contact(v, &mut rng).is_some());
            assert!(got, "{v:?} never sampled a contact");
        }
    }

    #[test]
    fn contacts_are_real_vertices() {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let aug = build_augmentation(&g, &tree, 5);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        for v in g.nodes() {
            for _ in 0..20 {
                if let Some(c) = aug.sample_contact(v, &mut rng) {
                    assert!(c.index() < g.num_nodes());
                }
            }
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = grids::grid2d(8, 8, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let base = build_augmentation(&g, &tree, 5);
        for threads in [2, 4] {
            let par = build_augmentation_with(&g, &tree, 5, threads);
            assert_eq!(base, par, "threads={threads} diverged");
        }
    }

    #[test]
    fn support_is_moderate() {
        let g = grids::grid2d(10, 10, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let aug = build_augmentation(&g, &tree, 7);
        let support = aug.mean_support();
        assert!(support > 0.0);
        // O(k · log n · log Δ) with small constants; generous cap
        assert!(support < 2000.0, "support {support}");
    }
}
