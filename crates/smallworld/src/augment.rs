//! The paper's augmentation distribution (Definitions 3–4) over a
//! decomposition tree.

use psep_core::decomposition::DecompositionTree;
use psep_core::exec::ShardObs;
use psep_graph::graph::{Graph, NodeId, INFINITY};

use crate::landmarks::select_landmarks_by;

const AUGMENT_OBS: ShardObs = ShardObs {
    prefix: "smallworld.augment",
    items: "groups",
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
/// Node-major construction: one Dijkstra per (alive vertex, node,
/// group). Equivalent to [`build_augmentation_with`] at one thread.
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
/// One task per `(node, group)` of [`DecompositionTree::residual_pass`]
/// searches the group's local-id residual graph `J` once from every
/// vertex of `J`; a `J` large enough to outlast the other tasks fans
/// those searches out ([`psep_core::decomposition::ResidualGraph::source_ranges`]).
/// Local ids ascend with the global ids, so every
/// distance equals that of a search over `g` masked to `J`. The tasks'
/// landmark lists are placed in task order, so the resulting
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
            let chain = tree.chain_of(NodeId::from_index(i));
            let paths = |h: &usize| vec![Vec::new(); tree.node(*h).separator.num_paths()];
            chain
                .iter()
                .map(|h| LevelChoices { paths: paths(h) })
                .collect()
        })
        .collect();

    let (groups, _) =
        tree.residual_pass(g, threads, &AUGMENT_OBS, |h, gi, j, scratch, _: &mut ()| {
            let node = tree.node(h);
            let paths = &node.separator.groups[gi].paths;
            // the group's first path in the node's flattened path list
            let offset: usize = node.separator.groups[..gi]
                .iter()
                .map(|gr| gr.paths.len())
                .sum();
            // each path vertex's local id, `None` where an earlier group
            // removed it from J
            let path_locals: Vec<Vec<Option<NodeId>>> = paths
                .iter()
                .map(|q| q.vertices().iter().map(|&x| j.local(x)).collect())
                .collect();
            // per vertex of J and path: its non-empty landmark list, one
            // list per range of sources
            let ranges = j.source_ranges(g.num_nodes(), threads, scratch, |scratch, ls| {
                let mut found = Vec::new();
                for l in ls {
                    scratch.run(j.graph(), &[NodeId::from_index(l)]);
                    for (pi, (q, ids)) in paths.iter().zip(&path_locals).enumerate() {
                        let dist_at =
                            |i: usize| ids[i].map_or(INFINITY, |l| scratch.dist_raw()[l.index()]);
                        let lm = select_landmarks_by(dist_at, q, log_delta);
                        if !lm.is_empty() {
                            let ids: Vec<NodeId> = lm.iter().map(|&i| q.vertices()[i]).collect();
                            found.push((j.verts()[l], offset + pi, ids));
                        }
                    }
                }
                found
            });
            let landmarks = ranges.iter().flatten().map(|(.., ids)| ids.len() as u64);
            let landmarks = landmarks.sum();
            ((node.depth, ranges), landmarks)
        });
    for (_, (depth, ranges)) in groups {
        for (v, path, ids) in ranges.into_iter().flatten() {
            per_vertex[v.index()][depth].paths[path] = ids;
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
        for (name, g) in psep_testkit::equivalence_families() {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let base = build_augmentation(&g, &tree, 5);
            for threads in [2, 3, 4, 8] {
                let par = build_augmentation_with(&g, &tree, 5, threads);
                assert_eq!(base, par, "{name}: threads={threads} diverged");
            }
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
