//! Separator strategies: concrete algorithms producing Definition-1
//! separators, with per-family guarantees.
//!
//! | strategy | family | paths per level |
//! |---|---|---|
//! | [`TreeCenterStrategy`] | trees | 1 (the centroid — a trivial path) |
//! | [`TreewidthStrategy`] | treewidth-`w` graphs | `≤ w+1` trivial paths (Theorem 7, via Lemma 1) |
//! | [`FundamentalCycleStrategy`] | planar graphs | `≤ 3` root paths (Theorem 6.1 / Thorup) |
//! | [`IterativeStrategy`] | anything | apices first (Step 1 of the paper's proof), then root-path groups until halved |
//! | [`AutoStrategy`] | dispatches on the component's shape |
//!
//! Every strategy returns a [`PathSeparator`] whose paths are minimum-cost
//! paths of their residual graphs; `debug_assert`s and the test suite
//! verify this with [`crate::check::check_separator`].

use psep_graph::components::{components, largest_component_after_removal};
use psep_graph::graph::{Graph, NodeId};
use psep_graph::view::{GraphRef, NodeMask, SubgraphView};
use psep_planar::cycle::{root_path_separator, CycleSearch};
use psep_planar::sptree::SpTree;
use psep_treedec::center::center_bag;
use psep_treedec::decomposition::TreeDecomposition;
use psep_treedec::elimination::{min_degree_decomposition, min_degree_decomposition_within};

use crate::separator::{PathGroup, PathSeparator, SepPath};

/// A separator strategy: given a connected component of `g`, produce a
/// separator of kind `S` for it — a Definition-1 [`PathSeparator`]
/// unless stated otherwise.
///
/// `Sync` is a supertrait so `&dyn SeparatorStrategy` can be shared
/// across the parallel build's scoped workers
/// ([`crate::DecompositionTree::build_with`]); strategies take `&self`
/// and every implementation is stateless, so this costs nothing.
pub trait SeparatorStrategy<S = PathSeparator>: Sync {
    /// Computes a separator of the subgraph of `g` induced by
    /// `component` (which the caller guarantees to be connected).
    fn separate(&self, g: &Graph, component: &[NodeId]) -> S;

    /// Human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The measure the decomposition tree halves: every component a
    /// separator leaves measures at most half its parent, with `1e-9`
    /// slack for summed weights. Vertex count unless the strategy
    /// balances something else, such as vertex weight.
    fn measure(&self, vertices: &[NodeId]) -> f64 {
        vertices.len() as f64
    }
}

/// Whether `part` is at most half of `whole`, with `1e-9` slack for
/// rounding in summed weights. On vertex counts this is exactly
/// `part ≤ ⌊whole/2⌋`: the count `part` exceeds `⌊whole/2⌋` exactly when
/// it exceeds `whole/2` (by at least `1/2`).
pub(crate) fn within_half(part: f64, whole: f64) -> bool {
    part <= whole / 2.0 + 1e-9
}

/// 1-path separator for trees: the centroid vertex.
///
/// The paper: “Trees (excluding `K₃`) are 1-path separable as well,
/// taking `S` as the center vertex of the tree — a single vertex being a
/// trivial minimum cost path.”
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeCenterStrategy;

impl SeparatorStrategy for TreeCenterStrategy {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        let centroid = tree_centroid(g, component);
        PathSeparator::strong(vec![SepPath::singleton(centroid)])
    }

    fn name(&self) -> &'static str {
        "tree-center"
    }
}

/// Centroid of the tree induced on `component`: a vertex whose removal
/// leaves components of at most `⌊|component|/2⌋` vertices.
///
/// # Panics
///
/// Panics if the induced subgraph is not a tree (cycles make subtree
/// sizes inconsistent) or `component` is empty.
pub fn tree_centroid(g: &Graph, component: &[NodeId]) -> NodeId {
    centroid_by(g, component, |_| 1.0)
}

/// The centroid walk behind [`tree_centroid`] and
/// [`crate::weighted::weighted_tree_centroid`], under vertex weights
/// `weight`.
pub(crate) fn centroid_by(
    g: &Graph,
    component: &[NodeId],
    weight: impl Fn(NodeId) -> f64,
) -> NodeId {
    assert!(!component.is_empty(), "empty component has no centroid");
    let mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
    let root = component[0];
    let total: f64 = component.iter().map(|&v| weight(v)).sum();
    // iterative DFS computing subtree weights
    let mut sub = vec![0.0f64; g.num_nodes()];
    let mut parent: Vec<Option<NodeId>> = vec![None; g.num_nodes()];
    let mut order: Vec<NodeId> = Vec::with_capacity(component.len());
    let mut stack = vec![root];
    let mut seen = vec![false; g.num_nodes()];
    seen[root.index()] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for e in g.edges(u) {
            if mask.contains(e.to) && !seen[e.to.index()] {
                seen[e.to.index()] = true;
                parent[e.to.index()] = Some(u);
                stack.push(e.to);
            }
        }
    }
    assert_eq!(order.len(), component.len(), "component is disconnected");
    for &u in order.iter().rev() {
        sub[u.index()] += weight(u);
        if let Some(p) = parent[u.index()] {
            sub[p.index()] += sub[u.index()];
        }
    }
    // walk from root toward the heavy child until balanced
    let mut cur = root;
    loop {
        let heavy = g
            .edges(cur)
            .iter()
            .map(|e| e.to)
            .filter(|&v| mask.contains(v) && parent[v.index()] == Some(cur))
            .find(|&v| sub[v.index()] > total / 2.0);
        match heavy {
            Some(v) => cur = v,
            None => {
                // also the "upward" part must be at most half; only a
                // cycle can break that
                assert!(
                    within_half(total - sub[cur.index()], total),
                    "centroid walk failed: induced subgraph is not a tree"
                );
                return cur;
            }
        }
    }
}

/// Strong `(w+1)`-path separator via the center bag of a (heuristic) tree
/// decomposition — Theorem 7's upper bound. Each bag vertex is a trivial
/// path.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreewidthStrategy;

impl SeparatorStrategy for TreewidthStrategy {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        let mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
        let view = SubgraphView::new(g, &mask);
        center_bag_separator(&view, &min_degree_decomposition(&view))
    }

    fn name(&self) -> &'static str {
        "treewidth-center-bag"
    }
}

/// The strong separator of Lemma 1: the center bag of `dec`, a
/// decomposition of `view`, with each bag vertex as a trivial path.
fn center_bag_separator(view: &SubgraphView<'_>, dec: &TreeDecomposition) -> PathSeparator {
    let c = center_bag(view, dec);
    PathSeparator::strong(dec.bag(c).iter().copied().map(SepPath::singleton).collect())
}

/// Strong ≤3-root-path separator in the style of Thorup (guaranteed on
/// planar inputs; valid — possibly larger — on any input).
///
/// The candidate search is budgeted ([`CycleSearch::max_candidates`]);
/// with a very small budget the returned paths may fail to halve the
/// component, which [`crate::DecompositionTree::try_build_with`] rejects
/// with [`crate::DecompositionError::FailedToHalve`] (and `build` with a
/// panic). Use [`IterativeStrategy`] (which opens additional groups until
/// halved) when a halving guarantee is required at low budgets.
#[derive(Clone, Debug, Default)]
pub struct FundamentalCycleStrategy {
    /// Candidate-search tuning.
    pub search: CycleSearch,
}

impl SeparatorStrategy for FundamentalCycleStrategy {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        let mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
        let view = SubgraphView::new(g, &mask);
        let tree = SpTree::new(&view, component[0]);
        let target = component.len() / 2;
        let raw = root_path_separator(&view, &tree, &self.search, target);
        let paths: Vec<SepPath> = raw
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|p| SepPath::new(&view, p))
            .collect();
        if paths.is_empty() {
            // single-vertex component
            return PathSeparator::strong(vec![SepPath::singleton(component[0])]);
        }
        PathSeparator::strong(paths)
    }

    fn name(&self) -> &'static str {
        "fundamental-cycle"
    }
}

/// The general engine, mirroring the proof of Theorem 1:
///
/// 1. **Step 1 (apices)**: vertices whose degree within the component is
///    at least `apex_fraction · |component|` are removed first, each as a
///    trivial path (group `P₀`) — exactly how the proof removes the
///    center apices before working on the almost-embeddable remainder.
/// 2. **Iterate**: in the residual graph, build a shortest-path tree in
///    the largest component and remove a balanced set of its root paths
///    (one group per iteration — each group's paths are shortest in the
///    group's residual graph), until every component has at most `n/2`
///    vertices.
#[derive(Clone, Debug)]
pub struct IterativeStrategy {
    /// Degree fraction above which a vertex is treated as an apex.
    pub apex_fraction: f64,
    /// Root-path search tuning per iteration.
    pub search: CycleSearch,
    /// Safety bound on the number of groups.
    pub max_groups: usize,
}

impl Default for IterativeStrategy {
    fn default() -> Self {
        IterativeStrategy {
            apex_fraction: 0.45,
            search: CycleSearch {
                max_candidates: 256,
                accept_first: true,
                max_extra_paths: 2,
            },
            max_groups: 64,
        }
    }
}

impl SeparatorStrategy for IterativeStrategy {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        let n = component.len();
        let half = n / 2;
        let mut mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
        let mut groups: Vec<PathGroup> = Vec::new();

        if n == 1 {
            return PathSeparator::strong(vec![SepPath::singleton(component[0])]);
        }

        // Step 1: apices
        let threshold = ((n as f64) * self.apex_fraction).ceil() as usize;
        if n >= 8 {
            let apices: Vec<NodeId> = component
                .iter()
                .copied()
                .filter(|&v| g.edges(v).iter().filter(|e| mask.contains(e.to)).count() >= threshold)
                .collect();
            if !apices.is_empty() {
                let paths = apices.iter().copied().map(SepPath::singleton).collect();
                for &a in &apices {
                    mask.remove(a);
                }
                groups.push(PathGroup::new(paths));
            }
        }

        // Step 2/3: iterative root-path groups
        for _ in 0..self.max_groups {
            let view = SubgraphView::new(g, &mask);
            let comps = components(&view);
            let Some(big) = comps.iter().max_by_key(|c| c.len()) else {
                break;
            };
            if big.len() <= half {
                break;
            }
            let tree = SpTree::new(&view, big[0]);
            let raw = root_path_separator(&view, &tree, &self.search, half);
            let mut paths: Vec<SepPath> = raw
                .into_iter()
                .filter(|p| !p.is_empty())
                .map(|p| SepPath::new(&view, p))
                .collect();
            if paths.is_empty() {
                // guarantee progress: remove one vertex of the big component
                paths.push(SepPath::singleton(big[0]));
            }
            let group = PathGroup::new(paths);
            mask.remove_all(group.vertices());
            groups.push(group);
        }

        debug_assert!(
            largest_component_after_removal(
                &SubgraphView::new(
                    g,
                    &NodeMask::from_nodes(g.num_nodes(), component.iter().copied())
                ),
                &groups
                    .iter()
                    .flat_map(|gr| gr.vertices())
                    .collect::<Vec<_>>()
            ) <= half,
            "iterative strategy failed to halve the component"
        );
        PathSeparator::new(groups)
    }

    fn name(&self) -> &'static str {
        "iterative"
    }
}

/// Dispatching strategy:
///
/// * induced tree → [`TreeCenterStrategy`];
/// * heuristic treewidth ≤ `max_width` (on components up to
///   `width_probe_limit` vertices) → [`TreewidthStrategy`];
/// * otherwise → [`IterativeStrategy`].
///
/// The width probe is a min-degree elimination under the budget
/// `max_width` ([`min_degree_decomposition_within`]): it stops at the
/// first pick of degree above `max_width`, so a component that is too
/// wide costs only the part of the elimination before that pick.
#[derive(Clone, Debug)]
pub struct AutoStrategy {
    /// Use the center-bag separator when the heuristic width is at most
    /// this bound; also the budget the width probe stops at.
    pub max_width: usize,
    /// Skip the width probe on components larger than this.
    pub width_probe_limit: usize,
    /// Fallback engine.
    pub iterative: IterativeStrategy,
}

impl Default for AutoStrategy {
    fn default() -> Self {
        AutoStrategy {
            max_width: 8,
            width_probe_limit: 4096,
            iterative: IterativeStrategy::default(),
        }
    }
}

impl SeparatorStrategy for AutoStrategy {
    fn separate(&self, g: &Graph, component: &[NodeId]) -> PathSeparator {
        let n = component.len();
        let mask = NodeMask::from_nodes(g.num_nodes(), component.iter().copied());
        let view = SubgraphView::new(g, &mask);
        let m: usize = component
            .iter()
            .map(|&v| view.neighbors(v).count())
            .sum::<usize>()
            / 2;
        if m + 1 == n {
            psep_obs::counter!("core.strategy.auto.tree_center").incr();
            return TreeCenterStrategy.separate(g, component);
        }
        if n <= self.width_probe_limit {
            if let Some(dec) = min_degree_decomposition_within(&view, self.max_width) {
                psep_obs::counter!("core.strategy.auto.center_bag").incr();
                return center_bag_separator(&view, &dec);
            }
        }
        psep_obs::counter!("core.strategy.auto.iterative").incr();
        self.iterative.separate(g, component)
    }

    fn name(&self) -> &'static str {
        "auto"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_separator;
    use crate::separator::Separator;
    use psep_graph::generators::{grids, ktree, planar_families, special, trees};

    fn whole(g: &Graph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    #[test]
    fn tree_center_is_one_path() {
        for seed in 0..5 {
            let g = trees::random_tree(41, seed);
            let comp = whole(&g);
            let sep = TreeCenterStrategy.separate(&g, &comp);
            assert_eq!(sep.num_paths(), 1);
            check_separator(&g, &comp, &sep, Some(1)).unwrap();
        }
    }

    #[test]
    fn centroid_of_path_is_middle() {
        let g = trees::path(9);
        let comp = whole(&g);
        assert_eq!(tree_centroid(&g, &comp), NodeId(4));
    }

    #[test]
    fn treewidth_strategy_on_k_trees() {
        for k in 1..=3 {
            let kt = ktree::random_k_tree(40, k, 7);
            let comp = whole(&kt.graph);
            let sep = TreewidthStrategy.separate(&kt.graph, &comp);
            check_separator(&kt.graph, &comp, &sep, Some(k + 1)).unwrap();
        }
    }

    #[test]
    fn fundamental_cycle_on_planar() {
        for seed in 0..3 {
            let g = planar_families::triangulated_grid(7, 7, seed);
            let comp = whole(&g);
            let sep = FundamentalCycleStrategy::default().separate(&g, &comp);
            assert!(sep.num_paths() <= 3, "seed {seed}: {}", sep.num_paths());
            check_separator(&g, &comp, &sep, Some(3)).unwrap();
        }
    }

    #[test]
    fn iterative_on_mesh_with_apex() {
        let g = special::mesh_with_apex(7);
        let comp = whole(&g);
        let sep = IterativeStrategy::default().separate(&g, &comp);
        check_separator(&g, &comp, &sep, None).unwrap();
        // apex must be removed in the first group as a singleton
        let apex = special::mesh_apex_id(7);
        assert!(sep.groups[0]
            .paths
            .iter()
            .any(|p| p.is_singleton() && p.vertices()[0] == apex));
        // constant-ish path budget (paper: O(1) for fixed H)
        assert!(sep.num_paths() <= 8, "used {}", sep.num_paths());
    }

    #[test]
    fn iterative_on_torus() {
        let g = grids::torus2d(8, 8);
        let comp = whole(&g);
        let sep = IterativeStrategy::default().separate(&g, &comp);
        check_separator(&g, &comp, &sep, None).unwrap();
        assert!(sep.num_paths() <= 8, "used {}", sep.num_paths());
    }

    #[test]
    fn auto_dispatches_tree() {
        let g = trees::random_tree(30, 2);
        let comp = whole(&g);
        let sep = AutoStrategy::default().separate(&g, &comp);
        assert_eq!(sep.num_paths(), 1);
        check_separator(&g, &comp, &sep, Some(1)).unwrap();
    }

    #[test]
    fn auto_on_grid() {
        let g = grids::grid2d(12, 12, 1);
        let comp = whole(&g);
        let sep = AutoStrategy::default().separate(&g, &comp);
        check_separator(&g, &comp, &sep, None).unwrap();
    }

    #[test]
    fn singleton_component() {
        let g = trees::path(1);
        let comp = whole(&g);
        for sep in [
            IterativeStrategy::default().separate(&g, &comp),
            TreeCenterStrategy.separate(&g, &comp),
        ] {
            check_separator(&g, &comp, &sep, Some(1)).unwrap();
            assert_eq!(sep.vertices(), vec![NodeId(0)]);
        }
    }

    #[test]
    fn path_plus_stable_is_few_paths() {
        // §5.2: the weighted path+stable graph is 1-path separable by
        // taking the whole path. The generic engine needn't find that
        // optimum (it may fall back to apices), but the explicit 1-path
        // separator must check out, matching the paper's claim.
        let g = special::path_plus_stable(8);
        let comp = whole(&g);
        let sep = IterativeStrategy::default().separate(&g, &comp);
        check_separator(&g, &comp, &sep, None).unwrap();

        let path: Vec<NodeId> = (0..8).map(NodeId::from_index).collect();
        let optimal = PathSeparator::strong(vec![SepPath::new(&g, path)]);
        check_separator(&g, &comp, &optimal, Some(1)).unwrap();
    }
}
