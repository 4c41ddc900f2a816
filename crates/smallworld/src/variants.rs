//! Small-world variants from the notes after Theorem 3.
//!
//! * **Note 1** (bounded treewidth): when every separator path is a
//!   single vertex, the generic [`crate::Augmentation`] already
//!   degenerates to "contact = the separator vertex", giving
//!   `O(k² log² n)` hops with no `Δ` dependence — experiment E5 measures
//!   this with the standard machinery.
//! * **Note 2** (low-diameter separators, unweighted graphs): instead of
//!   a random landmark, the vertex contacts the **closest vertex of
//!   `S(H_τ(v))`**, giving `O(log² n + δ log n)` hops when every
//!   separator has diameter `δ`. [`ClosestSeparatorRule`] implements
//!   this.

use psep_core::decomposition::DecompositionTree;
use psep_core::Separator;
use psep_graph::dijkstra::dijkstra;
use psep_graph::graph::{Graph, NodeId};
use psep_graph::view::{NodeMask, SubgraphView};
use rand::Rng;

use crate::sim::ContactRule;

/// Note 2's contact rule: per level `τ`, the closest vertex of
/// `S(H_τ(v))` within the component `H_τ(v)`; `τ` is sampled uniformly.
#[derive(Clone, Debug)]
pub struct ClosestSeparatorRule {
    /// `closest[v][level]` = nearest separator vertex of the level's
    /// component (None when `v` is itself on that separator — contact
    /// suppressed, matching the "crossing costs O(δ) local steps" case).
    closest: Vec<Vec<Option<NodeId>>>,
}

impl ClosestSeparatorRule {
    /// Precomputes the closest separator vertex per (vertex, level):
    /// one multi-source Dijkstra per decomposition node.
    pub fn build(g: &Graph, tree: &DecompositionTree) -> Self {
        let n = g.num_nodes();
        let mut closest: Vec<Vec<Option<NodeId>>> = (0..n)
            .map(|i| {
                let v = NodeId::from_index(i);
                vec![None; tree.chain_of(v).len()]
            })
            .collect();
        for node in tree.nodes() {
            let sep = node.separator.vertices();
            if sep.is_empty() {
                continue;
            }
            let mask = NodeMask::from_nodes(n, node.vertices.iter().copied());
            let view = SubgraphView::new(g, &mask);
            let sp = dijkstra(&view, &sep);
            let depth = node.depth;
            for &v in &node.vertices {
                if let Some(root) = sp.root_of(v) {
                    if root != v {
                        closest[v.index()][depth] = Some(root);
                    }
                }
            }
        }
        ClosestSeparatorRule { closest }
    }

    /// Mean number of stored contacts per vertex (≤ chain length).
    pub fn mean_contacts(&self) -> f64 {
        let total: usize = self
            .closest
            .iter()
            .map(|lvls| lvls.iter().filter(|c| c.is_some()).count())
            .sum();
        total as f64 / self.closest.len().max(1) as f64
    }
}

impl ContactRule for ClosestSeparatorRule {
    fn sample_contact(&self, v: NodeId, rng: &mut dyn rand::RngCore) -> Option<NodeId> {
        let levels = &self.closest[v.index()];
        if levels.is_empty() {
            return None;
        }
        let mut r = &mut *rng;
        levels[Rng::gen_range(&mut r, 0..levels.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::GreedySim;
    use psep_core::strategy::FundamentalCycleStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;
    use rand::SeedableRng;

    #[test]
    fn contacts_point_to_separator_vertices() {
        let g = grids::grid2d(8, 8, 1);
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let rule = ClosestSeparatorRule::build(&g, &tree);
        // every contact of v at level d must be on S of the chain node
        for v in g.nodes() {
            let chain = tree.chain_of(v);
            for (d, &node_idx) in chain.iter().enumerate() {
                if let Some(c) = rule.closest[v.index()][d] {
                    let sep = tree.node(node_idx).separator.vertices();
                    assert!(sep.binary_search(&c).is_ok(), "{c:?} not on S(H_{d})");
                }
            }
        }
        assert!(rule.mean_contacts() > 0.0);
    }

    #[test]
    fn note2_speeds_up_greedy_on_grid() {
        let g = grids::grid2d(24, 24, 1);
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let rule = ClosestSeparatorRule::build(&g, &tree);
        struct NoContacts;
        impl ContactRule for NoContacts {
            fn sample_contact(&self, _: NodeId, _: &mut dyn rand::RngCore) -> Option<NodeId> {
                None
            }
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let plain = GreedySim::new(&g, &NoContacts).run(300, &mut rng);
        let note2 = GreedySim::new(&g, &rule).run(300, &mut rng);
        assert!(
            note2.mean_hops < plain.mean_hops,
            "note2 {} vs plain {}",
            note2.mean_hops,
            plain.mean_hops
        );
    }
}
