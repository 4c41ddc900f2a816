//! Tree decompositions from elimination orders: min-degree and min-fill
//! heuristics.
//!
//! Exact treewidth is NP-hard; these classical heuristics are exact on
//! chordal graphs (hence on the generated `k`-trees) and near-optimal on
//! the partial-`k`-tree and planar families the experiments use. The
//! measured widths are reported by experiment E9.
//!
//! # How an elimination runs
//!
//! The input's vertices are renumbered `0..k` in ascending [`NodeId`]
//! order, and the fill graph keeps one list of alive neighbours per
//! vertex. Eliminating `v` joins its neighbours pairwise (a mark array
//! finds the edges already present) and drops `v` from their lists, so a
//! step costs the degrees it touches, never the size of the id universe.
//!
//! * **Min-degree** picks from a lazy binary heap of `(degree, local id)`
//!   entries: every degree change pushes a fresh entry, and an entry whose
//!   degree is out of date is skipped when popped. Local ids follow
//!   `NodeId` order, so ties break by the smallest `NodeId`.
//! * **Min-fill** (small inputs only: [`crate::exact`] and E9) scans the
//!   alive vertices for the least `(fill edges, NodeId)`.
//!
//! The bag of `v` is `v` plus its alive neighbours, recorded at the moment
//! `v` is eliminated. It links to the bag of the neighbour eliminated
//! first after `v`, or to the next bag when `v` has no neighbour left.
//!
//! # Width budget
//!
//! A bag holds its vertex and that vertex's neighbours at the pick, so
//! the width of the result is the largest degree picked.
//! [`min_degree_decomposition_within`] returns `None` at the first pick of
//! degree above its budget: the finished decomposition would be wider, so
//! a caller that only wants a narrow one stops paying as soon as it
//! cannot get it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use psep_graph::graph::NodeId;
use psep_graph::view::GraphRef;

use crate::decomposition::TreeDecomposition;

/// Tree decomposition via the **min-degree** elimination heuristic.
pub fn min_degree_decomposition<G: GraphRef>(g: &G) -> TreeDecomposition {
    min_degree_decomposition_within(g, usize::MAX).expect("an unbudgeted elimination completes")
}

/// [`min_degree_decomposition`] under a width budget: `None` as soon as
/// the elimination picks a vertex of degree above `max_width`.
///
/// Exact: the result is `Some` iff `min_degree_decomposition(g)` has
/// width at most `max_width`, and then it is that decomposition.
/// Stopped runs count in `treedec.eliminations.aborted`.
pub fn min_degree_decomposition_within<G: GraphRef>(
    g: &G,
    max_width: usize,
) -> Option<TreeDecomposition> {
    psep_obs::counter!("treedec.eliminations").incr();
    let _span = psep_obs::span!("treedec_eliminate");
    let mut fill = FillGraph::new(g);
    let mut heap: BinaryHeap<Reverse<(usize, u32)>> = fill
        .adj
        .iter()
        .enumerate()
        .map(|(v, nbrs)| Reverse((nbrs.len(), v as u32)))
        .collect();
    while let Some(Reverse((degree, v))) = heap.pop() {
        let v = v as usize;
        if !fill.alive[v] || fill.adj[v].len() != degree {
            continue; // superseded by a later entry
        }
        if degree > max_width {
            psep_obs::counter!("treedec.eliminations.aborted").incr();
            return None;
        }
        fill.eliminate(v);
        for &u in fill.last_bag() {
            heap.push(Reverse((fill.adj[u as usize].len(), u)));
        }
    }
    Some(fill.into_decomposition())
}

/// Tree decomposition via the **min-fill** elimination heuristic
/// (slower, usually tighter width on non-chordal inputs).
pub fn min_fill_decomposition<G: GraphRef>(g: &G) -> TreeDecomposition {
    psep_obs::counter!("treedec.eliminations").incr();
    let _span = psep_obs::span!("treedec_eliminate");
    let mut fill = FillGraph::new(g);
    let k = fill.adj.len();
    for _ in 0..k {
        let mut best: Option<(usize, usize)> = None;
        for v in 0..k {
            if fill.alive[v] {
                let key = (fill.fill_count(v), v);
                best = Some(best.map_or(key, |b| b.min(key)));
            }
        }
        let (_, pick) = best.expect("alive vertex exists");
        fill.eliminate(pick);
    }
    fill.into_decomposition()
}

/// Builds a tree decomposition from an explicit elimination order.
pub fn decomposition_from_order<G: GraphRef>(g: &G, order: &[NodeId]) -> TreeDecomposition {
    let n = g.universe();
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    // fill graph adjacency as hash sets
    let mut adj: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
    for u in g.node_iter() {
        for e in g.neighbors(u) {
            adj[u.index()].insert(e.to);
            adj[e.to.index()].insert(u);
        }
    }
    build_bags(order, &pos, adj)
}

/// Epoch marks over local ids: `is(u)` holds for exactly the ids set
/// since the last `next()`.
struct Marks {
    epoch: Vec<u64>,
    now: u64,
}

impl Marks {
    fn new(k: usize) -> Self {
        Marks {
            epoch: vec![0; k],
            now: 0,
        }
    }

    fn next(&mut self) {
        self.now += 1;
    }

    fn set(&mut self, u: u32) {
        self.epoch[u as usize] = self.now;
    }

    fn is(&self, u: u32) -> bool {
        self.epoch[u as usize] == self.now
    }
}

/// The fill graph of an elimination in progress, over local ids `0..k`
/// assigned in ascending [`NodeId`] order.
struct FillGraph {
    /// Local id → vertex.
    nodes: Vec<NodeId>,
    /// Alive neighbours of every alive vertex.
    adj: Vec<Vec<u32>>,
    alive: Vec<bool>,
    /// Eliminated vertices, in order.
    order: Vec<u32>,
    /// `bags[i]`: the alive neighbours of `order[i]` when it was eliminated.
    bags: Vec<Vec<u32>>,
    marks: Marks,
}

impl FillGraph {
    fn new<G: GraphRef>(g: &G) -> Self {
        let mut nodes: Vec<NodeId> = g.node_iter().collect();
        nodes.sort_unstable();
        let mut local = vec![u32::MAX; g.universe()];
        for (i, v) in nodes.iter().enumerate() {
            local[v.index()] = i as u32;
        }
        let k = nodes.len();
        let mut marks = Marks::new(k);
        let adj = nodes
            .iter()
            .map(|&v| {
                // marks drop parallel edges
                marks.next();
                let mut nbrs = Vec::new();
                for e in g.neighbors(v) {
                    let u = local[e.to.index()];
                    if !marks.is(u) {
                        marks.set(u);
                        nbrs.push(u);
                    }
                }
                nbrs
            })
            .collect();
        FillGraph {
            nodes,
            adj,
            alive: vec![true; k],
            order: Vec::with_capacity(k),
            bags: Vec::with_capacity(k),
            marks,
        }
    }

    /// Eliminates `v`: joins its alive neighbours pairwise, removes it
    /// from their lists and records its bag.
    fn eliminate(&mut self, v: usize) {
        let nbrs = std::mem::take(&mut self.adj[v]);
        self.alive[v] = false;
        for &a in &nbrs {
            self.adj[a as usize].retain(|&x| x as usize != v);
            self.mark_closed_neighbourhood(a);
            let missing = nbrs.iter().filter(|&&b| !self.marks.is(b));
            self.adj[a as usize].extend(missing);
        }
        self.order.push(v as u32);
        self.bags.push(nbrs);
    }

    /// The neighbours recorded by the latest [`Self::eliminate`].
    fn last_bag(&self) -> &[u32] {
        &self.bags[self.bags.len() - 1]
    }

    /// Number of fill edges eliminating `v` would add.
    fn fill_count(&mut self, v: usize) -> usize {
        let mut missing = 0;
        for i in 0..self.adj[v].len() {
            self.mark_closed_neighbourhood(self.adj[v][i]);
            missing += self.adj[v].iter().filter(|&&b| !self.marks.is(b)).count();
        }
        missing / 2 // each missing edge was seen from both ends
    }

    /// Marks exactly `a` and its alive neighbours.
    fn mark_closed_neighbourhood(&mut self, a: u32) {
        self.marks.next();
        self.marks.set(a);
        for &x in &self.adj[a as usize] {
            self.marks.set(x);
        }
    }

    /// The decomposition of a completed elimination: bag `i` is
    /// `order[i]` plus its recorded neighbours, linked to the bag of the
    /// neighbour eliminated first after it, or to bag `i + 1` if it had
    /// none.
    fn into_decomposition(self) -> TreeDecomposition {
        let k = self.order.len();
        let mut pos = vec![0usize; k];
        for (i, &v) in self.order.iter().enumerate() {
            pos[v as usize] = i;
        }
        let mut edges = Vec::with_capacity(k.saturating_sub(1));
        for (i, nbrs) in self.bags.iter().enumerate() {
            match nbrs.iter().map(|&u| pos[u as usize]).min() {
                Some(p) => edges.push((i, p)),
                None if i + 1 < k => edges.push((i, i + 1)),
                None => {}
            }
        }
        let nodes = &self.nodes;
        let bags = self
            .order
            .iter()
            .zip(self.bags)
            .map(|(&v, nbrs)| {
                let mut bag: Vec<NodeId> = nbrs.iter().map(|&u| nodes[u as usize]).collect();
                bag.push(nodes[v as usize]);
                bag
            })
            .collect();
        TreeDecomposition::new(bags, edges)
    }
}

/// Builds bags from an elimination order over a graph's adjacency: the
/// order is first saturated into its fill graph, then the bag of `v` is
/// `v` plus its later-eliminated fill-neighbours; each bag links to the
/// bag of the earliest-later member.
fn build_bags(
    order: &[NodeId],
    pos: &[usize],
    mut fill_adj: Vec<HashSet<NodeId>>,
) -> TreeDecomposition {
    for &v in order {
        let later: Vec<NodeId> = fill_adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > pos[v.index()])
            .collect();
        for (i, &a) in later.iter().enumerate() {
            for &b in &later[i + 1..] {
                if fill_adj[a.index()].insert(b) {
                    fill_adj[b.index()].insert(a);
                }
            }
        }
    }
    let mut bags: Vec<Vec<NodeId>> = Vec::with_capacity(order.len());
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // bag index by elimination position
    for (i, &v) in order.iter().enumerate() {
        let mut bag: Vec<NodeId> = fill_adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > i)
            .collect();
        bag.push(v);
        bag.sort_unstable();
        bags.push(bag);
    }
    for (i, &v) in order.iter().enumerate() {
        // link to the earliest-later neighbour's bag
        let parent = fill_adj[v.index()]
            .iter()
            .copied()
            .filter(|u| pos[u.index()] > i)
            .min_by_key(|u| pos[u.index()]);
        if let Some(p) = parent {
            edges.push((i, pos[p.index()]));
        } else if i + 1 < order.len() {
            // isolated-at-elimination vertex: attach anywhere to keep a tree
            edges.push((i, i + 1));
        }
    }
    TreeDecomposition::new(bags, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psep_graph::generators::{grids, ktree, planar_families, trees};
    use psep_graph::view::{NodeMask, SubgraphView};
    use psep_graph::Graph;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[derive(Clone, Copy, Debug)]
    enum Pick {
        MinDegree,
        MinFill,
    }

    /// The elimination as first written: each step scans every alive
    /// vertex of the universe for the least `(key, NodeId)` over hash-set
    /// adjacency, and the bags come from [`build_bags`] over the whole
    /// fill graph. Quadratic; kept as the order the fast paths must match.
    fn reference<G: GraphRef>(g: &G, pick: Pick) -> TreeDecomposition {
        let n = g.universe();
        let mut adj: Vec<HashSet<NodeId>> = vec![HashSet::new(); n];
        let mut alive = vec![false; n];
        for u in g.node_iter() {
            alive[u.index()] = true;
            for e in g.neighbors(u) {
                adj[u.index()].insert(e.to);
            }
        }
        let mut full_fill = adj.clone();
        let mut order: Vec<NodeId> = Vec::new();
        for _ in 0..g.node_count() {
            let next = g
                .node_iter()
                .filter(|v| alive[v.index()])
                .min_by_key(|&v| match pick {
                    Pick::MinDegree => (adj[v.index()].len(), v.index()),
                    Pick::MinFill => {
                        let nbrs: Vec<NodeId> = adj[v.index()].iter().copied().collect();
                        let mut fill = 0;
                        for (i, &a) in nbrs.iter().enumerate() {
                            for &b in &nbrs[i + 1..] {
                                if !adj[a.index()].contains(&b) {
                                    fill += 1;
                                }
                            }
                        }
                        (fill, v.index())
                    }
                })
                .expect("alive vertex exists");
            order.push(next);
            let nbrs: Vec<NodeId> = adj[next.index()].iter().copied().collect();
            for (i, &a) in nbrs.iter().enumerate() {
                for &b in &nbrs[i + 1..] {
                    if adj[a.index()].insert(b) {
                        adj[b.index()].insert(a);
                        full_fill[a.index()].insert(b);
                        full_fill[b.index()].insert(a);
                    }
                }
            }
            for &a in &nbrs {
                adj[a.index()].remove(&next);
            }
            adj[next.index()].clear();
            alive[next.index()] = false;
        }
        let mut pos = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        build_bags(&order, &pos, full_fill)
    }

    fn same(a: &TreeDecomposition, b: &TreeDecomposition) -> Result<(), String> {
        if a.bags() != b.bags() {
            return Err("bags differ".into());
        }
        if a.tree_edges() != b.tree_edges() {
            return Err("tree edges differ".into());
        }
        Ok(())
    }

    /// Both heuristics equal the reference on `g`, are valid, and the
    /// budgeted min-degree agrees with the unbudgeted width for every
    /// budget in `0..=10`.
    fn check_against_reference<G: GraphRef>(name: &str, g: &G) {
        let dec = min_degree_decomposition(g);
        same(&dec, &reference(g, Pick::MinDegree)).unwrap_or_else(|e| panic!("{name}: {e}"));
        if g.node_count() > 0 {
            dec.validate(g).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        for w in 0..=10 {
            match min_degree_decomposition_within(g, w) {
                Some(budgeted) => {
                    assert!(dec.width() <= w, "{name}: Some at budget {w}");
                    same(&budgeted, &dec).unwrap_or_else(|e| panic!("{name}, budget {w}: {e}"));
                }
                None => assert!(dec.width() > w, "{name}: None at budget {w}"),
            }
        }
        let fill = min_fill_decomposition(g);
        same(&fill, &reference(g, Pick::MinFill)).unwrap_or_else(|e| panic!("{name}: {e}"));
    }

    fn random_graph(n: usize, edges: usize, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut g = Graph::new(n);
        for _ in 0..edges {
            let u = NodeId::from_index(rng.gen_range(0..n));
            let v = NodeId::from_index(rng.gen_range(0..n));
            if u != v && !g.has_edge(u, v) {
                g.add_edge(u, v, 1);
            }
        }
        g
    }

    #[test]
    fn matches_reference_on_families() {
        check_against_reference("grid 9x9", &grids::grid2d(9, 9, 1));
        check_against_reference("torus 7x7", &grids::torus2d(7, 7));
        for seed in 0..3 {
            check_against_reference(
                "tri-grid 8x8",
                &planar_families::triangulated_grid(8, 8, seed),
            );
            check_against_reference("3-tree", &ktree::random_k_tree(80, 3, seed).graph);
            check_against_reference(
                "outerplanar",
                &planar_families::random_outerplanar(60, seed),
            );
        }
    }

    #[test]
    fn matches_reference_on_disconnected_and_isolated() {
        let mut g = Graph::new(9);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (4, 5), (6, 7)] {
            g.add_edge(NodeId(u), NodeId(v), 1);
        }
        // vertices 3 and 8 are isolated; three components have edges
        check_against_reference("disconnected", &g);
        check_against_reference("edgeless", &Graph::new(5));
        check_against_reference("empty", &Graph::new(0));
    }

    #[test]
    fn matches_reference_on_masked_views() {
        let g = grids::grid2d(10, 10, 1);
        let mut mask = NodeMask::all(g.num_nodes());
        // a row of holes splits the grid; a few more punch it
        mask.remove_all(grids::grid_row(10, 10, 4));
        for v in [0u32, 17, 55, 99] {
            mask.remove(NodeId(v));
        }
        check_against_reference("masked grid", &SubgraphView::new(&g, &mask));
        let kt = ktree::random_k_tree(120, 4, 3);
        let keep = NodeMask::from_nodes(120, (0..120u32).filter(|v| v % 7 != 3).map(NodeId));
        check_against_reference("masked 4-tree", &SubgraphView::new(&kt.graph, &keep));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_reference_on_random_graphs(
            n in 1usize..48,
            edge_factor in 0usize..4,
            seed in any::<u64>(),
        ) {
            let g = random_graph(n, n * edge_factor, seed);
            let dec = min_degree_decomposition(&g);
            prop_assert!(same(&dec, &reference(&g, Pick::MinDegree)).is_ok());
            prop_assert!(dec.validate(&g).is_ok());
            for w in 0..=10 {
                let budgeted = min_degree_decomposition_within(&g, w);
                prop_assert_eq!(budgeted.is_some(), dec.width() <= w);
                if let Some(b) = budgeted {
                    prop_assert!(same(&b, &dec).is_ok());
                }
            }
            let fill = min_fill_decomposition(&g);
            prop_assert!(same(&fill, &reference(&g, Pick::MinFill)).is_ok());
        }
    }

    #[test]
    fn tree_has_width_one() {
        let g = trees::random_tree(40, 3);
        for dec in [min_degree_decomposition(&g), min_fill_decomposition(&g)] {
            dec.validate(&g).unwrap();
            assert_eq!(dec.width(), 1);
        }
    }

    #[test]
    fn k_tree_width_recovered_exactly() {
        for k in 1..=4 {
            let kt = ktree::random_k_tree(30, k, 11);
            let dec = min_degree_decomposition(&kt.graph);
            dec.validate(&kt.graph).unwrap();
            assert_eq!(dec.width(), k, "k = {k}");
        }
    }

    #[test]
    fn partial_k_tree_width_bounded() {
        let g = ktree::partial_k_tree(60, 3, 0.6, 5);
        let dec = min_fill_decomposition(&g);
        dec.validate(&g).unwrap();
        assert!(dec.width() <= 3, "width {} > 3", dec.width());
    }

    #[test]
    fn outerplanar_width_at_most_two() {
        let g = planar_families::random_outerplanar(25, 7);
        let dec = min_degree_decomposition(&g);
        dec.validate(&g).unwrap();
        assert!(dec.width() <= 2);
    }

    #[test]
    fn grid_width_reasonable() {
        let g = grids::grid2d(5, 5, 1);
        let dec = min_fill_decomposition(&g);
        dec.validate(&g).unwrap();
        // treewidth of a 5x5 grid is 5; heuristics may be slightly above
        assert!(dec.width() >= 5);
        assert!(dec.width() <= 8, "width {}", dec.width());
    }

    #[test]
    fn from_order_valid_on_cycle() {
        let g = trees::cycle(8);
        let order: Vec<NodeId> = g.nodes().collect();
        let dec = decomposition_from_order(&g, &order);
        dec.validate(&g).unwrap();
        assert!(dec.width() >= 2);
    }
}
