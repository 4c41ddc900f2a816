//! Lemma 1: every tree decomposition has a **center bag** whose removal
//! leaves connected components of at most `n/2` vertices.
//!
//! The walk starts at bag 0 and, while the current bag `C` leaves a
//! component `K` larger than `n/2`, steps to the neighbour bag on `K`'s
//! side of the tree (the classical sink argument). With the tree rooted
//! at bag 0, that neighbour is always a child, found by one scan of
//! `C`'s neighbours:
//!
//! * `K` is connected and avoids `C`, so by the subtree axiom every bag
//!   holding a vertex of `K` lies on one side of `C`. In particular the
//!   bags holding the witness `w ∈ K` form a subtree not containing `C`,
//!   and their topmost bag `top(w)` is on that side. The side is the
//!   child whose preorder interval holds `top(w)`, or the parent side
//!   when `C`'s own interval does not hold it.
//! * The walk never turns back up. After stepping from `C` into child
//!   `D`, a component `K'` of `G \ D` on `C`'s side would share no
//!   vertex with `K`: a shared vertex would sit in bags on both sides of
//!   the edge `C–D`, hence in `C`. Two disjoint components cannot both
//!   exceed `n/2`.
//!
//! So a step is one child lookup instead of a search over the bags of the
//! tree, and the walk visits each bag at most once. Every step still runs
//! the component check, so the walk stops at exactly the bag a search over
//! the unrooted tree stops at — a search on subtree vertex counts could
//! stop at a different center and change the decomposition built on it.
//! On an invalid decomposition the walk can dead-end (the witness is in
//! no bag, or the step would go up); then an exhaustive scan runs, counted
//! by `treedec.center.fallbacks`.

use psep_graph::components::largest_component_after_removal;
use psep_graph::graph::NodeId;
use psep_graph::view::GraphRef;

use crate::decomposition::TreeDecomposition;

/// Finds a center bag of `dec` for `g` (Lemma 1): the index of a bag `C`
/// such that every connected component of `g \ C` has at most
/// `⌊n/2⌋` vertices, where `n` is the number of alive vertices of `g`.
///
/// Walks the decomposition tree from bag 0 toward the large component
/// (see the module docs), falling back to a full scan if the walk dead-
/// ends; the existence of a center is guaranteed by Lemma 1, so the scan
/// cannot fail on a valid decomposition.
///
/// # Panics
///
/// Panics if `dec` has no bags, or if no bag is a center (which implies
/// `dec` is not a valid decomposition of `g`).
///
/// # Example
///
/// ```
/// use psep_graph::generators::trees;
/// use psep_treedec::{center_bag, min_degree_decomposition};
/// use psep_graph::components::largest_component_after_removal;
///
/// let g = trees::path(9);
/// let dec = min_degree_decomposition(&g);
/// let c = center_bag(&g, &dec);
/// let biggest = largest_component_after_removal(&g, dec.bag(c));
/// assert!(biggest <= 4); // ⌊9/2⌋
/// ```
pub fn center_bag<G: GraphRef>(g: &G, dec: &TreeDecomposition) -> usize {
    assert!(dec.num_bags() > 0, "decomposition has no bags");
    let half = g.node_count() / 2;
    let alive_bag = |i: usize| -> Vec<NodeId> {
        dec.bag(i)
            .iter()
            .copied()
            .filter(|&v| g.contains_node(v))
            .collect()
    };
    let rooted = Rooted::new(dec, g.universe());
    let mut counts = ComponentCounter::new(g.universe());
    let mut cur = 0usize;
    let mut steps = 0u64;
    let found = loop {
        steps += 1;
        let Some(witness) = counts.big_component(g, &alive_bag(cur), half) else {
            break Some(cur);
        };
        match rooted.child_toward(cur, witness) {
            Some(child) => cur = child,
            None => break None,
        }
    };
    psep_obs::counter!("treedec.center.steps").add(steps);
    if let Some(c) = found {
        return c;
    }
    // Fallback: exhaustive scan (guaranteed to find one by Lemma 1).
    psep_obs::counter!("treedec.center.fallbacks").incr();
    for i in 0..dec.num_bags() {
        let bag = alive_bag(i);
        if largest_component_after_removal(g, &bag) <= half {
            return i;
        }
    }
    panic!("no center bag found: decomposition is not valid for this graph");
}

/// The decomposition tree rooted at bag 0: its adjacency, each bag's
/// preorder interval, and each vertex's topmost bag.
struct Rooted {
    /// `adj[adj_start[b]..adj_start[b + 1]]` are the bags adjacent to `b`.
    adj_start: Vec<u32>,
    adj: Vec<u32>,
    /// Each bag's preorder interval `[pre, end)` from bag 0 (`u32::MAX`
    /// for bags not reachable from bag 0).
    pre: Vec<u32>,
    end: Vec<u32>,
    /// The bag nearest the root holding each vertex (`u32::MAX`: none).
    top: Vec<u32>,
}

impl Rooted {
    fn new(dec: &TreeDecomposition, universe: usize) -> Self {
        let b = dec.num_bags();
        let mut adj_start = vec![0u32; b + 1];
        for &(x, y) in dec.tree_edges() {
            adj_start[x + 1] += 1;
            adj_start[y + 1] += 1;
        }
        for i in 0..b {
            adj_start[i + 1] += adj_start[i];
        }
        let mut fill = adj_start.clone();
        let mut adj = vec![0u32; adj_start[b] as usize];
        for &(x, y) in dec.tree_edges() {
            adj[fill[x] as usize] = y as u32;
            fill[x] += 1;
            adj[fill[y] as usize] = x as u32;
            fill[y] += 1;
        }
        // iterative DFS from bag 0, each bag pushed once: preorder,
        // subtree ends, and topmost bags (a bag is numbered before every
        // bag below it, so the first holder seen is the topmost)
        let mut pre = vec![u32::MAX; b];
        let mut end = vec![u32::MAX; b];
        let mut found = vec![false; b];
        let mut top = vec![u32::MAX; universe];
        let mut counter = 0u32;
        let mut stack: Vec<(u32, bool)> = vec![(0, false)];
        found[0] = true;
        while let Some((x, done)) = stack.pop() {
            let xu = x as usize;
            if done {
                end[xu] = counter;
                continue;
            }
            pre[xu] = counter;
            counter += 1;
            for &v in dec.bag(xu) {
                if top[v.index()] == u32::MAX {
                    top[v.index()] = x;
                }
            }
            stack.push((x, true));
            for &y in &adj[adj_start[xu] as usize..adj_start[xu + 1] as usize] {
                if !found[y as usize] {
                    found[y as usize] = true;
                    stack.push((y, false));
                }
            }
        }
        Rooted {
            adj_start,
            adj,
            pre,
            end,
            top,
        }
    }

    /// The child of `cur` whose subtree holds the bags containing `w`, or
    /// `None` when they lie above `cur` or nowhere.
    fn child_toward(&self, cur: usize, w: NodeId) -> Option<usize> {
        let t = self.top[w.index()];
        if t == u32::MAX {
            return None;
        }
        let p = self.pre[t as usize];
        let nbrs = &self.adj[self.adj_start[cur] as usize..self.adj_start[cur + 1] as usize];
        // a child is numbered after `cur`; the parent before it
        nbrs.iter()
            .map(|&c| c as usize)
            .find(|&c| self.pre[cur] < self.pre[c] && self.pre[c] <= p && p < self.end[c])
    }
}

/// The component check of every walk step, with its arrays allocated once
/// per walk instead of once per step.
struct ComponentCounter {
    dead: Vec<bool>,
    /// `seen[v] == epoch` marks `v` visited in the current check.
    seen: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
}

impl ComponentCounter {
    fn new(universe: usize) -> Self {
        ComponentCounter {
            dead: vec![false; universe],
            seen: vec![0; universe],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Returns a vertex of some component of `g \ bag` larger than
    /// `half` — the first vertex, in `g.node_iter()` order, of the only
    /// such component — or `None` if all components are small enough.
    fn big_component<G: GraphRef>(&mut self, g: &G, bag: &[NodeId], half: usize) -> Option<NodeId> {
        self.epoch += 1;
        for &v in bag {
            self.dead[v.index()] = true;
        }
        // alive vertices outside the bag not yet in a counted component
        let mut left = g.node_count() - bag.len();
        let mut found = None;
        for v in g.node_iter() {
            if left <= half {
                break; // no component of the rest can be big
            }
            if self.seen[v.index()] == self.epoch || self.dead[v.index()] {
                continue;
            }
            let mut size = 0usize;
            self.seen[v.index()] = self.epoch;
            self.stack.push(v);
            while let Some(u) = self.stack.pop() {
                size += 1;
                if size > half {
                    break;
                }
                for e in g.neighbors(u) {
                    let i = e.to.index();
                    if self.seen[i] != self.epoch && !self.dead[i] {
                        self.seen[i] = self.epoch;
                        self.stack.push(e.to);
                    }
                }
            }
            if size > half {
                found = Some(v);
                break;
            }
            left -= size;
        }
        self.stack.clear();
        for &v in bag {
            self.dead[v.index()] = false;
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::min_degree_decomposition;
    use proptest::prelude::*;
    use psep_graph::components::largest_component_after_removal;
    use psep_graph::generators::{grids, ktree, planar_families, randomize_weights, trees};
    use psep_graph::view::{NodeMask, SubgraphView};
    use psep_graph::Graph;

    /// The walk as first written: every step recounts the components of
    /// `g \ bag` with fresh universe-sized arrays, finds the next bag by
    /// scanning every tree edge ([`TreeDecomposition::neighbors`]) and
    /// searching each neighbour's side of the tree for a bag holding the
    /// witness, and falls back to a scan if the walk revisits a bag.
    /// Quadratic; kept as the bag the fast walk must return.
    fn reference<G: GraphRef>(g: &G, dec: &TreeDecomposition) -> usize {
        let half = g.node_count() / 2;
        let alive_bag = |i: usize| -> Vec<NodeId> {
            dec.bag(i)
                .iter()
                .copied()
                .filter(|&v| g.contains_node(v))
                .collect()
        };
        let mut visited = vec![false; dec.num_bags()];
        let mut cur = 0usize;
        loop {
            if visited[cur] {
                break;
            }
            visited[cur] = true;
            let Some(witness) = big_component(g, &alive_bag(cur), half) else {
                return cur;
            };
            let next = dec
                .neighbors(cur)
                .find(|&nb| side_contains(dec, cur, nb, witness));
            match next {
                Some(nb) => cur = nb,
                None => break,
            }
        }
        (0..dec.num_bags())
            .find(|&i| largest_component_after_removal(g, &alive_bag(i)) <= half)
            .expect("no center bag found")
    }

    fn big_component<G: GraphRef>(g: &G, bag: &[NodeId], half: usize) -> Option<NodeId> {
        let n = g.universe();
        let mut dead = vec![false; n];
        for &v in bag {
            dead[v.index()] = true;
        }
        let mut seen = vec![false; n];
        let mut stack = Vec::new();
        for v in g.node_iter() {
            if seen[v.index()] || dead[v.index()] {
                continue;
            }
            let mut size = 0usize;
            seen[v.index()] = true;
            stack.push(v);
            while let Some(u) = stack.pop() {
                size += 1;
                for e in g.neighbors(u) {
                    let i = e.to.index();
                    if !seen[i] && !dead[i] {
                        seen[i] = true;
                        stack.push(e.to);
                    }
                }
            }
            if size > half {
                return Some(v);
            }
        }
        None
    }

    fn side_contains(dec: &TreeDecomposition, cur: usize, nb: usize, v: NodeId) -> bool {
        let mut seen = vec![false; dec.num_bags()];
        seen[cur] = true;
        seen[nb] = true;
        let mut stack = vec![nb];
        while let Some(x) = stack.pop() {
            if dec.bag_contains(x, v) {
                return true;
            }
            for y in dec.neighbors(x) {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        false
    }

    /// The fast walk returns the reference's bag, and that bag is a
    /// center.
    fn check_against_reference<G: GraphRef>(name: &str, g: &G, dec: &TreeDecomposition) {
        let c = center_bag(g, dec);
        assert_eq!(c, reference(g, dec), "{name}: center bag");
        assert_center(g, dec);
    }

    fn assert_center<G: GraphRef>(g: &G, dec: &TreeDecomposition) {
        let c = center_bag(g, dec);
        let bag: Vec<NodeId> = dec
            .bag(c)
            .iter()
            .copied()
            .filter(|&v| g.contains_node(v))
            .collect();
        assert!(
            largest_component_after_removal(g, &bag) <= g.node_count() / 2,
            "bag {c} is not a center"
        );
    }

    #[test]
    fn center_of_path_decomposition() {
        let g = trees::path(9);
        let dec = min_degree_decomposition(&g);
        assert_center(&g, &dec);
    }

    #[test]
    fn center_of_random_trees() {
        for seed in 0..5 {
            let g = trees::random_tree(64, seed);
            let dec = min_degree_decomposition(&g);
            assert_center(&g, &dec);
        }
    }

    #[test]
    fn center_of_k_tree() {
        let kt = ktree::random_k_tree(50, 3, 2);
        let dec = min_degree_decomposition(&kt.graph);
        assert_center(&kt.graph, &dec);
    }

    #[test]
    fn center_of_grid() {
        let g = grids::grid2d(6, 6, 1);
        let dec = min_degree_decomposition(&g);
        assert_center(&g, &dec);
    }

    #[test]
    fn center_of_trivial_decomposition() {
        let g = trees::path(5);
        let dec = TreeDecomposition::trivial(&g);
        assert_eq!(center_bag(&g, &dec), 0);
    }

    #[test]
    fn matches_reference_on_every_shape() {
        let mut cases: Vec<(String, Graph)> = Vec::new();
        for (r, c) in [(6, 6), (13, 9), (20, 20)] {
            cases.push((format!("grid {r}x{c}"), grids::grid2d(r, c, 1)));
            cases.push((
                format!("tri-grid {r}x{c}"),
                planar_families::triangulated_grid(r, c, 3),
            ));
        }
        for k in 1..=4 {
            cases.push((
                format!("{k}-tree"),
                ktree::random_k_tree(90, k, k as u64).graph,
            ));
        }
        for seed in 0..6 {
            cases.push((format!("tree {seed}"), trees::random_tree(80, seed)));
        }
        cases.push((
            "weighted grid".into(),
            randomize_weights(&grids::grid2d(12, 12, 1), 1, 9, 5),
        ));
        for (name, g) in &cases {
            check_against_reference(name, g, &min_degree_decomposition(g));
            check_against_reference(name, g, &crate::min_fill_decomposition(g));
        }
    }

    #[test]
    fn matches_reference_on_masked_views() {
        let g = grids::grid2d(14, 14, 1);
        let mut mask = NodeMask::all(g.num_nodes());
        mask.remove_all(grids::grid_row(14, 14, 5));
        for v in [0u32, 31, 77, 150] {
            mask.remove(NodeId(v));
        }
        let view = SubgraphView::new(&g, &mask);
        // the decomposition of the whole grid, and one of the view itself
        check_against_reference("masked grid", &view, &min_degree_decomposition(&g));
        check_against_reference("masked grid", &view, &min_degree_decomposition(&view));
        let kt = ktree::random_k_tree(120, 3, 9);
        let keep = NodeMask::from_nodes(120, (0..120u32).filter(|v| v % 5 != 1).map(NodeId));
        let view = SubgraphView::new(&kt.graph, &keep);
        check_against_reference("masked 3-tree", &view, &min_degree_decomposition(&view));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn matches_reference_on_random_graphs(g in psep_testkit::arb_graph()) {
            let dec = min_degree_decomposition(&g);
            prop_assert_eq!(center_bag(&g, &dec), reference(&g, &dec));
        }
    }

    /// A decomposition that misses the witness dead-ends the walk; the
    /// scan still finds the reference's center, and the fallback counts.
    #[test]
    fn dead_end_falls_back_to_the_scan() {
        let g = trees::path(5);
        // bag 0 leaves {1, 2, 3, 4}; its witness 1 is in no bag
        let dec = TreeDecomposition::new(vec![vec![NodeId(0)], vec![NodeId(2)]], vec![(0, 1)]);
        psep_obs::set_enabled(true);
        assert!(psep_obs::enabled(), "tests link the live obs backend");
        let before = psep_obs::snapshot()
            .counter("treedec.center.fallbacks")
            .unwrap_or(0);
        assert_eq!(center_bag(&g, &dec), 1);
        assert_eq!(reference(&g, &dec), 1);
        let after = psep_obs::snapshot()
            .counter("treedec.center.fallbacks")
            .unwrap_or(0);
        assert!(after > before, "fallback not counted");
    }

    #[test]
    fn center_on_subgraph_view() {
        let g = trees::path(10);
        let dec = min_degree_decomposition(&g);
        let mut mask = psep_graph::NodeMask::all(10);
        mask.remove(NodeId(9));
        let view = psep_graph::SubgraphView::new(&g, &mask);
        assert_center(&view, &dec);
    }
}
