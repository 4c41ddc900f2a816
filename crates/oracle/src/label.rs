//! Distance labels (Theorem 2) and their path-major parallel
//! construction, emitted straight into a [`FlatLabels`] arena.
//!
//! The builder is bit-identical to the node-major definition — one
//! Dijkstra per vertex in each residual graph `J`, then
//! [`crate::portals::select_portals`] per path — by two arguments:
//!
//! * **Local ids change no tree.** `J` is searched as a local-id CSR
//!   ([`DecompositionTree::residual_graph`]) whose ids ascend with the
//!   global ids. The one Dijkstra loop settles in `(distance, id)` order
//!   and breaks parent ties toward the smaller id, and both orders are
//!   the same in local and global ids, so every distance (and parent)
//!   equals that of a search over the whole graph masked to `J`.
//! * **The cover test is `O(1)`.** The greedy accepts path vertex `x` as
//!   a portal of `v` unless some chosen portal `p` has
//!   `sat(d_p + along(p, x)) as f64 ≤ (1+ε)·d_x`. Sources of one path
//!   arrive in ascending index, so every chosen `p` precedes `x` and
//!   `along(p, x) = pos(x) − pos(p)`: the sum is
//!   `(d_p − pos(p)) + pos(x)`. The builder keeps
//!   `m_v = min_p (d_p − pos(p))` in an `i128` (both terms are `u64`, so
//!   nothing overflows), resets it per path, and tests
//!   `clamp(m_v + pos(x)) as f64 ≤ (1+ε)·d_x` once. Saturation
//!   (`min(·, u64::MAX)`) commutes with the minimum and `u64 → f64` is
//!   monotone, so the smallest reach passes iff some reach does.

use psep_core::csr::{by_vertex, Emitted};
use psep_core::decomposition::{DecompositionTree, ResidualGraph};
use psep_core::exec::{ShardObs, ShardedRunner};
use psep_graph::dijkstra::DijkstraScratch;
use psep_graph::graph::{Graph, NodeId, Weight};

use crate::flat::FlatLabels;

/// One portal of a separator path: its position (prefix-sum cost) along
/// the path, and the distance from the label's owner in the residual
/// graph `J`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct PortalEntry {
    /// Position along the path (so `d_Q(p,q) = |pos_p − pos_q|`).
    pub pos: Weight,
    /// `d_J(v, p)` for the label owner `v`.
    pub dist: Weight,
}

// SAFETY: `#[repr(C)]` with two `u64` fields — 16 bytes, no padding,
// every bit pattern valid, field order matches the wire layout.
unsafe impl psep_core::wire::Pod for PortalEntry {
    const SIZE: usize = 16;
    fn read_le(bytes: &[u8]) -> Self {
        PortalEntry {
            pos: u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            dist: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        }
    }
    fn write_le(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.pos.to_le_bytes());
        out.extend_from_slice(&self.dist.to_le_bytes());
    }
}

/// Packs `(node, group, path)` into one `u64` preserving lexicographic
/// order.
pub fn pack_key(node: u32, group: u16, path: u16) -> u64 {
    ((node as u64) << 32) | ((group as u64) << 16) | path as u64
}

/// Inverse of [`pack_key`].
pub fn unpack_key(key: u64) -> (u32, u16, u16) {
    ((key >> 32) as u32, (key >> 16) as u16, key as u16)
}

/// Builds the distance labels of every vertex of `g` over `tree`: per
/// vertex, one entry per `(node, group, path)` of its root-to-home chain
/// whose path it reaches, holding the portals of that path in ascending
/// key order. Label *size* (the quantity Theorem 2 bounds by
/// `O(k/ε · log n)`) is the vertex's number of portal entries.
///
/// Construction is path-major: for each `(node, group)` the residual
/// graph `J` is built once as a local-id graph
/// ([`DecompositionTree::residual_graph`]), then one Dijkstra **per
/// separator path vertex** (not per alive vertex — `d_J` is symmetric in
/// an undirected graph) distributes that vertex's distances to every
/// alive vertex's incremental portal greedy. Since the greedy scans path
/// vertices in ascending path order, replaying its decisions per target
/// as the sources arrive in that same order reproduces the node-major
/// `select_portals` output exactly — while running `Σ |path|` Dijkstras
/// per level instead of one per alive vertex, i.e. `O(n)` total instead
/// of `O(n · depth)`. Every array of the build is `|J|`-sized, and each
/// greedy step is one `O(1)` cover test per reached vertex (see the
/// module docs for why both leave the output unchanged).
///
/// Each finished path emits its entries group-major; emission ascends by
/// `(node, group, path)`, so the stable counting sort of
/// [`psep_core::csr::by_vertex`] leaves every vertex's keys ascending.
///
/// With more than one worker (`threads > 1`, or `0` for all available
/// threads) the per-source Dijkstras fan out in blocks on a
/// [`ShardedRunner`], each worker owning a reusable [`DijkstraScratch`]
/// arena that grows to the largest `J` and never shrinks; the runner
/// returns each block's results in source order and greedy application
/// stays sequential between blocks, so the output is **bit-identical**
/// at every thread count (the equivalence suite compares
/// delta labels-section bytes to lock this down).
///
/// # Panics
///
/// Panics unless `epsilon > 0`.
pub fn build_labels(
    g: &Graph,
    tree: &DecompositionTree,
    epsilon: f64,
    threads: usize,
) -> FlatLabels<'static> {
    assert!(epsilon > 0.0, "epsilon must be positive");
    let _span = psep_obs::span!("build_labels");
    let n = g.num_nodes();
    let runner = ShardedRunner::new(threads);
    let workers = runner.threads();
    const LABEL_OBS: ShardObs = ShardObs {
        prefix: "oracle.label",
        items: "sources",
        units: "reached",
        hist: None,
    };
    let stretch = 1.0 + epsilon;
    // J's local-id graph, re-filled per group
    let mut j = ResidualGraph::default();
    // per-worker reusable Dijkstra arenas, shared across all groups
    let mut scratches: Vec<DijkstraScratch> =
        (0..workers).map(|_| DijkstraScratch::new(0)).collect();
    // group-major emission: one entry per (vertex, path) with portals
    let mut emitted: Vec<Emitted<()>> = Vec::new();
    let mut portals: Vec<PortalEntry> = Vec::new();
    // the current path's greedy state by local id in J: portals chosen
    // so far as (path index, d_J) pairs, and m_v = min (d_p − pos(p))
    // over them (meaningful only while the list is non-empty)
    let mut chosen: Vec<Vec<(u32, Weight)>> = Vec::new();
    let mut best: Vec<i128> = Vec::new();
    // time spent in the Dijkstras and in the greedy, for the counters
    let (mut dijkstra_ns, mut greedy_ns) = (0u128, 0u128);

    // wall time per decomposition level, published as gauges below
    let mut level_ns: Vec<u128> = Vec::new();

    for (h, node) in tree.nodes().iter().enumerate() {
        for gi in 0..node.separator.num_groups() {
            let paths = &node.separator.groups[gi].paths;
            if paths.is_empty() {
                continue;
            }
            let t_group = psep_obs::now_if_enabled();
            tree.residual_graph(g, h, gi, &mut j);
            for scratch in &mut scratches {
                scratch.resize(j.len());
            }
            if chosen.len() < j.len() {
                chosen.resize_with(j.len(), Vec::new);
                best.resize(j.len(), 0);
            }
            // sources: every path vertex present in J, in (path, index)
            // order — the order the portal greedy scans them — with its
            // local id
            let sources: Vec<(u32, u32, NodeId)> = paths
                .iter()
                .enumerate()
                .flat_map(|(pi, q)| {
                    let j = &j;
                    q.vertices()
                        .iter()
                        .enumerate()
                        .filter_map(move |(xi, &x)| Some((pi as u32, xi as u32, j.local(x)?)))
                })
                .collect();
            // Moves the finished path `pi`'s non-empty states into the
            // emission, in ascending vertex order.
            let mut flush = |pi: u32, chosen: &mut [Vec<(u32, Weight)>]| {
                let q = &paths[pi as usize];
                let key = pack_key(h as u32, gi as u16, pi as u16);
                for (state, v) in chosen.iter_mut().zip(j.verts()) {
                    if state.is_empty() {
                        continue;
                    }
                    let lo = portals.len() as u32;
                    portals.extend(state.drain(..).map(|(xi, d)| PortalEntry {
                        pos: q.position(xi as usize),
                        dist: d,
                    }));
                    emitted.push(Emitted {
                        vertex: v.0,
                        key,
                        record: (),
                        tail: lo..portals.len() as u32,
                    });
                }
            };

            // Block-parallel on the shared runner: Dijkstras fan out
            // within a block, the greedy replays sequentially in source
            // order between blocks — so neither the block size nor the
            // claim schedule can affect the output. One block per
            // 8 × workers sources bounds the reached-lists held live.
            let block = (workers * 8).max(16);
            let mut current: Option<u32> = None;
            for slice in sources.chunks(block) {
                let t_dijkstra = psep_obs::now_if_enabled();
                let graph = j.graph();
                let (results, _) = runner.run(
                    slice,
                    Some(&LABEL_OBS),
                    &mut scratches,
                    |scratch, &(_, _, x)| {
                        scratch.run(graph, &[x]);
                        let r = scratch.reached_vec();
                        let reach = r.len() as u64;
                        (r, reach)
                    },
                );
                let t_greedy = psep_obs::now_if_enabled();
                // One greedy step per source: (pi, xi) offers itself as
                // a portal to every vertex it reached; a vertex accepts
                // unless an earlier-chosen portal already covers it
                // within (1+ε) — the O(1) form of the node-major scan.
                for (&(pi, xi, _), reached) in slice.iter().zip(&results) {
                    if let Some(prev) = current.filter(|&p| p != pi) {
                        flush(prev, &mut chosen);
                    }
                    current = Some(pi);
                    let pos = paths[pi as usize].position(xi as usize);
                    for &(v, dx) in reached {
                        let (state, m) = (&mut chosen[v.index()], &mut best[v.index()]);
                        let covered = !state.is_empty() && {
                            let reach = (*m + pos as i128).min(Weight::MAX as i128) as Weight;
                            (reach as f64) <= stretch * (dx as f64)
                        };
                        if !covered {
                            let offset = dx as i128 - pos as i128;
                            *m = if state.is_empty() {
                                offset
                            } else {
                                (*m).min(offset)
                            };
                            state.push((xi, dx));
                        }
                    }
                }
                if let (Some(t0), Some(t1)) = (t_dijkstra, t_greedy) {
                    dijkstra_ns += (t1 - t0).as_nanos();
                    greedy_ns += t1.elapsed().as_nanos();
                }
            }
            if let Some(last) = current {
                flush(last, &mut chosen);
            }
            if let Some(t0) = t_group {
                let elapsed = t0.elapsed().as_nanos();
                psep_obs::histogram!("oracle.label.group_build_ns")
                    .record(elapsed.min(u64::MAX as u128) as u64);
                if level_ns.len() <= node.depth {
                    level_ns.resize(node.depth + 1, 0);
                }
                level_ns[node.depth] += elapsed;
            }
        }
    }
    for (level, ns) in level_ns.iter().enumerate() {
        psep_obs::gauge(&format!("oracle.label.level{level:02}.build_ns")).set(*ns as f64);
    }
    // the greedy's state is dead: free it before the arena is built, so
    // it does not add to the build's peak
    drop((chosen, best, j, scratches));
    let labels = FlatLabels::from_csr(by_vertex(n, &emitted, &portals).0);
    if psep_obs::enabled() {
        let (entries, portals) = (labels.num_entries(), labels.num_portals());
        psep_obs::counter("oracle.labels.entries").add(entries as u64);
        psep_obs::counter("oracle.labels.portal_entries").add(portals as u64);
        // Serialized size proxy: each entry is an 8-byte key plus
        // 16 bytes (pos, dist) per portal.
        psep_obs::counter("oracle.labels.bytes").add((entries * 8 + portals * 16) as u64);
        psep_obs::counter("oracle.label.dijkstra_ns").add(dijkstra_ns as u64);
        psep_obs::counter("oracle.label.greedy_ns").add(greedy_ns as u64);
        let stats = labels.stats();
        psep_obs::gauge("oracle.labels.mean_size").set(stats.mean_size);
        psep_obs::gauge("oracle.labels.max_size").set(stats.max_size as f64);
        psep_obs::gauge("oracle.labels.mean_entries").set(stats.mean_entries);
    }
    labels
}

/// Label-size statistics over a set of labels.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LabelStats {
    /// Mean portal entries per label.
    pub mean_size: f64,
    /// Maximum portal entries in any label.
    pub max_size: usize,
    /// Mean `(node, group, path)` entries per label.
    pub mean_entries: f64,
    /// Mean portals per entry.
    pub mean_portals_per_entry: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portals::select_portals;
    use proptest::prelude::*;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::dijkstra::dijkstra;
    use psep_graph::generators::{grids, randomize_weights};
    use psep_graph::view::SubgraphView;

    #[test]
    fn labels_cover_every_vertex() {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let labels = build_labels(&g, &tree, 0.25, 1);
        assert_eq!(labels.num_labels(), 36);
        for v in g.nodes() {
            assert!(
                labels.label(v).size() > 0,
                "vertex {v:?} has an empty label"
            );
        }
    }

    /// Asserts that every entry of `labels` is what the node-major
    /// greedy picks: for each `(node, group, path)` and each vertex `v`
    /// of its residual graph, `select_portals` over a full Dijkstra from
    /// `v` on the masked view — and that no other entry exists.
    fn assert_node_major(name: &str, g: &Graph, tree: &DecompositionTree, eps: f64) {
        let labels = build_labels(g, tree, eps, 2);
        let mut entries = 0;
        for (h, node) in tree.nodes().iter().enumerate() {
            for (gi, group) in node.separator.groups.iter().enumerate() {
                let mask = tree.residual_mask(g.num_nodes(), h, gi);
                let view = SubgraphView::new(g, &mask);
                for v in mask.iter() {
                    let sp = dijkstra(&view, &[v]);
                    for (pi, q) in group.paths.iter().enumerate() {
                        let want = select_portals(sp.dist_raw(), q, eps);
                        let key = pack_key(h as u32, gi as u16, pi as u16);
                        let got = labels.label(v).portals_for(key).unwrap_or(&[]);
                        assert_eq!(got, want.as_slice(), "{name} ε={eps}: {v:?} key {key:#x}");
                        entries += usize::from(!want.is_empty());
                    }
                }
            }
        }
        assert_eq!(
            labels.num_entries(),
            entries,
            "{name} ε={eps}: stray entries"
        );
    }

    /// The path-major build reproduces the node-major greedy: every
    /// vertex's entry for `(node, group, path)` holds exactly the
    /// portals `select_portals` picks from that vertex's own Dijkstra
    /// in the residual graph, and no other entry exists.
    #[test]
    fn labels_match_the_node_major_greedy_on_every_family() {
        for (name, g) in psep_testkit::equivalence_families() {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            assert_node_major(name, &g, &tree, 0.25);
        }
    }

    /// Random weighted graphs with long separator paths (grids and
    /// triangulated grids, where one path carries many portals) and the
    /// workspace's bounded-treewidth shapes, re-weighted from `1..=4`
    /// (ties, where the cover test meets its bound with equality) or
    /// from `1..=2^32` (wide sums).
    fn arb_weighted_graph() -> impl Strategy<Value = Graph> {
        let grids =
            (3usize..12, 3usize..12, any::<bool>(), any::<u64>()).prop_map(|(r, c, tri, s)| {
                if tri {
                    psep_graph::generators::planar_families::triangulated_grid(r, c, s)
                } else {
                    grids::grid2d(r, c, 1)
                }
            });
        let shapes = prop_oneof![grids, psep_testkit::arb_graph()];
        (shapes, any::<bool>(), any::<u64>()).prop_map(|(g, wide, seed)| {
            let max = if wide { 1 << 32 } else { 4 };
            randomize_weights(&g, 1, max, seed)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The same equivalence on random weighted graphs and stretch
        /// factors from tight to loose: the `O(1)` cover test must agree
        /// with the scan over chosen portals wherever `f64` rounding or
        /// wide sums could split them.
        #[test]
        fn labels_match_the_node_major_greedy_on_random_weighted_graphs(
            g in arb_weighted_graph(),
            eps_i in 0usize..4,
        ) {
            let eps = [0.05, 0.25, 1.0, 4.0][eps_i];
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            assert_node_major("random", &g, &tree, eps);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let g = grids::grid2d(8, 8, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let serial = build_labels(&g, &tree, 0.5, 1);
        let parallel = build_labels(&g, &tree, 0.5, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_are_consistent() {
        let g = grids::grid2d(5, 5, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let stats = build_labels(&g, &tree, 0.25, 1).stats();
        assert!(stats.mean_size > 0.0);
        assert!(stats.max_size >= stats.mean_size as usize);
        assert!(stats.mean_portals_per_entry >= 1.0);
    }
}
