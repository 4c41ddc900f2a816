//! Distance labels (Theorem 2) and their path-major parallel
//! construction, emitted straight into a [`FlatLabels`] arena.
//!
//! The builder is bit-identical to the node-major definition — one
//! Dijkstra per vertex in each residual graph `J`, then
//! [`crate::portals::select_portals`] per path — by two arguments:
//!
//! * **Local ids change no tree.** `J` is searched as the local-id CSR
//!   that [`DecompositionTree::residual_pass`] fills, whose ids ascend
//!   with the global ids. The one Dijkstra loop settles in `(distance, id)` order
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
use psep_core::decomposition::DecompositionTree;
use psep_core::exec::ShardObs;
use psep_graph::graph::{Graph, Weight};

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
/// Construction is path-major, one task per `(node, group)` of
/// [`DecompositionTree::residual_pass`]: the task runs one Dijkstra
/// **per separator path vertex** of `J` (not per alive vertex — `d_J`
/// is symmetric in an undirected graph), in `(path, index)` order, and
/// feeds each search's reached set straight into every alive vertex's
/// incremental portal greedy. Since the greedy scans path vertices in
/// ascending path order, replaying its decisions per target as the
/// sources arrive in that same order reproduces the node-major
/// `select_portals` output exactly — while running `Σ |path|` Dijkstras
/// per level instead of one per alive vertex, i.e. `O(n)` total instead
/// of `O(n · depth)`. Every array of the build is `|J|`-sized, and each
/// greedy step is one `O(1)` cover test per reached vertex (see the
/// module docs for why both leave the output unchanged).
///
/// Each finished path appends its entries, group-major, to its worker's
/// one emission buffer, and the gather takes the groups' ranges of those
/// buffers in `(node, group)` order; emission ascends by
/// `(node, group, path)`, so the stable counting sort of
/// [`psep_core::csr::by_vertex`] leaves every vertex's keys ascending.
/// With more than one worker (`threads > 1`, or `0` for all available
/// threads) whole groups run in parallel, each on one worker, so every
/// greedy sees its sources in the same order and the output is
/// **bit-identical** at every thread count (the equivalence suite
/// compares delta labels-section bytes to lock this down).
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
    const LABEL_OBS: ShardObs = ShardObs {
        prefix: "oracle.label",
        items: "groups",
        units: "reached",
        hist: None,
    };
    let stretch = 1.0 + epsilon;
    let (groups, mut workers) = tree.residual_pass(
        g,
        threads,
        &LABEL_OBS,
        |h, gi, j, scratch, worker: &mut Worker| {
            let t_group = psep_obs::now_if_enabled();
            let mut times = GroupTimes::default();
            if worker.chosen.len() < j.len() {
                worker.chosen.resize_with(j.len(), Vec::new);
                worker.best.resize(j.len(), 0);
            }
            let first = worker.emitted.len();
            let mut reached = 0;
            for (pi, q) in tree.nodes()[h].separator.groups[gi]
                .paths
                .iter()
                .enumerate()
            {
                // sources: the path's vertices present in J, in index order —
                // the order the portal greedy scans them
                for (xi, &x) in q.vertices().iter().enumerate() {
                    let Some(x) = j.local(x) else { continue };
                    let t_dijkstra = psep_obs::now_if_enabled();
                    scratch.run(j.graph(), &[x]);
                    let t_greedy = psep_obs::now_if_enabled();
                    times.sources += 1;
                    // One greedy step: x offers itself as a portal to every
                    // vertex it reached; a vertex accepts unless an
                    // earlier-chosen portal already covers it within (1+ε) —
                    // the O(1) form of the node-major scan.
                    let pos = q.position(xi);
                    for (v, dx) in scratch.reached() {
                        reached += 1;
                        let state = &mut worker.chosen[v.index()];
                        let m = &mut worker.best[v.index()];
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
                            state.push((xi as u32, dx));
                        }
                    }
                    if let (Some(t0), Some(t1)) = (t_dijkstra, t_greedy) {
                        times.dijkstra_ns += (t1 - t0).as_nanos() as u64;
                        times.greedy_ns += t1.elapsed().as_nanos() as u64;
                    }
                }
                // the path is finished: move its non-empty states into the
                // emission, in ascending vertex order
                let key = pack_key(h as u32, gi as u16, pi as u16);
                for (state, v) in worker.chosen.iter_mut().zip(j.verts()) {
                    if state.is_empty() {
                        continue;
                    }
                    let lo = worker.portals.len() as u32;
                    worker
                        .portals
                        .extend(state.drain(..).map(|(xi, d)| PortalEntry {
                            pos: q.position(xi as usize),
                            dist: d,
                        }));
                    let tail = lo..worker.portals.len() as u32;
                    worker.emitted.push(Emitted {
                        vertex: v.0,
                        key,
                        record: (),
                        tail,
                    });
                }
            }
            times.ns = t_group.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            times.depth = tree.nodes()[h].depth;
            ((first..worker.emitted.len(), times), reached)
        },
    );
    if psep_obs::enabled() {
        let group_ns = psep_obs::histogram("oracle.label.group_build_ns");
        let mut total = GroupTimes::default();
        // every node removes a vertex, so every level has a group
        let mut level_ns = vec![0u64; tree.depth() + 1];
        for (_, (_, times)) in &groups {
            total.sources += times.sources;
            total.dijkstra_ns += times.dijkstra_ns;
            total.greedy_ns += times.greedy_ns;
            group_ns.record(times.ns);
            level_ns[times.depth] += times.ns;
        }
        psep_obs::counter("oracle.label.sources").add(total.sources);
        psep_obs::counter("oracle.label.dijkstra_ns").add(total.dijkstra_ns);
        psep_obs::counter("oracle.label.greedy_ns").add(total.greedy_ns);
        for (level, ns) in level_ns.iter().enumerate() {
            psep_obs::gauge(&format!("oracle.label.level{level:02}.build_ns")).set(*ns as f64);
        }
    }
    // the greedy's state is dead: free it before the arena is built, so
    // it does not add to the build's peak
    for worker in &mut workers {
        (worker.chosen, worker.best) = (Vec::new(), Vec::new());
    }
    let parts: Vec<_> = (groups.into_iter())
        .map(|(w, (range, _))| (&workers[w].emitted[range], &workers[w].portals[..]))
        .collect();
    let labels = FlatLabels::from_csr(by_vertex(g.num_nodes(), &parts).0);
    if psep_obs::enabled() {
        let (entries, portals) = (labels.num_entries(), labels.num_portals());
        psep_obs::counter("oracle.labels.entries").add(entries as u64);
        psep_obs::counter("oracle.labels.portal_entries").add(portals as u64);
        // Serialized size proxy: each entry is an 8-byte key plus
        // 16 bytes (pos, dist) per portal.
        psep_obs::counter("oracle.labels.bytes").add((entries * 8 + portals * 16) as u64);
        let stats = labels.stats();
        psep_obs::gauge("oracle.labels.mean_size").set(stats.mean_size);
        psep_obs::gauge("oracle.labels.max_size").set(stats.max_size as f64);
        psep_obs::gauge("oracle.labels.mean_entries").set(stats.mean_entries);
    }
    labels
}

/// One worker's state, reused across its groups: the portal greedy by
/// local id in `J` (per vertex, the current path's portals chosen so far
/// as `(path index, d_J)` pairs, and `m_v = min (d_p − pos(p))` over
/// them, meaningful only while the list is non-empty), and the worker's
/// group-major emission with its portals.
#[derive(Default)]
struct Worker {
    chosen: Vec<Vec<(u32, Weight)>>,
    best: Vec<i128>,
    emitted: Vec<Emitted<()>>,
    portals: Vec<PortalEntry>,
}

/// One group step's share of the label metrics, published after the
/// pass: its sources, its nanoseconds in the Dijkstras, in the greedy
/// and in all, and its node's depth.
#[derive(Default)]
struct GroupTimes {
    sources: u64,
    dijkstra_ns: u64,
    greedy_ns: u64,
    ns: u64,
    depth: usize,
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
        for (name, g) in psep_testkit::equivalence_families() {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let serial = build_labels(&g, &tree, 0.5, 1);
            for threads in [2, 3, 4, 8] {
                let parallel = build_labels(&g, &tree, 0.5, threads);
                assert_eq!(serial, parallel, "{name}: threads = {threads}");
            }
        }
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
