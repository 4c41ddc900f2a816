//! Routing tables and routing labels.
//!
//! Tables live in a [`FlatTables`] CSR-style arena (see [`crate::flat`]).
//! Construction is one task per `(node, group)` of
//! [`DecompositionTree::residual_pass`] — one multi-source Dijkstra per
//! path regardless of thread count — and each task emits its entries
//! group-major. One stable counting sort over the emissions in task
//! order ([`psep_core::csr::by_vertex`]) turns them into the arena, so
//! the arena (and its delta tables-section bytes) is **bit-identical**
//! at every thread count.
//!
//! Each task searches its residual graph `J` as the local-id CSR the
//! pass fills — the one the label builder searches too — in the
//! worker's [`DijkstraScratch`]. Local ids ascend with the global ids,
//! and the Dijkstra loop orders its heap by `(distance, id)` and breaks
//! parent ties toward the smaller id, so every `T_Q` (distances,
//! parents, children, DFS intervals) is the tree a search over the
//! whole graph masked to `J` builds.

use psep_core::csr::{bucket_order, by_vertex, Emitted};
use psep_core::decomposition::{DecompositionTree, ResidualGraph};
use psep_core::exec::ShardObs;
use psep_graph::dijkstra::DijkstraScratch;
use psep_graph::graph::{Graph, NodeId, Weight};
use psep_oracle::label::pack_key;

use crate::error::Error;
use crate::flat::{EntryRecord, FlatTables, TableRef};

/// Identifies one separator path: `(node, group, path)`.
pub type RouteKey = (u32, u16, u16);

/// Metric names for table construction.
const BUILD_OBS: ShardObs = ShardObs {
    prefix: "routing.build",
    items: "groups",
    units: "entries",
    hist: None,
};

/// A vertex's on-path links when it lies on the separator path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnPathInfo {
    /// Position (prefix-sum cost) along the path.
    pub pos: Weight,
    /// Previous path vertex (toward position 0).
    pub prev: Option<NodeId>,
    /// Next path vertex (toward the far end).
    pub next: Option<NodeId>,
}

/// All vertices' routing tables, stored in a [`FlatTables`] arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTables<'a> {
    flat: FlatTables<'a>,
}

/// A vertex's routing label (its routable address): per shared path, the
/// information a *source* needs to compute the exact plan cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoutingLabel {
    /// Entries sorted by key.
    pub entries: Vec<RoutingLabelEntry>,
}

/// One routing-label entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutingLabelEntry {
    /// The path key.
    pub key: RouteKey,
    /// Entry position `pos(x_t)`.
    pub entry_pos: Weight,
    /// `d_J(t, Q)`.
    pub dist: Weight,
    /// DFS index of `t` in `T_Q` (for the descent).
    pub dfs: u32,
}

impl RoutingLabel {
    /// Number of entries (the label size — `O(k log n)`).
    pub fn size(&self) -> usize {
        self.entries.len()
    }
}

/// One worker's tables emission, its groups one after another, each
/// group-major: path by path, in ascending vertex order within a path,
/// each entry's children a range of `children`.
#[derive(Default)]
struct Emission {
    emitted: Vec<Emitted<EntryRecord>>,
    children: Vec<NodeId>,
}

/// Builds the tables of one `(node, group)` onto the worker's `out`:
/// per path `Q`, the multi-source shortest-path tree `T_Q`, its DFS
/// intervals and entry positions. `J` and the Dijkstra arena are the
/// worker's scratch, so every array is `|J|`-sized. Pure in its inputs
/// apart from `out`, so tasks can run on any worker.
fn build_group(
    tree: &DecompositionTree,
    (h, gi): (usize, usize),
    j: &ResidualGraph,
    scratch: &mut DijkstraScratch,
    out: &mut Emission,
) {
    let node = &tree.nodes()[h];
    let len = j.len();
    // DFS interval [dfs, end) and root's index on Q, by local id
    let (mut dfs, mut end, mut root) = (vec![0u32; len], vec![0; len], vec![0; len]);
    for (pi, path) in node.separator.groups[gi].paths.iter().enumerate() {
        let sources: Vec<NodeId> = path
            .vertices()
            .iter()
            .map(|&x| j.local(x).expect("path vertex in J"))
            .collect();
        scratch.run(j.graph(), &sources);
        // children of T_Q by parent, ascending within a parent
        let kids = (0..len as u32).filter_map(|l| scratch.parent(NodeId(l)).map(|p| (p.0, l)));
        let (child_start, children) = bucket_order(len, kids);
        // iterative post-order DFS numbering from the path vertices in
        // path order: every reachable vertex is pushed exactly once, as
        // a root (sources have no parent) or as its parent's child
        let mut counter: u32 = 0;
        for (i, &x) in sources.iter().enumerate() {
            let mut stack: Vec<(u32, bool)> = vec![(x.0, false)];
            while let Some((l, processed)) = stack.pop() {
                let lu = l as usize;
                if processed {
                    end[lu] = counter;
                    continue;
                }
                (dfs[lu], root[lu]) = (counter, i);
                counter += 1;
                stack.push((l, true));
                let kids = &children[child_start[lu] as usize..child_start[lu + 1] as usize];
                stack.extend(kids.iter().map(|&c| (c, false)));
            }
        }
        let key = pack_key(h as u32, gi as u16, pi as u16);
        let base = out.children.len() as u32;
        out.children
            .extend(children.iter().map(|&c| j.verts()[c as usize]));
        for (l, &v) in j.verts().iter().enumerate() {
            let Some(dist) = scratch.dist(NodeId::from_index(l)) else {
                continue;
            };
            let i = root[l];
            let parent = scratch.parent(NodeId::from_index(l)).map(|p| j.global(p));
            // only the sources — the path's own vertices — lack a parent
            let links = parent.is_none().then(|| OnPathInfo {
                pos: path.position(i),
                prev: (i > 0).then(|| path.vertices()[i - 1]),
                next: (i + 1 < path.len()).then(|| path.vertices()[i + 1]),
            });
            let record = EntryRecord::new(dist, path.position(i), parent, dfs[l], end[l], links);
            out.emitted.push(Emitted {
                vertex: v.0,
                key,
                record,
                tail: base + child_start[l]..base + child_start[l + 1],
            });
        }
    }
}

/// Builds the table arena on `threads` workers: one task per non-empty
/// `(node, group)`, each appending to its worker's emission; the groups'
/// emissions are taken in task order and sorted by vertex. Tasks ascend
/// by `(node, group)` and paths by index, so each vertex's keys come out
/// ascending, the same at every thread count.
fn build_flat(g: &Graph, tree: &DecompositionTree, threads: usize) -> FlatTables<'static> {
    let (groups, workers) = tree.residual_pass(
        g,
        threads,
        &BUILD_OBS,
        |h, gi, j, scratch, out: &mut Emission| {
            let first = out.emitted.len();
            build_group(tree, (h, gi), j, scratch, out);
            (first..out.emitted.len(), (out.emitted.len() - first) as u64)
        },
    );
    let parts: Vec<_> = (groups.into_iter())
        .map(|(w, range)| (&workers[w].emitted[range], &workers[w].children[..]))
        .collect();
    let (csr, records) = by_vertex(g.num_nodes(), &parts);
    FlatTables::new(csr, records.into()).expect("the builder emits a valid arena")
}

impl<'a> RoutingTables<'a> {
    /// Builds tables (and, via [`RoutingTables::label`], labels) for
    /// every vertex of `g` over the decomposition `tree`, sequentially.
    ///
    /// One multi-source Dijkstra per `(node, group, path)`.
    pub fn build(g: &Graph, tree: &DecompositionTree) -> Self {
        Self::build_with(g, tree, 1)
    }

    /// [`RoutingTables::build`] with `threads` workers (`0` means the
    /// machine's available parallelism, honoring `PSEP_THREADS`).
    ///
    /// Each `(node, group)` of the decomposition is one independent
    /// task; the Dijkstra count and the resulting arena are identical at
    /// every thread count — the `routing_equivalence` suite compares
    /// delta tables-section bytes to lock this down.
    pub fn build_with(g: &Graph, tree: &DecompositionTree, threads: usize) -> Self {
        let _span = psep_obs::span!("routing_build");
        RoutingTables {
            flat: build_flat(g, tree, threads),
        }
    }

    /// Wraps an existing arena (e.g. one decoded or mapped from the
    /// wire).
    pub fn from_flat(flat: FlatTables<'a>) -> Self {
        RoutingTables { flat }
    }

    /// The underlying arena.
    pub fn flat(&self) -> &FlatTables<'a> {
        &self.flat
    }

    /// True when the arena is served in place from an external buffer
    /// (zero-copy mapped bundle).
    pub fn is_borrowed(&self) -> bool {
        self.flat.is_borrowed()
    }

    /// Copies any borrowed storage onto the heap, detaching the tables
    /// from the buffer they were mapped from.
    pub fn into_owned(self) -> RoutingTables<'static> {
        RoutingTables {
            flat: self.flat.into_owned(),
        }
    }

    /// Number of vertices covered.
    pub fn num_nodes(&self) -> usize {
        self.flat.num_nodes()
    }

    /// The table of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`RoutingTables::try_table`]
    /// to get an error instead.
    pub fn table(&self, v: NodeId) -> TableRef<'_> {
        self.flat.table(v)
    }

    /// The table of `v`, or [`Error::NodeOutOfRange`].
    pub fn try_table(&self, v: NodeId) -> Result<TableRef<'_>, Error> {
        self.flat.try_table(v)
    }

    /// The routing label (address) of `v`, derived from its table.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range; use [`RoutingTables::try_label`]
    /// to get an error instead.
    pub fn label(&self, v: NodeId) -> RoutingLabel {
        self.try_label(v).unwrap()
    }

    /// The routing label of `v`, or [`Error::NodeOutOfRange`].
    pub fn try_label(&self, v: NodeId) -> Result<RoutingLabel, Error> {
        Ok(RoutingLabel {
            entries: self
                .try_table(v)?
                .entries()
                .map(|(key, e)| RoutingLabelEntry {
                    key,
                    entry_pos: e.entry_pos(),
                    dist: e.dist(),
                    dfs: e.dfs(),
                })
                .collect(),
        })
    }

    /// Table size of `v` in entries, counting per-child interval records
    /// (what a real node would store for interval routing).
    pub fn table_entries(&self, v: NodeId) -> usize {
        self.table(v)
            .entries()
            .map(|(_, e)| 1 + e.children().len())
            .sum()
    }

    /// Mean and max table entries over all vertices.
    pub fn table_stats(&self) -> (f64, usize) {
        let sizes: Vec<usize> = (0..self.num_nodes())
            .map(|i| self.table_entries(NodeId::from_index(i)))
            .collect();
        let max = sizes.iter().copied().max().unwrap_or(0);
        let mean = if sizes.is_empty() {
            0.0
        } else {
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64
        };
        (mean, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psep_core::strategy::AutoStrategy;
    use psep_core::DecompositionTree;
    use psep_graph::generators::grids;

    #[test]
    fn tables_cover_all_vertices() {
        let g = grids::grid2d(6, 6, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let tables = RoutingTables::build(&g, &tree);
        for v in g.nodes() {
            assert!(!tables.table(v).is_empty(), "{v:?} has empty table");
            let label = tables.label(v);
            assert_eq!(label.size(), tables.table(v).len());
        }
    }

    #[test]
    fn intervals_nest_properly() {
        let g = grids::grid2d(7, 7, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let tables = RoutingTables::build(&g, &tree);
        for v in g.nodes() {
            for (key, info) in tables.table(v).entries() {
                assert!(info.dfs() < info.subtree_end(), "{v:?} empty interval");
                for &c in info.children() {
                    let ci = tables.table(c).get(key).expect("child shares the key");
                    assert!(
                        info.dfs() < ci.dfs() && ci.subtree_end() <= info.subtree_end(),
                        "child interval not nested"
                    );
                }
            }
        }
    }

    #[test]
    fn on_path_vertices_have_zero_dist_and_links() {
        let g = grids::grid2d(5, 5, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let tables = RoutingTables::build(&g, &tree);
        for (h, node) in tree.nodes().iter().enumerate() {
            for (gi, group) in node.separator.groups.iter().enumerate() {
                for (pi, path) in group.paths.iter().enumerate() {
                    let key: RouteKey = (h as u32, gi as u16, pi as u16);
                    for (i, &v) in path.vertices().iter().enumerate() {
                        let info = tables.table(v).get(key).expect("path vertex has entry");
                        assert_eq!(info.dist(), 0);
                        let op = info.on_path().expect("on-path info");
                        assert_eq!(op.pos, path.position(i));
                        if i > 0 {
                            assert_eq!(op.prev, Some(path.vertices()[i - 1]));
                        }
                    }
                }
            }
        }
    }

    /// Every entry is what one multi-source Dijkstra per path says:
    /// distance, parent, nearest entry point, children (ascending) and
    /// on-path links — and every reached vertex of `J` has exactly one.
    #[test]
    fn tables_match_the_shortest_path_forests_on_every_family() {
        use psep_graph::dijkstra::dijkstra;
        use psep_graph::view::SubgraphView;
        for (name, g) in psep_testkit::equivalence_families() {
            let n = g.num_nodes();
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let tables = RoutingTables::build_with(&g, &tree, 2);
            let mut entries = 0;
            for (h, node) in tree.nodes().iter().enumerate() {
                for (gi, group) in node.separator.groups.iter().enumerate() {
                    let mask = tree.residual_mask(n, h, gi);
                    let view = SubgraphView::new(&g, &mask);
                    for (pi, path) in group.paths.iter().enumerate() {
                        let key: RouteKey = (h as u32, gi as u16, pi as u16);
                        let sp = dijkstra(&view, path.vertices());
                        let mut kids = vec![Vec::new(); n];
                        for v in mask.iter() {
                            if let Some(p) = sp.parent(v) {
                                kids[p.index()].push(v);
                            }
                        }
                        for v in mask.iter() {
                            let entry = tables.table(v).get(key);
                            let Some(dist) = sp.dist(v) else {
                                assert!(entry.is_none(), "{name}: unreached {v:?} has {key:?}");
                                continue;
                            };
                            entries += 1;
                            let e = entry.expect("reached vertex has an entry");
                            let root = sp.root_of(v).unwrap();
                            let ri = path.vertices().iter().position(|&x| x == root).unwrap();
                            assert_eq!(e.dist(), dist, "{name}: {v:?} {key:?}");
                            assert_eq!(e.parent(), sp.parent(v), "{name}: {v:?} {key:?}");
                            assert_eq!(e.entry_pos(), path.position(ri), "{name}: {v:?}");
                            assert_eq!(e.children(), kids[v.index()].as_slice(), "{name}");
                            let i = path.vertices().iter().position(|&x| x == v);
                            assert_eq!(e.on_path().is_some(), i.is_some(), "{name}: {v:?}");
                        }
                    }
                }
            }
            assert_eq!(
                tables.flat().num_entries(),
                entries,
                "{name}: stray entries"
            );
        }
    }

    #[test]
    fn parallel_build_equals_sequential() {
        for (name, g) in psep_testkit::equivalence_families() {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let base = RoutingTables::build(&g, &tree);
            for threads in [2, 3, 4, 8] {
                assert_eq!(
                    RoutingTables::build_with(&g, &tree, threads),
                    base,
                    "{name}: threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_label_is_an_error() {
        let g = grids::grid2d(3, 3, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let tables = RoutingTables::build(&g, &tree);
        assert!(matches!(
            tables.try_label(NodeId(99)),
            Err(Error::NodeOutOfRange { num_nodes: 9, .. })
        ));
    }
}
