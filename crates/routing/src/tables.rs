//! Routing tables and routing labels.
//!
//! Tables live in a [`FlatTables`] CSR-style arena (see [`crate::flat`]).
//! Construction fans out across a [`ShardedRunner`] — one task per
//! `(node, group)` of the decomposition, one multi-source Dijkstra per
//! path regardless of thread count — and merges task results in input
//! order, so the arena (and its `psep-routing/v1` wire bytes) is
//! **bit-identical** at every thread count.

use std::collections::BTreeMap;

use psep_core::decomposition::DecompositionTree;
use psep_core::exec::{ShardObs, ShardedRunner};
use psep_graph::dijkstra::dijkstra;
use psep_graph::graph::{Graph, NodeId, Weight};
use psep_graph::view::SubgraphView;
use psep_oracle::label::pack_key;

use crate::error::Error;
use crate::flat::{FlatTables, TableRef};

/// Identifies one separator path: `(node, group, path)`.
pub type RouteKey = (u32, u16, u16);

/// Counter names for table-construction workers.
const BUILD_OBS: ShardObs = ShardObs {
    prefix: "routing.build",
    items: "groups",
    units: "entries",
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

/// A vertex's routing-table entry for one separator path `Q` in its
/// residual graph `J`, as the builder produces it — the owned form of
/// one [`crate::flat::EntryRef`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathInfo {
    /// `d_J(v, Q)` — distance to the nearest path vertex.
    pub dist: Weight,
    /// Position of that nearest entry point `x_v` on `Q`.
    pub entry_pos: Weight,
    /// Parent toward `Q` in the multi-source tree `T_Q` (`None` on `Q`).
    pub parent: Option<NodeId>,
    /// DFS preorder index of `v` in `T_Q`.
    pub dfs: u32,
    /// One past the largest DFS index in `v`'s subtree: the interval
    /// `[dfs, subtree_end)` covers exactly `v`'s descendants.
    pub subtree_end: u32,
    /// Children of `v` in `T_Q` (for interval routing downward).
    pub children: Vec<NodeId>,
    /// Set iff `v` lies on `Q`.
    pub on_path: Option<OnPathInfo>,
}

/// All vertices' routing tables, stored in a [`FlatTables`] arena.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTables<'a> {
    flat: FlatTables<'a>,
}

/// A vertex's routing label (its routable address): per shared path, the
/// information a *source* needs to compute the exact plan cost.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RoutingLabel {
    /// Entries sorted by key.
    pub entries: Vec<RoutingLabelEntry>,
}

/// One routing-label entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
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

/// Builds the per-path tables of one `(node, group)`: for each path of
/// the group, the `(vertex, PathInfo)` records in ascending vertex
/// order. Pure in its inputs, so tasks can run on any worker.
fn build_group(
    g: &Graph,
    tree: &DecompositionTree,
    h: usize,
    gi: usize,
) -> Vec<Vec<(NodeId, PathInfo)>> {
    let n = g.num_nodes();
    let node = &tree.nodes()[h];
    let mask = tree.residual_mask(n, h, gi);
    let view = SubgraphView::new(g, &mask);
    let mut per_path = Vec::with_capacity(node.separator.groups[gi].paths.len());
    for path in &node.separator.groups[gi].paths {
        let sources: Vec<NodeId> = path.vertices().to_vec();
        let sp = dijkstra(&view, &sources);
        // children lists of T_Q
        let mut children: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for v in mask.iter() {
            if let Some(p) = sp.parent(v) {
                children.entry(p).or_default().push(v);
            }
        }
        // DFS numbering: roots are the path vertices in path
        // order; every reachable vertex gets an interval.
        let mut dfs_of: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut end_of: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut counter: u32 = 0;
        for &root in path.vertices() {
            // iterative post-order interval assignment
            let mut stack: Vec<(NodeId, bool)> = vec![(root, false)];
            while let Some((v, processed)) = stack.pop() {
                if processed {
                    end_of.insert(v, counter);
                    continue;
                }
                if dfs_of.contains_key(&v) {
                    continue; // path vertex already numbered
                }
                dfs_of.insert(v, counter);
                counter += 1;
                stack.push((v, true));
                if let Some(kids) = children.get(&v) {
                    for &c in kids {
                        stack.push((c, false));
                    }
                }
            }
        }
        // entry positions: position of root_of(v)
        let mut idx_of_path_vertex: BTreeMap<NodeId, usize> = BTreeMap::new();
        let mut pos_of_path_vertex: BTreeMap<NodeId, Weight> = BTreeMap::new();
        for (i, &v) in path.vertices().iter().enumerate() {
            idx_of_path_vertex.insert(v, i);
            pos_of_path_vertex.insert(v, path.position(i));
        }
        let mut entries = Vec::new();
        for v in mask.iter() {
            if !sp.reached(v) {
                continue;
            }
            let root = sp.root_of(v).expect("reached implies root");
            let on_path = idx_of_path_vertex.get(&v).copied().map(|i| OnPathInfo {
                pos: path.position(i),
                prev: (i > 0).then(|| path.vertices()[i - 1]),
                next: (i + 1 < path.len()).then(|| path.vertices()[i + 1]),
            });
            entries.push((
                v,
                PathInfo {
                    dist: sp.dist(v).unwrap(),
                    entry_pos: pos_of_path_vertex[&root],
                    parent: sp.parent(v),
                    dfs: dfs_of[&v],
                    subtree_end: end_of[&v],
                    children: children.get(&v).cloned().unwrap_or_default(),
                    on_path,
                },
            ));
        }
        per_path.push(entries);
    }
    per_path
}

/// The builder's output before flattening: per vertex, its
/// `(packed key, entry)` list in ascending key order. Tasks run on
/// `threads` workers and merge in input order, so the lists are the same
/// at every thread count.
pub(crate) fn vertex_lists(
    g: &Graph,
    tree: &DecompositionTree,
    threads: usize,
) -> Vec<Vec<(u64, PathInfo)>> {
    let n = g.num_nodes();
    let tasks: Vec<(u32, u16)> = tree
        .nodes()
        .iter()
        .enumerate()
        .flat_map(|(h, node)| {
            (0..node.separator.num_groups())
                .filter(|&gi| !node.separator.groups[gi].paths.is_empty())
                .map(move |gi| (h as u32, gi as u16))
        })
        .collect();
    let runner = ShardedRunner::new(threads);
    let (groups, _) = runner.map(&tasks, Some(&BUILD_OBS), |&(h, gi)| {
        let per_path = build_group(g, tree, h as usize, gi as usize);
        let produced: u64 = per_path.iter().map(|p| p.len() as u64).sum();
        (per_path, produced)
    });
    // input-order merge: tasks ascend by (node, group) and paths by
    // index, so each vertex's keys arrive in ascending packed order
    let mut per_vertex: Vec<Vec<(u64, PathInfo)>> = vec![Vec::new(); n];
    for (&(h, gi), per_path) in tasks.iter().zip(groups) {
        for (pi, entries) in per_path.into_iter().enumerate() {
            let key = pack_key(h, gi, pi as u16);
            for (v, info) in entries {
                per_vertex[v.index()].push((key, info));
            }
        }
    }
    per_vertex
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
    /// `psep-routing/v1` wire bytes to lock this down.
    pub fn build_with(g: &Graph, tree: &DecompositionTree, threads: usize) -> Self {
        let _span = psep_obs::span!("routing_build");
        RoutingTables {
            flat: FlatTables::from_vertex_lists(vertex_lists(g, tree, threads)),
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

    #[test]
    fn flat_views_match_the_builders_lists_on_every_family() {
        for (name, g) in psep_testkit::equivalence_families() {
            let tree = DecompositionTree::build(&g, &AutoStrategy::default());
            let lists = vertex_lists(&g, &tree, 1);
            let tables = RoutingTables::build(&g, &tree);
            assert_eq!(lists.len(), tables.num_nodes(), "family {name}");
            for (v, list) in g.nodes().zip(&lists) {
                let table = tables.table(v);
                assert_eq!(table.len(), list.len(), "family {name}: {v:?} table size");
                for ((key, entry), (packed, info)) in table.entries().zip(list) {
                    assert_eq!(pack_key(key.0, key.1, key.2), *packed, "family {name}");
                    assert_eq!(&entry.to_info(), info, "family {name}: {v:?} {key:?}");
                    assert_eq!(entry.children(), info.children.as_slice());
                }
            }
        }
    }

    #[test]
    fn parallel_build_equals_sequential() {
        let g = grids::grid2d(8, 8, 1);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let base = RoutingTables::build(&g, &tree);
        for threads in [2, 4] {
            assert_eq!(
                RoutingTables::build_with(&g, &tree, threads),
                base,
                "threads = {threads}"
            );
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
