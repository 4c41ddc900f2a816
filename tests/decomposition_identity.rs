//! Golden identity of the separator hierarchy and of what is built on it.
//!
//! Pins five CRC-32s per graph, at one and at four worker threads:
//!
//! * the tree-section encoding of
//!   `DecompositionTree::build_with(&g, &AutoStrategy::default(), ..)`;
//! * the delta labels-section encoding of the `ε = 0.25` oracle's labels
//!   (`encode_labels`);
//! * the delta tables-section encoding of the routing tables
//!   (`encode_tables`);
//! * the raw labels-section and raw tables-section encodings of the same
//!   arenas (`encode_labels_flat_into`, `encode_tables_flat_into`), so a
//!   reordered or re-padded raw column moves a value even though it
//!   still round-trips.
//!
//! A sixth CRC per graph and thread count covers the tables' content as
//! read through `RoutingTables::table(v).entries()`: every entry's key,
//! `dist`, `entry_pos`, parent, DFS interval, on-path links and children.
//! It does not depend on any section layout, so a change to the table
//! codecs moves the two tables-section CRCs and leaves it alone.
//!
//! The three graphs cover both routes through `AutoStrategy`:
//!
//! * the 40×40 grid and the 40×40 triangulated grid are too wide near the
//!   top of the hierarchy, so those width probes stop early and the
//!   iterative strategy splits them; their smaller components below pass
//!   the probe and are split at center bags;
//! * the 3-tree passes every probe and is split at center bags throughout.
//!
//! A change to the elimination heuristic, its tie-breaking or the
//! decomposition it returns moves these values, and so does a change to
//! the portal greedy or the shortest-path trees behind the tables; a pure
//! speed-up or a refactor of the builders must not.
//!
//! The trees that recurse on other separators are pinned node by node
//! (parent, depth, vertices, and each group's piece or path vertex
//! lists): the `(k, α)`-doubling tree of the 3D-mesh plane strategy, the
//! weight-halving tree, and the doubling oracle's labels built on the
//! former.
//!
//! The small-world augmentation is pinned by every vertex's per-level,
//! per-path landmark lists over the grid's and tri-grid's trees.
//!
//! The oracle's merge-join is pinned on a fixed sample of pairs of the
//! grid and the tri-grid: each answer, its winning key and portal pair,
//! and the summed join statistics (candidates scanned, keys and portal
//! tails pruned). A change to how the join bounds or orders its scan
//! moves these; one that only changes where the bounds come from must
//! not.

use path_separators::core::doubling::{DoublingDecompositionTree, GridPlaneStrategy};
use path_separators::core::weighted::WeightedStrategy;
use path_separators::core::wire::crc32;
use path_separators::core::DecompositionParams;
use path_separators::graph::generators::{grids, ktree, planar_families};
use path_separators::oracle::doubling::{build_doubling_oracle, DoublingOracleParams};
use path_separators::oracle::wire::{encode_labels, encode_labels_flat_into};
use path_separators::oracle::JoinStats;
use path_separators::planar::CycleSearch;
use path_separators::routing::wire::{encode_tables, encode_tables_flat_into};
use path_separators::smallworld::build_augmentation_with;
use path_separators::{
    build_oracle, AutoStrategy, DecompositionTree, DistanceOracle, Graph, NodeId, OracleParams,
    RoutingTables,
};

const EPSILON: f64 = 0.25;

/// CRC-32s of the tree, delta label, delta table, raw label and raw
/// table encodings built at `threads`.
fn crcs(g: &Graph, threads: usize) -> [u32; 5] {
    let tree = DecompositionTree::build_with(
        g,
        &AutoStrategy::default(),
        &DecompositionParams { threads },
    );
    let params = OracleParams {
        epsilon: EPSILON,
        threads,
    };
    let oracle = build_oracle(g, &tree, params);
    let tables = RoutingTables::build_with(g, &tree, threads);
    let (mut raw_labels, mut raw_tables) = (Vec::new(), Vec::new());
    encode_labels_flat_into(oracle.flat_labels(), EPSILON, &mut raw_labels);
    encode_tables_flat_into(tables.flat(), &mut raw_tables);
    [
        crc32(&tree.encode()),
        crc32(&encode_labels(oracle.flat_labels(), EPSILON)),
        crc32(&encode_tables(tables.flat())),
        crc32(&raw_labels),
        crc32(&raw_tables),
    ]
}

/// Asserts the pinned `[tree, labels, tables, raw labels, raw tables]`
/// CRCs at 1 and 4 threads.
fn assert_golden(name: &str, g: &Graph, pinned: [u32; 5]) {
    let hex = |crcs: [u32; 5]| crcs.map(|c| format!("{c:#010x}"));
    for threads in [1, 4] {
        assert_eq!(
            hex(crcs(g, threads)),
            hex(pinned),
            "{name} at {threads} thread(s): [tree, labels, tables, raw labels, raw tables] crcs"
        );
    }
}

#[test]
fn grid_tree_is_pinned() {
    assert_golden(
        "grid 40x40",
        &grids::grid2d(40, 40, 1),
        [
            0x238e_b3a2,
            0x0d0e_fba4,
            0x7daf_7943,
            0xf5f3_b2df,
            0x1100_9a9b,
        ],
    );
}

#[test]
fn triangulated_grid_tree_is_pinned() {
    assert_golden(
        "tri-grid 40x40",
        &planar_families::triangulated_grid(40, 40, 1),
        [
            0x1d93_0c1c,
            0xc4f4_b952,
            0x73ed_7b3a,
            0x8f4d_c322,
            0xdb23_5693,
        ],
    );
}

#[test]
fn three_tree_is_pinned() {
    assert_golden(
        "3-tree n=2000",
        &ktree::random_k_tree(2000, 3, 1).graph,
        [
            0xc5fd_b1aa,
            0x9d09_0413,
            0x04f8_52f5,
            0x8cb5_f592,
            0xf259_b1e5,
        ],
    );
}

/// CRC-32 of every vertex's routing table built at `threads`, read
/// entry by entry through the public views, in vertex and key order.
fn table_content_crc(g: &Graph, threads: usize) -> u32 {
    let tree = DecompositionTree::build_with(
        g,
        &AutoStrategy::default(),
        &DecompositionParams { threads },
    );
    let tables = RoutingTables::build_with(g, &tree, threads);
    let opt = |v: Option<NodeId>| v.map_or(0, |v| v.0 as u64 + 1);
    let mut bytes = Vec::new();
    for v in g.nodes() {
        let table = tables.table(v);
        put(&mut bytes, table.len() as u64);
        for ((node, group, path), e) in table.entries() {
            for x in [node.into(), group.into(), path.into()] {
                put(&mut bytes, x);
            }
            bytes.extend_from_slice(&e.dist().to_le_bytes());
            bytes.extend_from_slice(&e.entry_pos().to_le_bytes());
            for x in [opt(e.parent()), e.dfs().into(), e.subtree_end().into()] {
                put(&mut bytes, x);
            }
            match e.on_path() {
                None => put(&mut bytes, 0),
                Some(op) => {
                    put(&mut bytes, 1);
                    bytes.extend_from_slice(&op.pos.to_le_bytes());
                    put(&mut bytes, opt(op.prev));
                    put(&mut bytes, opt(op.next));
                }
            }
            put_list(&mut bytes, e.children());
        }
    }
    crc32(&bytes)
}

#[test]
fn table_contents_are_pinned() {
    for (name, g, pinned) in [
        ("grid 40x40", grids::grid2d(40, 40, 1), 0x9850_c4bd_u32),
        (
            "tri-grid 40x40",
            planar_families::triangulated_grid(40, 40, 1),
            0xb125_8a06,
        ),
        (
            "3-tree n=2000",
            ktree::random_k_tree(2000, 3, 1).graph,
            0x109a_eb61,
        ),
    ] {
        for threads in [1, 4] {
            assert_eq!(
                format!("{:#010x}", table_content_crc(&g, threads)),
                format!("{pinned:#010x}"),
                "{name} table contents at {threads} thread(s)"
            );
        }
    }
}

/// One tree node as the node-by-node pins see it: parent, depth,
/// vertices, and each group's piece or path vertex lists.
type NodeView<'a> = (Option<usize>, usize, &'a [NodeId], Vec<Vec<&'a [NodeId]>>);

/// Appends `x` as a little-endian `u32`.
fn put(bytes: &mut Vec<u8>, x: u64) {
    bytes.extend_from_slice(&(x as u32).to_le_bytes());
}

/// Appends a length-prefixed vertex list.
fn put_list(bytes: &mut Vec<u8>, list: &[NodeId]) {
    put(bytes, list.len() as u64);
    for v in list {
        put(bytes, v.0 as u64);
    }
}

/// CRC-32 of every node's view, in node order.
fn nodes_crc<'a>(nodes: impl Iterator<Item = NodeView<'a>>) -> u32 {
    let mut bytes = Vec::new();
    for (parent, depth, vertices, groups) in nodes {
        put(&mut bytes, parent.map_or(0, |p| p as u64 + 1));
        put(&mut bytes, depth as u64);
        put_list(&mut bytes, vertices);
        put(&mut bytes, groups.len() as u64);
        for group in groups {
            put(&mut bytes, group.len() as u64);
            for list in group {
                put_list(&mut bytes, list);
            }
        }
    }
    crc32(&bytes)
}

fn doubling_tree(dims: (usize, usize, usize)) -> (Graph, DoublingDecompositionTree) {
    let g = grids::grid3d(dims.0, dims.1, dims.2);
    let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims });
    (g, tree)
}

#[test]
fn doubling_trees_are_pinned() {
    for (dims, pinned) in [((6, 6, 6), 0x99d6_ee91_u32), ((5, 4, 4), 0x5644_446b)] {
        let (_, tree) = doubling_tree(dims);
        let crc = nodes_crc(tree.nodes().iter().map(|n| {
            let groups = n.separator.groups.iter();
            let pieces = groups.map(|g| g.iter().map(|p| &p.vertices[..]).collect());
            (n.parent, n.depth, &n.vertices[..], pieces.collect())
        }));
        assert_eq!(
            format!("{crc:#010x}"),
            format!("{pinned:#010x}"),
            "doubling tree of grid3d{dims:?}"
        );
    }
}

#[test]
fn weighted_tree_is_pinned() {
    // the 9x9 grid with its 3x3 corner weighing 20 per vertex
    let g = grids::grid2d(9, 9, 1);
    let weights: Vec<f64> = (0..81)
        .map(|i| if i % 9 < 3 && i / 9 < 3 { 20.0 } else { 1.0 })
        .collect();
    let strategy = WeightedStrategy {
        weights: &weights,
        search: CycleSearch::default(),
        max_groups: 16,
    };
    let tree = DecompositionTree::build(&g, &strategy);
    let crc = nodes_crc(tree.nodes().iter().map(|n| {
        let groups = n.separator.groups.iter();
        let paths = groups.map(|g| g.paths.iter().map(|p| p.vertices()).collect());
        (n.parent, n.depth, &n.vertices[..], paths.collect())
    }));
    assert_eq!(format!("{crc:#010x}"), format!("{:#010x}", 0xa3fd_214d_u32));
}

#[test]
fn doubling_oracle_labels_are_pinned() {
    let (g, tree) = doubling_tree((6, 6, 6));
    for threads in [1, 4] {
        let params = DoublingOracleParams {
            epsilon: EPSILON,
            threads,
        };
        let oracle = build_doubling_oracle(&g, &tree, params);
        let mut bytes = Vec::new();
        for v in g.nodes() {
            let label = oracle.label(v);
            put(&mut bytes, label.len() as u64);
            for ((node, group, piece, scale), landmarks) in label {
                for x in [node, group.into(), piece.into(), scale.into()] {
                    put(&mut bytes, x.into());
                }
                put(&mut bytes, landmarks.len() as u64);
                for l in landmarks {
                    put(&mut bytes, l.landmark.0 as u64);
                    bytes.extend_from_slice(&l.dist.to_le_bytes());
                }
            }
        }
        assert_eq!(
            format!("{:#010x}", crc32(&bytes)),
            format!("{:#010x}", 0x037b_779f_u32),
            "doubling oracle labels at {threads} thread(s)"
        );
    }
}

/// CRC-32 of the augmentation over `g`'s tree built at `threads`: every
/// vertex's per-level, per-path landmark lists, in vertex order.
fn augmentation_crc(g: &Graph, threads: usize) -> u32 {
    // ⌈log₂ Δ⌉ of the 40×40 unit grid (Δ = 78)
    const LOG_DELTA: u32 = 7;
    let tree = DecompositionTree::build(g, &AutoStrategy::default());
    let aug = build_augmentation_with(g, &tree, LOG_DELTA, threads);
    let mut bytes = Vec::new();
    for v in g.nodes() {
        put(&mut bytes, aug.num_levels(v) as u64);
        for level in 0..aug.num_levels(v) {
            let paths = &aug.level_choices(v, level).unwrap().paths;
            put(&mut bytes, paths.len() as u64);
            for list in paths {
                put_list(&mut bytes, list);
            }
        }
    }
    crc32(&bytes)
}

#[test]
fn augmentations_are_pinned() {
    for (name, g, pinned) in [
        ("grid 40x40", grids::grid2d(40, 40, 1), 0x460e_9962_u32),
        (
            "tri-grid 40x40",
            planar_families::triangulated_grid(40, 40, 1),
            0xdc7d_2785,
        ),
    ] {
        for threads in [1, 4] {
            assert_eq!(
                format!("{:#010x}", augmentation_crc(&g, threads)),
                format!("{pinned:#010x}"),
                "{name} augmentation at {threads} thread(s)"
            );
        }
    }
}

/// The vertices of `walk` reached after covering `a` and `b` of its
/// weight (edge weights are `>= 1`, so each is unique).
fn vertices_at(g: &Graph, walk: &[NodeId], a: u64, b: u64) -> (NodeId, NodeId) {
    let (mut covered, mut at_a, mut at_b) = (0, None, None);
    for (i, &x) in walk.iter().enumerate() {
        if i > 0 {
            covered += g.edge_weight(walk[i - 1], x).expect("walk edge");
        }
        if covered == a {
            at_a = Some(x);
        }
        if covered == b {
            at_b = Some(x);
        }
    }
    (at_a.expect("walk covers a"), at_b.expect("walk covers b"))
}

/// CRC-32 of `(answer, winning key, pu, pv)` over a fixed sample of
/// pairs of the `ε = 0.25` oracle, and the summed join statistics. The
/// portal pair is read off the witness path: `p` is where the walk has
/// covered `d_J(u,p)`, `q` where it has covered `d_J(u,p) + d_Q(p,q)`.
fn join_crc(g: &Graph) -> (u32, JoinStats) {
    let (tree, oracle, pairs) = join_sample(g);
    let (mut bytes, mut total) = (Vec::new(), JoinStats::default());
    for (u, v) in pairs {
        let (answer, stats) = oracle.query_with_stats(u, v);
        total.merge(stats);
        put(&mut bytes, answer.unwrap_or(u64::MAX));
        let Some((w, wit)) = oracle.explain(u, v) else {
            continue;
        };
        assert_eq!(Some(w), answer, "{u:?}->{v:?}");
        let walk = oracle.query_path(g, &tree, u, v).expect("witness path");
        let (p, q) = vertices_at(g, &walk.nodes, wit.dist_u, wit.dist_u + wit.along);
        let node = &tree.nodes()[wit.node as usize];
        let path = &node.separator.groups[usize::from(wit.group)].paths[usize::from(wit.path)];
        let pos = |x| path.position(path.index_of(x).expect("portal on its path"));
        for x in [
            wit.node.into(),
            wit.group.into(),
            wit.path.into(),
            pos(p),
            wit.dist_u,
            pos(q),
            wit.dist_v,
        ] {
            put(&mut bytes, x);
        }
    }
    (crc32(&bytes), total)
}

/// The tree and `ε = 0.25` oracle of `g`, and the fixed sample of 600
/// pairs the join pins are taken over.
fn join_sample(
    g: &Graph,
) -> (
    DecompositionTree,
    DistanceOracle<'static>,
    Vec<(NodeId, NodeId)>,
) {
    let tree = DecompositionTree::build(g, &AutoStrategy::default());
    let params = OracleParams {
        epsilon: EPSILON,
        threads: 1,
    };
    let oracle = build_oracle(g, &tree, params);
    let n = g.num_nodes() as u64;
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        NodeId((state % n) as u32)
    };
    let pairs = (0..600).map(|_| (next(), next())).collect();
    (tree, oracle, pairs)
}

/// On the grid's pinned pair sample, the path vertices at the witness's
/// `pos_u` and `pos_v` are the portals `p` and `q` its walk passes
/// through after `d_J(u,p)` and `d_J(u,p) + d_Q(p,q)`.
#[test]
fn witness_positions_name_the_walk_portals() {
    let g = grids::grid2d(40, 40, 1);
    let (tree, oracle, pairs) = join_sample(&g);
    let mut explained = 0;
    for &(u, v) in &pairs {
        let Some((_, wit)) = oracle.explain(u, v) else {
            continue;
        };
        assert_eq!(wit.along, wit.pos_u.abs_diff(wit.pos_v), "{u:?}->{v:?}");
        let walk = oracle.query_path(&g, &tree, u, v).expect("witness path");
        let (p, q) = vertices_at(&g, &walk.nodes, wit.dist_u, wit.dist_u + wit.along);
        let node = &tree.nodes()[wit.node as usize];
        let path = &node.separator.groups[usize::from(wit.group)].paths[usize::from(wit.path)];
        let at = |pos| {
            let i = (0..path.len()).find(|&i| path.position(i) == pos);
            path.vertices()[i.expect("a portal position is a vertex's")]
        };
        assert_eq!((at(wit.pos_u), at(wit.pos_v)), (p, q), "{u:?}->{v:?}");
        explained += 1;
    }
    assert!(
        explained > pairs.len() / 2,
        "{explained} of {} pairs explained",
        pairs.len()
    );
}

#[test]
fn join_witnesses_are_pinned() {
    for (name, g, pinned, stats) in [
        (
            "grid 40x40",
            grids::grid2d(40, 40, 1),
            0x80d9_94a8_u32,
            [161_139_u64, 309, 44_838],
        ),
        (
            "tri-grid 40x40",
            planar_families::triangulated_grid(40, 40, 1),
            0x6b33_7253,
            [144_132, 1_032, 49_187],
        ),
    ] {
        let (crc, total) = join_crc(&g);
        assert_eq!(
            format!("{crc:#010x}"),
            format!("{pinned:#010x}"),
            "{name}: (answer, key, pu, pv) crc"
        );
        assert_eq!(
            [total.scanned, total.pruned_keys, total.pruned_portals],
            stats,
            "{name}: summed [scanned, pruned keys, pruned portals]"
        );
    }
}
