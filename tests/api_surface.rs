//! Exercises the facade crate's top-level re-exports and assorted edge
//! cases that the per-crate suites don't reach.

use path_separators::{
    build_oracle, AutoStrategy, DecompositionTree, DistanceOracle, Graph, NodeId, ObjectDirectory,
    OracleParams, PathSeparator, Router, RoutingTables, SepPath, SeparatorStrategy,
};

#[test]
fn top_level_reexports_compose() {
    let mut g = Graph::new(6);
    for i in 0..5u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), 2);
    }
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let oracle: DistanceOracle = build_oracle(
        &g,
        &tree,
        OracleParams {
            epsilon: 0.1,
            threads: 1,
        },
    );
    assert_eq!(oracle.query(NodeId(0), NodeId(5)), Some(10));

    let router = Router::new(&g, RoutingTables::build(&g, &tree));
    let out = router
        .route(NodeId(0), NodeId(5), &router.label(NodeId(5)))
        .unwrap();
    assert_eq!(out.cost, 10); // unique path: routing is exact on a path

    let mut dir = ObjectDirectory::new(oracle);
    dir.register(1, NodeId(5));
    assert_eq!(dir.locate(NodeId(0), 1), Some((NodeId(5), 10)));
}

#[test]
fn separator_types_are_usable_directly() {
    let mut g = Graph::new(3);
    g.add_edge(NodeId(0), NodeId(1), 1);
    g.add_edge(NodeId(1), NodeId(2), 1);
    let sep = PathSeparator::strong(vec![SepPath::singleton(NodeId(1))]);
    let comp: Vec<NodeId> = g.nodes().collect();
    path_separators::core::check_separator(&g, &comp, &sep, Some(1)).unwrap();
}

#[test]
fn two_vertex_components_decompose() {
    let mut g = Graph::new(2);
    g.add_edge(NodeId(0), NodeId(1), 7);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    path_separators::core::check_tree(&g, &tree).unwrap();
    let oracle = build_oracle(&g, &tree, OracleParams::default());
    assert_eq!(oracle.query(NodeId(0), NodeId(1)), Some(7));
}

#[test]
fn star_apex_is_detected_by_iterative_strategy() {
    // a star's hub is an apex: the iterative strategy must remove it as
    // a singleton in group 0 and finish in one group
    let g = path_separators::graph::generators::trees::star(20);
    let comp: Vec<NodeId> = g.nodes().collect();
    let sep = path_separators::core::IterativeStrategy::default().separate(&g, &comp);
    path_separators::core::check_separator(&g, &comp, &sep, None).unwrap();
    assert!(sep.groups[0]
        .paths
        .iter()
        .any(|p| p.is_singleton() && p.vertices()[0] == NodeId(0)));
}

#[test]
fn oracle_from_built_labels_matches_built_oracle() {
    let g = path_separators::graph::generators::grids::grid2d(5, 5, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let built = build_oracle(
        &g,
        &tree,
        OracleParams {
            epsilon: 0.5,
            threads: 1,
        },
    );
    let labels = path_separators::oracle::label::build_labels(&g, &tree, 0.5, 1);
    let relabeled = DistanceOracle::from_flat(labels, 0.5);
    assert_eq!(relabeled.flat_labels(), built.flat_labels());
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(built.query(u, v), relabeled.query(u, v));
        }
    }
    assert_eq!(built.epsilon(), 0.5);
}

#[test]
fn routing_label_size_equals_table_key_count() {
    let g = path_separators::graph::generators::ktree::random_weighted_k_tree(40, 2, 5, 9).graph;
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let tables = RoutingTables::build(&g, &tree);
    for v in g.nodes() {
        assert_eq!(tables.label(v).size(), tables.table(v).len());
    }
}

#[test]
fn decomposition_total_paths_accounting() {
    let g = path_separators::graph::generators::grids::grid2d(8, 8, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let total: usize = tree.nodes().iter().map(|n| n.separator.num_paths()).sum();
    assert_eq!(tree.total_paths(), total);
    assert!(tree.max_paths_per_node() <= total);
}
