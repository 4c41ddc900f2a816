//! Every vertex's distance label and routing table carry the same
//! `(node, group, path)` keys, in the same order: both builders emit an
//! entry for a separator path exactly when the vertex lies in the
//! residual graph `J` of the path's `(node, group)` and reaches the path
//! inside `J`. Bundles store the two key columns separately; this is the
//! fact that would let one column serve both.

use path_separators::graph::generators::{grids, planar_families};
use path_separators::oracle::label::unpack_key;
use path_separators::routing::RouteKey;
use path_separators::{
    build_oracle, AutoStrategy, DecompositionTree, Graph, OracleParams, RoutingTables,
};

fn assert_same_keys(name: &str, g: &Graph) {
    let tree = DecompositionTree::build(g, &AutoStrategy::default());
    let params = OracleParams {
        epsilon: 0.25,
        threads: 1,
    };
    let oracle = build_oracle(g, &tree, params);
    let tables = RoutingTables::build(g, &tree);
    for v in g.nodes() {
        let label: Vec<RouteKey> = oracle
            .label(v)
            .entries()
            .map(|(key, _)| unpack_key(key))
            .collect();
        let table: Vec<RouteKey> = tables.table(v).entries().map(|(key, _)| key).collect();
        assert_eq!(label, table, "{name}: keys of {v:?}");
    }
}

#[test]
fn label_keys_equal_table_keys_on_every_family() {
    for (name, g) in psep_testkit::equivalence_families() {
        assert_same_keys(name, &g);
    }
}

#[test]
fn label_keys_equal_table_keys_on_the_40x40_grids() {
    assert_same_keys("grid 40x40", &grids::grid2d(40, 40, 1));
    assert_same_keys(
        "tri-grid 40x40",
        &planar_families::triangulated_grid(40, 40, 1),
    );
}
