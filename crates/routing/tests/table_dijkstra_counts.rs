//! Regression test for routing-table construction cost: building the
//! tables must run exactly one multi-source Dijkstra per separator path
//! (the `T_Q` tree of each `(node, group, path)`), never one per vertex
//! — and the count must not change with the worker count.
//!
//! Kept as a single test function in its own binary so no other test can
//! pollute the process-global obs counters.

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::generators::grids;
use psep_routing::RoutingTables;

#[test]
fn table_construction_runs_one_dijkstra_per_separator_path() {
    psep_obs::set_enabled(true);
    assert!(psep_obs::enabled(), "tests link the live obs backend");
    let g = grids::grid2d(8, 8, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());

    // expected: Σ over (node, group) of the group's path count
    let expected: u64 = tree
        .nodes()
        .iter()
        .map(|node| {
            node.separator
                .groups
                .iter()
                .map(|gr| gr.paths.len() as u64)
                .sum::<u64>()
        })
        .sum();
    assert!(expected > 0, "grid decomposition should have paths");

    for threads in [1usize, 4] {
        let before = psep_obs::snapshot()
            .counter("graph.dijkstra.invocations")
            .unwrap_or(0);
        let tables = RoutingTables::build_with(&g, &tree, threads);
        assert_eq!(tables.num_nodes(), g.num_nodes());
        let after = psep_obs::snapshot()
            .counter("graph.dijkstra.invocations")
            .unwrap_or(0);
        assert_eq!(
            after - before,
            expected,
            "dijkstra count changed at {threads} threads"
        );
    }
}
