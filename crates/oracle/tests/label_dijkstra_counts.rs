//! Regression test for the path-major label construction: the number of
//! Dijkstra runs must equal the number of alive separator-path vertices
//! summed over every `(node, group)` of the tree — one run per source,
//! never one per alive vertex per level — at every thread count.
//!
//! Kept as a single test function in its own binary so no other test can
//! pollute the process-global obs counters.

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::generators::grids;
use psep_oracle::label::build_labels;

#[test]
fn label_construction_runs_one_dijkstra_per_alive_path_vertex() {
    psep_obs::set_enabled(true);
    assert!(psep_obs::enabled(), "tests link the live obs backend");
    let g = grids::grid2d(8, 8, 1);
    let n = g.num_nodes();
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());

    // expected: Σ over (node, group, path) of path vertices still alive
    // in that group's residual graph
    let mut expected = 0u64;
    for (h, node) in tree.nodes().iter().enumerate() {
        for gi in 0..node.separator.num_groups() {
            let mask = tree.residual_mask(n, h, gi);
            for q in &node.separator.groups[gi].paths {
                expected += q.vertices().iter().filter(|&&x| mask.contains(x)).count() as u64;
            }
        }
    }
    assert!(expected > 0, "grid decomposition should have path sources");

    for threads in [1usize, 4] {
        let before = psep_obs::snapshot()
            .counter("graph.dijkstra.invocations")
            .unwrap_or(0);
        let labels = build_labels(&g, &tree, 0.25, threads);
        assert_eq!(labels.num_labels(), n);
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
