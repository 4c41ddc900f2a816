//! Regression test for witness-path cost: one `query_path` runs exactly
//! two Dijkstras (one per leg), and each stops at its endpoint instead
//! of settling the whole residual graph.
//!
//! Kept as a single test function in its own binary so no other test can
//! pollute the process-global obs counters.

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::generators::grids;
use psep_graph::graph::NodeId;
use psep_oracle::{build_oracle, OracleParams};

#[test]
fn query_path_runs_two_targeted_dijkstras() {
    psep_obs::set_enabled(true);
    assert!(psep_obs::enabled(), "tests link the live obs backend");
    let g = grids::grid2d(30, 30, 1);
    let n = g.num_nodes();
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let oracle = build_oracle(
        &g,
        &tree,
        OracleParams {
            epsilon: 0.25,
            threads: 1,
        },
    );
    // (u, v) adjacent: grid vertex i*30 + j neighbours i*30 + j + 1
    let (u, v) = (NodeId(15 * 30 + 14), NodeId(15 * 30 + 15));
    let (_, witness) = oracle.explain(u, v).expect("grid is connected");
    let residual = tree
        .residual_mask(n, witness.node as usize, witness.group as usize)
        .len() as u64;

    let before = psep_obs::snapshot();
    let path = oracle
        .query_path(&g, &tree, u, v)
        .expect("grid is connected");
    let after = psep_obs::snapshot();
    assert_eq!(path.nodes.first(), Some(&u));
    assert_eq!(path.nodes.last(), Some(&v));

    let runs = after.counter("graph.dijkstra.invocations").unwrap_or(0)
        - before.counter("graph.dijkstra.invocations").unwrap_or(0);
    assert_eq!(runs, 2, "one Dijkstra per leg");
    let pops = |s: &psep_obs::Snapshot| s.histogram("graph.dijkstra.pops").map_or(0, |h| h.sum);
    let settled = pops(&after) - pops(&before);
    assert!(
        settled < residual,
        "both legs settled {settled} vertices; the residual graph has {residual}"
    );
}
