//! Witness-path reporting is observationally identical across every
//! layer: `query_path_many` equals a sequential `query_path` loop
//! bit-for-bit at every thread count, every reported weight equals the
//! distance `query` reports for the same pair, and every path survives
//! [`PathChecker`] against the ground-truth graph.

use path_separators::{
    build_oracle, AutoStrategy, BatchQueryEngine, DecompositionTree, NodeId, OracleParams,
};
use psep_testkit::{equivalence_families, random_pairs, PathChecker, THREAD_COUNTS};

const EPSILON: f64 = 0.25;

#[test]
fn paths_are_bit_identical_verified_and_consistent_with_distances() {
    for (name, g) in equivalence_families() {
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let oracle = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: EPSILON,
                threads: 1,
            },
        );
        let n = g.num_nodes();
        let mut pairs = random_pairs(n, 48, 0x9A7 ^ n as u64);
        // self-pairs and a duplicate exercise the degenerate slots
        pairs.push((NodeId(0), NodeId(0)));
        pairs.push(pairs[0]);

        let sequential: Vec<_> = pairs
            .iter()
            .map(|&(u, v)| oracle.query_path(&g, &tree, u, v))
            .collect();

        // the reported weight IS the reported distance, exactly
        let checker = PathChecker::new(&g, EPSILON);
        for (&(u, v), p) in pairs.iter().zip(&sequential) {
            assert_eq!(
                p.as_ref().map(|p| p.weight),
                oracle.query(u, v),
                "family {name}: path weight disagrees with query for {u:?}->{v:?}"
            );
            checker
                .check(u, v, p.as_ref())
                .unwrap_or_else(|e| panic!("family {name}: {e}"));
        }

        for threads in THREAD_COUNTS {
            let engine = BatchQueryEngine::new(threads);
            assert_eq!(
                engine.try_run_paths(&oracle, &g, &tree, &pairs).unwrap(),
                sequential,
                "family {name} try_run_paths at {threads} threads"
            );
        }
    }
}
