//! The bound-pruned merge-join is *exact*: on every generator family
//! and on random graphs, the pruned production path returns the same
//! answer — and the same witness (winning key and portal pair) — as the
//! unpruned reference scan, while touching no more candidates. The
//! sharded batch engine must agree with the sequential input-order
//! loop at every thread count.

use proptest::prelude::*;

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::Graph;
use psep_oracle::{build_oracle, BatchQueryEngine, DistanceOracle, JoinStats, OracleParams};
use psep_testkit::families::ALL_FAMILIES;
use psep_testkit::{arb_graph, random_pairs, THREAD_COUNTS};

const SEED: u64 = 20060722;
const EPSILON: f64 = 0.25;

fn build(g: &Graph) -> (DecompositionTree, DistanceOracle<'static>) {
    let tree = DecompositionTree::build(g, &AutoStrategy::default());
    let oracle = build_oracle(
        g,
        &tree,
        OracleParams {
            epsilon: EPSILON,
            threads: 1,
        },
    );
    (tree, oracle)
}

#[test]
fn pruned_join_is_exact_on_every_family_at_every_thread_count() {
    for fam in ALL_FAMILIES {
        let g = fam.make(150, SEED);
        let (_tree, oracle) = build(&g);
        let pairs = random_pairs(g.num_nodes(), 500, SEED ^ 0x9);

        let mut pruned_total = JoinStats::default();
        let mut unpruned_total = JoinStats::default();
        let mut answers = Vec::with_capacity(pairs.len());
        for &(u, v) in &pairs {
            let (a, ps) = oracle.query_with_stats(u, v);
            let (b, us) = oracle.query_unpruned(u, v);
            assert_eq!(a, b, "{}: answer diverges for {u:?}->{v:?}", fam.name());
            assert!(
                ps.scanned <= us.scanned,
                "{}: pruned scan {} exceeds unpruned {} for {u:?}->{v:?}",
                fam.name(),
                ps.scanned,
                us.scanned
            );
            assert_eq!(
                oracle.explain(u, v),
                oracle.explain_unpruned(u, v),
                "{}: witness diverges for {u:?}->{v:?}",
                fam.name()
            );
            pruned_total.merge(ps);
            unpruned_total.merge(us);
            answers.push(a);
        }
        // In aggregate the bound must actually bite.
        assert!(
            pruned_total.scanned < unpruned_total.scanned,
            "{}: pruning saved nothing ({} vs {})",
            fam.name(),
            pruned_total.scanned,
            unpruned_total.scanned
        );
        // The reference scan never prunes, by definition.
        assert_eq!(unpruned_total.pruned_keys, 0, "{}", fam.name());
        assert_eq!(unpruned_total.pruned_portals, 0, "{}", fam.name());

        // Locality-sorted batches return input-order results identical
        // to the sequential loop at 1, 2, and 4 workers.
        for threads in THREAD_COUNTS {
            let engine = BatchQueryEngine::new(threads).min_chunk(32);
            assert_eq!(
                engine.run(&oracle, &pairs),
                answers,
                "{}: batch diverges at {threads} threads",
                fam.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Exactness is not a property of the curated families: on random
    /// trees, k-trees, and partial k-trees the pruned join still
    /// returns the unpruned answer and witness, and sorted batches
    /// still match the sequential loop.
    #[test]
    fn pruned_join_is_exact_on_random_graphs(
        g in arb_graph(),
        seed in any::<u64>(),
        threads_i in 0usize..THREAD_COUNTS.len(),
    ) {
        let (_tree, oracle) = build(&g);
        let pairs = random_pairs(g.num_nodes(), 120, seed);
        let mut answers = Vec::with_capacity(pairs.len());
        for &(u, v) in &pairs {
            let (a, ps) = oracle.query_with_stats(u, v);
            let (b, us) = oracle.query_unpruned(u, v);
            prop_assert_eq!(a, b);
            prop_assert!(ps.scanned <= us.scanned);
            prop_assert_eq!(oracle.explain(u, v), oracle.explain_unpruned(u, v));
            answers.push(a);
        }
        let engine = BatchQueryEngine::new(THREAD_COUNTS[threads_i]).min_chunk(16);
        prop_assert_eq!(engine.run(&oracle, &pairs), answers);
    }
}
