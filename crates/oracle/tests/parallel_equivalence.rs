//! Bit-identity of parallel construction: the decomposition tree and the
//! distance labels built at any thread count serialize to exactly the
//! same tree-section / delta labels-section bytes as the sequential
//! build, on every generator family and on random graphs.

use proptest::prelude::*;

use psep_core::decomposition::DecompositionParams;
use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_oracle::label::build_labels;
use psep_oracle::wire::encode_labels;
use psep_testkit::{arb_graph, equivalence_families, THREAD_COUNTS};

const EPSILON: f64 = 0.25;

#[test]
fn parallel_tree_and_labels_are_bit_identical_on_every_family() {
    let strategy = AutoStrategy::default();
    for (name, g) in equivalence_families() {
        let base_tree = DecompositionTree::build(&g, &strategy);
        let base_tree_bytes = base_tree.encode();
        let base_labels = build_labels(&g, &base_tree, EPSILON, 1);
        let base_label_bytes = encode_labels(&base_labels, EPSILON);
        for threads in THREAD_COUNTS {
            let params = DecompositionParams { threads };
            let tree = DecompositionTree::build_with(&g, &strategy, &params);
            assert_eq!(
                tree.encode(),
                base_tree_bytes,
                "family {name}: tree wire bytes differ at {threads} threads"
            );
            let labels = build_labels(&g, &tree, EPSILON, threads);
            assert_eq!(
                encode_labels(&labels, EPSILON),
                base_label_bytes,
                "family {name}: label wire bytes differ at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-identity holds on random trees, k-trees, and partial k-trees,
    /// not just the curated families.
    #[test]
    fn parallel_build_is_bit_identical_on_random_graphs(
        g in arb_graph(),
        threads_i in 0usize..THREAD_COUNTS.len(),
    ) {
        let threads = THREAD_COUNTS[threads_i];
        let strategy = AutoStrategy::default();
        let base_tree = DecompositionTree::build(&g, &strategy);
        let tree = DecompositionTree::build_with(
            &g,
            &strategy,
            &DecompositionParams { threads },
        );
        prop_assert_eq!(tree.encode(), base_tree.encode());
        let base_labels = build_labels(&g, &base_tree, EPSILON, 1);
        let labels = build_labels(&g, &tree, EPSILON, threads);
        prop_assert_eq!(
            encode_labels(&labels, EPSILON),
            encode_labels(&base_labels, EPSILON)
        );
    }
}
