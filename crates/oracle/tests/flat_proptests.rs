//! Property tests for the flat label arena and the delta labels-section
//! body: the builder's arena satisfies every CSR invariant, and the
//! wire round-trip is bit-exact.

use proptest::prelude::*;
use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::generators::{grids, ktree, randomize_weights, trees};
use psep_graph::Graph;
use psep_oracle::label::build_labels;
use psep_oracle::oracle::DistanceOracle;
use psep_oracle::wire::{decode_labels, encode_labels};
use psep_oracle::FlatLabels;

/// A small graph from one of the generator families, chosen by `pick`.
fn make_graph(pick: u8, size: usize, seed: u64) -> Graph {
    match pick % 4 {
        0 => grids::grid2d(size.max(2), size.max(2), 1),
        1 => randomize_weights(&grids::grid2d(size.max(2), size.max(2), 1), 1, 12, seed),
        2 => trees::random_weighted_tree(size * size + 2, 9, seed),
        _ => ktree::random_k_tree(size * size + 4, 2, seed).graph,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The builder's arena reassembles through the validating
    /// constructor unchanged, and every vertex's label holds at least
    /// one entry with non-empty portals (the root separator reaches it).
    #[test]
    fn built_labels_are_valid_arenas(pick in 0u8..4, size in 2usize..6, seed in any::<u64>(), eps_tenths in 1u32..8) {
        let g = make_graph(pick, size, seed);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let flat = build_labels(&g, &tree, eps_tenths as f64 / 10.0, 1);
        prop_assert_eq!(flat.num_labels(), g.num_nodes());
        let (es, keys, ps, portals) = flat.as_parts();
        let again = FlatLabels::from_parts(es.to_vec(), keys.to_vec(), ps.to_vec(), portals.to_vec())
            .expect("the builder's arena is valid");
        prop_assert_eq!(&again, &flat);
        for v in g.nodes() {
            let view = flat.label(v);
            prop_assert!(view.num_entries() > 0, "{:?} has no entry", v);
            prop_assert!(view.entries().all(|(_, p)| !p.is_empty()));
        }
    }

    /// The wire round-trip is bit-exact: same arena, same epsilon, same
    /// answers.
    #[test]
    fn wire_roundtrip_is_bit_exact(pick in 0u8..4, size in 2usize..6, seed in any::<u64>()) {
        let g = make_graph(pick, size, seed);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let flat = build_labels(&g, &tree, 0.25, 1);
        let bytes = encode_labels(&flat, 0.25);
        let (back, eps) = decode_labels(&bytes).expect("own artifact decodes");
        prop_assert_eq!(&back, &flat);
        prop_assert_eq!(eps, 0.25);
    }

    /// A loaded oracle answers every query identically to the one that
    /// was saved.
    #[test]
    fn loaded_oracle_answers_identically(pick in 0u8..4, size in 2usize..5, seed in any::<u64>()) {
        let g = make_graph(pick, size, seed);
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let oracle = psep_oracle::build_oracle(&g, &tree, psep_oracle::OracleParams::default());
        let buf = encode_labels(oracle.flat_labels(), oracle.epsilon());
        let (flat, eps) = decode_labels(&buf).expect("own artifact decodes");
        let back = DistanceOracle::from_flat(flat, eps);
        for u in g.nodes() {
            for v in g.nodes() {
                prop_assert_eq!(back.query(u, v), oracle.query(u, v));
            }
        }
    }
}
