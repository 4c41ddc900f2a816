//! The routing-table serving contract, checked across every testkit
//! family and thread count:
//!
//! * parallel construction serializes to exactly the sequential build's
//!   delta tables-section bytes;
//! * `route_many` answers exactly like one-at-a-time `route`;
//! * wire round-trips are bit-exact.

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_routing::wire::{decode_tables, encode_tables};
use psep_routing::{Router, RoutingTables};
use psep_testkit::{equivalence_families, random_pairs, THREAD_COUNTS};

fn artifact_bytes(tables: &RoutingTables) -> Vec<u8> {
    encode_tables(tables.flat())
}

#[test]
fn parallel_tables_are_bit_identical_on_every_family() {
    for (name, g) in equivalence_families() {
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let base = RoutingTables::build(&g, &tree);
        let base_bytes = artifact_bytes(&base);
        for threads in THREAD_COUNTS {
            let tables = RoutingTables::build_with(&g, &tree, threads);
            assert_eq!(
                artifact_bytes(&tables),
                base_bytes,
                "family {name}: wire bytes differ at {threads} threads"
            );
        }
    }
}

#[test]
fn route_many_matches_route_on_every_family() {
    for (name, g) in equivalence_families() {
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let router = Router::new(&g, RoutingTables::build(&g, &tree));
        let pairs = random_pairs(g.num_nodes(), 60, 0xE6);
        let expected: Vec<_> = pairs
            .iter()
            .map(|&(u, t)| router.route(u, t, &router.label(t)))
            .collect();
        for threads in THREAD_COUNTS {
            assert_eq!(
                router.route_many_with(&pairs, threads),
                expected,
                "family {name}: batch answers differ at {threads} threads"
            );
        }
    }
}

#[test]
fn wire_roundtrip_is_bit_exact_on_every_family() {
    for (name, g) in equivalence_families() {
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let tables = RoutingTables::build(&g, &tree);
        let bytes = artifact_bytes(&tables);
        // the section stores no keys; a bundle decodes it over the
        // labels' keys, which equal the tables' own
        let loaded = RoutingTables::from_flat(
            decode_tables(&bytes, tables.flat().csr()).expect("clean artifact loads"),
        );
        assert_eq!(loaded, tables, "family {name}: loaded tables differ");
        assert_eq!(
            artifact_bytes(&loaded),
            bytes,
            "family {name}: re-encode is not bit-exact"
        );
    }
}
