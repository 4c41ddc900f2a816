//! Borrowed-vs-owned equivalence for the full service surface: a
//! `LocationService` mapped zero-copy from an aligned `psep-bundle/v4`
//! must answer `query`, `query_path`, and `route` bit-identically to
//! the owned service it was serialized from — sequentially and through
//! every batch engine at 1, 2, and 4 worker threads.

use path_separators::core::wire::AlignedBytes;
use path_separators::{LocationService, NodeId, ServiceParams};
use psep_oracle::BatchQueryEngine;
use psep_testkit::families::{Family, ALL_FAMILIES};
use psep_testkit::random_pairs;

const SEED: u64 = 20060722;

/// Builds the owned service plus its sealed raw bundle for one family.
fn built(fam: Family, n: usize) -> (LocationService<'static>, Vec<u8>) {
    let g = fam.make(n, SEED);
    let svc = LocationService::build(&g, ServiceParams::default());
    let bytes = svc.to_bytes();
    (svc, bytes)
}

#[test]
fn mapped_bundles_answer_bit_identically_across_families() {
    for fam in ALL_FAMILIES {
        let (svc, bytes) = built(fam, 96);
        let aligned = AlignedBytes::from_slice(&bytes);
        let mapped = LocationService::map_bytes(&aligned).expect("own bundle maps");
        assert!(
            mapped.is_borrowed(),
            "{}: aligned v2 map must borrow in place",
            fam.name()
        );
        assert_eq!(
            mapped.to_bytes(),
            bytes,
            "{}: a mapped bundle must re-encode to itself",
            fam.name()
        );

        let n = svc.num_nodes();
        let pairs = random_pairs(n, 400, SEED ^ 7);
        for &(u, v) in &pairs {
            assert_eq!(svc.query(u, v), mapped.query(u, v), "{}: query", fam.name());
            assert_eq!(
                svc.query_path(u, v),
                mapped.query_path(u, v),
                "{}: query_path",
                fam.name()
            );
            assert_eq!(svc.route(u, v), mapped.route(u, v), "{}: route", fam.name());
        }
        for v in 0..n {
            let v = NodeId(v as u32);
            assert_eq!(
                svc.router().label(v),
                mapped.router().label(v),
                "{}: routing label",
                fam.name()
            );
        }
    }
}

#[test]
fn batch_forms_agree_between_storages_at_every_thread_count() {
    for &fam in &[Family::Grid, Family::KTree3, Family::Apollonian] {
        let (svc, bytes) = built(fam, 144);
        let aligned = AlignedBytes::from_slice(&bytes);
        let mapped = LocationService::map_bytes(&aligned).expect("own bundle maps");
        assert!(mapped.is_borrowed());

        let pairs = random_pairs(svc.num_nodes(), 600, SEED ^ 13);
        let base_queries = svc.try_query_many(&pairs).unwrap();
        let base_paths = svc.try_query_path_many(&pairs).unwrap();
        let base_routes = svc.try_route_many(&pairs).unwrap();
        for threads in [1usize, 2, 4] {
            let engine = BatchQueryEngine::new(threads).min_chunk(16);
            assert_eq!(
                engine.run(mapped.oracle(), &pairs),
                base_queries,
                "{} t={threads}: batch queries",
                fam.name()
            );
            assert_eq!(
                engine
                    .try_run_paths(mapped.oracle(), mapped.graph(), mapped.tree(), &pairs)
                    .unwrap(),
                base_paths,
                "{} t={threads}: batch paths",
                fam.name()
            );
            assert_eq!(
                mapped.router().route_many_with(&pairs, threads),
                base_routes,
                "{} t={threads}: batch routes",
                fam.name()
            );
        }
    }
}

#[test]
fn owned_fallback_for_misaligned_maps_is_equivalent_too() {
    let (svc, bytes) = built(Family::TriangulatedGrid, 100);
    // Shift by one byte so every section is misaligned: map_bytes must
    // fall back to owned arenas and still answer identically.
    let mut shifted = vec![0u8];
    shifted.extend_from_slice(&bytes);
    let mapped = LocationService::map_bytes(&shifted[1..]).expect("misaligned bundle maps");
    assert!(!mapped.is_borrowed());
    let pairs = random_pairs(svc.num_nodes(), 300, SEED ^ 19);
    assert_eq!(
        svc.try_query_many(&pairs).unwrap(),
        mapped.try_query_many(&pairs).unwrap()
    );
    assert_eq!(
        svc.try_route_many(&pairs).unwrap(),
        mapped.try_route_many(&pairs).unwrap()
    );
}
