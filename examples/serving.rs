//! Serving: the build → ship → map → batch-serve lifecycle.
//!
//! ```text
//! cargo run --example serving --release
//! ```
//!
//! One process builds the whole serving stack through
//! [`LocationService`] and ships it as a single `psep-bundle/v4`
//! artifact (graph + decomposition tree + distance labels + routing
//! tables) under one checksummed envelope; a serving process maps the bundle
//! zero-copy and answers distance queries *and* routes requests in parallel with
//! `try_query_many` / `try_route_many`. The final comparison is generic over
//! `DistanceEstimator`, the trait every oracle in the crate implements.

use std::time::Instant;

use path_separators::core::wire::AlignedBytes;
use path_separators::graph::generators::{grids, randomize_weights};
use path_separators::graph::NodeId;
use path_separators::oracle::{ExactOracle, ThorupZwickOracle};
use path_separators::{DistanceEstimator, LocationService, ServiceParams};

/// The generic serving report: any `DistanceEstimator` can stand in.
fn describe<E: DistanceEstimator>(name: &str, est: &E) {
    println!(
        "  {name:<22} guarantee ≤ {:.2}×   space = {} entries",
        1.0 + est.epsilon(),
        est.space_entries()
    );
}

fn main() {
    // -- build side ------------------------------------------------------
    let g = randomize_weights(&grids::grid2d(40, 40, 1), 1, 9, 7);
    let svc = LocationService::build(
        &g,
        ServiceParams {
            epsilon: 0.25,
            threads: 0, // 0 = all available cores; still bit-identical
        },
    );
    let (mean_table, max_table) = svc.router().tables().table_stats();
    println!(
        "built: n = {}, ε = {}, {} portal entries, routing tables mean {mean_table:.1} / max {max_table} entries",
        g.num_nodes(),
        svc.epsilon(),
        svc.oracle().space_entries(),
    );

    // ship ONE artifact: graph, tree, labels, and tables together
    let dir = std::env::temp_dir().join("psep-serving-example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let bundle_path = dir.join("grid.psep-bundle");
    std::fs::write(&bundle_path, svc.to_bytes()).expect("save bundle");
    let wire_bytes = std::fs::metadata(&bundle_path).unwrap().len();
    println!(
        "saved: {} bytes on the wire ({:.1} bytes/vertex; labels {} B + tables {} B in memory)",
        wire_bytes,
        wire_bytes as f64 / g.num_nodes() as f64,
        svc.oracle().flat_labels().heap_bytes(),
        svc.router().tables().flat().heap_bytes(),
    );

    // -- serving side ----------------------------------------------------
    let buf = AlignedBytes::read_file(&bundle_path).expect("read bundle");
    let served = LocationService::map_bytes(&buf).expect("checksummed map");
    assert!(served.is_borrowed()); // label and table arenas served in place
    assert_eq!(served.to_bytes(), svc.to_bytes()); // bit-exact

    // a pair workload, answered sequentially and in parallel
    let n = g.num_nodes() as u32;
    let pairs: Vec<(NodeId, NodeId)> = (0..100_000u64)
        .map(|i| {
            let u = (i.wrapping_mul(2654435761) >> 7) as u32 % n;
            let v = (i.wrapping_mul(40503) >> 3) as u32 % n;
            (NodeId(u), NodeId(v))
        })
        .collect();

    let t0 = Instant::now();
    let sequential: Vec<_> = pairs.iter().map(|&(u, v)| served.query(u, v)).collect();
    let seq_s = t0.elapsed().as_secs_f64();
    println!(
        "sequential: {} pairs in {seq_s:.2}s ({:.0} pairs/s)",
        pairs.len(),
        pairs.len() as f64 / seq_s
    );

    let t0 = Instant::now();
    let batched = served.try_query_many(&pairs).expect("pairs in range");
    let s = t0.elapsed().as_secs_f64();
    assert_eq!(batched, sequential); // same answers, same order
    println!(
        "try_query_many: {} pairs in {s:.2}s ({:.0} pairs/s, {:.2}× sequential)",
        pairs.len(),
        pairs.len() as f64 / s,
        seq_s / s
    );

    // routing the same workload, in parallel
    let route_pairs = &pairs[..10_000];
    let t0 = Instant::now();
    let routes = served.try_route_many(route_pairs).expect("pairs in range");
    let s = t0.elapsed().as_secs_f64();
    let hops: usize = routes.iter().flatten().map(|o| o.hops).sum();
    println!(
        "try_route_many: {} routes in {s:.2}s ({:.0} routes/s, {} total hops)",
        route_pairs.len(),
        route_pairs.len() as f64 / s,
        hops
    );

    // -- one interface over every oracle ---------------------------------
    println!("estimators (generic over DistanceEstimator):");
    describe("path-sep ε=0.25", served.oracle());
    let tz = ThorupZwickOracle::build(&g, 2, 1);
    describe("thorup-zwick k=2", &tz);
    let exact = ExactOracle::on_line(&g);
    describe("dijkstra (exact)", &exact);

    std::fs::remove_dir_all(&dir).ok();
    println!("done.");
}
