//! Object location with distance *labels* (the distributed reading of
//! Theorem 2): replicas of an object live at a few vertices; a client
//! holding only its own label and the replicas' labels picks the closest
//! replica — no global state, no graph access at query time.
//!
//! ```text
//! cargo run --example object_location --release
//! ```

use path_separators::core::strategy::AutoStrategy;
use path_separators::core::DecompositionTree;
use path_separators::graph::dijkstra::dijkstra;
use path_separators::graph::generators::ktree;
use path_separators::graph::NodeId;
use path_separators::oracle::directory::ObjectDirectory;
use path_separators::oracle::oracle::{build_oracle, query_label_refs, OracleParams};

fn main() {
    // an overlay network with bounded treewidth (series-parallel-ish
    // backbones are the paper's motivating topology)
    let kt = ktree::random_weighted_k_tree(600, 3, 9, 17);
    let g = &kt.graph;
    println!("overlay: {} nodes, {} links", g.num_nodes(), g.num_edges());

    let tree = DecompositionTree::build(g, &AutoStrategy::default());
    let eps = 0.25;
    let oracle = build_oracle(
        g,
        &tree,
        OracleParams {
            epsilon: eps,
            threads: 4,
        },
    );
    let mean = oracle.stats().mean_size;
    println!("labels built: ε = {eps}, mean size {mean:.1} portal entries");

    // replicas of "object X" at three nodes
    let replicas = [NodeId(17), NodeId(251), NodeId(598)];
    println!("replicas of object X at {replicas:?}");

    // a client at node 42 locates the closest replica USING LABELS ONLY
    let client = NodeId(42);
    let (best, est) = replicas
        .iter()
        .map(|&r| (r, query_label_refs(oracle.label(client), oracle.label(r))))
        .min_by_key(|&(_, d)| d)
        .unwrap();
    println!("client {client:?} estimates: closest replica = {best:?} at ≈ {est}");

    // sanity: compare with the exact answer
    let sp = dijkstra(g, &[client]);
    let (true_best, true_d) = replicas
        .iter()
        .map(|&r| (r, sp.dist(r).unwrap()))
        .min_by_key(|&(_, d)| d)
        .unwrap();
    println!("exact        : closest replica = {true_best:?} at {true_d}");
    let est_of_true = query_label_refs(oracle.label(client), oracle.label(true_best));
    assert!(est_of_true as f64 <= (1.0 + eps) * true_d as f64);
    println!(
        "label estimate of the true best is within 1+ε: {} ≤ {:.1}",
        est_of_true,
        (1.0 + eps) * true_d as f64
    );

    // the same flow through the first-class directory API
    let mut dir = ObjectDirectory::new(oracle);
    for &r in &replicas {
        dir.register(0xBEEF, r);
    }
    let (hit, est) = dir.locate(client, 0xBEEF).expect("registered");
    println!("ObjectDirectory::locate agrees: {hit:?} at ≈ {est}");
    assert_eq!(hit, best);
}
