//! Quickstart: decompose a weighted graph with a k-path separator and
//! answer approximate distance queries.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use path_separators::core::strategy::AutoStrategy;
use path_separators::core::{check_tree, DecompositionTree};
use path_separators::graph::dijkstra::distance;
use path_separators::graph::generators::{grids, randomize_weights};
use path_separators::{build_oracle, OracleParams};

fn main() {
    // A 32×32 weighted grid — think of it as a small road network.
    let base = grids::grid2d(32, 32, 1);
    let g = randomize_weights(&base, 1, 9, 42);
    println!("graph: {} vertices, {} edges", g.num_nodes(), g.num_edges());

    // 1. Recursively halve the graph with shortest-path separators
    //    (Definition 1 of Abraham–Gavoille PODC'06).
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    println!(
        "decomposition: {} nodes, depth {}, max Σk_i per node = {}",
        tree.nodes().len(),
        tree.depth() + 1,
        tree.max_paths_per_node()
    );
    // Every separator is re-verified against Definition 1:
    check_tree(&g, &tree).expect("all separators satisfy P1-P3");

    // 2. Build the (1+ε)-approximate distance oracle (Theorem 2) on
    //    all available threads.
    let eps = 0.1;
    let oracle = build_oracle(
        &g,
        &tree,
        OracleParams {
            epsilon: eps,
            threads: 0,
        },
    );
    let stats = oracle.stats();
    println!(
        "oracle: ε = {eps}, mean label = {:.1} portal entries, total = {} (vs {} for APSP)",
        stats.mean_size,
        oracle.space_entries(),
        g.num_nodes() * g.num_nodes()
    );

    // 3. Query and compare against exact Dijkstra.
    for (a, b) in [(0u32, 1023), (31, 992), (500, 523)] {
        let (u, v) = (
            path_separators::graph::NodeId(a),
            path_separators::graph::NodeId(b),
        );
        let est = oracle.query(u, v).expect("grid is connected");
        let exact = distance(&g, u, v).unwrap();
        println!(
            "d({a:>4},{b:>4})  exact = {exact:>3}   oracle = {est:>3}   stretch = {:.3}",
            est as f64 / exact as f64
        );
        assert!(est >= exact && est as f64 <= (1.0 + eps) * exact as f64);
    }
    println!("all queries within 1+ε — done.");
}
