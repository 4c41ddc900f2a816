//! Doubling-separator scenario (§5.3 / Theorem 8): a 3D-torus-less
//! datacenter mesh has **no** small path separator — the k-path engine
//! burns Θ(n^{1/3}) paths per level — but its axis planes are isometric
//! doubling-dimension-2 separators, and the Theorem 8 oracle built on
//! them answers latency queries within 1+ε.
//!
//! ```text
//! cargo run -p path-separators --example datacenter_mesh --release
//! ```

use path_separators::core::doubling::{DoublingDecompositionTree, GridPlaneStrategy};
use path_separators::core::strategy::{IterativeStrategy, SeparatorStrategy};
use path_separators::graph::dijkstra::distance;
use path_separators::graph::generators::grids;
use path_separators::graph::NodeId;
use path_separators::oracle::doubling::{build_doubling_oracle, DoublingOracleParams};

fn main() {
    let (x, y, z) = (8, 8, 8);
    let mesh = grids::grid3d(x, y, z);
    println!(
        "datacenter mesh {x}×{y}×{z}: {} racks, {} links",
        mesh.num_nodes(),
        mesh.num_edges()
    );

    // path separators are the wrong tool here:
    let comp: Vec<NodeId> = mesh.nodes().collect();
    let kp = IterativeStrategy::default().separate(&mesh, &comp);
    println!(
        "k-path engine needs {} shortest paths for ONE halving level — not O(1)",
        kp.num_paths()
    );

    // doubling separators are the right tool (§5.3):
    let tree = DoublingDecompositionTree::build(&mesh, &GridPlaneStrategy { dims: (x, y, z) });
    println!(
        "doubling decomposition: {} pieces per level, depth {}",
        tree.max_paths_per_node(),
        tree.depth() + 1
    );

    let eps = 0.25;
    let oracle = build_doubling_oracle(
        &mesh,
        &tree,
        DoublingOracleParams {
            epsilon: eps,
            threads: 4,
        },
    );
    println!(
        "Theorem 8 oracle: ε = {eps}, mean label {:.1} landmarks",
        oracle.mean_label_size()
    );

    for (a, b) in [(0u32, 511), (7, 504), (100, 411)] {
        let (u, v) = (NodeId(a), NodeId(b));
        let est = oracle.query(u, v).expect("mesh connected");
        let exact = distance(&mesh, u, v).unwrap();
        println!(
            "latency({a:>3},{b:>3})  exact = {exact:>2}   oracle = {est:>2}   stretch = {:.3}",
            est as f64 / exact as f64
        );
        assert!(est >= exact && est as f64 <= (1.0 + eps) * exact as f64);
    }
    println!("all queries within 1+ε.");
}
