//! Label persistence: Theorem 2's labels are the shippable artifact of a
//! distributed deployment; they encode to a delta labels-section body and reload
//! without losing any query precision.

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::generators::grids;
use psep_oracle::label::build_labels;
use psep_oracle::oracle::DistanceOracle;
use psep_oracle::wire::{decode_labels, encode_labels};

#[test]
fn binary_wire_lifecycle_through_the_filesystem() {
    // the full serving lifecycle: build once, ship both artifacts to
    // disk, reload in a fresh process image, serve identically
    let g = grids::grid2d(7, 7, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let oracle = psep_oracle::build_oracle(&g, &tree, psep_oracle::OracleParams::default());

    let dir = std::env::temp_dir().join(format!("psep-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let labels_path = dir.join("grid.psep-labels");
    let tree_path = dir.join("grid.psep-tree");

    std::fs::write(
        &labels_path,
        encode_labels(oracle.flat_labels(), oracle.epsilon()),
    )
    .unwrap();
    std::fs::write(&tree_path, tree.encode()).unwrap();

    let (flat, epsilon) = decode_labels(&std::fs::read(&labels_path).unwrap()).unwrap();
    let oracle2 = DistanceOracle::from_flat(flat, epsilon);
    let tree2 = DecompositionTree::decode(&std::fs::read(&tree_path).unwrap()).unwrap();
    assert_eq!(tree2, tree);
    assert_eq!(oracle2.epsilon(), oracle.epsilon());
    for u in g.nodes() {
        for v in g.nodes() {
            assert_eq!(oracle2.query(u, v), oracle.query(u, v));
        }
    }
    // labels rebuilt from the reloaded tree match the shipped ones
    let rebuilt = psep_oracle::build_oracle(&g, &tree2, psep_oracle::OracleParams::default());
    assert_eq!(rebuilt.flat_labels(), oracle2.flat_labels());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn labels_ship_in_a_few_hundred_bytes_each() {
    let g = grids::grid2d(5, 5, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let labels = build_labels(&g, &tree, 0.5, 1);
    let oracle = DistanceOracle::from_flat(labels, 0.5);
    let wire = encode_labels(oracle.flat_labels(), oracle.epsilon());
    // a label ships in a few hundred bytes, not kilobytes — the point
    // of Theorem 2's O(k/ε · log n) label size
    let per_label = wire.len() / g.num_nodes();
    assert!(per_label < 512, "{per_label} wire bytes per label");
}
