//! Golden identity of the separator hierarchy.
//!
//! Pins the CRC-32 of the `psep-tree/v1` encoding of
//! `DecompositionTree::build_with(&g, &AutoStrategy::default(), ..)` on
//! three graphs, at one and at four worker threads. They cover both
//! routes through `AutoStrategy`:
//!
//! * the 40×40 grid and the 40×40 triangulated grid are too wide near the
//!   top of the hierarchy, so those width probes stop early and the
//!   iterative strategy splits them; their smaller components below pass
//!   the probe and are split at center bags;
//! * the 3-tree passes every probe and is split at center bags throughout.
//!
//! A change to the elimination heuristic, its tie-breaking or the
//! decomposition it returns moves these values; a pure speed-up must not.

use path_separators::core::wire::crc32;
use path_separators::core::DecompositionParams;
use path_separators::graph::generators::{grids, ktree, planar_families};
use path_separators::{AutoStrategy, DecompositionTree, Graph};

fn tree_crc(g: &Graph, threads: usize) -> u32 {
    let tree = DecompositionTree::build_with(
        g,
        &AutoStrategy::default(),
        &DecompositionParams { threads },
    );
    crc32(&tree.encode())
}

fn assert_golden(name: &str, g: &Graph, expected: u32) {
    for threads in [1, 4] {
        let got = tree_crc(g, threads);
        assert_eq!(
            got, expected,
            "{name} at {threads} thread(s): tree crc {got:#010x}, pinned {expected:#010x}"
        );
    }
}

#[test]
fn grid_tree_is_pinned() {
    assert_golden("grid 40x40", &grids::grid2d(40, 40, 1), 0x0e8a_64d4);
}

#[test]
fn triangulated_grid_tree_is_pinned() {
    assert_golden(
        "tri-grid 40x40",
        &planar_families::triangulated_grid(40, 40, 1),
        0xbc0a_edf3,
    );
}

#[test]
fn three_tree_is_pinned() {
    assert_golden(
        "3-tree n=2000",
        &ktree::random_k_tree(2000, 3, 1).graph,
        0x774b_8867,
    );
}
