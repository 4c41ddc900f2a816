//! Every builder that works on the residual graphs fills each
//! `(node, group)`'s `J` exactly once: after each of the four builds
//! (labels, routing tables, small-world augmentation, doubling labels)
//! the `core.residual.builds` counter equals the number of
//! `(node, group)` pairs with a non-empty group, at one and at four
//! worker threads.
//!
//! Sole test in this binary: it enables and resets the process-wide
//! `psep-obs` registry, which would race with any other obs-reading test
//! in the same process.

use path_separators::core::doubling::{DoublingDecompositionTree, GridPlaneStrategy};
use path_separators::graph::generators::grids;
use path_separators::oracle::doubling::{build_doubling_oracle, DoublingOracleParams};
use path_separators::oracle::label::build_labels;
use path_separators::smallworld::build_augmentation_with;
use path_separators::{AutoStrategy, DecompositionTree, RoutingTables};

#[test]
fn every_build_fills_each_residual_graph_once() {
    psep_obs::set_enabled(true);
    assert!(psep_obs::enabled(), "tests link the live obs backend");

    let g = grids::grid2d(40, 40, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let groups = tree
        .nodes()
        .iter()
        .flat_map(|node| &node.separator.groups)
        .filter(|group| !group.paths.is_empty())
        .count();
    let dims = (6, 6, 6);
    let mesh = grids::grid3d(dims.0, dims.1, dims.2);
    let doubling = DoublingDecompositionTree::build(&mesh, &GridPlaneStrategy { dims });
    let doubling_groups = doubling
        .nodes()
        .iter()
        .flat_map(|node| &node.separator.groups)
        .filter(|pieces| !pieces.is_empty())
        .count();
    assert!(groups > 4 && doubling_groups > 4);

    for threads in [1, 4] {
        let builds: [(&str, usize, &dyn Fn()); 4] = [
            ("labels", groups, &|| {
                build_labels(&g, &tree, 0.25, threads);
            }),
            ("tables", groups, &|| {
                RoutingTables::build_with(&g, &tree, threads);
            }),
            ("augmentation", groups, &|| {
                build_augmentation_with(&g, &tree, 7, threads);
            }),
            ("doubling labels", doubling_groups, &|| {
                let params = DoublingOracleParams {
                    epsilon: 0.5,
                    threads,
                };
                build_doubling_oracle(&mesh, &doubling, params);
            }),
        ];
        for (name, want, build) in builds {
            psep_obs::reset();
            build();
            assert_eq!(
                psep_obs::snapshot().counter("core.residual.builds"),
                Some(want as u64),
                "{name} at {threads} threads"
            );
        }
    }
}
