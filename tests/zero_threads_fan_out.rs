//! A `threads: 0` build fans every construction stage out to all
//! available threads (`PSEP_THREADS`): no stage clamps 0 to one worker.
//! Each sharded stage raises its `<stage>.workers` gauge to the most
//! workers any of its runs used; so do the small-world augmentation and
//! the doubling labels at `threads: 0`.
//!
//! Sole test in this binary: it sets `PSEP_THREADS`, enables the
//! process-wide `psep-obs` registry and reads its gauges, which would
//! race with any other test in the same process.

use path_separators::core::available_threads;
use path_separators::core::doubling::{DoublingDecompositionTree, GridPlaneStrategy};
use path_separators::oracle::doubling::{build_doubling_oracle, DoublingOracleParams};
use path_separators::service::ServiceParams;
use path_separators::smallworld::build_augmentation_with;
use path_separators::{AutoStrategy, DecompositionTree, LocationService};
use psep_graph::generators::grids;

#[test]
fn zero_threads_fans_every_build_stage_out() {
    // four workers on any host: every stage has more items than that on
    // this graph, and one worker is always fewer
    std::env::set_var("PSEP_THREADS", "4");
    assert_eq!(available_threads(), 4);
    psep_obs::set_enabled(true);
    psep_obs::reset();
    let g = grids::grid2d(20, 20, 1);
    LocationService::build(
        &g,
        ServiceParams {
            threads: 0,
            ..ServiceParams::default()
        },
    );
    let snap = psep_obs::snapshot();
    for stage in ["core.build", "oracle.label", "routing.build"] {
        let name = format!("{stage}.workers");
        assert_eq!(
            snap.gauge(&name),
            Some(available_threads() as f64),
            "`{name}` at threads: 0"
        );
    }

    // the builds outside the service: the small-world augmentation on
    // the same grid, and the doubling labels on a 3D mesh
    psep_obs::reset();
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    build_augmentation_with(&g, &tree, 5, 0);
    let dims = (5, 5, 5);
    let mesh = grids::grid3d(dims.0, dims.1, dims.2);
    let doubling = DoublingDecompositionTree::build(&mesh, &GridPlaneStrategy { dims });
    let params = DoublingOracleParams {
        epsilon: 0.5,
        threads: 0,
    };
    build_doubling_oracle(&mesh, &doubling, params);
    let snap = psep_obs::snapshot();
    for stage in ["smallworld.augment", "oracle.doubling"] {
        let name = format!("{stage}.workers");
        assert_eq!(
            snap.gauge(&name),
            Some(available_threads() as f64),
            "`{name}` at threads: 0"
        );
    }
}
