//! §5.3 pipeline: 3D meshes, doubling separators, Theorem 8 oracle.

use path_separators::core::doubling::{is_isometric, DoublingDecompositionTree, GridPlaneStrategy};
use path_separators::graph::dijkstra::dijkstra;
use path_separators::graph::doubling::estimate_doubling_dimension;
use path_separators::graph::generators::grids;
use path_separators::graph::minors::induced_subgraph;
use path_separators::oracle::doubling::{build_doubling_oracle, DoublingOracleParams};
use path_separators::oracle::DistanceEstimator;

#[test]
fn full_doubling_pipeline_on_3d_mesh() {
    let (x, y, z) = (5, 5, 4);
    let g = grids::grid3d(x, y, z);
    let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (x, y, z) });

    // every piece is isometric and low-dimensional
    for node in tree.nodes() {
        for group in &node.separator.groups {
            for piece in group {
                assert!(is_isometric(&g, &node.vertices, &piece.vertices, 6));
                if piece.vertices.len() >= 4 {
                    let (pg, _) = induced_subgraph(&g, &piece.vertices);
                    assert!(estimate_doubling_dimension(&pg, 3) <= 3);
                }
            }
        }
    }

    // Theorem 8 oracle: stretch ≤ 1+ε on all pairs from sampled sources
    let eps = 0.5;
    let oracle = build_doubling_oracle(
        &g,
        &tree,
        DoublingOracleParams {
            epsilon: eps,
            threads: 2,
        },
    );
    for u in g.nodes().step_by(7) {
        let sp = dijkstra(&g, &[u]);
        for v in g.nodes() {
            let d = sp.dist(v).unwrap();
            if u == v {
                continue;
            }
            let est = oracle.query(u, v).expect("mesh connected");
            assert!(est >= d);
            assert!(est as f64 <= (1.0 + eps) * d as f64 + 1e-9);
        }
    }
}

#[test]
fn depth_is_logarithmic() {
    let g = grids::grid3d(8, 8, 8);
    let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (8, 8, 8) });
    assert!(tree.depth() < 10); // log2(512) = 9
    assert_eq!(tree.max_paths_per_node(), 1);
}

#[test]
fn plane_strategy_also_handles_2d_grids() {
    // grid2d's row-major ids coincide with grid3d's scheme at z = 1, so
    // the plane strategy degrades gracefully to row/column separators —
    // a (1, ~1)-doubling separator for 2D meshes.
    let (r, c) = (9, 7);
    let g = grids::grid2d(r, c, 1);
    let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (r, c, 1) });
    assert_eq!(tree.max_paths_per_node(), 1);
    let oracle = build_doubling_oracle(
        &g,
        &tree,
        DoublingOracleParams {
            epsilon: 0.5,
            threads: 1,
        },
    );
    for u in g.nodes().step_by(5) {
        let sp = dijkstra(&g, &[u]);
        for v in g.nodes() {
            if u == v {
                continue;
            }
            let d = sp.dist(v).unwrap();
            let est = oracle.query(u, v).unwrap();
            assert!(est >= d && est as f64 <= 1.5 * d as f64 + 1e-9);
        }
    }
}

/// The doubling oracle served through `&dyn DistanceEstimator`, as the
/// benchmarks and examples hold every oracle: the same answers as its
/// own `query`, within `1+ε` of Dijkstra, and the same `ε` and space.
#[test]
fn doubling_oracle_answers_through_the_estimator_trait() {
    let dims = (6, 6, 6);
    let g = grids::grid3d(dims.0, dims.1, dims.2);
    let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims });
    let eps = 0.25;
    let oracle = build_doubling_oracle(
        &g,
        &tree,
        DoublingOracleParams {
            epsilon: eps,
            threads: 1,
        },
    );
    let est: &dyn DistanceEstimator = &oracle;
    assert_eq!(est.epsilon(), oracle.epsilon());
    assert_eq!(est.space_entries(), oracle.space_entries());
    for u in g.nodes().step_by(11) {
        let sp = dijkstra(&g, &[u]);
        for v in g.nodes().step_by(3) {
            let answer = est.query(u, v);
            assert_eq!(answer, oracle.query(u, v), "{u:?}->{v:?}");
            let (d, answer) = (sp.dist(v).unwrap(), answer.expect("mesh connected"));
            assert!(answer >= d, "{u:?}->{v:?}: {answer} < {d}");
            assert!(
                answer as f64 <= (1.0 + eps) * d as f64 + 1e-9,
                "{u:?}->{v:?}: {answer} > (1+{eps})·{d}"
            );
        }
    }
}
