//! End-to-end pipelines across crates: graph family → verified k-path
//! decomposition → oracle → routing → small-world, for every evaluation
//! family.

use path_separators::core::check_tree;
use path_separators::core::strategy::{AutoStrategy, FundamentalCycleStrategy, SeparatorStrategy};
use path_separators::core::DecompositionTree;
use path_separators::graph::dijkstra::dijkstra;
use path_separators::graph::generators::grids;
use path_separators::oracle::oracle::{build_oracle, OracleParams};
use path_separators::routing::{Router, RoutingTables};
use psep_testkit::pipeline_families as families;

#[test]
fn decomposition_validates_on_every_family() {
    for (name, g, strat) in families() {
        let tree = DecompositionTree::build(&g, strat.as_ref());
        check_tree(&g, &tree).unwrap_or_else(|(node, e)| {
            panic!("{name}: node {node}: {e}");
        });
        let bound = (g.num_nodes() as f64).log2().ceil() as usize + 1;
        assert!(
            tree.depth() < bound,
            "{name}: depth {} exceeds {bound}",
            tree.depth() + 1
        );
    }
}

#[test]
fn oracle_stretch_bound_on_every_family() {
    let eps = 0.25;
    for (name, g, strat) in families() {
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let oracle = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: eps,
                threads: 2,
            },
        );
        for u in g.nodes().step_by(7) {
            let sp = dijkstra(&g, &[u]);
            for v in g.nodes().step_by(3) {
                let Some(d) = sp.dist(v) else { continue };
                let est = oracle
                    .query(u, v)
                    .unwrap_or_else(|| panic!("{name}: {u:?}->{v:?} missing estimate"));
                assert!(est >= d, "{name}: under-estimate");
                assert!(
                    est as f64 <= (1.0 + eps) * d as f64 + 1e-9,
                    "{name}: {u:?}->{v:?} stretch {}",
                    est as f64 / d as f64
                );
            }
        }
    }
}

#[test]
fn routing_delivers_on_every_family() {
    for (name, g, strat) in families() {
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let router = Router::new(&g, RoutingTables::build(&g, &tree));
        for u in g.nodes().step_by(11) {
            let sp = dijkstra(&g, &[u]);
            for v in g.nodes().step_by(5) {
                if sp.dist(v).is_none() {
                    continue;
                }
                let label = router.label(v);
                let out = router
                    .route(u, v, &label)
                    .unwrap_or_else(|| panic!("{name}: {u:?}->{v:?} failed"));
                assert_eq!(*out.route.last().unwrap(), v, "{name}: wrong endpoint");
                let d = sp.dist(v).unwrap();
                if d > 0 {
                    assert!(
                        out.cost as f64 / d as f64 <= 3.0 + 1e-9,
                        "{name}: stretch {} > 3",
                        out.cost as f64 / d as f64
                    );
                }
            }
        }
    }
}

#[test]
fn labels_alone_answer_queries() {
    // the distributed reading of Theorem 2: only two labels are needed
    let g = grids::grid2d(8, 8, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let labels = path_separators::oracle::label::build_labels(&g, &tree, 0.5, 1);
    let u = path_separators::graph::NodeId(0);
    let v = path_separators::graph::NodeId(63);
    let est = path_separators::oracle::oracle::query_label_refs(labels.label(u), labels.label(v));
    assert!((14..=21).contains(&est)); // d = 14, ε = 0.5
}

#[test]
fn full_stack_on_grid_with_holes() {
    // irregular planar "city map": decomposition, oracle, and routing
    // restricted to the largest component
    let (g, comp) = grids::grid_with_holes(14, 14, 8, 5);
    let strat = FundamentalCycleStrategy::default();
    let sep = strat.separate(&g, &comp);
    path_separators::core::check_separator(&g, &comp, &sep, None).unwrap();

    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    check_tree(&g, &tree).unwrap();
    let oracle = build_oracle(
        &g,
        &tree,
        OracleParams {
            epsilon: 0.25,
            threads: 1,
        },
    );
    let router = Router::new(&g, RoutingTables::build(&g, &tree));
    for &u in comp.iter().step_by(9) {
        let sp = dijkstra(&g, &[u]);
        for &v in comp.iter().step_by(4) {
            let d = sp.dist(v).expect("same component");
            let est = oracle.query(u, v).unwrap();
            assert!(est >= d && est as f64 <= 1.25 * d as f64 + 1e-9);
            let out = router.route(u, v, &router.label(v)).unwrap();
            assert_eq!(*out.route.last().unwrap(), v);
        }
    }
}
