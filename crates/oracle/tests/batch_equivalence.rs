//! `BatchQueryEngine::run` is observationally identical to a sequential `query`
//! loop on every generator family the paper's experiments cover, at
//! every thread count.

use psep_core::strategy::AutoStrategy;
use psep_core::DecompositionTree;
use psep_graph::generators::grids;
use psep_graph::{Graph, NodeId};
use psep_oracle::{build_oracle, BatchQueryEngine, OracleParams};
use psep_testkit::{equivalence_families as families, random_pairs};

#[test]
fn query_many_equals_sequential_on_every_family() {
    for (name, g) in families() {
        let tree = DecompositionTree::build(&g, &AutoStrategy::default());
        let oracle = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: 0.25,
                threads: 1,
            },
        );
        let pairs = random_pairs(g.num_nodes(), 400, 0xBA7C4 ^ g.num_nodes() as u64);
        let sequential: Vec<_> = pairs.iter().map(|&(u, v)| oracle.query(u, v)).collect();
        for threads in [1usize, 2, 3, 5, 8] {
            let engine = BatchQueryEngine::new(threads).min_chunk(32);
            assert_eq!(
                engine.run(&oracle, &pairs),
                sequential,
                "family {name} at {threads} threads"
            );
            assert_eq!(
                engine.try_run(&oracle, &pairs).unwrap(),
                sequential,
                "family {name} try_run at {threads} threads"
            );
        }
    }
}

#[test]
fn batch_preserves_input_order_with_duplicates_and_self_pairs() {
    let g = grids::grid2d(6, 6, 1);
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let oracle = build_oracle(&g, &tree, OracleParams::default());
    // duplicates, reversals, and self-pairs must come back in slot order
    let mut pairs = Vec::new();
    for i in 0..36u32 {
        pairs.push((NodeId(i), NodeId((i * 7) % 36)));
        pairs.push((NodeId((i * 7) % 36), NodeId(i)));
        pairs.push((NodeId(i), NodeId(i)));
    }
    let sequential: Vec<_> = pairs.iter().map(|&(u, v)| oracle.query(u, v)).collect();
    let batched = BatchQueryEngine::new(4).min_chunk(8).run(&oracle, &pairs);
    assert_eq!(batched, sequential);
    for (i, &(u, v)) in pairs.iter().enumerate() {
        if u == v {
            assert_eq!(batched[i], Some(0));
        }
    }
}

#[test]
fn batch_on_disconnected_graph_returns_none_consistently() {
    let mut g = Graph::new(8);
    for i in 0..3u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), 2);
    }
    for i in 4..7u32 {
        g.add_edge(NodeId(i), NodeId(i + 1), 3);
    }
    let tree = DecompositionTree::build(&g, &AutoStrategy::default());
    let oracle = build_oracle(&g, &tree, OracleParams::default());
    let pairs: Vec<(NodeId, NodeId)> = (0..8u32)
        .flat_map(|u| (0..8u32).map(move |v| (NodeId(u), NodeId(v))))
        .collect();
    let sequential: Vec<_> = pairs.iter().map(|&(u, v)| oracle.query(u, v)).collect();
    assert_eq!(BatchQueryEngine::default().run(&oracle, &pairs), sequential);
    // cross-component pairs really are None
    assert_eq!(oracle.query(NodeId(0), NodeId(5)), None);
    assert!(sequential.iter().any(|a| a.is_none()));
}
