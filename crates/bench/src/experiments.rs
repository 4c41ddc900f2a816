//! The experiments E1–E9 (see `EXPERIMENTS.md`): each function runs one
//! experiment and returns a markdown table of its results.

use std::fmt::Write as _;

use psep_core::check::check_tree;
use psep_core::doubling::{DoublingDecompositionTree, GridPlaneStrategy};
use psep_core::strategy::{FundamentalCycleStrategy, IterativeStrategy, SeparatorStrategy};
use psep_core::strong::{
    greedy_strong_separator, max_shortest_path_vertices, strong_lower_bound_mesh_apex,
};
use psep_core::DecompositionTree;
use psep_graph::dijkstra::{dijkstra, dijkstra_to};
use psep_graph::generators::{grids, ktree, randomize_weights, special};
use psep_graph::graph::NodeId;
use psep_graph::metrics::aspect_ratio_estimate;
use psep_oracle::oracle::{build_oracle, OracleParams};
use psep_routing::wire::{decode_tables, encode_tables};
use psep_routing::{OracleGreedyRouter, Router, RoutingTables};
use psep_smallworld::baselines::{KleinbergGrid, UniformAugmentation};
use psep_smallworld::sim::{ContactRule, GreedySim};
use psep_smallworld::{build_augmentation, claim1_holds, select_landmarks};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::families::{Family, ALL_FAMILIES};
use crate::measure::{mean_micros, sample_stretch, timed};

const SEED: u64 = 20060722; // PODC'06 started July 22, 2006

/// E1 — Theorem 1 / Definition 1: every minor-free family decomposes
/// with a flat (n-independent) path budget per level, and logarithmic
/// depth; every separator is verified against Definition 1.
pub fn e1_separator(sizes: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | max Σk_i per node | groups(max) | depth | ⌈log₂n⌉+1 | Def.1 | build s |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for fam in ALL_FAMILIES {
        for &n in sizes {
            let g = fam.make(n, SEED);
            let strat = fam.strategy();
            let (tree, build_s) = timed(|| DecompositionTree::build(&g, strat.as_ref()));
            let ok = check_tree(&g, &tree).is_ok();
            let max_groups = tree
                .nodes()
                .iter()
                .map(|nd| nd.separator.num_groups())
                .max()
                .unwrap_or(0);
            let bound = (g.num_nodes() as f64).log2().ceil() as usize + 1;
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} | {} | {build_s:.3} |",
                fam.name(),
                g.num_nodes(),
                tree.max_paths_per_node(),
                max_groups,
                tree.depth() + 1,
                bound,
                if ok { "ok" } else { "VIOLATED" }
            );
        }
    }
    out
}

/// E2 — Theorem 6.1 (Thorup): planar families are strongly 3-path
/// separable; the fundamental-cycle strategy should need ≤ 3 root paths
/// at every node.
pub fn e2_planar_three_paths(sizes: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | nodes | max paths/node | nodes ≤3 paths | strong? | build s |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for fam in ALL_FAMILIES.into_iter().filter(|f| f.is_planar()) {
        for &n in sizes {
            let g = fam.make(n, SEED);
            let strat = FundamentalCycleStrategy::default();
            let (tree, build_s) = timed(|| DecompositionTree::build(&g, &strat));
            check_tree(&g, &tree).expect("separators must validate");
            let total = tree.nodes().len();
            let within: usize = tree
                .nodes()
                .iter()
                .filter(|nd| nd.separator.num_paths() <= 3)
                .count();
            let strong = tree.nodes().iter().all(|nd| nd.separator.is_strong());
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {}/{} | {} | {build_s:.3} |",
                fam.name(),
                g.num_nodes(),
                total,
                tree.max_paths_per_node(),
                within,
                total,
                strong
            );
        }
    }
    out
}

/// E3 — Theorem 2: oracle stretch ≤ 1+ε, label size growth ~ log n,
/// query time vs on-line Dijkstra, space vs the quadratic APSP baseline.
pub fn e3_oracle(families: &[Family], sizes: &[usize], epsilons: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | ε | build s | mean label | max label | mean stretch | max stretch | query µs | dijkstra µs | oracle entries | APSP entries |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|---|");
    for &fam in families {
        for &n in sizes {
            let g = fam.make(n, SEED);
            let strat = fam.strategy();
            let tree = DecompositionTree::build(&g, strat.as_ref());
            for &eps in epsilons {
                let (oracle, build_s) = timed(|| {
                    let params = OracleParams {
                        epsilon: eps,
                        threads: 0,
                    };
                    build_oracle(&g, &tree, params)
                });
                let stats = oracle.stats();
                let stretch = sample_stretch(&g, 24, 48, SEED ^ 1, |u, v| oracle.query(u, v));
                assert!(
                    stretch.max <= 1.0 + eps + 1e-9,
                    "stretch {} exceeds 1+{eps}",
                    stretch.max
                );
                let pairs = crate::measure::random_pairs(g.num_nodes(), 256, SEED ^ 2);
                let mut idx = 0usize;
                let query_us = mean_micros(1024, || {
                    let (u, v) = pairs[idx % pairs.len()];
                    idx += 1;
                    let _ = oracle.query(u, v);
                });
                let mut jdx = 0usize;
                let dijkstra_us = mean_micros(32, || {
                    let (u, v) = pairs[jdx % pairs.len()];
                    jdx += 1;
                    let _ = dijkstra_to(&g, u, v);
                });
                let _ = writeln!(
                    out,
                    "| {} | {} | {eps} | {build_s:.2} | {:.1} | {} | {:.4} | {:.4} | {query_us:.2} | {dijkstra_us:.1} | {} | {} |",
                    fam.name(),
                    g.num_nodes(),
                    stats.mean_size,
                    stats.max_size,
                    stretch.mean,
                    stretch.max,
                    oracle.space_entries(),
                    g.num_nodes() * g.num_nodes(),
                );
            }
        }
    }
    out
}

/// E3t — the serving lifecycle (PR "flat labels + batch + wire"): wire
/// round-trip fidelity and size, then batch-query throughput vs a
/// sequential `query` loop across worker-thread counts.
///
/// Reported metrics: `oracle.wire.bytes_per_label` (wire bytes over
/// label count, vs the in-memory arena), and
/// `oracle.batch.pairs_per_sec` (best observed across thread counts,
/// with per-count `oracle.batch.threadsNN.pairs_per_sec` gauges).
pub fn e3t_throughput(families: &[Family], n: usize, pair_count: usize) -> String {
    use psep_oracle::{wire, BatchQueryEngine};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | wire bytes | bytes/label | arena bytes | threads | pairs/s | speedup |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for &fam in families {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let strat = fam.strategy();
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let oracle = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: 0.25,
                threads: 0,
            },
        );

        // wire round-trip must be bit-exact, for labels and for the tree
        let bytes = wire::encode_labels(oracle.flat_labels(), oracle.epsilon());
        let (back, eps_back) = wire::decode_labels(&bytes).expect("own artifact decodes");
        assert!(
            back == *oracle.flat_labels() && eps_back == oracle.epsilon(),
            "wire round-trip is not bit-exact"
        );
        let tree_bytes = tree.encode();
        assert!(
            psep_core::DecompositionTree::decode(&tree_bytes).expect("own tree decodes") == tree,
            "tree wire round-trip is not bit-exact"
        );
        let bytes_per_label = bytes.len() as f64 / nn as f64;
        let arena_bytes = oracle.flat_labels().heap_bytes();
        if psep_obs::enabled() {
            psep_obs::counter("oracle.wire.bytes").add(bytes.len() as u64);
            psep_obs::gauge("oracle.wire.bytes_per_label").set(bytes_per_label);
            psep_obs::gauge("oracle.wire.arena_ratio").set(bytes.len() as f64 / arena_bytes as f64);
        }

        let pairs = crate::measure::random_pairs(nn, pair_count, SEED ^ 31);
        let (seq_answers, seq_s) = timed(|| {
            pairs
                .iter()
                .map(|&(u, v)| oracle.query(u, v))
                .collect::<Vec<_>>()
        });
        let seq_pps = pairs.len() as f64 / seq_s;
        let _ = writeln!(
            out,
            "| {} | {nn} | {} | {bytes_per_label:.1} | {arena_bytes} | seq | {seq_pps:.0} | 1.00× |",
            fam.name(),
            bytes.len(),
        );
        for threads in [1usize, 2, 4, 8] {
            let engine = BatchQueryEngine::new(threads).min_chunk(64);
            let (answers, batch_s) = timed(|| engine.run(&oracle, &pairs));
            assert_eq!(answers, seq_answers, "batch answers diverge at t={threads}");
            let pps = pairs.len() as f64 / batch_s;
            if psep_obs::enabled() {
                psep_obs::gauge("oracle.batch.pairs_per_sec").set_max(pps);
                psep_obs::gauge(&format!("oracle.batch.threads{threads:02}.pairs_per_sec"))
                    .set_max(pps);
            }
            let _ = writeln!(
                out,
                "| {} | {nn} | - | - | - | {threads} | {pps:.0} | {:.2}× |",
                fam.name(),
                pps / seq_pps,
            );
        }
    }
    out
}

/// E3b — parallel construction (PR "deterministic parallel build"):
/// decomposition-tree and label build throughput across worker-thread
/// counts, with the bit-identity guarantee asserted inline — every
/// thread count must serialize to the sequential run's exact
/// tree-section and delta labels-section bytes.
///
/// Reported metrics: `core.build.nodes_per_sec` and
/// `oracle.label.vertices_per_sec` (best observed across thread counts,
/// with per-count `core.build.threadsNN.*` /
/// `oracle.label.threadsNN.*` gauges).
pub fn e3b_build_throughput(families: &[Family], n: usize) -> String {
    use psep_core::decomposition::DecompositionParams;
    use psep_oracle::label::build_labels;
    use psep_oracle::wire;
    const EPSILON: f64 = 0.25;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | threads | tree s | tree speedup | labels s | labels speedup | identical |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for &fam in families {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let strat = fam.strategy();

        let (base_tree, base_tree_s) = timed(|| DecompositionTree::build(&g, strat.as_ref()));
        let base_tree_bytes = base_tree.encode();
        let (base_labels, base_label_s) = timed(|| build_labels(&g, &base_tree, EPSILON, 1));
        let base_label_bytes = wire::encode_labels(&base_labels, EPSILON);
        let _ = writeln!(
            out,
            "| {} | {nn} | seq | {base_tree_s:.2} | 1.00× | {base_label_s:.2} | 1.00× | yes |",
            fam.name(),
        );

        for threads in [1usize, 2, 4] {
            let params = DecompositionParams { threads };
            let (tree, tree_s) =
                timed(|| DecompositionTree::build_with(&g, strat.as_ref(), &params));
            let (labels, label_s) = timed(|| build_labels(&g, &tree, EPSILON, threads));
            let identical = tree.encode() == base_tree_bytes
                && wire::encode_labels(&labels, EPSILON) == base_label_bytes;
            assert!(identical, "parallel build diverged at t={threads}");
            let tree_nps = tree.nodes().len() as f64 / tree_s;
            let label_vps = nn as f64 / label_s;
            if psep_obs::enabled() {
                psep_obs::gauge("core.build.nodes_per_sec").set_max(tree_nps);
                psep_obs::gauge(&format!("core.build.threads{threads:02}.nodes_per_sec"))
                    .set_max(tree_nps);
                psep_obs::gauge("oracle.label.vertices_per_sec").set_max(label_vps);
                psep_obs::gauge(&format!(
                    "oracle.label.threads{threads:02}.vertices_per_sec"
                ))
                .set_max(label_vps);
            }
            let _ = writeln!(
                out,
                "| {} | {nn} | {threads} | {tree_s:.2} | {:.2}× | {label_s:.2} | {:.2}× | yes |",
                fam.name(),
                base_tree_s / tree_s,
                base_label_s / label_s,
            );
        }
    }
    out
}

/// E-path — witness-path reporting (PR "path reporting"): exact
/// reconstruction of a `(1+ε)`-witness path for every query, with three
/// guarantees asserted inline — every path survives the ground-truth
/// [`psep_testkit::PathChecker`], every path's weight equals the
/// distance `query` reports for the same pair, and `query_path_many`
/// is bit-identical to a sequential `query_path` loop at every thread
/// count.
///
/// Reported metrics: `oracle.path.pairs_per_sec` (best observed across
/// families and thread counts, with per-family
/// `oracle.path.<family>.pairs_per_sec` and per-count
/// `oracle.path.threadsNN.pairs_per_sec` gauges) and
/// `oracle.path.mean_nodes`; the oracle's own
/// `oracle.path.*` counters and latency histograms ride along in the
/// same snapshot.
pub fn epath_reporting(families: &[Family], n: usize, pair_count: usize) -> String {
    use psep_oracle::BatchQueryEngine;
    use psep_testkit::PathChecker;
    const EPSILON: f64 = 0.25;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | mean nodes | max nodes | checked | threads | pairs/s | speedup |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for &fam in families {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let strat = fam.strategy();
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let oracle = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: EPSILON,
                threads: 0,
            },
        );
        let pairs = crate::measure::random_pairs(nn, pair_count, SEED ^ 51);
        let (seq_paths, seq_s) = timed(|| {
            pairs
                .iter()
                .map(|&(u, v)| oracle.query_path(&g, &tree, u, v))
                .collect::<Vec<_>>()
        });
        let seq_pps = pairs.len() as f64 / seq_s;

        // ground truth: every path is a real walk of exactly the
        // reported weight, within (1+ε) of the exact distance, and the
        // reported weight IS the distance `query` reports
        let checker = PathChecker::new(&g, EPSILON);
        let mut total_nodes = 0usize;
        let mut max_nodes = 0usize;
        for (&(u, v), p) in pairs.iter().zip(&seq_paths) {
            checker
                .check(u, v, p.as_ref())
                .unwrap_or_else(|e| panic!("{}: {e}", fam.name()));
            assert_eq!(
                p.as_ref().map(|p| p.weight),
                oracle.query(u, v),
                "{}: path weight diverges from query({u:?},{v:?})",
                fam.name()
            );
            if let Some(p) = p {
                total_nodes += p.nodes.len();
                max_nodes = max_nodes.max(p.nodes.len());
            }
        }
        let mean_nodes = total_nodes as f64 / pairs.len() as f64;
        if psep_obs::enabled() {
            psep_obs::gauge("oracle.path.mean_nodes").set(mean_nodes);
        }
        let _ = writeln!(
            out,
            "| {} | {nn} | {mean_nodes:.1} | {max_nodes} | {} | seq | {seq_pps:.0} | 1.00× |",
            fam.name(),
            pairs.len(),
        );
        for threads in [1usize, 2, 4, 8] {
            let engine = BatchQueryEngine::new(threads);
            let (paths, batch_s) = timed(|| {
                engine
                    .try_run_paths(&oracle, &g, &tree, &pairs)
                    .expect("pairs in range")
            });
            assert_eq!(paths, seq_paths, "batch paths diverge at t={threads}");
            let pps = pairs.len() as f64 / batch_s;
            if psep_obs::enabled() {
                psep_obs::gauge("oracle.path.pairs_per_sec").set_max(pps);
                psep_obs::gauge(&format!("oracle.path.{}.pairs_per_sec", fam.name())).set_max(pps);
                psep_obs::gauge(&format!("oracle.path.threads{threads:02}.pairs_per_sec"))
                    .set_max(pps);
            }
            let _ = writeln!(
                out,
                "| {} | {nn} | - | - | - | {threads} | {pps:.0} | {:.2}× |",
                fam.name(),
                pps / seq_pps,
            );
        }
    }
    out
}

/// E4 — Theorem 3: expected greedy hops under the paper's augmentation
/// vs Kleinberg inverse-square (grids only) and uniform contacts; hop
/// growth should be poly-logarithmic for the paper's distribution and
/// polynomial for the uniform baseline.
pub fn e4_smallworld(sizes: &[usize], trials: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| graph | n | Δ | plain greedy | paper 𝒟 | kleinberg | uniform | hops/log²n (𝒟) | 𝒟 µs/trial |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    let per_trial_us = |secs: f64| secs * 1e6 / trials.max(1) as f64;
    struct NoContacts;
    impl ContactRule for NoContacts {
        fn sample_contact(&self, _: NodeId, _: &mut dyn rand::RngCore) -> Option<NodeId> {
            None
        }
    }
    for &n in sizes {
        let side = (n as f64).sqrt().round() as usize;
        let g = grids::grid2d(side, side, 1);
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let log_delta = (aspect_ratio_estimate(&g).unwrap_or(2) as f64)
            .log2()
            .ceil() as u32
            + 1;
        let aug = build_augmentation(&g, &tree, log_delta);
        let kb = KleinbergGrid::new(side, side);
        let un = UniformAugmentation::new(g.num_nodes());
        let mut rng = ChaCha8Rng::seed_from_u64(SEED);
        let plain = GreedySim::new(&g, &NoContacts).run(trials, &mut rng);
        let (paper, paper_s) = timed(|| GreedySim::new(&g, &aug).run(trials, &mut rng));
        let kbs = GreedySim::new(&g, &kb).run(trials, &mut rng);
        let uns = GreedySim::new(&g, &un).run(trials, &mut rng);
        let log2n = (g.num_nodes() as f64).log2();
        let _ = writeln!(
            out,
            "| grid {side}×{side} | {} | {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.2} | {:.1} |",
            g.num_nodes(),
            side * 2 - 2,
            plain.mean_hops,
            paper.mean_hops,
            kbs.mean_hops,
            uns.mean_hops,
            paper.mean_hops / (log2n * log2n),
            per_trial_us(paper_s),
        );
    }
    // other minor-free families under the paper's 𝒟 (claim covers all)
    for fam in [
        crate::families::Family::Tree,
        crate::families::Family::Apollonian,
    ] {
        let n = *sizes.last().unwrap_or(&1024);
        let g = fam.make(n, SEED);
        let strat = fam.strategy();
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let log_delta = (aspect_ratio_estimate(&g).unwrap_or(2) as f64)
            .log2()
            .ceil() as u32
            + 1;
        let aug = build_augmentation(&g, &tree, log_delta);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 21);
        let plain = GreedySim::new(&g, &NoContacts).run(trials, &mut rng);
        let (paper, paper_s) = timed(|| GreedySim::new(&g, &aug).run(trials, &mut rng));
        let log2n = (g.num_nodes() as f64).log2();
        let _ = writeln!(
            out,
            "| {} | {} | - | {:.1} | {:.1} | - | - | {:.2} | {:.1} |",
            fam.name(),
            g.num_nodes(),
            plain.mean_hops,
            paper.mean_hops,
            paper.mean_hops / (log2n * log2n),
            per_trial_us(paper_s),
        );
    }
    // Note 2 variant: closest-separator contacts on the unweighted grid
    {
        let side = 32usize;
        let g = grids::grid2d(side, side, 1);
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let rule = psep_smallworld::ClosestSeparatorRule::build(&g, &tree);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 22);
        let (note2, note2_s) = timed(|| GreedySim::new(&g, &rule).run(trials, &mut rng));
        let log2n = (g.num_nodes() as f64).log2();
        let _ = writeln!(
            out,
            "| grid {side}×{side} (Note 2) | {} | {} | - | {:.1} | - | - | {:.2} | {:.1} |",
            g.num_nodes(),
            side * 2 - 2,
            note2.mean_hops,
            note2.mean_hops / (log2n * log2n),
            per_trial_us(note2_s),
        );
    }
    // Δ sweep on a fixed weighted grid topology (log²Δ factor)
    let side = 24usize;
    for max_w in [1u64, 8, 64] {
        let base = grids::grid2d(side, side, 1);
        let g = if max_w == 1 {
            base
        } else {
            randomize_weights(&base, 1, max_w, SEED)
        };
        let tree = DecompositionTree::build(&g, &FundamentalCycleStrategy::default());
        let delta = aspect_ratio_estimate(&g).unwrap_or(2);
        let log_delta = (delta as f64).log2().ceil() as u32 + 1;
        let aug = build_augmentation(&g, &tree, log_delta);
        let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 3);
        let (paper, paper_s) = timed(|| GreedySim::new(&g, &aug).run(trials, &mut rng));
        let log2n = (g.num_nodes() as f64).log2();
        let _ = writeln!(
            out,
            "| weighted grid w≤{max_w} | {} | {delta} | - | {:.1} | - | - | {:.2} | {:.1} |",
            g.num_nodes(),
            paper.mean_hops,
            paper.mean_hops / (log2n * log2n),
            per_trial_us(paper_s),
        );
    }
    out
}

/// E5 — Corollary 1.1 / Note 1: on bounded-treewidth graphs the
/// separator paths are single vertices, so the hop count is
/// `O(k² log² n)` with **no** `Δ` dependence: sweep edge weights on a
/// fixed 3-tree topology.
pub fn e5_smallworld_tw(sizes: &[usize], trials: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| graph | n | max w | Δ | paper 𝒟 hops | hops/log²n | singleton paths? | µs/trial |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for &n in sizes {
        for max_w in [1u64, 16, 256] {
            let kt = if max_w == 1 {
                ktree::random_k_tree(n, 3, SEED)
            } else {
                ktree::random_weighted_k_tree(n, 3, max_w, SEED)
            };
            let g = &kt.graph;
            let tree = DecompositionTree::build(g, &psep_core::strategy::TreewidthStrategy);
            let singleton = tree.nodes().iter().all(|nd| {
                nd.separator
                    .groups
                    .iter()
                    .flat_map(|gr| gr.paths.iter())
                    .all(|p| p.is_singleton())
            });
            let delta = aspect_ratio_estimate(g).unwrap_or(2);
            let log_delta = (delta as f64).log2().ceil() as u32 + 1;
            let aug = build_augmentation(g, &tree, log_delta);
            let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 4);
            let (stats, sim_s) = timed(|| GreedySim::new(g, &aug).run(trials, &mut rng));
            let log2n = (g.num_nodes() as f64).log2();
            let _ = writeln!(
                out,
                "| 3-tree | {} | {max_w} | {delta} | {:.1} | {:.2} | {} | {:.1} |",
                g.num_nodes(),
                stats.mean_hops,
                stats.mean_hops / (log2n * log2n),
                singleton,
                sim_s * 1e6 / trials.max(1) as f64,
            );
        }
    }
    out
}

/// E6 — compact routing: table/label sizes (poly-log shape) and measured
/// stretch of the plan router vs the oracle-greedy baseline.
pub fn e6_routing(families: &[Family], sizes: &[usize]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | mean tbl | max tbl | label | plan mean | plan max | greedy mean | greedy delivery |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for &fam in families {
        for &n in sizes {
            let g = fam.make(n, SEED);
            let strat = fam.strategy();
            let tree = DecompositionTree::build(&g, strat.as_ref());
            let tables = RoutingTables::build(&g, &tree);
            let (mean_tbl, max_tbl) = tables.table_stats();
            let mean_label = {
                let total: usize = g.nodes().map(|v| tables.label(v).size()).sum();
                total as f64 / g.num_nodes() as f64
            };
            let router = Router::new(&g, tables);
            let labels: Vec<_> = g.nodes().map(|v| router.label(v)).collect();
            let plan = sample_stretch(&g, 24, 32, SEED ^ 5, |u, v| {
                router.route(u, v, &labels[v.index()]).map(|o| o.cost)
            });
            assert!(plan.max <= 3.0 + 1e-9, "plan stretch {} > 3", plan.max);
            // oracle-greedy baseline
            let params = OracleParams {
                epsilon: 0.25,
                threads: 4,
            };
            let greedy = OracleGreedyRouter::new(&g, build_oracle(&g, &tree, params));
            let pairs = crate::measure::random_pairs(g.num_nodes(), 512, SEED ^ 6);
            let mut delivered = 0usize;
            let mut total_stretch = 0.0f64;
            let mut counted = 0usize;
            for &(u, v) in &pairs {
                if u == v {
                    continue;
                }
                counted += 1;
                if let Some(o) = greedy.route(u, v) {
                    delivered += 1;
                    if let Some(d) = dijkstra_to(&g, u, v).dist(v) {
                        total_stretch += o.cost as f64 / d as f64;
                    }
                }
            }
            let _ = writeln!(
                out,
                "| {} | {} | {mean_tbl:.1} | {max_tbl} | {mean_label:.1} | {:.4} | {:.4} | {:.4} | {:.1}% |",
                fam.name(),
                g.num_nodes(),
                plan.mean,
                plan.max,
                if delivered > 0 {
                    total_stretch / delivered as f64
                } else {
                    f64::NAN
                },
                100.0 * delivered as f64 / counted.max(1) as f64,
            );
        }
    }
    out
}

/// E6t — routing as a service (PR "one serving architecture"): parallel
/// table construction with bit-identity asserted inline, the
/// delta tables-section format (size vs the in-memory arena), and
/// `route_many` throughput vs a sequential `route` loop across
/// worker-thread counts.
///
/// Reported metrics: `routing.wire.bytes_per_vertex` (wire bytes over
/// vertex count, vs the in-memory arena; the section stores no entry
/// offsets or keys, which a bundle keeps in its labels section) and
/// `routing.batch.routes_per_sec` (best observed across thread counts,
/// with per-count `routing.batch.threadsNN.routes_per_sec` gauges).
pub fn e6t_routing_serving(families: &[Family], n: usize, pair_count: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | build s | wire bytes | bytes/vertex | arena bytes | threads | routes/s | speedup |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for &fam in families {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let strat = fam.strategy();
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let (tables, build_s) = timed(|| RoutingTables::build(&g, &tree));

        // every thread count must serialize to the sequential build's
        // exact delta tables-section bytes, and the round-trip is bit-exact
        let bytes = encode_tables(tables.flat());
        for threads in [2usize, 4] {
            let par_bytes = encode_tables(RoutingTables::build_with(&g, &tree, threads).flat());
            assert_eq!(par_bytes, bytes, "parallel build diverged at t={threads}");
        }
        // the section stores no keys: decode over the tables' own, as a
        // bundle decodes over the labels'
        let loaded = RoutingTables::from_flat(
            decode_tables(&bytes, tables.flat().csr()).expect("own artifact decodes"),
        );
        assert!(loaded == tables, "wire round-trip is not bit-exact");

        let bytes_per_vertex = bytes.len() as f64 / nn as f64;
        let arena_bytes = tables.flat().heap_bytes();
        if psep_obs::enabled() {
            psep_obs::counter("routing.wire.bytes").add(bytes.len() as u64);
            psep_obs::gauge("routing.wire.bytes_per_vertex").set(bytes_per_vertex);
            psep_obs::gauge("routing.wire.arena_ratio")
                .set(bytes.len() as f64 / arena_bytes as f64);
        }

        let router = Router::new(&g, tables);
        let pairs = crate::measure::random_pairs(nn, pair_count, SEED ^ 41);
        let (seq_answers, seq_s) = timed(|| {
            pairs
                .iter()
                .map(|&(u, t)| router.route(u, t, &router.tables().label(t)))
                .collect::<Vec<_>>()
        });
        let seq_rps = pairs.len() as f64 / seq_s;
        let _ = writeln!(
            out,
            "| {} | {nn} | {build_s:.2} | {} | {bytes_per_vertex:.1} | {arena_bytes} | seq | {seq_rps:.0} | 1.00× |",
            fam.name(),
            bytes.len(),
        );
        for threads in [1usize, 2, 4, 8] {
            let (answers, batch_s) = timed(|| router.route_many_with(&pairs, threads));
            assert_eq!(answers, seq_answers, "batch routes diverge at t={threads}");
            let rps = pairs.len() as f64 / batch_s;
            if psep_obs::enabled() {
                psep_obs::gauge("routing.batch.routes_per_sec").set_max(rps);
                psep_obs::gauge(&format!("routing.batch.threads{threads:02}.routes_per_sec"))
                    .set_max(rps);
            }
            let _ = writeln!(
                out,
                "| {} | {nn} | - | - | - | - | {threads} | {rps:.0} | {:.2}× |",
                fam.name(),
                rps / seq_rps,
            );
        }
    }
    out
}

/// E7 — the lower bounds of §5.1–5.2 and Theorem 7: strong separators of
/// mesh+apex grow like `√n` while the sequential (Definition 1) budget
/// stays flat; `K_{r,n−r}` needs `≥ r/2` paths; the weighted
/// path+stable graph is 1-path separable despite a `K_{n/2,n/2}` minor.
pub fn e7_lower_bounds() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| graph | n | analytic strong LB | greedy strong k (balanced?) | sequential k | max SP vertices | search s |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|");
    for t in [6usize, 9, 12, 18, 24] {
        let g = special::mesh_with_apex(t);
        let comp: Vec<NodeId> = g.nodes().collect();
        let lb = strong_lower_bound_mesh_apex(t);
        let ((strong, balanced), search_s) = timed(|| greedy_strong_separator(&g, &comp, 2 * t, 8));
        let seq = IterativeStrategy::default().separate(&g, &comp);
        psep_core::check::check_separator(&g, &comp, &seq, None).unwrap();
        let spv = max_shortest_path_vertices(&g, 6);
        let _ = writeln!(
            out,
            "| mesh+apex t={t} | {} | {lb} | {} ({balanced}) | {} | {spv} | {search_s:.3} |",
            g.num_nodes(),
            strong.num_paths(),
            seq.num_paths(),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| graph | n | r/2 lower bound | greedy strong k (balanced?) |"
    );
    let _ = writeln!(out, "|---|---|---|---|");
    for r in [4usize, 8, 16] {
        let g = special::complete_bipartite(r, 4 * r);
        let comp: Vec<NodeId> = g.nodes().collect();
        let (strong, balanced) = greedy_strong_separator(&g, &comp, 4 * r, 8);
        let _ = writeln!(
            out,
            "| K_{{{r},{}}} | {} | {} | {} ({balanced}) |",
            4 * r,
            g.num_nodes(),
            r / 2,
            strong.num_paths(),
        );
    }
    let _ = writeln!(out);
    // §5.2 opening example: 1-path separable despite a huge minor
    let half = 32;
    let g = special::path_plus_stable(half);
    let comp: Vec<NodeId> = g.nodes().collect();
    let path: Vec<NodeId> = (0..half).map(NodeId::from_index).collect();
    let sep =
        psep_core::separator::PathSeparator::strong(vec![psep_core::separator::SepPath::new(
            &g, path,
        )]);
    let ok = psep_core::check::check_separator(&g, &comp, &sep, Some(1)).is_ok();
    let _ = writeln!(
        out,
        "path+stable (n={}): contains K_{{{half},{half}}} minor, 1-path separator valid: {ok}",
        g.num_nodes()
    );
    out
}

/// E8 — Theorem 8 (§5.3): 3D meshes have no small path separator (the
/// iterative engine needs many paths) but decompose with one isometric
/// doubling plane per level; the doubling oracle achieves stretch ≤ 1+ε.
pub fn e8_doubling(dims: &[(usize, usize, usize)], epsilons: &[f64]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| mesh | n | k-path Σk_i (iterative) | doubling pieces/node | ε | mean label | mean stretch | max stretch | query µs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for &(x, y, z) in dims {
        let g = grids::grid3d(x, y, z);
        let comp: Vec<NodeId> = g.nodes().collect();
        // how many paths the k-path engine burns on the top level
        let kp = IterativeStrategy::default().separate(&g, &comp);
        let tree = DoublingDecompositionTree::build(&g, &GridPlaneStrategy { dims: (x, y, z) });
        for &eps in epsilons {
            let oracle = psep_oracle::doubling::build_doubling_oracle(
                &g,
                &tree,
                psep_oracle::doubling::DoublingOracleParams {
                    epsilon: eps,
                    threads: 4,
                },
            );
            let stretch = sample_stretch(&g, 16, 32, SEED ^ 7, |u, v| oracle.query(u, v));
            assert!(stretch.max <= 1.0 + eps + 1e-9);
            let pairs = crate::measure::random_pairs(g.num_nodes(), 256, SEED ^ 8);
            let mut idx = 0usize;
            let query_us = mean_micros(1024, || {
                let (u, v) = pairs[idx % pairs.len()];
                idx += 1;
                let _ = oracle.query(u, v);
            });
            let _ = writeln!(
                out,
                "| {x}×{y}×{z} | {} | {} | {} | {eps} | {:.1} | {:.4} | {:.4} | {query_us:.2} |",
                g.num_nodes(),
                kp.num_paths(),
                tree.max_paths_per_node(),
                oracle.mean_label_size(),
                stretch.mean,
                stretch.max,
            );
        }
    }
    out
}

/// E9 — structural lemmas measured directly: Claim 1 landmark cover,
/// Lemma 1 center-bag balance, Lemma 5 clique-weights, and portal counts
/// vs `1/ε`.
pub fn e9_structures() -> String {
    let mut out = String::new();
    // Claim 1 on a unit and a weighted grid
    let (r, c) = (9, 33);
    for (name, g) in [
        ("unit grid", grids::grid2d(r, c, 1)),
        (
            "weighted grid",
            randomize_weights(&grids::grid2d(r, c, 1), 1, 16, SEED),
        ),
    ] {
        // use a genuine shortest path as Q
        let sp0 = dijkstra(&g, &[NodeId(0)]);
        let far = g.nodes().max_by_key(|&v| sp0.dist(v).unwrap()).unwrap();
        let q = psep_core::separator::SepPath::new(&g, sp0.path_to(far).unwrap());
        let log_delta = (aspect_ratio_estimate(&g).unwrap() as f64).log2().ceil() as u32 + 1;
        let mut holds = 0usize;
        let mut total_lm = 0usize;
        let mut select_s = 0.0;
        for v in g.nodes() {
            let spv = dijkstra(&g, &[v]);
            let (lm, s) = timed(|| select_landmarks(spv.dist_raw(), &q, log_delta));
            select_s += s;
            total_lm += lm.len();
            if claim1_holds(spv.dist_raw(), &q, &lm) {
                holds += 1;
            }
        }
        let _ = writeln!(
            out,
            "Claim 1 ({name}, n={}): holds for {holds}/{} vertices, mean |L| = {:.1}, {:.2} µs per selection",
            g.num_nodes(),
            g.num_nodes(),
            total_lm as f64 / g.num_nodes() as f64,
            select_s * 1e6 / g.num_nodes() as f64
        );
    }
    // Lemma 1 + Lemma 5 on k-trees
    for k in [2usize, 3, 4] {
        let kt = ktree::random_k_tree(200, k, SEED);
        let g = &kt.graph;
        let dec = psep_treedec::elimination::min_degree_decomposition(g);
        let cb = psep_treedec::center::center_bag(g, &dec);
        let bag = dec.bag(cb);
        let biggest = psep_graph::components::largest_component_after_removal(g, bag);
        let torso = psep_treedec::torso::torso(g, &dec, cb);
        let cw = psep_treedec::cliqueweight::lemma5_clique_weight(g, &torso);
        let _ = writeln!(
            out,
            "Lemma 1/5 ({k}-tree, n=200): center bag |C|={} (≤ width+1 = {}), max comp {} ≤ n/2 = 100, clique-weight total {} = n",
            bag.len(),
            dec.width() + 1,
            biggest,
            cw.total(),
        );
    }
    // portal counts vs 1/ε on a grid row
    let g = grids::grid2d(9, 65, 1);
    let row = grids::grid_row(9, 65, 4);
    let q = psep_core::separator::SepPath::new(&g, row);
    let _ = writeln!(out);
    let _ = writeln!(out, "| ε | mean portals per (v, Q) | max | select µs |");
    let _ = writeln!(out, "|---|---|---|---|");
    for eps in [1.0, 0.5, 0.25, 0.1, 0.05] {
        let mut total = 0usize;
        let mut max = 0usize;
        let mut select_s = 0.0;
        for v in g.nodes() {
            let spv = dijkstra(&g, &[v]);
            let (p, s) = timed(|| psep_oracle::portals::select_portals(spv.dist_raw(), &q, eps));
            select_s += s;
            total += p.len();
            max = max.max(p.len());
        }
        let _ = writeln!(
            out,
            "| {eps} | {:.2} | {max} | {:.2} |",
            total as f64 / g.num_nodes() as f64,
            select_s * 1e6 / g.num_nodes() as f64
        );
    }
    out
}

/// E-qperf — the query-plane overhaul (PR "bound-pruned merge-join"):
/// on every graph family, runs the same pair pool through the pruned
/// production merge-join and the unpruned reference scan, asserting the
/// three guarantees inline — answers **and** witnesses (winning key and
/// portal pair) are bit-identical, the pruned scan touches strictly
/// fewer candidates, and the batch engine returns input-order results
/// identical to the sequential loop at 1, 2, and 4 workers. The same service is then persisted both ways and the
/// delta-compressed bundle must be smaller than raw v2 and round-trip
/// losslessly back to the exact raw bytes.
///
/// Reported metrics: `eqperf.pruned.pairs_per_sec`,
/// `eqperf.unpruned.pairs_per_sec`, `eqperf.batch.pairs_per_sec` (best
/// observed), `eqperf.scan.saved_frac`,
/// `eqperf.bundle.compression_ratio`, plus the production
/// `oracle.query.pruned_keys` / `oracle.query.pruned_portals` /
/// `oracle.query.candidates_scanned` counters fed from the measured
/// traffic.
pub fn eqperf_query_plane(n: usize, pair_count: usize) -> String {
    use path_separators::{LocationService, ServiceParams};
    use psep_oracle::{BatchQueryEngine, JoinStats};

    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | pairs | scanned pruned | scanned unpruned | saved | keys cut | portal tails cut | pruned pairs/s | unpruned pairs/s | batch pairs/s | raw B | delta B | ratio |"
    );
    let _ = writeln!(
        out,
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|"
    );
    for fam in ALL_FAMILIES {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        let svc = LocationService::build(
            &g,
            ServiceParams {
                epsilon: 0.25,
                threads,
            },
        );
        let oracle = svc.oracle();
        let pairs = crate::measure::random_pairs(nn, pair_count, SEED ^ 61);

        // Pruned production path vs the unpruned reference, same pool.
        let (pruned, pruned_s) = timed(|| {
            let mut stats = JoinStats::default();
            let answers: Vec<_> = pairs
                .iter()
                .map(|&(u, v)| {
                    let (a, s) = oracle.query_with_stats(u, v);
                    stats.merge(s);
                    a
                })
                .collect();
            (answers, stats)
        });
        let (unpruned, unpruned_s) = timed(|| {
            let mut stats = JoinStats::default();
            let answers: Vec<_> = pairs
                .iter()
                .map(|&(u, v)| {
                    let (a, s) = oracle.query_unpruned(u, v);
                    stats.merge(s);
                    a
                })
                .collect();
            (answers, stats)
        });
        let (pruned_answers, pruned_stats) = pruned;
        let (unpruned_answers, unpruned_stats) = unpruned;
        assert_eq!(
            pruned_answers,
            unpruned_answers,
            "{}: pruning changed an answer",
            fam.name()
        );
        assert!(
            pruned_stats.scanned < unpruned_stats.scanned,
            "{}: pruned scan {} is not strictly below unpruned {}",
            fam.name(),
            pruned_stats.scanned,
            unpruned_stats.scanned
        );
        // Witness equivalence: same winning key and portal pair.
        for &(u, v) in &pairs {
            assert_eq!(
                oracle.explain(u, v),
                oracle.explain_unpruned(u, v),
                "{}: pruning changed the witness for {u:?}->{v:?}",
                fam.name()
            );
        }

        // Batches must be bit-identical to the sequential input-order
        // loop at every worker count.
        let mut batch_pps = 0.0f64;
        for workers in [1usize, 2, 4] {
            let engine = BatchQueryEngine::new(workers).min_chunk(64);
            let (answers, batch_s) = timed(|| engine.run(oracle, &pairs));
            assert_eq!(
                answers,
                pruned_answers,
                "{}: batch diverges at t={workers}",
                fam.name()
            );
            batch_pps = batch_pps.max(pairs.len() as f64 / batch_s);
        }

        // Delta-compressed bundle: smaller, and lossless back to raw.
        let raw = svc.to_bytes();
        let delta = svc.to_bytes_compressed();
        assert!(
            delta.len() < raw.len(),
            "{}: delta bundle {} >= raw {}",
            fam.name(),
            delta.len(),
            raw.len()
        );
        let back = LocationService::from_bytes(&delta)
            .unwrap_or_else(|e| panic!("{}: delta bundle rejected: {e}", fam.name()));
        assert_eq!(
            back.to_bytes(),
            raw,
            "{}: delta round-trip is lossy",
            fam.name()
        );
        let ratio = delta.len() as f64 / raw.len() as f64;

        let saved = 1.0 - pruned_stats.scanned as f64 / unpruned_stats.scanned as f64;
        let pruned_pps = pairs.len() as f64 / pruned_s;
        let unpruned_pps = pairs.len() as f64 / unpruned_s;
        if psep_obs::enabled() {
            psep_obs::counter("oracle.query.candidates_scanned").add(pruned_stats.scanned);
            psep_obs::counter("oracle.query.pruned_keys").add(pruned_stats.pruned_keys);
            psep_obs::counter("oracle.query.pruned_portals").add(pruned_stats.pruned_portals);
            psep_obs::gauge("eqperf.pruned.pairs_per_sec").set_max(pruned_pps);
            psep_obs::gauge("eqperf.unpruned.pairs_per_sec").set_max(unpruned_pps);
            psep_obs::gauge("eqperf.batch.pairs_per_sec").set_max(batch_pps);
            psep_obs::gauge("eqperf.scan.saved_frac").set_max(saved);
            psep_obs::gauge("eqperf.bundle.compression_ratio").set(ratio);
        }
        let _ = writeln!(
            out,
            "| {} | {nn} | {} | {} | {} | {:.1}% | {} | {} | {pruned_pps:.0} | {unpruned_pps:.0} | {batch_pps:.0} | {} | {} | {ratio:.3} |",
            fam.name(),
            pairs.len(),
            pruned_stats.scanned,
            unpruned_stats.scanned,
            100.0 * saved,
            pruned_stats.pruned_keys,
            pruned_stats.pruned_portals,
            raw.len(),
            delta.len(),
        );
    }
    out
}

/// E-scale — zero-copy serving at scale (PR "psep-bundle/v2"): builds
/// the full location service on large grids, 3-trees, and random
/// planar instances, persists each as a bundle, and measures the
/// fleet story end to end: build rate, bundle wire size, resident
/// arena bytes (an RSS proxy — what one replica must keep hot), cold
/// start of an aligned map versus a full decode, and query throughput
/// straight out of the borrowed arenas. Mapped answers are asserted
/// bit-identical to the owned service on every sampled pair, a routed
/// spot-check must agree hop for hop, and with observability enabled
/// the mapped query phase must leave every per-entry decode counter
/// untouched — the O(checksum) cold-start claim, checked, not eyeballed.
///
/// Reported metrics: `escale.build.nodes_per_sec`,
/// `escale.map.pairs_per_sec`, `escale.owned.pairs_per_sec` (best
/// observed), `escale.bundle.bytes`, `escale.bundle.bytes_per_node`,
/// `escale.arena.bytes`, and `escale.coldstart.{map_ns,load_ns,speedup}`
/// gauges; the `service.map_ns` / `service.load_ns` histograms recorded
/// by the service itself ride along in the same snapshot.
pub fn escale_bundles(entries: &[(Family, usize)], pair_count: usize) -> String {
    use path_separators::{LocationService, ServiceParams};
    use psep_core::wire::AlignedBytes;

    const DECODE_COUNTERS: [&str; 3] = [
        "oracle.wire.entries_decoded",
        "oracle.wire.portals_decoded",
        "routing.wire.entries_decoded",
    ];
    let decode_counts = || -> Vec<u64> {
        let snap = psep_obs::snapshot();
        DECODE_COUNTERS
            .iter()
            .map(|c| snap.counter(c).unwrap_or(0))
            .collect()
    };

    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | build s | nodes/s | bundle B | B/node | arena B | map ms | load ms | load/map | map pairs/s |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
    for &(fam, n) in entries {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let (svc, build_s) = timed(|| {
            LocationService::build(
                &g,
                ServiceParams {
                    epsilon: 0.25,
                    threads,
                },
            )
        });
        let nps = nn as f64 / build_s;

        let bytes = svc.to_bytes();
        let bpn = bytes.len() as f64 / nn as f64;
        let arena_bytes =
            svc.oracle().flat_labels().heap_bytes() + svc.router().tables().flat().heap_bytes();

        // Cold start, owned path: full decode of every section.
        let (loaded, load_s) =
            timed(|| LocationService::from_bytes(&bytes).expect("own bundle loads"));
        drop(loaded);

        // Cold start, mapped path: checksums plus arena views, nothing
        // per-entry; best of five for a stable minimum.
        let aligned = AlignedBytes::from_slice(&bytes);
        let before = decode_counts();
        let mut map_s = f64::INFINITY;
        let mut mapped = None;
        for _ in 0..5 {
            let (m, s) = timed(|| LocationService::map_bytes(&aligned).expect("own bundle maps"));
            map_s = map_s.min(s);
            mapped = Some(m);
        }
        let mapped = mapped.expect("at least one map attempt");
        assert!(mapped.is_borrowed(), "aligned v2 map must borrow in place");

        // Queries out of the borrowed arenas, bit-identical to owned.
        let pairs = crate::measure::random_pairs(nn, pair_count, SEED ^ 47);
        let (owned_answers, owned_s) =
            timed(|| svc.try_query_many(&pairs).expect("pairs in range"));
        let (mapped_answers, mapped_s) =
            timed(|| mapped.try_query_many(&pairs).expect("pairs in range"));
        assert_eq!(mapped_answers, owned_answers, "mapped answers diverge");
        assert_eq!(
            decode_counts(),
            before,
            "mapped cold start or queries performed per-entry decodes"
        );
        let map_pps = pairs.len() as f64 / mapped_s;
        let owned_pps = pairs.len() as f64 / owned_s;

        // Routed spot-check: same hops, same weights, out of both stores.
        for &(u, v) in pairs.iter().take(32) {
            let a = svc.route(u, v);
            let b = mapped.route(u, v);
            assert_eq!(a, b, "mapped route diverges for {u:?}->{v:?}");
        }

        if psep_obs::enabled() {
            psep_obs::gauge("escale.build.nodes_per_sec").set_max(nps);
            psep_obs::counter("escale.bundle.bytes").add(bytes.len() as u64);
            psep_obs::gauge("escale.bundle.bytes_per_node").set_max(bpn);
            psep_obs::gauge("escale.arena.bytes").set_max(arena_bytes as f64);
            psep_obs::gauge("escale.coldstart.map_ns").set_max(map_s * 1e9);
            psep_obs::gauge("escale.coldstart.load_ns").set_max(load_s * 1e9);
            psep_obs::gauge("escale.coldstart.speedup").set_max(load_s / map_s);
            psep_obs::gauge("escale.map.pairs_per_sec").set_max(map_pps);
            psep_obs::gauge("escale.owned.pairs_per_sec").set_max(owned_pps);
        }
        let _ = writeln!(
            out,
            "| {} | {nn} | {build_s:.2} | {nps:.0} | {} | {bpn:.1} | {arena_bytes} | {:.2} | {:.2} | {:.1}× | {map_pps:.0} |",
            fam.name(),
            bytes.len(),
            map_s * 1e3,
            load_s * 1e3,
            load_s / map_s,
        );
    }
    out
}
