//! Baseline comparisons and ablations beyond the headline experiments:
//!
//! * **E3x** — Theorem 2 oracle vs the Thorup–Zwick general-graph oracle
//!   (stretch `2k−1`) and bidirectional Dijkstra: the "stretch below 3
//!   needs structure" story of §1.1/§5.1;
//! * **A1** — fundamental-cycle candidate budget vs separator quality
//!   (the E1 upticks at `n = 4096` are a search-budget artifact);
//! * **A2** — parallel label construction scaling;
//! * **A3** — strategy ablation: dispatching vs per-family vs generic
//!   engine.

use std::fmt::Write as _;

use psep_core::strategy::{IterativeStrategy, SeparatorStrategy};
use psep_core::DecompositionTree;
use psep_graph::bidijkstra::bidirectional_distance;
use psep_graph::csr::CsrGraph;
use psep_graph::dijkstra::dijkstra;
use psep_graph::graph::Weight;
use psep_graph::NodeId;
use psep_oracle::label::build_labels;
use psep_oracle::oracle::{build_oracle, OracleParams};
use psep_oracle::thorup_zwick::ThorupZwickOracle;
use psep_oracle::DistanceEstimator;
use psep_planar::cycle::CycleSearch;

use crate::families::Family;
use crate::measure::{mean_micros, random_pairs, sample_stretch, timed};

const SEED: u64 = 20060722;

/// Bidirectional Dijkstra behind the [`DistanceEstimator`] interface, so
/// the exact point-to-point baseline rides the same measurement loop as
/// the preprocessed oracles.
struct BidirectionalBaseline<'a> {
    graph: &'a psep_graph::Graph,
}

impl DistanceEstimator for BidirectionalBaseline<'_> {
    fn query(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        bidirectional_distance(self.graph, u, v)
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn space_entries(&self) -> usize {
        0
    }
}

/// E3x — our structured oracle vs Thorup–Zwick vs point-to-point search,
/// every contender behind the one [`DistanceEstimator`] interface.
pub fn e3x_oracle_baselines(families: &[Family], n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "| family | n | oracle | ε bound | mean stretch | max stretch | space entries | query µs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for &fam in families {
        let g = fam.make(n, SEED);
        let nn = g.num_nodes();
        let strat = fam.strategy();
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let ours = build_oracle(
            &g,
            &tree,
            OracleParams {
                epsilon: 0.25,
                threads: 4,
            },
        );
        let tz2 = ThorupZwickOracle::build(&g, 2, SEED);
        let tz3 = ThorupZwickOracle::build(&g, 3, SEED);
        let exact = BidirectionalBaseline { graph: &g };
        let pairs = random_pairs(nn, 256, SEED ^ 11);

        let rows: Vec<(&str, &dyn DistanceEstimator)> = vec![
            ("path-sep ε=0.25 (1.25×)", &ours),
            ("thorup-zwick k=2 (3×)", &tz2),
            ("thorup-zwick k=3 (5×)", &tz3),
            ("bidir. dijkstra (exact)", &exact),
        ];
        for (name, est) in rows {
            let stretch = sample_stretch(&g, 16, 32, SEED ^ 12, |u, v| est.query(u, v));
            assert!(
                stretch.max <= 1.0 + est.epsilon() + 1e-9,
                "{name}: stretch {} exceeds advertised 1 + ε",
                stretch.max
            );
            let mut i = 0usize;
            let us = mean_micros(256, || {
                let (u, v) = pairs[i % pairs.len()];
                i += 1;
                let _ = est.query(u, v);
            });
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.4} | {:.4} | {} | {:.2} |",
                fam.name(),
                nn,
                name,
                1.0 + est.epsilon(),
                stretch.mean,
                stretch.max,
                est.space_entries(),
                us
            );
        }
    }
    out
}

/// A1 — candidate-budget ablation for the fundamental-cycle search.
pub fn a1_candidate_budget(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| family | n | max candidates | max Σk_i | build s |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for fam in [Family::Grid, Family::TriangulatedGrid] {
        let g = fam.make(n, SEED);
        for budget in [32usize, 256, 4096] {
            // the iterative engine guarantees halving at any budget by
            // opening further groups when the sampled cycle search falls
            // short — the extra groups ARE the cost of a small budget
            let strat = IterativeStrategy {
                search: CycleSearch {
                    max_candidates: budget,
                    accept_first: true,
                    max_extra_paths: 8,
                },
                ..IterativeStrategy::default()
            };
            let (tree, secs) = timed(|| DecompositionTree::build(&g, &strat));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.2} |",
                fam.name(),
                g.num_nodes(),
                budget,
                tree.max_paths_per_node(),
                secs
            );
        }
    }
    out
}

/// A2 — parallel label-construction scaling.
pub fn a2_parallel_scaling(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| n | threads | build s | speedup |");
    let _ = writeln!(out, "|---|---|---|---|");
    let g = Family::Grid.make(n, SEED);
    let strat = Family::Grid.strategy();
    let tree = DecompositionTree::build(&g, strat.as_ref());
    let (_, base) = timed(|| build_labels(&g, &tree, 0.25, 1));
    for threads in [1usize, 2, 4, 8] {
        let (_, secs) = timed(|| build_labels(&g, &tree, 0.25, threads));
        let _ = writeln!(
            out,
            "| {} | {threads} | {secs:.2} | {:.2}× |",
            g.num_nodes(),
            base / secs
        );
    }
    out
}

/// A3 — strategy ablation on a fixed input: dispatching vs per-family vs
/// the generic iterative engine.
pub fn a3_strategy_ablation(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| family | strategy | max Σk_i | depth | build s |");
    let _ = writeln!(out, "|---|---|---|---|---|");
    for fam in [Family::Grid, Family::KTree3, Family::Apollonian] {
        let g = fam.make(n, SEED);
        let strategies: Vec<Box<dyn SeparatorStrategy>> = vec![
            Family::auto(),
            fam.strategy(),
            Box::new(IterativeStrategy::default()),
        ];
        for strat in strategies {
            let (tree, secs) = timed(|| DecompositionTree::build(&g, strat.as_ref()));
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.2} |",
                fam.name(),
                strat.name(),
                tree.max_paths_per_node(),
                tree.depth() + 1,
                secs
            );
        }
    }
    out
}

/// A4 — substrate layout ablation: Dijkstra on adjacency-list vs frozen
/// CSR graphs.
pub fn a4_csr_layout(n: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| family | n | layout | full dijkstra µs |");
    let _ = writeln!(out, "|---|---|---|---|");
    for fam in [Family::Grid, Family::Apollonian] {
        let g = fam.make(n, SEED);
        let frozen = CsrGraph::from_graph(&g);
        let sources: Vec<NodeId> = (0..16u32)
            .map(|i| NodeId(i * 7 % g.num_nodes() as u32))
            .collect();
        let mut i = 0usize;
        let adj_us = mean_micros(64, || {
            let s = sources[i % sources.len()];
            i += 1;
            let _ = dijkstra(&g, &[s]);
        });
        let mut j = 0usize;
        let csr_us = mean_micros(64, || {
            let s = sources[j % sources.len()];
            j += 1;
            let _ = dijkstra(&frozen, &[s]);
        });
        let _ = writeln!(
            out,
            "| {} | {} | adjacency | {adj_us:.1} |",
            fam.name(),
            g.num_nodes()
        );
        let _ = writeln!(
            out,
            "| {} | {} | csr | {csr_us:.1} |",
            fam.name(),
            g.num_nodes()
        );
    }
    out
}

/// E7x — Theorem 5's empirical shadow: on *unstructured* sparse-ish
/// graphs the iterative engine burns many paths and labels blow up
/// toward `√n`-scale, while structured families keep `O(log n)` labels.
pub fn e7x_sparse_label_blowup() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "| graph | n | m | max Σk_i | mean label | max label |");
    let _ = writeln!(out, "|---|---|---|---|---|---|");
    for n in [64usize, 128, 256] {
        let g = psep_graph::generators::special::erdos_renyi_connected(n, 0.5, SEED);
        let strat = IterativeStrategy::default();
        let tree = DecompositionTree::build(&g, &strat);
        let stats = build_labels(&g, &tree, 0.25, 4).stats();
        let _ = writeln!(
            out,
            "| dense ER p=.5 | {} | {} | {} | {:.1} | {} |",
            g.num_nodes(),
            g.num_edges(),
            tree.max_paths_per_node(),
            stats.mean_size,
            stats.max_size
        );
    }
    for n in [256usize, 1024, 4096] {
        let g = Family::Grid.make(n, SEED);
        let strat = Family::Grid.strategy();
        let tree = DecompositionTree::build(&g, strat.as_ref());
        let stats = build_labels(&g, &tree, 0.25, 4).stats();
        let _ = writeln!(
            out,
            "| grid (structured) | {} | {} | {} | {:.1} | {} |",
            g.num_nodes(),
            g.num_edges(),
            tree.max_paths_per_node(),
            stats.mean_size,
            stats.max_size
        );
    }
    out
}
