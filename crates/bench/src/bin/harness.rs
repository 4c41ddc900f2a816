//! Runs the experiment suite and prints `EXPERIMENTS.md`-ready tables.
//!
//! ```text
//! cargo run -p psep-bench --bin harness --release                  # all
//! cargo run -p psep-bench --bin harness --release -- e1 e3         # subset
//! cargo run -p psep-bench --bin harness --release -- quick         # small sizes
//! cargo run -p psep-bench --bin harness --release -- quick --json out.json
//! ```
//!
//! With `--json <path>` the harness also writes a machine-readable
//! `psep-bench-report/v2` report: one entry per experiment with its
//! wall-clock time, the instrumentation snapshot collected while it ran
//! (counters, gauges, latency/size histograms, per-phase span timings
//! from `psep-obs`) wrapped in a CRC'd `psep-metrics/v1` envelope, and
//! the rendered markdown table. Counters are reset between experiments,
//! so each snapshot is that experiment's own traffic. Every metric name
//! is fixed: sharded stages publish one per-run total per name, never a
//! per-worker series.

use psep_bench::ablations as ab;
use psep_bench::experiments as ex;
use psep_bench::families::Family;
use psep_bench::loadgen::{self, LoadgenConfig};
use psep_bench::measure::timed;
use psep_bench::report::{render_report, ExperimentReport};

struct Args {
    quick: bool,
    large: bool,
    names: Vec<String>,
    json_path: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        quick: false,
        large: false,
        names: Vec::new(),
        json_path: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "quick" => args.quick = true,
            "large" => args.large = true,
            "--json" => {
                let Some(path) = it.next() else {
                    eprintln!("--json requires a file path");
                    std::process::exit(2);
                };
                args.json_path = Some(path);
            }
            other => args.names.push(other.to_string()),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let (quick, large) = (args.quick, args.large);
    let want = |name: &str| args.names.is_empty() || args.names.iter().any(|a| a == name);

    if args.json_path.is_some() {
        // Recording costs a few relaxed atomics per algorithmic event;
        // plain table runs leave it off so timings stay untouched.
        psep_obs::set_enabled(true);
    } else {
        psep_obs::enable_from_env();
    }

    let e1_sizes: &[usize] = if quick {
        &[256, 1024]
    } else {
        &[256, 1024, 4096]
    };
    let e3_sizes: &[usize] = if quick {
        &[400]
    } else if large {
        &[400, 1600, 4096, 16384]
    } else {
        &[400, 1600, 4096]
    };
    let e3_fams = [Family::Grid, Family::TriangulatedGrid, Family::KTree3];
    let e4_sizes: &[usize] = if quick {
        &[256, 1024]
    } else if large {
        &[256, 1024, 4096, 16384]
    } else {
        &[256, 1024, 4096]
    };
    let e5_sizes: &[usize] = if quick { &[512] } else { &[512, 2048] };
    let e6_sizes: &[usize] = if quick { &[400] } else { &[400, 1600] };
    let e6_fams = [
        Family::Grid,
        Family::Apollonian,
        Family::KTree3,
        Family::Tree,
    ];
    let e8_dims: &[(usize, usize, usize)] = if quick {
        &[(6, 6, 6)]
    } else {
        &[(6, 6, 6), (10, 10, 10)]
    };
    let trials = if quick { 200 } else { 600 };
    let escale_entries: &[(Family, usize)] = if quick {
        &[(Family::Grid, 4_096), (Family::KTree3, 2_048)]
    } else if large {
        &[
            (Family::Grid, 1_000_000),
            (Family::KTree3, 200_000),
            (Family::TriangulatedGrid, 200_000),
        ]
    } else {
        &[
            (Family::Grid, 100_000),
            (Family::KTree3, 40_000),
            (Family::TriangulatedGrid, 40_000),
        ]
    };

    type Exp<'a> = (&'static str, &'static str, Box<dyn FnOnce() -> String + 'a>);
    let experiments: Vec<Exp> = vec![
        (
            "e1",
            "E1 — k-path separability across minor-free families (Thm 1)",
            Box::new(move || ex::e1_separator(e1_sizes)),
        ),
        (
            "e2",
            "E2 — strong 3-path separators on planar families (Thm 6.1)",
            Box::new(move || ex::e2_planar_three_paths(e1_sizes)),
        ),
        (
            "e3",
            "E3 — (1+ε)-approximate distance oracle (Thm 2)",
            Box::new(move || ex::e3_oracle(&e3_fams, e3_sizes, &[0.5, 0.25, 0.1])),
        ),
        (
            "e3t",
            "E3t — serving throughput: batch queries and the wire format",
            Box::new(move || {
                ex::e3t_throughput(
                    &[Family::Grid, Family::KTree3],
                    if quick { 400 } else { 1600 },
                    if quick { 20_000 } else { 200_000 },
                )
            }),
        ),
        (
            "e3b",
            "E3b — parallel construction throughput with bit-identity",
            Box::new(move || {
                ex::e3b_build_throughput(
                    &[Family::Grid, Family::KTree3],
                    if quick { 400 } else { 1600 },
                )
            }),
        ),
        (
            "epath",
            "E-path — witness-path reporting: exact reconstruction, verified",
            Box::new(move || {
                ex::epath_reporting(
                    &[Family::Grid, Family::KTree3],
                    if quick { 400 } else { 1600 },
                    if quick { 2_000 } else { 20_000 },
                )
            }),
        ),
        (
            "e4",
            "E4 — small-world greedy routing (Thm 3)",
            Box::new(move || ex::e4_smallworld(e4_sizes, trials)),
        ),
        (
            "e5",
            "E5 — treewidth small-worlds, Δ-independent (Cor 1.1 / Note 1)",
            Box::new(move || ex::e5_smallworld_tw(e5_sizes, trials)),
        ),
        (
            "e6",
            "E6 — compact routing: tables, labels, stretch",
            Box::new(move || ex::e6_routing(&e6_fams, e6_sizes)),
        ),
        (
            "e6t",
            "E6t — routing serving: parallel build, wire format, batch routing",
            Box::new(move || {
                ex::e6t_routing_serving(
                    &[Family::Grid, Family::KTree3],
                    if quick { 400 } else { 1600 },
                    if quick { 2_000 } else { 20_000 },
                )
            }),
        ),
        (
            "eserve",
            "E-serve — network serving throughput over psep-rpc/v1",
            Box::new(move || {
                loadgen::self_contained(
                    Family::Grid,
                    if quick { 400 } else { 1600 },
                    Default::default(),
                    &LoadgenConfig {
                        duration: std::time::Duration::from_millis(if quick { 400 } else { 1200 }),
                        ..LoadgenConfig::default()
                    },
                )
            }),
        ),
        (
            "eqperf",
            "E-qperf — query plane: bound-pruned join, batches, delta bundles",
            Box::new(move || {
                ex::eqperf_query_plane(
                    if quick { 300 } else { 800 },
                    if quick { 1_000 } else { 4_000 },
                )
            }),
        ),
        (
            "escale",
            "E-scale — zero-copy bundle serving at scale (psep-bundle)",
            Box::new(move || {
                ex::escale_bundles(escale_entries, if quick { 2_000 } else { 20_000 })
            }),
        ),
        (
            "e7",
            "E7 — lower bounds (Thm 5–7, §5.2)",
            Box::new(ex::e7_lower_bounds),
        ),
        (
            "e8",
            "E8 — doubling separators on 3D meshes (Thm 8, §5.3)",
            Box::new(move || ex::e8_doubling(e8_dims, &[0.5, 0.25])),
        ),
        (
            "e9",
            "E9 — structural lemmas (Claim 1, Lemma 1, Lemma 5, portals)",
            Box::new(ex::e9_structures),
        ),
        (
            "e3x",
            "E3x — oracle vs Thorup–Zwick vs bidirectional Dijkstra",
            Box::new(move || {
                ab::e3x_oracle_baselines(
                    &[Family::Grid, Family::KTree3],
                    if quick { 400 } else { 1600 },
                )
            }),
        ),
        (
            "a1",
            "A1 — fundamental-cycle candidate budget ablation",
            Box::new(move || ab::a1_candidate_budget(if quick { 1024 } else { 4096 })),
        ),
        (
            "a2",
            "A2 — parallel label-construction scaling",
            Box::new(move || ab::a2_parallel_scaling(if quick { 1024 } else { 4096 })),
        ),
        (
            "a3",
            "A3 — strategy ablation",
            Box::new(move || ab::a3_strategy_ablation(if quick { 400 } else { 1024 })),
        ),
        (
            "e7x",
            "E7x — Theorem 5's shadow: label blowup on unstructured graphs",
            Box::new(ab::e7x_sparse_label_blowup),
        ),
        (
            "a4",
            "A4 — adjacency vs CSR layout",
            Box::new(move || ab::a4_csr_layout(if quick { 1024 } else { 4096 })),
        ),
    ];

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for (name, title, run) in experiments {
        if !want(name) {
            continue;
        }
        psep_obs::reset();
        let (table, wall_s) = timed(run);
        section(title);
        print!("{table}");
        reports.push(ExperimentReport {
            name: name.to_string(),
            title: title.to_string(),
            wall_s,
            snapshot: psep_obs::snapshot(),
            table,
        });
    }

    if let Some(path) = &args.json_path {
        let mode = if quick {
            "quick"
        } else if large {
            "large"
        } else {
            "default"
        };
        let json = render_report(&reports, mode);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} experiment reports to {path}", reports.len());
    }
}

fn section(title: &str) {
    println!();
    println!("## {title}");
    println!();
}
