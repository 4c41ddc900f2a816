//! `perfbench`: the serving benchmark of this repository.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans <file>]
//! ```
//!
//! With `--trace 0` it builds the workload's graph into a
//! `LocationService`, seals and opens the bundle the workload ships,
//! serves it with an in-process `psep_serve::Server` on loopback,
//! drives one client connection in a closed loop, checks every answer
//! and prints the end-to-end metrics. With `--trace 1` it calls each
//! layer directly, with spans around every call, and prints the
//! per-layer ledger. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. Any failed
//! check exits non-zero. See `perfbench/README.md`.

mod bench;
mod e2e;
mod spans;
mod traced;
mod workload;

use std::process::ExitCode;

use bench::{Config, Report, Tamper};

const USAGE: &str = "usage: perfbench --workload <grid-uniform|ktree-skew|trigrid-delta> \
--seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

/// `setup_s` is the median of the serving set-up and this many more,
/// each in a fresh process.
const SETUP_CHILDREN: usize = 2;

struct Args {
    cfg: Config,
    trace: bool,
    setup_only: bool,
    spans: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let (mut spans, mut setup_only) = (None, false);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workload::workload(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse::<f64>().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        cfg: Config {
            workload,
            n: workload.n,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            setup_children: SETUP_CHILDREN,
            tamper: Tamper::None,
        },
        trace,
        setup_only,
        spans,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    if !args.trace {
        return e2e::run(&args.cfg);
    }
    let mut spans = spans::Spans::new();
    let report = traced::run(&args.cfg, &mut spans)?;
    if let Some(path) = &args.spans {
        std::fs::write(path, spans.to_ndjson()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(report)
}

fn main() -> ExitCode {
    // One worker: the batch engines read PSEP_THREADS on every call.
    std::env::set_var("PSEP_THREADS", "1");
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match e2e::setup_only(&args.cfg) {
            Ok(s) => {
                println!("{s:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(report) => {
            for line in &report.header {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Op, WORKLOADS};

    /// A workload at n = 100. The first call pins the batch engines to
    /// one worker, as `main` does, before any test reads the setting.
    fn tiny(workload: workload::Workload, tamper: Tamper) -> Config {
        static ONE_WORKER: std::sync::Once = std::sync::Once::new();
        ONE_WORKER.call_once(|| std::env::set_var("PSEP_THREADS", "1"));
        Config {
            workload,
            n: 100,
            seed: 11,
            seconds: 0.2,
            setup_children: 0,
            tamper,
        }
    }

    /// Held by every test that runs a workload: the ledger compares
    /// timings, which a workload running beside it would skew.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn traced(cfg: &Config) -> Result<Report, String> {
        traced::run(cfg, &mut spans::Spans::new())
    }

    /// Metric names of one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let body = &text[text.find(&format!("\"{section}\"")).expect(section)..];
        body[..body.find(']').expect("section ends")]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim_start()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    fn names(report: &Report) -> Vec<String> {
        report.metrics.iter().map(|m| m.name.clone()).collect()
    }

    #[test]
    fn every_workload_prints_every_declared_metric() {
        let _serial = serial();
        for w in WORKLOADS {
            let report = e2e::run(&tiny(w, Tamper::None)).unwrap();
            assert_eq!(names(&report), declared("end_to_end"), "{}", w.name);
            for m in &report.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}",
                    w.name,
                    m.name
                );
            }
            assert!(report.attempted > 0 && report.failed == 0);
            let report = traced(&tiny(w, Tamper::None)).unwrap();
            assert_eq!(names(&report), declared("per_layer"), "{}", w.name);
            assert!(report.metrics.iter().all(|m| m.value.is_finite()));
        }
    }

    #[test]
    fn a_tampered_answer_or_bundle_byte_fails_the_run() {
        let _serial = serial();
        for w in WORKLOADS {
            for tamper in [Tamper::Answer, Tamper::Bundle] {
                assert!(e2e::run(&tiny(w, tamper)).is_err(), "{} {tamper:?}", w.name);
                assert!(traced(&tiny(w, tamper)).is_err(), "{} {tamper:?}", w.name);
            }
        }
    }

    #[test]
    fn ledgers_add_up_to_their_totals() {
        let _serial = serial();
        for w in WORKLOADS {
            // A longer run than the other tests': the round-trip ledger
            // compares means, and a handful of samples is too few.
            let cfg = Config {
                seconds: 1.0,
                ..tiny(w, Tamper::None)
            };
            let r = traced(&cfg).unwrap();
            let get = |name: &str| r.get(name).unwrap();
            let parts = get("core.decompose_s")
                + get("oracle.build_labels_s")
                + get("routing.build_tables_s")
                + get("service.seal_ms") / 1e3
                + get("setup.open_ms") / 1e3
                + get("setup.unattributed_s");
            let total = get("setup.traced_s");
            assert!(
                (parts - total).abs() <= 1e-9 * total.max(1.0),
                "{}: {parts} != {total}",
                w.name
            );
            // The residual is the round trip minus the parts timed in
            // process, so it adds up by definition; what can fail is the
            // parts not fitting inside the round trip they split.
            for op in Op::ALL {
                let o = op.name();
                let handle = get(&format!("api.handle_us.{o}"));
                let codec = get(&format!("rpc.codec_us.{o}"));
                let rtt = get(&format!("serve.rtt_us.{o}"));
                assert!(handle > 0.0 && codec > 0.0, "{} {o}: empty part", w.name);
                assert!(
                    handle + codec <= 1.05 * rtt,
                    "{} {o}: handle {handle} + codec {codec} exceed the round trip {rtt}",
                    w.name
                );
            }
        }
    }

    /// The traced run builds layer by layer; its bundle must be the one
    /// `LocationService::build` makes, or the ledger times another build.
    #[test]
    fn the_layered_build_is_the_service_build() {
        let _serial = serial();
        use path_separators::core::{AutoStrategy, DecompositionParams, DecompositionTree};
        use path_separators::{
            build_oracle, LocationService, OracleParams, Router, RoutingTables, ServiceParams,
        };
        for w in WORKLOADS {
            let g = tiny(w, Tamper::None).graph();
            let tree = DecompositionTree::build_with(
                &g,
                &AutoStrategy::default(),
                &DecompositionParams { threads: 1 },
            );
            let params = OracleParams {
                epsilon: workload::EPSILON,
                threads: 1,
            };
            let oracle = build_oracle(&g, &tree, params);
            let router = Router::new(&g, RoutingTables::build_with(&g, &tree, 1));
            let layered = LocationService::from_parts(g.clone(), tree, oracle, router).unwrap();
            let service = LocationService::build(
                &g,
                ServiceParams {
                    epsilon: workload::EPSILON,
                    threads: 1,
                },
            );
            assert_eq!(layered.to_bytes(), service.to_bytes(), "{}", w.name);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse(s.split_whitespace().map(String::from));
        assert!(args("--workload ktree-skew --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(args("--workload nope --seed 3").is_err());
        assert!(args("--workload ktree-skew").is_err());
        assert!(args("--workload ktree-skew --seed 3 --trace 2").is_err());
        assert!(args("--workload ktree-skew --seed 3 --seconds").is_err());
        assert!(args("--workload ktree-skew --seed 3 --n 100").is_err());
    }
}
