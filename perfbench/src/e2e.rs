//! The untraced run: deploy, check, then drive one connection in a
//! closed loop and report the end-to-end metrics.

use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use crate::bench::{
    check_bundle, check_sample, coldstart_once, deploy, median, probe, reset_rss_peak, round_robin,
    rss_peak_mb, stretch_sample, trimmed_mean, Config, Daemon, Report, Tally, Windowed,
    WINDOW_ROUNDS,
};
use crate::workload::Op;

/// Requests per op checked against the built service before timing.
const CHECK_SAMPLE: usize = 16;
/// Pairs whose served distance and route are compared with Dijkstra,
/// and how many of them also have their served path checked.
const STRETCH_SAMPLE: usize = 2048;
const PATH_SAMPLE: usize = 128;
/// A cold start runs after every this many rounds of the closed loop
/// (two seconds), and one more after each segment of it.
const COLDSTART_ROUNDS: usize = 20;
/// Share of the cold starts dropped at either end before their mean.
const COLDSTART_TRIM: f64 = 0.1;

/// One set-up sample in a fresh process: the benchmark re-runs itself
/// with `--setup-only` and reads the seconds it prints. The child sets
/// up the workload at its own size.
fn setup_in_child(cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", cfg.workload.name])
        .args(["--seed", &cfg.seed.to_string()])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("set-up child output: {e}"))
}

/// `--setup-only`: one timed set-up, printed in seconds.
pub fn setup_only(cfg: &Config) -> Result<f64, String> {
    let g = cfg.graph();
    let (_deployed, setup_s) = deploy(&g, cfg)?;
    Ok(setup_s)
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let g = cfg.graph();
    let mut report = Report {
        header: crate::bench::header(cfg, &g, false),
        ..Report::default()
    };
    let storage = cfg.workload.storage;
    let (deployed, setup_s) = deploy(&g, cfg)?;
    // The peak resident set covers set-up and serving only: it is read
    // here, before the checks below decode and re-encode the bundle,
    // and again over each serving segment, without the cold starts.
    let mut rss_peak = rss_peak_mb()?;
    let mut setups = vec![setup_s];
    let svc = Arc::clone(&deployed.svc);
    if svc.is_borrowed() != (storage == crate::workload::Storage::RawMapped) {
        return Err("the opened service is not on the workload's storage path".into());
    }
    check_bundle(&deployed.built, deployed.shipped, storage)?;
    let bundle_bytes = deployed.shipped.len();

    let daemon = Daemon::spawn(deployed.server);
    let mut client = daemon.connect()?;
    let mut tally = Tally::default();
    let n = svc.num_nodes();
    check_sample(
        &mut tally,
        &mut client,
        &deployed.built,
        &mut cfg.stream(n, 1),
        CHECK_SAMPLE,
        cfg.tamper,
    )?;
    drop(deployed.built);
    let (stretch, route_stretch) = stretch_sample(
        &mut tally,
        &mut client,
        &svc,
        &g,
        &mut cfg.stream(n, 2),
        (STRETCH_SAMPLE, PATH_SAMPLE),
    )?;

    // The closed loop: one request in flight, every answer checked
    // against the served service in process. It runs in segments with
    // the set-up children in between, and with cold starts spread over
    // it, so the run's figures sample the machine over its whole wall
    // time instead of one stretch of it.
    let pair = probe(&mut cfg.stream(n, 3));
    let mut coldstarts = Vec::new();
    let mut coldstart = |rss_peak: &mut f64| -> Result<(), String> {
        // The cold start's decode stays out of the serving peak.
        *rss_peak = rss_peak.max(rss_peak_mb()?);
        coldstarts.push(coldstart_once(deployed.shipped, storage, pair, &svc)?);
        reset_rss_peak()
    };
    let mut rtts: Vec<Windowed> = Op::ALL.iter().map(|_| Windowed::default()).collect();
    let mut stream = cfg.stream(n, 4);
    let segments = cfg.setup_children + 1;
    let mut first_round = 0;
    for segment in 0..segments {
        reset_rss_peak()?;
        let rounds = round_robin(
            Duration::from_secs_f64(cfg.seconds / segments as f64),
            |round, i, op| {
                let (_, rtt) =
                    tally.call(&mut client, &op.request(&mut stream), &svc, cfg.tamper)?;
                let window = (first_round + round) / WINDOW_ROUNDS;
                rtts[i].push(window, rtt.as_secs_f64() * 1e6);
                Ok(())
            },
            |round| {
                if (round + 1) % COLDSTART_ROUNDS == 0 {
                    coldstart(&mut rss_peak)?;
                }
                Ok(())
            },
        )?;
        // The next segment starts a window of its own.
        first_round += rounds.div_ceil(WINDOW_ROUNDS) * WINDOW_ROUNDS;
        coldstart(&mut rss_peak)?;
        if segment < cfg.setup_children {
            setups.push(setup_in_child(cfg)?);
        }
    }
    drop(client);
    daemon.stop()?;

    let counts: Vec<String> = Op::ALL
        .iter()
        .zip(&rtts)
        .map(|(op, s)| format!("{}={}", op.name(), s.len()))
        .collect();
    report.header.push(format!(
        "# samples {} windows={} setup={} coldstart={} stretch={STRETCH_SAMPLE} paths_checked={PATH_SAMPLE} check={CHECK_SAMPLE}/op",
        counts.join(" "),
        first_round / WINDOW_ROUNDS,
        setups.len(),
        coldstarts.len(),
    ));
    let [query, route, path, query_many, route_many] = &mut rtts[..] else {
        unreachable!("one sample vector per op")
    };
    let batch_rate =
        |samples: &mut Windowed| crate::workload::BATCH as f64 / (samples.mean_of_medians() * 1e-6);
    report.metric("setup_s", median(&mut setups), "s");
    report.metric(
        "coldstart_ms",
        trimmed_mean(&mut coldstarts, COLDSTART_TRIM) * 1e3,
        "ms",
    );
    report.metric("bundle_bytes_per_node", bundle_bytes as f64 / n as f64, "B");
    report.metric("rss_peak_mb", rss_peak, "MiB");
    report.metric("query_p50_us", query.mean_of_medians(), "us");
    report.metric("route_p50_us", route.mean_of_medians(), "us");
    // A path's cost follows the size of the residual component its
    // legs are re-derived in, so per-pair costs cluster by separator
    // level and the median jumps between clusters from seed to seed;
    // the mean moves only with the mix.
    report.metric("path_mean_us", path.mean(), "us");
    report.metric("query_batch_pairs_per_s", batch_rate(query_many), "pairs/s");
    report.metric("route_batch_pairs_per_s", batch_rate(route_many), "pairs/s");
    report.metric("stretch_mean", stretch, "ratio");
    report.metric("route_stretch_mean", route_stretch, "ratio");
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.metric(
        "success_rate",
        (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        "fraction",
    );
    Ok(report)
}
