//! The traced run: each layer's public functions called directly, with
//! spans around every call, reported as the per-layer ledger.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use path_separators::api::{Request, Response};
use path_separators::core::wire::crc32;
use path_separators::core::{AutoStrategy, DecompositionParams, DecompositionTree};
use path_separators::rpc::{self, DEFAULT_MAX_FRAME};
use path_separators::{
    build_oracle, BatchQueryEngine, LocationService, OracleParams, Router, RoutingTables,
};

use crate::bench::{
    bind, mean, median, open, probe, quantile, round_robin, seal, ship, Config, Daemon, Report,
    Tally,
};
use crate::spans::Spans;
use crate::workload::{Op, BATCH, EPSILON};

/// Cold starts in the ledger.
const COLDSTARTS: usize = 7;
/// Shares of `--seconds` for the in-process layer probes and for the
/// serving ledger.
const PROBE_SHARE: f64 = 0.3;
const SERVING_SHARE: f64 = 0.7;

/// Runs `block` until `budget` has passed, at least once.
fn repeat_for(budget: Duration, mut block: impl FnMut()) {
    let end = Instant::now() + budget;
    loop {
        block();
        if Instant::now() >= end {
            break;
        }
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One request's codec work, as client and daemon do it: frame and
/// unframe the request and the response, and decode both. Returns the
/// decoded pair and the response frame's size.
fn codec(req: &Request, resp: &Response) -> Result<(Request, Response, usize), String> {
    let unframe = |frame: &[u8]| {
        rpc::read_frame(&mut &frame[..], DEFAULT_MAX_FRAME)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| "empty frame".to_string())
    };
    let req_frame = rpc::frame(&rpc::encode_request(req));
    let decoded = rpc::decode_request(&unframe(&req_frame)?).map_err(|e| e.to_string())?;
    let resp_frame = rpc::frame(&rpc::encode_response(resp));
    let back = rpc::decode_response(&unframe(&resp_frame)?).map_err(|e| e.to_string())?;
    Ok((decoded, back, resp_frame.len()))
}

#[derive(Default)]
struct OpLedger {
    rtt_traced: Vec<f64>,
    rtt_plain: Vec<f64>,
    handle: Vec<f64>,
    codec: Vec<f64>,
    response_bytes: Vec<f64>,
}

pub fn run(cfg: &Config, spans: &mut Spans) -> Result<Report, String> {
    let g = cfg.graph();
    let mut report = Report {
        header: crate::bench::header(cfg, &g, true),
        ..Report::default()
    };
    let storage = cfg.workload.storage;

    // Build ledger: the steps of `LocationService::build`, then seal,
    // open and bind. Assembly and bind land in the remainder.
    let setup = spans.open("setup", None, 0);
    let s = spans.open("core.decompose", Some(setup), 0);
    let tree = DecompositionTree::build_with(
        &g,
        &AutoStrategy::default(),
        &DecompositionParams { threads: 1 },
    );
    spans.close(s);
    let s = spans.open("oracle.build_labels", Some(setup), 0);
    let oracle = build_oracle(
        &g,
        &tree,
        OracleParams {
            epsilon: EPSILON,
            threads: 1,
        },
    );
    spans.close(s);
    let s = spans.open("routing.build_tables", Some(setup), 0);
    let tables = RoutingTables::build_with(&g, &tree, 1);
    spans.close(s);
    let (depth, paths_total, paths_max) =
        (tree.depth(), tree.total_paths(), tree.max_paths_per_node());
    let built = LocationService::from_parts(g.clone(), tree, oracle, Router::new(&g, tables))
        .map_err(|e| format!("assemble: {e}"))?;
    let s = spans.open("service.seal", Some(setup), 0);
    let shipped = ship(seal(&built, storage), cfg.tamper);
    spans.close(s);
    let s = spans.open("service.open", Some(setup), 0);
    let svc = Arc::new(open(shipped, storage).map_err(|e| format!("open: {e}"))?);
    spans.close(s);
    let server = bind(&svc)?;
    spans.close(setup);

    let part_s = |name| spans.child_ns(setup, name) as f64 / 1e9;
    report.metric("setup.traced_s", spans.duration_ns(setup) as f64 / 1e9, "s");
    report.metric("core.decompose_s", part_s("core.decompose"), "s");
    report.metric("oracle.build_labels_s", part_s("oracle.build_labels"), "s");
    report.metric(
        "routing.build_tables_s",
        part_s("routing.build_tables"),
        "s",
    );
    report.metric("service.seal_ms", part_s("service.seal") * 1e3, "ms");
    report.metric("setup.open_ms", part_s("service.open") * 1e3, "ms");
    report.metric(
        "setup.unattributed_s",
        spans.self_ns(setup) as f64 / 1e9,
        "s",
    );
    report.metric("core.tree_depth", depth as f64, "count");
    report.metric("core.paths_total", paths_total as f64, "count");
    report.metric("core.paths_per_node_max", paths_max as f64, "count");

    // Cold-start ledger: open, warm (the lazy decodes), first answers;
    // and one CRC pass over the shipped bytes.
    let n = svc.num_nodes();
    let (u, v) = probe(&mut cfg.stream(n, 3));
    let mut parts_ms: [Vec<f64>; 5] = Default::default();
    for _ in 0..COLDSTARTS {
        let root = spans.open("coldstart", None, 0);
        let s = spans.open("service.open", Some(root), 0);
        let cold = open(shipped, storage).map_err(|e| format!("open: {e}"))?;
        parts_ms[0].push(ms(spans.close(s)));
        let s = spans.open("service.warm", Some(root), 0);
        let warmed = cold.warm();
        parts_ms[1].push(ms(spans.close(s)));
        let s = spans.open("service.first_answers", Some(root), 0);
        let answers = (
            cold.try_query(u, v),
            cold.try_route(u, v),
            cold.try_query_path(u, v),
        );
        parts_ms[2].push(ms(spans.close(s)));
        parts_ms[3].push(ms(spans.close(root)));
        warmed.map_err(|e| format!("warm: {e}"))?;
        match answers {
            (Ok(d), Ok(r), Ok(p))
                if d == svc.query(u, v) && r == svc.route(u, v) && p == svc.query_path(u, v) => {}
            other => {
                return Err(format!(
                    "cold-started service answers differently: {other:?}"
                ))
            }
        }
        let s = spans.open("core.wire.crc", None, 0);
        black_box(crc32(shipped));
        parts_ms[4].push(ms(spans.close(s)));
    }
    let [open_ms, warm_ms, answer_ms, total_ms, crc_ms] = &mut parts_ms;
    report.metric("service.open_ms", median(open_ms), "ms");
    report.metric("service.warm_ms", median(warm_ms), "ms");
    report.metric("service.first_answers_ms", median(answer_ms), "ms");
    report.metric("coldstart.traced_ms", median(total_ms), "ms");
    report.metric("core.wire.crc_ms", median(crc_ms), "ms");

    // Sizes of what is served.
    svc.warm().map_err(|e| format!("warm: {e}"))?;
    let labels = svc.oracle().flat_labels();
    let tables = svc.router().tables().flat();
    let per_node = |x: usize| x as f64 / n as f64;
    report.metric(
        "oracle.label_entries_per_node",
        per_node(labels.num_entries()),
        "count",
    );
    report.metric(
        "routing.table_entries_per_node",
        per_node(tables.num_entries()),
        "count",
    );
    report.metric("oracle.arena_bytes", labels.heap_bytes() as f64, "B");
    report.metric("routing.arena_bytes", tables.heap_bytes() as f64, "B");

    probe_layers(cfg, &svc, spans, &mut report)?;

    // Serving ledger: every other request is traced; the untraced ones
    // give the tracing overhead.
    let daemon = Daemon::spawn(server);
    let mut client = daemon.connect()?;
    let mut tally = Tally::default();
    let mut ledgers: Vec<OpLedger> = Op::ALL.iter().map(|_| OpLedger::default()).collect();
    let mut stream = cfg.stream(n, 4);
    let mut id = 0u64;
    let budget = Duration::from_secs_f64(cfg.seconds * SERVING_SHARE);
    round_robin(
        budget,
        |_, i, op| {
            let req = op.request(&mut stream);
            let ledger = &mut ledgers[i];
            id += 1;
            if id.is_multiple_of(2) {
                let (_, rtt) = tally.call(&mut client, &req, &svc, cfg.tamper)?;
                ledger.rtt_plain.push(rtt.as_secs_f64() * 1e6);
                return Ok(());
            }
            // Handle and codec are timed on a second fresh request of the
            // op, in process, so they run on labels nobody has just
            // touched, as the daemon's do; the wire request is then checked
            // against an untimed replay.
            let replay = op.request(&mut stream);
            let root = spans.open(op.name(), None, id);
            let s = spans.open("api.handle", Some(root), id);
            let replayed = svc.handle(&replay);
            ledger.handle.push(spans.close(s) as f64 / 1e3);
            let s = spans.open("rpc.codec", Some(root), id);
            let coded = codec(&replay, &replayed);
            ledger.codec.push(spans.close(s) as f64 / 1e3);
            let s = spans.open("serve.rtt", Some(root), id);
            tally.attempted += 1;
            let resp = client.call(&req);
            ledger.rtt_traced.push(spans.close(s) as f64 / 1e3);
            spans.close(root);
            let resp = resp.map_err(|e| format!("{} over the wire: {e}", op.name()))?;
            let (decoded, back, bytes) = coded?;
            if decoded != replay || back != replayed {
                return Err(format!("{} does not survive its codec", op.name()));
            }
            ledger.response_bytes.push(bytes as f64);
            let expected = svc.handle(&req);
            tally.check(&req, resp, &expected, cfg.tamper)?;
            Ok(())
        },
        |_| Ok(()),
    )?;
    drop(client);
    daemon.stop()?;

    let mut counts = Vec::new();
    for (op, l) in Op::ALL.iter().zip(ledgers.iter_mut()) {
        let name = op.name();
        counts.push(format!(
            "{name}={}+{}",
            l.rtt_traced.len(),
            l.rtt_plain.len()
        ));
        // Means, not medians: the parts are timed on other requests than
        // the round trips they split, and only means add up across
        // samples.
        let p99 = quantile(&mut l.rtt_traced, 0.99);
        let rtt = mean(&l.rtt_traced);
        let handle = mean(&l.handle);
        let codec = mean(&l.codec);
        report.metric(format!("serve.rtt_us.{name}"), rtt, "us");
        report.metric(format!("serve.rtt_p99_us.{name}"), p99, "us");
        report.metric(format!("api.handle_us.{name}"), handle, "us");
        report.metric(format!("rpc.codec_us.{name}"), codec, "us");
        report.metric(
            format!("serve.residual_us.{name}"),
            rtt - handle - codec,
            "us",
        );
        report.metric(
            format!("rpc.response_bytes.{name}"),
            mean(&l.response_bytes),
            "B",
        );
        report.metric(
            format!("trace.overhead_us.{name}"),
            rtt - mean(&l.rtt_plain),
            "us",
        );
    }
    report.header.push(format!(
        "# samples traced+untraced {} coldstart={COLDSTARTS}",
        counts.join(" ")
    ));
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    report.header.extend(ledger_lines(&report));
    Ok(report)
}

/// The query plane, paths and routing, called in process on the served
/// service.
fn probe_layers(
    cfg: &Config,
    svc: &LocationService,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    let n = svc.num_nodes();
    let budget = Duration::from_secs_f64(cfg.seconds * PROBE_SHARE / 5.0);
    let mut stream = cfg.stream(n, 5);
    let oracle = svc.oracle();
    let (g, tree, router) = (svc.graph(), svc.tree(), svc.router());

    let mut query_ns = Vec::new();
    let (mut scanned, mut pruned, mut queries) = (0u64, 0u64, 0u64);
    repeat_for(budget, || {
        let pairs = stream.pairs(1024);
        let s = spans.open("oracle.query", None, 0);
        for &(u, v) in &pairs {
            black_box(oracle.query(u, v));
        }
        query_ns.push(spans.close(s) as f64 / pairs.len() as f64);
        for &(u, v) in &pairs {
            let (_, stats) = oracle.query_with_stats(u, v);
            scanned += stats.scanned;
            pruned += stats.pruned_keys + stats.pruned_portals;
        }
        queries += pairs.len() as u64;
    });
    report.metric("oracle.query_ns", median(&mut query_ns), "ns");
    report.metric(
        "oracle.candidates_per_query",
        scanned as f64 / queries as f64,
        "count",
    );
    report.metric(
        "oracle.prune_ratio",
        pruned as f64 / (pruned + scanned).max(1) as f64,
        "ratio",
    );

    let engine = BatchQueryEngine::new(1);
    let mut batch_ns = Vec::new();
    repeat_for(budget, || {
        let pairs = stream.pairs(BATCH);
        let s = spans.open("oracle.batch", None, 0);
        black_box(engine.run(oracle, &pairs));
        batch_ns.push(spans.close(s) as f64 / BATCH as f64);
    });
    report.metric("oracle.batch_ns_per_pair", median(&mut batch_ns), "ns");

    let (mut path_us, mut path_nodes) = (Vec::new(), Vec::new());
    let mut failure = None;
    repeat_for(budget, || {
        let (u, v) = stream.next_pair();
        let s = spans.open("oracle.query_path", None, 0);
        let path = oracle.try_query_path(g, tree, u, v);
        path_us.push(spans.close(s) as f64 / 1e3);
        match path {
            Ok(Some(p)) => path_nodes.push(p.nodes.len() as f64),
            other => failure = Some(format!("query_path {u:?}->{v:?}: {other:?}")),
        }
    });
    if let Some(f) = failure {
        return Err(f);
    }
    report.metric("oracle.path_us", median(&mut path_us), "us");
    report.metric("oracle.path_nodes_mean", mean(&path_nodes), "count");

    let (mut route_ns, mut hops) = (Vec::new(), Vec::new());
    repeat_for(budget, || {
        let pairs = stream.pairs(BATCH);
        let s = spans.open("routing.route", None, 0);
        for &(u, t) in &pairs {
            let out = router.route(u, t, &router.label(t));
            hops.push(out.map_or(0.0, |o| o.hops as f64));
        }
        route_ns.push(spans.close(s) as f64 / pairs.len() as f64);
    });
    report.metric("routing.route_ns", median(&mut route_ns), "ns");
    report.metric("routing.hops_mean", mean(&hops), "count");

    let mut route_many_ns = Vec::new();
    repeat_for(budget, || {
        let pairs = stream.pairs(BATCH);
        let s = spans.open("routing.route_many", None, 0);
        black_box(router.route_many_with(&pairs, 1));
        route_many_ns.push(spans.close(s) as f64 / BATCH as f64);
    });
    report.metric(
        "routing.route_many_ns_per_pair",
        median(&mut route_many_ns),
        "ns",
    );
    Ok(())
}

/// Readable ledgers: the build's parts as shares of the traced set-up,
/// and each op's round trip split into engine, codec and the rest.
fn ledger_lines(r: &Report) -> Vec<String> {
    let get = |name: &str| r.get(name).unwrap_or(f64::NAN);
    let total = get("setup.traced_s");
    let share = |s: f64| 100.0 * s / total;
    let mut lines = vec![format!("# build ledger: setup {total:.3} s")];
    for (name, s) in [
        ("core.decompose", get("core.decompose_s")),
        ("oracle.build_labels", get("oracle.build_labels_s")),
        ("routing.build_tables", get("routing.build_tables_s")),
        ("service.seal", get("service.seal_ms") / 1e3),
        ("service.open", get("setup.open_ms") / 1e3),
        ("unattributed", get("setup.unattributed_s")),
    ] {
        lines.push(format!("#   {name:<22} {s:>9.4} s {:>5.1}%", share(s)));
    }
    lines.push("# round-trip ledger (mean us): rtt = handle + codec + residual".into());
    for op in Op::ALL {
        let o = op.name();
        lines.push(format!(
            "#   {o:<11} {:>9.2} = {:>9.2} + {:>7.2} + {:>7.2}   response {:.0} B, tracing overhead {:+.2}",
            get(&format!("serve.rtt_us.{o}")),
            get(&format!("api.handle_us.{o}")),
            get(&format!("rpc.codec_us.{o}")),
            get(&format!("serve.residual_us.{o}")),
            get(&format!("rpc.response_bytes.{o}")),
            get(&format!("trace.overhead_us.{o}")),
        ));
    }
    lines
}
