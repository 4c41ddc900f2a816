//! The serving load generator: hammer a `psep-serve` daemon over
//! `psep-rpc/v1` at configurable concurrency and duration, verify the
//! answers, and report client-observed throughput and round-trip
//! latency (experiment `eserve` in EXPERIMENTS.md).
//!
//! Two modes share all measurement code:
//!
//! * **self-contained** ([`self_contained`]) — build a family graph and
//!   its [`LocationService`], spawn a real [`psep_serve::Server`] on an
//!   ephemeral loopback port, and hammer it. Because the service is in
//!   hand, every wire answer is first verified **bit-identical** to
//!   in-process `try_query_many`/`try_route_many` over the whole pair pool.
//!   Server-side `serve.*` metrics land in the same process-wide
//!   snapshot as the client-side `serve.loadgen.*` ones, so one report
//!   carries both ends of every request.
//! * **external** ([`run_against`]) — hammer an already-running daemon
//!   at `--addr`. Batch answers are verified against single-request
//!   answers over the wire (the daemon is a black box, but it must at
//!   least agree with itself).
//!
//! Client-observed metrics: `serve.loadgen.<op>.requests_per_sec`,
//! `.pairs_per_sec`, and `serve.loadgen.<op>.rtt_ns` histograms, plus
//! the cross-op totals `serve.loadgen.requests_per_sec` and
//! `serve.loadgen.pairs_per_sec` — all gate-compatible with
//! `psep-inspect diff`.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use path_separators::api::{Request, Response};
use path_separators::{LocationService, NodeId, ServiceParams};
use psep_serve::{Client, ServeConfig, Server};
use psep_testkit::families::Family;
use psep_testkit::{random_pairs, PathChecker};

/// Load-generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Concurrent connections (one worker thread each).
    pub concurrency: usize,
    /// How long each operation phase hammers the daemon.
    pub duration: Duration,
    /// Pairs per `QueryMany`/`RouteMany` request.
    pub batch: usize,
    /// Size of the sampled `(source, target)` pair pool.
    pub pair_pool: usize,
    /// Pair-sampling seed.
    pub seed: u64,
    /// Zipf exponent for source-vertex sampling. `0.0` keeps sources
    /// uniform; larger values concentrate the pool on a few hot
    /// sources, exercising the locality-aware batch scheduler the way
    /// skewed production traffic does. Targets stay uniform.
    pub skew: f64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            concurrency: 4,
            duration: Duration::from_secs(2),
            batch: 256,
            pair_pool: 2048,
            seed: 42,
            skew: 0.0,
        }
    }
}

/// Replaces each pair's source with a Zipf(`skew`)-distributed vertex
/// id (rank 1 = vertex 0), deterministically from `seed`. Inverse-CDF
/// sampling over the exact finite Zipf weights — no approximation, no
/// external dependency. A no-op when `skew <= 0` or the graph is empty.
fn skew_sources(pairs: &mut [(NodeId, NodeId)], num_nodes: usize, skew: f64, seed: u64) {
    if skew <= 0.0 || num_nodes == 0 {
        return;
    }
    let mut cdf = Vec::with_capacity(num_nodes);
    let mut total = 0.0f64;
    for rank in 1..=num_nodes {
        total += (rank as f64).powf(-skew);
        cdf.push(total);
    }
    // splitmix64 stream: deterministic, independent of the pool sampler.
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    for (src, _) in pairs.iter_mut() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        let idx = cdf.partition_point(|&c| c < unit * total);
        *src = NodeId::from_index(idx.min(num_nodes - 1));
    }
}

/// The operations a phase can hammer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Query,
    QueryMany,
    Route,
    RouteMany,
    QueryPath,
    QueryPathMany,
}

impl Op {
    const ALL: [Op; 6] = [
        Op::Query,
        Op::QueryMany,
        Op::Route,
        Op::RouteMany,
        Op::QueryPath,
        Op::QueryPathMany,
    ];

    fn name(self) -> &'static str {
        match self {
            Op::Query => "query",
            Op::QueryMany => "query_many",
            Op::Route => "route",
            Op::RouteMany => "route_many",
            Op::QueryPath => "query_path",
            Op::QueryPathMany => "query_path_many",
        }
    }

    fn request(self, pairs: &[(NodeId, NodeId)], cursor: usize, batch: usize) -> Request {
        let at = |i: usize| pairs[i % pairs.len()];
        match self {
            Op::Query => {
                let (u, v) = at(cursor);
                Request::Query { u, v }
            }
            Op::Route => {
                let (u, t) = at(cursor);
                Request::Route { u, t }
            }
            Op::QueryPath => {
                let (u, v) = at(cursor);
                Request::QueryPath { u, v }
            }
            Op::QueryMany => Request::QueryMany {
                pairs: (0..batch).map(|k| at(cursor + k)).collect(),
            },
            Op::RouteMany => Request::RouteMany {
                pairs: (0..batch).map(|k| at(cursor + k)).collect(),
            },
            Op::QueryPathMany => Request::QueryPathMany {
                pairs: (0..batch).map(|k| at(cursor + k)).collect(),
            },
        }
    }
}

/// One phase's merged measurements.
struct PhaseStats {
    requests: u64,
    pairs: u64,
    elapsed_s: f64,
    /// Client-observed round-trip times, nanoseconds, sorted.
    rtts_ns: Vec<u64>,
}

impl PhaseStats {
    fn quantile(&self, q: f64) -> u64 {
        if self.rtts_ns.is_empty() {
            return 0;
        }
        let idx = ((self.rtts_ns.len() - 1) as f64 * q).round() as usize;
        self.rtts_ns[idx]
    }
}

/// Hammers one operation for `cfg.duration` with `cfg.concurrency`
/// connections. Every response must be the op's success variant.
fn hammer_phase(
    addr: SocketAddr,
    op: Op,
    pairs: &[(NodeId, NodeId)],
    cfg: &LoadgenConfig,
) -> PhaseStats {
    let start = Instant::now();
    let deadline = start + cfg.duration;
    let per_worker: Vec<(u64, u64, Vec<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.concurrency.max(1))
            .map(|w| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("loadgen connect");
                    let mut requests = 0u64;
                    let mut sent_pairs = 0u64;
                    let mut rtts = Vec::new();
                    // stride the pool so workers don't lockstep on pairs
                    let mut cursor = w * 7919;
                    while Instant::now() < deadline {
                        let req = op.request(pairs, cursor, cfg.batch);
                        cursor += req.pair_count().max(1);
                        let t0 = Instant::now();
                        let resp = client.call(&req).expect("loadgen call failed");
                        rtts.push(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                        let ok = matches!(
                            (op, &resp),
                            (Op::Query, Response::Distance(_))
                                | (Op::QueryMany, Response::Distances(_))
                                | (Op::Route, Response::Route(_))
                                | (Op::RouteMany, Response::Routes(_))
                                | (Op::QueryPath, Response::Path(_))
                                | (Op::QueryPathMany, Response::Paths(_))
                        );
                        assert!(ok, "{op:?} answered with {resp:?}");
                        requests += 1;
                        sent_pairs += req.pair_count() as u64;
                    }
                    (requests, sent_pairs, rtts)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut stats = PhaseStats {
        requests: 0,
        pairs: 0,
        elapsed_s,
        rtts_ns: Vec::new(),
    };
    for (requests, sent_pairs, rtts) in per_worker {
        stats.requests += requests;
        stats.pairs += sent_pairs;
        stats.rtts_ns.extend(rtts);
    }
    stats.rtts_ns.sort_unstable();
    if psep_obs::enabled() {
        let name = op.name();
        psep_obs::counter(&format!("serve.loadgen.{name}.requests")).add(stats.requests);
        psep_obs::gauge(&format!("serve.loadgen.{name}.requests_per_sec"))
            .set(stats.requests as f64 / elapsed_s);
        psep_obs::gauge(&format!("serve.loadgen.{name}.pairs_per_sec"))
            .set(stats.pairs as f64 / elapsed_s);
        let hist = psep_obs::histogram(&format!("serve.loadgen.{name}.rtt_ns"));
        for &rtt in &stats.rtts_ns {
            hist.record(rtt);
        }
    }
    stats
}

/// Verifies that batch answers over the wire are bit-identical to (a)
/// the in-process service when one is in hand and (b) single-request
/// answers over the same wire.
fn verify(addr: SocketAddr, local: Option<&LocationService>, pairs: &[(NodeId, NodeId)]) {
    let mut client = Client::connect(addr).expect("loadgen connect");
    assert_eq!(
        client.call(&Request::Ping).expect("ping"),
        Response::Pong,
        "daemon did not answer ping"
    );
    let wire_distances = match client
        .call(&Request::QueryMany {
            pairs: pairs.to_vec(),
        })
        .expect("batch query")
    {
        Response::Distances(ds) => ds,
        other => panic!("QueryMany answered with {other:?}"),
    };
    let wire_routes = match client
        .call(&Request::RouteMany {
            pairs: pairs.to_vec(),
        })
        .expect("batch route")
    {
        Response::Routes(rs) => rs,
        other => panic!("RouteMany answered with {other:?}"),
    };
    let wire_paths = match client
        .call(&Request::QueryPathMany {
            pairs: pairs.to_vec(),
        })
        .expect("batch path query")
    {
        Response::Paths(ps) => ps,
        other => panic!("QueryPathMany answered with {other:?}"),
    };
    if let Some(svc) = local {
        assert_eq!(
            wire_distances,
            svc.try_query_many(pairs).expect("pairs in range"),
            "wire batch distances diverge from in-process answers"
        );
        assert_eq!(
            wire_routes,
            svc.try_route_many(pairs).expect("pairs in range"),
            "wire batch routes diverge from in-process answers"
        );
        assert_eq!(
            wire_paths,
            svc.try_query_path_many(pairs).expect("pairs in range"),
            "wire batch paths diverge from in-process answers"
        );
        // every served path must survive the ground-truth checker, and
        // realize exactly the distance served for the same pair
        let checker = PathChecker::new(svc.graph(), svc.epsilon());
        for (i, &(u, v)) in pairs.iter().enumerate() {
            checker
                .check(u, v, wire_paths[i].as_ref())
                .unwrap_or_else(|e| panic!("served path invalid: {e}"));
            assert_eq!(
                wire_paths[i].as_ref().map(|p| p.weight),
                wire_distances[i],
                "served path weight diverges from served distance for {u:?}->{v:?}"
            );
        }
    }
    // wire self-consistency on a sample: batch element == single request
    for (i, &(u, v)) in pairs.iter().take(16).enumerate() {
        assert_eq!(
            client.call(&Request::Query { u, v }).expect("query"),
            Response::Distance(wire_distances[i]),
            "single query diverges from batch element {i}"
        );
        assert_eq!(
            client.call(&Request::Route { u, t: v }).expect("route"),
            Response::Route(wire_routes[i].clone()),
            "single route diverges from batch element {i}"
        );
        assert_eq!(
            client
                .call(&Request::QueryPath { u, v })
                .expect("path query"),
            Response::Path(wire_paths[i].clone()),
            "single path query diverges from batch element {i}"
        );
    }
}

/// Hammers the daemon at `addr` and returns the markdown results table.
/// `local` enables bit-identity verification against an in-process
/// service; `num_nodes` sizes the sampled pair pool.
pub fn run_against(
    addr: SocketAddr,
    local: Option<&LocationService>,
    num_nodes: usize,
    cfg: &LoadgenConfig,
) -> String {
    let mut pairs = random_pairs(num_nodes, cfg.pair_pool.max(1), cfg.seed);
    skew_sources(&mut pairs, num_nodes, cfg.skew, cfg.seed);
    verify(addr, local, &pairs);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "| op | conns | batch | requests | pairs | req/s | pairs/s | p50 rtt µs | p99 rtt µs |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    let mut total_requests = 0u64;
    let mut total_pairs = 0u64;
    let mut total_s = 0.0f64;
    for op in Op::ALL {
        let stats = hammer_phase(addr, op, &pairs, cfg);
        let batch = match op {
            Op::QueryMany | Op::RouteMany | Op::QueryPathMany => cfg.batch,
            _ => 1,
        };
        let _ = writeln!(
            out,
            "| {} | {} | {batch} | {} | {} | {:.0} | {:.0} | {:.1} | {:.1} |",
            op.name(),
            cfg.concurrency,
            stats.requests,
            stats.pairs,
            stats.requests as f64 / stats.elapsed_s,
            stats.pairs as f64 / stats.elapsed_s,
            stats.quantile(0.50) as f64 / 1e3,
            stats.quantile(0.99) as f64 / 1e3,
        );
        total_requests += stats.requests;
        total_pairs += stats.pairs;
        total_s += stats.elapsed_s;
    }
    if psep_obs::enabled() && total_s > 0.0 {
        psep_obs::counter!("serve.loadgen.requests").add(total_requests);
        psep_obs::gauge!("serve.loadgen.requests_per_sec").set(total_requests as f64 / total_s);
        psep_obs::gauge!("serve.loadgen.pairs_per_sec").set(total_pairs as f64 / total_s);
    }
    out
}

/// Measures cold-start time-to-first-response for the same v2 bundle
/// opened two ways: a zero-copy map and an owned load. Each clock covers
/// open-to-first-answer (validate / decode, then one distance query),
/// the number a restarting replica cares about. Reported as
/// `serve.loadgen.coldstart.*_ns` gauges.
fn measure_cold_start(svc: &LocationService, pair: (NodeId, NodeId)) -> (u64, u64) {
    let v2 = svc.to_bytes();
    let buf = path_separators::core::wire::AlignedBytes::from_slice(&v2);
    let expected = svc.query(pair.0, pair.1);

    // Untimed warmup so the first timed path doesn't also pay for
    // faulting in the freshly written buffers; then best of three per
    // path, so one scheduler hiccup can't invert the comparison.
    let mapped = LocationService::map_bytes(&buf).expect("mapping own bytes");
    assert!(mapped.is_borrowed(), "aligned v2 map must borrow in place");
    assert_eq!(mapped.query(pair.0, pair.1), expected);

    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_nanos().min(u64::MAX as u128) as u64
            })
            .min()
            .unwrap_or(u64::MAX)
    };
    let map_v2_ns = best(&|| {
        let mapped = LocationService::map_bytes(&buf).expect("mapping own bytes");
        assert_eq!(mapped.query(pair.0, pair.1), expected);
    });
    let load_v2_ns = best(&|| {
        let loaded = LocationService::from_bytes(&v2).expect("loading own v2 bytes");
        assert_eq!(loaded.query(pair.0, pair.1), expected);
    });

    if psep_obs::enabled() {
        psep_obs::gauge!("serve.loadgen.coldstart.map_v2_ns").set(map_v2_ns as f64);
        psep_obs::gauge!("serve.loadgen.coldstart.load_v2_ns").set(load_v2_ns as f64);
    }
    (map_v2_ns, load_v2_ns)
}

/// Builds `family`/`n`, spawns a real daemon on an ephemeral loopback
/// port, hammers it, shuts it down, and returns the results table —
/// the self-contained `eserve` experiment.
pub fn self_contained(
    family: Family,
    n: usize,
    params: ServiceParams,
    cfg: &LoadgenConfig,
) -> String {
    let g = family.make(n, 7);
    let svc = Arc::new(LocationService::build(&g, params));
    let num_nodes = svc.num_nodes();
    let server = Server::bind(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServeConfig {
            poll_interval: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    )
    .expect("binding loopback");
    let (addr, handle, runner) = server.spawn();
    let mut out = format!(
        "family {} · n {} · eps {} · {} connections · {:?}/op · skew {}\n\n",
        family.name(),
        num_nodes,
        svc.epsilon(),
        cfg.concurrency,
        cfg.duration,
        cfg.skew,
    );
    let pair = random_pairs(num_nodes, 1, cfg.seed)[0];
    let (map_v2_ns, load_v2_ns) = measure_cold_start(&svc, pair);
    let _ = writeln!(
        out,
        "cold start to first response: v2 map {:.1} µs · v2 load {:.1} µs\n",
        map_v2_ns as f64 / 1e3,
        load_v2_ns as f64 / 1e3,
    );
    out.push_str(&run_against(addr, Some(&svc), num_nodes, cfg));
    handle.shutdown();
    runner
        .join()
        .expect("accept thread")
        .expect("accept loop failed");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_contained_smoke() {
        let cfg = LoadgenConfig {
            concurrency: 2,
            duration: Duration::from_millis(120),
            batch: 16,
            pair_pool: 64,
            seed: 5,
            skew: 0.0,
        };
        let table = self_contained(Family::Grid, 64, ServiceParams::default(), &cfg);
        assert!(table.contains("| query |"), "{table}");
        assert!(table.contains("| route_many |"), "{table}");
        assert!(table.contains("| query_path_many |"), "{table}");
    }

    #[test]
    fn skewed_sources_are_deterministic_valid_and_concentrated() {
        let n = 500;
        let uniform = random_pairs(n, 4096, 9);
        let mut a = uniform.clone();
        let mut b = uniform.clone();
        skew_sources(&mut a, n, 1.2, 9);
        skew_sources(&mut b, n, 1.2, 9);
        assert_eq!(a, b, "skewing is not deterministic");
        assert!(a.iter().all(|&(s, _)| s.index() < n));
        // Targets are untouched; only sources are remapped.
        for (skewed, orig) in a.iter().zip(&uniform) {
            assert_eq!(skewed.1, orig.1);
        }
        // Zipf(1.2) concentrates mass: the single hottest source must
        // own far more of the pool than the uniform 1/n share.
        let mut counts = vec![0usize; n];
        for &(s, _) in &a {
            counts[s.index()] += 1;
        }
        let hottest = counts.iter().copied().max().unwrap();
        assert!(
            hottest * n > a.len() * 8,
            "hottest source {hottest}/{} is not skewed for n {n}",
            a.len()
        );

        // skew 0 is the identity.
        let mut c = uniform.clone();
        skew_sources(&mut c, n, 0.0, 9);
        assert_eq!(c, uniform);
    }
}
