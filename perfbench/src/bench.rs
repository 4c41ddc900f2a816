//! What both runs share: configuration, the deployment steps (build,
//! seal, open, bind), the correctness gates and the result record.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use path_separators::api::{Request, Response};
use path_separators::core::wire::AlignedBytes;
use path_separators::graph::dijkstra::distance;
use path_separators::graph::Graph;
use path_separators::{LocationService, NodeId, ServiceError, ServiceParams};
use psep_serve::{Client, ServeConfig, Server, ShutdownHandle};
use psep_testkit::PathChecker;

use crate::workload::{Op, PairStream, Storage, Workload, EPSILON};

/// Generator seed of every workload's graph.
pub const GRAPH_SEED: u64 = 1;

/// A deliberate fault, injected only to prove that the gates catch it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Alter one served distance before it is checked.
    Answer,
    /// Flip one byte of the shipped bundle before it is opened.
    Bundle,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    /// Vertex count: the workload's own, smaller in the self-tests.
    pub n: usize,
    pub seed: u64,
    pub seconds: f64,
    /// Set-up samples taken in fresh processes before the serving one.
    pub setup_children: usize,
    pub tamper: Tamper,
}

impl Config {
    /// The workload's graph. Its instance is part of the workload, so
    /// every seed serves the same graph; `--seed` draws the traffic.
    pub fn graph(&self) -> Graph {
        self.workload.family.make(self.n, GRAPH_SEED)
    }

    /// Pair stream number `stream` of this run.
    pub fn stream(&self, num_nodes: usize, stream: u64) -> PairStream {
        PairStream::new(num_nodes, self.workload.skew, self.seed, stream)
    }
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One run's outcome: readable header lines, then the metrics.
#[derive(Default)]
pub struct Report {
    pub header: Vec<String>,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out + "}}"
    }
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile; sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

pub fn seal(svc: &LocationService, storage: Storage) -> Vec<u8> {
    match storage {
        Storage::RawMapped => svc.to_bytes(),
        Storage::DeltaOwned => svc.to_bytes_compressed(),
    }
}

/// Opens shipped bundle bytes the way the workload deploys them.
pub fn open(bytes: &[u8], storage: Storage) -> Result<LocationService<'_>, ServiceError> {
    match storage {
        Storage::RawMapped => LocationService::map_bytes(bytes),
        Storage::DeltaOwned => LocationService::from_bytes(bytes),
    }
}

/// The shipped bundle, in the 8-aligned buffer a mapped open borrows
/// from. It lives as long as the process, like a mapped file.
pub fn ship(mut bytes: Vec<u8>, tamper: Tamper) -> &'static AlignedBytes {
    if tamper == Tamper::Bundle {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
    }
    Box::leak(Box::new(AlignedBytes::from_slice(&bytes)))
}

/// A daemon accepting on loopback, as set-up leaves it.
pub struct Deployed {
    pub built: LocationService<'static>,
    pub shipped: &'static AlignedBytes,
    pub svc: Arc<LocationService<'static>>,
    pub server: Server,
}

pub fn bind(svc: &Arc<LocationService<'static>>) -> Result<Server, String> {
    let cfg = ServeConfig {
        poll_interval: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    Server::bind(Arc::clone(svc), "127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))
}

/// The timed set-up: graph in memory → built service → sealed bundle →
/// opened service → bound daemon. Returns the deployment and its
/// wall time.
pub fn deploy(g: &Graph, cfg: &Config) -> Result<(Deployed, f64), String> {
    let storage = cfg.workload.storage;
    let t0 = Instant::now();
    let built = LocationService::build(
        g,
        ServiceParams {
            epsilon: EPSILON,
            threads: 1,
        },
    );
    let shipped = ship(seal(&built, storage), cfg.tamper);
    let svc = Arc::new(open(shipped, storage).map_err(|e| format!("open: {e}"))?);
    let server = bind(&svc)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let deployed = Deployed {
        built,
        shipped,
        svc,
        server,
    };
    Ok((deployed, setup_s))
}

/// The serving daemon on its own thread.
pub struct Daemon {
    addr: SocketAddr,
    handle: ShutdownHandle,
    runner: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    pub fn spawn(server: Server) -> Self {
        let (addr, handle, runner) = server.spawn();
        Daemon {
            addr,
            handle,
            runner,
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the daemon and waits for its threads.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.runner.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

/// Requests sent and typed errors received.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    tampered: bool,
}

impl Tally {
    /// One request over the wire, checked bit for bit against
    /// `reference.handle`.
    pub fn call(
        &mut self,
        client: &mut Client,
        req: &Request,
        reference: &LocationService,
        tamper: Tamper,
    ) -> Result<(Response, Duration), String> {
        self.attempted += 1;
        let t0 = Instant::now();
        let resp = client.call(req);
        let rtt = t0.elapsed();
        let resp = resp.map_err(|e| format!("{} over the wire: {e}", req.op()))?;
        let resp = self.check(req, resp, &reference.handle(req), tamper)?;
        Ok((resp, rtt))
    }

    /// Compares a wire answer with the in-process one. Typed errors
    /// count as failures; any disagreement aborts the run.
    pub fn check(
        &mut self,
        req: &Request,
        mut resp: Response,
        expected: &Response,
        tamper: Tamper,
    ) -> Result<Response, String> {
        if tamper == Tamper::Answer && !self.tampered {
            if let Response::Distance(Some(d)) = &mut resp {
                *d += 1;
                self.tampered = true;
            }
        }
        if resp != *expected {
            return Err(format!(
                "wire answer differs from the in-process answer for {req:?}: {resp:?} != {expected:?}"
            ));
        }
        if resp.is_error() {
            self.failed += 1;
        }
        Ok(resp)
    }
}

/// Raw bundles re-encode to themselves when mapped; delta bundles
/// decode to the raw encoding of the built service.
pub fn check_bundle(
    built: &LocationService,
    shipped: &[u8],
    storage: Storage,
) -> Result<(), String> {
    let reopened = LocationService::from_bytes(shipped).map_err(|e| format!("reopen: {e}"))?;
    let same = match storage {
        Storage::RawMapped => {
            let mapped = LocationService::map_bytes(shipped).map_err(|e| format!("map: {e}"))?;
            mapped.to_bytes() == shipped && reopened.to_bytes() == shipped
        }
        Storage::DeltaOwned => reopened.to_bytes() == built.to_bytes(),
    };
    if !same {
        return Err("bundle does not round-trip to the built service's bytes".into());
    }
    Ok(())
}

/// Every op over the wire, checked against the service as built in
/// memory (before sealing), on `count` requests per op.
pub fn check_sample(
    tally: &mut Tally,
    client: &mut Client,
    built: &LocationService,
    stream: &mut PairStream,
    count: usize,
    tamper: Tamper,
) -> Result<(), String> {
    for op in Op::ALL {
        for _ in 0..count {
            tally.call(client, &op.request(stream), built, tamper)?;
        }
    }
    Ok(())
}

/// Mean served-distance and route-cost stretch over `count` pairs with
/// distinct endpoints, each checked against exact Dijkstra; the served
/// paths of the first `paths` pairs are checked with [`PathChecker`].
pub fn stretch_sample(
    tally: &mut Tally,
    client: &mut Client,
    svc: &LocationService,
    g: &Graph,
    stream: &mut PairStream,
    (count, paths): (usize, usize),
) -> Result<(f64, f64), String> {
    let checker = PathChecker::new(g, EPSILON);
    let (mut dist_sum, mut route_sum) = (0.0, 0.0);
    for i in 0..count {
        let (u, v) = probe(stream);
        let exact = distance(g, u, v).ok_or("stretch sample pair is disconnected")? as f64;
        let (d, _) = tally.call(client, &Request::Query { u, v }, svc, Tamper::None)?;
        let (r, _) = tally.call(client, &Request::Route { u, t: v }, svc, Tamper::None)?;
        let (Response::Distance(Some(d)), Response::Route(Some(r))) = (d, r) else {
            return Err(format!("no answer for connected pair {u:?}->{v:?}"));
        };
        let d = d as f64;
        if d < exact || d > (1.0 + EPSILON) * exact + 1e-9 {
            return Err(format!(
                "distance {d} for {u:?}->{v:?} is outside [{exact}, (1+ε)·{exact}]"
            ));
        }
        if r.route.first() != Some(&u) || r.route.last() != Some(&v) || (r.cost as f64) < exact {
            return Err(format!(
                "route {u:?}->{v:?} is not a route of cost ≥ {exact}"
            ));
        }
        if i < paths {
            let (p, _) = tally.call(client, &Request::QueryPath { u, v }, svc, Tamper::None)?;
            let Response::Path(p) = p else {
                return Err(format!("QueryPath {u:?}->{v:?} answered {p:?}"));
            };
            checker.check(u, v, p.as_ref())?;
        }
        dist_sum += d / exact;
        route_sum += r.cost as f64 / exact;
    }
    Ok((dist_sum / count as f64, route_sum / count as f64))
}

/// Visits the ops round-robin, a slice of each in every round of
/// 100 ms, so a drift in machine speed touches every op alike, until
/// `budget` has passed. `step` sends one request of the op with the
/// given index in the given round; `after_round` runs after each round.
/// Returns the number of rounds.
pub fn round_robin(
    budget: Duration,
    mut step: impl FnMut(usize, usize, Op) -> Result<(), String>,
    mut after_round: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let deadline = Instant::now() + budget;
    let mut round = 0;
    while Instant::now() < deadline {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            let slice_end = Instant::now() + op.slice();
            loop {
                step(round, i, op)?;
                if Instant::now() >= slice_end {
                    break;
                }
            }
        }
        after_round(round)?;
        round += 1;
    }
    Ok(round)
}

/// Rounds of the closed loop per window: one second.
pub const WINDOW_ROUNDS: usize = 10;

/// One op's samples, grouped into windows of [`WINDOW_ROUNDS`] rounds.
#[derive(Default)]
pub struct Windowed {
    windows: Vec<Vec<f64>>,
}

impl Windowed {
    pub fn push(&mut self, window: usize, value: f64) {
        if self.windows.len() <= window {
            self.windows.resize_with(window + 1, Vec::new);
        }
        self.windows[window].push(value);
    }

    pub fn len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// The mean over windows of each window's median. The host this was
    /// tuned on switches between a slow and a ~1.5x faster state for
    /// seconds at a time; the median of a whole run jumps from one
    /// state's figure to the other's as the fast share crosses a half,
    /// while this moves in proportion to that share.
    pub fn mean_of_medians(&mut self) -> f64 {
        let medians: Vec<f64> = self
            .windows
            .iter_mut()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect();
        assert!(!medians.is_empty(), "no samples");
        mean(&medians)
    }

    /// The mean of all samples.
    pub fn mean(&self) -> f64 {
        let all: Vec<f64> = self.windows.concat();
        assert!(!all.is_empty(), "no samples");
        mean(&all)
    }
}

/// The mean of `values` without the lowest and the highest `share` of
/// them; sorts `values` in place.
pub fn trimmed_mean(values: &mut [f64], share: f64) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of no samples");
    values.sort_unstable_by(f64::total_cmp);
    let cut = (share * values.len() as f64) as usize;
    mean(&values[cut..values.len() - cut])
}

/// A pair with distinct endpoints.
pub fn probe(stream: &mut PairStream) -> (NodeId, NodeId) {
    loop {
        let (u, v) = stream.next_pair();
        if u != v {
            return (u, v);
        }
    }
}

/// Shipped bytes → one answered Query, Route and QueryPath in process.
pub fn coldstart_once(
    shipped: &[u8],
    storage: Storage,
    (u, v): (NodeId, NodeId),
    expected: &LocationService,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let svc = open(shipped, storage).map_err(|e| format!("open: {e}"))?;
    let d = svc.try_query(u, v);
    let r = svc.try_route(u, v);
    let p = svc.try_query_path(u, v);
    let elapsed = t0.elapsed().as_secs_f64();
    let d = d.map_err(|e| e.to_string())?;
    let r = r.map_err(|e| e.to_string())?;
    let p = p.map_err(|e| e.to_string())?;
    if d != expected.query(u, v) || r != expected.route(u, v) || p != expected.query_path(u, v) {
        return Err("cold-started service answers differently".into());
    }
    Ok(elapsed)
}

/// Resets this process's peak resident set size to its current one, so
/// that the next [`rss_peak_mb`] covers only what runs after this call.
pub fn reset_rss_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), from
/// `/proc/self/status`.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The header every run prints: what was measured, and how.
pub fn header(cfg: &Config, g: &Graph, trace: bool) -> Vec<String> {
    let w = &cfg.workload;
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let online = read("/sys/devices/system/cpu/online");
    let status = read("/proc/self/status");
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("?");
    vec![
        format!(
            "# perfbench workload={} family={} n={} edges={} graph_seed={GRAPH_SEED} seed={} eps={} bundle={} batch={} trace={}",
            w.name,
            w.family.name(),
            g.num_nodes(),
            g.num_edges(),
            cfg.seed,
            EPSILON,
            w.storage.name(),
            crate::workload::BATCH,
            u8::from(trace),
        ),
        format!(
            "# cpus_online={} cpus_allowed={} available_parallelism={cores} workers={} (ServiceParams.threads=1, PSEP_THREADS={}) obs={} loop=closed connections=1 source_skew={} seconds={}",
            online.trim(),
            allowed.trim(),
            path_separators::core::available_threads(),
            std::env::var("PSEP_THREADS").unwrap_or_default(),
            if psep_obs::enabled() { "on" } else { "off" },
            w.skew,
            cfg.seconds,
        ),
    ]
}
