#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
//! `psep-serve`: the network daemon that turns a
//! [`LocationService`] into a live system.
//!
//! The server speaks `psep-rpc/v1` ([`path_separators::rpc`]) over
//! plain TCP: one worker thread per connection, all sharing one
//! `Arc<LocationService>` (queries only borrow the arenas, so there is
//! no lock anywhere on the request path). The protocol surface is
//! exactly the typed [`Request`]/[`Response`] vocabulary of
//! [`path_separators::api`] — the daemon itself is a thin loop around
//! [`LocationService::handle`], so answers served over the wire are
//! bit-identical to in-process calls.
//!
//! Operational behaviour:
//!
//! * **Graceful shutdown** — [`ShutdownHandle::shutdown`] (or
//!   SIGINT/SIGTERM after [`install_signal_handlers`]) stops the accept
//!   loop; connection workers finish the request in flight, then close.
//!   [`Server::run`] returns only after every worker has drained.
//! * **Malformed input never kills the daemon** — a frame whose
//!   checksum verifies but whose payload doesn't decode is answered
//!   with a typed [`Response::Error`] and the connection stays open; a
//!   broken frame (bad magic, length overflow, CRC mismatch) poisons
//!   only that connection, which is closed.
//! * **Observability** — `serve.*` counters (connections, requests per
//!   op, decode/frame errors) and per-op `serve.<op>.latency_ns`
//!   histograms with p50–p99, in the same `psep-obs` namespace the rest
//!   of the stack reports under.

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use path_separators::api::{ApiError, Request, Response};
use path_separators::rpc::{self, RpcError, DEFAULT_MAX_FRAME};
use path_separators::LocationService;

/// Tunables for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Per-frame payload cap (both directions).
    pub max_frame: usize,
    /// How often idle waits wake up to poll the shutdown flag — the
    /// accept loop's sleep and each connection's read timeout.
    pub poll_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// Flips the shared shutdown flag; cloneable across threads.
#[derive(Clone, Debug)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests a graceful shutdown: stop accepting, drain in-flight
    /// connections, return from [`Server::run`].
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested (by this handle or a
    /// signal).
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst) || signals::signaled()
    }
}

/// A bound-but-not-yet-running `psep-rpc/v1` server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    svc: Arc<LocationService<'static>>,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds `addr` (port 0 picks an ephemeral port) for `svc`.
    pub fn bind<A: ToSocketAddrs>(
        svc: Arc<LocationService<'static>>,
        addr: A,
        cfg: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            addr,
            svc,
            cfg,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Runs the accept loop on the calling thread until shutdown is
    /// requested, then drains every in-flight connection before
    /// returning.
    pub fn run(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shutdown = ShutdownHandle(Arc::clone(&self.shutdown));
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !shutdown.is_shutdown() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    psep_obs::counter!("serve.connections").incr();
                    let svc = Arc::clone(&self.svc);
                    let cfg = self.cfg;
                    let handle = shutdown.clone();
                    workers.push(
                        std::thread::Builder::new()
                            .name("psep-serve-conn".into())
                            .spawn(move || serve_connection(stream, &svc, &cfg, &handle))?,
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(self.cfg.poll_interval.min(Duration::from_millis(50)));
                    // reap workers whose connections have closed
                    workers.retain(|w| !w.is_finished());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: the listener stops accepting here; workers notice the
        // flag at their next idle poll and exit after the request in
        // flight (if any) has been answered.
        drop(self.listener);
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }

    /// Spawns [`Server::run`] on a background thread, returning the
    /// bound address, a shutdown handle, and the runner's join handle.
    pub fn spawn(
        self,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let addr = self.local_addr();
        let handle = self.shutdown_handle();
        let runner = std::thread::Builder::new()
            .name("psep-serve-accept".into())
            .spawn(move || self.run())
            .expect("spawning the accept thread");
        (addr, handle, runner)
    }
}

/// One connection's request/response loop. Returns (closing the
/// connection) on client hangup, framing errors, write failures, or
/// shutdown; payload-level decode errors are answered and survived.
fn serve_connection(
    stream: TcpStream,
    svc: &LocationService<'static>,
    cfg: &ServeConfig,
    shutdown: &ShutdownHandle,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.poll_interval));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match rpc::read_frame(&mut reader, cfg.max_frame) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // client closed between frames
            Err(e) if e.is_idle_timeout() => {
                if shutdown.is_shutdown() {
                    return;
                }
                continue;
            }
            Err(_) => {
                // bad magic / oversized frame / CRC mismatch / socket
                // error: the stream can no longer be trusted
                psep_obs::counter!("serve.frame_errors").incr();
                return;
            }
        };
        let resp = match rpc::decode_request(&payload) {
            Ok(req) => {
                psep_obs::counter!("serve.requests").incr();
                let t0 = psep_obs::now_if_enabled();
                let resp = svc.handle(&req);
                if let Some(t0) = t0 {
                    // static names per op: the macros cache the registry
                    // lookup per call site, keeping the hot path free of
                    // the registry mutex
                    match req {
                        Request::Ping => {
                            psep_obs::counter!("serve.requests.ping").incr();
                            psep_obs::histogram!("serve.ping.latency_ns").record_elapsed(t0);
                        }
                        Request::Stats => {
                            psep_obs::counter!("serve.requests.stats").incr();
                            psep_obs::histogram!("serve.stats.latency_ns").record_elapsed(t0);
                        }
                        Request::Query { .. } => {
                            psep_obs::counter!("serve.requests.query").incr();
                            psep_obs::histogram!("serve.query.latency_ns").record_elapsed(t0);
                        }
                        Request::QueryMany { .. } => {
                            psep_obs::counter!("serve.requests.query_many").incr();
                            psep_obs::histogram!("serve.query_many.latency_ns").record_elapsed(t0);
                            psep_obs::histogram!("serve.batch.pairs")
                                .record(req.pair_count() as u64);
                        }
                        Request::Route { .. } => {
                            psep_obs::counter!("serve.requests.route").incr();
                            psep_obs::histogram!("serve.route.latency_ns").record_elapsed(t0);
                        }
                        Request::RouteMany { .. } => {
                            psep_obs::counter!("serve.requests.route_many").incr();
                            psep_obs::histogram!("serve.route_many.latency_ns").record_elapsed(t0);
                            psep_obs::histogram!("serve.batch.pairs")
                                .record(req.pair_count() as u64);
                        }
                        Request::QueryPath { .. } => {
                            psep_obs::counter!("serve.requests.query_path").incr();
                            psep_obs::histogram!("serve.query_path.latency_ns").record_elapsed(t0);
                        }
                        Request::QueryPathMany { .. } => {
                            psep_obs::counter!("serve.requests.query_path_many").incr();
                            psep_obs::histogram!("serve.query_path_many.latency_ns")
                                .record_elapsed(t0);
                            psep_obs::histogram!("serve.batch.pairs")
                                .record(req.pair_count() as u64);
                        }
                    }
                }
                if resp.is_error() {
                    psep_obs::counter!("serve.request_errors").incr();
                }
                resp
            }
            Err(e) => {
                // the frame was sound (CRC verified) but the payload is
                // not a request — answer typed and keep the connection
                psep_obs::counter!("serve.decode_errors").incr();
                Response::Error(ApiError::invalid(e.to_string()))
            }
        };
        if rpc::write_response(&mut writer, &resp).is_err() || writer.flush().is_err() {
            return;
        }
        if shutdown.is_shutdown() {
            return; // drained: current request answered, now close
        }
    }
}

/// A blocking `psep-rpc/v1` client: one request, one response, in
/// order, over a single connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    max_frame: usize,
}

impl Client {
    /// Connects with the default frame cap.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Self::connect_with(addr, DEFAULT_MAX_FRAME)
    }

    /// Connects with an explicit frame cap.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, max_frame: usize) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            max_frame,
        })
    }

    /// Sends `req` and blocks for the server's response.
    pub fn call(&mut self, req: &Request) -> Result<Response, RpcError> {
        rpc::write_request(&mut self.writer, req)?;
        self.writer.flush().map_err(RpcError::Io)?;
        match rpc::read_response(&mut self.reader, self.max_frame)? {
            Some(resp) => Ok(resp),
            // the server hung up instead of answering
            None => Err(psep_core_truncated()),
        }
    }

    /// Raw frame write, for driving the protocol off the happy path in
    /// tests and fuzzing (e.g. sending deliberately corrupt payloads).
    pub fn send_raw(&mut self, payload: &[u8]) -> Result<(), RpcError> {
        rpc::write_frame(&mut self.writer, payload)?;
        self.writer.flush().map_err(RpcError::Io)?;
        Ok(())
    }

    /// Reads one framed response after [`Client::send_raw`].
    pub fn read(&mut self) -> Result<Option<Response>, RpcError> {
        rpc::read_response(&mut self.reader, self.max_frame)
    }
}

fn psep_core_truncated() -> RpcError {
    RpcError::Wire(path_separators::core::wire::WireError::Truncated)
}

/// Installs SIGINT and SIGTERM handlers that request a graceful
/// shutdown (observed by every [`ShutdownHandle`]). No-op off Unix.
pub fn install_signal_handlers() {
    signals::install();
}

mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SIGNALED: AtomicBool = AtomicBool::new(false);

    pub fn signaled() -> bool {
        SIGNALED.load(Ordering::SeqCst)
    }

    extern "C" fn on_signal(_sig: i32) {
        // an atomic store is async-signal-safe
        SIGNALED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    pub fn install() {
        // std links libc on unix; declare the one symbol we need rather
        // than pulling in a dependency the container doesn't have.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        // SAFETY: `signal` is the C library's, declared with its C
        // signature; `on_signal` is an `extern "C"` handler that only
        // performs an async-signal-safe atomic store.
        unsafe {
            signal(2, on_signal); // SIGINT
            signal(15, on_signal); // SIGTERM
        }
    }

    #[cfg(not(unix))]
    pub fn install() {
        let _ = on_signal; // keep the handler referenced
    }
}
