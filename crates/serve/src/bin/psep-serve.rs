//! The `psep-serve` daemon: open a `psep-bundle/v2`, serve
//! `psep-rpc/v1` over TCP until SIGINT/SIGTERM, drain, exit.
//!
//! ```text
//! psep-serve build --family grid --n 400 --epsilon 0.25 --out g.bundle
//! psep-serve serve --bundle g.bundle --addr 127.0.0.1:0 --metrics metrics.ndjson
//! ```
//!
//! The bundle is read into an aligned buffer and opened with
//! `LocationService::map_bytes`: a raw bundle is validated by checksum
//! and served straight out of the buffer (cold start is O(checksum), the
//! label/table arenas are never copied), a delta-compressed one decodes
//! its label and table sections into owned arenas.
//!
//! `serve` prints `listening on <addr>` (with the resolved port) on
//! stdout before accepting, so scripts binding port 0 can discover the
//! endpoint. `build` exists so smoke tests and CI can produce a small
//! bundle without a separate tool.

use std::sync::Arc;

use path_separators::core::wire::AlignedBytes;
use path_separators::oracle::Error::InvalidEpsilon;
use path_separators::{LocationService, ServiceParams};
use psep_serve::{install_signal_handlers, ServeConfig, Server};
use psep_testkit::families::{Family, ALL_FAMILIES};

fn usage() -> ! {
    eprintln!(
        "usage:\n  psep-serve serve --bundle PATH [--addr HOST:PORT] [--max-frame BYTES] [--metrics PATH]\n  psep-serve build --family NAME --n N [--epsilon EPS] [--threads T] [--seed S] --out PATH\n\nfamilies: {}",
        ALL_FAMILIES
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2)
}

fn parse_family(name: &str) -> Option<Family> {
    ALL_FAMILIES.iter().copied().find(|f| f.name() == name)
}

struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                eprintln!("unexpected argument `{a}`");
                usage()
            };
            // a flag followed by another flag (or nothing) is boolean
            match it.clone().next() {
                Some(v) if !v.starts_with("--") => {
                    it.next();
                    out.push((key.to_string(), v.clone()));
                }
                _ => out.push((key.to_string(), "true".to_string())),
            }
        }
        Flags(out)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("--{key}: cannot parse `{v}`");
                usage()
            }),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "serve" => serve(Flags::parse(rest)),
        "build" => build(Flags::parse(rest)),
        _ => usage(),
    }
}

fn build(flags: Flags) {
    let Some(family) = flags.get("family").and_then(parse_family) else {
        eprintln!("--family: unknown or missing family");
        usage()
    };
    let Some(out) = flags.get("out") else {
        eprintln!("--out is required");
        usage()
    };
    let n: usize = flags.num("n", 400);
    let seed: u64 = flags.num("seed", 1);
    let epsilon: f64 = flags.num("epsilon", 0.25);
    if !(epsilon.is_finite() && epsilon > 0.0) {
        eprintln!("--epsilon: {}", InvalidEpsilon(epsilon));
        usage()
    }
    let params = ServiceParams {
        epsilon,
        threads: flags.num("threads", 1),
    };
    let g = family.make(n, seed);
    let svc = LocationService::build(&g, params);
    if let Err(e) = std::fs::write(out, svc.to_bytes()) {
        eprintln!("writing {out}: {e}");
        std::process::exit(1);
    }
    println!(
        "wrote {out}: {} vertices, {} edges, eps={}",
        svc.num_nodes(),
        g.num_edges(),
        svc.epsilon()
    );
}

fn serve(flags: Flags) {
    let Some(bundle) = flags.get("bundle") else {
        eprintln!("--bundle is required");
        usage()
    };
    let addr = flags.get("addr").unwrap_or("127.0.0.1:9553").to_string();
    let cfg = ServeConfig {
        max_frame: flags.num("max-frame", ServeConfig::default().max_frame),
        ..ServeConfig::default()
    };
    let metrics = flags.get("metrics").map(str::to_string);

    psep_obs::set_enabled(true);
    // leak the aligned buffer so worker threads can borrow it for the
    // life of the process: a raw bundle is served in place
    let buf: &'static AlignedBytes = match AlignedBytes::read_file(std::path::Path::new(bundle)) {
        Ok(b) => Box::leak(Box::new(b)),
        Err(e) => {
            eprintln!("reading {bundle}: {e}");
            std::process::exit(1);
        }
    };
    let svc = match LocationService::map_bytes(buf) {
        Ok(svc) => Arc::new(svc),
        Err(e) => {
            eprintln!("opening {bundle}: {e}");
            std::process::exit(1);
        }
    };
    if svc.is_borrowed() {
        psep_obs::counter!("serve.mapped").incr();
    }
    let server = match Server::bind(Arc::clone(&svc), addr.as_str(), cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("binding {addr}: {e}");
            std::process::exit(1);
        }
    };
    install_signal_handlers();
    println!(
        "psep-serve: {} vertices, eps={}, {} storage",
        svc.num_nodes(),
        svc.epsilon(),
        if svc.is_borrowed() {
            "borrowed"
        } else {
            "owned"
        }
    );
    println!("listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("accept loop failed: {e}");
        std::process::exit(1);
    }
    eprintln!("psep-serve: drained, shutting down");
    if let Some(path) = metrics {
        let snapshot = psep_obs::snapshot();
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                if let Err(e) = snapshot.write_ndjson(&mut f, Some("psep-serve")) {
                    eprintln!("writing {path}: {e}");
                }
            }
            Err(e) => eprintln!("creating {path}: {e}"),
        }
    }
}
