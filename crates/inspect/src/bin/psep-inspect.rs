//! Command-line artifact inspector and perf-regression gate.
//!
//! ```text
//! psep-inspect bundle <path> [--json]
//! psep-inspect upgrade <in-bundle> <out-bundle> [--compress|--raw]
//! psep-inspect report <path> [--json]
//! psep-inspect diff <base.json> <fresh.json> [--threshold 0.3] [--quantile-factor 4.0] [--json]
//! ```
//!
//! `upgrade` rewrites a `psep-bundle/v4` with delta-coded label and
//! table sections (`--compress`) or raw zero-copy ones (`--raw`, the
//! default); the answers are bit-identical either way.
//!
//! Exit codes: `0` success / clean diff, `1` regression detected (diff
//! only), `2` usage or parse error.

use psep_inspect::{
    diff_reports, parse_report, upgrade_bundle, verify_metric_crcs, BundleStats, DiffConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("bundle") => cmd_bundle(&args[1..]),
        Some("upgrade") => cmd_upgrade(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => {
            eprintln!(
                "usage: psep-inspect bundle <path> [--json]\n\
                 \x20      psep-inspect upgrade <in-bundle> <out-bundle> [--compress|--raw]\n\
                 \x20          (rewrite a v4 bundle with delta or raw label/table sections)\n\
                 \x20      psep-inspect report <path> [--json]\n\
                 \x20      psep-inspect diff <base.json> <fresh.json> \
                 [--threshold X] [--quantile-factor Y] [--json]"
            );
            2
        }
    };
    std::process::exit(code);
}

fn usage_err(msg: &str) -> i32 {
    eprintln!("psep-inspect: {msg}");
    2
}

/// Splits trailing flags from positional arguments.
fn split_args(args: &[String]) -> (Vec<&str>, Vec<&str>) {
    let mut pos = Vec::new();
    let mut flags = Vec::new();
    for a in args {
        if a.starts_with("--") {
            flags.push(a.as_str());
        } else {
            pos.push(a.as_str());
        }
    }
    (pos, flags)
}

fn cmd_bundle(args: &[String]) -> i32 {
    let (pos, flags) = split_args(args);
    let [path] = pos[..] else {
        return usage_err("bundle takes exactly one path");
    };
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => return usage_err(&format!("cannot read {path}: {e}")),
    };
    match BundleStats::from_bytes(&data) {
        Ok(stats) => {
            if flags.contains(&"--json") {
                print!("{}", stats.to_json());
            } else {
                print!("{}", stats.render_text());
            }
            0
        }
        Err(e) => usage_err(&format!("{path}: {e}")),
    }
}

fn cmd_upgrade(args: &[String]) -> i32 {
    let (pos, flags) = split_args(args);
    let [input, output] = pos[..] else {
        return usage_err("upgrade takes an input and an output path");
    };
    let mut compress = false;
    for f in &flags {
        match *f {
            "--compress" => compress = true,
            "--raw" => compress = false,
            other => return usage_err(&format!("unknown flag {other}")),
        }
    }
    let data = match std::fs::read(input) {
        Ok(d) => d,
        Err(e) => return usage_err(&format!("cannot read {input}: {e}")),
    };
    let upgraded = match upgrade_bundle(&data, compress) {
        Ok(out) => out,
        Err(e) => return usage_err(&format!("{input}: {e}")),
    };
    if let Err(e) = std::fs::write(output, &upgraded) {
        return usage_err(&format!("cannot write {output}: {e}"));
    }
    println!(
        "rewrote {input} ({} bytes) -> {output} (v{} {}, {} bytes)",
        data.len(),
        path_separators::service::BUNDLE_VERSION,
        if compress { "delta" } else { "raw" },
        upgraded.len()
    );
    0
}

fn cmd_report(args: &[String]) -> i32 {
    let (pos, flags) = split_args(args);
    let [path] = pos[..] else {
        return usage_err("report takes exactly one path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return usage_err(&format!("cannot read {path}: {e}")),
    };
    let report = match parse_report(&text) {
        Ok(r) => r,
        Err(e) => return usage_err(&format!("{path}: {e}")),
    };
    let crcs = match verify_metric_crcs(&text) {
        Ok(n) => n,
        Err(e) => return usage_err(&format!("{path}: {e}")),
    };
    if flags.contains(&"--json") {
        let mut w = psep_obs::JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string(&report.schema);
        w.key("mode");
        w.string(&report.mode);
        w.key("crcs_verified");
        w.uint(crcs as u64);
        w.key("experiments");
        w.begin_array();
        for e in &report.experiments {
            w.begin_object();
            w.key("name");
            w.string(&e.name);
            w.key("wall_s");
            w.number(e.wall_s);
            w.key("counters");
            w.uint(e.metrics.counters.len() as u64);
            w.key("gauges");
            w.uint(e.metrics.gauges.len() as u64);
            w.key("histograms");
            w.uint(e.metrics.histograms.len() as u64);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "{} ({}, {} experiments, {} metric CRCs verified)",
            report.schema,
            report.mode,
            report.experiments.len(),
            crcs
        );
        for e in &report.experiments {
            println!(
                "  {:<4} wall {:>8.2}s  {:>4} counters  {:>4} gauges  {:>3} histograms",
                e.name,
                e.wall_s,
                e.metrics.counters.len(),
                e.metrics.gauges.len(),
                e.metrics.histograms.len()
            );
            for h in &e.metrics.histograms {
                println!(
                    "       {:<32} count {:>9}  p50 {:>10}  p99 {:>10}  max {:>10}",
                    h.name, h.count, h.p50, h.p99, h.max
                );
            }
        }
    }
    0
}

fn cmd_diff(args: &[String]) -> i32 {
    let mut cfg = DiffConfig::default();
    let mut json = false;
    let mut pos: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--threshold" | "--quantile-factor" => {
                let Some(v) = it.next().and_then(|s| s.parse::<f64>().ok()) else {
                    return usage_err(&format!("{a} requires a number"));
                };
                if a == "--threshold" {
                    cfg.throughput_drop = v;
                } else {
                    cfg.quantile_blowup = v;
                }
            }
            flag if flag.starts_with("--") => return usage_err(&format!("unknown flag {flag}")),
            p => pos.push(p),
        }
    }
    let [base_path, fresh_path] = pos[..] else {
        return usage_err("diff takes exactly two report paths");
    };
    let load = |path: &str| -> Result<psep_inspect::Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        verify_metric_crcs(&text).map_err(|e| format!("{path}: {e}"))?;
        parse_report(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, fresh) = match (load(base_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => return usage_err(&e),
    };
    let out = diff_reports(&base, &fresh, &cfg);
    if json {
        let mut w = psep_obs::JsonWriter::new();
        w.begin_object();
        w.key("schema");
        w.string("psep-diff/v1");
        w.key("compared");
        w.uint(out.compared as u64);
        w.key("regression");
        w.boolean(out.has_regression());
        w.key("findings");
        w.begin_array();
        for f in &out.findings {
            w.begin_object();
            w.key("severity");
            w.string(match f.severity {
                psep_inspect::Severity::Regression => "regression",
                psep_inspect::Severity::Warning => "warning",
            });
            w.key("experiment");
            w.string(&f.experiment);
            w.key("metric");
            w.string(&f.metric);
            w.key("base");
            w.number(f.base);
            w.key("fresh");
            w.number(f.fresh);
            w.key("message");
            w.string(&f.message);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    } else {
        println!(
            "compared {} metrics ({} vs {})",
            out.compared, base_path, fresh_path
        );
        for f in &out.findings {
            let tag = match f.severity {
                psep_inspect::Severity::Regression => "REGRESSION",
                psep_inspect::Severity::Warning => "warning",
            };
            println!("  [{tag}] {}: {}", f.experiment, f.message);
        }
        if out.has_regression() {
            println!("verdict: FAIL");
        } else {
            println!("verdict: OK");
        }
    }
    if out.has_regression() {
        1
    } else {
        0
    }
}
