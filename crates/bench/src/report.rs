//! Rendering of machine-readable `psep-bench-report/v2` reports, shared
//! by the experiment harness and the `loadgen` client.
//!
//! One report carries any number of experiments; each experiment embeds
//! its metrics snapshot in a CRC'd `psep-metrics/v1` envelope computed
//! over the snapshot's canonical (sorted-key) JSON bytes, so consumers
//! (`psep-inspect`) can verify a metrics block without re-deriving any
//! layout knowledge.

/// One experiment's contribution to a JSON report.
pub struct ExperimentReport {
    /// Short machine name (`e3t`, `eserve`, …).
    pub name: String,
    /// Human-readable title.
    pub title: String,
    /// Wall-clock seconds the experiment took.
    pub wall_s: f64,
    /// The instrumentation snapshot collected while it ran.
    pub snapshot: psep_obs::Snapshot,
    /// The rendered markdown table.
    pub table: String,
}

/// Renders a complete `psep-bench-report/v2` JSON document (trailing
/// newline included). The document records the machine's
/// `available_parallelism`, so a reader can tell a one-core timing (or
/// thread sweep) from a many-core one.
pub fn render_report(reports: &[ExperimentReport], mode: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut w = psep_obs::JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("psep-bench-report/v2");
    w.key("mode");
    w.string(mode);
    w.key("available_parallelism");
    w.number(cores as f64);
    w.key("experiments");
    w.begin_array();
    for r in reports {
        w.begin_object();
        w.key("name");
        w.string(&r.name);
        w.key("title");
        w.string(&r.title);
        w.key("wall_s");
        w.number(r.wall_s);
        w.key("metrics");
        write_metrics_envelope(&mut w, &r.snapshot);
        w.key("table_md");
        w.string(&r.table);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}

/// Wraps a snapshot in the versioned `psep-metrics/v1` envelope.
pub fn write_metrics_envelope(w: &mut psep_obs::JsonWriter, snapshot: &psep_obs::Snapshot) {
    let body = snapshot.to_json();
    let crc = psep_core::wire::crc32(body.as_bytes());
    w.begin_object();
    w.key("schema");
    w.string("psep-metrics/v1");
    w.key("crc32");
    w.uint(crc as u64);
    w.key("metrics");
    w.raw(&body);
    w.end_object();
}
