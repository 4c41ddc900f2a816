//! Zero-dependency instrumentation for the path-separator stack.
//!
//! Every headline bound of the paper is a runtime *quantity* — paths per
//! recursion level (Theorem 1), label entries and merge-join candidates
//! (Theorem 2), greedy hops (Theorem 3). This crate makes them
//! observable:
//!
//! * [`counter!`] — monotonic atomic counters for algorithmic events
//!   (Dijkstra invocations, edges relaxed, portal entries written,
//!   query candidates scanned, greedy hops, …);
//! * [`gauge!`] — last-value/max gauges for level-indexed quantities
//!   (component-size fractions, paths per level, label statistics);
//! * [`span!`] — RAII hierarchical span timers (`build/labels/dijkstra`)
//!   aggregated into count/total/max per path;
//! * [`histogram!`] — lock-free log-linear-bucketed distributions
//!   (per-query latency, candidates scanned, hop counts) with exact
//!   count/sum/min/max and bounded-error p50–p999 quantiles; a worker
//!   can tally values privately in a [`HistogramStat`] and fold them in
//!   once with `Histogram::merge`, bit-identically at every thread count;
//! * [`snapshot`] — a point-in-time [`Snapshot`] of everything, with a
//!   hand-rolled JSON renderer and an NDJSON line emitter. A snapshot
//!   reports the registry as recorded: parallel stages publish one
//!   total per fixed name, so there is no per-worker series to roll up.
//!
//! # Cost model
//!
//! Instrumentation is **compile-time gated** by the `obs` cargo feature
//! and **runtime gated** by [`set_enabled`]. Without the feature, every
//! type here is zero-sized and every operation an inline empty function
//! — call sites compile to nothing. With the feature but disabled at
//! runtime, a counter bump is one relaxed atomic load and a branch.
//! Values that are expensive to compute should be guarded at the call
//! site with `if psep_obs::enabled() { … }`, which is a `const false`
//! when the feature is off (the whole block is dead-code eliminated).
//!
//! This crate has no dependencies (std only) by design: it must be
//! linkable from every layer of the workspace, including the graph
//! substrate underneath everything else.

#[cfg(feature = "obs")]
mod live;
#[cfg(feature = "obs")]
pub use live::*;

#[cfg(not(feature = "obs"))]
mod noop;
#[cfg(not(feature = "obs"))]
pub use noop::*;

mod json;
pub use json::JsonWriter;

mod hist;
pub use hist::{bucket_index, bucket_lower, HistogramStat, NUM_BUCKETS, SUB_BITS, SUB_COUNT};

/// A span-statistics record: how often a span path ran and for how long.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanStat {
    /// Hierarchical path, e.g. `"e3/build_oracle/labels"`.
    pub path: String,
    /// Number of completed spans at this path.
    pub count: u64,
    /// Total time across all completions, in seconds.
    pub total_s: f64,
    /// Longest single completion, in seconds.
    pub max_s: f64,
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters: `(name, value)`.
    pub counters: Vec<(String, u64)>,
    /// Gauges: `(name, value)`. Integral values render as integers.
    pub gauges: Vec<(String, f64)>,
    /// Latency/size distributions, sorted by name.
    pub histograms: Vec<HistogramStat>,
    /// Aggregated span timings.
    pub spans: Vec<SpanStat>,
}

impl Snapshot {
    /// Counter value by exact name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge value by exact name, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram stats by exact name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramStat> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Span stats by exact path, if present.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Sorts every section by metric name (and every histogram's
    /// buckets by index) so that [`Snapshot::to_json`] is byte-stable
    /// for equal metric contents regardless of construction order.
    pub fn normalize(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        for h in &mut self.histograms {
            h.buckets.sort_by_key(|&(i, _)| i);
        }
        self.spans.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// Renders the snapshot as one JSON object:
    /// `{"counters": {…}, "gauges": {…}, "histograms": […], "spans": […]}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Writes the snapshot into an in-progress [`JsonWriter`] as one
    /// object value.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("counters");
        w.begin_object();
        for (name, value) in &self.counters {
            w.key(name);
            w.uint(*value);
        }
        w.end_object();
        w.key("gauges");
        w.begin_object();
        for (name, value) in &self.gauges {
            w.key(name);
            w.number(*value);
        }
        w.end_object();
        w.key("histograms");
        w.begin_array();
        for h in &self.histograms {
            h.write_json(w);
        }
        w.end_array();
        w.key("spans");
        w.begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("path");
            w.string(&s.path);
            w.key("count");
            w.uint(s.count);
            w.key("total_s");
            w.number(s.total_s);
            w.key("max_s");
            w.number(s.max_s);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    /// Writes the snapshot as NDJSON: one line per metric, each tagged
    /// with `"type"` (`counter` | `gauge` | `histogram` | `span`) and the optional
    /// `scope` (e.g. the experiment name) on every line.
    pub fn write_ndjson<W: std::io::Write>(
        &self,
        out: &mut W,
        scope: Option<&str>,
    ) -> std::io::Result<()> {
        let scope_fields = |w: &mut JsonWriter| {
            if let Some(s) = scope {
                w.key("scope");
                w.string(s);
            }
        };
        for (name, value) in &self.counters {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("type");
            w.string("counter");
            scope_fields(&mut w);
            w.key("name");
            w.string(name);
            w.key("value");
            w.uint(*value);
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        for (name, value) in &self.gauges {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("type");
            w.string("gauge");
            scope_fields(&mut w);
            w.key("name");
            w.string(name);
            w.key("value");
            w.number(*value);
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        for h in &self.histograms {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("type");
            w.string("histogram");
            scope_fields(&mut w);
            w.key("value");
            h.write_json(&mut w);
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        for s in &self.spans {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key("type");
            w.string("span");
            scope_fields(&mut w);
            w.key("path");
            w.string(&s.path);
            w.key("count");
            w.uint(s.count);
            w.key("total_s");
            w.number(s.total_s);
            w.key("max_s");
            w.number(s.max_s);
            w.end_object();
            writeln!(out, "{}", w.finish())?;
        }
        Ok(())
    }
}
