#![warn(missing_docs)]
//! Artifact inspector for the path-separators stack.
//!
//! Three capabilities, shared by the `psep-inspect` binary and the CI
//! perf gate:
//!
//! - [`bundle`]: open a sealed `psep-bundle/v4` artifact and report
//!   section sizes, per-section checksums, and per-vertex label/table
//!   entry-count histograms; rewrite it with raw or delta sections.
//! - [`report`]: parse `psep-bench-report/v1` and `/v2` JSON reports
//!   (the harness's `--json` output), including the CRC'd
//!   `psep-metrics/v1` envelopes introduced in v2.
//! - [`diff`]: compare two reports with threshold-based verdicts —
//!   throughput gauges may not drop by more than a configured fraction,
//!   and latency-histogram tail quantiles may not blow up by more than
//!   a configured factor.

pub mod bundle;
pub mod diff;
pub mod report;

pub use bundle::{upgrade_bundle, BundleStats, CompressionStat, SectionStat};
pub use diff::{diff_reports, DiffConfig, DiffOutcome, Finding, Severity};
pub use report::{parse_report, verify_metric_crcs, Experiment, HistSummary, Metrics, Report};
