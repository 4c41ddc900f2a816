//! No-op implementation (the `obs` feature is disabled).
//!
//! Every type is zero-sized and every function an inline empty body, so
//! instrumentation call sites throughout the workspace compile to
//! nothing. [`enabled`] is `const false`, letting the optimizer remove
//! `if psep_obs::enabled() { … }` blocks entirely.

use crate::Snapshot;

/// Always `false` without the `obs` feature; value-computation blocks
/// guarded on it are dead-code eliminated.
#[inline(always)]
pub const fn enabled() -> bool {
    false
}

/// No-op.
#[inline(always)]
pub fn set_enabled(_on: bool) {}

/// No-op; always returns `false`.
#[inline(always)]
pub fn enable_from_env() -> bool {
    false
}

/// Zero-sized counter stand-in.
#[derive(Debug, Default)]
pub struct Counter;

impl Counter {
    /// No-op.
    #[inline(always)]
    pub fn add(&self, _n: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn incr(&self) {}

    /// Always 0.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        0
    }
}

/// Zero-sized gauge stand-in.
#[derive(Debug, Default)]
pub struct Gauge;

impl Gauge {
    /// No-op.
    #[inline(always)]
    pub fn set(&self, _v: f64) {}

    /// No-op.
    #[inline(always)]
    pub fn set_max(&self, _v: f64) {}

    /// Always 0.
    #[inline(always)]
    pub fn get(&self) -> f64 {
        0.0
    }
}

/// Zero-sized histogram stand-in.
#[derive(Debug, Default)]
pub struct Histogram;

impl Histogram {
    /// No-op.
    #[inline(always)]
    pub fn record(&self, _v: u64) {}

    /// No-op.
    #[inline(always)]
    pub fn record_elapsed(&self, _start: std::time::Instant) {}

    /// No-op.
    #[inline(always)]
    pub fn merge(&self, _stat: &crate::HistogramStat) {}

    /// Always 0.
    #[inline(always)]
    pub fn count(&self) -> u64 {
        0
    }

    /// Always an empty stat.
    #[inline(always)]
    pub fn stat(&self, name: &str) -> crate::HistogramStat {
        crate::HistogramStat::new(name)
    }
}

/// Always `None`; combined with `const false` [`enabled`], timing
/// blocks guarded on it are dead-code eliminated.
#[inline(always)]
pub fn now_if_enabled() -> Option<std::time::Instant> {
    None
}

/// Shared statics so `counter!`/`gauge!` can hand out `'static`
/// references without a registry.
pub static NOOP_COUNTER: Counter = Counter;
/// See [`NOOP_COUNTER`].
pub static NOOP_GAUGE: Gauge = Gauge;
/// See [`NOOP_COUNTER`].
pub static NOOP_HISTOGRAM: Histogram = Histogram;

/// Returns the shared no-op counter regardless of `name`.
#[inline(always)]
pub fn counter(_name: &str) -> &'static Counter {
    &NOOP_COUNTER
}

/// Returns the shared no-op gauge regardless of `name`.
#[inline(always)]
pub fn gauge(_name: &str) -> &'static Gauge {
    &NOOP_GAUGE
}

/// Returns the shared no-op histogram regardless of `name`.
#[inline(always)]
pub fn histogram(_name: &str) -> &'static Histogram {
    &NOOP_HISTOGRAM
}

/// Zero-sized span guard stand-in.
pub struct SpanGuard;

/// No-op; returns a zero-sized guard.
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard
}

/// No-op.
#[inline(always)]
pub fn reset() {}

/// Always an empty snapshot.
#[inline(always)]
pub fn snapshot() -> Snapshot {
    Snapshot::default()
}

/// Cached-per-call-site counter handle (no-op form).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        &$crate::NOOP_COUNTER
    };
}

/// Cached-per-call-site gauge handle (no-op form).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        &$crate::NOOP_GAUGE
    };
}

/// Cached-per-call-site histogram handle (no-op form).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        &$crate::NOOP_HISTOGRAM
    };
}

/// Opens a named span guard (no-op form).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
