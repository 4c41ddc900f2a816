//! Live implementation (the `obs` feature is enabled).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::{bucket_index, HistogramStat, Snapshot, SpanStat, NUM_BUCKETS};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether instrumentation is recording. One relaxed load.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off at runtime.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables recording iff the `PSEP_OBS` environment variable is set to
/// anything other than `0`/`false`/empty. Returns the resulting state.
pub fn enable_from_env() -> bool {
    let on = std::env::var("PSEP_OBS")
        .map(|v| !matches!(v.as_str(), "" | "0" | "false"))
        .unwrap_or(false);
    if on {
        set_enabled(true);
    }
    enabled()
}

/// A monotonic event counter. Obtain via [`counter!`](crate::counter!) (static name,
/// cached per call site) or [`counter`] (dynamic name).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` if recording is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 if recording is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value / running-max gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    /// f64 bits.
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge if recording is enabled.
    #[inline]
    pub fn set(&self, v: f64) {
        if enabled() {
            self.value.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if `v` is larger (or the gauge is unset).
    #[inline]
    pub fn set_max(&self, v: f64) {
        if !enabled() {
            return;
        }
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(cur) >= v {
                return;
            }
            match self.value.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.value.load(Ordering::Relaxed))
    }
}

/// A lock-free log-linear-bucketed histogram. Obtain via
/// [`histogram!`](crate::histogram!) (static name, cached per call site) or [`histogram`]
/// (dynamic name). Recording is one bucket-index computation plus five
/// relaxed atomic RMWs; concurrent recorders never contend on a lock.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` until the first record.
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: buckets.into_boxed_slice(),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// Records one value if recording is enabled.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `start` (from
    /// [`now_if_enabled`]) if recording is enabled.
    #[inline]
    pub fn record_elapsed(&self, start: Instant) {
        self.record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Folds a privately tallied [`HistogramStat`] in if recording is
    /// enabled: one atomic add per non-empty bucket, so a worker touches
    /// the shared histogram once per run instead of once per value.
    pub fn merge(&self, stat: &HistogramStat) {
        if !enabled() || stat.count == 0 {
            return;
        }
        for &(i, n) in &stat.buckets {
            self.buckets[i as usize].fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(stat.count, Ordering::Relaxed);
        self.sum.fetch_add(stat.sum, Ordering::Relaxed);
        self.min.fetch_min(stat.min, Ordering::Relaxed);
        self.max.fetch_max(stat.max, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the histogram into a snapshot-side [`HistogramStat`].
    pub fn stat(&self, name: &str) -> HistogramStat {
        let count = self.count();
        let mut stat = HistogramStat::new(name);
        if count == 0 {
            return stat;
        }
        stat.count = count;
        stat.sum = self.sum.load(Ordering::Relaxed);
        stat.min = self.min.load(Ordering::Relaxed);
        stat.max = self.max.load(Ordering::Relaxed);
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n != 0 {
                stat.buckets.push((i as u32, n));
            }
        }
        stat
    }

    fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// `Some(Instant::now())` when recording is enabled, `None` otherwise
/// (and a `const None` without the `obs` feature) — the cheap way to
/// time a region only when someone is listening:
///
/// ```ignore
/// let t0 = psep_obs::now_if_enabled();
/// /* … hot work … */
/// if let Some(t0) = t0 { psep_obs::histogram!("x.latency_ns").record_elapsed(t0); }
/// ```
#[inline]
pub fn now_if_enabled() -> Option<Instant> {
    enabled().then(Instant::now)
}

#[derive(Clone, Copy, Debug, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u128,
    max_ns: u128,
}

struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    spans: Mutex<BTreeMap<String, SpanAgg>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(BTreeMap::new()),
    })
}

/// Looks up (or registers) the counter `name`. The returned reference
/// is `'static`: counters live for the process (they are leaked once).
/// Prefer [`counter!`](crate::counter!) on hot paths — it caches this lookup per call
/// site.
pub fn counter(name: &str) -> &'static Counter {
    let mut map = registry().counters.lock().unwrap();
    if let Some(c) = map.get(name) {
        return c;
    }
    let c: &'static Counter = Box::leak(Box::new(Counter::default()));
    map.insert(name.to_owned(), c);
    c
}

/// Looks up (or registers) the gauge `name`.
pub fn gauge(name: &str) -> &'static Gauge {
    let mut map = registry().gauges.lock().unwrap();
    if let Some(g) = map.get(name) {
        return g;
    }
    let g: &'static Gauge = Box::leak(Box::new(Gauge::default()));
    map.insert(name.to_owned(), g);
    g
}

/// Looks up (or registers) the histogram `name`. Prefer
/// [`histogram!`](crate::histogram!) on hot paths — it caches this lookup per call site.
pub fn histogram(name: &str) -> &'static Histogram {
    let mut map = registry().histograms.lock().unwrap();
    if let Some(h) = map.get(name) {
        return h;
    }
    let h: &'static Histogram = Box::leak(Box::new(Histogram::default()));
    map.insert(name.to_owned(), h);
    h
}

thread_local! {
    /// The active span-name stack of this thread.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard created by [`span`]; records elapsed time on drop.
pub struct SpanGuard {
    /// `None` when recording was disabled at entry.
    active: Option<(String, Instant)>,
}

/// Opens a span named `name` nested under the spans currently open on
/// this thread; the full path (`"a/b/name"`) is aggregated on drop.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let path = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.join("/")
    });
    SpanGuard {
        active: Some((path, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((path, start)) = self.active.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos();
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut spans = registry().spans.lock().unwrap();
        let agg = spans.entry(path).or_default();
        agg.count += 1;
        agg.total_ns += elapsed;
        agg.max_ns = agg.max_ns.max(elapsed);
    }
}

/// Zeros all counters and clears all gauges and span aggregates.
/// Registered counters/gauges stay registered (references stay valid).
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().values() {
        c.reset();
    }
    for g in reg.gauges.lock().unwrap().values() {
        g.value.store(0f64.to_bits(), Ordering::Relaxed);
    }
    for h in reg.histograms.lock().unwrap().values() {
        h.reset();
    }
    reg.spans.lock().unwrap().clear();
}

/// Takes a point-in-time copy of every metric, sorted by name.
/// Zero-valued counters, gauges, and histograms are skipped (they carry
/// no information and would bloat reports with every name ever
/// registered).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(name, c)| (name.clone(), c.get()))
        .filter(|(_, v)| *v != 0)
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .map(|(name, g)| (name.clone(), g.get()))
        .filter(|(_, v)| *v != 0.0)
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|(name, h)| h.stat(name))
        .filter(|h| !h.is_empty())
        .collect();
    let spans = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|(path, agg)| SpanStat {
            path: path.clone(),
            count: agg.count,
            total_s: agg.total_ns as f64 / 1e9,
            max_s: agg.max_ns as f64 / 1e9,
        })
        .collect();
    Snapshot {
        counters,
        gauges,
        histograms,
        spans,
    }
}

/// Cached-per-call-site counter handle (live form).
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __PSEP_OBS_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
            ::std::sync::OnceLock::new();
        *__PSEP_OBS_COUNTER.get_or_init(|| $crate::counter($name))
    }};
}

/// Cached-per-call-site gauge handle (live form).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __PSEP_OBS_GAUGE: ::std::sync::OnceLock<&'static $crate::Gauge> =
            ::std::sync::OnceLock::new();
        *__PSEP_OBS_GAUGE.get_or_init(|| $crate::gauge($name))
    }};
}

/// Cached-per-call-site histogram handle (live form).
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __PSEP_OBS_HISTOGRAM: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *__PSEP_OBS_HISTOGRAM.get_or_init(|| $crate::histogram($name))
    }};
}

/// Opens a named span guard: `let _s = psep_obs::span!("phase");`
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
