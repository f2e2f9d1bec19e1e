//! Dependency-free observability core for the C-BMF workspace.
//!
//! The paper's headline claim is a *cost* claim — C-BMF reaches S-OMP
//! accuracy with ≥2× fewer simulations — so the workspace needs to attribute
//! where time and samples go, and to hold that attribution stable in CI.
//! This crate supplies the vocabulary, in the same style as `cbmf-parallel`:
//! std-only, no registry dependencies, safe to call from any thread.
//!
//! - [`span`] — hierarchical wall-clock timing scopes. Nested spans build a
//!   `/`-separated path per thread (`fit/init`, `fit/em/iter`, …) and
//!   aggregate count/total/min/max nanoseconds per path.
//! - [`Counter`] — named monotone `u64` counters declared as statics at the
//!   use site (`static STEPS: Counter = Counter::new("cbmf.greedy.steps");`)
//!   so the hot path is one relaxed atomic add, with lazy registration into
//!   the global registry on first use. [`counter`] interns counters whose
//!   names are only known at runtime (per-model registry tallies).
//! - [`Gauge`] — named `f64` values with `set`/`maximize` semantics, for
//!   sizes and one-shot measurements.
//! - [`snapshot`] / [`report`] — a consistent view of everything recorded,
//!   and a versioned JSON run report for `results/trace_*.json`.
//!
//! # Enabling
//!
//! Two switches gate collection:
//!
//! 1. The compile-time `trace` cargo feature (default on). With the feature
//!    off, every call in this crate compiles to a no-op and the guard types
//!    are inert — zero overhead by construction.
//! 2. The `CBMF_TRACE` environment variable (`1`/`true`/`on`), read once per
//!    process, or an in-process [`set_enabled`] override (used by report
//!    binaries and tests). When disabled at runtime the fast path is one
//!    relaxed atomic load and **no allocation** — cheap enough to leave the
//!    instrumentation in release kernels.
//!
//! # Threading model
//!
//! Counters and gauges are global atomics: increments from worker threads
//! spawned by `cbmf-parallel` fork-joins land in the same cells as main-
//! thread increments, so aggregation across a scoped fan-out is automatic.
//! Span paths are per-thread (a worker's spans form their own root), which
//! keeps the guard free of cross-thread handoff; the fitting stack opens its
//! coarse spans on the orchestrating thread.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod json;
pub mod report;

pub use json::Json;
pub use report::{write_report, ReportMeta, REPORT_SCHEMA};

// ---------------------------------------------------------------------------
// Enablement
// ---------------------------------------------------------------------------

/// Runtime override state: 0 = consult `CBMF_TRACE`, 1 = forced on,
/// 2 = forced off.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// `CBMF_TRACE` resolved once per process.
static ENV_ENABLED: OnceLock<bool> = OnceLock::new();

/// True when trace collection is active: the `trace` feature is compiled in
/// *and* either [`set_enabled`]`(true)` is in force or `CBMF_TRACE` is set to
/// `1`/`true`/`on`.
///
/// This is the gate every recording call checks first; when it returns false
/// no allocation and no shared-state write happens.
#[inline]
pub fn enabled() -> bool {
    if !cfg!(feature = "trace") {
        return false;
    }
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => *ENV_ENABLED.get_or_init(|| {
            std::env::var("CBMF_TRACE")
                .map(|v| {
                    let v = v.trim();
                    v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
                })
                .unwrap_or(false)
        }),
    }
}

/// Forces collection on or off for the whole process, overriding
/// `CBMF_TRACE`. Report binaries call `set_enabled(true)` before fitting;
/// tests use it to exercise both paths deterministically.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Clears the [`set_enabled`] override, returning to the `CBMF_TRACE`
/// environment setting.
pub fn clear_enabled_override() {
    OVERRIDE.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Completed activations of this path.
    pub count: u64,
    /// Summed wall-clock nanoseconds.
    pub total_ns: u64,
    /// Fastest single activation.
    pub min_ns: u64,
    /// Slowest single activation.
    pub max_ns: u64,
}

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    gauges: Mutex<Vec<&'static Gauge>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(BTreeMap::new()),
    })
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A named monotone counter, declared as a `static` at its use site.
///
/// ```
/// use cbmf_trace::Counter;
/// static STEPS: Counter = Counter::new("cbmf.greedy.steps");
/// STEPS.inc();
/// ```
///
/// The first effective `add` registers the counter in the global registry so
/// [`snapshot`] can find it; subsequent adds are a single relaxed
/// `fetch_add`. Counter values survive [`reset`] as zeros (the taxonomy
/// stays visible in reports).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Creates an unregistered counter. `name` should be a dotted path,
    /// e.g. `"linalg.matmul.flops"` — the report sorts lexicographically.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` when tracing is enabled; no-op (one relaxed load) otherwise.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Current value (0 until the first enabled add).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Returns the process-wide [`Counter`] named `name`, creating it on first
/// use — the dynamic-name companion to `static` counters, for taxonomies
/// only known at runtime (per-model registry counters, per-endpoint tallies).
///
/// Interned instances are leaked intentionally: a counter must outlive every
/// thread that might still increment it, and [`snapshot`] keys by
/// `&'static str`. The leak is bounded by the number of *distinct* names the
/// process ever uses; callers should derive names from a bounded set (model
/// names, not request ids).
///
/// ```
/// let c = cbmf_trace::counter("registry.model.lna.hits");
/// c.inc();
/// assert!(std::ptr::eq(c, cbmf_trace::counter("registry.model.lna.hits")));
/// ```
pub fn counter(name: &str) -> &'static Counter {
    static INTERNED: OnceLock<Mutex<BTreeMap<String, &'static Counter>>> = OnceLock::new();
    let mut map = INTERNED
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(c) = map.get(name) {
        return c;
    }
    let leaked: &'static Counter = Box::leak(Box::new(Counter::new(Box::leak(
        String::from(name).into_boxed_str(),
    ))));
    map.insert(String::from(name), leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

/// A named `f64` gauge with last-write (`set`) and running-max (`maximize`)
/// semantics, stored as atomic bits. Like [`Counter`], gauges are statics
/// that lazily self-register.
pub struct Gauge {
    name: &'static str,
    bits: AtomicU64,
    is_set: AtomicBool,
    registered: AtomicBool,
}

impl Gauge {
    /// Creates an unregistered gauge.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            bits: AtomicU64::new(0),
            is_set: AtomicBool::new(false),
            registered: AtomicBool::new(false),
        }
    }

    /// The gauge's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().gauges.lock().unwrap().push(self);
        }
    }

    /// Overwrites the gauge when tracing is enabled.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        self.bits.store(v.to_bits(), Ordering::Relaxed);
        self.is_set.store(true, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (or the gauge is unset).
    #[inline]
    pub fn maximize(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.ensure_registered();
        if !self.is_set.swap(true, Ordering::Relaxed) {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
            return;
        }
        // CAS loop: concurrent maximize calls keep the largest value.
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value, `None` until the first enabled write.
    pub fn get(&self) -> Option<f64> {
        self.is_set
            .load(Ordering::Relaxed)
            .then(|| f64::from_bits(self.bits.load(Ordering::Relaxed)))
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of log2 buckets in a [`Histogram`]. Bucket `i` holds values whose
/// bit width is `i`: bucket 0 is exactly `{0}`, bucket 1 is `{1}`, bucket
/// `i >= 1` covers `[2^(i-1), 2^i - 1]`, and the last bucket absorbs
/// everything `>= 2^62`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A named log2-bucketed value histogram, declared as a `static` at its use
/// site like [`Counter`] — the serving layer records per-request latencies
/// into one and reports read p50/p95/p99 out of the snapshot.
///
/// ```
/// use cbmf_trace::Histogram;
/// static REQUEST_NS: Histogram = Histogram::new("server.request_ns");
/// REQUEST_NS.record(1_250);
/// ```
///
/// Recording is one relaxed `fetch_add` on the value's bucket plus exact
/// atomic min/max updates; buckets give ≤2× relative error on quantiles,
/// tightened by linear interpolation inside the winning bucket.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// Creates an unregistered histogram. `name` should be a dotted path
    /// ending in the unit, e.g. `"server.request_ns"`.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Bucket index of `v`: its bit width, capped at the last bucket.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation when tracing is enabled; no-op otherwise.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().histograms.lock().unwrap().push(self);
        }
        self.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copies out the current state (bucket counts and exact min/max).
    pub fn stats(&self) -> HistogramStats {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramStats {
            count,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram, with quantile estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStats {
    /// Total observations (sum of all buckets).
    pub count: u64,
    /// Exact smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Exact largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket counts; see [`HISTOGRAM_BUCKETS`] for the bucket ranges.
    pub buckets: Vec<u64>,
}

impl HistogramStats {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`): finds the bucket holding
    /// the target rank and interpolates linearly inside it, clamped to the
    /// exact observed min/max. Returns `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                // Bucket i covers [lo, hi]; place the rank proportionally.
                let lo = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let hi = if i == 0 {
                    0.0
                } else {
                    ((1u64 << (i - 1)) as f64) * 2.0 - 1.0
                };
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo + (hi - lo) * frac;
                return Some(est.clamp(self.min as f64, self.max as f64));
            }
            seen += n;
        }
        Some(self.max as f64)
    }
}

thread_local! {
    /// Names of the spans currently open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span activation; created by [`span`]. Dropping it
/// records the elapsed time under the thread's current span path.
#[must_use = "a span measures the scope it is bound to; bind it to a named local"]
pub struct SpanGuard {
    /// `Some` only when tracing was enabled at creation (the name was pushed
    /// onto the thread's stack and must be popped on drop).
    start: Option<Instant>,
}

/// Opens a span named `name` on the current thread. While the returned guard
/// lives, nested spans extend the path: `span("fit")` then `span("init")`
/// aggregates under `"fit/init"`.
///
/// When tracing is disabled this allocates nothing and records nothing.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { start: None };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

/// The `/`-joined path of the spans currently open on this thread —
/// `"fit/em"` inside `span("fit")` then `span("em")`. Empty when tracing is
/// disabled or no span is open. Worker threads of a parallel region have
/// their own (empty) stacks, so the path identifies the *orchestrating*
/// pipeline stage; fault-injection tooling uses it to scope failures to a
/// stage deterministically at any thread count.
pub fn current_path() -> String {
    if !enabled() {
        return String::new();
    }
    SPAN_STACK.with(|s| s.borrow().join("/"))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let elapsed = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut spans = registry().spans.lock().unwrap();
        let agg = spans.entry(path).or_insert(SpanStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        agg.count += 1;
        agg.total_ns = agg.total_ns.saturating_add(elapsed);
        agg.min_ns = agg.min_ns.min(elapsed);
        agg.max_ns = agg.max_ns.max(elapsed);
    }
}

// ---------------------------------------------------------------------------
// Snapshot / reset
// ---------------------------------------------------------------------------

/// A consistent copy of everything recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Aggregated spans keyed by `/`-separated path.
    pub spans: BTreeMap<String, SpanStats>,
    /// Registered counters and their values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Registered gauges that have been written at least once.
    pub gauges: BTreeMap<&'static str, f64>,
    /// Registered histograms and their bucket state.
    pub histograms: BTreeMap<&'static str, HistogramStats>,
}

impl Default for SpanStats {
    fn default() -> Self {
        SpanStats {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

/// Captures the current spans, counters and gauges.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let spans = reg.spans.lock().unwrap().clone();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|c| (c.name, c.get()))
        .collect();
    let gauges = reg
        .gauges
        .lock()
        .unwrap()
        .iter()
        .filter_map(|g| g.get().map(|v| (g.name, v)))
        .collect();
    let histograms = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|h| (h.name, h.stats()))
        .collect();
    Snapshot {
        spans,
        counters,
        gauges,
        histograms,
    }
}

/// Zeroes every registered counter, unsets every gauge, and clears all span
/// aggregates. Registration is kept, so previously-seen counters report as 0
/// rather than disappearing.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for g in reg.gauges.lock().unwrap().iter() {
        g.is_set.store(false, Ordering::Relaxed);
        g.bits.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.lock().unwrap().iter() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.min.store(u64::MAX, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
    reg.spans.lock().unwrap().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and the enable override are process-global, so the unit
    // tests of this module serialize on one lock to avoid interleaving.
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = test_lock();
        set_enabled(false);
        reset();
        static C: Counter = Counter::new("test.disabled.counter");
        static G: Gauge = Gauge::new("test.disabled.gauge");
        C.add(5);
        G.set(1.5);
        {
            let _s = span("test_disabled_span");
        }
        let snap = snapshot();
        assert_eq!(snap.counters.get("test.disabled.counter"), None);
        assert_eq!(snap.gauges.get("test.disabled.gauge"), None);
        assert!(!snap.spans.contains_key("test_disabled_span"));
        clear_enabled_override();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn counters_and_gauges_record_when_enabled() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        static C: Counter = Counter::new("test.enabled.counter");
        static G: Gauge = Gauge::new("test.enabled.gauge");
        C.add(3);
        C.inc();
        G.set(2.0);
        G.maximize(1.0); // lower: ignored
        G.maximize(7.5); // higher: kept
        let snap = snapshot();
        assert_eq!(snap.counters["test.enabled.counter"], 4);
        assert_eq!(snap.gauges["test.enabled.gauge"], 7.5);
        clear_enabled_override();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn nested_spans_build_paths() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _inner = span("inner");
            }
        }
        let snap = snapshot();
        assert_eq!(snap.spans["outer"].count, 1);
        assert_eq!(snap.spans["outer/inner"].count, 2);
        assert!(snap.spans["outer/inner"].total_ns >= 1_000_000);
        assert!(snap.spans["outer"].total_ns >= snap.spans["outer/inner"].total_ns);
        assert!(snap.spans["outer/inner"].min_ns <= snap.spans["outer/inner"].max_ns);
        clear_enabled_override();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn current_path_tracks_open_spans() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        assert_eq!(current_path(), "");
        {
            let _outer = span("outer");
            assert_eq!(current_path(), "outer");
            {
                let _inner = span("inner");
                assert_eq!(current_path(), "outer/inner");
                // Worker threads have their own (empty) span stacks.
                let remote = std::thread::spawn(current_path).join().unwrap();
                assert_eq!(remote, "");
            }
            assert_eq!(current_path(), "outer");
        }
        set_enabled(false);
        let _hidden = span("hidden");
        assert_eq!(current_path(), "", "disabled tracing yields empty paths");
        clear_enabled_override();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn histogram_records_and_estimates_quantiles() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        static H: Histogram = Histogram::new("test.hist.latency_ns");
        // 100 observations at 1000ns, 10 at 100_000ns: p50 must sit in the
        // low mode, p99 in the high one, min/max exact.
        for _ in 0..100 {
            H.record(1_000);
        }
        for _ in 0..10 {
            H.record(100_000);
        }
        let snap = snapshot();
        let stats = &snap.histograms["test.hist.latency_ns"];
        assert_eq!(stats.count, 110);
        assert_eq!(stats.min, 1_000);
        assert_eq!(stats.max, 100_000);
        let p50 = stats.quantile(0.5).unwrap();
        assert!((512.0..2048.0).contains(&p50), "p50 = {p50}");
        let p99 = stats.quantile(0.99).unwrap();
        assert!((65_536.0..=131_072.0).contains(&p99), "p99 = {p99}");
        // Quantiles never escape the exact observed range.
        assert!(stats.quantile(0.0).unwrap() >= 1_000.0);
        assert!(stats.quantile(1.0).unwrap() <= 100_000.0);
        clear_enabled_override();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn histogram_reset_and_disabled_paths() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        static H: Histogram = Histogram::new("test.hist.reset");
        H.record(42);
        assert_eq!(snapshot().histograms["test.hist.reset"].count, 1);
        reset();
        let stats = snapshot().histograms["test.hist.reset"].clone();
        assert_eq!(stats.count, 0);
        assert_eq!(stats.quantile(0.5), None);
        set_enabled(false);
        H.record(7);
        set_enabled(true);
        assert_eq!(
            snapshot().histograms["test.hist.reset"].count,
            0,
            "disabled records nothing"
        );
        clear_enabled_override();
    }

    #[test]
    #[cfg(feature = "trace")]
    fn interned_counters_are_shared_and_snapshot() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        let a = counter("test.interned.counter");
        let b = counter("test.interned.counter");
        assert!(std::ptr::eq(a, b), "same name must intern to one counter");
        a.add(2);
        b.inc();
        assert_eq!(snapshot().counters["test.interned.counter"], 3);
        reset();
        assert_eq!(snapshot().counters["test.interned.counter"], 0);
        clear_enabled_override();
    }

    #[test]
    fn histogram_bucketing_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    #[cfg(feature = "trace")]
    fn reset_zeroes_but_keeps_registration() {
        let _l = test_lock();
        set_enabled(true);
        reset();
        static C: Counter = Counter::new("test.reset.counter");
        C.add(9);
        assert_eq!(snapshot().counters["test.reset.counter"], 9);
        reset();
        assert_eq!(snapshot().counters["test.reset.counter"], 0);
        clear_enabled_override();
    }
}
