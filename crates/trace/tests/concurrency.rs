//! Concurrency and overhead contracts of the trace core.
//!
//! These tests exercise the crate the way the fitting stack uses it: global
//! counters incremented from inside real `cbmf-parallel` fork-joins, spans
//! nested across threads, and — the property the whole design leans on —
//! **zero allocation** on the disabled fast path, proven with a counting
//! global allocator rather than asserted by inspection.
//!
//! The binary runs without libtest (`harness = false`, see
//! `support/serial_harness.rs`): the tests run one after another on the
//! main thread, so the process-global registry and enable override need no
//! lock, and the counting allocator sees only the code under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cbmf_trace::{
    clear_enabled_override, reset, set_enabled, snapshot, span, Counter, Gauge, Json, ReportMeta,
};

#[path = "support/serial_harness.rs"]
mod serial_harness;

/// Counts heap allocations while `ARMED` is set; delegates to the system
/// allocator either way.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with the allocation counter armed and returns how many heap
/// allocations happened inside.
fn allocations_during(f: impl FnOnce()) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Counter increments from every worker of a `cbmf-parallel` fork-join land
/// in the same global cell — the aggregation the instrumented kernels rely
/// on — and the total is exact, not approximate.
fn counters_aggregate_exactly_across_fork_joins() {
    set_enabled(true);
    reset();
    static FORK: Counter = Counter::new("test.fork.adds");
    const N: usize = 10_000;
    // Tiny grain forces many chunks; with_threads(8) forces real spawns even
    // on a single-core host.
    let out = cbmf_parallel::with_threads(8, || {
        cbmf_parallel::par_map_indexed(N, 16, |i| {
            FORK.add(2);
            i as u64
        })
    });
    assert_eq!(out.len(), N);
    assert_eq!(FORK.get(), 2 * N as u64);
    // A second fork-join keeps accumulating into the same cell.
    cbmf_parallel::with_threads(4, || {
        cbmf_parallel::par_for_each_chunk(N, 32, |start, end| {
            FORK.add((end - start) as u64);
        })
    });
    assert_eq!(FORK.get(), 3 * N as u64);
    assert_eq!(snapshot().counters["test.fork.adds"], 3 * N as u64);
    clear_enabled_override();
}

/// Gauge `maximize` under concurrent writers keeps the global maximum:
/// the CAS loop must not lose the largest value to a race.
fn gauge_maximize_is_race_free() {
    set_enabled(true);
    reset();
    static PEAK: Gauge = Gauge::new("test.fork.peak");
    const N: usize = 4_000;
    cbmf_parallel::with_threads(8, || {
        cbmf_parallel::par_for_each_chunk(N, 16, |start, end| {
            for i in start..end {
                PEAK.maximize(i as f64);
            }
        })
    });
    assert_eq!(PEAK.get(), Some((N - 1) as f64));
    clear_enabled_override();
}

/// Span paths are per-thread: each fork-join worker builds its own root, so
/// a span opened inside a worker does not inherit the orchestrating
/// thread's open path, and all activations still aggregate by path.
fn spans_nest_per_thread_under_fork_join() {
    set_enabled(true);
    reset();
    {
        let _outer = span("orchestrate");
        cbmf_parallel::with_threads(8, || {
            cbmf_parallel::par_for_each_chunk(64, 8, |_start, _end| {
                let _w = span("worker_chunk");
            })
        });
        {
            let _inner = span("stitch");
        }
    }
    let snap = snapshot();
    assert_eq!(snap.spans["orchestrate"].count, 1);
    assert_eq!(snap.spans["orchestrate/stitch"].count, 1);
    // Worker spans rooted at their own thread, not under "orchestrate/".
    let worker = &snap.spans["worker_chunk"];
    assert!(worker.count >= 1);
    assert!(worker.min_ns <= worker.max_ns);
    assert!(!snap.spans.contains_key("orchestrate/worker_chunk"));
    clear_enabled_override();
}

/// The disabled fast path allocates nothing: counters, gauges and spans all
/// return after one relaxed atomic load. This is the contract that makes it
/// safe to leave instrumentation inside release kernels.
fn disabled_path_performs_zero_allocations() {
    set_enabled(false);
    static C: Counter = Counter::new("test.noalloc.counter");
    static G: Gauge = Gauge::new("test.noalloc.gauge");
    let allocs = allocations_during(|| {
        for i in 0..1_000 {
            C.add(3);
            C.inc();
            G.set(i as f64);
            G.maximize(i as f64);
            let _s = span("never_recorded");
        }
    });
    assert_eq!(allocs, 0, "disabled trace calls must not touch the heap");
    assert_eq!(C.get(), 0);
    assert_eq!(G.get(), None);
    clear_enabled_override();
}

/// A rendered run report survives a print → parse round trip bit-for-bit,
/// in both pretty and compact forms, and validates against the schema.
fn report_round_trips_through_serializer() {
    set_enabled(true);
    reset();
    static C: Counter = Counter::new("test.roundtrip.counter");
    C.add(41);
    {
        let _s = span("roundtrip_outer");
        let _t = span("roundtrip_inner");
    }
    let meta = ReportMeta::new("concurrency_test")
        .with("case", Json::Str("round_trip".to_string()))
        .with("samples", Json::Num(12.0));
    let doc = cbmf_trace::report::render_report(&meta, &snapshot());
    cbmf_trace::report::validate_report(&doc).expect("schema-valid report");

    let pretty = Json::parse(&doc.to_pretty()).expect("parse pretty");
    let compact = Json::parse(&doc.to_compact()).expect("parse compact");
    assert_eq!(pretty, doc);
    assert_eq!(compact, doc);

    let counters = doc.get("counters").and_then(Json::as_obj).unwrap();
    assert_eq!(
        counters
            .get("test.roundtrip.counter")
            .and_then(Json::as_u64),
        Some(41)
    );
    let spans = doc.get("spans").and_then(Json::as_obj).unwrap();
    assert!(spans.contains_key("roundtrip_outer/roundtrip_inner"));
    clear_enabled_override();
}

fn main() -> ExitCode {
    let mut tests: Vec<(&'static str, fn())> = vec![(
        "disabled_path_performs_zero_allocations",
        disabled_path_performs_zero_allocations,
    )];
    // The remaining contracts need the collection code compiled in.
    if cfg!(feature = "trace") {
        tests.extend([
            (
                "counters_aggregate_exactly_across_fork_joins",
                counters_aggregate_exactly_across_fork_joins as fn(),
            ),
            ("gauge_maximize_is_race_free", gauge_maximize_is_race_free),
            (
                "spans_nest_per_thread_under_fork_join",
                spans_nest_per_thread_under_fork_join,
            ),
            (
                "report_round_trips_through_serializer",
                report_round_trips_through_serializer,
            ),
        ]);
    }
    serial_harness::run(&tests)
}
