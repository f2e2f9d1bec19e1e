//! Zero-allocation contract of the blocked kernels: after one warm-up call
//! has populated the global workspace pool (and grown its packing buffers
//! to the configured panel sizes), steady-state blocked GEMM and SYRK calls
//! through the `_into` entry points perform **no heap allocation at all** —
//! the property that keeps the init sweep, EM iterations, and batched
//! prediction hot loops allocation-free.
//!
//! Proven with a counting global allocator (the same technique as the
//! trace crate's disabled-fast-path test), not asserted by inspection. The
//! binary runs without libtest (`harness = false`) so that no test-runner
//! thread allocates while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cbmf_linalg::block::{with_config, BlockConfig};
use cbmf_linalg::Matrix;

#[path = "../../trace/tests/support/serial_harness.rs"]
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

fn blocked_gemm_and_syrk_allocate_nothing_in_steady_state() {
    let cfg = BlockConfig {
        min_macs: 0, // force the blocked path regardless of size
        ..BlockConfig::default()
    };
    let a = Matrix::from_fn(96, 96, |i, j| ((i * 7 + j * 13) % 23) as f64 * 0.1 - 1.0);
    let b = Matrix::from_fn(96, 96, |i, j| ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9);
    let w: Vec<f64> = (0..96).map(|j| 0.1 + (j % 5) as f64 * 0.2).collect();
    let mut prod = Matrix::zeros(96, 96);
    let mut gram = Matrix::zeros(96, 96);

    // Serial so the kernels run inline (a scoped thread spawn allocates by
    // design; the per-call contract is about the kernels themselves).
    cbmf_parallel::with_threads(1, || {
        with_config(cfg, || {
            // Warm-up: first calls may grow the pooled packing buffers to
            // the panel sizes these shapes need (at most MC·KC / KC·NC).
            a.matmul_into(&b, &mut prod).expect("shapes");
            a.matmul_t_into(&b, &mut prod).expect("shapes");
            a.gram_into(&mut gram).expect("shapes");
            a.weighted_gram_into(&w, &mut gram).expect("weights");

            let count = allocations_during(|| {
                a.matmul_into(&b, &mut prod).expect("shapes");
                a.matmul_t_into(&b, &mut prod).expect("shapes");
                a.gram_into(&mut gram).expect("shapes");
                a.weighted_gram_into(&w, &mut gram).expect("weights");
            });
            assert_eq!(
                count, 0,
                "steady-state blocked GEMM/SYRK must not touch the heap"
            );
        });
    });
    std::hint::black_box((&prod, &gram));
}

/// The streaming (sub-threshold) kernels share the contract on their
/// `_into` variants: small products in the EM inner loop reuse caller
/// buffers with no per-call allocation either.
fn streaming_into_kernels_allocate_nothing() {
    let a = Matrix::from_fn(24, 16, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);
    let b = Matrix::from_fn(16, 20, |i, j| ((i + j * 5) % 11) as f64 - 5.0);
    let mut prod = Matrix::zeros(24, 20);
    let mut gram = Matrix::zeros(24, 24);
    cbmf_parallel::with_threads(1, || {
        a.matmul_into(&b, &mut prod).expect("shapes");
        a.gram_into(&mut gram).expect("shapes");
        let count = allocations_during(|| {
            a.matmul_into(&b, &mut prod).expect("shapes");
            a.gram_into(&mut gram).expect("shapes");
        });
        assert_eq!(count, 0, "streaming _into kernels must not allocate");
    });
}

fn main() -> ExitCode {
    serial_harness::run(&[
        (
            "blocked_gemm_and_syrk_allocate_nothing_in_steady_state",
            blocked_gemm_and_syrk_allocate_nothing_in_steady_state,
        ),
        (
            "streaming_into_kernels_allocate_nothing",
            streaming_into_kernels_allocate_nothing,
        ),
    ])
}
