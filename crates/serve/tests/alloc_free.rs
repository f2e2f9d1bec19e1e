//! Allocation contract of the batched prediction hot loop: after one
//! warm-up batch has seeded the pooled basis workspace, a steady-state
//! `predict_batch` call allocates **only the output matrix** — the per-row
//! basis evaluation and state loop never touch the heap. Proven with a
//! counting global allocator, matching the blocked-kernel test in
//! `cbmf-linalg`. The binary runs without libtest (`harness = false`) so
//! that no test-runner thread allocates while the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cbmf::{BasisSpec, PerStateModel};
use cbmf_linalg::Matrix;
use cbmf_serve::BatchPredictor;

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

fn test_model() -> PerStateModel {
    let d = 12;
    let support: Vec<usize> = (0..d).step_by(2).collect();
    let coeffs = Matrix::from_fn(4, support.len(), |k, j| {
        ((k * 7 + j * 3) as f64 * 0.23).sin()
    });
    let intercepts: Vec<f64> = (0..4).map(|k| k as f64 * 0.5 - 1.0).collect();
    PerStateModel::new(BasisSpec::LinearSquares, d, support, coeffs, intercepts)
        .expect("valid model")
}

/// Warm up, then count a steady-state batch; assert only the output matrix
/// allocates and the bits match the warm run.
fn assert_steady_state(predictor: &BatchPredictor, xs: &Matrix, label: &str) {
    // Serial so the row loop runs inline (a scoped thread spawn allocates
    // by design; the contract is about the per-row work itself).
    cbmf_parallel::with_threads(1, || {
        // Warm-up: seeds the pooled workspace's scratch buffer.
        let warm = predictor.predict_batch(xs).expect("shapes");
        std::hint::black_box(&warm);

        let mut out = None;
        let count = allocations_during(|| {
            out = Some(predictor.predict_batch(xs).expect("shapes"));
        });
        assert!(
            count <= 1,
            "{label}: steady-state predict_batch must allocate only the \
             output matrix, saw {count} allocations"
        );
        // Same bits as the warmed run: the pooled (dirty) scratch buffer
        // changes nothing.
        let out = out.expect("ran");
        for (p, q) in warm.as_slice().iter().zip(out.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    });
}

fn steady_state_batch_prediction_allocates_only_the_output() {
    let model = test_model();
    let d = model.num_variables();
    let predictor = BatchPredictor::new(model);
    let xs = Matrix::from_fn(200, d, |i, j| ((i * 9 + j) as f64 * 0.17).cos());
    assert_steady_state(&predictor, &xs, "default tile");
}

/// The fused support panel at a ragged tile height (200 = 28·7 + 4 rows).
fn steady_state_fused_batch_prediction_allocates_only_the_output() {
    let model = test_model();
    let d = model.num_variables();
    let predictor = BatchPredictor::new(model).with_tile_rows(7);
    let xs = Matrix::from_fn(200, d, |i, j| ((i * 9 + j) as f64 * 0.17).cos());
    assert_steady_state(&predictor, &xs, "7-row tile");
}

fn main() -> ExitCode {
    serial_harness::run(&[
        (
            "steady_state_batch_prediction_allocates_only_the_output",
            steady_state_batch_prediction_allocates_only_the_output,
        ),
        (
            "steady_state_fused_batch_prediction_allocates_only_the_output",
            steady_state_fused_batch_prediction_allocates_only_the_output,
        ),
    ])
}
