//! Memory bound of the fitting paths in the paper's regime, `N ≪ M`.
//!
//! Table 1 of the paper fits 1264 bases from about 15 samples per state, so
//! the data of one state is `N·M` floats while its Gram `B_kᵀB_k` would be
//! `M²`. Every path here — the C-BMF fit (Algorithm 1 and EM), S-OMP, OMP
//! and a two-chunk streaming fit — must finish with a peak live heap below
//! one state's `M²·8` bytes, which shows that none of them forms an `M × M`
//! matrix.
//!
//! Proven with a global allocator that tracks live and peak bytes. The
//! binary runs without libtest (`harness = false`, see
//! `crates/trace/tests/support/serial_harness.rs`) so that only the code
//! under test and its own workers allocate while a fit is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use cbmf::{
    BasisSpec, CbmfConfig, CbmfFit, Omp, OmpConfig, Somp, SompConfig, StreamConfig, StreamingFit,
    TunableProblem,
};
use cbmf_linalg::Matrix;
use cbmf_stats::{normal, seeded_rng};

#[path = "../../trace/tests/support/serial_harness.rs"]
mod serial_harness;

/// Tracks live heap bytes and their high-water mark; delegates to the
/// system allocator.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the byte tallies only read sizes and
// never touch the memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

const STATES: usize = 4;
const SAMPLES: usize = 12;
const VARIABLES: usize = 3000;
/// One state's Gram under the linear basis: `M²` doubles, 72 MB.
const ONE_GRAM_BYTES: usize = VARIABLES * VARIABLES * 8;

/// Samples `[start, start + n)` of each state: a sparse template on bases
/// 3, 10 and 2500 with state-dependent magnitudes, plus noise.
fn samples(start: usize, n: usize) -> (Vec<Matrix>, Vec<Vec<f64>>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for state in 0..STATES {
        let mut rng = seeded_rng(0xB0B ^ (state as u64) << 32 ^ start as u64);
        let x = Matrix::from_fn(n, VARIABLES, |_, _| normal::sample(&mut rng));
        let w = 1.0 + 0.05 * state as f64;
        let y: Vec<f64> = (0..n)
            .map(|i| {
                w * (2.0 * x[(i, 3)] - 1.2 * x[(i, 10)] + 0.7 * x[(i, 2500)])
                    + 0.05 * normal::sample(&mut rng)
            })
            .collect();
        xs.push(x);
        ys.push(y);
    }
    (xs, ys)
}

fn problem() -> TunableProblem {
    let (xs, ys) = samples(0, SAMPLES);
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("valid problem")
}

/// Runs `f` and asserts that the live heap never rose by a whole state's
/// Gram above where it started.
fn assert_peak_below_one_gram(what: &str, f: impl FnOnce()) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    let peak = PEAK.load(Ordering::SeqCst) - base;
    println!("{what}: peak live heap {peak} bytes (bound {ONE_GRAM_BYTES})");
    assert!(
        peak < ONE_GRAM_BYTES,
        "{what} peaked at {peak} live heap bytes, at least one M×M Gram ({ONE_GRAM_BYTES})"
    );
}

fn cbmf_fit_stays_below_one_gram() {
    let p = problem();
    assert_peak_below_one_gram("CbmfFit::fit", || {
        CbmfFit::new(CbmfConfig::small_problem())
            .fit(&p, &mut seeded_rng(1))
            .expect("C-BMF fit");
    });
}

fn somp_stays_below_one_gram() {
    let p = problem();
    assert_peak_below_one_gram("Somp::fit", || {
        Somp::new(SompConfig {
            theta_candidates: vec![2, 4, 8],
            cv_folds: 3,
        })
        .fit(&p, &mut seeded_rng(2))
        .expect("S-OMP fit");
    });
}

fn omp_stays_below_one_gram() {
    let p = problem();
    assert_peak_below_one_gram("Omp::fit", || {
        Omp::new(OmpConfig {
            theta_candidates: vec![2, 4, 8],
            cv_folds: 3,
        })
        .fit(&p, &mut seeded_rng(3))
        .expect("OMP fit");
    });
}

fn two_chunk_stream_stays_below_one_gram() {
    let first = samples(0, SAMPLES);
    let second = samples(SAMPLES, SAMPLES / 2);
    let engine = StreamingFit::new(
        CbmfFit::new(CbmfConfig::small_problem()),
        StreamConfig::default(),
    );
    assert_peak_below_one_gram("StreamingFit (two chunks)", || {
        let mut rng = seeded_rng(4);
        let mut session = engine.session(BasisSpec::Linear);
        session
            .absorb(&first.0, &first.1, &mut rng)
            .expect("cold chunk");
        session
            .absorb(&second.0, &second.1, &mut rng)
            .expect("warm chunk");
        assert_eq!(session.total_samples(), STATES * (SAMPLES + SAMPLES / 2));
    });
}

fn main() -> ExitCode {
    let tests: [(&'static str, fn()); 4] = [
        (
            "cbmf_fit_stays_below_one_gram",
            cbmf_fit_stays_below_one_gram,
        ),
        ("somp_stays_below_one_gram", somp_stays_below_one_gram),
        ("omp_stays_below_one_gram", omp_stays_below_one_gram),
        (
            "two_chunk_stream_stays_below_one_gram",
            two_chunk_stream_stays_below_one_gram,
        ),
    ];
    serial_harness::run(&tests)
}
