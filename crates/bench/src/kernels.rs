//! The shared linalg kernel suite behind `BENCH_kernels.json` and the CI
//! perf gate.
//!
//! One definition of the paper-scale kernels (M = 1300, K = 8, n = 100 →
//! NK = 800, plus the d = 1280 blocked-kernel rows) serves both consumers:
//! `ci_gate --write-baseline kernels` times them at full repetition count
//! and writes the committed baseline, and `ci_gate` re-times them quickly
//! and gates against that baseline. Keeping the workload definitions here
//! guarantees the two always measure the same thing.
//!
//! # Report
//!
//! [`report`] renders a run in the shared [`crate::gate::Report`] envelope:
//! per kernel, the serial and parallel minimum times are `min_time` rows
//! and everything else (medians, the naive before/after, thread counts) is
//! `info`. Cross-host comparison goes through **two** calibration probes:
//! [`calibration_ns`] — the minimum time of a fixed cache-resident naive
//! matmul — scales thresholds for rows bounded by core speed, and
//! [`calibration_dram_ns`] — a large strided triad — scales the rows that
//! are memory-bandwidth bound. Both probes are hand-rolled over plain
//! `Vec<f64>` and deliberately never touch `cbmf-linalg`, so a kernel
//! regression cannot mask itself by inflating the calibration in step
//! (pinned by the `calibration_independence` test).

use std::time::Instant;

use cbmf_linalg::block::{with_config, BlockConfig};
use cbmf_linalg::{Cholesky, Matrix};
use cbmf_trace::Json;

use crate::gate::Report;

/// Repetitions used for the committed baseline.
pub const BASELINE_REPS: usize = 9;

/// Repetitions used by the CI gate's quick re-run.
pub const QUICK_REPS: usize = 5;

/// Names of every kernel in the suite, in execution order. The `_1280`
/// entries are square paper-scale (d ≥ 1024) workloads that exercise the
/// cache-blocked packed kernels; the rest route through them or the
/// streaming kernels depending on size.
pub const KERNEL_NAMES: [&str; 7] = [
    "gram_1300x100",
    "gram_1280",
    "matmul_800",
    "matmul_t_800",
    "matmul_t_1280",
    "t_matmul_800",
    "cholesky_solve_mat_800x128",
];

/// One kernel's timings at a single repetition count.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name, one of [`KERNEL_NAMES`].
    pub name: &'static str,
    /// `(median, min)` nanoseconds per repetition under `with_threads(1)`.
    /// Scheduling noise only ever *adds* time, so the minimum is the stable
    /// statistic the gate compares.
    pub serial: (u128, u128),
    /// `(median, min)` nanoseconds per repetition at the thread width.
    pub parallel: (u128, u128),
    /// Minimum serial nanoseconds with blocking forced off (the pre-blocking
    /// streaming kernels) — recorded in the committed baseline for the
    /// paper-scale rows as the before/after evidence, skipped by the CI
    /// gate's quick re-runs.
    pub naive_serial_min_ns: Option<u128>,
    /// Resolved thread width the parallel timings ran at — recorded per row
    /// so a reader of a single kernel entry can tell whether its parallel
    /// numbers mean anything (on a one-thread host they are the serial path
    /// re-measured).
    pub threads: usize,
}

/// The two host-speed probes a bench document carries: [`Calibration::cache_ns`]
/// normalizes compute-bound rows across hosts, [`Calibration::dram_ns`]
/// normalizes bandwidth-bound rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Minimum nanoseconds of the cache-resident naive-matmul probe
    /// ([`calibration_ns`]).
    pub cache_ns: u128,
    /// Minimum nanoseconds of the strided-triad bandwidth probe
    /// ([`calibration_dram_ns`]).
    pub dram_ns: u128,
}

impl Calibration {
    /// Runs both probes once.
    pub fn measure() -> Self {
        Calibration {
            cache_ns: calibration_ns(),
            dram_ns: calibration_dram_ns(),
        }
    }

    /// Element-wise minimum — merging repeated probes converges on the
    /// host's true speed (noise only adds time).
    pub fn min_with(self, other: Calibration) -> Calibration {
        Calibration {
            cache_ns: self.cache_ns.min(other.cache_ns),
            dram_ns: self.dram_ns.min(other.dram_ns),
        }
    }
}

/// Fixed probe values for unit tests.
#[cfg(test)]
pub(crate) fn cal(cache_ns: u128, dram_ns: u128) -> Calibration {
    Calibration { cache_ns, dram_ns }
}

/// The shared host descriptor of a bench document: the trace layer's
/// `{threads, os, arch}` plus the microkernel ISA tier the blocked kernels
/// resolved to (`cbmf-trace` cannot record that itself — it sits below
/// `cbmf-linalg` in the crate graph — so the bench layer inserts it).
pub fn host_with_isa() -> Json {
    let mut host = cbmf_trace::report::host_meta();
    if let Json::Obj(m) = &mut host {
        let isa = cbmf_linalg::simd_isa_name().to_string();
        m.insert("simd_isa".to_string(), Json::Str(isa));
    }
    host
}

/// (median, minimum) wall-clock nanoseconds of `reps` runs of `f` (after
/// one warm-up).
pub fn time_stats(reps: usize, mut f: impl FnMut()) -> (u128, u128) {
    f(); // warm-up: page in buffers, warm caches
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    (times[times.len() / 2], times[0])
}

/// Times a fixed hand-rolled workload (a naive 384×384 triple-loop matmul)
/// that the gate uses to normalize kernel timings across hosts of different
/// single-core speed. Reports the *minimum* of its repetitions — the
/// noise-robust statistic.
///
/// Two properties matter here: the loop is deliberately independent of the
/// library kernels (a regression in `cbmf-linalg` cannot mask itself by
/// inflating the calibration in step), and at ~3.5 MB of f64 traffic per
/// repetition it runs long enough (tens of milliseconds) to experience the
/// same memory-system and scheduling conditions as the suite's 800-square
/// kernels — a microsecond-scale probe can slip into a quiet scheduling
/// window and report a host speed the long kernels never see.
pub fn calibration_ns() -> u128 {
    const N: usize = 384;
    let a: Vec<f64> = (0..N * N).map(|i| ((i * 7) % 23) as f64 - 11.0).collect();
    let b: Vec<f64> = (0..N * N).map(|i| ((i * 5) % 19) as f64 - 9.0).collect();
    let mut c = vec![0.0f64; N * N];
    time_stats(7, || {
        c.iter_mut().for_each(|v| *v = 0.0);
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                let row = &mut c[i * N..(i + 1) * N];
                let brow = &b[k * N..(k + 1) * N];
                for (cv, bv) in row.iter_mut().zip(brow) {
                    *cv += aik * bv;
                }
            }
        }
        std::hint::black_box(&mut c);
    })
    .1
}

/// Times a DRAM-regime probe: a strided triad `c[i] = a[i] + 0.5·b[i]` over
/// three 32 MiB arrays, visiting elements in 128-byte hops so every access
/// misses cache and hardware prefetch gains little. The minimum time is a
/// pure memory-bandwidth number the gate uses to scale thresholds for rows
/// whose working set exceeds the last-level cache — the cache-resident
/// probe above cannot normalize those (a host with a fast core but slow
/// DRAM looks "fast" to it while the bandwidth-bound rows run slow).
///
/// Like [`calibration_ns`], the loop is hand-rolled over plain `Vec<f64>`
/// and never routes through `cbmf-linalg`.
pub fn calibration_dram_ns() -> u128 {
    const N: usize = 1 << 22; // 4 Mi f64 per array → 96 MiB across the triad
    const STRIDE: usize = 16; // 128-byte hops: one new pair of lines per access
    let a: Vec<f64> = (0..N).map(|i| ((i * 3) % 17) as f64 - 8.0).collect();
    let b: Vec<f64> = (0..N).map(|i| ((i * 11) % 13) as f64 - 6.0).collect();
    let mut c = vec![0.0f64; N];
    time_stats(5, || {
        for off in 0..STRIDE {
            let mut i = off;
            while i < N {
                c[i] = a[i] + 0.5 * b[i];
                i += STRIDE;
            }
        }
        std::hint::black_box(&mut c);
    })
    .1
}

/// Runs the full kernel suite: each kernel timed serially and at `threads`
/// width, `reps` repetitions each. With `naive_compare` set, the paper-scale
/// rows are additionally timed with blocking forced off (min of up to 3
/// serial reps) to record the before/after in the committed baseline — the
/// CI gate's quick re-runs skip this, since the gate only reads the routed
/// timings.
pub fn run_suite(reps: usize, threads: usize, naive_compare: bool) -> Vec<KernelResult> {
    let naive_cfg = BlockConfig {
        min_macs: usize::MAX,
        min_solve_dim: usize::MAX,
        ..BlockConfig::default()
    };
    let time_kernel = |name: &'static str, naive: bool, f: &dyn Fn()| {
        let serial = time_stats(reps, || cbmf_parallel::with_threads(1, f));
        let parallel = time_stats(reps, || cbmf_parallel::with_threads(threads, f));
        // The naive reference is timed serially: the routing decision is
        // made on this thread (before any fan-out), so the thread-scoped
        // `with_config` override is seen by the whole kernel.
        let naive_serial_min_ns = (naive && naive_compare).then(|| {
            time_stats(reps.min(3), || {
                with_config(naive_cfg, || cbmf_parallel::with_threads(1, f))
            })
            .1
        });
        KernelResult {
            name,
            serial,
            parallel,
            naive_serial_min_ns,
            threads,
        }
    };
    let mut results = Vec::with_capacity(KERNEL_NAMES.len());

    // Cached per-state Gram BᵀB with B 100×1300 (M ≈ 1300 dictionary).
    let bt = Matrix::from_fn(1300, 100, |i, j| {
        ((i * 7 + j * 13) % 29) as f64 / 29.0 - 0.5
    });
    results.push(time_kernel("gram_1300x100", false, &|| {
        std::hint::black_box(bt.gram());
    }));

    // Paper-scale square Gram (d = 1280): routes through the blocked SYRK.
    let big = Matrix::from_fn(1280, 1280, |i, j| {
        ((i * 13 + j * 7) % 23) as f64 * 0.1 - 1.0
    });
    results.push(time_kernel("gram_1280", true, &|| {
        std::hint::black_box(big.gram());
    }));

    // Observation-space products at NK = K·n = 800.
    let a = Matrix::from_fn(800, 800, |i, j| ((i + 2 * j) % 17) as f64);
    let b = Matrix::from_fn(800, 800, |i, j| ((3 * i + j) % 13) as f64);
    results.push(time_kernel("matmul_800", false, &|| {
        std::hint::black_box(a.matmul(&b).expect("shapes"));
    }));
    results.push(time_kernel("matmul_t_800", false, &|| {
        std::hint::black_box(a.matmul_t(&b).expect("shapes"));
    }));

    // Paper-scale A·Bᵀ (d = 1280): routes through the blocked GEMM.
    let big2 = Matrix::from_fn(1280, 1280, |i, j| {
        ((i * 5 + j * 11) % 19) as f64 * 0.1 - 0.9
    });
    results.push(time_kernel("matmul_t_1280", true, &|| {
        std::hint::black_box(big.matmul_t(&big2).expect("shapes"));
    }));

    results.push(time_kernel("t_matmul_800", false, &|| {
        std::hint::black_box(a.t_matmul(&b).expect("shapes"));
    }));

    // Multi-RHS solve against the factored NK-dimensional covariance.
    let mut spd = a.matmul_t(&a).expect("square");
    spd.add_diag_mut(800.0 * 0.1);
    let chol = Cholesky::new(&spd).expect("spd");
    let rhs = Matrix::from_fn(800, 128, |i, j| ((i * 5 + j * 11) % 19) as f64 - 9.0);
    results.push(time_kernel("cholesky_solve_mat_800x128", false, &|| {
        std::hint::black_box(chol.solve_mat(&rhs).expect("solve"));
    }));

    results
}

/// Renders suite results as a `kernels` report.
pub fn report(results: &[KernelResult], reps: usize, calibration: Calibration) -> Report {
    let mut out = Report::new("kernels", Some(calibration));
    out.info("reps", reps as f64, "count");
    for r in results {
        let k = r.name;
        out.timing(&format!("{k}.serial"), r.serial);
        out.timing(&format!("{k}.parallel"), r.parallel);
        if let Some(naive) = r.naive_serial_min_ns {
            out.info(format!("{k}.naive_serial_min_ns"), naive as f64, "ns");
        }
        out.info(format!("{k}.threads"), r.threads as f64, "count");
        if r.threads > 1 {
            // On a one-thread host "parallel" re-measures the serial path,
            // so a ratio would be noise; it is recorded on wider hosts only.
            let speedup = r.serial.0 as f64 / r.parallel.0.max(1) as f64;
            out.info(
                format!("{k}.speedup"),
                (speedup * 1000.0).round() / 1000.0,
                "x",
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{baseline_path, Rule};

    fn result(
        name: &'static str,
        serial: u128,
        naive: Option<u128>,
        threads: usize,
    ) -> KernelResult {
        KernelResult {
            name,
            serial: (serial + 50, serial),
            parallel: (serial / 2, serial / 2 - 10),
            naive_serial_min_ns: naive,
            threads,
        }
    }

    /// The committed baseline must parse, cover the exact kernel set this
    /// suite runs, and be in canonical form. A failure here means
    /// `BENCH_kernels.json` needs regenerating via `ci_gate --write-baseline kernels`.
    #[test]
    fn committed_baseline_is_schema_stable() {
        let path = baseline_path("kernels");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Report::parse(&text).unwrap();
        for k in KERNEL_NAMES {
            for t in ["serial", "parallel"] {
                let row = doc.row(&format!("{k}.{t}_min_ns")).expect("kernel row");
                assert_eq!(row.rule, Rule::MinTime);
            }
        }
        assert_eq!(text, doc.render(), "BENCH_kernels.json is not canonical");
    }

    /// The acceptance evidence for the blocked kernels lives in the
    /// committed baseline: the paper-scale rows must carry the naive
    /// before/after and show at least the required 1.5× min-time win.
    #[test]
    fn committed_baseline_paper_rows_beat_naive() {
        let doc = Report::load(&baseline_path("kernels")).unwrap();
        for name in ["gram_1280", "matmul_t_1280"] {
            let naive = doc.value(&format!("{name}.naive_serial_min_ns")).unwrap();
            let blocked = doc.value(&format!("{name}.serial_min_ns")).unwrap();
            assert!(
                naive >= 1.5 * blocked,
                "{name}: blocked {blocked} ns is not ≥1.5x faster than naive {naive} ns"
            );
        }
    }

    #[test]
    fn rendered_report_validates_and_round_trips() {
        let results = [
            result("gram_1300x100", 1000, None, 4),
            result("matmul_t_1280", 2000, Some(9500), 4),
        ];
        let doc = report(&results, 9, cal(12345, 67890));
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
        assert_eq!(doc.value("gram_1300x100.speedup"), Some(2.1));
        assert_eq!(doc.value("matmul_t_1280.naive_serial_min_ns"), Some(9500.0));
        assert!(doc.row("gram_1300x100.naive_serial_min_ns").is_none());
        assert_eq!(
            doc.row("gram_1300x100.serial_median_ns").unwrap().rule,
            Rule::Info
        );
        assert_eq!(doc.calibration.unwrap().dram_ns, 67890);
        assert!(doc.host.get("simd_isa").and_then(Json::as_str).is_some());
    }

    #[test]
    fn single_core_rows_mark_instead_of_reporting_speedup() {
        let doc = report(&[result("matmul_800", 1000, None, 1)], 5, cal(100, 200));
        assert_eq!(doc.value("matmul_800.threads"), Some(1.0));
        assert!(doc.row("matmul_800.speedup").is_none());
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let text = report(&[result("matmul_800", 1000, None, 1)], 5, cal(100, 200)).render();
        assert!(Report::parse(&text).is_ok());
        let uncalibrated = text.replacen("{\"cache_ns\":100,\"dram_ns\":200}", "null", 1);
        assert!(Report::parse(&uncalibrated)
            .unwrap_err()
            .contains("calibration"));
        let zero_probe = text.replacen("\"cache_ns\":100", "\"cache_ns\":0", 1);
        assert!(Report::parse(&zero_probe).unwrap_err().contains("cache_ns"));
        let nan = text.replacen("\"value\":1000", "\"value\":null", 1);
        assert!(Report::parse(&nan).unwrap_err().contains("value"));
    }

    #[test]
    fn merge_min_takes_elementwise_minimum() {
        let mut acc = report(&[result("matmul_800", 90, Some(400), 4)], 5, cal(100, 200));
        let rerun = report(&[result("matmul_800", 75, None, 4)], 5, cal(120, 150));
        acc.merge_min(&rerun);
        assert_eq!(acc.value("matmul_800.serial_min_ns"), Some(75.0));
        assert_eq!(acc.value("matmul_800.serial_median_ns"), Some(125.0));
        assert_eq!(acc.value("matmul_800.naive_serial_min_ns"), Some(400.0));
        let c = acc.calibration.unwrap();
        assert_eq!((c.cache_ns, c.dram_ns), (100, 150));
    }

    #[test]
    fn median_ns_runs_warmup_plus_reps() {
        let mut calls = 0usize;
        let _ = time_stats(5, || calls += 1);
        assert_eq!(calls, 6, "one warm-up plus five timed repetitions");
    }
}
