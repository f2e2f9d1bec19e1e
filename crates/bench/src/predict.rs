//! Serving-throughput benchmark: blocked batch prediction through
//! `cbmf_serve::BatchPredictor` at the paper's LNA scale, reported as
//! nanoseconds **per sample** at batch sizes 1 / 64 / 4096 and written to
//! `BENCH_predict.json` at the repository root.
//!
//! The workload is a hand-assembled [`PerStateModel`] (K = 8 states,
//! d = 160 variation variables, 24-term support) rather than a fit: the
//! serving hot path — basis evaluation plus the support-sparse
//! multiply-accumulate — is identical either way, and a synthetic model
//! keeps the benchmark independent of the fitting stack, so a fit-side
//! change cannot shift this baseline. The dimension is deliberately below
//! paper scale: at d = 1300 the 4096-row batch streams ~42 MB per call and
//! the benchmark degenerates into a DRAM-bandwidth probe, which the
//! cache-resident calibration workload cannot normalize across hosts (or
//! even across minutes on a busy one). At d = 160 the largest batch is
//! ~5 MB — the same memory regime as the kernel suite's 800² matrices.
//! Even so, the 4096-row batch is the suite's most bandwidth-sensitive
//! row, so its rows scale by the DRAM-probe ratio
//! ([`crate::kernels::calibration_dram_ns`], listed in [`DRAM_BATCHES`])
//! while the small batches stay on the cache-resident ratio.
//!
//! Each batch size is timed over enough back-to-back calls that one
//! repetition covers [`SAMPLES_PER_REP`] samples (a 1-sample batch is
//! microsecond-scale; timing a single call would measure the clock). As in
//! the kernel suite, the **minimum** per-sample time is what the CI gate
//! compares — scheduling noise only ever adds time.

use cbmf::{BasisSpec, PerStateModel};
use cbmf_linalg::Matrix;
use cbmf_serve::BatchPredictor;

use crate::gate::Report;
use crate::kernels::{time_stats, Calibration};

/// Batch sizes the suite times: latency (1), a cache tile (64), and a
/// Monte-Carlo-scale block (4096).
pub const BATCH_SIZES: [usize; 3] = [1, 64, 4096];

/// Batch sizes whose rows scale by the DRAM probe: the 4096-row batch
/// streams the largest working set of the suite and tracks memory
/// bandwidth, not core speed.
pub const DRAM_BATCHES: [usize; 1] = [4096];

/// States in the synthetic serving model (the paper's LNA has 32 tuning
/// states; 8 keeps a full suite run under a second per repetition while
/// still exercising the per-state loop).
pub const STATES: usize = 8;

/// Variation variables — sized so the 4096-row batch stays cache-regime
/// (see the module docs), not the paper's d = 1300.
pub const VARIABLES: usize = 160;

/// Support size, matching a typical converged θ.
pub const SUPPORT: usize = 24;

/// Samples covered by one timed repetition at every batch size (the batch
/// is replayed `SAMPLES_PER_REP / batch` times back to back).
pub const SAMPLES_PER_REP: usize = 8192;

/// Per-sample `(median, min)` nanoseconds for one batch size.
#[derive(Debug, Clone)]
pub struct PredictResult {
    /// Rows per `predict_batch` call.
    pub batch: usize,
    /// Under `with_threads(1)`.
    pub serial: (u128, u128),
    /// At the machine's thread width.
    pub parallel: (u128, u128),
}

/// The fixed synthetic serving model: deterministic support, coefficients
/// and intercepts, so every run times the identical workload.
pub fn serving_model() -> PerStateModel {
    let spec = BasisSpec::Linear;
    let m = spec.num_basis(VARIABLES);
    let stride = m / SUPPORT;
    let support: Vec<usize> = (0..SUPPORT).map(|i| i * stride).collect();
    let coeffs = Matrix::from_fn(STATES, SUPPORT, |k, j| {
        ((k * 31 + j * 17) % 23) as f64 / 23.0 - 0.5
    });
    let intercepts = (0..STATES).map(|k| 20.0 + k as f64 * 0.25).collect();
    PerStateModel::new(spec, VARIABLES, support, coeffs, intercepts).expect("valid synthetic model")
}

/// Deterministic query batch in the model's variable space.
fn query_batch(rows: usize) -> Matrix {
    Matrix::from_fn(rows, VARIABLES, |i, j| {
        ((i * VARIABLES + j) % 37) as f64 / 37.0 - 0.5
    })
}

/// Times `predict_batch` at every [`BATCH_SIZES`] entry, serially and at
/// `threads` width, `reps` repetitions each.
pub fn run_predict_suite(reps: usize, threads: usize) -> Vec<PredictResult> {
    let predictor = BatchPredictor::new(serving_model());
    let mut results = Vec::with_capacity(BATCH_SIZES.len());
    for batch in BATCH_SIZES {
        let xs = query_batch(batch);
        let calls = SAMPLES_PER_REP.div_ceil(batch);
        let samples = (batch * calls) as u128;
        let run = || {
            for _ in 0..calls {
                std::hint::black_box(predictor.predict_batch(&xs).expect("valid batch"));
            }
        };
        let per_sample =
            |(med, min): (u128, u128)| ((med / samples).max(1), (min / samples).max(1));
        results.push(PredictResult {
            batch,
            serial: per_sample(time_stats(reps, || cbmf_parallel::with_threads(1, run))),
            parallel: per_sample(time_stats(reps, || {
                cbmf_parallel::with_threads(threads, run)
            })),
        });
    }
    results
}

/// Key of one batch size in row ids (zero-padded so ids sort in numeric
/// order).
pub fn batch_key(batch: usize) -> String {
    format!("batch_{batch:04}")
}

/// Renders suite results as a `predict` report.
pub fn report(results: &[PredictResult], reps: usize, calibration: Calibration) -> Report {
    let mut out = Report::new("predict", Some(calibration));
    out.info("reps", reps as f64, "count");
    for (name, v) in [
        ("states", STATES),
        ("support", SUPPORT),
        ("variables", VARIABLES),
    ] {
        out.info(format!("workload.{name}"), v as f64, "count");
    }
    for r in results {
        let key = batch_key(r.batch);
        for (path, t) in [("serial", r.serial), ("parallel", r.parallel)] {
            let row = out.timing(&format!("{key}.{path}"), t);
            if DRAM_BATCHES.contains(&r.batch) {
                row.on_dram();
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::baseline_path;
    use crate::kernels::cal;

    #[test]
    fn suite_covers_every_batch_size_and_validates() {
        let results = run_predict_suite(1, 2);
        assert_eq!(results.len(), BATCH_SIZES.len());
        for (r, &b) in results.iter().zip(&BATCH_SIZES) {
            assert_eq!(r.batch, b);
            assert!(r.serial.1 >= 1 && r.serial.1 <= r.serial.0);
        }
        let doc = report(&results, 1, cal(12345, 67890));
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
        assert!(doc.row("batch_4096.serial_min_ns").unwrap().dram);
        assert!(!doc.row("batch_0064.serial_min_ns").unwrap().dram);
    }

    #[test]
    fn merge_min_takes_elementwise_minimum() {
        let mk = |s: u128, p: u128| PredictResult {
            batch: 64,
            serial: (s, s),
            parallel: (p, p),
        };
        let mut acc = report(&[mk(100, 90)], 1, cal(1, 1));
        acc.merge_min(&report(&[mk(80, 95)], 1, cal(1, 1)));
        assert_eq!(acc.value("batch_0064.serial_min_ns"), Some(80.0));
        assert_eq!(acc.value("batch_0064.parallel_min_ns"), Some(90.0));
    }

    #[test]
    fn validate_rejects_malformed_reports() {
        let mk = PredictResult {
            batch: 4096,
            serial: (10, 9),
            parallel: (10, 9),
        };
        let text = report(&[mk], 1, cal(100, 200)).render();
        assert!(Report::parse(&text).is_ok());
        // The DRAM probe belongs to timed rows only.
        let bad = text.replacen("\"id\":\"reps\",", "\"id\":\"reps\",\"probe\":\"dram\",", 1);
        assert!(Report::parse(&bad).unwrap_err().contains("probe"));
        let wrong_schema = text.replacen("cbmf-bench/1", "cbmf-bench-predict/3", 1);
        assert!(Report::parse(&wrong_schema).unwrap_err().contains("schema"));
    }

    /// The committed baseline must parse, cover the exact batch sizes this
    /// suite runs with the right probe, and be in canonical form. A failure
    /// here means `BENCH_predict.json` needs regenerating via
    /// `ci_gate --write-baseline predict`.
    #[test]
    fn committed_predict_baseline_is_schema_stable() {
        let text = std::fs::read_to_string(baseline_path("predict")).unwrap();
        let doc = Report::parse(&text).unwrap();
        for b in BATCH_SIZES {
            let row = doc
                .row(&format!("{}.serial_min_ns", batch_key(b)))
                .unwrap_or_else(|| panic!("baseline lacks {}", batch_key(b)));
            assert_eq!(row.dram, DRAM_BATCHES.contains(&b));
        }
        assert_eq!(doc.render(), text, "BENCH_predict.json is not canonical");
    }
}
