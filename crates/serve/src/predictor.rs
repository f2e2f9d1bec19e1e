//! The blocked batch prediction engine.
//!
//! Serving evaluates one fitted model at many variation samples — the
//! yield-estimation inner loop. The engine partitions the output rows into
//! cache-friendly tiles and writes each worker's rows of the output matrix
//! in place, so steady-state batches perform no per-row heap allocation
//! and results are bitwise identical to the per-sample scalar path at any
//! thread count (each output element depends only on its own row).
//!
//! # The fused basis → GEMM path
//!
//! Each tile evaluates **only the support columns** of its rows directly
//! into a packed `tile_rows × |support|` panel — the same layout the
//! blocked GEMM packs its left operand into — and accumulates all K states
//! from that panel with unit-stride reads and a transposed `|support| × K`
//! coefficient panel built once at construction. Per output element the
//! accumulation is `intercept + Σ_j coeff[j] · b_{support[j]}(x)` in
//! ascending `j`, the exact operation sequence of
//! [`PerStateModel::predict_from_basis`], and the support evaluations use
//! the same expressions as the full dictionary — so the output is bitwise
//! identical to per-sample [`PerStateModel::predict`] at any thread count.

use cbmf::{PerStateModel, PosteriorPredictive};
use cbmf_linalg::Matrix;
use cbmf_trace::{Counter, Gauge};

use crate::artifact::ModelArtifact;
use crate::error::ServeError;

/// Individual (sample, state) predictions served.
static SERVE_PREDICTIONS: Counter = Counter::new("serve.predictions");
/// Batch calls served.
static SERVE_BATCHES: Counter = Counter::new("serve.batches");
/// Multiply-accumulates performed by the blocked MAP path (N·K·|support|).
static SERVE_BLOCKED_MACS: Counter = Counter::new("serve.blocked_macs");
/// Sample count of the most recent batch.
static SERVE_BATCH_SIZE: Gauge = Gauge::new("serve.batch_size");

/// Default tile height: 64 rows ≈ a few KB of basis evaluations — resident
/// in L1/L2 while all K states consume them.
const DEFAULT_TILE_ROWS: usize = 64;

/// A blocked batch evaluator over a fitted model, with an optional exact
/// uncertainty path when the artifact carried posterior factors.
#[derive(Debug)]
pub struct BatchPredictor {
    model: PerStateModel,
    predictive: Option<PosteriorPredictive>,
    tile_rows: usize,
    /// `|support| × K` transpose of the model's coefficient block: entry
    /// `(j, state)` at `j * K + state`, so the fused per-sample loop reads
    /// all states' coefficients for one support column contiguously.
    coeffs_t: Vec<f64>,
}

/// Transposes the `K × |support|` coefficient block into the `j`-major
/// layout the fused accumulation streams.
fn transpose_coeffs(model: &PerStateModel) -> Vec<f64> {
    let k = model.num_states();
    let s = model.support().len();
    let coeffs = model.coefficients();
    let mut out = vec![0.0; s * k];
    for state in 0..k {
        for (j, &c) in coeffs.row(state).iter().enumerate() {
            out[j * k + state] = c;
        }
    }
    out
}

impl BatchPredictor {
    /// Serves a bare MAP model (mean predictions only).
    pub fn new(model: PerStateModel) -> Self {
        let coeffs_t = transpose_coeffs(&model);
        BatchPredictor {
            model,
            predictive: None,
            tile_rows: DEFAULT_TILE_ROWS,
            coeffs_t,
        }
    }

    /// Builds a predictor from a loaded artifact, rebuilding the posterior
    /// predictive when the artifact carries its factors.
    ///
    /// # Errors
    ///
    /// [`ServeError::Cbmf`] if the predictive parts are mutually
    /// inconsistent (a hand-edited artifact).
    pub fn from_artifact(artifact: &ModelArtifact) -> Result<Self, ServeError> {
        let predictive = artifact
            .predictive_parts()
            .map(|p| PosteriorPredictive::from_parts(p.clone()))
            .transpose()?;
        let model = artifact.model().clone();
        let coeffs_t = transpose_coeffs(&model);
        Ok(BatchPredictor {
            model,
            predictive,
            tile_rows: DEFAULT_TILE_ROWS,
            coeffs_t,
        })
    }

    /// Overrides the tile height (clamped to at least one row).
    #[must_use]
    pub fn with_tile_rows(mut self, rows: usize) -> Self {
        self.tile_rows = rows.max(1);
        self
    }

    /// The served model.
    pub fn model(&self) -> &PerStateModel {
        &self.model
    }

    /// Whether [`predict_batch_with_uncertainty`](Self::predict_batch_with_uncertainty)
    /// is available.
    pub fn has_uncertainty(&self) -> bool {
        self.predictive.is_some()
    }

    /// Evaluates the MAP model at every row of `xs` (N × d) for every
    /// state, returning the N × K mean matrix.
    ///
    /// Bitwise equal to calling [`PerStateModel::predict`] per (row, state)
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] if `xs` has the wrong column count.
    pub fn predict_batch(&self, xs: &Matrix) -> Result<Matrix, ServeError> {
        let (n, d) = xs.shape();
        if d != self.model.num_variables() {
            return Err(ServeError::Invalid(format!(
                "batch has {d} variables, model expects {}",
                self.model.num_variables()
            )));
        }
        let _span = cbmf_trace::span("serve_batch");
        let k = self.model.num_states();
        let support_len = self.model.support().len();
        SERVE_BATCHES.inc();
        SERVE_BATCH_SIZE.set(n as f64);
        SERVE_PREDICTIONS.add((n * k) as u64);
        SERVE_BLOCKED_MACS.add((n * k * support_len) as u64);

        let spec = self.model.basis_spec();
        let support = self.model.support();
        let s = support.len();
        let intercepts = self.model.intercepts();
        let tile = self.tile_rows;
        let mut out = Matrix::zeros(n, k);
        // Workers write their own rows of `out` in place; the support panel
        // is pooled workspace memory that the evaluator fully overwrites (so
        // dirty recycled buffers are safe), leaving the row loop free of
        // heap allocation in steady state.
        cbmf_parallel::par_rows_mut(out.as_mut_slice(), k.max(1), tile, |row0, rows| {
            let mut ws = cbmf_parallel::workspace::acquire();
            // A packed `tile × s` support panel, same row-major interleave
            // as the blocked GEMM's left-operand pack.
            let panel = ws.one(tile * s.max(1));
            let mut lo = 0;
            let nrows = rows.len() / k.max(1);
            while lo < nrows {
                let hi = (lo + tile).min(nrows);
                for local in lo..hi {
                    spec.eval_support_into(
                        xs.row(row0 + local),
                        support,
                        &mut panel[(local - lo) * s..(local - lo) * s + s],
                    );
                }
                for local in lo..hi {
                    let out_row = &mut rows[local * k..local * k + k];
                    out_row.copy_from_slice(intercepts);
                    let brow = &panel[(local - lo) * s..(local - lo) * s + s];
                    for (j, &b) in brow.iter().enumerate() {
                        let crow = &self.coeffs_t[j * k..j * k + k];
                        for (slot, &c) in out_row.iter_mut().zip(crow) {
                            *slot += c * b;
                        }
                    }
                }
                lo = hi;
            }
        });
        Ok(out)
    }

    /// Evaluates predictive mean **and variance** at every row of `xs` for
    /// every state, returning two N × K matrices.
    ///
    /// Each tile shares one multi-RHS triangular solve through
    /// [`PosteriorPredictive::predict_tile`]; results are bitwise equal to
    /// per-sample [`PosteriorPredictive::predict`] at any thread count.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] if the artifact carried no posterior factors
    /// or `xs` has the wrong column count; [`ServeError::Cbmf`] on a
    /// modeling-layer failure.
    pub fn predict_batch_with_uncertainty(
        &self,
        xs: &Matrix,
    ) -> Result<(Matrix, Matrix), ServeError> {
        let Some(predictive) = &self.predictive else {
            return Err(ServeError::Invalid(
                "artifact carries no posterior factors — re-save with ModelArtifact::with_predictive"
                    .to_string(),
            ));
        };
        let (n, d) = xs.shape();
        if d != self.model.num_variables() {
            return Err(ServeError::Invalid(format!(
                "batch has {d} variables, model expects {}",
                self.model.num_variables()
            )));
        }
        let _span = cbmf_trace::span("serve_batch_uncertainty");
        let k = predictive.num_states();
        SERVE_BATCHES.inc();
        SERVE_BATCH_SIZE.set(n as f64);
        SERVE_PREDICTIONS.add((n * k) as u64);

        let mut means = Matrix::zeros(n, k);
        let mut vars = Matrix::zeros(n, k);
        let tile = self.tile_rows;
        // Tiles run sequentially: the triangular solve inside predict_tile
        // already fans the tile's columns out over cbmf-parallel, and
        // nesting fork-joins would multiply thread counts for no gain.
        let mut lo = 0;
        while lo < n {
            let hi = (lo + tile).min(n);
            let rows: Vec<&[f64]> = (lo..hi).map(|i| xs.row(i)).collect();
            for state in 0..k {
                let col = predictive.predict_tile(state, &rows)?;
                for (local, (mean, var)) in col.into_iter().enumerate() {
                    means[(lo + local, state)] = mean;
                    vars[(lo + local, state)] = var;
                }
            }
            lo = hi;
        }
        Ok((means, vars))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbmf::BasisSpec;

    fn toy_model(states: usize, d: usize) -> PerStateModel {
        let support: Vec<usize> = (0..d).step_by(2).collect();
        let coeffs = Matrix::from_fn(states, support.len(), |k, j| {
            ((k * 7 + j * 3) as f64 * 0.23).sin()
        });
        let intercepts: Vec<f64> = (0..states).map(|k| k as f64 * 0.5 - 1.0).collect();
        PerStateModel::new(BasisSpec::LinearSquares, d, support, coeffs, intercepts).unwrap()
    }

    #[test]
    fn batch_matches_per_sample_bitwise_at_any_thread_count() {
        let model = toy_model(5, 9);
        let xs = Matrix::from_fn(131, 9, |i, j| ((i * 9 + j) as f64 * 0.17).cos());
        let predictor = BatchPredictor::new(model.clone()).with_tile_rows(16);
        let out1 = cbmf_parallel::with_threads(1, || predictor.predict_batch(&xs).unwrap());
        let out8 = cbmf_parallel::with_threads(8, || predictor.predict_batch(&xs).unwrap());
        for (p, q) in out1.as_slice().iter().zip(out8.as_slice()) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
        for i in 0..xs.rows() {
            for state in 0..5 {
                let scalar = model.predict(state, xs.row(i)).unwrap();
                assert_eq!(out8[(i, state)].to_bits(), scalar.to_bits());
            }
        }
    }

    #[test]
    fn odd_tile_boundaries_are_exact() {
        let model = toy_model(2, 4);
        let xs = Matrix::from_fn(7, 4, |i, j| (i + j) as f64 * 0.3);
        for tile in [1, 2, 3, 7, 64] {
            let predictor = BatchPredictor::new(model.clone()).with_tile_rows(tile);
            let out = predictor.predict_batch(&xs).unwrap();
            assert_eq!(out.shape(), (7, 2));
            for i in 0..7 {
                for state in 0..2 {
                    let scalar = model.predict(state, xs.row(i)).unwrap();
                    assert_eq!(out[(i, state)].to_bits(), scalar.to_bits());
                }
            }
        }
    }

    #[test]
    fn dimension_mismatch_and_missing_uncertainty_are_rejected() {
        let predictor = BatchPredictor::new(toy_model(2, 4));
        assert!(predictor.predict_batch(&Matrix::zeros(3, 5)).is_err());
        assert!(!predictor.has_uncertainty());
        assert!(predictor
            .predict_batch_with_uncertainty(&Matrix::zeros(3, 4))
            .is_err());
    }

    #[test]
    fn fused_and_materialized_paths_are_bitwise_identical() {
        // The reference materializes the full basis dictionary per sample
        // and gathers the support, the slow path the fused panel replaces.
        let model = toy_model(4, 11);
        let xs = Matrix::from_fn(157, 11, |i, j| ((i * 11 + j) as f64 * 0.073).sin() * 2.0);
        let mut basis = vec![0.0; model.basis_spec().num_basis(11)];
        for tile in [1, 5, 64] {
            let fused = BatchPredictor::new(model.clone()).with_tile_rows(tile);
            let a = fused.predict_batch(&xs).unwrap();
            for i in 0..xs.rows() {
                model.basis_spec().eval_into(xs.row(i), &mut basis);
                for state in 0..4 {
                    let want = model.predict_from_basis(state, &basis);
                    assert_eq!(a[(i, state)].to_bits(), want.to_bits(), "tile={tile}");
                }
            }
        }
    }
}
