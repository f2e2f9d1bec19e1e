//! Equivalence contract of the fused basis→GEMM serving path: for every
//! batch shape (empty tail, exact tile, tile + 1, multi-tile) and thread
//! count, the fused path returns **bitwise** the same matrix as a
//! materialized full-dictionary evaluation and as per-sample scalar
//! prediction ([`PerStateModel::predict`], the reference).

use cbmf::{BasisSpec, PerStateModel};
use cbmf_linalg::Matrix;
use cbmf_serve::BatchPredictor;

/// A model whose support mixes linear and centered-quadratic columns in
/// non-monotone order, so the fused support evaluation exercises both
/// column kinds and arbitrary gather patterns.
fn model() -> PerStateModel {
    let d = 10;
    let support = vec![0, 3, 4, 9, 10, 13, 17, 19];
    let coeffs = Matrix::from_fn(6, support.len(), |k, j| {
        ((k * 13 + j * 5) as f64 * 0.31).sin() * 1.5
    });
    let intercepts: Vec<f64> = (0..6).map(|k| (k as f64 * 0.7).cos()).collect();
    PerStateModel::new(BasisSpec::LinearSquares, d, support, coeffs, intercepts)
        .expect("valid model")
}

/// Per-sample reference bits in row-major (sample, state) order: the full
/// basis dictionary materialized per row, then the support gathered by
/// [`PerStateModel::predict_from_basis`]; checked against
/// [`PerStateModel::predict`] on the way.
fn materialized(model: &PerStateModel, xs: &Matrix) -> Vec<u64> {
    let spec = model.basis_spec();
    let mut basis = vec![0.0; spec.num_basis(model.num_variables())];
    let mut bits = Vec::new();
    for i in 0..xs.rows() {
        spec.eval_into(xs.row(i), &mut basis);
        for state in 0..model.num_states() {
            let v = model.predict_from_basis(state, &basis);
            let scalar = model.predict(state, xs.row(i)).unwrap();
            assert_eq!(v.to_bits(), scalar.to_bits(), "reference paths disagree");
            bits.push(v.to_bits());
        }
    }
    bits
}

fn batch(n: usize, d: usize) -> Matrix {
    Matrix::from_fn(n, d, |i, j| ((i * d + j) as f64 * 0.0137).sin() * 3.0 - 0.5)
}

#[test]
fn fused_is_bitwise_equal_to_materialized_and_per_sample_everywhere() {
    let model = model();
    let d = model.num_variables();
    let k = model.num_states();
    // One below / at / above the 64-row tile, a single row, and a
    // multi-tile batch large enough to split across every thread count.
    for n in [1usize, 63, 64, 65, 1024] {
        let xs = batch(n, d);
        let reference = materialized(&model, &xs);
        let predictor = BatchPredictor::new(model.clone());
        for threads in [1usize, 2, 4, 8] {
            let out =
                cbmf_parallel::with_threads(threads, || predictor.predict_batch(&xs).unwrap());
            assert_eq!(out.shape(), (n, k));
            for (got, want) in out.as_slice().iter().zip(&reference) {
                assert_eq!(got.to_bits(), *want, "n={n} threads={threads}");
            }
        }
    }
}

#[test]
fn fused_handles_ragged_tiles_and_tiny_tile_heights() {
    let model = model();
    let d = model.num_variables();
    let xs = batch(131, d);
    let want = materialized(&model, &xs);
    for tile in [1usize, 3, 7, 64, 200] {
        let out = BatchPredictor::new(model.clone())
            .with_tile_rows(tile)
            .predict_batch(&xs)
            .unwrap();
        for (p, q) in out.as_slice().iter().zip(&want) {
            assert_eq!(p.to_bits(), *q, "tile={tile}");
        }
    }
}

#[test]
fn fused_serves_linear_models_and_empty_support() {
    // Linear dictionary (the paper's default) and the degenerate
    // intercept-only model both round-trip through the fused path.
    let d = 5;
    let linear = PerStateModel::new(
        BasisSpec::Linear,
        d,
        vec![1, 2, 4],
        Matrix::from_fn(3, 3, |k, j| (k + j) as f64 * 0.5 - 1.0),
        vec![0.25, -0.5, 1.0],
    )
    .expect("valid model");
    let empty = PerStateModel::new(
        BasisSpec::Linear,
        d,
        Vec::new(),
        Matrix::zeros(2, 0),
        vec![3.5, -2.25],
    )
    .expect("valid model");
    for model in [linear, empty] {
        let xs = batch(70, d);
        let fused = BatchPredictor::new(model.clone())
            .predict_batch(&xs)
            .unwrap();
        for i in 0..70 {
            for state in 0..model.num_states() {
                let scalar = model.predict(state, xs.row(i)).unwrap();
                assert_eq!(fused[(i, state)].to_bits(), scalar.to_bits());
            }
        }
    }
}
