//! The serving counters count exactly one batch's shape. The trace registry
//! and its enable switch are process-wide, so this test lives alone in its
//! own binary: a concurrently running test that predicts would otherwise
//! add its samples to the counts.

use cbmf::{BasisSpec, PerStateModel};
use cbmf_linalg::Matrix;
use cbmf_serve::BatchPredictor;

#[test]
fn serve_counters_record_batch_shape() {
    let support = vec![0, 2, 4];
    let coeffs = Matrix::from_fn(3, support.len(), |k, j| (k * 3 + j) as f64 * 0.1);
    let model = PerStateModel::new(BasisSpec::LinearSquares, 6, support, coeffs, vec![0.0; 3])
        .expect("valid model");
    cbmf_trace::set_enabled(true);
    cbmf_trace::reset();
    BatchPredictor::new(model)
        .predict_batch(&Matrix::zeros(10, 6))
        .expect("shapes");
    let snap = cbmf_trace::snapshot();
    cbmf_trace::clear_enabled_override();
    assert_eq!(snap.counters.get("serve.predictions"), Some(&30));
    assert_eq!(snap.counters.get("serve.batches"), Some(&1));
    // 3 support columns (0, 2, 4) × 10 samples × 3 states.
    assert_eq!(snap.counters.get("serve.blocked_macs"), Some(&90));
    assert_eq!(snap.gauges.get("serve.batch_size"), Some(&10.0));
}
