//! Output checks, kept as pure functions of the outputs so the tests can
//! feed them doctored values. Each returns `Err` with a one-line reason.

use cbmf::FitOutcome;

use crate::reference::linear_mean;

/// The benchmark's own copy of a served model's mean path and prior: what
/// a served response must agree with.
#[derive(Debug, Clone)]
pub struct RefModel {
    /// Selected basis indices (linear basis: variable indices).
    pub support: Vec<usize>,
    /// Per-state coefficients over `support`.
    pub coeffs: Vec<Vec<f64>>,
    /// Per-state intercepts.
    pub intercepts: Vec<f64>,
    /// Prior variances λ over the whole dictionary.
    pub lambda: Vec<f64>,
    /// State correlation matrix R.
    pub r: Vec<Vec<f64>>,
    /// Noise standard deviation σ0.
    pub sigma0: f64,
    /// Per-state training input means.
    pub x_means: Vec<Vec<f64>>,
}

impl RefModel {
    /// Per-state `(mean, rounding bound)` of the MAP model at `x`.
    pub fn means(&self, x: &[f64]) -> Vec<(f64, f64)> {
        self.coeffs
            .iter()
            .zip(&self.intercepts)
            .map(|(c, &b)| linear_mean(b, &self.support, c, x))
            .collect()
    }

    /// Per-state `σ0² + prior variance` at `x`.
    pub fn var_bounds(&self, x: &[f64]) -> Vec<f64> {
        (0..self.intercepts.len())
            .map(|k| {
                crate::reference::prior_bound(
                    &self.lambda,
                    &self.r,
                    self.sigma0,
                    &self.x_means[k],
                    k,
                    x,
                )
            })
            .collect()
    }
}

/// Every served mean equals `intercept + Σ c·x` to within rounding (twice
/// the rounding bound of either evaluation order).
pub fn check_mean_response(model: &RefModel, x: &[f64], served: &[f64]) -> Result<(), String> {
    let want = model.means(x);
    if served.len() != want.len() {
        return Err(format!(
            "mean response has {} states, model {}",
            served.len(),
            want.len()
        ));
    }
    for (k, (&got, &(mean, tol))) in served.iter().zip(&want).enumerate() {
        if (got - mean).abs() > 2.0 * tol {
            return Err(format!(
                "state {k}: served mean {got:e} != reference {mean:e} (±{tol:e})"
            ));
        }
    }
    Ok(())
}

/// Every served variance lies in `(0, σ0² + prior variance]`; the upper
/// end allows one part in 10⁹ for the summation order.
pub fn check_variance_bounds(bounds: &[f64], served: &[f64]) -> Result<(), String> {
    if served.len() != bounds.len() {
        return Err(format!(
            "variance response has {} states, model {}",
            served.len(),
            bounds.len()
        ));
    }
    for (k, (&v, &b)) in served.iter().zip(bounds).enumerate() {
        if !(v > 0.0 && v <= b * (1.0 + 1e-9)) {
            return Err(format!("state {k}: variance {v:e} outside (0, {b:e}]"));
        }
    }
    Ok(())
}

/// Served mean and variance agree with the dense observation-space
/// posterior within a tolerance scaled by its condition estimate:
/// `n · ε / rcond` relative to the predictive variance (for the variance)
/// and to the predictive standard deviation plus the mean's magnitude (for
/// the mean).
pub fn check_dense_agreement(
    served: (f64, f64),
    dense: (f64, f64),
    observations: usize,
    rcond: f64,
) -> Result<(), String> {
    let rel = observations as f64 * f64::EPSILON / rcond;
    let (sm, sv) = served;
    let (dm, dv) = dense;
    let mean_tol = rel * (dm.abs() + dv.max(0.0).sqrt());
    let var_tol = rel * dv.abs().max(f64::MIN_POSITIVE);
    if (sm - dm).abs() > mean_tol {
        return Err(format!(
            "predictive mean {sm:e} vs dense {dm:e} (tol {mean_tol:e})"
        ));
    }
    if (sv - dv).abs() > var_tol {
        return Err(format!(
            "predictive variance {sv:e} vs dense {dv:e} (tol {var_tol:e})"
        ));
    }
    Ok(())
}

/// A stream's simulation accounting: the samples it reports, the rows its
/// chunk reports add up to, and the simulations the circuit layer ran must
/// be one number.
pub fn check_stream_accounting(
    total_samples: usize,
    appended_rows: &[usize],
    simulations: usize,
) -> Result<(), String> {
    let rows: usize = appended_rows.iter().sum();
    if total_samples != rows || rows != simulations {
        return Err(format!(
            "stream reports {total_samples} samples, chunks add {rows} rows, circuits ran {simulations}"
        ));
    }
    Ok(())
}

/// A stream's final held-out error meets the target its full-budget batch
/// fit set.
pub fn check_stream_target(final_error_pct: f64, target_pct: f64) -> Result<(), String> {
    if final_error_pct <= target_pct {
        Ok(())
    } else {
        Err(format!(
            "stream stopped at {final_error_pct:.4}% above its target {target_pct:.4}%"
        ))
    }
}

/// Bit equality of two coefficient/prior vectors.
pub fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Whether two fits gave the same model, bit for bit.
pub fn same_model(a: &FitOutcome, b: &FitOutcome) -> bool {
    a.model().support() == b.model().support()
        && bitwise_equal(
            a.model().coefficients().as_slice(),
            b.model().coefficients().as_slice(),
        )
        && bitwise_equal(a.model().intercepts(), b.model().intercepts())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RefModel {
        RefModel {
            support: vec![0, 2],
            coeffs: vec![vec![2.0, -1.0], vec![0.5, 0.25]],
            intercepts: vec![10.0, -3.0],
            lambda: vec![1.0, 0.01, 0.5],
            r: vec![vec![1.0, 0.9], vec![0.9, 1.0]],
            sigma0: 0.1,
            x_means: vec![vec![0.0; 3], vec![0.1, 0.0, -0.1]],
        }
    }

    #[test]
    fn served_means_pass_and_a_nudged_mean_fails() {
        let m = model();
        let x = [0.3, -0.7, 1.1];
        let mut served: Vec<f64> = m.means(&x).iter().map(|&(v, _)| v).collect();
        assert!(check_mean_response(&m, &x, &served).is_ok());
        served[1] *= 1.0 + 1e-6;
        assert!(check_mean_response(&m, &x, &served).is_err());
    }

    #[test]
    fn variance_past_the_prior_bound_fails() {
        let m = model();
        let x = [0.3, -0.7, 1.1];
        let bounds = m.var_bounds(&x);
        let mut served: Vec<f64> = bounds.iter().map(|b| 0.5 * b).collect();
        assert!(check_variance_bounds(&bounds, &served).is_ok());
        served[0] = bounds[0] * 1.01;
        assert!(check_variance_bounds(&bounds, &served).is_err());
        served[0] = 0.0;
        assert!(check_variance_bounds(&bounds, &served).is_err());
    }

    #[test]
    fn stream_count_off_by_one_chunk_fails() {
        // Chunks of 6, 4, 4 samples per state over 6 states.
        let rows = [36, 24, 24];
        assert!(check_stream_accounting(84, &rows, 84).is_ok());
        assert!(check_stream_accounting(84 + 24, &rows, 84).is_err());
        assert!(check_stream_accounting(84, &rows[..2], 84).is_err());
        assert!(check_stream_accounting(84, &rows, 84 - 24).is_err());
    }

    #[test]
    fn stream_above_target_fails() {
        assert!(check_stream_target(1.0, 1.05).is_ok());
        assert!(check_stream_target(1.1, 1.05).is_err());
    }

    #[test]
    fn dense_agreement_tolerance_follows_conditioning() {
        let dense = (5.0, 0.04);
        assert!(check_dense_agreement((5.0 + 1e-12, 0.04), dense, 100, 1e-3).is_ok());
        assert!(check_dense_agreement((5.0 + 1e-6, 0.04), dense, 100, 1e-3).is_err());
        assert!(check_dense_agreement((5.0, 0.04 * (1.0 + 1e-6)), dense, 100, 1e-3).is_err());
        // A worse-conditioned system earns a proportionally looser bound.
        assert!(check_dense_agreement((5.0 + 1e-9, 0.04), dense, 100, 1e-9).is_ok());
    }
}
