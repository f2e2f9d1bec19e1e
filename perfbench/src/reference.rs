//! Independent references the workloads check the program against. They
//! are written from the model's equations with plain loops and share no
//! code with the program: the relative-RMS modeling error, the linear-basis
//! MAP mean, and the dense observation-space posterior predictive
//! (`C = σ0²·I + D·A·Dᵀ` with `A = R ⊗ diag(λ)`), factored with this
//! module's own Cholesky.

/// Relative RMS error of one state, `sqrt(Σ(p − t)² / Σt²)`.
pub fn relative_rms(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len(), "prediction/truth length");
    let num: f64 = pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum();
    let den: f64 = truth.iter().map(|t| t * t).sum();
    (num / den).sqrt()
}

/// The paper's modeling error: mean over states of the per-state relative
/// RMS error, in percent.
pub fn modeling_error_pct(per_state: &[(Vec<f64>, Vec<f64>)]) -> f64 {
    let sum: f64 = per_state.iter().map(|(p, t)| relative_rms(p, t)).sum();
    100.0 * sum / per_state.len() as f64
}

/// Linear-basis mean `intercept + Σ_j c_j · x[support_j]`, with the bound
/// on its rounding error: `n · ε · (|intercept| + Σ|c_j · x_j|)`.
pub fn linear_mean(intercept: f64, support: &[usize], coeffs: &[f64], x: &[f64]) -> (f64, f64) {
    let mut y = intercept;
    let mut mag = intercept.abs();
    for (c, &m) in coeffs.iter().zip(support) {
        y += c * x[m];
        mag += (c * x[m]).abs();
    }
    (y, (support.len() + 2) as f64 * f64::EPSILON * mag)
}

/// Lower Cholesky factor of a dense symmetric positive-definite matrix
/// stored row-major, or `None` if a pivot is not positive.
pub fn cholesky(a: &[f64], n: usize) -> Option<Vec<f64>> {
    let mut l = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[i * n + j];
            for p in 0..j {
                s -= l[i * n + p] * l[j * n + p];
            }
            if i == j {
                if s <= 0.0 || !s.is_finite() {
                    return None;
                }
                l[i * n + i] = s.sqrt();
            } else {
                l[i * n + j] = s / l[j * n + j];
            }
        }
    }
    Some(l)
}

/// Solves `L·w = b` for lower-triangular row-major `l`.
pub fn forward_solve(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let mut w = b.to_vec();
    for i in 0..n {
        let mut s = w[i];
        for p in 0..i {
            s -= l[i * n + p] * w[p];
        }
        w[i] = s / l[i * n + i];
    }
    w
}

/// Solves `Lᵀ·z = w` for lower-triangular row-major `l`.
pub fn back_solve(l: &[f64], n: usize, w: &[f64]) -> Vec<f64> {
    let mut z = w.to_vec();
    for i in (0..n).rev() {
        let mut s = z[i];
        for p in i + 1..n {
            s -= l[p * n + i] * z[p];
        }
        z[i] = s / l[i * n + i];
    }
    z
}

/// The dense observation-space posterior predictive of the C-BMF model
/// with a linear basis, built from raw training data and a fitted prior.
#[derive(Debug)]
pub struct DensePosterior {
    /// Per-state training inputs (centered), one row per sample.
    centered: Vec<Vec<Vec<f64>>>,
    x_means: Vec<Vec<f64>>,
    y_means: Vec<f64>,
    lambda: Vec<f64>,
    r: Vec<Vec<f64>>,
    sigma0: f64,
    l: Vec<f64>,
    alpha: Vec<f64>,
    n: usize,
    rcond: f64,
}

impl DensePosterior {
    /// Builds and factors `C` for per-state raw inputs `xs[k][i]` and
    /// responses `ys[k][i]` under prior `(λ, R, σ0)`.
    ///
    /// # Panics
    ///
    /// Panics if `C` is not positive definite, which a valid prior rules
    /// out.
    pub fn new(
        xs: &[Vec<Vec<f64>>],
        ys: &[Vec<f64>],
        lambda: &[f64],
        r: Vec<Vec<f64>>,
        sigma0: f64,
    ) -> Self {
        let k = xs.len();
        let m = lambda.len();
        let mut centered = Vec::with_capacity(k);
        let mut x_means = Vec::with_capacity(k);
        let mut y_means = Vec::with_capacity(k);
        let mut state_of = Vec::new();
        let mut yc = Vec::new();
        for (s, (x, y)) in xs.iter().zip(ys).enumerate() {
            let rows = x.len() as f64;
            let mean: Vec<f64> = (0..m)
                .map(|j| x.iter().map(|row| row[j]).sum::<f64>() / rows)
                .collect();
            let ym = y.iter().sum::<f64>() / rows;
            centered.push(
                x.iter()
                    .map(|row| row.iter().zip(&mean).map(|(v, mu)| v - mu).collect())
                    .collect::<Vec<Vec<f64>>>(),
            );
            yc.extend(y.iter().map(|v| v - ym));
            state_of.extend(std::iter::repeat_n(s, x.len()));
            x_means.push(mean);
            y_means.push(ym);
        }
        let rows: Vec<&Vec<f64>> = centered.iter().flatten().collect();
        let n = rows.len();
        let mut c = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let g: f64 = (0..m).map(|p| lambda[p] * rows[i][p] * rows[j][p]).sum();
                let v = r[state_of[i]][state_of[j]] * g;
                c[i * n + j] = v;
                c[j * n + i] = v;
            }
            c[i * n + i] += sigma0 * sigma0;
        }
        let l = cholesky(&c, n).expect("observation covariance is positive definite");
        let alpha = back_solve(&l, n, &forward_solve(&l, n, &yc));
        let diag: Vec<f64> = (0..n).map(|i| l[i * n + i]).collect();
        let (lo, hi) = diag.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| {
            (lo.min(d), hi.max(d))
        });
        DensePosterior {
            centered,
            x_means,
            y_means,
            lambda: lambda.to_vec(),
            r,
            sigma0,
            l,
            alpha,
            n,
            rcond: (lo / hi) * (lo / hi),
        }
    }

    /// Reciprocal condition estimate of `C` from its factor's diagonal.
    pub fn rcond(&self) -> f64 {
        self.rcond
    }

    /// Observations in the training system (`N·K`).
    pub fn observations(&self) -> usize {
        self.n
    }

    /// Predictive mean and variance at `(state, x)`.
    pub fn predict(&self, state: usize, x: &[f64]) -> (f64, f64) {
        let cs: Vec<f64> = x
            .iter()
            .zip(&self.x_means[state])
            .map(|(v, mu)| v - mu)
            .collect();
        let lc: Vec<f64> = cs.iter().zip(&self.lambda).map(|(c, l)| c * l).collect();
        let mut q = Vec::with_capacity(self.n);
        for (k, rows) in self.centered.iter().enumerate() {
            let rho = self.r[state][k];
            for row in rows {
                q.push(rho * row.iter().zip(&lc).map(|(b, w)| b * w).sum::<f64>());
            }
        }
        let mean = self.y_means[state] + q.iter().zip(&self.alpha).map(|(a, b)| a * b).sum::<f64>();
        let w = forward_solve(&self.l, self.n, &q);
        let prior: f64 = self.r[state][state] * cs.iter().zip(&lc).map(|(c, l)| c * l).sum::<f64>();
        let var = self.sigma0 * self.sigma0 + prior - w.iter().map(|v| v * v).sum::<f64>();
        (mean, var)
    }
}

/// `σ0² + R[s,s] · Σ_m λ_m (x_m − μ_m)²`: noise plus prior variance of the
/// response at `(state, x)` for training means `mu`.
pub fn prior_bound(
    lambda: &[f64],
    r: &[Vec<f64>],
    sigma0: f64,
    mu: &[f64],
    state: usize,
    x: &[f64],
) -> f64 {
    let prior: f64 = x
        .iter()
        .zip(mu)
        .zip(lambda)
        .map(|((v, m), l)| l * (v - m) * (v - m))
        .sum();
    sigma0 * sigma0 + r[state][state] * prior
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_rms_matches_hand_value() {
        // truth norm 5, residual norm 1.
        assert!((relative_rms(&[3.0, 5.0], &[3.0, 4.0]) - 0.2).abs() < 1e-15);
        let per_state = vec![
            (vec![3.0, 5.0], vec![3.0, 4.0]),
            (vec![1.0, 1.0], vec![1.0, 1.0]),
        ];
        assert!((modeling_error_pct(&per_state) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn linear_mean_matches_hand_value() {
        let (y, tol) = linear_mean(1.5, &[0, 2], &[2.0, -1.0], &[0.25, 9.0, 3.0]);
        assert_eq!(y, 1.5 + 0.5 - 3.0);
        assert!(tol > 0.0 && tol < 1e-14);
    }

    #[test]
    fn cholesky_solves_a_known_system() {
        // A = [[4, 2], [2, 3]] = L Lᵀ with L = [[2, 0], [1, √2]].
        let l = cholesky(&[4.0, 2.0, 2.0, 3.0], 2).unwrap();
        assert!((l[0] - 2.0).abs() < 1e-15 && (l[2] - 1.0).abs() < 1e-15);
        assert!((l[3] - 2f64.sqrt()).abs() < 1e-15);
        let z = back_solve(&l, 2, &forward_solve(&l, 2, &[6.0, 5.0]));
        // A·[1, 1] = [6, 5].
        assert!((z[0] - 1.0).abs() < 1e-14 && (z[1] - 1.0).abs() < 1e-14);
        assert!(cholesky(&[1.0, 2.0, 2.0, 1.0], 2).is_none());
    }

    /// With one state and R = I the model is Bayesian linear regression:
    /// weights w ~ N(0, diag(λ)), noise σ². Its weight-space posterior
    /// `S = (BᵀB/σ² + Λ⁻¹)⁻¹` gives mean `c*ᵀ S Bᵀ y / σ²` and variance
    /// `σ² + c*ᵀ S c*`, which the observation-space form must reproduce.
    #[test]
    fn single_state_reduces_to_bayesian_linear_regression() {
        let x = vec![
            vec![1.0, 0.5],
            vec![-1.0, 1.5],
            vec![2.0, -0.5],
            vec![0.0, -1.5],
        ];
        let y = vec![3.0, -1.0, 4.0, 2.0];
        let lambda = [2.0, 0.5];
        let sigma = 0.7;
        let dense = DensePosterior::new(
            std::slice::from_ref(&x),
            std::slice::from_ref(&y),
            &lambda,
            vec![vec![1.0]],
            sigma,
        );
        // Column means of x are [0.5, 0]; of y, 2.
        let b: Vec<[f64; 2]> = x.iter().map(|r| [r[0] - 0.5, r[1]]).collect();
        let yc: Vec<f64> = y.iter().map(|v| v - 2.0).collect();
        let s2 = sigma * sigma;
        let mut p = [[0.0; 2]; 2];
        let mut bty = [0.0; 2];
        for (row, yv) in b.iter().zip(&yc) {
            for i in 0..2 {
                bty[i] += row[i] * yv;
                for j in 0..2 {
                    p[i][j] += row[i] * row[j] / s2;
                }
            }
        }
        p[0][0] += 1.0 / lambda[0];
        p[1][1] += 1.0 / lambda[1];
        let det = p[0][0] * p[1][1] - p[0][1] * p[1][0];
        let s = [
            [p[1][1] / det, -p[0][1] / det],
            [-p[1][0] / det, p[0][0] / det],
        ];
        let w = [
            (s[0][0] * bty[0] + s[0][1] * bty[1]) / s2,
            (s[1][0] * bty[0] + s[1][1] * bty[1]) / s2,
        ];
        let xstar = [1.25, -0.75];
        let cs = [xstar[0] - 0.5, xstar[1]];
        let want_mean = 2.0 + cs[0] * w[0] + cs[1] * w[1];
        let want_var = s2
            + cs[0] * (s[0][0] * cs[0] + s[0][1] * cs[1])
            + cs[1] * (s[1][0] * cs[0] + s[1][1] * cs[1]);
        let (mean, var) = dense.predict(0, &xstar);
        assert!((mean - want_mean).abs() < 1e-12, "{mean} vs {want_mean}");
        assert!((var - want_var).abs() < 1e-12, "{var} vs {want_var}");
        let bound = prior_bound(&lambda, &[vec![1.0]], sigma, &[0.5, 0.0], 0, &xstar);
        assert!(var > 0.0 && var <= bound);
    }

    /// With R = I the states decouple: a two-state fit predicts each state
    /// exactly as a one-state fit on that state's data alone.
    #[test]
    fn identity_r_decouples_states() {
        let xa = vec![vec![1.0], vec![2.0], vec![4.0]];
        let ya = vec![1.0, 2.5, 3.0];
        let xb = vec![vec![-1.0], vec![0.5], vec![3.0]];
        let yb = vec![7.0, 6.0, 2.0];
        let lambda = [1.5];
        let both = DensePosterior::new(
            &[xa.clone(), xb.clone()],
            &[ya.clone(), yb.clone()],
            &lambda,
            vec![vec![1.0, 0.0], vec![0.0, 1.0]],
            0.3,
        );
        let only_b = DensePosterior::new(&[xb], &[yb], &lambda, vec![vec![1.0]], 0.3);
        let (m2, v2) = both.predict(1, &[1.0]);
        let (m1, v1) = only_b.predict(0, &[1.0]);
        assert!((m2 - m1).abs() < 1e-12 && (v2 - v1).abs() < 1e-12);
    }
}
