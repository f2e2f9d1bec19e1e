use rand::Rng;

use cbmf_linalg::Matrix;

use crate::dataset::TunableProblem;
use crate::error::CbmfError;
use crate::model::PerStateModel;
use crate::ols::dictionary_dim;
use crate::omp::{build_folds, split_problem};

/// Configuration of the coordinate-descent lasso / elastic-net baseline.
#[derive(Debug, Clone)]
pub struct ElasticNetConfig {
    /// Regularization path, as fractions of λ_max (the smallest ℓ1 strength
    /// that zeroes every coefficient), cross-validated. Fitted in descending
    /// order so each path point warm-starts from the previous solution.
    pub lambda_rel: Vec<f64>,
    /// Mix between the ℓ1 and ℓ2 penalties in `(0, 1]`: `1.0` is the pure
    /// lasso, smaller values blend in ridge shrinkage (the elastic net).
    pub l1_ratio: f64,
    /// Cross-validation folds used to select the path point.
    pub cv_folds: usize,
    /// Maximum coordinate-descent sweeps per path point.
    pub max_sweeps: usize,
    /// Convergence tolerance on the maximum coefficient change per sweep,
    /// relative to the largest coefficient magnitude.
    pub tol: f64,
}

impl Default for ElasticNetConfig {
    fn default() -> Self {
        ElasticNetConfig {
            lambda_rel: vec![0.3, 0.1, 0.03, 0.01, 0.003],
            l1_ratio: 1.0,
            cv_folds: 4,
            max_sweeps: 500,
            tol: 1e-8,
        }
    }
}

/// Per-state lasso / elastic net solved by cyclic coordinate descent — the
/// convex single-task baseline of the backend comparison:
///
/// ```text
/// min_αₖ  ½‖y_k − B_k·α_k‖²  +  λ₁·Σ_j |α_{k,j}|  +  ½λ₂·Σ_j α_{k,j}² ,
/// ```
///
/// independently per state `k`, on internally unit-normalized columns.
/// Unlike S-OMP or C-BMF it shares nothing across states — which is exactly
/// what the accuracy-vs-cost bench uses it to demonstrate.
///
/// The solver works on one normalized `M × M` Gram per state, built at fit
/// time from [`StateData::t_gram`](crate::dataset::StateData::t_gram) and
/// [`bty`](crate::dataset::StateData::bty): each coordinate update is a
/// covariance-style residual-correlation update, swept serially per state,
/// so the fit is bitwise identical at any `RAYON_NUM_THREADS` by
/// construction. Convergence uses an active-set schedule: after a full
/// sweep, only the nonzero coordinates are iterated until they stabilize,
/// then one more full sweep checks whether any coordinate re-enters.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, ElasticNet, ElasticNetConfig, TunableProblem};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let mut rng = cbmf_stats::seeded_rng(8);
/// let x = Matrix::from_fn(30, 10, |_, _| cbmf_stats::normal::sample(&mut rng));
/// let y: Vec<f64> = (0..30).map(|i| 2.0 * x[(i, 3)]).collect();
/// let problem = TunableProblem::from_samples(&[x], &[y], BasisSpec::Linear)?;
/// let model = ElasticNet::new(ElasticNetConfig::default()).fit(&problem, &mut rng)?;
/// assert!(model.support().contains(&3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ElasticNet {
    config: ElasticNetConfig,
}

/// The scalar soft-thresholding operator `S(z, γ) = sign(z)·max(|z|−γ, 0)`.
fn soft_threshold(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// One state's normalized quadratic pieces: the unit-column Gram `G̃`, the
/// normalized correlations `B̃ᵀy`, and the normalization scales.
struct NormalizedState {
    gram: Matrix,
    bty: Vec<f64>,
    scales: Vec<f64>,
}

impl NormalizedState {
    fn build(st: &crate::dataset::StateData) -> Self {
        let g = st.t_gram();
        let scales: Vec<f64> = st.col_norms().to_vec();
        let m = scales.len();
        let gram = Matrix::from_fn(m, m, |j, k| g[(j, k)] / (scales[j] * scales[k]));
        let bty: Vec<f64> = st.bty().iter().zip(&scales).map(|(v, s)| v / s).collect();
        NormalizedState { gram, bty, scales }
    }

    /// λ_max of the pure-ℓ1 part: the smallest penalty that zeroes the
    /// whole state (all coordinates fail the soft threshold at α = 0).
    fn lambda_max(&self) -> f64 {
        self.bty.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()))
    }
}

impl ElasticNet {
    /// Creates the fitter with the given configuration.
    pub fn new(config: ElasticNetConfig) -> Self {
        ElasticNet { config }
    }

    /// Fits the model, cross-validating the regularization strength over
    /// the warm-started path.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the path is empty, a path point is
    ///   not finite and positive, or `l1_ratio` is outside `(0, 1]`.
    /// * [`CbmfError::NonFiniteData`] for NaN/∞ anywhere in the problem
    ///   (same contract as the robust constructors — adversarial input
    ///   surfaces as a typed error, never a panic).
    /// * [`CbmfError::TooFewSamples`] if a state cannot support the folds.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
    ) -> Result<PerStateModel, CbmfError> {
        self.check_config()?;
        problem.validate()?;
        let path = self.descending_path();
        let lambda_rel = if path.len() == 1 {
            path[0]
        } else {
            let folds = build_folds(problem, self.config.cv_folds, rng)?;
            let mut errs = vec![0.0_f64; path.len()];
            for c in 0..self.config.cv_folds {
                let (train, test) = split_problem(problem, &folds, c)?;
                for (model, err) in self.fit_path(&train, &path)?.iter().zip(&mut errs) {
                    *err += model.modeling_error(&test)?;
                }
            }
            // Ties resolve to the heaviest candidate: `errs` follows the
            // descending path, and strict `<` keeps the first (sparsest)
            // minimum.
            let mut best = 0;
            for (i, &e) in errs.iter().enumerate() {
                if e < errs[best] {
                    best = i;
                }
            }
            path[best]
        };
        let to_selected: Vec<f64> = path
            .iter()
            .copied()
            .filter(|&lr| lr >= lambda_rel)
            .collect();
        let mut models = self.fit_path(problem, &to_selected)?;
        Ok(models.pop().expect("path contains the selected point"))
    }

    /// Fits the whole descending path on one problem, warm-starting each
    /// point from the previous solution, and assembles one model per point.
    fn fit_path(
        &self,
        problem: &TunableProblem,
        path: &[f64],
    ) -> Result<Vec<PerStateModel>, CbmfError> {
        let k = problem.num_states();
        let m = problem.num_basis();
        let states: Vec<NormalizedState> = problem
            .states()
            .iter()
            .map(NormalizedState::build)
            .collect();
        // alpha[point][state] is reused across path points (warm start).
        let mut alpha: Vec<Vec<f64>> = vec![vec![0.0; m]; k];
        let mut per_point: Vec<Matrix> = Vec::with_capacity(path.len());
        for &lambda_rel in path {
            for (st, a) in states.iter().zip(&mut alpha) {
                self.descend_state(st, lambda_rel, a);
            }
            let mut coeffs = Matrix::zeros(k, m);
            for (ki, a) in alpha.iter().enumerate() {
                for (j, &v) in a.iter().enumerate() {
                    coeffs[(ki, j)] = v;
                }
            }
            per_point.push(coeffs);
        }
        per_point
            .into_iter()
            .map(|normalized| Self::assemble(problem, &states, &normalized))
            .collect()
    }

    /// Cyclic coordinate descent on one state at one path point, updating
    /// `alpha` in place (the warm start). Serial by design: determinism
    /// across thread counts comes from never splitting this loop.
    fn descend_state(&self, st: &NormalizedState, lambda_rel: f64, alpha: &mut [f64]) {
        let m = alpha.len();
        let lambda = lambda_rel * st.lambda_max() / self.config.l1_ratio;
        let l1 = lambda * self.config.l1_ratio;
        let l2 = lambda * (1.0 - self.config.l1_ratio);
        // Residual correlations rc_j = (B̃ᵀy)_j − (G̃·α)_j, maintained
        // incrementally as coordinates move.
        let mut rc: Vec<f64> = (0..m)
            .map(|j| {
                let mut v = st.bty[j];
                for (kk, &a) in alpha.iter().enumerate() {
                    if a != 0.0 {
                        v -= st.gram[(j, kk)] * a;
                    }
                }
                v
            })
            .collect();
        let mut sweeps = 0usize;
        loop {
            // Full sweep over every coordinate; collect the active set.
            let full_change = self.sweep(st, l1, l2, alpha, &mut rc, None);
            sweeps += 1;
            let active: Vec<usize> = (0..m).filter(|&j| alpha[j] != 0.0).collect();
            // Inner sweeps over the active set until it stabilizes.
            while sweeps < self.config.max_sweeps {
                let change = self.sweep(st, l1, l2, alpha, &mut rc, Some(&active));
                sweeps += 1;
                if change <= self.tol_for(alpha) {
                    break;
                }
            }
            // Converged when the full sweep itself moved nothing material
            // (KKT holds for the inactive coordinates too).
            if full_change <= self.tol_for(alpha) || sweeps >= self.config.max_sweeps {
                return;
            }
        }
    }

    /// One coordinate-descent sweep over `subset` (or all coordinates),
    /// returning the largest coefficient change.
    fn sweep(
        &self,
        st: &NormalizedState,
        l1: f64,
        l2: f64,
        alpha: &mut [f64],
        rc: &mut [f64],
        subset: Option<&[usize]>,
    ) -> f64 {
        let m = alpha.len();
        let mut max_change = 0.0_f64;
        let mut step = |j: usize, alpha: &mut [f64], rc: &mut [f64]| {
            let gjj = st.gram[(j, j)];
            let z = rc[j] + gjj * alpha[j];
            let num = soft_threshold(z, l1);
            let den = gjj + l2;
            // A zero-variance (or subnormal) column has gjj ≈ 0: its
            // numerator is already 0 after thresholding, so the coordinate
            // stays out rather than dividing 0/0.
            let new = if num == 0.0 || den <= 0.0 || !den.is_finite() {
                0.0
            } else {
                num / den
            };
            let delta = new - alpha[j];
            if delta != 0.0 {
                // The Gram is symmetric, so row j doubles as column j.
                for (r, g) in rc.iter_mut().zip(st.gram.row(j)) {
                    *r -= g * delta;
                }
                alpha[j] = new;
            }
            max_change = max_change.max(delta.abs());
        };
        match subset {
            Some(idx) => {
                for &j in idx {
                    step(j, alpha, rc);
                }
            }
            None => {
                for j in 0..m {
                    step(j, alpha, rc);
                }
            }
        }
        max_change
    }

    fn tol_for(&self, alpha: &[f64]) -> f64 {
        let max_coef = alpha.iter().fold(0.0_f64, |acc, v| acc.max(v.abs()));
        self.config.tol * max_coef.max(1e-12)
    }

    /// De-normalizes one path point's coefficients, extracts the support
    /// (union of nonzero coordinates across states), and assembles the
    /// model with raw-data intercepts.
    fn assemble(
        problem: &TunableProblem,
        states: &[NormalizedState],
        normalized: &Matrix,
    ) -> Result<PerStateModel, CbmfError> {
        let k = problem.num_states();
        let m = problem.num_basis();
        let support: Vec<usize> = (0..m)
            .filter(|&j| (0..k).any(|ki| normalized[(ki, j)] != 0.0))
            .collect();
        let mut coeffs = Matrix::zeros(k, support.len());
        for (pos, &j) in support.iter().enumerate() {
            for (ki, st) in states.iter().enumerate() {
                coeffs[(ki, pos)] = normalized[(ki, j)] / st.scales[j];
            }
        }
        let intercepts = (0..k)
            .map(|ki| problem.intercept_for(ki, &support, coeffs.row(ki)))
            .collect();
        PerStateModel::new(
            problem.basis_spec(),
            dictionary_dim(problem),
            support,
            coeffs,
            intercepts,
        )
    }

    /// The path sorted heaviest-first (warm-start order), deduplicated.
    fn descending_path(&self) -> Vec<f64> {
        let mut path = self.config.lambda_rel.clone();
        path.sort_by(|a, b| b.partial_cmp(a).expect("finite by check_config"));
        path.dedup();
        path
    }

    fn check_config(&self) -> Result<(), CbmfError> {
        if self.config.lambda_rel.is_empty() {
            return Err(CbmfError::InvalidInput {
                what: "no regularization candidates".to_string(),
            });
        }
        if self
            .config
            .lambda_rel
            .iter()
            .any(|v| !v.is_finite() || *v <= 0.0)
        {
            return Err(CbmfError::InvalidInput {
                what: "lambda_rel candidates must be finite and positive".to_string(),
            });
        }
        if !(self.config.l1_ratio > 0.0 && self.config.l1_ratio <= 1.0) {
            return Err(CbmfError::InvalidInput {
                what: format!("l1_ratio {} outside (0, 1]", self.config.l1_ratio),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasisSpec;
    use cbmf_stats::{normal, seeded_rng, SeededRng};

    fn single_lambda(lr: f64) -> ElasticNetConfig {
        ElasticNetConfig {
            lambda_rel: vec![lr],
            ..ElasticNetConfig::default()
        }
    }

    fn sparse_problem(
        k: usize,
        n: usize,
        d: usize,
        noise: f64,
        rng: &mut SeededRng,
    ) -> TunableProblem {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = cbmf_linalg::Matrix::from_fn(n, d, |_, _| normal::sample(rng));
            let w = 1.0 + 0.05 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| w * (2.0 * x[(i, 1)] - 1.2 * x[(i, 6)]) + noise * normal::sample(rng))
                .collect();
            xs.push(x);
            ys.push(y);
        }
        TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("valid")
    }

    #[test]
    fn recovers_sparse_support() {
        let mut rng = seeded_rng(220);
        let problem = sparse_problem(4, 25, 15, 0.05, &mut rng);
        let model = ElasticNet::new(single_lambda(0.05))
            .fit(&problem, &mut rng)
            .expect("fit");
        assert!(model.support().contains(&1), "{:?}", model.support());
        assert!(model.support().contains(&6), "{:?}", model.support());
    }

    #[test]
    fn lambda_max_zeroes_everything() {
        let mut rng = seeded_rng(221);
        let problem = sparse_problem(3, 15, 10, 0.1, &mut rng);
        let model = ElasticNet::new(single_lambda(1.0))
            .fit(&problem, &mut rng)
            .expect("fit");
        assert!(model.support().is_empty(), "{:?}", model.support());
    }

    #[test]
    fn lighter_regularization_fits_better_in_sample() {
        let mut rng = seeded_rng(222);
        let problem = sparse_problem(3, 30, 10, 0.05, &mut rng);
        let heavy = ElasticNet::new(single_lambda(0.6))
            .fit(&problem, &mut rng)
            .expect("fit");
        let light = ElasticNet::new(single_lambda(0.005))
            .fit(&problem, &mut rng)
            .expect("fit");
        let e_heavy = heavy.modeling_error(&problem).expect("eval");
        let e_light = light.modeling_error(&problem).expect("eval");
        assert!(e_light < e_heavy, "{e_light} !< {e_heavy}");
    }

    #[test]
    fn cross_validation_picks_usable_lambda() {
        let mut rng = seeded_rng(223);
        let train = sparse_problem(4, 15, 20, 0.2, &mut rng);
        let test = sparse_problem(4, 60, 20, 0.0, &mut rng);
        let model = ElasticNet::new(ElasticNetConfig::default())
            .fit(&train, &mut rng)
            .expect("fit");
        let err = model.modeling_error(&test).expect("eval");
        assert!(err < 0.2, "cv-selected lasso should be usable: {err}");
        assert!(model.support().contains(&1));
    }

    #[test]
    fn elastic_net_blend_matches_lasso_support_on_clean_data() {
        let mut rng = seeded_rng(224);
        let problem = sparse_problem(3, 30, 12, 0.02, &mut rng);
        let lasso = ElasticNet::new(single_lambda(0.05))
            .fit(&problem, &mut rng)
            .expect("fit");
        let enet = ElasticNet::new(ElasticNetConfig {
            l1_ratio: 0.5,
            ..single_lambda(0.05)
        })
        .fit(&problem, &mut rng)
        .expect("fit");
        for j in [1usize, 6] {
            assert!(lasso.support().contains(&j));
            assert!(enet.support().contains(&j));
        }
        // The ridge part only shrinks: the blended coefficients are no
        // larger in magnitude than the pure-lasso ones on the shared support.
        let pos = |m: &PerStateModel, j| m.support().iter().position(|&s| s == j).unwrap();
        for j in [1usize, 6] {
            let (lj, ej) = (pos(&lasso, j), pos(&enet, j));
            for ki in 0..3 {
                assert!(
                    enet.coefficients()[(ki, ej)].abs()
                        <= lasso.coefficients()[(ki, lj)].abs() + 1e-9
                );
            }
        }
    }

    #[test]
    fn warm_started_path_matches_cold_start() {
        // The selected point must not depend on having warm-started through
        // heavier path points: refitting cold at the same λ gives the same
        // model (CD on a convex objective converges to the same optimum).
        let mut rng = seeded_rng(225);
        let problem = sparse_problem(3, 25, 12, 0.1, &mut rng);
        let en = ElasticNet::new(single_lambda(0.05));
        let warm = en
            .fit_path(&problem, &[0.5, 0.2, 0.05])
            .expect("path")
            .pop()
            .expect("last point");
        let cold = en.fit_path(&problem, &[0.05]).expect("path").pop().unwrap();
        assert_eq!(warm.support(), cold.support());
        for (a, b) in warm
            .coefficients()
            .as_slice()
            .iter()
            .zip(cold.coefficients().as_slice())
        {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut rng = seeded_rng(226);
        let problem = sparse_problem(2, 10, 8, 0.1, &mut rng);
        for cfg in [
            ElasticNetConfig {
                lambda_rel: vec![],
                ..ElasticNetConfig::default()
            },
            ElasticNetConfig {
                lambda_rel: vec![0.1, f64::NAN],
                ..ElasticNetConfig::default()
            },
            ElasticNetConfig {
                lambda_rel: vec![-0.1],
                ..ElasticNetConfig::default()
            },
            ElasticNetConfig {
                l1_ratio: 0.0,
                ..ElasticNetConfig::default()
            },
            ElasticNetConfig {
                l1_ratio: 1.5,
                ..ElasticNetConfig::default()
            },
        ] {
            assert!(matches!(
                ElasticNet::new(cfg).fit(&problem, &mut rng),
                Err(CbmfError::InvalidInput { .. })
            ));
        }
    }

    #[test]
    fn duplicated_columns_fit_without_panic() {
        // A singular Gram (exactly collinear columns) must still produce a
        // finite model: the ℓ1 penalty picks one of the duplicates.
        let mut rng = seeded_rng(227);
        let n = 20;
        let mut x = cbmf_linalg::Matrix::from_fn(n, 8, |_, _| normal::sample(&mut rng));
        for i in 0..n {
            x[(i, 1)] = x[(i, 0)];
        }
        let y: Vec<f64> = (0..n).map(|i| 3.0 * x[(i, 0)]).collect();
        let problem = TunableProblem::from_samples(&[x], &[y], BasisSpec::Linear).expect("valid");
        let model = ElasticNet::new(single_lambda(0.01))
            .fit(&problem, &mut rng)
            .expect("fit");
        let pred = model.predict(0, &[1.0; 8]).expect("predict");
        assert!(pred.is_finite());
    }
}
