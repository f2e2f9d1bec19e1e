use cbmf_linalg::Matrix;
use rand::Rng;

use crate::dataset::{StateData, TunableProblem};
use crate::error::CbmfError;
use crate::model::PerStateModel;
use crate::ols::dictionary_dim;
use crate::omp::{best_unselected, choose_theta, ls_on_support, selection_scores};

/// Configuration for the S-OMP baseline.
#[derive(Debug, Clone)]
pub struct SompConfig {
    /// Candidate numbers of selected basis functions, cross-validated.
    pub theta_candidates: Vec<usize>,
    /// Cross-validation folds (the paper's C).
    pub cv_folds: usize,
}

impl Default for SompConfig {
    fn default() -> Self {
        SompConfig {
            theta_candidates: vec![4, 8, 16, 32, 48],
            cv_folds: 4,
        }
    }
}

/// Simultaneous orthogonal matching pursuit \[19\] — the state-of-the-art
/// baseline the paper compares against.
///
/// S-OMP exploits sparsity *and* the shared model template: at every greedy
/// step one basis function is chosen by maximizing the summed correlation
/// over all K states (paper eq. 33), so all states share one support; the
/// coefficients are then solved per state by least squares. What it ignores
/// — and what C-BMF adds — is the correlation of coefficient *magnitudes*
/// across states.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, Somp, SompConfig, TunableProblem};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let mut rng = cbmf_stats::seeded_rng(5);
/// let mut xs = Vec::new();
/// let mut ys = Vec::new();
/// for k in 0..3 {
///     let x = Matrix::from_fn(20, 8, |_, _| cbmf_stats::normal::sample(&mut rng));
///     let w = 1.0 + 0.1 * k as f64;
///     let y: Vec<f64> = (0..20).map(|i| w * x[(i, 5)]).collect();
///     xs.push(x);
///     ys.push(y);
/// }
/// let problem = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear)?;
/// let cfg = SompConfig { theta_candidates: vec![1], cv_folds: 4 };
/// let model = Somp::new(cfg).fit(&problem, &mut rng)?;
/// assert_eq!(model.support(), &[5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Somp {
    config: SompConfig,
}

impl Somp {
    /// Creates the fitter with the given configuration.
    pub fn new(config: SompConfig) -> Self {
        Somp { config }
    }

    /// Fits the model, cross-validating the sparsity level θ.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if no sparsity candidates are given.
    /// * [`CbmfError::TooFewSamples`] if a state cannot support the folds.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
    ) -> Result<PerStateModel, CbmfError> {
        let _span = cbmf_trace::span("somp_fit");
        let cfg = &self.config;
        let theta = choose_theta(
            problem,
            &cfg.theta_candidates,
            cfg.cv_folds,
            rng,
            fit_with_theta,
        )?;
        fit_with_theta(problem, theta)
    }
}

/// Greedy joint selection (eq. 33) of up to `theta` basis functions with a
/// per-state least-squares solve on the shared support after every step.
/// Each step scores the residuals against the whole dictionary
/// ([`selection_scores`]), `O(K·N·(M + |S|))`.
fn fit_with_theta(problem: &TunableProblem, theta: usize) -> Result<PerStateModel, CbmfError> {
    let k = problem.num_states();
    let m = problem.num_basis();
    // Per-state least squares needs |support| < N_k.
    let min_n = problem
        .states()
        .iter()
        .map(StateData::len)
        .min()
        .expect("nonempty");
    let cap = theta.min(min_n.saturating_sub(1)).max(1).min(m);

    let states: Vec<&StateData> = problem.states().iter().collect();
    let mut support: Vec<usize> = Vec::with_capacity(cap);
    let mut coeffs = Matrix::zeros(k, 0);
    for _ in 0..cap {
        // ξ_{k,m} summed over states (eq. 33) with per-state normalization.
        let coeff_rows: Vec<&[f64]> = (0..k).map(|ki| coeffs.row(ki)).collect();
        let score = selection_scores(m, &states, &support, &coeff_rows);
        let Some(best) = best_unselected(&score, &support) else {
            break;
        };
        support.push(best);
        // Solve the coefficients on the current (unsorted) support.
        coeffs = Matrix::zeros(k, support.len());
        for (ki, st) in states.iter().enumerate() {
            let sol = ls_on_support(&st.basis, &st.y, &support)?;
            coeffs.row_mut(ki).copy_from_slice(&sol);
        }
    }
    let (support, coeffs) = sort_by_support(&support, &coeffs);
    assemble_model(problem, support, coeffs)
}

/// Sorts a greedy support ascending and permutes the coefficient columns
/// along.
pub(crate) fn sort_by_support(support: &[usize], coeffs: &Matrix) -> (Vec<usize>, Matrix) {
    let mut order: Vec<usize> = (0..support.len()).collect();
    order.sort_by_key(|&i| support[i]);
    let sorted: Vec<usize> = order.iter().map(|&i| support[i]).collect();
    (sorted, coeffs.select_cols(&order))
}

/// Wraps a shared (support, coefficients) pair as a predictable model.
pub(crate) fn assemble_model(
    problem: &TunableProblem,
    support: Vec<usize>,
    coeffs: Matrix,
) -> Result<PerStateModel, CbmfError> {
    let intercepts = (0..problem.num_states())
        .map(|k| problem.intercept_for(k, &support, coeffs.row(k)))
        .collect();
    PerStateModel::new(
        problem.basis_spec(),
        dictionary_dim(problem),
        support,
        coeffs,
        intercepts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasisSpec;
    use cbmf_stats::{normal, seeded_rng};

    /// K states sharing the template {1, 4, 7} with smoothly varying
    /// magnitudes — the structure S-OMP is designed for.
    fn shared_template_problem(
        k: usize,
        n: usize,
        d: usize,
        noise: f64,
        seed: u64,
    ) -> TunableProblem {
        let mut rng = seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| normal::sample(&mut rng));
            let w = 1.0 + 0.04 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    w * (2.0 * x[(i, 1)] - 1.5 * x[(i, 4)] + 0.8 * x[(i, 7)])
                        + noise * normal::sample(&mut rng)
                })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap()
    }

    #[test]
    fn recovers_shared_support_exactly() {
        let problem = shared_template_problem(4, 25, 30, 0.01, 31);
        let mut rng = seeded_rng(1);
        let model = Somp::new(SompConfig {
            theta_candidates: vec![3],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        assert_eq!(model.support(), &[1, 4, 7]);
        assert!(model.modeling_error(&problem).unwrap() < 0.05);
    }

    #[test]
    fn joint_selection_beats_per_state_omp_with_few_samples() {
        // With very few samples per state, pooling the selection across
        // states is exactly what makes S-OMP win.
        let problem = shared_template_problem(8, 9, 40, 0.2, 32);
        let test = shared_template_problem(8, 50, 40, 0.0, 33);
        let mut rng = seeded_rng(2);
        let somp = Somp::new(SompConfig {
            theta_candidates: vec![3],
            cv_folds: 3,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        let omp = crate::Omp::new(crate::OmpConfig {
            theta_candidates: vec![3],
            cv_folds: 3,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        let e_somp = somp.modeling_error(&test).unwrap();
        let e_omp = omp.modeling_error(&test).unwrap();
        assert!(
            e_somp < e_omp,
            "S-OMP ({e_somp:.4}) must beat per-state OMP ({e_omp:.4}) here"
        );
    }

    #[test]
    fn cross_validation_avoids_overfitting_theta() {
        let problem = shared_template_problem(4, 16, 30, 0.3, 34);
        let test = shared_template_problem(4, 60, 30, 0.0, 35);
        let mut rng = seeded_rng(3);
        let cv_model = Somp::new(SompConfig {
            theta_candidates: vec![2, 3, 5, 12],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        let overfit_model = Somp::new(SompConfig {
            theta_candidates: vec![12],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        let e_cv = cv_model.modeling_error(&test).unwrap();
        let e_over = overfit_model.modeling_error(&test).unwrap();
        assert!(e_cv <= e_over + 1e-9, "cv {e_cv} vs fixed-12 {e_over}");
    }

    #[test]
    fn all_states_share_one_support() {
        let problem = shared_template_problem(5, 20, 25, 0.05, 36);
        let mut rng = seeded_rng(4);
        let model = Somp::new(SompConfig {
            theta_candidates: vec![3],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        // Every state has (generically) nonzero coefficients on the shared
        // support — unlike the per-state OMP union.
        for k in 0..5 {
            for j in 0..model.support().len() {
                assert_ne!(model.coefficients()[(k, j)], 0.0);
            }
        }
    }

    #[test]
    fn empty_candidates_rejected() {
        let problem = shared_template_problem(2, 10, 10, 0.0, 37);
        let mut rng = seeded_rng(5);
        assert!(matches!(
            Somp::new(SompConfig {
                theta_candidates: vec![],
                cv_folds: 3
            })
            .fit(&problem, &mut rng),
            Err(CbmfError::InvalidInput { .. })
        ));
    }

    #[test]
    fn support_is_sorted_with_matching_columns() {
        let problem = shared_template_problem(3, 20, 20, 0.01, 38);
        let mut rng = seeded_rng(6);
        let model = Somp::new(SompConfig {
            theta_candidates: vec![3],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        let mut sorted = model.support().to_vec();
        sorted.sort_unstable();
        assert_eq!(model.support(), sorted.as_slice());
        // The dominant basis (index 1, weight 2.0) must carry the largest
        // coefficient magnitude in every state.
        let pos = model.support().iter().position(|&s| s == 1).unwrap();
        for k in 0..3 {
            let c_main = model.coefficients()[(k, pos)].abs();
            for j in 0..model.support().len() {
                assert!(c_main >= model.coefficients()[(k, j)].abs() - 1e-9);
            }
        }
    }
}
