use cbmf_linalg::{Matrix, Qr};
use cbmf_stats::KFold;
use cbmf_trace::Counter;
use rand::Rng;

use crate::dataset::{StateData, TunableProblem};
use crate::error::CbmfError;
use crate::model::PerStateModel;
use crate::ols::dictionary_dim;

/// Greedy selection steps scored across every OMP/S-OMP/initializer loop
/// (one `selection_scores` sweep over the dictionary per step).
static GREEDY_STEPS: Counter = Counter::new("cbmf.greedy.steps");

/// Configuration for the per-state OMP baseline.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Candidate numbers of selected basis functions, cross-validated.
    pub theta_candidates: Vec<usize>,
    /// Cross-validation folds.
    pub cv_folds: usize,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            theta_candidates: vec![4, 8, 16, 32],
            cv_folds: 4,
        }
    }
}

/// Orthogonal matching pursuit fitted independently per state — the
/// classical sparse-regression baseline \[16\] that ignores *all*
/// cross-state correlation.
///
/// Each state greedily selects its own basis functions (largest normalized
/// correlation with the residual) and solves least squares on its own
/// support. The shared sparsity level θ is chosen by cross-validation.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, Omp, OmpConfig, TunableProblem};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let mut rng = cbmf_stats::seeded_rng(4);
/// let x = Matrix::from_fn(40, 10, |_, _| cbmf_stats::normal::sample(&mut rng));
/// let y: Vec<f64> = (0..40).map(|i| 3.0 * x[(i, 2)]).collect();
/// let problem = TunableProblem::from_samples(&[x], &[y], BasisSpec::Linear)?;
/// let cfg = OmpConfig { theta_candidates: vec![1, 2], cv_folds: 4 };
/// let model = Omp::new(cfg).fit(&problem, &mut rng)?;
/// assert!(model.support().contains(&2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Omp {
    config: OmpConfig,
}

impl Omp {
    /// Creates the fitter with the given configuration.
    pub fn new(config: OmpConfig) -> Self {
        Omp { config }
    }

    /// Fits the model, cross-validating the sparsity level.
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
        let _span = cbmf_trace::span("omp_fit");
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

/// The sparsity level θ of a greedy baseline: the only candidate, or the
/// one with the lowest mean error over `cv_folds` folds. The fits of every
/// (θ, fold) pair are independent: they fan out in parallel and reduce in
/// candidate order, so error sums (and the winning θ on ties) never depend
/// on the thread count.
pub(crate) fn choose_theta<R, F>(
    problem: &TunableProblem,
    thetas: &[usize],
    cv_folds: usize,
    rng: &mut R,
    fit: F,
) -> Result<usize, CbmfError>
where
    R: Rng + ?Sized,
    F: Fn(&TunableProblem, usize) -> Result<PerStateModel, CbmfError> + Sync,
{
    match thetas {
        [] => {
            return Err(CbmfError::InvalidInput {
                what: "no sparsity candidates".to_string(),
            })
        }
        [theta] => return Ok(*theta),
        _ => {}
    }
    let folds = build_folds(problem, cv_folds, rng)?;
    let splits = materialize_splits(problem, &folds, cv_folds)?;
    let errs = cbmf_parallel::par_map_indexed(thetas.len() * cv_folds, 1, |idx| {
        let (train, test) = &splits[idx % cv_folds];
        fit(train, thetas[idx / cv_folds])?.modeling_error(test)
    });
    let mut errs = errs.into_iter();
    let mut best = (f64::INFINITY, thetas[0]);
    for &theta in thetas {
        let mut err_sum = 0.0;
        for _ in 0..cv_folds {
            err_sum += errs.next().expect("one result per (theta, fold)")?;
        }
        let err = err_sum / cv_folds as f64;
        if err < best.0 {
            best = (err, theta);
        }
    }
    Ok(best.1)
}

/// Materializes every fold's (train, test) split once, so all sparsity and
/// hyper-parameter candidates reuse the same sub-problems.
pub(crate) fn materialize_splits(
    problem: &TunableProblem,
    folds: &[KFold],
    cv_folds: usize,
) -> Result<Vec<(TunableProblem, TunableProblem)>, CbmfError> {
    (0..cv_folds)
        .map(|c| split_problem(problem, folds, c))
        .collect()
}

/// Builds one K-fold partition per state.
pub(crate) fn build_folds<R: Rng + ?Sized>(
    problem: &TunableProblem,
    cv_folds: usize,
    rng: &mut R,
) -> Result<Vec<KFold>, CbmfError> {
    problem
        .states()
        .iter()
        .map(|st| {
            if st.len() < cv_folds {
                return Err(CbmfError::TooFewSamples {
                    have: st.len(),
                    need: cv_folds,
                    r#for: "cross-validation",
                });
            }
            Ok(KFold::new(st.len(), cv_folds, rng)?)
        })
        .collect()
}

/// Splits the problem into (train, test) along fold `c`.
pub(crate) fn split_problem(
    problem: &TunableProblem,
    folds: &[KFold],
    c: usize,
) -> Result<(TunableProblem, TunableProblem), CbmfError> {
    let mut train_keep = Vec::with_capacity(folds.len());
    let mut test_keep = Vec::with_capacity(folds.len());
    for f in folds {
        let (train, test) = f.split(c);
        train_keep.push(train);
        test_keep.push(test);
    }
    Ok((problem.subset(&train_keep)?, problem.subset(&test_keep)?))
}

/// Greedy selection scores over the dictionary: `Σ_k |b_mᵀ r_k| / ‖b_m‖_k`
/// with `r_k = y_k − B_{k,S}·c_k` (eq. 33; one state reproduces plain OMP).
///
/// Each step forms the residuals and correlates them with every column
/// straight from the row-major basis, at `O(K·N·(M + |S|))` per step with
/// no precompute. The paper's regime has `N ≪ M` (Table 1: 15 samples per
/// state against 1264 bases) and `N` comparable to `|S|`, so this costs
/// about the `O(K·M·|S|)` of expanding through a cached `B_kᵀB_k`, without
/// that Gram's `O(K·N·M²)` build or its `M²` floats per state.
///
/// The dictionary is split into contiguous chunks that run in parallel.
/// Every score accumulates over rows in index order and over states in
/// index order, whatever the chunking, so the result is bitwise identical
/// at any thread count.
pub(crate) fn selection_scores(
    num_basis: usize,
    states: &[&StateData],
    support: &[usize],
    coeff_rows: &[&[f64]],
) -> Vec<f64> {
    assert_eq!(
        states.len(),
        coeff_rows.len(),
        "one coefficient row per state"
    );
    GREEDY_STEPS.inc();
    let residuals: Vec<Vec<f64>> = states
        .iter()
        .zip(coeff_rows)
        .map(|(st, crow)| {
            (0..st.len())
                .map(|i| {
                    let row = st.basis.row(i);
                    let mut r = st.y[i];
                    for (&sj, c) in support.iter().zip(*crow) {
                        r -= row[sj] * c;
                    }
                    r
                })
                .collect()
        })
        .collect();
    // Aim for ~128k flops per spawned chunk; each index costs one
    // multiply-add per sample row of every state.
    let per_index: usize = states.iter().map(|st| st.len()).sum();
    let grain = (128 * 1024 / per_index.max(1)).max(1);
    let mut scores = vec![0.0; num_basis];
    cbmf_parallel::par_rows_mut(&mut scores, 1, grain, |m0, out| {
        let cols = m0..m0 + out.len();
        let mut corr = vec![0.0; out.len()];
        for (st, r) in states.iter().zip(&residuals) {
            corr.fill(0.0);
            for (i, ri) in r.iter().enumerate() {
                for (c, b) in corr.iter_mut().zip(&st.basis.row(i)[cols.clone()]) {
                    *c += b * ri;
                }
            }
            for ((s, c), norm) in out.iter_mut().zip(&corr).zip(&st.col_norms()[cols.clone()]) {
                *s += (c / norm).abs();
            }
        }
    });
    scores
}

/// Index of the best-scoring basis not yet selected; `None` when every
/// remaining score is zero (residual orthogonal to the dictionary).
pub(crate) fn best_unselected(scores: &[f64], support: &[usize]) -> Option<usize> {
    let mut best = (0.0_f64, usize::MAX);
    for (j, &s) in scores.iter().enumerate() {
        if support.contains(&j) {
            continue;
        }
        if s > best.0 {
            best = (s, j);
        }
    }
    (best.1 != usize::MAX && best.0 > 0.0).then_some(best.1)
}

/// Least-squares coefficients of `y` on the selected columns of `basis`.
pub(crate) fn ls_on_support(
    basis: &Matrix,
    y: &[f64],
    support: &[usize],
) -> Result<Vec<f64>, CbmfError> {
    let sub = basis.select_cols(support);
    Ok(Qr::new(&sub)?.solve_least_squares(y)?)
}

fn fit_with_theta(problem: &TunableProblem, theta: usize) -> Result<PerStateModel, CbmfError> {
    let k = problem.num_states();
    let m = problem.num_basis();
    // Per state: greedy select its own support, LS-solve, record.
    let mut per_state_support: Vec<Vec<usize>> = Vec::with_capacity(k);
    let mut per_state_coef: Vec<Vec<f64>> = Vec::with_capacity(k);
    for st in problem.states() {
        let cap = theta.min(st.len().saturating_sub(1)).max(1).min(m);
        let mut support: Vec<usize> = Vec::with_capacity(cap);
        let mut coefs = Vec::new();
        for _ in 0..cap {
            // Correlation of each column with the residual (eq. 34).
            let scores = selection_scores(m, &[st], &support, &[&coefs]);
            let Some(best) = best_unselected(&scores, &support) else {
                break; // residual orthogonal to every remaining column
            };
            support.push(best);
            coefs = ls_on_support(&st.basis, &st.y, &support)?;
        }
        per_state_support.push(support);
        per_state_coef.push(coefs);
    }
    // Merge supports into a shared ascending union with zero-padded rows.
    let mut union: Vec<usize> = per_state_support.iter().flatten().copied().collect();
    union.sort_unstable();
    union.dedup();
    let mut coeffs = Matrix::zeros(k, union.len());
    let mut intercepts = Vec::with_capacity(k);
    for (ki, (supp, coef)) in per_state_support.iter().zip(&per_state_coef).enumerate() {
        for (s, c) in supp.iter().zip(coef) {
            let pos = union.binary_search(s).expect("member of union");
            coeffs[(ki, pos)] = *c;
        }
        intercepts.push(problem.intercept_for(ki, supp, coef));
    }
    PerStateModel::new(
        problem.basis_spec(),
        dictionary_dim(problem),
        union,
        coeffs,
        intercepts,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BasisSpec;
    use cbmf_stats::{normal, seeded_rng};

    fn sparse_problem(k: usize, n: usize, d: usize, seed: u64) -> (TunableProblem, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let true_support = vec![1, 4, 7];
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| normal::sample(&mut rng));
            let w = 1.0 + 0.05 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    w * (2.0 * x[(i, 1)] - 1.5 * x[(i, 4)] + 0.8 * x[(i, 7)])
                        + 0.01 * normal::sample(&mut rng)
                })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        (
            TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap(),
            true_support,
        )
    }

    /// Dense reference for [`selection_scores`]: the Gram expansion
    /// `b_mᵀr_k = (B_kᵀy_k)[m] − Σ_j (B_kᵀB_k)[m, s_j]·c_{k,j}` over `‖b_m‖`,
    /// summed over states, from `t_gram()`. Also returns the rounding bound
    /// `4·N·ε·(|B|ᵀ|y| + Σ_j (|B|ᵀ|B|)[m, s_j]·|c_j|)/‖b_m‖` the two may
    /// differ by: the same expansion with every term taken in magnitude, so
    /// the bound holds even where `B_kᵀy_k` cancels to nearly zero.
    fn gram_reference(
        states: &[&StateData],
        support: &[usize],
        coeff_rows: &[Vec<f64>],
    ) -> (Vec<f64>, Vec<f64>) {
        let m = states[0].basis.cols();
        let (mut score, mut tol) = (vec![0.0; m], vec![0.0; m]);
        for (st, crow) in states.iter().zip(coeff_rows) {
            let g = st.t_gram();
            let abs = Matrix::from_fn(st.len(), m, |i, j| st.basis[(i, j)].abs());
            let g_abs = abs.transpose().gram();
            let y_abs: Vec<f64> = st.y.iter().map(|v| v.abs()).collect();
            let bty_abs = abs.t_matvec(&y_abs).unwrap();
            let n = st.len() as f64;
            for mi in 0..m {
                let mut corr = st.bty()[mi];
                let mut mag = bty_abs[mi];
                for (&sj, c) in support.iter().zip(crow) {
                    corr -= g[(mi, sj)] * c;
                    mag += g_abs[(mi, sj)] * c.abs();
                }
                score[mi] += (corr / st.col_norms()[mi]).abs();
                tol[mi] += 4.0 * n * f64::EPSILON * mag / st.col_norms()[mi];
            }
        }
        (score, tol)
    }

    #[test]
    fn residual_scores_match_the_dense_gram_expansion() {
        let mut rng = seeded_rng(90);
        // (states, samples per state, bases): N < M and N > M.
        for &(k, n, m) in &[(1, 5, 12), (3, 7, 20), (2, 24, 6), (4, 30, 9), (1, 40, 3)] {
            for support_len in 0..=6.min(m) {
                let xs: Vec<Matrix> = (0..k)
                    .map(|_| Matrix::from_fn(n, m, |_, _| 3.0 * normal::sample(&mut rng) + 1.0))
                    .collect();
                let ys: Vec<Vec<f64>> = (0..k)
                    .map(|_| (0..n).map(|_| 10.0 * normal::sample(&mut rng)).collect())
                    .collect();
                let problem = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap();
                let mut support: Vec<usize> = (0..m).collect();
                for i in 0..support_len {
                    let j = i + rng.gen_index(m - i);
                    support.swap(i, j);
                }
                support.truncate(support_len);
                let coeffs: Vec<Vec<f64>> = (0..k)
                    .map(|_| {
                        (0..support_len)
                            .map(|_| 5.0 * normal::sample(&mut rng))
                            .collect()
                    })
                    .collect();
                let states: Vec<&StateData> = problem.states().iter().collect();
                let rows: Vec<&[f64]> = coeffs.iter().map(Vec::as_slice).collect();
                let scores = selection_scores(m, &states, &support, &rows);
                let (reference, tol) = gram_reference(&states, &support, &coeffs);
                for mi in 0..m {
                    assert!(
                        (scores[mi] - reference[mi]).abs() <= tol[mi],
                        "K={k} N={n} M={m} |S|={support_len} basis {mi}: \
                         {} vs {} (tolerance {})",
                        scores[mi],
                        reference[mi],
                        tol[mi]
                    );
                }
            }
        }
    }

    #[test]
    fn recovers_true_support_with_fixed_theta() {
        let (problem, truth) = sparse_problem(2, 30, 20, 21);
        let mut rng = seeded_rng(1);
        let cfg = OmpConfig {
            theta_candidates: vec![3],
            cv_folds: 4,
        };
        let model = Omp::new(cfg).fit(&problem, &mut rng).unwrap();
        for t in &truth {
            assert!(model.support().contains(t), "missing true basis {t}");
        }
        assert!(model.modeling_error(&problem).unwrap() < 0.05);
    }

    #[test]
    fn cross_validation_picks_a_sane_theta() {
        let (problem, truth) = sparse_problem(2, 40, 15, 22);
        let mut rng = seeded_rng(2);
        let model = Omp::new(OmpConfig {
            theta_candidates: vec![1, 3, 8],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        // θ=1 underfits badly; CV must do at least as well as the truth size.
        for t in &truth {
            assert!(model.support().contains(t));
        }
    }

    #[test]
    fn theta_is_capped_by_sample_count() {
        let (problem, _) = sparse_problem(1, 6, 12, 23);
        let mut rng = seeded_rng(3);
        let model = Omp::new(OmpConfig {
            theta_candidates: vec![50],
            cv_folds: 3,
        })
        .fit(&problem, &mut rng)
        .unwrap();
        assert!(model.support().len() <= 5);
    }

    #[test]
    fn empty_candidates_rejected() {
        let (problem, _) = sparse_problem(1, 10, 10, 24);
        let mut rng = seeded_rng(4);
        let r = Omp::new(OmpConfig {
            theta_candidates: vec![],
            cv_folds: 3,
        })
        .fit(&problem, &mut rng);
        assert!(matches!(r, Err(CbmfError::InvalidInput { .. })));
    }

    #[test]
    fn too_few_samples_for_folds_rejected() {
        let (problem, _) = sparse_problem(1, 3, 10, 25);
        let mut rng = seeded_rng(5);
        let r = Omp::new(OmpConfig {
            theta_candidates: vec![1, 2],
            cv_folds: 4,
        })
        .fit(&problem, &mut rng);
        assert!(matches!(r, Err(CbmfError::TooFewSamples { .. })));
    }

    #[test]
    fn states_may_select_different_supports() {
        // State 0 depends on x0 only, state 1 on x3 only.
        let mut rng = seeded_rng(26);
        let x0 = Matrix::from_fn(25, 6, |_, _| normal::sample(&mut rng));
        let y0: Vec<f64> = (0..25).map(|i| 2.0 * x0[(i, 0)]).collect();
        let x1 = Matrix::from_fn(25, 6, |_, _| normal::sample(&mut rng));
        let y1: Vec<f64> = (0..25).map(|i| -x1[(i, 3)]).collect();
        let problem =
            TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap();
        let model = Omp::new(OmpConfig {
            theta_candidates: vec![1],
            cv_folds: 4,
        })
        .fit(&problem, &mut seeded_rng(6))
        .unwrap();
        // Union support holds both; each state's coefficient vanishes on the
        // other state's basis.
        assert_eq!(model.support(), &[0, 3]);
        assert_eq!(model.coefficients()[(0, 1)], 0.0);
        assert_eq!(model.coefficients()[(1, 0)], 0.0);
    }
}
