use cbmf_linalg::Matrix;
use cbmf_stats::describe;
use cbmf_trace::Counter;
use rand::Rng;

use crate::dataset::{StateData, TunableProblem};
use crate::error::CbmfError;
use cbmf_linalg::Cholesky;

use crate::omp::{best_unselected, build_folds, materialize_splits, selection_scores};
use crate::prior::{toeplitz_r, CbmfPrior};
use crate::somp::{assemble_model, sort_by_support};

/// Greedy steps that extended the support-space factor incrementally via
/// `Cholesky::append_block` — the Algorithm-1 fast path.
static INIT_APPEND_STEPS: Counter = Counter::new("cbmf.init.append_block_steps");
/// Greedy steps that built the factor from scratch (the first basis of each
/// selection run; anything beyond that signals a lost incremental reuse).
static INIT_REFACTOR_STEPS: Counter = Counter::new("cbmf.init.refactor_steps");
/// Full greedy selection runs (one per (candidate, fold) plus the final
/// full-train re-selection).
static INIT_SELECTIONS: Counter = Counter::new("cbmf.init.selection_runs");

/// Candidate hyper-parameter grid for the Algorithm-1 initializer
/// (the paper's set {(r0⁽q⁾, σ0⁽q⁾, θ⁽q⁾)}).
#[derive(Debug, Clone)]
pub struct CandidateGrid {
    /// Candidate correlation-decay rates for R(r0) (eq. 32), each in [0,1).
    pub r0: Vec<f64>,
    /// Candidate noise levels, as fractions of the mean per-state response
    /// standard deviation.
    pub sigma_rel: Vec<f64>,
    /// Candidate numbers of selected basis functions θ.
    pub theta: Vec<usize>,
    /// Cross-validation folds C (Algorithm 1 step 1).
    pub cv_folds: usize,
    /// λ level of the *non-selected* bases in the EM starting prior,
    /// relative to the mean on-support level (the paper's step 17 uses
    /// 1e-5). Larger values let the EM absorb a dense tail of individually
    /// weak regressors — useful when mismatch variables carry real signal.
    pub off_support_level: f64,
}

impl Default for CandidateGrid {
    fn default() -> Self {
        CandidateGrid {
            r0: vec![0.3, 0.7, 0.95],
            sigma_rel: vec![0.05, 0.2],
            theta: vec![8, 16, 32],
            cv_folds: 4,
            off_support_level: 1e-5,
        }
    }
}

impl CandidateGrid {
    /// A reduced grid for small problems and tests.
    pub fn small() -> Self {
        CandidateGrid {
            r0: vec![0.5, 0.9],
            sigma_rel: vec![0.1],
            theta: vec![2, 4, 8],
            cv_folds: 3,
            off_support_level: 1e-5,
        }
    }
}

/// The initializer's output: the chosen hyper-parameters, the selected
/// support, initial coefficients, and the full-dictionary prior to hand to
/// EM (Algorithm 1 step 17).
#[derive(Debug, Clone)]
pub struct InitOutcome {
    /// Full-M prior: λ_m = 1 on the support, 1e-5 elsewhere; R = R(r0); σ0.
    pub prior: CbmfPrior,
    /// Selected basis indices (ascending).
    pub support: Vec<usize>,
    /// Initial coefficients on the support, `K × |support|`.
    pub coeffs: Matrix,
    /// Winning decay rate r0.
    pub r0: f64,
    /// Winning absolute noise level σ0.
    pub sigma0: f64,
    /// Winning sparsity level θ.
    pub theta: usize,
    /// Cross-validation error of the winning candidate.
    pub cv_error: f64,
}

/// The modified S-OMP initializer of Algorithm 1 (steps 1–17).
///
/// For every candidate `(r0, σ0, θ)` and every cross-validation fold it
/// runs the greedy joint basis selection of S-OMP (eq. 33) but — unlike
/// S-OMP — solves the coefficients at each greedy step from the
/// *correlated* Bayesian posterior (eqs. 20–22) with the parameterized
/// `R(r0)` of eq. 32 restricted to the current support. The candidate with
/// the lowest cross-validated error wins, the selection is re-run on the
/// full training set, and the hyper-parameters are packaged as the EM
/// starting point (λ = 1 on the support, 1e-5 off it — step 17).
#[derive(Debug, Clone, Default)]
pub struct SompInitializer {
    grid: CandidateGrid,
}

impl SompInitializer {
    /// Creates an initializer over the given candidate grid.
    pub fn new(grid: CandidateGrid) -> Self {
        SompInitializer { grid }
    }

    /// Runs Algorithm 1 steps 1–17.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the grid is empty.
    /// * [`CbmfError::TooFewSamples`] if a state cannot support the folds.
    /// * Propagated numerical failures.
    pub fn initialize<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
    ) -> Result<InitOutcome, CbmfError> {
        let _span = cbmf_trace::span("init");
        if self.grid.r0.is_empty() || self.grid.sigma_rel.is_empty() || self.grid.theta.is_empty() {
            return Err(CbmfError::InvalidInput {
                what: "empty candidate grid".to_string(),
            });
        }
        let k = problem.num_states();
        // Base scale for the σ0 candidates: mean per-state response std.
        let sigma_base = problem
            .states()
            .iter()
            .map(|st| describe::std_dev(&st.y))
            .sum::<f64>()
            / k as f64;
        let sigma_base = sigma_base.max(1e-12);

        // The fold splits are hoisted out of the candidate sweep: every
        // (r0, σ0, θ) candidate shares the same materialized sub-problems.
        let folds = build_folds(problem, self.grid.cv_folds, rng)?;
        let splits = materialize_splits(problem, &folds, self.grid.cv_folds)?;
        let mut cands: Vec<(f64, f64, usize)> = Vec::new();
        for &r0 in &self.grid.r0 {
            for &srel in &self.grid.sigma_rel {
                for &theta in &self.grid.theta {
                    cands.push((r0, srel * sigma_base, theta));
                }
            }
        }
        // One greedy selection per (candidate, fold), all independent. The
        // reduction walks the results in grid order, so the winning
        // candidate (ties included) is the same at any thread count.
        let cf = self.grid.cv_folds;
        let errs = cbmf_parallel::par_map_indexed(cands.len() * cf, 1, |idx| {
            let (r0, sigma0, theta) = cands[idx / cf];
            let (train, test) = &splits[idx % cf];
            let (support, coeffs) = select_with_bayes(train, theta, r0, sigma0)?;
            let model = assemble_model(train, support, coeffs)?;
            model.modeling_error(test)
        });
        let mut errs = errs.into_iter();
        let mut best: Option<(f64, f64, f64, usize)> = None; // (err, r0, σ0, θ)
        for &(r0, sigma0, theta) in &cands {
            let mut err_sum = 0.0;
            for _ in 0..cf {
                err_sum += errs.next().expect("one result per (candidate, fold)")?;
            }
            let err = err_sum / cf as f64;
            if best.is_none_or(|(e, ..)| err < e) {
                best = Some((err, r0, sigma0, theta));
            }
        }
        let (cv_error, r0, sigma0, theta) = best.expect("grid verified non-empty");
        self.finish(problem, r0, sigma0, theta, cv_error)
    }

    /// Warm-started initialization: runs only Algorithm 1 steps 16–17 with
    /// the hyper-parameters fixed to a previously found winner, skipping the
    /// whole (r0, σ0, θ) cross-validation sweep. This is the streaming
    /// engine's per-chunk path (the chunk-0 cold fit found the winner) and
    /// the multi-corner warm start of `fit_fleet`: on grown or neighbouring
    /// data the selection is re-run — so the support can still change — but
    /// the [`Self::cv_evaluations`] greedy selections of the sweep are not
    /// paid again.
    ///
    /// The returned [`InitOutcome::cv_error`] is `NaN`: no cross-validation
    /// was performed in this call.
    ///
    /// # Errors
    ///
    /// Propagated numerical failures from selection or prior assembly.
    pub fn initialize_warm(
        &self,
        problem: &TunableProblem,
        r0: f64,
        sigma0: f64,
        theta: usize,
    ) -> Result<InitOutcome, CbmfError> {
        let _span = cbmf_trace::span("init_warm");
        self.finish(problem, r0, sigma0, theta, f64::NAN)
    }

    /// Greedy selections a full [`Self::initialize`] sweep performs and a
    /// warm start skips: one per (candidate, fold) pair.
    pub fn cv_evaluations(&self) -> u64 {
        (self.grid.r0.len()
            * self.grid.sigma_rel.len()
            * self.grid.theta.len()
            * self.grid.cv_folds) as u64
    }

    /// Steps 16–17: re-select on the full training set with the winning
    /// hyper-parameters, then build the EM starting prior. The paper
    /// initializes λ_m = 1 on the support and 1e-5 off it; λ has units of
    /// coefficient variance, so we make those levels scale-aware: each
    /// selected basis starts at the empirical second moment of its initial
    /// coefficients under R (the EM fixed point with zero posterior
    /// covariance), and off-support bases start 1e-5 relative to the mean
    /// on-support level.
    fn finish(
        &self,
        problem: &TunableProblem,
        r0: f64,
        sigma0: f64,
        theta: usize,
        cv_error: f64,
    ) -> Result<InitOutcome, CbmfError> {
        let k = problem.num_states();
        let (support, coeffs) = select_with_bayes(problem, theta, r0, sigma0)?;
        let m = problem.num_basis();
        let r = toeplitz_r(k, r0)?;
        let r_chol = Cholesky::new_robust(&r)?;
        let mut on_levels = Vec::with_capacity(support.len());
        for j in 0..support.len() {
            let alpha = coeffs.col(j);
            let rinv_a = r_chol.solve_vec(&alpha)?;
            let level = alpha.iter().zip(&rinv_a).map(|(a, b)| a * b).sum::<f64>() / k as f64;
            on_levels.push(level.max(CbmfPrior::LAMBDA_FLOOR));
        }
        let mean_on = (on_levels.iter().sum::<f64>() / on_levels.len().max(1) as f64).max(1e-300);
        let mut lambda = vec![self.grid.off_support_level * mean_on; m];
        for (j, &s) in support.iter().enumerate() {
            lambda[s] = on_levels[j];
        }
        let prior = CbmfPrior::new(lambda, r, sigma0)?;
        Ok(InitOutcome {
            prior,
            support,
            coeffs,
            r0,
            sigma0,
            theta,
            cv_error,
        })
    }
}

/// Greedy eq.-33 selection with the correlated Bayesian coefficient solve
/// (Algorithm 1 steps 5–11): at every step the coefficients over the
/// current support come from the MAP posterior under R(r0) with λ = 1 on
/// the selected bases.
fn select_with_bayes(
    problem: &TunableProblem,
    theta: usize,
    r0: f64,
    sigma0: f64,
) -> Result<(Vec<usize>, Matrix), CbmfError> {
    INIT_SELECTIONS.inc();
    let k = problem.num_states();
    let m = problem.num_basis();
    let r = toeplitz_r(k, r0)?;
    let cap = theta.max(1).min(m);

    let mut solver = IncrementalBayes::new(problem, &r, sigma0)?;
    let states: Vec<&StateData> = problem.states().iter().collect();
    let mut support: Vec<usize> = Vec::with_capacity(cap);
    let mut coeffs = Matrix::zeros(k, 0);
    for _ in 0..cap {
        // ξ summed over states (eq. 33), per-state normalized.
        let coeff_rows: Vec<&[f64]> = (0..k).map(|ki| coeffs.row(ki)).collect();
        let score = selection_scores(m, &states, &support, &coeff_rows);
        let Some(best) = best_unselected(&score, &support) else {
            break;
        };
        support.push(best);
        solver.add_basis(best, 1.0)?;
        coeffs = solver.coefficients()?;
    }
    Ok(sort_by_support(&support, &coeffs))
}

/// Incrementally factored *support-space* posterior for the greedy loop.
///
/// With every selected basis at prior variance λ, the MAP coefficients on
/// support S solve the `K·|S|`-dimensional normal equations (basis-major
/// ordering, states contiguous within a basis block)
///
/// ```text
/// [ δ_{jj'}·λ⁻¹R⁻¹ + σ0⁻²·diag_k( (B_kᵀB_k)[m_j, m_j'] ) ] · α = σ0⁻²·Bᵀy,
/// ```
///
/// which is eq. 22 pulled back from observation space through the matrix
/// inversion lemma. Appending one basis appends exactly one K-wide block
/// row/column to this system, so the Cholesky factor is extended in place
/// by [`Cholesky::append_block`] at `O(K·(K·|S|)² + K³)` per greedy step —
/// versus `O((NK)³)` for refactoring the observation-space covariance from
/// scratch, or `O(K·(NK)²)` for rank-one updating it. The new block's Gram
/// entries are dot products of the new column with the selected ones,
/// `O(K·N·|S|)` per step, so no `M × M` Gram is ever formed.
struct IncrementalBayes<'a> {
    problem: &'a TunableProblem,
    /// R⁻¹ (K × K), shared by every diagonal block.
    r_inv: Matrix,
    sigma0_sq_inv: f64,
    /// Factor of the growing `K·|S|` system; `None` until a basis is added.
    chol: Option<Cholesky>,
    /// Selected bases in insertion order (matches the block order).
    support: Vec<usize>,
    /// Right-hand side σ0⁻²·(B_kᵀy_k)[m_j], basis-major.
    rhs: Vec<f64>,
}

impl<'a> IncrementalBayes<'a> {
    fn new(problem: &'a TunableProblem, r: &Matrix, sigma0: f64) -> Result<Self, CbmfError> {
        let r_inv = Cholesky::new_robust(r)?.inverse();
        Ok(IncrementalBayes {
            problem,
            r_inv,
            sigma0_sq_inv: 1.0 / (sigma0 * sigma0).max(1e-300),
            chol: None,
            support: Vec::new(),
            rhs: Vec::new(),
        })
    }

    /// Appends basis `m` (prior variance `lambda`) as one K-wide block
    /// row/column of the support-space system.
    fn add_basis(&mut self, m: usize, lambda: f64) -> Result<(), CbmfError> {
        let (a21, a22) = self.new_blocks(m, lambda);
        match &mut self.chol {
            Some(chol) => {
                chol.append_block(&a21, &a22)?;
                INIT_APPEND_STEPS.inc();
            }
            None => {
                self.chol = Some(Cholesky::new(&a22)?);
                INIT_REFACTOR_STEPS.inc();
            }
        }
        for st in self.problem.states() {
            self.rhs.push(self.sigma0_sq_inv * st.bty()[m]);
        }
        self.support.push(m);
        Ok(())
    }

    /// The block row that basis `m` appends: the cross block `a21`
    /// (`K × K·|S|`) against the bases already in the factor, and the new
    /// diagonal block `a22` (`K × K`).
    fn new_blocks(&self, m: usize, lambda: f64) -> (Matrix, Matrix) {
        let k = self.problem.num_states();
        let s2i = self.sigma0_sq_inv;
        // New diagonal block λ⁻¹·R⁻¹ + σ0⁻²·diag_k(‖b_{k,m}‖²), and the
        // cross block against each selected basis: states do not mix in
        // the likelihood, so block j is the diagonal matrix
        // σ0⁻²·diag_k(b_{k,m_j}ᵀ b_{k,m}). Both come from dot products of
        // the new column with itself and the selected columns, accumulated
        // over rows in index order.
        let mut a22 = self.r_inv.scaled(1.0 / lambda);
        let mut a21 = Matrix::zeros(k, self.support.len() * k);
        let mut cross = vec![0.0; self.support.len()];
        for (ki, st) in self.problem.states().iter().enumerate() {
            let mut diag = 0.0;
            cross.fill(0.0);
            for i in 0..st.len() {
                let row = st.basis.row(i);
                let b = row[m];
                diag += b * b;
                for (c, &sj) in cross.iter_mut().zip(&self.support) {
                    *c += row[sj] * b;
                }
            }
            a22[(ki, ki)] += s2i * diag;
            for (j, c) in cross.iter().enumerate() {
                a21[(ki, j * k + ki)] = s2i * c;
            }
        }
        (a21, a22)
    }

    /// MAP coefficients (eq. 22) on the bases added so far, `K × |S|` with
    /// columns in insertion order.
    fn coefficients(&self) -> Result<Matrix, CbmfError> {
        let k = self.problem.num_states();
        let t = self.support.len();
        let chol = self.chol.as_ref().ok_or_else(|| CbmfError::InvalidInput {
            what: "coefficient solve requested before any basis was added".to_string(),
        })?;
        let sol = chol.solve_vec(&self.rhs)?;
        let mut coeffs = Matrix::zeros(k, t);
        for j in 0..t {
            for ki in 0..k {
                coeffs[(ki, j)] = sol[j * k + ki];
            }
        }
        Ok(coeffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSpec;
    use cbmf_stats::{normal, seeded_rng};

    fn correlated_problem(k: usize, n: usize, d: usize, seed: u64) -> TunableProblem {
        let mut rng = seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| normal::sample(&mut rng));
            let w = 1.0 + 0.05 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| w * (2.0 * x[(i, 2)] - 1.0 * x[(i, 5)]) + 0.1 * normal::sample(&mut rng))
                .collect();
            xs.push(x);
            ys.push(y);
        }
        TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap()
    }

    #[test]
    fn support_space_matrix_matches_the_dense_gram_assembly() {
        // N < M and N > M; supports grown one basis at a time, as the
        // greedy loop does.
        for &(k, n, d, seed) in &[(3, 6, 15, 70), (2, 20, 7, 71), (4, 9, 30, 72)] {
            let problem = correlated_problem(k, n, d, seed);
            let r = toeplitz_r(k, 0.8).unwrap();
            let sigma0 = 0.3;
            let mut solver = IncrementalBayes::new(&problem, &r, sigma0).unwrap();
            let order = [d - 1, 2, 5, 0, d / 2, 1];
            let t = order.len() * k;
            // The matrix the solver factors, block row by block row.
            let mut a = Matrix::zeros(t, t);
            for (j, &m) in order.iter().enumerate() {
                let (a21, a22) = solver.new_blocks(m, 1.0);
                for r_ in 0..k {
                    for c in 0..j * k {
                        a[(j * k + r_, c)] = a21[(r_, c)];
                        a[(c, j * k + r_)] = a21[(r_, c)];
                    }
                    for c in 0..k {
                        a[(j * k + r_, j * k + c)] = a22[(r_, c)];
                    }
                }
                solver.add_basis(m, 1.0).unwrap();
            }
            // Dense reference: δ_{jj'}·R⁻¹ + σ0⁻²·δ_{kk'}·(B_kᵀB_k)[m_j, m_j'],
            // within 4·N·ε·σ0⁻²·(|B_k|ᵀ|B_k|)[m_j, m_j'].
            let r_inv = Cholesky::new_robust(&r).unwrap().inverse();
            let s2i = 1.0 / (sigma0 * sigma0);
            for (ki, st) in problem.states().iter().enumerate() {
                let g = st.t_gram();
                let abs = Matrix::from_fn(n, d, |i, j| st.basis[(i, j)].abs());
                let g_abs = abs.transpose().gram();
                for (j, &mj) in order.iter().enumerate() {
                    for (j2, &mj2) in order.iter().enumerate() {
                        let mut want = s2i * g[(mj, mj2)];
                        if j == j2 {
                            want += r_inv[(ki, ki)];
                        }
                        let tol = 4.0 * n as f64 * f64::EPSILON * s2i * g_abs[(mj, mj2)];
                        let got = a[(j * k + ki, j2 * k + ki)];
                        assert!(
                            (got - want).abs() <= tol,
                            "K={k} N={n} state {ki} bases ({mj}, {mj2}): {got} vs {want}"
                        );
                    }
                }
            }
            // States do not mix off the diagonal blocks, which are λ⁻¹R⁻¹
            // plus the likelihood diagonal.
            for row in 0..t {
                for col in 0..t {
                    let (j, ki) = (row / k, row % k);
                    let (j2, ki2) = (col / k, col % k);
                    if ki != ki2 {
                        let want = if j == j2 { r_inv[(ki, ki2)] } else { 0.0 };
                        assert_eq!(a[(row, col)], want, "entry ({row}, {col})");
                    }
                }
            }
        }
    }

    #[test]
    fn finds_true_support_and_builds_step17_prior() {
        let problem = correlated_problem(4, 16, 12, 60);
        let mut rng = seeded_rng(1);
        let out = SompInitializer::new(CandidateGrid::small())
            .initialize(&problem, &mut rng)
            .unwrap();
        assert!(out.support.contains(&2), "support {:?}", out.support);
        assert!(out.support.contains(&5), "support {:?}", out.support);
        // Step-17 prior (scale-aware): on-support λ at the coefficients'
        // empirical level, off-support λ exactly 1e-5 of the mean on level.
        let on: Vec<f64> = out.support.iter().map(|&m| out.prior.lambda()[m]).collect();
        let mean_on = on.iter().sum::<f64>() / on.len() as f64;
        for (m, &l) in out.prior.lambda().iter().enumerate() {
            if out.support.contains(&m) {
                assert!(l > 100.0 * 1e-5 * mean_on, "on-support λ {l}");
            } else {
                assert!((l - 1e-5 * mean_on).abs() < 1e-9 * mean_on, "off λ {l}");
            }
        }
        assert_eq!(out.coeffs.shape(), (4, out.support.len()));
        assert!(out.cv_error.is_finite() && out.cv_error >= 0.0);
        assert!(out.theta >= out.support.len());
    }

    #[test]
    fn winning_r0_comes_from_the_grid() {
        let problem = correlated_problem(3, 12, 8, 61);
        let mut rng = seeded_rng(2);
        let grid = CandidateGrid::small();
        let out = SompInitializer::new(grid.clone())
            .initialize(&problem, &mut rng)
            .unwrap();
        assert!(grid.r0.contains(&out.r0));
        assert!(grid.theta.contains(&out.theta));
        assert!(out.sigma0 > 0.0);
    }

    #[test]
    fn empty_grid_rejected() {
        let problem = correlated_problem(2, 8, 8, 62);
        let mut rng = seeded_rng(3);
        let grid = CandidateGrid {
            r0: vec![],
            ..CandidateGrid::small()
        };
        assert!(matches!(
            SompInitializer::new(grid).initialize(&problem, &mut rng),
            Err(CbmfError::InvalidInput { .. })
        ));
    }

    #[test]
    fn warm_start_reproduces_the_winner_without_the_sweep() {
        let problem = correlated_problem(4, 16, 12, 60);
        let mut rng = seeded_rng(1);
        let init = SompInitializer::new(CandidateGrid::small());
        let cold = init.initialize(&problem, &mut rng).unwrap();
        let warm = init
            .initialize_warm(&problem, cold.r0, cold.sigma0, cold.theta)
            .unwrap();
        // Same data, same fixed winner: steps 16–17 are deterministic, so
        // the warm path lands on the identical support and coefficients.
        assert_eq!(warm.support, cold.support);
        for (a, b) in warm.coeffs.as_slice().iter().zip(cold.coeffs.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in warm.prior.lambda().iter().zip(cold.prior.lambda()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(warm.cv_error.is_nan(), "no sweep ran");
        // small(): 2 r0 × 1 σ × 3 θ × 3 folds = 18 selections skipped.
        assert_eq!(init.cv_evaluations(), 18);
    }

    #[test]
    fn correlated_solve_differs_from_plain_somp() {
        // Same selection rule, different coefficient solve: with strong
        // regularization (big σ0) the Bayesian coefficients must be shrunk
        // relative to the least-squares S-OMP ones.
        let problem = correlated_problem(3, 10, 8, 63);
        let (_, coeffs_bayes) = select_with_bayes(&problem, 2, 0.9, 5.0).unwrap();
        let (_, coeffs_light) = select_with_bayes(&problem, 2, 0.9, 1e-4).unwrap();
        assert!(
            coeffs_bayes.max_abs() < coeffs_light.max_abs(),
            "large σ0 must shrink coefficients"
        );
    }

    #[test]
    fn initializer_model_predicts_reasonably() {
        let problem = correlated_problem(4, 20, 10, 64);
        let test = correlated_problem(4, 50, 10, 65);
        let mut rng = seeded_rng(4);
        let out = SompInitializer::new(CandidateGrid::small())
            .initialize(&problem, &mut rng)
            .unwrap();
        let model = assemble_model(&problem, out.support, out.coeffs).unwrap();
        let err = model.modeling_error(&test).unwrap();
        assert!(err < 0.25, "initializer alone should be decent: {err}");
    }
}
