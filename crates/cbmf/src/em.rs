use cbmf_linalg::{project_pd_relative, Cholesky, Matrix};
use cbmf_trace::Counter;

use crate::dataset::TunableProblem;
use crate::error::CbmfError;
use crate::posterior::{MapPosterior, PosteriorMoments};
use crate::prior::CbmfPrior;

/// EM iterations performed across all refinement runs.
static EM_ITERATIONS: Counter = Counter::new("cbmf.em.iterations");

/// Configuration of the EM hyper-parameter refinement (paper §3.3,
/// Algorithm 1 steps 18–20).
#[derive(Debug, Clone)]
pub struct EmConfig {
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Relative tolerance on the negative log marginal likelihood (eq. 25)
    /// between consecutive iterations.
    pub tol: f64,
    /// Relative eigenvalue floor applied when projecting the re-estimated R
    /// back onto the PD cone.
    pub r_pd_floor: f64,
    /// Absolute floor for σ0.
    pub sigma_floor: f64,
    /// Whether the M-step re-estimates R (eq. 30). Disabling this freezes
    /// the cross-state correlation at its initial value — the
    /// "template-only" ablation that isolates what learning the coefficient-
    /// magnitude correlation buys.
    pub learn_r: bool,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iters: 30,
            tol: 1e-4,
            r_pd_floor: 1e-8,
            sigma_floor: 1e-9,
            learn_r: true,
        }
    }
}

/// Result of an EM refinement run.
#[derive(Debug, Clone)]
pub struct EmOutcome {
    /// The refined prior (final hyper-parameters Ω).
    pub prior: CbmfPrior,
    /// MAP coefficients under the final prior (paper step 20 / eq. 22),
    /// `K × M`.
    pub coeffs: Matrix,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Negative log marginal likelihood after each iteration.
    pub nlml_trace: Vec<f64>,
    /// Whether the tolerance was met before `max_iters`.
    pub converged: bool,
}

/// The EM loop that refines Ω = {λ_1..λ_M, R, σ0} (paper eqs. 26–31).
///
/// Each iteration runs the expectation step — the full MAP posterior
/// moments of [`MapPosterior::solve_moments`] — followed by the closed-form
/// maximization updates:
///
/// * `λ_m ← Tr(R⁻¹·(Σp^m + μp^m·μp^mᵀ)) / K` (eq. 29),
/// * `R ← (1/M)·Σ_m (Σp^m + μp^m·μp^mᵀ) / λ_m` (eq. 30),
/// * `σ0² ← (‖y − D·μp‖² + Tr(D·Σp·Dᵀ)) / (N·K)` (eq. 31).
///
/// No per-basis Σp^m is formed. Substituting `Σp^m = λ_m·R − λ_m²·R·T_m·R`
/// gives `λ'_m = λ_m − λ_m²·⟨T_m, R⟩/K + μ_mᵀR⁻¹μ_m/K`, and R's sum becomes
/// `R·Σ(λ_m/λ'_m) − R·(Σ(λ_m²/λ'_m)·T_m)·R + Σ μ_mμ_mᵀ/λ'_m`: one solve of
/// R against every μ_m, two K×K×K products and one weighted K×K Gram per
/// iteration.
///
/// Robustness beyond the paper's pseudocode: the scale ambiguity between λ
/// and R (only their product enters the prior) is fixed by renormalizing R
/// to unit mean diagonal each iteration, R is eigen-projected back to the
/// PD cone, and λ/σ0 are floored. Bases whose λ has collapsed are skipped
/// by the posterior automatically, so iterations speed up as the model
/// sparsifies.
#[derive(Debug, Clone, Default)]
pub struct EmRefiner {
    config: EmConfig,
}

impl EmRefiner {
    /// Creates a refiner with the given configuration.
    pub fn new(config: EmConfig) -> Self {
        EmRefiner { config }
    }

    /// Runs EM from `init` and returns the refined hyper-parameters plus
    /// final coefficients.
    ///
    /// # Errors
    ///
    /// Propagates posterior failures ([`CbmfError::Linalg`]) and shape
    /// mismatches ([`CbmfError::InvalidInput`]).
    pub fn refine(
        &self,
        problem: &TunableProblem,
        init: &CbmfPrior,
    ) -> Result<EmOutcome, CbmfError> {
        let _span = cbmf_trace::span("em");
        let k = problem.num_states();
        let mut prior = init.clone();
        let mut nlml_trace = Vec::with_capacity(self.config.max_iters);
        let mut converged = false;
        let mut iterations = 0;

        for _ in 0..self.config.max_iters {
            iterations += 1;
            EM_ITERATIONS.inc();
            // E-step (eqs. 19–21 via the observation-space identities).
            let moments = MapPosterior.solve_moments(problem, &prior)?;
            nlml_trace.push(moments.neg_log_marginal);
            if nlml_trace.len() >= 2 {
                let prev = nlml_trace[nlml_trace.len() - 2];
                let cur = moments.neg_log_marginal;
                if (prev - cur).abs() <= self.config.tol * prev.abs().max(1.0) {
                    converged = true;
                }
            }

            // M-step.
            prior = self.m_step(&prior, &moments, k)?;
            if converged {
                break;
            }
        }

        let coeffs = MapPosterior.solve_coefficients(problem, &prior)?;
        Ok(EmOutcome {
            prior,
            coeffs,
            iterations,
            nlml_trace,
            converged,
        })
    }

    fn m_step(
        &self,
        prior: &CbmfPrior,
        moments: &PosteriorMoments,
        k: usize,
    ) -> Result<CbmfPrior, CbmfError> {
        let m = prior.num_basis();
        let (lambda, r) = (prior.lambda(), prior.r());
        let kf = k as f64;
        let (active, t_active): (Vec<usize>, Vec<&Matrix>) = moments
            .t_blocks
            .iter()
            .enumerate()
            .filter_map(|(mi, t)| Some((mi, t.as_ref()?)))
            .unzip();
        // μ_m = column m of the coefficients; μ_mᵀR⁻¹μ_m for every active
        // basis from one multi-right-hand-side solve.
        let mu = moments.coeffs.select_cols(&active);
        let rinv_mu = Cholesky::new_robust(r)?.solve_mat(&mu)?;

        // λ update (eq. 29) for the active bases; pruned bases stay floored.
        // With S_m = Σp^m + μ_mμ_mᵀ and Σp^m = λ_m·R − λ_m²·R·T_m·R,
        // Tr(R⁻¹·S_m)/K = λ_m − λ_m²·⟨T_m, R⟩/K + μ_mᵀR⁻¹μ_m/K.
        let mut lambda_new = vec![CbmfPrior::LAMBDA_FLOOR; m];
        for (j, (&mi, t)) in active.iter().zip(&t_active).enumerate() {
            let t_dot_r: f64 = t
                .as_slice()
                .iter()
                .zip(r.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let mu_rinv_mu: f64 = (0..k).map(|ki| mu[(ki, j)] * rinv_mu[(ki, j)]).sum();
            let lm = lambda[mi];
            let lam = lm - lm * lm * t_dot_r / kf + mu_rinv_mu / kf;
            // Degenerate data (e.g. exactly noise-free responses) can push
            // the updates outside the representable range; hold the old
            // value rather than poisoning the prior.
            lambda_new[mi] = if lam.is_finite() {
                lam.max(CbmfPrior::LAMBDA_FLOOR)
            } else {
                lm
            };
        }

        // R update (eq. 30) over the active bases with the *new* λ:
        // Σ_m S_m/λ'_m = R·Σ(λ_m/λ'_m) − R·(Σ(λ_m²/λ'_m)·T_m)·R
        //               + Σ μ_mμ_mᵀ/λ'_m,
        // two K×K×K products in total.
        let r_new = if self.config.learn_r {
            let mut r_new = if active.is_empty() {
                r.clone()
            } else {
                let mut scale = 0.0;
                let mut t_sum = Matrix::zeros(k, k);
                for (&mi, t) in active.iter().zip(&t_active) {
                    let (lm, ln) = (lambda[mi], lambda_new[mi]);
                    scale += lm / ln;
                    let w = lm * lm / ln;
                    for (acc, tv) in t_sum.as_mut_slice().iter_mut().zip(t.as_slice()) {
                        *acc += w * tv;
                    }
                }
                let inv_new: Vec<f64> = active.iter().map(|&mi| 1.0 / lambda_new[mi]).collect();
                let rtr = r.matmul(&t_sum)?.matmul(r)?;
                let mut sum = &(&r.scaled(scale) - &rtr) + &mu.weighted_gram(&inv_new)?;
                sum.scale_mut(1.0 / active.len() as f64);
                sum
            };
            // Fix the λ·R scale ambiguity: unit mean diagonal on R.
            let diag_mean = (r_new.trace() / k as f64).max(1e-300);
            r_new.scale_mut(1.0 / diag_mean);
            for l in &mut lambda_new {
                if *l > CbmfPrior::LAMBDA_FLOOR {
                    *l *= diag_mean;
                }
            }
            if r_new.is_finite() {
                project_pd_relative(&r_new.symmetrized(), self.config.r_pd_floor)?
            } else {
                r.clone()
            }
        } else {
            r.clone()
        };

        // σ0 update (eq. 31).
        let nk = moments.total_samples as f64;
        let sigma_sq = ((moments.resid_norm_sq + moments.resid_trace) / nk).max(0.0);
        let sigma0 = if sigma_sq.is_finite() {
            sigma_sq.sqrt().max(self.config.sigma_floor)
        } else {
            prior.sigma0()
        };

        CbmfPrior::new(lambda_new, r_new, sigma0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSpec;
    use cbmf_stats::{normal, seeded_rng};

    /// K correlated states with shared sparse template {0, 3} and smoothly
    /// varying magnitudes; returns (problem, clean test problem).
    fn correlated_problem(
        k: usize,
        n: usize,
        d: usize,
        noise: f64,
        seed: u64,
    ) -> (TunableProblem, TunableProblem) {
        let mut rng = seeded_rng(seed);
        let gen = |n: usize, noise: f64, rng: &mut cbmf_stats::SeededRng| {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for state in 0..k {
                let x = Matrix::from_fn(n, d, |_, _| normal::sample(rng));
                let w = 1.0 + 0.06 * state as f64;
                let y: Vec<f64> = (0..n)
                    .map(|i| w * (1.5 * x[(i, 0)] - 0.9 * x[(i, 3)]) + noise * normal::sample(rng))
                    .collect();
                xs.push(x);
                ys.push(y);
            }
            TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap()
        };
        let train = gen(n, noise, &mut rng);
        let test = gen(50, 0.0, &mut rng);
        (train, test)
    }

    fn init_prior(m: usize, k: usize, support: &[usize]) -> CbmfPrior {
        let mut lambda = vec![1e-5; m];
        for &s in support {
            lambda[s] = 1.0;
        }
        CbmfPrior::with_toeplitz_r(lambda, k, 0.9, 0.3).unwrap()
    }

    #[test]
    fn marginal_likelihood_is_monotone_nonincreasing() {
        let (train, _) = correlated_problem(4, 12, 8, 0.1, 50);
        let prior = init_prior(8, 4, &[0, 3, 5]);
        let out = EmRefiner::new(EmConfig {
            max_iters: 10,
            tol: 0.0, // run all iterations
            ..EmConfig::default()
        })
        .refine(&train, &prior)
        .unwrap();
        for w in out.nlml_trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-6 * w[0].abs().max(1.0),
                "EM must not increase the objective: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn em_improves_over_initializer_on_test_data() {
        let (train, test) = correlated_problem(4, 10, 12, 0.2, 51);
        // Initializer deliberately over-selects (true support plus junk).
        let prior = init_prior(12, 4, &[0, 1, 3, 6, 9]);
        let init_coeffs = MapPosterior.solve_coefficients(&train, &prior).unwrap();
        let out = EmRefiner::new(EmConfig::default())
            .refine(&train, &prior)
            .unwrap();

        let eval = |coeffs: &Matrix| {
            let support: Vec<usize> = (0..12).collect();
            let intercepts: Vec<f64> = (0..4)
                .map(|k| train.intercept_for(k, &support, coeffs.row(k)))
                .collect();
            let model = crate::PerStateModel::new(
                BasisSpec::Linear,
                12,
                support,
                coeffs.clone(),
                intercepts,
            )
            .unwrap();
            model.modeling_error(&test).unwrap()
        };
        let err_init = eval(&init_coeffs);
        let err_em = eval(&out.coeffs);
        assert!(
            err_em <= err_init * 1.05,
            "EM must not hurt: init {err_init:.4}, em {err_em:.4}"
        );
    }

    #[test]
    fn em_prunes_junk_bases() {
        // 24 samples/state: enough evidence for ARD to collapse the junk λ
        // decisively for any reasonable RNG stream (14 left the margin
        // seed-dependent).
        let (train, _) = correlated_problem(4, 24, 10, 0.05, 52);
        let prior = init_prior(10, 4, &[0, 3, 7]); // 7 is junk
        let out = EmRefiner::new(EmConfig::default())
            .refine(&train, &prior)
            .unwrap();
        let l = out.prior.lambda();
        assert!(
            l[0] > 100.0 * l[7],
            "true basis λ must dominate junk: {l:?}"
        );
        assert!(
            l[3] > 100.0 * l[7],
            "true basis λ must dominate junk: {l:?}"
        );
    }

    #[test]
    fn em_learns_cross_state_correlation() {
        // Coefficients vary smoothly across states => learned R must have
        // strong positive adjacent-state correlation.
        let (train, _) = correlated_problem(6, 12, 6, 0.05, 53);
        let prior = init_prior(6, 6, &[0, 3]);
        let out = EmRefiner::new(EmConfig::default())
            .refine(&train, &prior)
            .unwrap();
        let r = out.prior.r();
        let corr01 = r[(0, 1)] / (r[(0, 0)] * r[(1, 1)]).sqrt();
        assert!(corr01 > 0.8, "adjacent-state correlation {corr01}");
    }

    #[test]
    fn em_estimates_noise_scale() {
        let (train, _) = correlated_problem(4, 25, 6, 0.3, 54);
        let prior = init_prior(6, 4, &[0, 3]);
        let out = EmRefiner::new(EmConfig::default())
            .refine(&train, &prior)
            .unwrap();
        let s = out.prior.sigma0();
        assert!(s > 0.15 && s < 0.6, "σ0 estimate {s} should be near 0.3");
    }

    #[test]
    fn converges_and_reports_it() {
        let (train, _) = correlated_problem(3, 15, 5, 0.1, 55);
        let prior = init_prior(5, 3, &[0, 3]);
        let out = EmRefiner::new(EmConfig {
            max_iters: 100,
            tol: 1e-4,
            ..EmConfig::default()
        })
        .refine(&train, &prior)
        .unwrap();
        assert!(out.converged, "should converge within 100 iterations");
        assert!(out.iterations < 100);
        assert_eq!(out.nlml_trace.len(), out.iterations);
    }

    #[test]
    fn all_pruned_prior_still_runs() {
        let (train, _) = correlated_problem(2, 8, 4, 0.1, 56);
        let lambda = vec![CbmfPrior::LAMBDA_FLOOR; 4];
        let prior = CbmfPrior::with_toeplitz_r(lambda, 2, 0.5, 0.2).unwrap();
        let out = EmRefiner::new(EmConfig::default())
            .refine(&train, &prior)
            .unwrap();
        // Nothing active: coefficients are ~0, R carried through.
        assert!(out.coeffs.max_abs() < 1e-6);
    }
}
