use cbmf_linalg::{Cholesky, Matrix};
use cbmf_trace::{Counter, Gauge};

use crate::dataset::TunableProblem;
use crate::error::CbmfError;
use crate::prior::CbmfPrior;

/// Coefficient-only posterior solves (the MAP coefficients under the final
/// prior, one per EM refinement).
static POSTERIOR_COEFF_SOLVES: Counter = Counter::new("cbmf.posterior.coeff_solves");
/// Full-moment posterior solves (one per EM iteration).
static POSTERIOR_MOMENT_SOLVES: Counter = Counter::new("cbmf.posterior.moment_solves");
/// Reciprocal-condition estimate of the most recent observation-space
/// covariance factorization — the pipeline's condition monitor. Values
/// approaching machine epsilon predict jitter retries and fallbacks.
static POSTERIOR_RCOND: Gauge = Gauge::new("cbmf.posterior.rcond_estimate");

/// The MAP posterior of the C-BMF model (paper eqs. 19–22), evaluated with
/// structure-exploiting algebra.
///
/// Naively, the posterior covariance Σp (eq. 20) is an `M·K × M·K` matrix —
/// about 40 000² for the paper's LNA — so neither it nor the prior
/// covariance `A` (eq. 11) is ever formed. Everything is computed in
/// *observation space* through the `NK × NK` matrix
///
/// ```text
/// C = σ0²·I + D·A·Dᵀ,
/// C[(k,n),(k',n')] = σ0²·δ + R[k,k'] · Σ_m λ_m · b_m(x_k⁽ⁿ⁾)·b_m(x_{k'}⁽ⁿ'⁾),
/// ```
///
/// assembled from one weighted Gram of the active basis rows of every
/// state stacked state-major (`NK × |active|`), whose block `(k,k')` is then
/// scaled by `R[k,k']`, and factored once per call:
///
/// * MAP coefficients (eq. 22): `α_{k,m} = λ_m · Σ_{k'} R[k,k'] · g_m[k']`
///   with `g_m[k'] = b_{m,k'}ᵀ (C⁻¹y)_{k'}` — one Cholesky solve total.
/// * For EM, the K×K matrices `T_m[k,k'] = b_{m,k}ᵀ (C⁻¹)_{k,k'} b_{m,k'}`,
///   one product per state `k'` against the `C⁻¹` rows of states `≤ k'`.
///   The posterior block covariance `Σp^m = λ_m·R − λ_m²·R·T_m·R` is never
///   formed: the M-step needs only `⟨T_m, R⟩` and `Σ_m w_m·T_m`.
/// * The σ0 update's trace term in closed form,
///   `Tr(D Σp Dᵀ) = σ0²·(NK − σ0²·Tr C⁻¹)`.
///
/// Basis functions whose λ sits at the floor are skipped when assembling
/// `C` (they contribute nothing above round-off), which is what makes full-
/// dictionary EM iterations affordable after the initializer has sparsified
/// the prior.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapPosterior;

/// Posterior moments needed by the EM M-step.
#[derive(Debug, Clone)]
pub struct PosteriorMoments {
    /// MAP coefficients, `K × M` (eq. 22 rearranged per state); column m is
    /// the posterior mean block `μp^m`.
    pub coeffs: Matrix,
    /// Per-basis K×K matrices `T_m = B_mᵀ·C⁻¹·B_m` (bitwise symmetric); only
    /// computed for the λ-active basis functions, `None` entries are pruned
    /// bases.
    pub t_blocks: Vec<Option<Matrix>>,
    /// `Tr(D Σp Dᵀ)` for the σ0 update (eq. 31).
    pub resid_trace: f64,
    /// `‖y − D·μp‖²` over all states.
    pub resid_norm_sq: f64,
    /// Negative log marginal likelihood (eq. 25): `yᵀC⁻¹y + log|C|`.
    pub neg_log_marginal: f64,
    /// Total observation count N·K of the view that produced this.
    pub total_samples: usize,
}

impl MapPosterior {
    /// Relative λ threshold below which a basis is treated as pruned when
    /// assembling C.
    const ACTIVE_EPS: f64 = 1e-10;

    /// Solves only the MAP coefficients (eq. 22).
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the prior's K or M disagrees with
    ///   the problem.
    /// * [`CbmfError::Linalg`] if C cannot be factored even with jitter.
    pub fn solve_coefficients(
        &self,
        problem: &TunableProblem,
        prior: &CbmfPrior,
    ) -> Result<Matrix, CbmfError> {
        let _span = cbmf_trace::span("posterior_coeffs");
        POSTERIOR_COEFF_SOLVES.inc();
        let ctx = Context::build(problem, prior)?;
        ctx.coefficients(problem, prior)
    }

    /// Solves the posterior moments (coefficients, the active `T_m`,
    /// traces) — the per-iteration E-step of the EM refiner.
    ///
    /// # Errors
    ///
    /// Same as [`MapPosterior::solve_coefficients`].
    pub fn solve_moments(
        &self,
        problem: &TunableProblem,
        prior: &CbmfPrior,
    ) -> Result<PosteriorMoments, CbmfError> {
        let _span = cbmf_trace::span("posterior_moments");
        POSTERIOR_MOMENT_SOLVES.inc();
        let ctx = Context::build(problem, prior)?;
        let k = problem.num_states();
        let m = problem.num_basis();
        let coeffs = ctx.coefficients(problem, prior)?;
        let cinv = ctx.chol.inverse();

        // T_m for every active basis, one product per state b:
        // W_b = (C⁻¹)[rows of states ≤ b, block b] · B_b, then
        // T_m[a,b] = Σ_{n∈a} B_a[n,m]·W_b[n,m] for a ≤ b, mirrored.
        let active = &ctx.active;
        let mut t_active = vec![Matrix::zeros(k, k); active.len()];
        let mut acc = vec![0.0; active.len()];
        for kb in 0..k {
            let (ob, end) = (ctx.offsets[kb], ctx.offsets[kb] + ctx.counts[kb]);
            let bb = problem.states()[kb].basis.select_cols(active);
            let w = cinv.block(0, end, ob, end).matmul(&bb)?;
            for (ka, st) in problem.states()[..=kb].iter().enumerate() {
                acc.fill(0.0);
                for n in 0..st.len() {
                    let (b, wrow) = (st.basis.row(n), w.row(ctx.offsets[ka] + n));
                    for ((s, &mi), wv) in acc.iter_mut().zip(active).zip(wrow) {
                        *s += b[mi] * wv;
                    }
                }
                for (t, &s) in t_active.iter_mut().zip(&acc) {
                    t[(ka, kb)] = s;
                    t[(kb, ka)] = s;
                }
            }
        }
        let mut t_blocks: Vec<Option<Matrix>> = vec![None; m];
        for (&mi, t) in active.iter().zip(t_active) {
            t_blocks[mi] = Some(t);
        }

        // Residual norm ‖y − Dμ‖² per state.
        let mut resid_norm_sq = 0.0;
        for (ki, st) in problem.states().iter().enumerate() {
            let fitted = st.basis.matvec(coeffs.row(ki))?;
            for (yv, fv) in st.y.iter().zip(&fitted) {
                resid_norm_sq += (yv - fv) * (yv - fv);
            }
        }

        // Tr(DΣpDᵀ) = Tr(P) − Tr(P·C⁻¹·P) with P = C − σ0²I, which expands
        // to σ0²·(NK − σ0²·Tr C⁻¹). Since C ⪰ σ0²I it is non-negative up to
        // rounding.
        let nk = ctx.total as f64;
        let s2 = prior.sigma0() * prior.sigma0();
        let resid_trace = (s2 * (nk - s2 * cinv.trace())).max(0.0);

        Ok(PosteriorMoments {
            coeffs,
            t_blocks,
            resid_trace,
            resid_norm_sq,
            neg_log_marginal: ctx.quad + ctx.chol.logdet(),
            total_samples: ctx.total,
        })
    }
}

/// Exact posterior-predictive distribution of the C-BMF model — a
/// capability the Bayesian formulation provides beyond the paper's point
/// estimates: every prediction comes with its variance.
///
/// In observation space the model is a Gaussian process over (state, x)
/// pairs, so the classical GP identities apply:
///
/// ```text
/// mean(y* | s, x) = ȳ_s + qᵀ·C⁻¹·y
/// var(y* | s, x)  = σ0² + R[s,s]·Σ_m λ_m·c_s(x)_m² − qᵀ·C⁻¹·q
/// q[(k,n)]        = R[s,k]·Σ_m λ_m·c_s(x)_m·B_k[n,m]
/// ```
///
/// where `c_s(x)` is the basis evaluation centered at state s's training
/// means (consistent with how [`crate::TunableProblem`] centers columns).
///
/// # Examples
///
/// ```no_run
/// # use cbmf::{BasisSpec, CbmfPrior, PosteriorPredictive, TunableProblem};
/// # use cbmf_linalg::Matrix;
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// # let x = Matrix::zeros(8, 3);
/// # let problem = TunableProblem::from_samples(&[x], &[vec![0.0; 8]], BasisSpec::Linear)?;
/// # let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 1, 0.9, 0.1)?;
/// let predictive = PosteriorPredictive::new(&problem, &prior)?;
/// let (mean, var) = predictive.predict(0, &[0.1, -0.2, 0.3])?;
/// println!("y* = {mean:.3} ± {:.3}", var.sqrt());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PosteriorPredictive {
    chol: Cholesky,
    ciy: Vec<f64>,
    offsets: Vec<usize>,
    counts: Vec<usize>,
    /// Per-state centered basis matrices (clones of the training data).
    bases: Vec<Matrix>,
    basis_means: Vec<Vec<f64>>,
    y_means: Vec<f64>,
    lambda: Vec<f64>,
    r: Matrix,
    sigma0: f64,
    basis_spec: crate::BasisSpec,
}

impl PosteriorPredictive {
    /// Builds the predictive distribution by factoring the training system
    /// once.
    ///
    /// # Errors
    ///
    /// Same classes as [`MapPosterior::solve_coefficients`].
    pub fn new(problem: &TunableProblem, prior: &CbmfPrior) -> Result<Self, CbmfError> {
        let ctx = Context::build(problem, prior)?;
        Ok(PosteriorPredictive {
            chol: ctx.chol,
            ciy: ctx.ciy,
            offsets: ctx.offsets,
            counts: ctx.counts,
            bases: problem.states().iter().map(|s| s.basis.clone()).collect(),
            basis_means: problem
                .states()
                .iter()
                .map(|s| s.basis_means.clone())
                .collect(),
            y_means: problem.states().iter().map(|s| s.y_mean).collect(),
            lambda: prior.lambda().to_vec(),
            r: prior.r().clone(),
            sigma0: prior.sigma0(),
            basis_spec: problem.basis_spec(),
        })
    }

    /// Number of states K.
    pub fn num_states(&self) -> usize {
        self.y_means.len()
    }

    /// Validates a query and assembles its cross-covariance vector `q`,
    /// the data-dependent mean `qᵀC⁻¹y`, and the prior variance term.
    ///
    /// Shared verbatim by the single-sample and tiled paths so both produce
    /// bit-identical intermediates.
    fn query(&self, state: usize, x: &[f64]) -> Result<(Vec<f64>, f64, f64), CbmfError> {
        let k = self.num_states();
        if state >= k {
            return Err(CbmfError::InvalidInput {
                what: format!("state {state} out of range ({k})"),
            });
        }
        let m = self.lambda.len();
        if self.basis_spec.num_basis(x.len()) != m {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "input dimension {} does not match the dictionary ({m})",
                    x.len()
                ),
            });
        }
        // Centered basis evaluation at the target state's training means.
        let raw = self.basis_spec.eval(x);
        let c_star: Vec<f64> = raw
            .iter()
            .zip(&self.basis_means[state])
            .map(|(b, mu)| b - mu)
            .collect();
        // λ-weighted copy used by both q and the prior variance.
        let lc: Vec<f64> = c_star
            .iter()
            .zip(&self.lambda)
            .map(|(c, l)| c * l)
            .collect();

        // q over all training observations.
        let total: usize = self.counts.iter().sum();
        let mut q = vec![0.0; total];
        for ki in 0..k {
            let rho = self.r[(state, ki)];
            if rho == 0.0 {
                continue;
            }
            let b = &self.bases[ki];
            let off = self.offsets[ki];
            for n in 0..self.counts[ki] {
                let mut acc = 0.0;
                for (lcm, bv) in lc.iter().zip(b.row(n)) {
                    acc += lcm * bv;
                }
                q[off + n] = rho * acc;
            }
        }

        let mean_c: f64 = q.iter().zip(&self.ciy).map(|(a, b)| a * b).sum();
        let prior_var: f64 =
            self.r[(state, state)] * c_star.iter().zip(&lc).map(|(c, l)| c * l).sum::<f64>();
        Ok((q, mean_c, prior_var))
    }

    /// Turns the whitened cross-covariance `w = L⁻¹q` into the final
    /// variance: `var = σ0² + prior_var − ‖w‖²` (since `qᵀC⁻¹q = ‖L⁻¹q‖²`),
    /// floored at a fraction of the noise variance.
    fn finish_variance(&self, prior_var: f64, w: &[f64]) -> f64 {
        let explained: f64 = w.iter().map(|v| v * v).sum();
        (self.sigma0 * self.sigma0 + prior_var - explained).max(self.sigma0 * self.sigma0 * 1e-6)
    }

    /// Predictive mean and variance of the metric at `(state, x)`.
    ///
    /// # Errors
    ///
    /// Returns [`CbmfError::InvalidInput`] if `state` is out of range or
    /// `x` does not match the dictionary dimension.
    pub fn predict(&self, state: usize, x: &[f64]) -> Result<(f64, f64), CbmfError> {
        let (q, mean_c, prior_var) = self.query(state, x)?;
        let w = self.chol.forward_solve(&q)?;
        let var = self.finish_variance(prior_var, &w);
        Ok((self.y_means[state] + mean_c, var))
    }

    /// Predictive mean and variance for a tile of samples at one state,
    /// sharing a single multi-RHS triangular solve.
    ///
    /// The per-sample `q` assembly and the variance reduction run the exact
    /// operation sequence of [`predict`](Self::predict), and the batched
    /// [`Cholesky::forward_solve_mat`] is bitwise identical per column to
    /// the single-RHS solve — so the tile result equals calling `predict`
    /// sample-by-sample, bit for bit, at any thread count. This is the
    /// building block of `cbmf-serve`'s blocked uncertainty path.
    ///
    /// # Errors
    ///
    /// Returns [`CbmfError::InvalidInput`] if `state` is out of range or
    /// any sample's dimension does not match the dictionary.
    pub fn predict_tile(&self, state: usize, xs: &[&[f64]]) -> Result<Vec<(f64, f64)>, CbmfError> {
        let t = xs.len();
        if t == 0 {
            return Ok(Vec::new());
        }
        let total: usize = self.counts.iter().sum();
        let mut means = Vec::with_capacity(t);
        let mut prior_vars = Vec::with_capacity(t);
        // Q holds one query per column, matching forward_solve_mat's layout.
        let mut qmat = Matrix::zeros(total, t);
        for (j, x) in xs.iter().enumerate() {
            let (q, mean_c, prior_var) = self.query(state, x)?;
            for (i, qv) in q.into_iter().enumerate() {
                qmat[(i, j)] = qv;
            }
            means.push(self.y_means[state] + mean_c);
            prior_vars.push(prior_var);
        }
        let wmat = self.chol.forward_solve_mat(&qmat)?;
        let mut out = Vec::with_capacity(t);
        // One pooled scratch column shared across samples: the variance
        // reduction reads every element it writes, so a dirty recycled
        // buffer cannot change the bits.
        let mut ws = cbmf_parallel::workspace::acquire();
        let w = ws.one(total);
        for (j, (mean, prior_var)) in means.into_iter().zip(prior_vars).enumerate() {
            // Column j in iteration order, matching the single-RHS ‖w‖² sum.
            for (i, wv) in w.iter_mut().enumerate() {
                *wv = wmat[(i, j)];
            }
            out.push((mean, self.finish_variance(prior_var, w)));
        }
        Ok(out)
    }

    /// Decomposes the predictive into its serializable parts — everything a
    /// model artifact needs to rebuild the exact distribution without the
    /// training problem: the Cholesky factor (not the covariance, so no
    /// refactorization on load), the solved data vector, and the per-state
    /// training bases and centering statistics.
    pub fn to_parts(&self) -> PredictiveParts {
        PredictiveParts {
            chol_l: self.chol.l().clone(),
            chol_jitter: self.chol.jitter(),
            ciy: self.ciy.clone(),
            bases: self.bases.clone(),
            basis_means: self.basis_means.clone(),
            y_means: self.y_means.clone(),
            lambda: self.lambda.clone(),
            r: self.r.clone(),
            sigma0: self.sigma0,
            basis_spec: self.basis_spec,
        }
    }

    /// Rebuilds a predictive distribution from serialized parts.
    ///
    /// Because the parts carry the factor `L` itself, predictions from the
    /// rebuilt distribution are bitwise identical to the original's — no
    /// refactorization, no rounding drift across save/load cycles.
    ///
    /// # Errors
    ///
    /// Returns [`CbmfError::InvalidInput`] if the parts are mutually
    /// inconsistent (shape disagreements, non-positive σ0, invalid factor).
    pub fn from_parts(parts: PredictiveParts) -> Result<Self, CbmfError> {
        let k = parts.y_means.len();
        let m = parts.lambda.len();
        if parts.bases.len() != k || parts.basis_means.len() != k {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "predictive parts: {} bases / {} basis_means for {k} states",
                    parts.bases.len(),
                    parts.basis_means.len()
                ),
            });
        }
        if parts.r.shape() != (k, k) {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "predictive parts: R is {:?}, expected ({k}, {k})",
                    parts.r.shape()
                ),
            });
        }
        for (ki, (b, bm)) in parts.bases.iter().zip(&parts.basis_means).enumerate() {
            if b.cols() != m || bm.len() != m {
                return Err(CbmfError::InvalidInput {
                    what: format!(
                        "predictive parts: state {ki} basis has {} cols, means {}, dictionary {m}",
                        b.cols(),
                        bm.len()
                    ),
                });
            }
        }
        if !(parts.sigma0 > 0.0 && parts.sigma0.is_finite()) {
            return Err(CbmfError::InvalidInput {
                what: format!("predictive parts: sigma0 {} must be positive", parts.sigma0),
            });
        }
        let counts: Vec<usize> = parts.bases.iter().map(|b| b.rows()).collect();
        let mut offsets = Vec::with_capacity(k);
        let mut total = 0;
        for &n in &counts {
            offsets.push(total);
            total += n;
        }
        if parts.chol_l.shape() != (total, total) || parts.ciy.len() != total {
            return Err(CbmfError::InvalidInput {
                what: format!(
                    "predictive parts: factor {:?} / ciy {} for {total} observations",
                    parts.chol_l.shape(),
                    parts.ciy.len()
                ),
            });
        }
        let chol = Cholesky::from_factor(parts.chol_l, parts.chol_jitter)?;
        Ok(PosteriorPredictive {
            chol,
            ciy: parts.ciy,
            offsets,
            counts,
            bases: parts.bases,
            basis_means: parts.basis_means,
            y_means: parts.y_means,
            lambda: parts.lambda,
            r: parts.r,
            sigma0: parts.sigma0,
            basis_spec: parts.basis_spec,
        })
    }
}

/// The serializable decomposition of a [`PosteriorPredictive`] — the
/// contract between the fitting core and `cbmf-serve`'s `cbmf-model/1`
/// artifact format. Offsets/counts are derived from the per-state basis row
/// counts on reassembly, so they are deliberately absent.
#[derive(Debug, Clone)]
pub struct PredictiveParts {
    /// Lower Cholesky factor `L` of the training covariance `C + jitter·I`.
    pub chol_l: Matrix,
    /// Diagonal loading baked into `chol_l` (0 for a clean factorization).
    pub chol_jitter: f64,
    /// `C⁻¹·y` over all training observations, state-major.
    pub ciy: Vec<f64>,
    /// Per-state centered training basis matrices `B_k` (`N_k × M`).
    pub bases: Vec<Matrix>,
    /// Per-state training column means of the raw basis.
    pub basis_means: Vec<Vec<f64>>,
    /// Per-state training output means (the intercepts of the mean path).
    pub y_means: Vec<f64>,
    /// Per-basis prior scales λ.
    pub lambda: Vec<f64>,
    /// State correlation matrix `R` (`K × K`).
    pub r: Matrix,
    /// Observation noise σ0.
    pub sigma0: f64,
    /// Dictionary family.
    pub basis_spec: crate::BasisSpec,
}

/// The factored observation-space system shared by all posterior queries.
struct Context {
    chol: Cholesky,
    /// C⁻¹·y.
    ciy: Vec<f64>,
    /// yᵀ·C⁻¹·y.
    quad: f64,
    /// Active (non-floored) basis indices.
    active: Vec<usize>,
    offsets: Vec<usize>,
    counts: Vec<usize>,
    total: usize,
}

impl Context {
    fn build(problem: &TunableProblem, prior: &CbmfPrior) -> Result<Self, CbmfError> {
        let k = problem.num_states();
        let m = problem.num_basis();
        if prior.num_states() != k {
            return Err(CbmfError::InvalidInput {
                what: format!("prior has {} states, problem has {k}", prior.num_states()),
            });
        }
        if prior.num_basis() != m {
            return Err(CbmfError::InvalidInput {
                what: format!("prior has {} bases, problem has {m}", prior.num_basis()),
            });
        }
        let counts: Vec<usize> = problem.states().iter().map(|s| s.len()).collect();
        let mut offsets = Vec::with_capacity(k);
        let mut state_of_row = Vec::new();
        let mut total = 0;
        for (ki, &n) in counts.iter().enumerate() {
            offsets.push(total);
            state_of_row.resize(total + n, ki);
            total += n;
        }

        // Active (non-floored) basis columns only.
        let lambda = prior.lambda();
        let lmax = lambda.iter().copied().fold(0.0_f64, f64::max);
        let active: Vec<usize> = (0..m)
            .filter(|&mi| lambda[mi] > MapPosterior::ACTIVE_EPS * lmax)
            .collect();

        // C = R ∘ (B Λ Bᵀ) + σ0²I from one weighted Gram of the active
        // basis rows of every state stacked state-major (NK × |active|),
        // with block (a,b) then scaled by R[a,b]. The lower triangle is
        // scaled and mirrored, so C is symmetric to the bit whatever the
        // rounding of R.
        let mut c = {
            let mut basis = Matrix::zeros(total, active.len());
            for (st, &o) in problem.states().iter().zip(&offsets) {
                basis.set_block(o, 0, &st.basis.select_cols(&active));
            }
            let lam_active: Vec<f64> = active.iter().map(|&mi| lambda[mi]).collect();
            basis.weighted_gram(&lam_active)?
        };
        let r = prior.r();
        for i in 0..total {
            for j in 0..=i {
                let v = r[(state_of_row[i], state_of_row[j])] * c[(i, j)];
                c[(i, j)] = v;
                c[(j, i)] = v;
            }
        }
        c.add_diag_mut(prior.sigma0() * prior.sigma0());

        let chol = Cholesky::new_robust(&c)?;
        POSTERIOR_RCOND.set(chol.rcond_estimate());
        let y: Vec<f64> = problem.states().iter().flat_map(|s| s.y.clone()).collect();
        let ciy = chol.solve_vec(&y)?;
        let quad = y.iter().zip(&ciy).map(|(a, b)| a * b).sum();
        Ok(Context {
            chol,
            ciy,
            quad,
            active,
            offsets,
            counts,
            total,
        })
    }

    /// MAP coefficients for every basis (floored bases get ≈0 coefficients
    /// automatically through their λ factor).
    ///
    /// # Errors
    ///
    /// Returns [`CbmfError::Linalg`] if a state's basis disagrees in shape
    /// with the solved right-hand side (only possible through a corrupted
    /// problem — the error carries the offending shapes).
    fn coefficients(
        &self,
        problem: &TunableProblem,
        prior: &CbmfPrior,
    ) -> Result<Matrix, CbmfError> {
        let k = problem.num_states();
        let m = problem.num_basis();
        let lambda = prior.lambda();
        let r = prior.r();
        // g[m][k] = b_{m,k}ᵀ (C⁻¹y)_k — one independent basis projection per
        // state, fanned out across threads (each costs O(N_k·M) flops).
        let per_state = self.counts.iter().max().copied().unwrap_or(0) * m;
        let grain = (128 * 1024 / per_state.max(1)).max(1);
        let g_cols = cbmf_parallel::par_map_indexed(k, grain, |ki| {
            let slice = &self.ciy[self.offsets[ki]..self.offsets[ki] + self.counts[ki]];
            problem.states()[ki].basis.t_matvec(slice)
        });
        let mut g = Matrix::zeros(m, k);
        for (ki, gm) in g_cols.into_iter().enumerate() {
            for (mi, v) in gm?.into_iter().enumerate() {
                g[(mi, ki)] = v;
            }
        }
        // α_{k,m} = λ_m · Σ_{k'} R[k,k'] g[m][k'].
        let mut coeffs = Matrix::zeros(k, m);
        for mi in 0..m {
            let grow = g.row(mi);
            for ki in 0..k {
                let mut acc = 0.0;
                for (kj, gv) in grow.iter().enumerate() {
                    acc += r[(ki, kj)] * gv;
                }
                coeffs[(ki, mi)] = lambda[mi] * acc;
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

    fn toy_problem(k: usize, n: usize, d: usize, seed: u64, noise: f64) -> TunableProblem {
        let mut rng = seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| normal::sample(&mut rng));
            let w = 1.0 + 0.1 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| w * (x[(i, 0)] - 0.5 * x[(i, 2)]) + noise * normal::sample(&mut rng))
                .collect();
            xs.push(x);
            ys.push(y);
        }
        TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap()
    }

    /// With K = 1 and R = [1], the MAP estimate must equal ridge regression
    /// with per-column penalties σ0²/λ_m (the classical Bayes–ridge
    /// equivalence) — an independent check of the whole algebra.
    #[test]
    fn k1_reduces_to_ridge_regression() {
        let problem = toy_problem(1, 20, 5, 40, 0.05);
        let lambda = vec![2.0, 0.5, 1.0, 0.1, 3.0];
        let sigma0 = 0.3;
        let prior = CbmfPrior::new(lambda.clone(), Matrix::identity(1), sigma0).unwrap();
        let coeffs = MapPosterior.solve_coefficients(&problem, &prior).unwrap();

        // Ridge: (BᵀB + σ0²Λ⁻¹)⁻¹ Bᵀ y.
        let st = &problem.states()[0];
        let mut ata = st.basis.t_matmul(&st.basis).unwrap();
        for (j, l) in lambda.iter().enumerate() {
            ata[(j, j)] += sigma0 * sigma0 / l;
        }
        let atb = st.basis.t_matvec(&st.y).unwrap();
        let ridge = Cholesky::new(&ata).unwrap().solve_vec(&atb).unwrap();
        for j in 0..5 {
            assert!(
                (coeffs[(0, j)] - ridge[j]).abs() < 1e-8,
                "coef {j}: {} vs {}",
                coeffs[(0, j)],
                ridge[j]
            );
        }
    }

    /// With R = I, states decouple: the joint solve must match solving each
    /// state alone.
    #[test]
    fn identity_r_decouples_states() {
        let problem = toy_problem(3, 15, 4, 41, 0.05);
        let lambda = vec![1.0, 0.7, 0.2, 1.5];
        let prior = CbmfPrior::new(lambda.clone(), Matrix::identity(3), 0.2).unwrap();
        let joint = MapPosterior.solve_coefficients(&problem, &prior).unwrap();
        for k in 0..3 {
            // Rebuild a one-state problem holding only state k.
            let st = &problem.states()[k];
            let raw_y = problem.raw_y(k);
            let x_like = st.basis.clone(); // linear basis == x
            let p1 = TunableProblem::from_samples(&[x_like], &[raw_y], BasisSpec::Linear).unwrap();
            let prior1 = CbmfPrior::new(lambda.clone(), Matrix::identity(1), 0.2).unwrap();
            let solo = MapPosterior.solve_coefficients(&p1, &prior1).unwrap();
            for j in 0..4 {
                assert!(
                    (joint[(k, j)] - solo[(0, j)]).abs() < 1e-8,
                    "state {k} coef {j}"
                );
            }
        }
    }

    /// Strong correlation + tiny per-state data: information must flow
    /// between states (coefficients pulled toward each other relative to
    /// the uncorrelated solve).
    #[test]
    fn correlation_shares_information_across_states() {
        let mut rng = seeded_rng(42);
        // State 0 has many samples; state 1 only two — and identical truth.
        let d = 3;
        let x0 = Matrix::from_fn(30, d, |_, _| normal::sample(&mut rng));
        let y0: Vec<f64> = (0..30).map(|i| 2.0 * x0[(i, 1)]).collect();
        let x1 = Matrix::from_fn(2, d, |_, _| normal::sample(&mut rng));
        let y1: Vec<f64> = (0..2)
            .map(|i| 2.0 * x1[(i, 1)] + 0.3 * normal::sample(&mut rng))
            .collect();
        let problem =
            TunableProblem::from_samples(&[x0, x1], &[y0, y1], BasisSpec::Linear).unwrap();

        let lambda = vec![1.0; d];
        let corr = Matrix::from_rows(&[&[1.0, 0.98], &[0.98, 1.0]]).unwrap();
        let prior_corr = CbmfPrior::new(lambda.clone(), corr, 0.2).unwrap();
        let prior_ind = CbmfPrior::new(lambda, Matrix::identity(2), 0.2).unwrap();
        let with_corr = MapPosterior
            .solve_coefficients(&problem, &prior_corr)
            .unwrap();
        let without = MapPosterior
            .solve_coefficients(&problem, &prior_ind)
            .unwrap();
        // State 1's estimate of the true coefficient (2.0 on basis 1) must
        // be closer to truth with correlation borrowing from state 0.
        let err_corr = (with_corr[(1, 1)] - 2.0).abs();
        let err_ind = (without[(1, 1)] - 2.0).abs();
        assert!(
            err_corr < err_ind,
            "correlated {err_corr:.4} vs independent {err_ind:.4}"
        );
    }

    #[test]
    fn moments_have_consistent_shapes_and_psd_blocks() {
        let problem = toy_problem(3, 10, 4, 43, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0, 0.5, 1e-13, 0.8], 3, 0.8, 0.3).unwrap();
        let mom = MapPosterior.solve_moments(&problem, &prior).unwrap();
        assert_eq!(mom.coeffs.shape(), (3, 4));
        assert_eq!(mom.t_blocks.len(), 4);
        assert!(mom.t_blocks[2].is_none(), "floored basis is pruned");
        let r = prior.r();
        for (mi, t) in mom.t_blocks.iter().enumerate() {
            let Some(t) = t else { continue };
            // Σp^m = λ_m·R − λ_m²·R·T_m·R must be PSD (allow jitter).
            let lm = prior.lambda()[mi];
            let rtr = r.matmul(t).unwrap().matmul(r).unwrap();
            let sigma = (&r.scaled(lm) - &rtr.scaled(lm * lm)).symmetrized();
            let eig = cbmf_linalg::SymEigen::new(&sigma).unwrap();
            assert!(
                eig.min_eigenvalue() > -1e-8,
                "sigma block {mi} min eig {}",
                eig.min_eigenvalue()
            );
        }
        assert!(mom.resid_trace >= 0.0);
        assert!(mom.resid_norm_sq >= 0.0);
        assert!(mom.neg_log_marginal.is_finite());
        assert_eq!(mom.total_samples, 30);
    }

    /// The marginal likelihood must prefer the true noise level over a
    /// badly wrong one.
    #[test]
    fn marginal_likelihood_discriminates_noise_levels() {
        let problem = toy_problem(2, 25, 4, 44, 0.1);
        let lam = vec![1.0; 4];
        let good = CbmfPrior::with_toeplitz_r(lam.clone(), 2, 0.9, 0.1).unwrap();
        let bad = CbmfPrior::with_toeplitz_r(lam, 2, 0.9, 5.0).unwrap();
        let l_good = MapPosterior
            .solve_moments(&problem, &good)
            .unwrap()
            .neg_log_marginal;
        let l_bad = MapPosterior
            .solve_moments(&problem, &bad)
            .unwrap()
            .neg_log_marginal;
        assert!(l_good < l_bad, "{l_good} !< {l_bad}");
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let problem = toy_problem(2, 8, 3, 45, 0.1);
        let wrong_k = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 3, 0.5, 0.1).unwrap();
        assert!(MapPosterior.solve_coefficients(&problem, &wrong_k).is_err());
        let wrong_m = CbmfPrior::with_toeplitz_r(vec![1.0; 5], 2, 0.5, 0.1).unwrap();
        assert!(MapPosterior.solve_coefficients(&problem, &wrong_m).is_err());
    }

    #[test]
    fn predictive_mean_matches_map_model() {
        let problem = toy_problem(3, 12, 4, 47, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 4], 3, 0.8, 0.2).unwrap();
        let coeffs = MapPosterior.solve_coefficients(&problem, &prior).unwrap();
        let predictive = PosteriorPredictive::new(&problem, &prior).unwrap();
        let x = [0.4, -0.7, 1.1, 0.2];
        for state in 0..3 {
            // MAP model prediction with proper intercept handling.
            let support: Vec<usize> = (0..4).collect();
            let intercept = problem.intercept_for(state, &support, coeffs.row(state));
            let b = crate::BasisSpec::Linear.eval(&x);
            let map_pred: f64 = intercept
                + coeffs
                    .row(state)
                    .iter()
                    .zip(&b)
                    .map(|(c, bv)| c * bv)
                    .sum::<f64>();
            let (mean, var) = predictive.predict(state, &x).unwrap();
            assert!(
                (mean - map_pred).abs() < 1e-8,
                "state {state}: {mean} vs {map_pred}"
            );
            assert!(var > 0.0);
        }
    }

    #[test]
    fn predictive_variance_shrinks_with_data_and_grows_off_manifold() {
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 2, 0.8, 0.2).unwrap();
        let small = toy_problem(2, 5, 3, 48, 0.1);
        let big = toy_problem(2, 80, 3, 48, 0.1);
        let p_small = PosteriorPredictive::new(&small, &prior).unwrap();
        let p_big = PosteriorPredictive::new(&big, &prior).unwrap();
        let x = [0.3, 0.1, -0.4];
        let (_, v_small) = p_small.predict(0, &x).unwrap();
        let (_, v_big) = p_big.predict(0, &x).unwrap();
        assert!(v_big < v_small, "{v_big} !< {v_small}");
        // Far from the data, variance must exceed the near-origin variance.
        let far = [6.0, -6.0, 6.0];
        let (_, v_far) = p_big.predict(0, &far).unwrap();
        assert!(v_far > v_big, "{v_far} !> {v_big}");
        // And never drops below the observation noise.
        assert!(v_big >= 0.2 * 0.2 * 0.999, "{v_big}");
    }

    #[test]
    fn predictive_is_calibrated_under_the_true_prior() {
        // Draw truth from the prior itself, then check ~68% coverage of
        // ±1σ intervals on held-out points.
        let mut rng = seeded_rng(49);
        let k = 2;
        let d = 3;
        let sigma0 = 0.15;
        // True coefficients: α_m ~ N(0, λ_m R) with λ = 1, R toeplitz(0.9).
        let r = crate::prior::toeplitz_r(k, 0.9).unwrap();
        let rl = Cholesky::new(&r).unwrap();
        let mut alpha = vec![vec![0.0; d]; k];
        for m in 0..d {
            let z: Vec<f64> = (0..k).map(|_| normal::sample(&mut rng)).collect();
            let a = rl.l_matvec(&z).unwrap();
            for (alpha_k, &ak) in alpha.iter_mut().zip(&a) {
                alpha_k[m] = ak;
            }
        }
        let gen = |n: usize, rng: &mut cbmf_stats::SeededRng, alpha: &Vec<Vec<f64>>| {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for alpha_k in alpha.iter().take(k) {
                let x = Matrix::from_fn(n, d, |_, _| normal::sample(rng));
                let y: Vec<f64> = (0..n)
                    .map(|i| {
                        alpha_k
                            .iter()
                            .zip(x.row(i))
                            .map(|(a, xv)| a * xv)
                            .sum::<f64>()
                            + sigma0 * normal::sample(rng)
                    })
                    .collect();
                xs.push(x);
                ys.push(y);
            }
            TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap()
        };
        let train = gen(20, &mut rng, &alpha);
        let prior = CbmfPrior::new(vec![1.0; d], r.clone(), sigma0).unwrap();
        let predictive = PosteriorPredictive::new(&train, &prior).unwrap();
        let mut covered = 0;
        let trials = 400;
        for _ in 0..trials {
            let state = 0;
            let x: Vec<f64> = (0..d).map(|_| normal::sample(&mut rng)).collect();
            let truth: f64 = alpha[state]
                .iter()
                .zip(&x)
                .map(|(a, xv)| a * xv)
                .sum::<f64>()
                + sigma0 * normal::sample(&mut rng);
            let (mean, var) = predictive.predict(state, &x).unwrap();
            if (truth - mean).abs() <= var.sqrt() {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            (0.58..=0.78).contains(&coverage),
            "±1σ coverage should be near 68%, got {coverage}"
        );
    }

    #[test]
    fn predictive_input_validation() {
        let problem = toy_problem(2, 6, 3, 50, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 2, 0.5, 0.1).unwrap();
        let predictive = PosteriorPredictive::new(&problem, &prior).unwrap();
        assert!(predictive.predict(2, &[0.0; 3]).is_err());
        assert!(predictive.predict(0, &[0.0; 5]).is_err());
        assert!(predictive.predict_tile(2, &[&[0.0; 3]]).is_err());
        assert!(predictive.predict_tile(0, &[&[0.0; 5]]).is_err());
        assert!(predictive.predict_tile(0, &[]).unwrap().is_empty());
        assert_eq!(predictive.num_states(), 2);
    }

    #[test]
    fn predict_tile_matches_per_sample_bitwise() {
        let problem = toy_problem(3, 14, 4, 51, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0, 0.4, 0.9, 0.6], 3, 0.8, 0.2).unwrap();
        let predictive = PosteriorPredictive::new(&problem, &prior).unwrap();
        let samples: Vec<Vec<f64>> = (0..9)
            .map(|i| (0..4).map(|j| ((i * 4 + j) as f64 * 0.31).sin()).collect())
            .collect();
        let refs: Vec<&[f64]> = samples.iter().map(|s| s.as_slice()).collect();
        for state in 0..3 {
            let tile1 =
                cbmf_parallel::with_threads(1, || predictive.predict_tile(state, &refs).unwrap());
            let tile8 =
                cbmf_parallel::with_threads(8, || predictive.predict_tile(state, &refs).unwrap());
            for (x, (&(tm, tv), &(tm8, tv8))) in refs.iter().zip(tile1.iter().zip(&tile8)) {
                let (m, v) = predictive.predict(state, x).unwrap();
                assert_eq!(tm.to_bits(), m.to_bits());
                assert_eq!(tv.to_bits(), v.to_bits());
                assert_eq!(tm8.to_bits(), m.to_bits());
                assert_eq!(tv8.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn parts_round_trip_is_bitwise_exact() {
        let problem = toy_problem(2, 10, 3, 52, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 2, 0.7, 0.15).unwrap();
        let original = PosteriorPredictive::new(&problem, &prior).unwrap();
        let rebuilt = PosteriorPredictive::from_parts(original.to_parts()).unwrap();
        assert_eq!(rebuilt.num_states(), original.num_states());
        for state in 0..2 {
            for trial in 0..5 {
                let x: Vec<f64> = (0..3)
                    .map(|j| ((trial * 3 + j) as f64 * 0.47).cos())
                    .collect();
                let (m0, v0) = original.predict(state, &x).unwrap();
                let (m1, v1) = rebuilt.predict(state, &x).unwrap();
                assert_eq!(m0.to_bits(), m1.to_bits());
                assert_eq!(v0.to_bits(), v1.to_bits());
            }
        }
    }

    #[test]
    fn from_parts_rejects_inconsistent_shapes() {
        let problem = toy_problem(2, 6, 3, 53, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 2, 0.5, 0.1).unwrap();
        let predictive = PosteriorPredictive::new(&problem, &prior).unwrap();

        let mut p = predictive.to_parts();
        p.y_means.push(0.0); // K disagrees with bases
        assert!(PosteriorPredictive::from_parts(p).is_err());

        let mut p = predictive.to_parts();
        p.ciy.pop();
        assert!(PosteriorPredictive::from_parts(p).is_err());

        let mut p = predictive.to_parts();
        p.sigma0 = -1.0;
        assert!(PosteriorPredictive::from_parts(p).is_err());

        let mut p = predictive.to_parts();
        p.basis_means[0].pop();
        assert!(PosteriorPredictive::from_parts(p).is_err());

        let mut p = predictive.to_parts();
        p.r = Matrix::identity(3);
        assert!(PosteriorPredictive::from_parts(p).is_err());

        let mut p = predictive.to_parts();
        p.chol_l[(0, 0)] = -1.0; // invalid factor diagonal
        assert!(PosteriorPredictive::from_parts(p).is_err());
    }

    /// Tr(DΣpDᵀ) must shrink as the data constrains the posterior more
    /// (more samples ⇒ smaller posterior uncertainty on the data manifold
    /// per sample; compare the per-sample normalized trace).
    #[test]
    fn posterior_uncertainty_shrinks_with_data() {
        let small = toy_problem(2, 6, 3, 46, 0.1);
        let big = toy_problem(2, 60, 3, 46, 0.1);
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; 3], 2, 0.8, 0.2).unwrap();
        let m_small = MapPosterior.solve_moments(&small, &prior).unwrap();
        let m_big = MapPosterior.solve_moments(&big, &prior).unwrap();
        let per_small = m_small.resid_trace / m_small.total_samples as f64;
        let per_big = m_big.resid_trace / m_big.total_samples as f64;
        assert!(per_big < per_small, "{per_big} !< {per_small}");
    }
}
