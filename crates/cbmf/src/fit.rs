use std::time::Instant;

use cbmf_linalg::Matrix;
use cbmf_trace::Counter;
use rand::Rng;

use crate::dataset::TunableProblem;
use crate::em::{EmConfig, EmOutcome, EmRefiner};
use crate::error::CbmfError;
use crate::init::{CandidateGrid, InitOutcome, SompInitializer};
use crate::model::PerStateModel;
use crate::ols::dictionary_dim;
use crate::somp::{Somp, SompConfig};

/// Fits that lost EM refinement to a numerical failure and kept the
/// initializer's model under the parameterized R(r0) prior.
static FALLBACK_FIXED_R: Counter = Counter::new("recovery.fallback_fixed_r");
/// Fits that lost the C-BMF initializer itself and degraded to independent
/// per-state S-OMP (the paper's baseline).
static FALLBACK_SOMP: Counter = Counter::new("recovery.fallback_somp");
/// Warm-started fits ([`CbmfFit::fit_warm`]): the (r0, σ0, θ) sweep and the
/// EM starting prior were reused from an earlier fit instead of recomputed.
static WARM_START_HITS: Counter = Counter::new("stream.warm_start_hits");
/// Greedy cross-validation selection runs skipped by warm starts — the
/// (r0, σ0, fold) selections a cold [`CbmfFit::fit`] would have paid.
static WARM_START_CV_SKIPPED: Counter = Counter::new("stream.warm_start_cv_skipped");

/// End-to-end configuration of the C-BMF pipeline (Algorithm 1).
#[derive(Debug, Clone, Default)]
pub struct CbmfConfig {
    /// Candidate grid of the modified-S-OMP initializer (steps 1–17).
    pub grid: CandidateGrid,
    /// EM refinement settings (steps 18–20).
    pub em: EmConfig,
}

impl CbmfConfig {
    /// Settings sized for small problems and tests: reduced grid, fewer EM
    /// iterations.
    pub fn small_problem() -> Self {
        CbmfConfig {
            grid: CandidateGrid::small(),
            em: EmConfig {
                max_iters: 15,
                ..EmConfig::default()
            },
        }
    }
}

/// Which rung of the degradation ladder produced the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitStrategy {
    /// The full pipeline: S-OMP+CV initialization followed by EM refinement.
    Full,
    /// EM refinement failed numerically; the model is the initializer's,
    /// under the parameterized R(r0) prior, without EM refinement.
    FixedR,
    /// The C-BMF initializer itself failed numerically; the model is plain
    /// independent per-state S-OMP (the paper's baseline).
    SompFallback,
    /// The model came from a non-C-BMF [`SparseSolver`](crate::SparseSolver)
    /// backend (S-OMP, OMP, elastic net, …): a single-rung solver with no
    /// degradation ladder.
    Baseline,
}

/// How the model was obtained: the ladder rung plus, for fallbacks, the
/// numerical failure that forced the downgrade.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Rung of the degradation ladder that produced the returned model.
    pub strategy: FitStrategy,
    /// Rendered description of the numerical failure behind a fallback
    /// (`None` for a full fit) — matrix dimensions, failing pivot, attempted
    /// jitter.
    pub fallback_reason: Option<String>,
}

impl RecoveryReport {
    fn full() -> Self {
        RecoveryReport {
            strategy: FitStrategy::Full,
            fallback_reason: None,
        }
    }
}

/// Everything a fit run produced: the model plus the diagnostics the
/// benchmark harness reports (hyper-parameters, iteration counts, wall-clock
/// fitting cost — the "fitting cost (sec.)" rows of Tables 1–2).
#[derive(Debug, Clone)]
pub struct FitOutcome {
    model: PerStateModel,
    init: Option<InitOutcome>,
    em: Option<EmOutcome>,
    recovery: RecoveryReport,
    fitting_seconds: f64,
    backend: Option<&'static str>,
}

impl FitOutcome {
    /// Wraps a baseline solver's model (no initializer/EM diagnostics, no
    /// prior) as an outcome — what the non-C-BMF
    /// [`SparseSolver`](crate::SparseSolver) backends return.
    pub(crate) fn baseline(
        model: PerStateModel,
        backend: &'static str,
        fitting_seconds: f64,
    ) -> Self {
        FitOutcome {
            model,
            init: None,
            em: None,
            recovery: RecoveryReport {
                strategy: FitStrategy::Baseline,
                fallback_reason: None,
            },
            fitting_seconds,
            backend: Some(backend),
        }
    }

    /// Stamps the producing backend's name (set by the
    /// [`SparseSolver`](crate::SparseSolver) adapters; direct
    /// [`CbmfFit::fit`] calls leave it unset so existing artifacts keep
    /// their exact bytes).
    pub(crate) fn with_backend(mut self, backend: &'static str) -> Self {
        self.backend = Some(backend);
        self
    }

    /// The fitted per-state model.
    pub fn model(&self) -> &PerStateModel {
        &self.model
    }

    /// Consumes the outcome, returning just the model.
    pub fn into_model(self) -> PerStateModel {
        self.model
    }

    /// The initializer's result (winning candidate, support, prior); `None`
    /// when the fit degraded to the S-OMP fallback before initialization
    /// completed.
    pub fn init(&self) -> Option<&InitOutcome> {
        self.init.as_ref()
    }

    /// The EM refinement result (final hyper-parameters, traces); `None`
    /// when the fit took any fallback rung.
    pub fn em(&self) -> Option<&EmOutcome> {
        self.em.as_ref()
    }

    /// The hyper-parameter prior behind the fitted coefficients — EM's
    /// refined prior when refinement ran, otherwise the initializer's.
    /// `None` only on the S-OMP fallback rung, which is a pure greedy fit
    /// with no Bayesian prior (and hence no predictive variance to export).
    pub fn prior(&self) -> Option<&crate::CbmfPrior> {
        self.em
            .as_ref()
            .map(|e| &e.prior)
            .or_else(|| self.init.as_ref().map(|i| &i.prior))
    }

    /// How the model was obtained: ladder rung and, for fallbacks, the
    /// failure that forced it.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Shorthand for `self.recovery().strategy`.
    pub fn strategy(&self) -> FitStrategy {
        self.recovery.strategy
    }

    /// Wall-clock fitting time in seconds (model fitting only — simulation
    /// cost is accounted separately by the circuit substrate).
    pub fn fitting_seconds(&self) -> f64 {
        self.fitting_seconds
    }

    /// Name of the [`SparseSolver`](crate::SparseSolver) backend that
    /// produced this outcome (`"cbmf"`, `"somp"`, `"omp"`,
    /// `"elastic_net"`), or `None` for a direct [`CbmfFit::fit`] call that
    /// bypassed the trait.
    pub fn backend(&self) -> Option<&'static str> {
        self.backend
    }
}

/// Everything a warm-started fit reuses from an earlier outcome: the
/// winning initializer hyper-parameters and the refined prior to start EM
/// from. Build one with [`WarmStart::from_outcome`] or assemble the fields
/// directly (e.g. from a persisted artifact).
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Winning correlation-decay rate of the earlier sweep.
    pub r0: f64,
    /// Winning absolute noise level.
    pub sigma0: f64,
    /// Winning sparsity level.
    pub theta: usize,
    /// The earlier fit's refined prior (EM's if refinement ran, otherwise
    /// the initializer's) — the EM starting point.
    pub prior: crate::CbmfPrior,
}

impl WarmStart {
    /// Extracts the warm-start state from a finished fit. `None` when the
    /// outcome carries no initializer diagnostics or no prior (the S-OMP
    /// fallback rung and baseline backends) — those outcomes have nothing
    /// to warm-start from.
    ///
    /// The prior's shape is tied to the problem that produced the outcome:
    /// reusing it requires the target problem to have the same dictionary
    /// size M and state count K (see [`WarmStart::fits`]).
    pub fn from_outcome(outcome: &FitOutcome) -> Option<WarmStart> {
        let init = outcome.init()?;
        let prior = outcome.prior()?;
        Some(WarmStart {
            r0: init.r0,
            sigma0: init.sigma0,
            theta: init.theta,
            prior: prior.clone(),
        })
    }

    /// Whether this warm start is shape-compatible with `problem` (same
    /// dictionary size and state count).
    pub fn fits(&self, problem: &TunableProblem) -> bool {
        self.prior.num_basis() == problem.num_basis()
            && self.prior.num_states() == problem.num_states()
    }
}

/// The complete C-BMF fitter: modified-S-OMP initialization followed by EM
/// refinement, producing a sparse correlated per-state model.
///
/// # Examples
///
/// See the crate-level quickstart; the signature mirrors the baselines:
///
/// ```no_run
/// # use cbmf::{CbmfConfig, CbmfFit, BasisSpec, TunableProblem};
/// # use cbmf_linalg::Matrix;
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// # let x = Matrix::zeros(8, 4);
/// # let y = vec![0.0; 8];
/// # let problem = TunableProblem::from_samples(&[x], &[y], BasisSpec::Linear)?;
/// let mut rng = cbmf_stats::seeded_rng(1);
/// let outcome = CbmfFit::new(CbmfConfig::default()).fit(&problem, &mut rng)?;
/// println!("selected {} bases in {:.2} s",
///          outcome.model().support().len(), outcome.fitting_seconds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CbmfFit {
    config: CbmfConfig,
}

impl CbmfFit {
    /// Relative λ threshold that defines the final reported support.
    const SUPPORT_THRESHOLD: f64 = 1e-3;

    /// Creates a fitter with the given configuration.
    pub fn new(config: CbmfConfig) -> Self {
        CbmfFit { config }
    }

    /// Runs the full Algorithm 1 on a problem, degrading gracefully when a
    /// stage fails numerically.
    ///
    /// The degradation ladder is deterministic: (1) the full pipeline; (2) if
    /// EM refinement fails numerically, the initializer's model under the
    /// parameterized R(r0) prior without refinement; (3) if the initializer
    /// itself fails numerically, independent per-state S-OMP. Each fallback
    /// increments a `recovery.*` trace counter and is reported through
    /// [`FitOutcome::recovery`]. Only *numerical* failures
    /// ([`CbmfError::is_numerical`]) trigger a fallback — invalid or
    /// non-finite input always propagates, since refitting broken data with a
    /// simpler model cannot succeed.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] / [`CbmfError::NonFiniteData`] /
    ///   [`CbmfError::TooFewSamples`] for structurally unusable input (never
    ///   a panic).
    /// * [`CbmfError::Linalg`] only when the final S-OMP fallback itself
    ///   fails numerically.
    pub fn fit<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
    ) -> Result<FitOutcome, CbmfError> {
        let t0 = Instant::now();
        let _fit_span = cbmf_trace::span("fit");
        problem.validate()?;
        let init = match SompInitializer::new(self.config.grid.clone()).initialize(problem, rng) {
            Ok(init) => init,
            Err(e) if e.is_numerical() => return self.somp_fallback(problem, rng, t0, e),
            Err(e) => return Err(e),
        };
        match EmRefiner::new(self.config.em.clone()).refine(problem, &init.prior) {
            Ok(em) => {
                // Final support: bases whose refined λ survived, plus any
                // basis the EM coefficients still use materially.
                let support = em.prior.active_basis(Self::SUPPORT_THRESHOLD);
                let coeffs = em.coeffs.select_cols(&support);
                let model = Self::assemble(problem, support, coeffs)?;
                Ok(FitOutcome {
                    model,
                    init: Some(init),
                    em: Some(em),
                    recovery: RecoveryReport::full(),
                    fitting_seconds: t0.elapsed().as_secs_f64(),
                    backend: None,
                })
            }
            Err(e) if e.is_numerical() => {
                // Rung 2: the initializer's support and coefficients are
                // already a valid model under the R(r0) prior; assembling
                // them needs no further factorization.
                FALLBACK_FIXED_R.inc();
                let model = Self::assemble(problem, init.support.clone(), init.coeffs.clone())?;
                Ok(FitOutcome {
                    model,
                    init: Some(init),
                    em: None,
                    recovery: RecoveryReport {
                        strategy: FitStrategy::FixedR,
                        fallback_reason: Some(e.to_string()),
                    },
                    fitting_seconds: t0.elapsed().as_secs_f64(),
                    backend: None,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Warm-started Algorithm 1: skips the (r0, σ0, θ) cross-validation
    /// sweep (steps 1–15) by reusing a previously found winner, and starts
    /// EM from a previously *refined* prior instead of the step-17
    /// construction.
    ///
    /// This is the per-chunk path of the streaming engine (the chunk-0 cold
    /// fit found the winner; every later chunk refines it on grown data) and
    /// the cross-corner path of multi-metric fleets (per the multi-corner
    /// learned-priors approach, a neighbouring corner's refined λ/R is a
    /// better EM start than step 17). Greedy selection is still re-run on
    /// `problem` — the support may change as data grows — and the full
    /// degradation ladder applies unchanged. Each call counts one
    /// `stream.warm_start_hits` and the skipped (r0, σ0, fold) selection
    /// runs on `stream.warm_start_cv_skipped`.
    ///
    /// # Errors
    ///
    /// Same contract as [`CbmfFit::fit`].
    pub fn fit_warm<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        warm: &WarmStart,
        rng: &mut R,
    ) -> Result<FitOutcome, CbmfError> {
        let t0 = Instant::now();
        let _fit_span = cbmf_trace::span("fit_warm");
        problem.validate()?;
        let initializer = SompInitializer::new(self.config.grid.clone());
        WARM_START_HITS.inc();
        WARM_START_CV_SKIPPED.add(initializer.cv_evaluations());
        let init = match initializer.initialize_warm(problem, warm.r0, warm.sigma0, warm.theta) {
            Ok(init) => init,
            Err(e) if e.is_numerical() => return self.somp_fallback(problem, rng, t0, e),
            Err(e) => return Err(e),
        };
        match EmRefiner::new(self.config.em.clone()).refine(problem, &warm.prior) {
            Ok(em) => {
                let support = em.prior.active_basis(Self::SUPPORT_THRESHOLD);
                let coeffs = em.coeffs.select_cols(&support);
                let model = Self::assemble(problem, support, coeffs)?;
                Ok(FitOutcome {
                    model,
                    init: Some(init),
                    em: Some(em),
                    recovery: RecoveryReport::full(),
                    fitting_seconds: t0.elapsed().as_secs_f64(),
                    backend: None,
                })
            }
            Err(e) if e.is_numerical() => {
                FALLBACK_FIXED_R.inc();
                let model = Self::assemble(problem, init.support.clone(), init.coeffs.clone())?;
                Ok(FitOutcome {
                    model,
                    init: Some(init),
                    em: None,
                    recovery: RecoveryReport {
                        strategy: FitStrategy::FixedR,
                        fallback_reason: Some(e.to_string()),
                    },
                    fitting_seconds: t0.elapsed().as_secs_f64(),
                    backend: None,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Rung 3: independent per-state S-OMP over the same candidate grid.
    fn somp_fallback<R: Rng + ?Sized>(
        &self,
        problem: &TunableProblem,
        rng: &mut R,
        t0: Instant,
        cause: CbmfError,
    ) -> Result<FitOutcome, CbmfError> {
        FALLBACK_SOMP.inc();
        let model = Somp::new(SompConfig {
            theta_candidates: self.config.grid.theta.clone(),
            cv_folds: self.config.grid.cv_folds,
        })
        .fit(problem, rng)?;
        Ok(FitOutcome {
            model,
            init: None,
            em: None,
            recovery: RecoveryReport {
                strategy: FitStrategy::SompFallback,
                fallback_reason: Some(cause.to_string()),
            },
            fitting_seconds: t0.elapsed().as_secs_f64(),
            backend: None,
        })
    }

    /// Wraps a (support, per-state coefficients) pair as a model, recomputing
    /// intercepts on the raw data.
    fn assemble(
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSpec;
    use crate::{Somp, SompConfig};
    use cbmf_linalg::Matrix;
    use cbmf_stats::{normal, seeded_rng};

    /// The canonical tunable-circuit synthetic: K states, shared sparse
    /// template, smooth magnitude drift across states, plus noise.
    fn tunable_synthetic(k: usize, n: usize, d: usize, noise: f64, seed: u64) -> TunableProblem {
        let mut rng = seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| normal::sample(&mut rng));
            let w = 1.0 + 0.05 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    10.0 + w * (2.0 * x[(i, 1)] - 1.2 * x[(i, 4)] + 0.6 * x[(i, 9)])
                        + noise * normal::sample(&mut rng)
                })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap()
    }

    #[test]
    fn full_pipeline_recovers_support_and_predicts() {
        let train = tunable_synthetic(4, 14, 15, 0.1, 70);
        let test = tunable_synthetic(4, 60, 15, 0.0, 71);
        let mut rng = seeded_rng(1);
        let out = CbmfFit::new(CbmfConfig::small_problem())
            .fit(&train, &mut rng)
            .unwrap();
        let model = out.model();
        for b in [1usize, 4, 9] {
            assert!(
                model.support().contains(&b),
                "missing {b}: {:?}",
                model.support()
            );
        }
        let err = model.modeling_error(&test).unwrap();
        assert!(err < 0.05, "error {err}");
        assert!(out.fitting_seconds() > 0.0);
    }

    #[test]
    fn beats_somp_in_the_low_sample_regime() {
        // The paper's headline: same accuracy from fewer samples. Check the
        // contrapositive at equal (small) sample count: lower error.
        let d = 25;
        let train = tunable_synthetic(6, 8, d, 0.25, 72);
        let test = tunable_synthetic(6, 60, d, 0.0, 73);
        let mut rng = seeded_rng(2);
        let cbmf = CbmfFit::new(CbmfConfig::small_problem())
            .fit(&train, &mut rng)
            .unwrap();
        let somp = Somp::new(SompConfig {
            theta_candidates: vec![2, 4, 8],
            cv_folds: 3,
        })
        .fit(&train, &mut rng)
        .unwrap();
        let e_cbmf = cbmf.model().modeling_error(&test).unwrap();
        let e_somp = somp.modeling_error(&test).unwrap();
        assert!(
            e_cbmf < e_somp,
            "C-BMF ({e_cbmf:.4}) must beat S-OMP ({e_somp:.4}) with few samples"
        );
    }

    #[test]
    fn outcome_exposes_diagnostics() {
        let train = tunable_synthetic(3, 12, 12, 0.1, 74);
        let mut rng = seeded_rng(3);
        let out = CbmfFit::new(CbmfConfig::small_problem())
            .fit(&train, &mut rng)
            .unwrap();
        let init = out.init().expect("full pipeline keeps the init outcome");
        let em = out.em().expect("full pipeline keeps the EM outcome");
        assert!(init.support.len() <= init.theta);
        assert!(!em.nlml_trace.is_empty());
        assert!(em.iterations >= 1);
        assert_eq!(out.strategy(), FitStrategy::Full);
        assert!(out.recovery().fallback_reason.is_none());
        let model = out.clone().into_model();
        assert_eq!(model.num_states(), 3);
    }

    #[test]
    fn error_decreases_with_more_samples() {
        let d = 20;
        let test = tunable_synthetic(4, 60, d, 0.0, 76);
        let mut errs = Vec::new();
        for (seed, n) in [(77u64, 6usize), (77, 24)] {
            let train = tunable_synthetic(4, n, d, 0.3, seed);
            let mut rng = seeded_rng(4);
            let out = CbmfFit::new(CbmfConfig::small_problem())
                .fit(&train, &mut rng)
                .unwrap();
            errs.push(out.model().modeling_error(&test).unwrap());
        }
        assert!(
            errs[1] < errs[0],
            "more samples must help: {:.4} -> {:.4}",
            errs[0],
            errs[1]
        );
    }
}
