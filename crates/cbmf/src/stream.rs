//! Streaming incremental C-BMF: absorb Monte Carlo samples in chunks and
//! stop paying for simulations once the model has converged.
//!
//! The paper's headline metric is simulation cost, yet a batch fit consumes
//! its whole MC budget before the first coefficient is solved. The streaming
//! engine closes that gap with a prequential (test-then-train) loop:
//!
//! 1. **Chunk 0** takes the *exact* cold batch path — full (r0, σ0, θ)
//!    cross-validation sweep, step-17 prior, EM refinement — so a stream fed
//!    all samples in one chunk is bitwise identical to [`CbmfFit::fit`].
//! 2. **Every later chunk** first scores the current model on the incoming,
//!    never-before-seen samples (an unbiased held-out error estimate that
//!    costs nothing extra), then absorbs them via
//!    [`TunableProblem::append_samples`] (an `O(N·M)` re-centering) and
//!    refits warm: the sweep winner is reused, greedy selection re-runs on
//!    the grown data through the incremental `Cholesky::append_block`
//!    factorization, and EM starts from the previous chunk's refined prior
//!    ([`CbmfFit::fit_warm`]). Once the data has grown past
//!    [`StreamConfig::resweep_growth`] times its size at the last sweep,
//!    the chunk refits *cold* instead — a doubling-style re-anchoring that
//!    keeps early small-data hyper-parameters from going stale, at zero
//!    extra simulation cost.
//! 3. The stream **stops** once the held-out error estimate has moved by
//!    less than [`StreamConfig::rel_tol`] (relatively) for
//!    [`StreamConfig::patience`] consecutive chunks — every simulation the
//!    batch budget would still have run is saved.
//!
//! The per-chunk [`ChunkReport`]s and the `stream.*` trace counters give the
//! harness the full cost story; `McStream` in `cbmf-circuits` produces
//! chunks that concatenate to the batch dataset byte for byte, so "sims
//! saved" is measured against the identical virtual sample stream.

use cbmf_linalg::Matrix;
use cbmf_trace::Counter;
use rand::Rng;

use crate::basis::BasisSpec;
use crate::dataset::TunableProblem;
use crate::error::CbmfError;
use crate::fit::{CbmfFit, FitOutcome, WarmStart};
use crate::solver::SparseSolver;

/// Chunks absorbed by streaming sessions (the chunk-0 cold fit included).
static STREAM_CHUNKS: Counter = Counter::new("stream.chunks");
/// Simulations saved by early convergence, measured against the declared
/// full batch budget ([`StreamConfig::full_budget`]).
static STREAM_SIMS_SAVED: Counter = Counter::new("stream.sims_saved");
/// Cold re-sweeps forced by [`StreamConfig::resweep_growth`].
static STREAM_RESWEEPS: Counter = Counter::new("stream.resweeps");

/// One chunk of raw per-state samples: `(xs, ys)` exactly as
/// [`TunableProblem::from_samples`] takes them.
pub type StreamChunk = (Vec<Matrix>, Vec<Vec<f64>>);

/// Stopping rule and budget accounting of a streaming fit.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Relative change of the held-out error estimate below which a chunk
    /// counts as "converged".
    pub rel_tol: f64,
    /// Consecutive converged chunks required before the stream stops.
    pub patience: usize,
    /// Hard cap on absorbed chunks (a safety net for endless sources).
    pub max_chunks: usize,
    /// Total samples (summed over states) the equivalent batch fit would
    /// consume. When set, early convergence credits the difference to the
    /// `stream.sims_saved` counter and [`StreamOutcome::sims_saved`].
    pub full_budget: Option<usize>,
    /// Training-set growth factor that forces a fresh cold fit — the full
    /// (r0, σ0, θ) cross-validation sweep and step-17 prior — instead of a
    /// warm refit. The sweep winner found on an early small chunk can be a
    /// poor fit for the grown data; this doubling-style rule re-anchors the
    /// hyper-parameters every time the data has grown by the factor since
    /// the last sweep, at zero extra *simulation* cost (re-sweeping only
    /// spends fitting time). `None` never re-sweeps: every post-cold chunk
    /// stays on the warm path.
    pub resweep_growth: Option<f64>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            rel_tol: 0.05,
            patience: 2,
            max_chunks: usize::MAX,
            full_budget: None,
            resweep_growth: Some(2.0),
        }
    }
}

/// What one absorbed chunk contributed, in arrival order.
#[derive(Debug, Clone)]
pub struct ChunkReport {
    /// Chunk index (0 = the cold fit).
    pub chunk: usize,
    /// Sample rows in this chunk, summed over states.
    pub appended_rows: usize,
    /// Held-out error of the *previous* model on this chunk's fresh
    /// samples, scored before absorbing them. `None` for chunk 0.
    pub holdout_error: Option<f64>,
    /// Whether the refit after this chunk was warm-started. `false` for
    /// chunk 0 and for chunks that re-ran the full cross-validation sweep
    /// (a [`StreamConfig::resweep_growth`] re-anchor or a fallback rung
    /// with nothing to warm-start from).
    pub warm_start: bool,
    /// Wall-clock seconds of the refit after absorbing this chunk.
    pub fit_seconds: f64,
}

/// A finished streaming fit: the final outcome plus the per-chunk history.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// The last (best) fit, carrying the usual diagnostics and model.
    pub outcome: FitOutcome,
    /// Per-chunk history in arrival order.
    pub chunks: Vec<ChunkReport>,
    /// Whether the stopping rule fired (as opposed to the source running
    /// dry or the chunk cap being hit).
    pub converged: bool,
    /// Total samples absorbed, summed over states.
    pub total_samples: usize,
    /// Simulations saved against [`StreamConfig::full_budget`], when that
    /// was declared and the stream stopped early.
    pub sims_saved: Option<u64>,
}

/// The streaming fit engine: a [`CbmfFit`] plus a stopping rule.
///
/// Open a [`StreamSession`] and push chunks as the simulator produces them,
/// or let [`CbmfFit::fit_streaming`] drive a pull source. As a
/// [`SparseSolver`] the engine fits the whole problem as one chunk — the
/// degenerate schedule that is bitwise identical to the batch fitter.
///
/// # Examples
///
/// ```
/// use cbmf::{BasisSpec, CbmfConfig, CbmfFit, StreamConfig, StreamingFit};
/// use cbmf_linalg::Matrix;
///
/// # fn main() -> Result<(), cbmf::CbmfError> {
/// let mut rng = cbmf_stats::seeded_rng(5);
/// let chunk = |seed: u64| {
///     let mut r = cbmf_stats::seeded_rng(seed);
///     let xs: Vec<Matrix> = (0..3)
///         .map(|_| Matrix::from_fn(12, 8, |_, _| cbmf_stats::normal::sample(&mut r)))
///         .collect();
///     let ys: Vec<Vec<f64>> = xs
///         .iter()
///         .map(|x| (0..12).map(|i| 2.0 * x[(i, 1)] - x[(i, 4)]).collect())
///         .collect();
///     (xs, ys)
/// };
/// let engine = StreamingFit::new(
///     CbmfFit::new(CbmfConfig::small_problem()),
///     StreamConfig::default(),
/// );
/// let mut session = engine.session(BasisSpec::Linear);
/// for seed in 0..3 {
///     let (xs, ys) = chunk(seed);
///     session.absorb(&xs, &ys, &mut rng)?;
///     if session.converged() {
///         break;
///     }
/// }
/// let result = session.finish()?;
/// assert!(result.outcome.model().support().contains(&1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingFit {
    fit: CbmfFit,
    config: StreamConfig,
}

impl StreamingFit {
    /// Creates an engine from a configured batch fitter and a stopping rule.
    pub fn new(fit: CbmfFit, config: StreamConfig) -> Self {
        StreamingFit { fit, config }
    }

    /// The stopping rule in effect.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Opens a push-style session expanding samples through `basis`.
    pub fn session(&self, basis: BasisSpec) -> StreamSession<'_> {
        StreamSession {
            engine: self,
            basis,
            problem: None,
            outcome: None,
            warm: None,
            chunks: Vec::new(),
            prev_holdout: None,
            streak: 0,
            converged: false,
            samples_at_sweep: 0,
        }
    }
}

impl SparseSolver for StreamingFit {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn fit(
        &self,
        problem: &TunableProblem,
        rng: &mut dyn rand::RngCore,
    ) -> Result<FitOutcome, CbmfError> {
        // The whole problem arrives as one chunk: the degenerate schedule,
        // bitwise identical to the batch fitter by construction.
        STREAM_CHUNKS.inc();
        CbmfFit::fit(&self.fit, problem, rng).map(|o| o.with_backend("stream"))
    }
}

/// A live streaming fit: push chunks with [`absorb`](StreamSession::absorb),
/// watch [`converged`](StreamSession::converged), and
/// [`finish`](StreamSession::finish) when done.
///
/// The caller owns the pacing, which is what makes mid-fit consumers (e.g.
/// publishing the improving model to a serving registry between chunks)
/// trivial: every `absorb` returns the refreshed [`FitOutcome`].
#[derive(Debug)]
pub struct StreamSession<'a> {
    engine: &'a StreamingFit,
    basis: BasisSpec,
    problem: Option<TunableProblem>,
    outcome: Option<FitOutcome>,
    warm: Option<WarmStart>,
    chunks: Vec<ChunkReport>,
    prev_holdout: Option<f64>,
    streak: usize,
    converged: bool,
    /// Total samples at the last cold fit, the [`StreamConfig::resweep_growth`]
    /// reference point.
    samples_at_sweep: usize,
}

impl StreamSession<'_> {
    /// Scores the current model on the fresh chunk (prequential held-out
    /// error), absorbs the chunk, and refits — cold for chunk 0, warm for
    /// every later chunk. Returns the refreshed outcome.
    ///
    /// The convergence state is updated from the held-out score *before*
    /// the chunk is absorbed, so the estimate is never contaminated by
    /// training on the same samples.
    ///
    /// # Errors
    ///
    /// Propagates chunk-shape and numerical errors from
    /// [`TunableProblem::append_samples`] and the fitters. On error the
    /// session keeps its previous state.
    pub fn absorb<R: Rng + ?Sized>(
        &mut self,
        xs: &[Matrix],
        ys: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<&FitOutcome, CbmfError> {
        let _span = cbmf_trace::span("stream_chunk");
        STREAM_CHUNKS.inc();
        let appended_rows = ys.iter().map(Vec::len).sum();

        // Prequential score: the previous model against samples it has
        // never seen.
        let holdout_error = match &self.outcome {
            Some(outcome) => {
                let chunk_problem = TunableProblem::from_samples(xs, ys, self.basis)?;
                let e = outcome.model().modeling_error(&chunk_problem)?;
                if let Some(prev) = self.prev_holdout {
                    let rel = (e - prev).abs() / prev.abs().max(e.abs()).max(1e-12);
                    if rel <= self.engine.config.rel_tol {
                        self.streak += 1;
                        if self.streak >= self.engine.config.patience {
                            self.converged = true;
                        }
                    } else {
                        self.streak = 0;
                    }
                }
                self.prev_holdout = Some(e);
                Some(e)
            }
            None => None,
        };

        // Absorb and refit.
        let (outcome, warm_start) = match (&mut self.problem, &self.warm) {
            (Some(problem), Some(warm)) => {
                problem.append_samples(xs, ys)?;
                let resweep_due = self.engine.config.resweep_growth.is_some_and(|growth| {
                    problem.total_samples() as f64 >= growth * self.samples_at_sweep as f64
                });
                if resweep_due {
                    // The data has outgrown the last sweep's winner:
                    // re-anchor the hyper-parameters with a cold fit.
                    STREAM_RESWEEPS.inc();
                    self.samples_at_sweep = problem.total_samples();
                    (self.engine.fit.fit(problem, rng)?, false)
                } else {
                    (self.engine.fit.fit_warm(problem, warm, rng)?, true)
                }
            }
            (Some(problem), None) => {
                // The previous fit had nothing to warm-start from (S-OMP
                // fallback rung): absorb and refit cold.
                problem.append_samples(xs, ys)?;
                self.samples_at_sweep = problem.total_samples();
                (self.engine.fit.fit(problem, rng)?, false)
            }
            (None, _) => {
                let problem = TunableProblem::from_samples(xs, ys, self.basis)?;
                let outcome = self.engine.fit.fit(&problem, rng)?;
                self.samples_at_sweep = problem.total_samples();
                self.problem = Some(problem);
                (outcome, false)
            }
        };
        self.warm = WarmStart::from_outcome(&outcome);
        self.chunks.push(ChunkReport {
            chunk: self.chunks.len(),
            appended_rows,
            holdout_error,
            warm_start,
            fit_seconds: outcome.fitting_seconds(),
        });
        if self.chunks.len() >= self.engine.config.max_chunks {
            self.converged = true;
        }
        self.outcome = Some(outcome);
        Ok(self.outcome.as_ref().expect("just set"))
    }

    /// Whether the stopping rule (or the chunk cap) has fired. The caller
    /// stops pulling simulations once this is true — that is where the
    /// savings come from.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// The most recent fit, if any chunk has been absorbed.
    pub fn latest(&self) -> Option<&FitOutcome> {
        self.outcome.as_ref()
    }

    /// Per-chunk history so far.
    pub fn reports(&self) -> &[ChunkReport] {
        &self.chunks
    }

    /// Total samples absorbed so far, summed over states.
    pub fn total_samples(&self) -> usize {
        self.problem
            .as_ref()
            .map_or(0, TunableProblem::total_samples)
    }

    /// Closes the session, crediting saved simulations against the declared
    /// full budget.
    ///
    /// # Errors
    ///
    /// [`CbmfError::InvalidInput`] if no chunk was ever absorbed.
    pub fn finish(self) -> Result<StreamOutcome, CbmfError> {
        let outcome = self.outcome.ok_or_else(|| CbmfError::InvalidInput {
            what: "streaming session finished before any chunk was absorbed".to_string(),
        })?;
        let total_samples = self
            .problem
            .as_ref()
            .map_or(0, TunableProblem::total_samples);
        let sims_saved = self.engine.config.full_budget.map(|budget| {
            let saved = budget.saturating_sub(total_samples) as u64;
            STREAM_SIMS_SAVED.add(saved);
            saved
        });
        Ok(StreamOutcome {
            outcome,
            chunks: self.chunks,
            converged: self.converged,
            total_samples,
            sims_saved,
        })
    }
}

impl CbmfFit {
    /// Drives a full streaming fit from a pull source: chunk `c` is
    /// requested from `source` only if the stopping rule has not fired, so
    /// unneeded simulations are simply never run. `on_chunk` observes every
    /// absorbed chunk with the refreshed outcome — the hook mid-fit
    /// consumers (serving-registry publication, progress reporting) attach
    /// to.
    ///
    /// `source` returns `Ok(None)` when it runs dry; the fit then finishes
    /// with whatever it has.
    ///
    /// # Errors
    ///
    /// * [`CbmfError::InvalidInput`] if the source yields no chunks at all.
    /// * Propagated source, chunk-shape, and numerical fitting errors.
    pub fn fit_streaming<R, F, O>(
        &self,
        basis: BasisSpec,
        config: &StreamConfig,
        mut source: F,
        mut on_chunk: O,
        rng: &mut R,
    ) -> Result<StreamOutcome, CbmfError>
    where
        R: Rng + ?Sized,
        F: FnMut(usize) -> Result<Option<StreamChunk>, CbmfError>,
        O: FnMut(&ChunkReport, &FitOutcome),
    {
        let engine = StreamingFit::new(self.clone(), config.clone());
        let mut session = engine.session(basis);
        let mut chunk_index = 0;
        while !session.converged() {
            let Some((xs, ys)) = source(chunk_index)? else {
                break;
            };
            session.absorb(&xs, &ys, rng)?;
            let report = session
                .reports()
                .last()
                .expect("absorb pushed a report")
                .clone();
            on_chunk(&report, session.latest().expect("absorb set an outcome"));
            chunk_index += 1;
        }
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::CbmfConfig;
    use cbmf_stats::{normal, seeded_rng};

    /// K-state synthetic with a shared sparse template, chunked: returns
    /// per-state samples `[start, start+n)` of a fixed virtual stream, so
    /// any chunk schedule draws the same data a batch would.
    fn chunk(k: usize, d: usize, start: usize, n: usize, seed: u64) -> StreamChunk {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |i, j| {
                let mut r =
                    seeded_rng(seed ^ (state as u64) << 40 ^ ((start + i) as u64) << 8 ^ j as u64);
                normal::sample(&mut r)
            });
            let w = 1.0 + 0.05 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| {
                    let mut r = seeded_rng(
                        seed ^ 0xABCD ^ (state as u64) << 40 ^ ((start + i) as u64) << 8,
                    );
                    10.0 + w * (2.0 * x[(i, 1)] - 1.2 * x[(i, 4)]) + 0.1 * normal::sample(&mut r)
                })
                .collect();
            xs.push(x);
            ys.push(y);
        }
        (xs, ys)
    }

    fn small_engine(config: StreamConfig) -> StreamingFit {
        StreamingFit::new(CbmfFit::new(CbmfConfig::small_problem()), config)
    }

    #[test]
    fn one_chunk_stream_is_bitwise_identical_to_batch() {
        let (xs, ys) = chunk(3, 10, 0, 16, 7);
        let problem = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap();
        let mut rng = seeded_rng(1);
        let batch = CbmfFit::new(CbmfConfig::small_problem())
            .fit(&problem, &mut rng)
            .unwrap();

        let engine = small_engine(StreamConfig::default());
        let mut session = engine.session(BasisSpec::Linear);
        let mut rng = seeded_rng(1);
        session.absorb(&xs, &ys, &mut rng).unwrap();
        let stream = session.finish().unwrap();

        assert_eq!(stream.outcome.model().support(), batch.model().support());
        for (a, b) in stream
            .outcome
            .model()
            .coefficients()
            .as_slice()
            .iter()
            .zip(batch.model().coefficients().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in stream
            .outcome
            .model()
            .intercepts()
            .iter()
            .zip(batch.model().intercepts())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(!stream.converged, "one chunk cannot trip the rule");
        assert_eq!(stream.chunks.len(), 1);
        assert_eq!(stream.chunks[0].holdout_error, None);
        assert!(!stream.chunks[0].warm_start);
    }

    #[test]
    fn later_chunks_warm_start_and_track_holdout_error() {
        let engine = small_engine(StreamConfig {
            rel_tol: 1e-9,        // effectively never converge
            resweep_growth: None, // pure warm path under test
            ..StreamConfig::default()
        });
        let mut session = engine.session(BasisSpec::Linear);
        let mut rng = seeded_rng(2);
        for c in 0..3 {
            let (xs, ys) = chunk(3, 10, c * 12, 12, 7);
            session.absorb(&xs, &ys, &mut rng).unwrap();
        }
        let reports = session.reports();
        assert_eq!(reports.len(), 3);
        assert!(!reports[0].warm_start);
        assert!(reports[1].warm_start && reports[2].warm_start);
        assert!(reports[1].holdout_error.unwrap() > 0.0);
        assert!(reports[2].holdout_error.unwrap() > 0.0);
        let out = session.finish().unwrap();
        assert_eq!(out.total_samples, 3 * 36);
        // The grown fit still nails the true support.
        assert!(out.outcome.model().support().contains(&1));
        assert!(out.outcome.model().support().contains(&4));
    }

    #[test]
    fn stopping_rule_fires_and_credits_saved_sims() {
        // Plenty of signal and tiny noise: the held-out error stabilizes
        // almost immediately, so a loose tolerance must stop the stream.
        let config = StreamConfig {
            rel_tol: 0.9,
            patience: 2,
            full_budget: Some(3 * 100),
            ..StreamConfig::default()
        };
        let fitter = CbmfFit::new(CbmfConfig::small_problem());
        let mut rng = seeded_rng(3);
        let out = fitter
            .fit_streaming(
                BasisSpec::Linear,
                &config,
                |c| {
                    assert!(c < 8, "stopping rule must fire long before the budget");
                    Ok(Some(chunk(3, 10, c * 12, 12, 9)))
                },
                |_, _| {},
                &mut rng,
            )
            .unwrap();
        assert!(out.converged, "loose tolerance must converge");
        assert!(out.total_samples < 300);
        let saved = out.sims_saved.unwrap();
        assert_eq!(saved as usize, 300 - out.total_samples);
        assert!(saved > 0);
    }

    #[test]
    fn observer_sees_every_chunk() {
        let config = StreamConfig {
            rel_tol: 1e-12,
            ..StreamConfig::default()
        };
        let fitter = CbmfFit::new(CbmfConfig::small_problem());
        let mut rng = seeded_rng(4);
        let mut seen = Vec::new();
        let out = fitter
            .fit_streaming(
                BasisSpec::Linear,
                &config,
                |c| {
                    Ok(if c < 3 {
                        Some(chunk(3, 10, c * 12, 12, 11))
                    } else {
                        None
                    })
                },
                |report, outcome| {
                    seen.push((report.chunk, outcome.model().support().len()));
                },
                &mut rng,
            )
            .unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
        assert!(!out.converged, "source ran dry instead");
    }

    #[test]
    fn growth_rule_forces_a_cold_resweep() {
        // Chunks of 36 samples: totals 36, 72, 108, 144. With growth 2.0
        // the sweep re-anchors at 72 (2 x 36) and next at 144 (2 x 72), so
        // the warm/cold pattern is cold, RESWEEP, warm, RESWEEP.
        let engine = small_engine(StreamConfig {
            rel_tol: 1e-9,
            resweep_growth: Some(2.0),
            ..StreamConfig::default()
        });
        let mut session = engine.session(BasisSpec::Linear);
        let mut rng = seeded_rng(21);
        for c in 0..4 {
            let (xs, ys) = chunk(3, 10, c * 12, 12, 7);
            session.absorb(&xs, &ys, &mut rng).unwrap();
        }
        let warm: Vec<bool> = session.reports().iter().map(|r| r.warm_start).collect();
        assert_eq!(warm, vec![false, false, true, false]);
        let out = session.finish().unwrap();
        // Re-anchored fits still nail the true support.
        assert!(out.outcome.model().support().contains(&1));
        assert!(out.outcome.model().support().contains(&4));
    }

    #[test]
    fn empty_session_refuses_to_finish() {
        let engine = small_engine(StreamConfig::default());
        let session = engine.session(BasisSpec::Linear);
        assert!(matches!(
            session.finish(),
            Err(CbmfError::InvalidInput { .. })
        ));
    }

    #[test]
    fn max_chunks_caps_the_stream() {
        let config = StreamConfig {
            rel_tol: 1e-12,
            max_chunks: 2,
            ..StreamConfig::default()
        };
        let fitter = CbmfFit::new(CbmfConfig::small_problem());
        let mut rng = seeded_rng(5);
        let out = fitter
            .fit_streaming(
                BasisSpec::Linear,
                &config,
                |c| Ok(Some(chunk(3, 10, c * 12, 12, 13))),
                |_, _| {},
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.chunks.len(), 2);
        assert!(out.converged, "the cap reports as a stop");
    }

    #[test]
    fn streaming_solver_backend_is_the_degenerate_schedule() {
        let (xs, ys) = chunk(3, 10, 0, 14, 17);
        let problem = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).unwrap();
        let engine = small_engine(StreamConfig::default());
        let mut rng1 = seeded_rng(6);
        let via_trait = SparseSolver::fit(&engine, &problem, &mut rng1).unwrap();
        assert_eq!(via_trait.backend(), Some("stream"));
        let mut rng2 = seeded_rng(6);
        let batch = CbmfFit::new(CbmfConfig::small_problem())
            .fit(&problem, &mut rng2)
            .unwrap();
        for (a, b) in via_trait
            .model()
            .coefficients()
            .as_slice()
            .iter()
            .zip(batch.model().coefficients().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
