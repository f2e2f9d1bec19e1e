//! `paper`: a Table 1 reproduction for the LNA noise figure at paper scale
//! (32 states × 1264 variables), then serving of the fitted model.
//!
//! C-BMF fits 15 samples per state (480 simulations) with the paper's
//! Algorithm-1 grid; S-OMP fits 35 per state, the same 480 plus 20 more per
//! state appended to the problem. Both are scored on a fresh held-out set
//! of 50 per state. The C-BMF model is then published with its posterior
//! factors and served.

use cbmf::{
    BasisSpec, CandidateGrid, CbmfConfig, CbmfFit, EmConfig, EmRefiner, FitStrategy, Somp,
    SompConfig, SompInitializer, TunableProblem,
};
use cbmf_circuits::{Lna, McStream, MonteCarlo, SimCostModel, Testbench, TunableDataset};
use cbmf_stats::seeded_rng;
use std::time::Instant;

use crate::checks::{bitwise_equal, same_model};
use crate::reference::modeling_error_pct;
use crate::serving::{probe_layers, publish, serve, Fitted};
use crate::util::{mix, rows};
use crate::{Ctx, RunOut};

/// Modeled metric: the LNA noise figure (`nf_db`).
const METRIC: usize = 0;
const CBMF_PER_STATE: usize = 15;
const SOMP_PER_STATE: usize = 35;
const TEST_PER_STATE: usize = 50;
/// Extra `CbmfFit::fit` timings in an untraced run; `fit_s` is the fastest
/// of these and the first two.
const FIT_REPEATS: usize = 1;
/// S-OMP fits per run, all on one seed.
const SOMP_REPEATS: usize = 2;
/// C-BMF at 480 simulations may be at most this factor worse than S-OMP at
/// 1120 (the tolerance EXPERIMENTS.md states for Table 1).
const SOMP_TOLERANCE: f64 = 1.06;
/// Both models must cut the error of predicting each state's training mean
/// to at most this share. Measured over seeds 1–10 the C-BMF share is
/// about 0.1 and the S-OMP share about 0.13 (README, "Checks").
const MEAN_PREDICTOR_SHARE: f64 = 0.3;

/// The Table 1 C-BMF configuration.
pub fn paper_config() -> CbmfConfig {
    CbmfConfig {
        grid: CandidateGrid {
            r0: vec![0.5, 0.9],
            sigma_rel: vec![0.02, 0.05, 0.2],
            theta: vec![16, 32],
            cv_folds: 3,
            off_support_level: 1e-2,
        },
        em: EmConfig {
            max_iters: 12,
            ..EmConfig::default()
        },
    }
}

/// The Table 1 S-OMP configuration.
fn somp_config() -> SompConfig {
    SompConfig {
        theta_candidates: vec![8, 16, 24, 32, 48],
        cv_folds: 4,
    }
}

fn problem(ds: &TunableDataset) -> TunableProblem {
    let xs: Vec<_> = ds.states.iter().map(|s| s.x.clone()).collect();
    let ys: Vec<_> = ds.states.iter().map(|s| s.metric(METRIC)).collect();
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("well-formed dataset")
}

/// Held-out error of `predict` on `test`, recomputed from raw samples.
fn held_out_pct(test: &TunableDataset, predict: impl Fn(usize, &[f64]) -> f64) -> f64 {
    let per_state: Vec<(Vec<f64>, Vec<f64>)> = test
        .states
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let pred = (0..s.x.rows()).map(|i| predict(k, s.x.row(i))).collect();
            (pred, s.metric(METRIC))
        })
        .collect();
    modeling_error_pct(&per_state)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> RunOut {
    let mut out = RunOut::new(ctx);
    let lna = Lna::new();

    // Set-up: Monte Carlo collection and problem builds.
    let (test_ds, train_ds, extra_ds) = out.spans.run("circuits.collect", |_| {
        let test = MonteCarlo::new(TEST_PER_STATE)
            .collect(&lna, &mut seeded_rng(mix(ctx.seed, 1)))
            .expect("test collection");
        let mut stream = McStream::new(&lna, &mut seeded_rng(mix(ctx.seed, 2)));
        let train = stream
            .next_chunk(CBMF_PER_STATE)
            .expect("training collection");
        let extra = stream
            .next_chunk(SOMP_PER_STATE - CBMF_PER_STATE)
            .expect("S-OMP extension");
        (test, train, extra)
    });
    let (train, test) = out
        .spans
        .run("dataset.build", |_| (problem(&train_ds), problem(&test_ds)));
    let (extra_xs, extra_ys): (Vec<_>, Vec<_>) = extra_ds
        .states
        .iter()
        .map(|s| (s.x.clone(), s.metric(METRIC)))
        .unzip();
    let somp_train = out.spans.run("dataset.append", |_| {
        let mut p = train.clone();
        p.append_samples(&extra_xs, &extra_ys)
            .expect("append S-OMP samples");
        p
    });
    drop((extra_xs, extra_ys));
    out.setup_s = ctx.origin.elapsed().as_secs_f64();

    // Fit: the user-facing call, then the public phases on the same seed.
    let config = paper_config();
    let fit_seed = mix(ctx.seed, 3);
    let outcome = out.fit("fit", || {
        CbmfFit::new(config.clone())
            .fit(&train, &mut seeded_rng(fit_seed))
            .expect("C-BMF fit")
    });

    // Baseline: fitted twice on one seed; both fits must give the same
    // model. Its time is the per-layer `somp.s` only (README, "End-to-end
    // metrics"). The fits also space the C-BMF timings apart, so one slow
    // spell of the host is less likely to cover them all.
    let mut somps: Vec<_> = (0..SOMP_REPEATS)
        .map(|_| {
            out.attempted += 1;
            out.spans.run("somp", |_| {
                Somp::new(somp_config())
                    .fit(&somp_train, &mut seeded_rng(mix(ctx.seed, 4)))
                    .expect("S-OMP fit")
            })
        })
        .collect();
    drop(somp_train);
    let somp = somps.pop().expect("at least one S-OMP fit");
    out.check(
        somps.iter().all(|m| {
            m.support() == somp.support()
                && bitwise_equal(m.coefficients().as_slice(), somp.coefficients().as_slice())
        }),
        || "repeated S-OMP fits on one seed differ".to_string(),
    );
    drop(somps);

    let (init, em) = ctx.untraced(|| {
        let init = out.spans.run("init", |_| {
            SompInitializer::new(config.grid.clone())
                .initialize(&train, &mut seeded_rng(fit_seed))
                .expect("initializer")
        });
        let em = out.spans.run("em", |_| {
            EmRefiner::new(config.em.clone())
                .refine(&train, &init.prior)
                .expect("EM")
        });
        (init, em)
    });
    out.attempted += 1;

    // The untraced run times the same fit FIT_REPEATS more times; every
    // repeat must give the same model.
    let mut samples = vec![
        out.spans.total_s("fit"),
        out.spans.total_s("init") + out.spans.total_s("em"),
    ];
    if !ctx.trace {
        for _ in 0..FIT_REPEATS {
            let t0 = Instant::now();
            let again = out.spans.run("fit.repeat", |_| {
                CbmfFit::new(config.clone())
                    .fit(&train, &mut seeded_rng(fit_seed))
                    .expect("C-BMF fit")
            });
            samples.push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            out.check(same_model(&again, &outcome), || {
                "repeated CbmfFit::fit on one seed differs".to_string()
            });
        }
    }
    // Every sample does the same fitting work; the fastest is the figure,
    // which keeps the host's slow spells out of it (README, "End-to-end
    // metrics").
    out.fit_s = samples.iter().copied().fold(f64::INFINITY, f64::min);
    out.note(format!(
        "fit timings: CbmfFit::fit, initialize + refine, repeats {samples:.3?} s; S-OMP {:.3} s over {SOMP_REPEATS} fits",
        out.spans.total_s("somp")
    ));
    out.check(outcome.strategy() == FitStrategy::Full, || {
        format!("C-BMF fit fell back to {:?}", outcome.strategy())
    });
    let (fit_init, fit_em) = (
        outcome.init().expect("full fit has an init outcome"),
        outcome.em().expect("full fit has an EM outcome"),
    );
    out.check(
        init.support == fit_init.support
            && bitwise_equal(init.coeffs.as_slice(), fit_init.coeffs.as_slice())
            && bitwise_equal(em.coeffs.as_slice(), fit_em.coeffs.as_slice())
            && bitwise_equal(em.prior.lambda(), fit_em.prior.lambda())
            && em.prior.sigma0().to_bits() == fit_em.prior.sigma0().to_bits(),
        || "initialize → refine differs from CbmfFit::fit".to_string(),
    );
    out.check(em.nlml_trace.windows(2).all(|w| w[1] <= w[0]), || {
        format!(
            "EM negative log marginal likelihood rose: {:?}",
            em.nlml_trace
        )
    });
    drop((init, em));

    // Scores and the paper's claims.
    let model = outcome.model();
    let cbmf_pct = 100.0 * model.modeling_error(&test).expect("same shape");
    let recomputed = held_out_pct(&test_ds, |k, x| model.predict(k, x).expect("predict"));
    let somp_pct = 100.0 * somp.modeling_error(&test).expect("same shape");
    let train_means: Vec<f64> = train_ds
        .states
        .iter()
        .map(|s| {
            let y = s.metric(METRIC);
            y.iter().sum::<f64>() / y.len() as f64
        })
        .collect();
    let mean_pct = held_out_pct(&test_ds, |k, _| train_means[k]);
    out.check((recomputed - cbmf_pct).abs() <= 1e-9 * cbmf_pct, || {
        format!("held-out error {cbmf_pct} disagrees with the recomputed {recomputed}")
    });
    out.check(cbmf_pct <= SOMP_TOLERANCE * somp_pct, || {
        format!("C-BMF {cbmf_pct:.4}% at 480 sims is not within 6% of S-OMP {somp_pct:.4}% at 1120")
    });
    out.check(
        cbmf_pct <= MEAN_PREDICTOR_SHARE * mean_pct && somp_pct <= MEAN_PREDICTOR_SHARE * mean_pct,
        || format!("C-BMF {cbmf_pct:.4}% / S-OMP {somp_pct:.4}% vs per-state mean {mean_pct:.4}%"),
    );
    let sims = train_ds.cost.samples();
    out.check(
        sims == lna.num_states() * CBMF_PER_STATE
            && train_ds.cost.seconds().to_bits()
                == SimCostModel::lna_paper().charge(sims).seconds().to_bits(),
        || {
            format!(
                "C-BMF training set has {sims} sims, charged {} s",
                train_ds.cost.seconds()
            )
        },
    );
    out.note(format!(
        "errors: cbmf {cbmf_pct:.4}% somp {somp_pct:.4}% per-state-mean {mean_pct:.4}%; support {}; em iterations {}",
        model.support().len(),
        fit_em.iterations
    ));
    out.sims_used = sims as f64;
    out.model_error_pct = cbmf_pct;

    // Publish and serve.
    let xs = train_ds.states.iter().map(|s| rows(&s.x)).collect();
    let ys = train_ds.states.iter().map(|s| s.metric(METRIC)).collect();
    let published = publish(
        &mut out.spans,
        &[Fitted {
            name: "lna_nf".to_string(),
            outcome: &outcome,
            problem: &train,
            xs,
            ys,
        }],
        &ctx.dir,
    );
    out.artifact_bytes = published.artifact_bytes as f64;
    let inputs: Vec<Vec<f64>> = test_ds.states.iter().flat_map(|s| rows(&s.x)).collect();
    if ctx.trace {
        probe_layers(&published, &inputs[0], 40, &mut out.layers);
    }
    out.simulations =
        (test_ds.total_samples() + train_ds.total_samples() + extra_ds.total_samples()) as f64;
    let report = serve(&published, &[inputs], ctx.seconds, mix(ctx.seed, 5), 16);
    out.absorb_serving(&published, report);
    out
}
