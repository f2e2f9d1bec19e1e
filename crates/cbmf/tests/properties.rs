//! Property-based tests on the C-BMF core invariants.

use cbmf::{
    BasisSpec, CbmfConfig, CbmfFit, CbmfPrior, ElasticNet, ElasticNetConfig, MapPosterior,
    PerStateModel, PosteriorPredictive, TunableProblem,
};
use cbmf_linalg::{Cholesky, Matrix};
use proptest::prelude::*;

/// Strategy: a small random multi-state problem with controlled shapes.
fn problem_strategy() -> impl Strategy<Value = TunableProblem> {
    (2usize..=4, 5usize..=10, 2usize..=5, 0u64..1000).prop_map(|(k, n, d, seed)| {
        let mut rng = cbmf_stats::seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| cbmf_stats::normal::sample(&mut rng));
            let w = 1.0 + 0.1 * state as f64;
            let y: Vec<f64> = (0..n)
                .map(|i| w * x[(i, 0)] + 0.2 * cbmf_stats::normal::sample(&mut rng) + 3.0)
                .collect();
            xs.push(x);
            ys.push(y);
        }
        TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The centered per-state responses always have (numerically) zero mean
    /// and so do the centered basis columns.
    #[test]
    fn problem_centering_invariants(problem in problem_strategy()) {
        for st in problem.states() {
            let ysum: f64 = st.y.iter().sum();
            prop_assert!(ysum.abs() < 1e-9 * st.len() as f64);
            for j in 0..problem.num_basis() {
                let csum: f64 = (0..st.len()).map(|i| st.basis[(i, j)]).sum();
                prop_assert!(csum.abs() < 1e-9 * st.len() as f64, "column {j}");
            }
        }
    }

    /// Subsetting to all indices reproduces the same problem (up to the
    /// identical re-centering).
    #[test]
    fn full_subset_is_identity(problem in problem_strategy()) {
        let keep: Vec<Vec<usize>> = problem
            .states()
            .iter()
            .map(|st| (0..st.len()).collect())
            .collect();
        let sub = problem.subset(&keep).expect("valid subset");
        for k in 0..problem.num_states() {
            prop_assert_eq!(problem.raw_y(k), sub.raw_y(k));
            let a = problem.raw_basis(k);
            let b = sub.raw_basis(k);
            prop_assert!((&a - &b).max_abs() < 1e-12);
        }
    }

    /// Posterior coefficients scale linearly with the response: solving on
    /// 2·y must give exactly 2·α (the MAP estimate is linear in y).
    #[test]
    fn posterior_is_linear_in_y(problem in problem_strategy(), scale in 1.5f64..4.0) {
        let k = problem.num_states();
        let m = problem.num_basis();
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; m], k, 0.8, 0.5).expect("prior");
        let base = MapPosterior.solve_coefficients(&problem, &prior).expect("solve");

        // Rebuild the problem with scaled responses.
        let xs: Vec<Matrix> = (0..k).map(|s| problem.raw_basis(s)).collect();
        let ys: Vec<Vec<f64>> = (0..k)
            .map(|s| problem.raw_y(s).iter().map(|v| v * scale).collect())
            .collect();
        let scaled = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("valid");
        let got = MapPosterior.solve_coefficients(&scaled, &prior).expect("solve");
        for ki in 0..k {
            for mi in 0..m {
                prop_assert!(
                    (got[(ki, mi)] - scale * base[(ki, mi)]).abs()
                        < 1e-8 * (1.0 + base[(ki, mi)].abs() * scale),
                    "({ki},{mi})"
                );
            }
        }
    }

    /// Increasing the noise hyper-parameter σ0 never increases the
    /// coefficient norms (more shrinkage).
    #[test]
    fn sigma0_monotone_shrinkage(problem in problem_strategy()) {
        let k = problem.num_states();
        let m = problem.num_basis();
        let lo = CbmfPrior::with_toeplitz_r(vec![1.0; m], k, 0.8, 0.1).expect("prior");
        let hi = CbmfPrior::with_toeplitz_r(vec![1.0; m], k, 0.8, 3.0).expect("prior");
        let c_lo = MapPosterior.solve_coefficients(&problem, &lo).expect("solve");
        let c_hi = MapPosterior.solve_coefficients(&problem, &hi).expect("solve");
        prop_assert!(c_hi.fro_norm() <= c_lo.fro_norm() + 1e-12);
    }

    /// The negative log marginal likelihood is finite, the posterior
    /// moments have the documented shapes, every `T_m` is bitwise
    /// symmetric, and `Tr(DΣpDᵀ) = σ0²·(NK − σ0²·Tr C⁻¹)` lies in
    /// `[0, σ0²·NK]` for any valid prior.
    #[test]
    fn moments_shapes_hold(problem in problem_strategy(), r0 in 0.0f64..0.99) {
        let k = problem.num_states();
        let m = problem.num_basis();
        let sigma0 = 0.3;
        let prior = CbmfPrior::with_toeplitz_r(vec![0.5; m], k, r0, sigma0).expect("prior");
        let mom = MapPosterior.solve_moments(&problem, &prior).expect("solve");
        prop_assert_eq!(mom.coeffs.shape(), (k, m));
        prop_assert_eq!(mom.t_blocks.len(), m);
        for t in &mom.t_blocks {
            let t = t.as_ref().expect("every basis is active");
            prop_assert_eq!(t.shape(), (k, k));
            for a in 0..k {
                for b in 0..a {
                    prop_assert_eq!(t[(a, b)].to_bits(), t[(b, a)].to_bits());
                }
            }
        }
        prop_assert!(mom.neg_log_marginal.is_finite());
        prop_assert!(mom.resid_trace >= 0.0);
        prop_assert!(mom.resid_trace <= sigma0 * sigma0 * mom.total_samples as f64);
        prop_assert!(mom.resid_norm_sq >= 0.0);
    }

    /// Predictive variance at any point is at least the observation noise
    /// and at most noise + prior variance.
    #[test]
    fn predictive_variance_bounds(
        problem in problem_strategy(),
        x0 in -2.0f64..2.0,
        x1 in -2.0f64..2.0,
    ) {
        let k = problem.num_states();
        let m = problem.num_basis();
        let sigma0 = 0.4;
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; m], k, 0.7, sigma0).expect("prior");
        let predictive = PosteriorPredictive::new(&problem, &prior).expect("build");
        let mut x = vec![0.0; m];
        x[0] = x0;
        if m > 1 {
            x[1] = x1;
        }
        let (_, var) = predictive.predict(0, &x).expect("predict");
        prop_assert!(var >= sigma0 * sigma0 * 0.999, "var {var}");
        // Upper bound: noise + full prior variance at this point.
        let st = &problem.states()[0];
        let centered: Vec<f64> = x
            .iter()
            .zip(st.basis_means.iter())
            .map(|(v, mu)| v - mu)
            .collect();
        let prior_var: f64 = centered.iter().map(|c| c * c).sum();
        prop_assert!(var <= sigma0 * sigma0 + prior.r()[(0, 0)] * prior_var + 1e-9);
    }

    /// A model assembled from arbitrary pieces predicts the intercept at
    /// the per-state basis-mean point (the training centroid).
    #[test]
    fn model_predicts_training_mean_at_centroid(problem in problem_strategy()) {
        let k = problem.num_states();
        let m = problem.num_basis();
        let prior = CbmfPrior::with_toeplitz_r(vec![1.0; m], k, 0.8, 0.3).expect("prior");
        let coeffs = MapPosterior.solve_coefficients(&problem, &prior).expect("solve");
        let support: Vec<usize> = (0..m).collect();
        let intercepts: Vec<f64> = (0..k)
            .map(|ki| problem.intercept_for(ki, &support, coeffs.row(ki)))
            .collect();
        let model = PerStateModel::new(
            BasisSpec::Linear,
            m,
            support,
            coeffs,
            intercepts,
        )
        .expect("assemble");
        for ki in 0..k {
            let centroid = problem.states()[ki].basis_means.clone();
            let pred = model.predict(ki, &centroid).expect("predict");
            let y_mean = cbmf_stats::describe::mean(&problem.raw_y(ki));
            prop_assert!(
                (pred - y_mean).abs() < 1e-9 * (1.0 + y_mean.abs()),
                "state {ki}: {pred} vs {y_mean}"
            );
        }
    }

    /// The eq.-32 Toeplitz matrix is always PD for r0 ∈ [0, 1).
    #[test]
    fn toeplitz_r_is_pd(k in 1usize..=12, r0 in 0.0f64..0.999) {
        let mat = toeplitz(k, r0);
        prop_assert!(Cholesky::new(&mat).is_ok(), "k={k}, r0={r0}");
        // The prior constructor accepts the same matrices.
        prop_assert!(CbmfPrior::with_toeplitz_r(vec![1.0; 2], k, r0, 1.0).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fitting pipeline never panics on adversarial data: corrupted
    /// inputs are either rejected at construction or surface as typed
    /// errors (or a degraded-but-valid fit) from `CbmfFit::fit`.
    #[test]
    fn fit_never_panics_on_adversarial_data(
        k in 1usize..=3,
        n in 1usize..=6,
        d in 1usize..=4,
        seed in 0u64..500,
        corruption in 0usize..6,
    ) {
        let mut rng = cbmf_stats::seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| cbmf_stats::normal::sample(&mut rng));
            let w = 1.0 + 0.1 * state as f64;
            let y: Vec<f64> = (0..n).map(|i| w * x[(i, 0)]).collect();
            xs.push(x);
            ys.push(y);
        }
        match corruption {
            1 => ys[0][0] = f64::NAN,
            2 => xs[0][(0, 0)] = f64::INFINITY,
            3 if d >= 2 => {
                // Duplicate column 0 into column 1 (collinear basis).
                let dup = xs[0].clone();
                for i in 0..n {
                    xs[0][(i, 1)] = dup[(i, 0)];
                }
            }
            4 => {
                // Zero out a whole column (zero variance after centering).
                for i in 0..n {
                    xs[0][(i, d - 1)] = 0.0;
                }
            }
            5 => ys[0] = vec![2.5; n],
            _ => {}
        }

        // Construction may reject (typed error) — that is a valid outcome.
        let Ok(problem) = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear) else {
            return Ok(());
        };

        let mut cfg = CbmfConfig::small_problem();
        cfg.grid.theta = vec![2];
        cfg.grid.r0 = vec![0.5];
        cfg.em.max_iters = 3;
        // The only contract under corruption: return, never panic. On
        // success the model must at least predict finite values in-sample.
        if let Ok(out) = CbmfFit::new(cfg).fit(&problem, &mut rng) {
            let x0 = vec![0.0; problem.num_basis()];
            let pred = out.model().predict(0, &x0).expect("in-range state");
            prop_assert!(pred.is_finite(), "prediction must be finite, got {pred}");
        }
    }
}

/// Sylvester–Hadamard entry `(−1)^popcount(i ∧ j)`.
fn hadamard(i: usize, j: usize) -> f64 {
    if (i & j).count_ones().is_multiple_of(2) {
        1.0
    } else {
        -1.0
    }
}

/// The scalar soft-thresholding operator `S(z, γ)` — the elastic net's
/// closed-form coordinate solution on an orthogonal design.
fn soft(z: f64, gamma: f64) -> f64 {
    if z > gamma {
        z - gamma
    } else if z < -gamma {
        z + gamma
    } else {
        0.0
    }
}

/// One state on an 8×7 balanced orthogonal ±1 design (H₈ minus its
/// all-ones column): centering is a no-op on the basis, the Gram is exactly
/// diagonal (integer ±1 sums), and every column has squared norm 8 — so the
/// elastic-net optimum has an exact closed form per coordinate.
fn orthogonal_design_problem(seed: u64) -> TunableProblem {
    let n = 8;
    let x = Matrix::from_fn(n, 7, |i, j| hadamard(i, j + 1));
    let mut rng = cbmf_stats::seeded_rng(seed);
    let y: Vec<f64> = (0..n)
        .map(|_| 2.0 * cbmf_stats::normal::sample(&mut rng) + 1.0)
        .collect();
    TunableProblem::from_samples(&[x], &[y], BasisSpec::Linear).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On an exactly orthogonal design, coordinate descent must land on the
    /// closed-form elastic-net solution: per normalized coordinate,
    /// `S(b̃ᵀy, λ₁) / (1 + λ₂)`, de-normalized by the column norm. This
    /// pins the CD solver (thresholding, penalty split, de-normalization,
    /// intercept) against independent algebra rather than its own output.
    #[test]
    fn cd_matches_closed_form_on_orthogonal_designs(
        seed in 0u64..1000,
        lambda_rel in 0.02f64..1.2,
        // Clamping the top of the range puts a mass point at exactly 1.0,
        // so the pure lasso is exercised alongside true blends.
        l1_ratio in (0.3f64..1.7).prop_map(|v| v.min(1.0)),
    ) {
        let problem = orthogonal_design_problem(seed);
        let cfg = ElasticNetConfig {
            lambda_rel: vec![lambda_rel],
            l1_ratio,
            ..ElasticNetConfig::default()
        };
        let mut rng = cbmf_stats::seeded_rng(seed ^ 0xc0de);
        let model = ElasticNet::new(cfg).fit(&problem, &mut rng).expect("fit");

        // The closed form, computed from the same cached quadratic pieces
        // the solver reads (normalized correlations and column norms).
        let st = &problem.states()[0];
        let scales = st.col_norms();
        let btyn: Vec<f64> = st.bty().iter().zip(scales).map(|(v, s)| v / s).collect();
        let lambda_max = btyn.iter().fold(0.0_f64, |a, v| a.max(v.abs()));
        let lambda = lambda_rel * lambda_max / l1_ratio;
        let l1 = lambda * l1_ratio;
        let l2 = lambda * (1.0 - l1_ratio);
        let expected: Vec<f64> = btyn
            .iter()
            .zip(scales)
            .map(|(&z, s)| soft(z, l1) / (1.0 + l2) / s)
            .collect();

        let support: Vec<usize> =
            (0..expected.len()).filter(|&j| expected[j] != 0.0).collect();
        prop_assert_eq!(model.support(), &support[..], "support");
        for (pos, &j) in model.support().iter().enumerate() {
            let got = model.coefficients()[(0, pos)];
            prop_assert!(
                (got - expected[j]).abs() <= 1e-10 * (1.0 + expected[j].abs()),
                "coefficient {j}: {got} vs closed form {}",
                expected[j]
            );
        }
        // Balanced columns ⇒ zero basis means ⇒ the intercept is exactly
        // the raw response mean.
        let y_mean = cbmf_stats::describe::mean(&problem.raw_y(0));
        prop_assert!(
            (model.intercepts()[0] - y_mean).abs() <= 1e-12 * (1.0 + y_mean.abs()),
            "intercept {} vs mean {y_mean}",
            model.intercepts()[0]
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The CD solver honours the same robustness contract as `CbmfFit` and
    /// the `new_robust` constructors: NaN/∞ and singular-Gram inputs
    /// (duplicated or zero columns) are rejected at construction or surface
    /// as typed errors — never a panic — and any successful fit predicts
    /// finite values.
    #[test]
    fn elastic_net_never_panics_on_adversarial_data(
        k in 1usize..=3,
        n in 1usize..=6,
        d in 1usize..=4,
        seed in 0u64..500,
        corruption in 0usize..6,
    ) {
        let mut rng = cbmf_stats::seeded_rng(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for state in 0..k {
            let x = Matrix::from_fn(n, d, |_, _| cbmf_stats::normal::sample(&mut rng));
            let w = 1.0 + 0.1 * state as f64;
            let y: Vec<f64> = (0..n).map(|i| w * x[(i, 0)]).collect();
            xs.push(x);
            ys.push(y);
        }
        match corruption {
            1 => ys[0][0] = f64::NAN,
            2 => xs[0][(0, 0)] = f64::INFINITY,
            3 if d >= 2 => {
                // Duplicate column 0 into column 1 (exactly singular Gram).
                let dup = xs[0].clone();
                for i in 0..n {
                    xs[0][(i, 1)] = dup[(i, 0)];
                }
            }
            4 => {
                // Zero out a whole column (zero variance after centering).
                for i in 0..n {
                    xs[0][(i, d - 1)] = 0.0;
                }
            }
            5 => ys[0] = vec![2.5; n],
            _ => {}
        }

        // Construction may reject (typed error) — that is a valid outcome.
        let Ok(problem) = TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear) else {
            return Ok(());
        };

        // A two-point path forces the cross-validated branch (fold
        // splitting included); tiny states may reject it as TooFewSamples,
        // which is the typed-error contract working as intended.
        let cfg = ElasticNetConfig {
            lambda_rel: vec![0.3, 0.05],
            cv_folds: 2,
            ..ElasticNetConfig::default()
        };
        if let Ok(model) = ElasticNet::new(cfg).fit(&problem, &mut rng) {
            let x0 = vec![0.0; problem.num_basis()];
            let pred = model.predict(0, &x0).expect("in-range state");
            prop_assert!(pred.is_finite(), "prediction must be finite, got {pred}");
        }
    }
}

fn toeplitz(k: usize, r0: f64) -> Matrix {
    Matrix::from_fn(k, k, |i, j| {
        r0.powi((i as i64 - j as i64).unsigned_abs() as i32)
    })
}
