//! A dense reference for one EM iteration, taken straight from the paper's
//! equations, and two closed-form checks of it.
//!
//! The oracle forms the prior covariance `A = diag(λ) ⊗ R` (eq. 11) and the
//! posterior covariance `Σp = (A⁻¹ + σ0⁻²·DᵀD)⁻¹` (eq. 20) explicitly, which
//! is affordable only on small problems. `EmRefiner` never forms either:
//! it works in observation space through `T_m` and `Tr C⁻¹`. The two must
//! agree to within the conditioning of the systems involved.

use cbmf::{BasisSpec, CbmfPrior, EmConfig, EmOutcome, EmRefiner, MapPosterior, TunableProblem};
use cbmf_linalg::{project_pd_relative, Cholesky, Matrix};

/// The relative eigenvalue floor of `EmConfig::default()`.
const R_PD_FLOOR: f64 = 1e-8;

/// Random states sharing one sparse template with state-dependent weights.
fn problem(k: usize, n: usize, m: usize, seed: u64) -> TunableProblem {
    let mut rng = cbmf_stats::seeded_rng(seed);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for state in 0..k {
        let x = Matrix::from_fn(n, m, |_, _| cbmf_stats::normal::sample(&mut rng));
        let w = 1.0 + 0.2 * state as f64;
        let y: Vec<f64> = (0..n)
            .map(|i| {
                w * (1.3 * x[(i, 0)] - 0.7 * x[(i, 2)]) + 0.3 * cbmf_stats::normal::sample(&mut rng)
            })
            .collect();
        xs.push(x);
        ys.push(y);
    }
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("valid problem")
}

/// The dense posterior of eqs. 19–21 under `prior`.
struct Dense {
    /// `D`: `NK × MK`; observation (k, n) sees coefficient `m·K + k`
    /// through `B_k[n, m]`.
    d: Matrix,
    /// All responses, state-major.
    y: Vec<f64>,
    /// `Σp`: `MK × MK`, basis-major.
    sigma_p: Matrix,
    /// `μp = σ0⁻²·Σp·Dᵀy` (eq. 21), basis-major.
    mu_p: Vec<f64>,
    /// Smaller of the reciprocal-condition estimates of `C` and `Σp⁻¹`.
    rcond: f64,
    /// `yᵀC⁻¹y + log|C|` with `C = σ0²I + D·A·Dᵀ` (eq. 25).
    nlml: f64,
}

fn dense(problem: &TunableProblem, prior: &CbmfPrior) -> Dense {
    let k = problem.num_states();
    let m = problem.num_basis();
    let nk = problem.total_samples();
    let (lambda, r, s2) = (prior.lambda(), prior.r(), prior.sigma0() * prior.sigma0());
    let mut d = Matrix::zeros(nk, m * k);
    let mut y = Vec::with_capacity(nk);
    let mut row = 0;
    for (ki, st) in problem.states().iter().enumerate() {
        for n in 0..st.len() {
            for mi in 0..m {
                d[(row, mi * k + ki)] = st.basis[(n, mi)];
            }
            y.push(st.y[n]);
            row += 1;
        }
    }
    let a = Matrix::from_fn(m * k, m * k, |i, j| {
        if i / k == j / k {
            lambda[i / k] * r[(i % k, j % k)]
        } else {
            0.0
        }
    });
    let a_inv = Cholesky::new(&a).expect("A is PD").inverse();
    let mut precision = &a_inv + &d.t_matmul(&d).unwrap().scaled(1.0 / s2);
    precision = precision.symmetrized();
    let p_chol = Cholesky::new(&precision).expect("Σp⁻¹ is PD");
    let sigma_p = p_chol.inverse();
    let dty = d.t_matvec(&y).unwrap();
    let mu_p: Vec<f64> = sigma_p
        .matvec(&dty)
        .unwrap()
        .iter()
        .map(|v| v / s2)
        .collect();

    let mut c = d.matmul(&a).unwrap().matmul_t(&d).unwrap().symmetrized();
    c.add_diag_mut(s2);
    let c_chol = Cholesky::new(&c).expect("C is PD");
    let ciy = c_chol.solve_vec(&y).unwrap();
    let nlml = y.iter().zip(&ciy).map(|(a, b)| a * b).sum::<f64>() + c_chol.logdet();
    Dense {
        d,
        y,
        sigma_p,
        mu_p,
        rcond: c_chol.rcond_estimate().min(p_chol.rcond_estimate()),
        nlml,
    }
}

/// `μp` rearranged per state, `K × M` — the layout of the fitted coefficients.
fn coeffs_of(post: &Dense, k: usize, m: usize) -> Matrix {
    Matrix::from_fn(k, m, |ki, mi| post.mu_p[mi * k + ki])
}

/// One EM iteration from the equations: the λ, R and σ0 updates of
/// eqs. 29–31, followed by the refiner's documented normalization (unit
/// mean diagonal on R, the scale moved into λ) and PD projection.
fn oracle_step(problem: &TunableProblem, prior: &CbmfPrior) -> (Dense, CbmfPrior) {
    let k = problem.num_states();
    let m = problem.num_basis();
    let post = dense(problem, prior);
    let r_inv = Cholesky::new(prior.r()).unwrap().inverse();
    let mut lambda_new = Vec::with_capacity(m);
    let mut r_sum = Matrix::zeros(k, k);
    for mi in 0..m {
        // S_m = Σp^m + μ_m·μ_mᵀ, the second moment of basis m's block.
        let (o, mu) = (mi * k, &post.mu_p[mi * k..(mi + 1) * k]);
        let s = Matrix::from_fn(k, k, |a, b| post.sigma_p[(o + a, o + b)] + mu[a] * mu[b]);
        let lam = r_inv.matmul(&s).unwrap().trace() / k as f64;
        r_sum += &s.scaled(1.0 / lam);
        lambda_new.push(lam);
    }
    r_sum.scale_mut(1.0 / m as f64);
    let diag_mean = r_sum.trace() / k as f64;
    r_sum.scale_mut(1.0 / diag_mean);
    for l in &mut lambda_new {
        *l *= diag_mean;
    }
    let r_new = project_pd_relative(&r_sum.symmetrized(), R_PD_FLOOR).unwrap();

    let mu = &post.mu_p;
    let fitted = post.d.matvec(mu).unwrap();
    let resid: f64 = post
        .y
        .iter()
        .zip(&fitted)
        .map(|(a, b)| (a - b) * (a - b))
        .sum();
    let trace = post
        .d
        .matmul(&post.sigma_p)
        .unwrap()
        .matmul_t(&post.d)
        .unwrap()
        .trace();
    let sigma0 = ((resid + trace) / problem.total_samples() as f64).sqrt();
    let next = CbmfPrior::new(lambda_new, r_new, sigma0).unwrap();
    (post, next)
}

fn refine_once(problem: &TunableProblem, prior: &CbmfPrior) -> EmOutcome {
    EmRefiner::new(EmConfig {
        max_iters: 1,
        ..EmConfig::default()
    })
    .refine(problem, prior)
    .unwrap()
}

/// Asserts `max|got − want| ≤ tol·max(1, max|want|)`.
fn assert_close(what: &str, got: &[f64], want: &[f64], tol: f64) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let scale = want.iter().fold(1.0_f64, |a, v| a.max(v.abs()));
    let err = got
        .iter()
        .zip(want)
        .fold(0.0_f64, |a, (g, w)| a.max((g - w).abs()));
    assert!(
        err <= tol * scale,
        "{what}: max error {err:e} > {tol:e}·{scale:e}\n got {got:?}\nwant {want:?}"
    );
}

/// The comparison tolerance: a multiple of machine epsilon over the
/// reciprocal condition of the worst-conditioned system involved. The
/// observed errors sit about two orders of magnitude below it.
fn tolerance(rcond: f64) -> f64 {
    64.0 * f64::EPSILON / rcond
}

#[test]
fn one_em_iteration_matches_the_dense_oracle() {
    let (k, n, m) = (3, 5, 6);
    for (seed, r0, sigma0) in [(1, 0.8, 0.4), (2, 0.3, 0.1), (3, 0.95, 1.0)] {
        let problem = problem(k, n, m, seed);
        let lambda = vec![1.5, 0.2, 0.9, 0.05, 0.4, 1.0];
        let prior = CbmfPrior::with_toeplitz_r(lambda, k, r0, sigma0).unwrap();
        let (post, next) = oracle_step(&problem, &prior);
        let (post_next, _) = oracle_step(&problem, &next);
        let tol = tolerance(post.rcond.min(post_next.rcond));
        let what = |s: &str| format!("seed {seed}: {s}");

        // E-step: coefficients, the Σp^m blocks rebuilt from T_m, the NLML.
        let mom = MapPosterior.solve_moments(&problem, &prior).unwrap();
        let want = coeffs_of(&post, k, m);
        assert_close(
            &what("E-step coeffs"),
            mom.coeffs.as_slice(),
            want.as_slice(),
            tol,
        );
        let r = prior.r();
        for mi in 0..m {
            let t = mom.t_blocks[mi].as_ref().expect("every basis is active");
            let lm = prior.lambda()[mi];
            let rtr = r.matmul(t).unwrap().matmul(r).unwrap();
            let got = &r.scaled(lm) - &rtr.scaled(lm * lm);
            let o = mi * k;
            let want = Matrix::from_fn(k, k, |a, b| post.sigma_p[(o + a, o + b)]);
            assert_close(
                &what(&format!("Σp^{mi}")),
                got.as_slice(),
                want.as_slice(),
                tol,
            );
        }

        // One full iteration through the refiner.
        let out = refine_once(&problem, &prior);
        assert_close(&what("NLML"), &out.nlml_trace, &[post.nlml], tol);
        assert_close(&what("λ'"), out.prior.lambda(), next.lambda(), tol);
        assert_close(
            &what("R'"),
            out.prior.r().as_slice(),
            next.r().as_slice(),
            tol,
        );
        assert_close(&what("σ0'"), &[out.prior.sigma0()], &[next.sigma0()], tol);
        let want = coeffs_of(&post_next, k, m);
        assert_close(&what("coeffs"), out.coeffs.as_slice(), want.as_slice(), tol);
    }
}

/// Closed form of one EM iteration when `R = I`: each state is its own
/// sparse Bayesian regression with posterior `Σ_k = (Λ⁻¹ + σ0⁻²B_kᵀB_k)⁻¹`
/// and mean `μ_k = σ0⁻²·Σ_k·B_kᵀy_k`, and the updates are
///
/// ```text
/// λ'_m  = (1/K)·Σ_k (μ_k[m]² + Σ_k[m,m])
/// R'_ab = (1/M)·Σ_m (δ_ab·Σ_a[m,m] + μ_a[m]·μ_b[m]) / λ'_m
/// σ0'²  = Σ_k (‖y_k − B_k·μ_k‖² + σ0²·Σ_m (1 − Σ_k[m,m]/λ_m)) / NK
/// ```
///
/// (the σ0 term is the "well-determined parameters" count γ of sparse
/// Bayesian learning), then the same normalization and PD projection.
fn decoupled_step(problem: &TunableProblem, prior: &CbmfPrior) -> (CbmfPrior, f64) {
    let k = problem.num_states();
    let m = problem.num_basis();
    let (lambda, s2) = (prior.lambda(), prior.sigma0() * prior.sigma0());
    let mut sigmas = Vec::new();
    let mut mus = Vec::new();
    let mut rcond = 1.0_f64;
    let mut sse = 0.0;
    for st in problem.states() {
        let mut precision = st.basis.t_matmul(&st.basis).unwrap().scaled(1.0 / s2);
        for (mi, l) in lambda.iter().enumerate() {
            precision[(mi, mi)] += 1.0 / l;
        }
        let chol = Cholesky::new(&precision.symmetrized()).unwrap();
        rcond = rcond.min(chol.rcond_estimate());
        let sigma = chol.inverse();
        let bty = st.basis.t_matvec(&st.y).unwrap();
        let mu: Vec<f64> = sigma.matvec(&bty).unwrap().iter().map(|v| v / s2).collect();
        let fitted = st.basis.matvec(&mu).unwrap();
        sse +=
            st.y.iter()
                .zip(&fitted)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>();
        for (mi, l) in lambda.iter().enumerate() {
            sse += s2 * (1.0 - sigma[(mi, mi)] / l);
        }
        sigmas.push(sigma);
        mus.push(mu);
    }
    let mut lambda_new: Vec<f64> = (0..m)
        .map(|mi| {
            (0..k)
                .map(|ki| mus[ki][mi] * mus[ki][mi] + sigmas[ki][(mi, mi)])
                .sum::<f64>()
        })
        .map(|v| v / k as f64)
        .collect();
    let mut r_sum = Matrix::from_fn(k, k, |a, b| {
        (0..m)
            .map(|mi| {
                let diag = if a == b { sigmas[a][(mi, mi)] } else { 0.0 };
                (diag + mus[a][mi] * mus[b][mi]) / lambda_new[mi]
            })
            .sum::<f64>()
            / m as f64
    });
    let diag_mean = r_sum.trace() / k as f64;
    r_sum.scale_mut(1.0 / diag_mean);
    for l in &mut lambda_new {
        *l *= diag_mean;
    }
    let r_new = project_pd_relative(&r_sum.symmetrized(), R_PD_FLOOR).unwrap();
    let sigma0 = (sse / problem.total_samples() as f64).sqrt();
    (CbmfPrior::new(lambda_new, r_new, sigma0).unwrap(), rcond)
}

/// Checks the refiner and the dense oracle against [`decoupled_step`].
fn check_decoupled(k: usize, seed: u64) {
    let (n, m) = (5, 6);
    let problem = problem(k, n, m, seed);
    let lambda = vec![0.8, 0.3, 1.2, 0.1, 0.6, 2.0];
    let prior = CbmfPrior::new(lambda, Matrix::identity(k), 0.3).unwrap();
    let (want, rcond) = decoupled_step(&problem, &prior);
    let (post, oracle) = oracle_step(&problem, &prior);
    let out = refine_once(&problem, &prior);
    let tol = tolerance(rcond.min(post.rcond));
    for (who, got) in [("oracle", &oracle), ("refiner", &out.prior)] {
        let what = |s: &str| format!("K={k} {who}: {s}");
        assert_close(&what("λ'"), got.lambda(), want.lambda(), tol);
        assert_close(&what("R'"), got.r().as_slice(), want.r().as_slice(), tol);
        assert_close(&what("σ0'"), &[got.sigma0()], &[want.sigma0()], tol);
    }
    // With R = I the observation covariance is block diagonal, so T_m has
    // no cross-state entries at all.
    let mom = MapPosterior.solve_moments(&problem, &prior).unwrap();
    for t in mom.t_blocks.iter().flatten() {
        for a in 0..k {
            for b in 0..k {
                if a != b {
                    assert_eq!(t[(a, b)], 0.0, "K={k}: T[{a},{b}]");
                }
            }
        }
    }
}

#[test]
fn identity_r_decouples_states() {
    check_decoupled(3, 11);
}

#[test]
fn single_state_is_sparse_bayesian_regression() {
    check_decoupled(1, 12);
}
