//! Experiment harness for regenerating every table and figure of the C-BMF
//! paper (Wang & Li, DAC 2016).
//!
//! Each binary in `src/bin/` maps to one paper artifact (see `DESIGN.md`'s
//! experiment index); this library holds the shared plumbing: converting
//! circuit Monte Carlo datasets into modeling problems, running each method
//! with paper-scale settings, and printing CSV rows.

#![warn(missing_docs)]

pub mod artifact;
pub mod backends;
pub mod gate;
pub mod kernels;
pub mod predict;
pub mod serve;
pub mod smoke;
pub mod stream;

use std::time::Instant;

use cbmf::{
    BasisSpec, CandidateGrid, CbmfConfig, CbmfFit, EmConfig, PerStateModel, Somp, SompConfig,
    TunableProblem,
};
use cbmf_circuits::{MonteCarlo, Testbench, TunableDataset};
use cbmf_linalg::Matrix;
use cbmf_stats::SeededRng;

/// Builds the per-metric modeling problem from a circuit dataset.
///
/// # Panics
///
/// Panics if `metric` is out of range or the dataset is malformed — both
/// indicate harness bugs, not runtime conditions.
pub fn problem_for_metric(ds: &TunableDataset, metric: usize) -> TunableProblem {
    let xs: Vec<_> = ds.states.iter().map(|s| s.x.clone()).collect();
    let ys: Vec<_> = ds.states.iter().map(|s| s.metric(metric)).collect();
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("well-formed dataset")
}

/// Paper-scale S-OMP settings (the baseline of Tables 1–2 / Figures 2–3).
pub fn somp_paper_config() -> SompConfig {
    SompConfig {
        theta_candidates: vec![8, 16, 24, 32, 48],
        cv_folds: 4,
    }
}

/// Paper-scale C-BMF settings: the Algorithm-1 grid plus an EM budget sized
/// so a full LNA/mixer fit completes in tens of seconds.
pub fn cbmf_paper_config() -> CbmfConfig {
    CbmfConfig {
        grid: CandidateGrid {
            r0: vec![0.5, 0.9],
            sigma_rel: vec![0.02, 0.05, 0.2],
            theta: vec![16, 32],
            cv_folds: 3,
            // 1e-2 rather than the paper's 1e-5: lets EM absorb the dense
            // per-finger mismatch tail of the circuit metrics (see
            // DESIGN.md and EXPERIMENTS.md).
            off_support_level: 1e-2,
        },
        em: EmConfig {
            max_iters: 12,
            ..EmConfig::default()
        },
    }
}

/// Reduces a collected dataset to the CI-speed problem size shared by the
/// backends and stream suites and `fit_fleet` (at most 6 states, 40
/// variables) and projects out one metric, returning per-state samples.
pub fn reduced_samples(ds: &TunableDataset, metric: usize) -> (Vec<Matrix>, Vec<Vec<f64>>) {
    let states = &ds.states[..ds.states.len().min(6)];
    let xs = states
        .iter()
        .map(|s| s.x.block(0, s.x.rows(), 0, s.x.cols().min(40)))
        .collect();
    (xs, states.iter().map(|s| s.metric(metric)).collect())
}

/// [`reduced_samples`] assembled into a linear-basis problem.
///
/// # Panics
///
/// Panics on a malformed dataset (a harness bug).
pub fn reduced_problem(ds: &TunableDataset, metric: usize) -> TunableProblem {
    let (xs, ys) = reduced_samples(ds, metric);
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("well-formed dataset")
}

/// The C-BMF configuration for [`reduced_problem`]s: the small-problem
/// grid with θ ∈ {4, 8} and at most 5 EM iterations.
pub fn reduced_cbmf() -> CbmfFit {
    let mut cfg = CbmfConfig::small_problem();
    cfg.grid.theta = vec![4, 8];
    cfg.em.max_iters = 5;
    CbmfFit::new(cfg)
}

/// One method's result on one metric.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Fitted model.
    pub model: PerStateModel,
    /// Relative-RMS modeling error on the testing set, in percent.
    pub error_pct: f64,
    /// Wall-clock fitting time, seconds.
    pub fit_seconds: f64,
}

/// Fits S-OMP on `train` and evaluates on `test`.
///
/// # Panics
///
/// Panics on fitting failures (harness-level: inputs are generated here and
/// must be valid).
pub fn run_somp(train: &TunableProblem, test: &TunableProblem, rng: &mut SeededRng) -> MethodRun {
    let t0 = Instant::now();
    let model = Somp::new(somp_paper_config())
        .fit(train, rng)
        .expect("somp fit");
    let fit_seconds = t0.elapsed().as_secs_f64();
    let error_pct = 100.0 * model.modeling_error(test).expect("same shape");
    MethodRun {
        model,
        error_pct,
        fit_seconds,
    }
}

/// Fits C-BMF on `train` and evaluates on `test`.
///
/// # Panics
///
/// Panics on fitting failures (harness-level).
pub fn run_cbmf(train: &TunableProblem, test: &TunableProblem, rng: &mut SeededRng) -> MethodRun {
    let t0 = Instant::now();
    let out = CbmfFit::new(cbmf_paper_config())
        .fit(train, rng)
        .expect("cbmf fit");
    let fit_seconds = t0.elapsed().as_secs_f64();
    let model = out.into_model();
    let error_pct = 100.0 * model.modeling_error(test).expect("same shape");
    MethodRun {
        model,
        error_pct,
        fit_seconds,
    }
}

/// Collects testing and training datasets for a testbench with fixed seeds
/// (test first so its draw is independent of the training sweep).
///
/// # Panics
///
/// Panics on simulation failure (deterministic testbenches; cannot happen
/// for in-range inputs).
pub fn collect_datasets<T: Testbench + Sync>(
    tb: &T,
    test_per_state: usize,
    train_per_state: &[usize],
    seed: u64,
) -> (TunableDataset, Vec<TunableDataset>) {
    let mut rng = cbmf_stats::seeded_rng(seed);
    let test = MonteCarlo::new(test_per_state)
        .collect(tb, &mut rng)
        .expect("test collection");
    let trains = train_per_state
        .iter()
        .map(|&n| {
            MonteCarlo::new(n)
                .collect(tb, &mut rng)
                .expect("train collection")
        })
        .collect();
    (test, trains)
}

/// The error-vs-samples sweep behind Figures 2 and 3: for every training
/// size and every metric, fit S-OMP and C-BMF and emit one CSV row
/// `circuit,metric,samples_per_state,total_samples,somp_err_pct,cbmf_err_pct`.
///
/// # Panics
///
/// Panics on harness-level failures (invalid generated data).
pub fn figure_sweep<T: Testbench + Sync>(tb: &T, train_sizes: &[usize], seed: u64) {
    let (test_ds, train_ds) = collect_datasets(tb, 50, train_sizes, seed);
    let mut rng = cbmf_stats::seeded_rng(seed ^ 0x5eed);
    println!("circuit,metric,samples_per_state,total_samples,somp_err_pct,cbmf_err_pct");
    for metric in 0..tb.metric_names().len() {
        let test = problem_for_metric(&test_ds, metric);
        for (ds, &n) in train_ds.iter().zip(train_sizes) {
            let train = problem_for_metric(ds, metric);
            let somp = run_somp(&train, &test, &mut rng);
            let cbmf = run_cbmf(&train, &test, &mut rng);
            println!(
                "{},{},{},{},{:.4},{:.4}",
                tb.name(),
                tb.metric_names()[metric],
                n,
                n * tb.num_states(),
                somp.error_pct,
                cbmf.error_pct
            );
        }
    }
}

/// The cost/accuracy comparison behind Tables 1 and 2: S-OMP at
/// `somp_per_state` samples vs C-BMF at `cbmf_per_state`, reporting per-
/// metric errors, virtual simulation cost (hours), real fitting cost
/// (seconds) and the overall modeling cost.
///
/// # Panics
///
/// Panics on harness-level failures.
pub fn table_comparison<T: Testbench + Sync>(
    tb: &T,
    somp_per_state: usize,
    cbmf_per_state: usize,
    seed: u64,
) {
    let (test_ds, trains) = collect_datasets(tb, 50, &[somp_per_state, cbmf_per_state], seed);
    let mut rng = cbmf_stats::seeded_rng(seed ^ 0x7ab1e);
    let metric_names = tb.metric_names();

    let mut somp_errors = Vec::new();
    let mut cbmf_errors = Vec::new();
    let mut somp_fit = 0.0;
    let mut cbmf_fit = 0.0;
    for metric in 0..metric_names.len() {
        let test = problem_for_metric(&test_ds, metric);
        let somp = run_somp(&problem_for_metric(&trains[0], metric), &test, &mut rng);
        let cbmf = run_cbmf(&problem_for_metric(&trains[1], metric), &test, &mut rng);
        somp_fit += somp.fit_seconds;
        cbmf_fit += cbmf.fit_seconds;
        somp_errors.push(somp.error_pct);
        cbmf_errors.push(cbmf.error_pct);
    }
    let somp_sim = trains[0].cost;
    let cbmf_sim = trains[1].cost;

    println!("row,somp,cbmf");
    println!(
        "number_of_training_samples,{},{}",
        somp_sim.samples(),
        cbmf_sim.samples()
    );
    for (m, name) in metric_names.iter().enumerate() {
        println!(
            "modeling_error_{name}_pct,{:.3},{:.3}",
            somp_errors[m], cbmf_errors[m]
        );
    }
    println!(
        "simulation_cost_hours,{:.2},{:.2}",
        somp_sim.hours(),
        cbmf_sim.hours()
    );
    println!("fitting_cost_sec,{:.2},{:.2}", somp_fit, cbmf_fit);
    let somp_total = somp_sim.hours() + somp_fit / 3600.0;
    let cbmf_total = cbmf_sim.hours() + cbmf_fit / 3600.0;
    println!("overall_modeling_cost_hours,{somp_total:.2},{cbmf_total:.2}");
    println!("cost_reduction,1.00,{:.2}", somp_total / cbmf_total);
}
