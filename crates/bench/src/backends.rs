//! The backend accuracy-vs-simulation-cost suite behind
//! `BENCH_backends.json` and the CI backends gate.
//!
//! Every [`SparseSolver`] backend (C-BMF, S-OMP, plain OMP, and the
//! coordinate-descent elastic net) fits the same four reduced circuit
//! examples — LNA gain, mixer gain, VCO frequency, and the LNA noise-figure
//! metric behind the yield-estimation example — at several Monte Carlo
//! training budgets, and each cell reports the held-out modeling error next
//! to the virtual simulation cost ([`SimCostModel`]) of its training set.
//! This is the paper's central claim made machine-checkable: C-BMF must be
//! at least as accurate as every baseline at equal simulation budget — one
//! `dominates` row per circuit, budget and baseline backend.
//!
//! Every fit is seeded and bitwise deterministic at any thread count (the
//! repo-wide kernel contract, pinned by `tests/backends.rs`), so the
//! accuracy rows of `BENCH_backends.json` are byte-stable: regenerating on
//! any host diffs clean except for the `host` and calibration fields. No
//! wall-clock numbers appear in the rows for the same reason — fitting cost
//! is visible in the nightly log, while the document carries only the
//! virtual (deterministic) simulation cost.

use cbmf::{Backend, ElasticNet, ElasticNetConfig, Omp, OmpConfig, Somp, SompConfig, SparseSolver};
use cbmf_circuits::{Lna, Mixer, MonteCarlo, SimCostModel, Testbench, Vco};

use crate::gate::{Report, Rule};
use crate::kernels::Calibration;

/// Circuit examples of the sweep, in report order.
pub const CIRCUIT_NAMES: [&str; 4] = ["lna", "mixer", "vco", "yield"];

/// Training budgets swept, in Monte Carlo samples per tuning state.
pub const BUDGETS: [usize; 3] = [6, 10, 14];

/// Held-out samples per state used to score every backend.
pub const TEST_PER_STATE: usize = 20;

/// One backend's result at one circuit/budget cell.
#[derive(Debug, Clone)]
pub struct BackendCell {
    /// Stable backend identifier ([`SparseSolver::name`]).
    pub backend: &'static str,
    /// Relative-RMS modeling error on the held-out set, in percent.
    pub error_pct: f64,
    /// Number of basis functions in the fitted support.
    pub support_size: usize,
}

/// All backends' results at one training budget of one circuit.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    /// Monte Carlo training samples per tuning state.
    pub samples_per_state: usize,
    /// Total training samples across the kept states.
    pub total_samples: usize,
    /// Virtual simulation cost of the training set, in hours.
    pub sim_hours: f64,
    /// One cell per backend, in [`Backend::ALL`] order.
    pub cells: Vec<BackendCell>,
}

/// One circuit's full budget sweep.
#[derive(Debug, Clone)]
pub struct CircuitSweep {
    /// Circuit key, one of [`CIRCUIT_NAMES`].
    pub circuit: &'static str,
    /// The modeled performance metric's name.
    pub metric: &'static str,
    /// One row per entry of [`BUDGETS`].
    pub rows: Vec<BudgetRow>,
}

/// The CI-speed solver roster: every backend configured for the reduced
/// circuit problems (6 states × 40 variables), so the whole 4 × 4 × 3 sweep
/// finishes in well under a minute.
pub fn solver_for(backend: Backend) -> Box<dyn SparseSolver> {
    match backend {
        Backend::Cbmf => Box::new(crate::reduced_cbmf()),
        Backend::Somp => Box::new(Somp::new(SompConfig {
            theta_candidates: vec![4, 8, 12],
            cv_folds: 3,
        })),
        Backend::Omp => Box::new(Omp::new(OmpConfig {
            theta_candidates: vec![4, 8, 12],
            cv_folds: 3,
        })),
        Backend::ElasticNet => Box::new(ElasticNet::new(ElasticNetConfig {
            cv_folds: 3,
            ..ElasticNetConfig::default()
        })),
    }
}

/// Sweeps one circuit: held-out set first (so its draw is independent of
/// the training budgets), then one training set per budget from the same
/// stream, then every backend on every budget with a per-fit fixed seed.
fn sweep_circuit<T: Testbench + Sync>(
    circuit: &'static str,
    tb: &T,
    metric: usize,
    cost: SimCostModel,
    seed: u64,
) -> CircuitSweep {
    let mut rng = cbmf_stats::seeded_rng(seed);
    let test_ds = MonteCarlo::new(TEST_PER_STATE)
        .collect(tb, &mut rng)
        .expect("test collection");
    let test = crate::reduced_problem(&test_ds, metric);
    let kept_states = test_ds.states.len().min(6);

    let mut rows = Vec::new();
    for (bi, &n) in BUDGETS.iter().enumerate() {
        let train_ds = MonteCarlo::new(n)
            .collect(tb, &mut rng)
            .expect("train collection");
        let train = crate::reduced_problem(&train_ds, metric);
        let total_samples = n * kept_states;
        let sim_hours = cost.charge(total_samples).hours();
        let mut cells = Vec::new();
        for (si, backend) in Backend::ALL.into_iter().enumerate() {
            // A fresh generator per cell: no backend's draw depends on which
            // others ran before it, so cells are individually reproducible.
            let mut fit_rng = cbmf_stats::seeded_rng(seed ^ (0x9e37 + 64 * bi as u64 + si as u64));
            let out = solver_for(backend)
                .fit(&train, &mut fit_rng)
                .expect("backend fit");
            let error_pct = 100.0 * out.model().modeling_error(&test).expect("same shape");
            cells.push(BackendCell {
                backend: backend.name(),
                error_pct,
                support_size: out.model().support().len(),
            });
        }
        rows.push(BudgetRow {
            samples_per_state: n,
            total_samples,
            sim_hours,
            cells,
        });
    }
    CircuitSweep {
        circuit,
        metric: tb.metric_names()[metric],
        rows,
    }
}

/// Runs the full suite: every backend × every circuit × every budget.
///
/// # Panics
///
/// Panics on fitting or simulation failure — inputs are generated here and
/// must be valid, so a failure is a harness bug.
pub fn run_backends_suite() -> Vec<CircuitSweep> {
    let lna = Lna::new();
    let mixer = Mixer::new();
    let vco = Vco::new();
    // The VCO has no paper-calibrated per-sample cost (Tables 1–2 cover LNA
    // and mixer only); 30 s/sample is a documented stand-in between the two.
    let vco_cost = SimCostModel::new(30.0);
    vec![
        sweep_circuit("lna", &lna, 1, SimCostModel::lna_paper(), 2600),
        sweep_circuit("mixer", &mixer, 1, SimCostModel::mixer_paper(), 2601),
        sweep_circuit("vco", &vco, 0, vco_cost, 2602),
        // The yield-estimation example thresholds the LNA noise figure, so
        // its modeling target is the NF metric on the same testbench.
        sweep_circuit("yield", &lna, 0, SimCostModel::lna_paper(), 2603),
    ]
}

/// Key of one budget in row ids (zero-padded so ids sort in numeric
/// order).
pub fn budget_key(samples_per_state: usize) -> String {
    format!("budget_{samples_per_state:03}")
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Renders suite results as a `backends` report. Per circuit and budget:
/// the training-set size and virtual simulation hours (`info`), each
/// backend's error (`drift`, 6 decimals) and support size (`exact`), and
/// one `dominates` row per baseline backend whose value is C-BMF's error
/// and whose limit is that backend's.
pub fn report(sweeps: &[CircuitSweep], calibration: Calibration) -> Report {
    let mut out = Report::new("backends", Some(calibration));
    for s in sweeps {
        for r in &s.rows {
            let key = format!("{}.{}", s.circuit, budget_key(r.samples_per_state));
            out.info(
                format!("{key}.total_samples"),
                r.total_samples as f64,
                "count",
            );
            out.info(format!("{key}.sim_hours"), round6(r.sim_hours), "h");
            for c in &r.cells {
                let cell = format!("{key}.{}", c.backend);
                out.push(
                    format!("{cell}.error_pct"),
                    round6(c.error_pct),
                    "%",
                    Rule::Drift,
                );
                out.push(
                    format!("{cell}.support_size"),
                    c.support_size as f64,
                    "count",
                    Rule::Exact,
                );
            }
            let cbmf = r.cells.iter().find(|c| c.backend == Backend::Cbmf.name());
            let cbmf = round6(cbmf.expect("every budget fits C-BMF").error_pct);
            for c in r.cells.iter().filter(|c| c.backend != Backend::Cbmf.name()) {
                out.push(
                    format!("{key}.cbmf_vs_{}", c.backend),
                    cbmf,
                    "%",
                    Rule::Dominates,
                )
                .limit(round6(c.error_pct));
            }
        }
    }
    out
}

/// Renders the backend comparison as a markdown table (the nightly job
/// appends it to `$GITHUB_STEP_SUMMARY`; EXPERIMENTS.md embeds the same
/// table). One row per circuit/budget cell, one error column per backend.
pub fn markdown(sweeps: &[CircuitSweep]) -> String {
    let mut out = String::from("## Backend accuracy vs simulation cost\n\n");
    out.push_str("| circuit | metric | samples/state | sim hours |");
    for backend in Backend::ALL {
        out.push_str(&format!(" {} err % |", backend.name()));
    }
    out.push_str("\n|---------|--------|--------------:|----------:|");
    for _ in Backend::ALL {
        out.push_str("----------:|");
    }
    out.push('\n');
    for s in sweeps {
        for r in &s.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {:.3} |",
                s.circuit, s.metric, r.samples_per_state, r.sim_hours
            ));
            for c in &r.cells {
                out.push_str(&format!(" {:.3} |", c.error_pct));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{baseline_path, gate, DEFAULT_TOL};
    use crate::kernels::cal;

    fn toy_sweeps() -> Vec<CircuitSweep> {
        vec![CircuitSweep {
            circuit: "lna",
            metric: "vg_db",
            rows: vec![BudgetRow {
                samples_per_state: 6,
                total_samples: 36,
                sim_hours: 0.0874,
                cells: Backend::ALL
                    .into_iter()
                    .enumerate()
                    .map(|(i, b)| BackendCell {
                        backend: b.name(),
                        error_pct: 1.0 + i as f64 * 0.5,
                        support_size: 4 + i,
                    })
                    .collect(),
            }],
        }]
    }

    #[test]
    fn rendered_report_validates_and_round_trips() {
        let doc = report(&toy_sweeps(), cal(1000, 2000));
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
        assert_eq!(doc.value("lna.budget_006.elastic_net.error_pct"), Some(2.5));
        let dom = doc.row("lna.budget_006.cbmf_vs_elastic_net").unwrap();
        assert_eq!((dom.value, dom.limit), (1.0, Some(2.5)));
        assert!(doc.row("lna.budget_006.cbmf_vs_cbmf").is_none());
    }

    #[test]
    fn markdown_table_lists_every_backend_column() {
        let md = markdown(&toy_sweeps());
        for backend in Backend::ALL {
            assert!(md.contains(backend.name()), "missing {}", backend.name());
        }
        assert!(md.contains("| lna | vg_db | 6 | 0.087 |"));
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let text = report(&toy_sweeps(), cal(1000, 2000)).render();
        assert!(Report::parse(&text).is_ok());
        // A dominance claim without the number it must beat is incomplete.
        let no_limit = text.replacen("\"limit\":2.5,", "", 1);
        assert!(Report::parse(&no_limit)
            .unwrap_err()
            .contains("cbmf_vs_elastic_net"));
    }

    /// The committed baseline must parse, cover every circuit at every
    /// budget, be in canonical form, and pass the gate against itself —
    /// including C-BMF dominance. A failure means `BENCH_backends.json`
    /// needs regenerating via `ci_gate --write-baseline backends`.
    #[test]
    fn committed_backends_baseline_is_schema_stable_and_dominant() {
        let text = std::fs::read_to_string(baseline_path("backends")).unwrap();
        let doc = Report::parse(&text).unwrap();
        assert_eq!(doc.render(), text, "BENCH_backends.json is not canonical");
        for name in CIRCUIT_NAMES {
            for b in BUDGETS {
                for backend in Backend::ALL {
                    let id = format!("{name}.{}.{}.error_pct", budget_key(b), backend.name());
                    assert!(doc.row(&id).is_some(), "missing {id}");
                }
            }
        }
        let outcome = gate(&doc, &doc, DEFAULT_TOL).unwrap();
        assert!(
            outcome.passed(),
            "committed baseline violates the gate: {:?}",
            outcome.failures
        );
    }
}
