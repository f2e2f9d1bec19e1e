//! The accuracy smoke suite behind `BASELINE_accuracy.json` and the CI
//! accuracy gate.
//!
//! Two CI-speed fits with pinned seeds: a synthetic tunable problem with a
//! known sparse template, and a reduced-scale LNA gain model through the
//! full circuit substrate. Every stage — Monte Carlo collection, the
//! Algorithm-1 initializer, EM — is bitwise deterministic at any thread
//! count (see `tests/determinism.rs`), so on one toolchain the smoke
//! numbers are exactly reproducible and any drift the gate sees is a real
//! behavioral change.

use std::collections::BTreeMap;

use cbmf::{BasisSpec, CbmfConfig, CbmfFit, TunableProblem};
use cbmf_circuits::{Lna, MonteCarlo};
use cbmf_linalg::Matrix;
use cbmf_stats::{normal, seeded_rng};

use crate::gate::{Report, Rule};

/// The `recovery.*` counters pinned by the accuracy gate (`ceiling` rows).
/// On the baseline problems every one of them must stay zero: a jitter rescue or a ladder
/// fallback that starts firing silently is a numerical regression even when
/// the resulting error still passes the tolerance.
pub const RECOVERY_COUNTERS: [&str; 3] = [
    "recovery.jitter_retries",
    "recovery.fallback_fixed_r",
    "recovery.fallback_somp",
];

/// One smoke case's result.
#[derive(Debug, Clone)]
pub struct SmokeCase {
    /// Case name (stable across runs; the baseline is keyed on it).
    pub name: &'static str,
    /// Relative-RMS modeling error on the held-out set, in percent.
    pub error_pct: f64,
    /// Number of basis functions in the fitted support.
    pub support_size: usize,
}

/// Everything one smoke run produces: the per-case accuracy numbers plus
/// the [`RECOVERY_COUNTERS`] accumulated across all fits.
#[derive(Debug, Clone)]
pub struct SmokeOutcome {
    /// Per-case accuracy results.
    pub cases: Vec<SmokeCase>,
    /// Total `recovery.*` counts over the whole suite (one entry per
    /// [`RECOVERY_COUNTERS`] name, zero-filled).
    pub recovery: BTreeMap<&'static str, u64>,
}

/// The synthetic tunable problem of the smoke suite: K states sharing a
/// sparse template with smooth magnitude drift, plus noise.
fn synthetic(k: usize, n: usize, d: usize, noise: f64, seed: u64) -> TunableProblem {
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
    TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("well-formed synthetic")
}

/// A quick C-BMF config for CI-speed fits (mirrors the end-to-end tests).
fn quick_config() -> CbmfConfig {
    let mut cfg = CbmfConfig::small_problem();
    cfg.grid.theta = vec![8, 16];
    cfg.em.max_iters = 6;
    cfg
}

/// Runs the full smoke suite. Takes tens of seconds at most; every case is
/// deterministic for fixed seeds.
///
/// # Panics
///
/// Panics on fitting or simulation failure — the inputs are generated here
/// and must be valid, so a failure is a harness bug.
pub fn run_accuracy_smoke() -> SmokeOutcome {
    // Tracing must be live so the recovery counters record: span paths cost
    // nothing measurable at smoke scale, and the override is cleared below.
    cbmf_trace::set_enabled(true);
    cbmf_trace::reset();
    let mut cases = Vec::new();

    // Case 1: synthetic sparse-template recovery.
    {
        let train = synthetic(4, 14, 15, 0.1, 70);
        let test = synthetic(4, 60, 15, 0.0, 71);
        let mut rng = seeded_rng(1);
        let out = CbmfFit::new(CbmfConfig::small_problem())
            .fit(&train, &mut rng)
            .expect("synthetic fit");
        cases.push(SmokeCase {
            name: "synthetic_linear",
            error_pct: 100.0 * out.model().modeling_error(&test).expect("same shape"),
            support_size: out.model().support().len(),
        });
    }

    // Case 2: LNA voltage gain through the circuit substrate.
    {
        let lna = Lna::new();
        let mut rng = seeded_rng(930);
        let to_problem = |ds: &cbmf_circuits::TunableDataset| {
            let xs: Vec<_> = ds.states.iter().map(|s| s.x.clone()).collect();
            let ys: Vec<_> = ds.states.iter().map(|s| s.metric(1)).collect();
            TunableProblem::from_samples(&xs, &ys, BasisSpec::Linear).expect("valid dataset")
        };
        let test = to_problem(&MonteCarlo::new(20).collect(&lna, &mut rng).expect("mc"));
        let train = to_problem(&MonteCarlo::new(10).collect(&lna, &mut rng).expect("mc"));
        let out = CbmfFit::new(quick_config())
            .fit(&train, &mut rng)
            .expect("lna fit");
        cases.push(SmokeCase {
            name: "lna_gain",
            error_pct: 100.0 * out.model().modeling_error(&test).expect("same shape"),
            support_size: out.model().support().len(),
        });
    }

    let snap = cbmf_trace::snapshot();
    cbmf_trace::clear_enabled_override();
    let recovery = RECOVERY_COUNTERS
        .iter()
        .map(|&name| (name, snap.counters.get(name).copied().unwrap_or(0)))
        .collect();
    SmokeOutcome { cases, recovery }
}

/// Renders smoke results as an `accuracy` report: per case a `drift` error
/// row (6 decimals: stable under text round-trip, far finer than the
/// gate's tolerance) and an `exact` support-size row — the fits are
/// bitwise deterministic, so a support change is a real behavioral change
/// — plus a `ceiling` row per recovery counter. The fits take no timing,
/// so the report carries no calibration.
pub fn report(outcome: &SmokeOutcome) -> Report {
    let mut out = Report::new("accuracy", None);
    for c in &outcome.cases {
        let error = (c.error_pct * 1e6).round() / 1e6;
        out.push(format!("{}.error_pct", c.name), error, "%", Rule::Drift);
        out.push(
            format!("{}.support_size", c.name),
            c.support_size as f64,
            "count",
            Rule::Exact,
        );
    }
    for (&name, &count) in &outcome.recovery {
        out.push(name, count as f64, "count", Rule::Ceiling);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::baseline_path;

    fn outcome() -> SmokeOutcome {
        SmokeOutcome {
            cases: vec![
                SmokeCase {
                    name: "synthetic_linear",
                    error_pct: 2.3456789,
                    support_size: 8,
                },
                SmokeCase {
                    name: "lna_gain",
                    error_pct: 1.25,
                    support_size: 12,
                },
            ],
            recovery: RECOVERY_COUNTERS.iter().map(|&n| (n, 0)).collect(),
        }
    }

    #[test]
    fn rendered_report_validates_and_round_trips() {
        let doc = report(&outcome());
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
        let got = doc.value("synthetic_linear.error_pct").unwrap();
        assert!((got - 2.345679).abs() < 1e-12, "rounded to 6 decimals");
        for name in RECOVERY_COUNTERS {
            assert_eq!(doc.row(name).unwrap().rule, Rule::Ceiling);
        }
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let text = report(&outcome()).render();
        assert!(Report::parse(&text).is_ok());
        let non_numeric = text.replacen("\"value\":8}", "\"value\":\"8\"}", 1);
        assert!(Report::parse(&non_numeric).unwrap_err().contains("value"));
        let no_bench = text.replacen("\"bench\": \"accuracy\",\n", "", 1);
        assert!(Report::parse(&no_bench).unwrap_err().contains("bench"));
        let no_host = text.replacen("\"host\": {", "\"host\": [{", 1).replacen(
            "},\n  \"rows\"",
            "}],\n  \"rows\"",
            1,
        );
        assert!(Report::parse(&no_host).unwrap_err().contains("host"));
    }

    /// The committed baseline must parse, pin every recovery counter, and
    /// be in canonical form. A failure means `BASELINE_accuracy.json` needs
    /// regenerating via `cargo run --release -p cbmf-bench --bin ci_gate --
    /// --write-baseline accuracy`.
    #[test]
    fn committed_accuracy_baseline_is_schema_stable() {
        let text = std::fs::read_to_string(baseline_path("accuracy")).unwrap();
        let doc = Report::parse(&text).unwrap();
        for name in RECOVERY_COUNTERS {
            assert_eq!(doc.row(name).map(|r| r.rule), Some(Rule::Ceiling), "{name}");
        }
        assert_eq!(
            doc.render(),
            text,
            "BASELINE_accuracy.json is not canonical"
        );
    }
}
