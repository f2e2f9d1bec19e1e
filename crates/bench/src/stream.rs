//! The streaming-vs-batch simulation-cost suite behind `BENCH_stream.json`
//! and the CI stream gate.
//!
//! The batch fitter consumes its whole Monte Carlo budget before solving a
//! single coefficient; the streaming engine ([`cbmf::StreamingFit`]) absorbs
//! the same virtual sample stream in chunks and stops pulling simulations
//! once the model has converged. This suite makes the saving
//! machine-checkable: for each of the four circuit examples it fits the
//! batch model at the full budget, then streams chunks of the *byte-identical*
//! sample stream (`McStream` shares the batch collector's seeding) until the
//! held-out error reaches the batch fit's accuracy, and reports the
//! simulations actually consumed next to the batch budget. The report
//! carries a savings `floor` — streaming must reach batch accuracy on at
//! least [`MIN_SAVED_CIRCUITS`] circuits with at least [`MIN_SAVED_PCT`]
//! percent fewer simulations — plus one `bitwise` row per circuit: a
//! full-budget one-chunk streaming fit reproduced the batch fit exactly.
//!
//! Every fit is seeded and bitwise deterministic at any thread count, so all
//! accuracy and sample-count cells are byte-stable: regenerating on any host
//! diffs clean except for the `host` and calibration fields. Wall-clock
//! chunk-refit times (the warm-start payoff) are printed to the nightly log
//! only, never written into the document.

use cbmf::{BasisSpec, FitOutcome, StreamConfig, StreamingFit};
use cbmf_circuits::{Lna, McStream, Mixer, MonteCarlo, SimCostModel, Testbench, Vco};

use crate::gate::{Report, Rule};
use crate::kernels::Calibration;

/// Circuit examples of the sweep, in report order (same roster as the
/// backends suite).
pub const CIRCUIT_NAMES: [&str; 4] = ["lna", "mixer", "vco", "yield"];

/// Monte Carlo samples per state the batch fit consumes. Sized so the
/// batch budget sits on the flat part of every circuit's learning curve —
/// that plateau is exactly what the streaming engine stops on.
pub const FULL_PER_STATE: usize = 28;

/// Samples per state of the first (cold-fit) chunk — the smallest training
/// set the full cross-validation sweep accepts.
pub const FIRST_PER_STATE: usize = 6;

/// Samples per state each later streamed chunk adds.
pub const CHUNK_PER_STATE: usize = 4;

/// Training-set growth factor forcing a cold hyper-parameter re-sweep
/// between warm refits (see [`cbmf::StreamConfig::resweep_growth`]).
pub const RESWEEP_GROWTH: f64 = 1.5;

/// Held-out samples per state used to score both fits.
pub const TEST_PER_STATE: usize = 20;

/// Relative slack on the batch error that defines the streaming target:
/// the stream has "reached batch accuracy" once its held-out error is at
/// most `batch_error · (1 + TARGET_REL_SLACK) + TARGET_ABS_SLACK`.
pub const TARGET_REL_SLACK: f64 = 0.05;

/// Absolute slack of the streaming target, in error-percent units (keeps
/// near-zero batch errors from demanding exact equality).
pub const TARGET_ABS_SLACK: f64 = 0.01;

/// Simulation-savings floor the gate enforces, in percent of the batch
/// budget.
pub const MIN_SAVED_PCT: f64 = 25.0;

/// Number of circuits that must clear [`MIN_SAVED_PCT`] while reaching the
/// batch target for the gate to pass.
pub const MIN_SAVED_CIRCUITS: usize = 3;

/// One circuit's streaming-vs-batch comparison.
#[derive(Debug, Clone)]
pub struct StreamCircuit {
    /// Circuit key, one of [`CIRCUIT_NAMES`].
    pub circuit: &'static str,
    /// The modeled performance metric's name.
    pub metric: &'static str,
    /// Batch held-out error at the full budget, in percent.
    pub batch_error_pct: f64,
    /// Batch support size.
    pub batch_support: usize,
    /// Batch training samples (full budget, summed over states).
    pub batch_samples: usize,
    /// Virtual simulation cost of the batch training set, in hours.
    pub batch_sim_hours: f64,
    /// Streaming held-out error when the stream stopped, in percent.
    pub stream_error_pct: f64,
    /// Streaming support size at the stop.
    pub stream_support: usize,
    /// Samples the stream actually consumed, summed over states.
    pub stream_samples: usize,
    /// Virtual simulation cost of the consumed stream, in hours.
    pub stream_sim_hours: f64,
    /// Chunks absorbed (chunk 0 = the cold fit).
    pub stream_chunks: usize,
    /// Whether the stream reached the batch-accuracy target before
    /// exhausting the full budget.
    pub reached_target: bool,
    /// Simulations saved vs the batch budget, in percent.
    pub saved_pct: f64,
    /// Whether a one-chunk full-budget streaming fit reproduced the batch
    /// fit bitwise (coefficients, intercepts, support).
    pub full_stream_bitwise: bool,
    /// Wall-clock seconds of each chunk's refit (cold chunk 0 first) — in
    /// the markdown table, never in the report.
    pub chunk_fit_seconds: Vec<f64>,
    /// Wall-clock seconds of the full-budget batch fit — table only.
    pub batch_fit_seconds: f64,
}

fn bitwise_equal(a: &FitOutcome, b: &FitOutcome) -> bool {
    a.model().support() == b.model().support()
        && a.model()
            .coefficients()
            .as_slice()
            .iter()
            .zip(b.model().coefficients().as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.model()
            .intercepts()
            .iter()
            .zip(b.model().intercepts())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs one circuit: batch fit at the full budget, then the streaming loop
/// over the byte-identical sample stream until the batch-accuracy target is
/// reached (or the budget is exhausted), then the one-chunk bitwise-parity
/// check.
fn sweep_circuit<T: Testbench + Sync>(
    circuit: &'static str,
    tb: &T,
    metric: usize,
    cost: SimCostModel,
    seed: u64,
) -> StreamCircuit {
    // Held-out set from its own seed lane, shared by both fits.
    let test_ds = MonteCarlo::new(TEST_PER_STATE)
        .collect(tb, &mut cbmf_stats::seeded_rng(seed))
        .expect("test collection");
    let test = crate::reduced_problem(&test_ds, metric);
    let kept_states = test_ds.states.len().min(6);

    // Batch fit at the full budget. The training stream's base seed comes
    // from a dedicated generator so the streaming path below can reproduce
    // the exact same virtual samples chunk by chunk.
    let train_ds = MonteCarlo::new(FULL_PER_STATE)
        .collect(tb, &mut cbmf_stats::seeded_rng(seed ^ 0x7EA1))
        .expect("train collection");
    let train = crate::reduced_problem(&train_ds, metric);
    let fitter = crate::reduced_cbmf();
    let batch = fitter
        .fit(&train, &mut cbmf_stats::seeded_rng(seed ^ 0xF17))
        .expect("batch fit");
    let batch_error_pct = 100.0 * batch.model().modeling_error(&test).expect("same shape");
    let batch_samples = FULL_PER_STATE * kept_states;
    let target = batch_error_pct * (1.0 + TARGET_REL_SLACK) + TARGET_ABS_SLACK;

    // Streaming: same base seed → chunks concatenate to the batch training
    // set byte for byte. The bench owns the stopping decision (reach the
    // batch target on the shared held-out set), so "sims to target" is a
    // deterministic, externally scored quantity; the engine's internal
    // prequential rule is disabled by an unreachable tolerance.
    let engine = StreamingFit::new(
        fitter.clone(),
        StreamConfig {
            rel_tol: 0.0,
            patience: usize::MAX,
            max_chunks: usize::MAX,
            full_budget: Some(batch_samples),
            resweep_growth: Some(RESWEEP_GROWTH),
        },
    );
    let mut mc = McStream::new(tb, &mut cbmf_stats::seeded_rng(seed ^ 0x7EA1));
    let mut session = engine.session(BasisSpec::Linear);
    let mut stream_error_pct = f64::INFINITY;
    let mut reached_target = false;
    let mut chunk = 0u64;
    while mc.collected_per_state() < FULL_PER_STATE {
        let next = if mc.collected_per_state() == 0 {
            FIRST_PER_STATE
        } else {
            CHUNK_PER_STATE
        };
        let take = next.min(FULL_PER_STATE - mc.collected_per_state());
        let ds = mc.next_chunk(take).expect("chunk collection");
        let (xs, ys) = crate::reduced_samples(&ds, metric);
        let outcome = session
            .absorb(&xs, &ys, &mut cbmf_stats::seeded_rng(seed ^ 0xC0DE ^ chunk))
            .expect("stream refit");
        stream_error_pct = 100.0 * outcome.model().modeling_error(&test).expect("same shape");
        chunk += 1;
        if stream_error_pct <= target {
            reached_target = true;
            break;
        }
    }
    let stream = session.finish().expect("at least one chunk absorbed");
    let stream_samples = stream.total_samples;
    let saved_pct = 100.0 * (batch_samples - stream_samples) as f64 / batch_samples as f64;

    // Bitwise parity: the whole budget as one chunk must reproduce the
    // batch fit exactly (same virtual samples, same fit seed).
    let mut mc_full = McStream::new(tb, &mut cbmf_stats::seeded_rng(seed ^ 0x7EA1));
    let full_ds = mc_full.next_chunk(FULL_PER_STATE).expect("full collection");
    let (xs, ys) = crate::reduced_samples(&full_ds, metric);
    let mut one_chunk = engine.session(BasisSpec::Linear);
    one_chunk
        .absorb(&xs, &ys, &mut cbmf_stats::seeded_rng(seed ^ 0xF17))
        .expect("one-chunk stream fit");
    let full_stream_bitwise = bitwise_equal(one_chunk.latest().expect("absorbed"), &batch);

    StreamCircuit {
        circuit,
        metric: tb.metric_names()[metric],
        batch_error_pct,
        batch_support: batch.model().support().len(),
        batch_samples,
        batch_sim_hours: cost.charge(batch_samples).hours(),
        stream_error_pct,
        stream_support: stream.outcome.model().support().len(),
        stream_samples,
        stream_sim_hours: cost.charge(stream_samples).hours(),
        stream_chunks: stream.chunks.len(),
        reached_target,
        saved_pct,
        full_stream_bitwise,
        chunk_fit_seconds: stream.chunks.iter().map(|c| c.fit_seconds).collect(),
        batch_fit_seconds: batch.fitting_seconds(),
    }
}

/// Runs the full suite: streaming vs batch on every circuit example.
///
/// # Panics
///
/// Panics on fitting or simulation failure — inputs are generated here and
/// must be valid, so a failure is a harness bug.
pub fn run_stream_suite() -> Vec<StreamCircuit> {
    let lna = Lna::new();
    let mixer = Mixer::new();
    let vco = Vco::new();
    // Same cost roster as the backends suite: the VCO has no
    // paper-calibrated per-sample cost, 30 s/sample is the documented
    // stand-in.
    let vco_cost = SimCostModel::new(30.0);
    vec![
        sweep_circuit("lna", &lna, 1, SimCostModel::lna_paper(), 3100),
        sweep_circuit("mixer", &mixer, 1, SimCostModel::mixer_paper(), 3101),
        sweep_circuit("vco", &vco, 0, vco_cost, 3102),
        // The yield-estimation example thresholds the LNA noise figure.
        sweep_circuit("yield", &lna, 0, SimCostModel::lna_paper(), 3103),
    ]
}

fn round6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// Id of the savings-floor row.
pub fn saving_floor_id() -> String {
    format!("circuits_saving_{MIN_SAVED_PCT}pct")
}

/// Renders suite results as a `stream` report: per circuit the batch and
/// stream errors (`drift`), support sizes and sample counts (`exact` — the
/// fits and the chunk schedule are deterministic) and the one-chunk parity
/// flag (`bitwise`), plus the savings `floor` over all circuits.
pub fn report(sweeps: &[StreamCircuit], calibration: Calibration) -> Report {
    let mut out = Report::new("stream", Some(calibration));
    let config = [
        ("first_per_state", FIRST_PER_STATE as f64, "count"),
        ("chunk_per_state", CHUNK_PER_STATE as f64, "count"),
        ("full_per_state", FULL_PER_STATE as f64, "count"),
        ("target_rel_slack", TARGET_REL_SLACK, "x"),
        ("target_abs_slack", TARGET_ABS_SLACK, "%"),
    ];
    for (id, v, unit) in config {
        out.info(id, v, unit);
    }
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    for s in sweeps {
        let c = s.circuit;
        for (path, err, support, samples, hours) in [
            (
                "batch",
                s.batch_error_pct,
                s.batch_support,
                s.batch_samples,
                s.batch_sim_hours,
            ),
            (
                "stream",
                s.stream_error_pct,
                s.stream_support,
                s.stream_samples,
                s.stream_sim_hours,
            ),
        ] {
            out.push(
                format!("{c}.{path}.error_pct"),
                round6(err),
                "%",
                Rule::Drift,
            );
            out.push(
                format!("{c}.{path}.support_size"),
                support as f64,
                "count",
                Rule::Exact,
            );
            out.push(
                format!("{c}.{path}.total_samples"),
                samples as f64,
                "count",
                Rule::Exact,
            );
            out.info(format!("{c}.{path}.sim_hours"), round6(hours), "h");
        }
        out.info(
            format!("{c}.stream.chunks"),
            s.stream_chunks as f64,
            "count",
        );
        out.info(
            format!("{c}.stream.reached_target"),
            flag(s.reached_target),
            "bool",
        );
        out.info(format!("{c}.stream.saved_pct"), round6(s.saved_pct), "%");
        out.push(
            format!("{c}.full_stream_bitwise"),
            flag(s.full_stream_bitwise),
            "bool",
            Rule::Bitwise,
        );
    }
    let saving = sweeps
        .iter()
        .filter(|s| s.reached_target && round6(s.saved_pct) >= MIN_SAVED_PCT)
        .count();
    out.push(saving_floor_id(), saving as f64, "count", Rule::Floor)
        .limit(MIN_SAVED_CIRCUITS as f64);
    out
}

/// Renders the streaming-vs-batch comparison as a markdown table (the
/// nightly job appends it to `$GITHUB_STEP_SUMMARY`).
pub fn markdown(sweeps: &[StreamCircuit]) -> String {
    let mut out = String::from("## Streaming vs batch simulation cost\n\n");
    out.push_str(
        "| circuit | metric | batch err % | stream err % | batch sims | stream sims \
         | saved % | chunks | bitwise | cold fit s | mean warm refit s | batch fit s |\n",
    );
    out.push_str(
        "|---------|--------|------------:|-------------:|-----------:|------------:\
         |--------:|-------:|:-------:|-----------:|------------------:|------------:|\n",
    );
    for s in sweeps {
        // Wall-clock warm-start payoff: table only, never in the report.
        let warm = &s.chunk_fit_seconds[1.min(s.chunk_fit_seconds.len())..];
        let mean_warm = warm.iter().sum::<f64>() / warm.len().max(1) as f64;
        out.push_str(&format!(
            "| {} | {} | {:.3} | {:.3} | {} | {} | {:.1} | {} | {} | {:.3} | {:.3} | {:.3} |\n",
            s.circuit,
            s.metric,
            s.batch_error_pct,
            s.stream_error_pct,
            s.batch_samples,
            s.stream_samples,
            s.saved_pct,
            s.stream_chunks,
            if s.full_stream_bitwise { "✅" } else { "❌" },
            s.chunk_fit_seconds.first().copied().unwrap_or(0.0),
            mean_warm,
            s.batch_fit_seconds,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{baseline_path, gate, DEFAULT_TOL};
    use crate::kernels::cal;

    fn toy_sweep(saved_pct: f64, reached: bool, bitwise: bool) -> StreamCircuit {
        StreamCircuit {
            circuit: "lna",
            metric: "vg_db",
            batch_error_pct: 1.25,
            batch_support: 8,
            batch_samples: 84,
            batch_sim_hours: 0.2,
            stream_error_pct: 1.3,
            stream_support: 8,
            stream_samples: (84.0 * (1.0 - saved_pct / 100.0)).round() as usize,
            stream_sim_hours: 0.12,
            stream_chunks: 5,
            reached_target: reached,
            saved_pct,
            full_stream_bitwise: bitwise,
            chunk_fit_seconds: vec![0.1; 5],
            batch_fit_seconds: 0.2,
        }
    }

    #[test]
    fn rendered_report_validates_and_round_trips() {
        let mixer = StreamCircuit {
            circuit: "mixer",
            ..toy_sweep(20.0, true, false)
        };
        let sweeps = [toy_sweep(40.0, true, true), mixer];
        let doc = report(&sweeps, cal(1000, 2000));
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
        assert_eq!(doc.value("lna.stream.saved_pct"), Some(40.0));
        assert_eq!(
            doc.value(&saving_floor_id()),
            Some(1.0),
            "only ≥25% savings count"
        );
        assert_eq!(doc.row(&saving_floor_id()).unwrap().limit, Some(3.0));
    }

    #[test]
    fn markdown_table_carries_the_headline_numbers() {
        let md = markdown(&[toy_sweep(40.0, true, true)]);
        assert!(md.contains("| lna | vg_db | 1.250 | 1.300 | 84 | 50 | 40.0 | 5 | ✅ |"));
    }

    #[test]
    fn validation_rejects_malformed_reports() {
        let text = report(&[toy_sweep(40.0, true, true)], cal(1000, 2000)).render();
        assert!(Report::parse(&text).is_ok());
        // The parity flag must name a known rule.
        let bad = text.replacen("\"rule\":\"bitwise\"", "\"rule\":\"bitwise_eq\"", 1);
        assert!(Report::parse(&bad)
            .unwrap_err()
            .contains("full_stream_bitwise"));
    }

    /// The committed baseline must parse, cover every circuit, be in
    /// canonical form, and pass the gate against itself — including the
    /// savings floor and bitwise parity. A failure means `BENCH_stream.json`
    /// needs regenerating via `ci_gate --write-baseline stream`.
    #[test]
    fn committed_stream_baseline_is_schema_stable_and_saves_sims() {
        let text = std::fs::read_to_string(baseline_path("stream")).unwrap();
        let doc = Report::parse(&text).unwrap();
        assert_eq!(doc.render(), text, "BENCH_stream.json is not canonical");
        for name in CIRCUIT_NAMES {
            let id = format!("{name}.full_stream_bitwise");
            assert_eq!(doc.value(&id), Some(1.0), "{id}");
        }
        let outcome = gate(&doc, &doc, DEFAULT_TOL).unwrap();
        assert!(
            outcome.passed(),
            "committed baseline violates the gate: {:?}",
            outcome.failures
        );
    }
}
