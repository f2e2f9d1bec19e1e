//! Fits a reduced model for each of the four circuit examples (LNA gain,
//! LNA noise figure, mixer gain, VCO frequency) and saves them as binary
//! `cbmf-model/2` artifacts — with posterior factors — into one directory,
//! ready for [`cbmf_serve::ModelRegistry::load_dir`] / `serve_tcp --dir` /
//! `loadgen --dir --model <name>`.
//!
//! ```text
//! cargo run --release -p cbmf-bench --bin fit_fleet -- --out results/models
//! ```
//!
//! The fits are the CI-speed reductions of the `save_and_serve` example
//! (few Monte-Carlo samples, truncated states/variables, short EM), so the
//! fleet builds in seconds; the point is exercising the registry with four
//! genuinely different circuit models, not paper-scale accuracy.

use std::path::PathBuf;

use cbmf::{PosteriorPredictive, WarmStart};
use cbmf_circuits::{Lna, Mixer, MonteCarlo, Testbench, Vco};
use cbmf_serve::ModelArtifact;
use cbmf_stats::seeded_rng;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One reduced fit of `metric` on `circuit`, returned as an artifact with
/// posterior factors (the serving suites require the uncertainty path).
///
/// When a previous corner of the *same* circuit handed over a [`WarmStart`]
/// whose shape matches this problem, the (r0, σ0, θ) cross-validation sweep
/// is skipped and EM resumes from that corner's refined λ/R — the
/// `stream.warm_start_cv_skipped` counter records how many CV selection
/// runs that saved. A corner of a different circuit (state/basis counts differ)
/// stays on the cold path.
fn fit_one(
    circuit: &(impl Testbench + Sync),
    metric: usize,
    seed: u64,
    warm: Option<&WarmStart>,
) -> (ModelArtifact, Option<WarmStart>) {
    let mut rng = seeded_rng(seed);
    let ds = MonteCarlo::new(8)
        .collect(circuit, &mut rng)
        .expect("Monte Carlo collection");
    let problem = cbmf_bench::reduced_problem(&ds, metric);
    let fit = cbmf_bench::reduced_cbmf();
    let outcome = match warm.filter(|w| w.fits(&problem)) {
        Some(w) => fit
            .fit_warm(&problem, w, &mut rng)
            .expect("warm-started fit converges"),
        None => fit.fit(&problem, &mut rng).expect("reduced fit converges"),
    };
    let prior = outcome.prior().expect("full fit keeps its prior");
    let predictive = PosteriorPredictive::new(&problem, prior).expect("posterior factors");
    let artifact = ModelArtifact::from_fit(&outcome).with_predictive(&predictive);
    (artifact, WarmStart::from_outcome(&outcome))
}

fn main() {
    // Counters are off by default; the warm-start summary below needs them.
    cbmf_trace::set_enabled(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = PathBuf::from(arg_value(&args, "--out").unwrap_or_else(|| "results/models".into()));
    std::fs::create_dir_all(&out).expect("create model directory");

    let lna = Lna::new();
    let mixer = Mixer::new();
    let vco = Vco::new();
    // Corners chain warm starts where shapes allow: lna_nf reuses
    // lna_gain's hyper-parameter winner (same circuit), and the reduced
    // mixer/vco problems happen to share state/basis counts too. The
    // `fits()` guard inside `fit_one` keeps mismatched pairs on the cold
    // path, so the chain is safe for any circuit mix.
    let (lna_gain, lna_warm) = fit_one(&lna, 1, 4210, None);
    let (lna_nf, _) = fit_one(&lna, 0, 4211, lna_warm.as_ref());
    let (mixer_gain, mixer_warm) = fit_one(&mixer, 1, 4212, None);
    let (vco_freq, _) = fit_one(&vco, 0, 4213, mixer_warm.as_ref());
    let fleet: [(&str, ModelArtifact); 4] = [
        ("lna_gain", lna_gain),
        ("lna_nf", lna_nf),
        ("mixer_gain", mixer_gain),
        ("vco_freq", vco_freq),
    ];
    for (name, artifact) in &fleet {
        let path = out.join(format!("{name}.cbmf.bin"));
        artifact.save_binary(&path).expect("save binary artifact");
        println!(
            "fitted {name}: {} states, support {}, {} bytes -> {}",
            artifact.model().num_states(),
            artifact.model().support().len(),
            artifact.to_binary_bytes().len(),
            path.display()
        );
    }
    let snap = cbmf_trace::snapshot();
    let hits = snap.counters.get("stream.warm_start_hits").copied();
    let skipped = snap.counters.get("stream.warm_start_cv_skipped").copied();
    println!(
        "warm starts: {} corner(s) reused a sibling's hyper-parameters, skipping {} CV selection runs",
        hits.unwrap_or(0),
        skipped.unwrap_or(0)
    );
    println!("\nfleet of {} models in {}", fleet.len(), out.display());
}
