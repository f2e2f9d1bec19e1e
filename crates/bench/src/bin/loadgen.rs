//! Closed-loop load generator: drives the serving suite of
//! [`cbmf_bench::serve`] against an in-process loopback
//! `cbmf_server::PredictionServer` and writes the canonical
//! `BENCH_serve.json` at the repository root (the report `ci_gate
//! --write-baseline serve` also writes). The `ci_gate` binary gates fresh
//! re-runs against the committed document.
//!
//! Run with `cargo run --release -p cbmf-bench --bin loadgen`.
//!
//! Flags:
//! * `--quick` — quick repetitions instead of the baseline count.
//! * `--artifact <path>` — serve a saved model artifact (it must carry
//!   posterior factors) instead of the synthetic GP workload; `.cbmf.json`
//!   or `.cbmf.bin`, sniffed from the magic bytes. Writes to `--out`
//!   (default `results/serve_artifact.json`), never the baseline.
//! * `--dir <path> --model <name>` — load every artifact in a directory
//!   into a [`cbmf_serve::ModelRegistry`] and drive the suite against the
//!   named model (the fleet-serving path: one registry, many circuits);
//!   writes to `--out` (default `results/serve_<name>.json`), never the
//!   baseline.
//! * `--paper-scale` — synthetic GP workload at the paper's d = 1300
//!   instead of the suite's d = 160; writes to `--out` (default
//!   `results/serve_paper.json`), never the baseline.
//! * `--out <path>` — output path override.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use cbmf_bench::kernels::{Calibration, BASELINE_REPS, QUICK_REPS};
use cbmf_bench::serve::{
    run_serve_suite_on, serving_gp_predictor, var_gain, ServeLoad, GP_ROWS_PER_STATE,
};
use cbmf_serve::{BatchPredictor, ModelArtifact, ModelRegistry};
use cbmf_trace::{Json, ReportMeta};

/// The paper's LNA variation dimensionality (Wang & Li, DAC 2016).
const PAPER_VARIABLES: usize = 1300;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let reps = if args.iter().any(|a| a == "--quick") {
        QUICK_REPS
    } else {
        BASELINE_REPS
    };
    let artifact_path = arg_value(&args, "--artifact").map(PathBuf::from);
    let model_dir = arg_value(&args, "--dir").map(PathBuf::from);
    let model_name = arg_value(&args, "--model");
    let paper_scale = args.iter().any(|a| a == "--paper-scale");
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../"));

    let load = ServeLoad::default();
    let (predictor, default_out, workload_note) = match (&model_dir, &artifact_path, paper_scale) {
        (Some(dir), _, _) => {
            // Fleet path: the whole directory goes through one registry,
            // then the named model is pulled off its lock-free read path.
            let name = model_name
                .as_deref()
                .expect("--dir requires --model <name>");
            let registry = ModelRegistry::new();
            let registered = registry.load_dir(dir).expect("load model directory");
            let predictor = registry.get(name).unwrap_or_else(|| {
                let names: Vec<_> = registered.iter().map(|(n, _)| n.as_str()).collect();
                panic!("model '{name}' not in {} (have: {names:?})", dir.display())
            });
            let note = format!(
                "registry {} ({} models), model {name}",
                dir.display(),
                registered.len()
            );
            (
                predictor,
                root.join(format!("results/serve_{name}.json")),
                Some(note),
            )
        }
        (None, Some(path), _) => {
            let artifact = ModelArtifact::load_auto(path).expect("load artifact");
            let predictor =
                Arc::new(BatchPredictor::from_artifact(&artifact).expect("artifact validates"));
            let note = format!("artifact {}", path.display());
            (
                predictor,
                root.join("results/serve_artifact.json"),
                Some(note),
            )
        }
        (None, None, true) => (
            serving_gp_predictor(PAPER_VARIABLES, GP_ROWS_PER_STATE),
            root.join("results/serve_paper.json"),
            Some(format!("synthetic paper-scale d={PAPER_VARIABLES}")),
        ),
        (None, None, false) => (
            serving_gp_predictor(cbmf_bench::predict::VARIABLES, GP_ROWS_PER_STATE),
            root.join("BENCH_serve.json"),
            None,
        ),
    };
    let out = arg_value(&args, "--out").map_or(default_out, PathBuf::from);

    println!(
        "closed-loop serving suite: d={}, {} posterior rows/state-equivalent, {reps} reps",
        predictor.model().num_variables(),
        GP_ROWS_PER_STATE,
    );
    let cal_before = Calibration::measure();
    let results = run_serve_suite_on(&predictor, reps, load, |r| {
        println!(
            "clients {:>3}   mean {:>9} ns/req (uncoalesced {:>9})   \
             var {:>9} ns/req (uncoalesced {:>9}, gain {:.2}x)",
            r.clients,
            r.mean_coalesced.1,
            r.mean_uncoalesced.1,
            r.var_coalesced.1,
            r.var_uncoalesced.1,
            var_gain(r),
        );
    });
    // Min of calibrations bracketing the suite, as in every other baseline.
    let calibration = cal_before.min_with(Calibration::measure());

    if let Some(note) = workload_note {
        // Off-baseline runs (artifact / registry / paper-scale) serve
        // something other than the workload rows describe.
        println!("served: {note}");
    }
    cbmf_bench::serve::report(&results, reps, load, calibration).save(&out);

    if cbmf_trace::enabled() {
        let meta = ReportMeta::new("loadgen")
            .with("reps", Json::Num(reps as f64))
            .with("calibration_ns", Json::Num(calibration.cache_ns as f64));
        let dir = root.join("results");
        let path = cbmf_trace::write_report(&dir, &meta).expect("write trace report");
        println!("wrote {}", path.display());
    }
}
