//! The CI regression gate and baseline writer for every committed bench:
//! `kernels`, `predict`, `serve`, `artifact`, `accuracy`, `backends` and
//! `stream` (see [`cbmf_bench::gate`] for the report envelope and the rule
//! each row is judged by).
//!
//! ```text
//! cargo run --release -p cbmf-bench --bin ci_gate                          # gate all
//! cargo run --release -p cbmf-bench --bin ci_gate -- --only serve          # gate one
//! cargo run --release -p cbmf-bench --bin ci_gate -- --candidate run.json  # gate a saved run
//! cargo run --release -p cbmf-bench --bin ci_gate -- --write-baseline stream
//! ```
//!
//! Flags:
//! * `--tol <f64>` — relative tolerance of every rule (default 0.20).
//! * `--only <bench>` — run and gate just this bench.
//! * `--candidate <path>` — gate a pre-recorded report against the baseline
//!   its `bench` field names, once, instead of running fresh.
//! * `--write-baseline <bench>` — run the bench at baseline repetitions and
//!   overwrite its committed report; no gating. The `kernels` baseline also
//!   records the naive-kernel before/after, and `backends` / `stream` print
//!   their markdown tables.
//!
//! Fresh runs use the quick repetition count; a timed bench that fails is
//! re-run up to three times with [`Report::merge_min`], so scheduling noise
//! (which only adds time) is filtered while a genuine slowdown fails every
//! attempt. Fresh reports are saved under `target/ci-gate/` for artifact
//! upload, and when `$GITHUB_STEP_SUMMARY` is set the verdict table (or a
//! written baseline's markdown table) is appended to it.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cbmf_bench::artifact::{run_artifact_suite, ArtifactLoad};
use cbmf_bench::gate::{
    baseline_path, gate, render_step_summary, GateOutcome, Report, Rule, BENCHES, DEFAULT_TOL,
};
use cbmf_bench::kernels::{run_suite, Calibration, BASELINE_REPS, QUICK_REPS};
use cbmf_bench::serve::{run_serve_suite, ServeLoad};
use cbmf_bench::{artifact, backends, kernels, predict, serve, smoke, stream};

const MAX_ATTEMPTS: usize = 3;

fn arg(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    args.get(i + 1).cloned()
}

/// Runs one bench at `reps` repetitions; returns its report and, for the
/// sweeps, the markdown table of the run.
fn run(bench: &str, reps: usize, baseline: bool) -> (Report, Option<String>) {
    println!("{bench}: running ({reps} reps)...");
    if bench == "accuracy" {
        // Deterministic fits, no timing: no calibration either.
        return (smoke::report(&smoke::run_accuracy_smoke()), None);
    }
    let threads = cbmf_parallel::max_threads();
    let before = Calibration::measure();
    let (mut report, table) = match bench {
        "kernels" => {
            let results = run_suite(reps, threads, baseline);
            (kernels::report(&results, reps, before), None)
        }
        "predict" => {
            let results = predict::run_predict_suite(reps, threads);
            (predict::report(&results, reps, before), None)
        }
        "serve" => {
            let load = ServeLoad::default();
            let results = run_serve_suite(reps, load, |_| {});
            (serve::report(&results, reps, load, before), None)
        }
        "artifact" => {
            let load = ArtifactLoad::default();
            let result = run_artifact_suite(reps, load);
            (artifact::report(&result, reps, load, before), None)
        }
        "backends" => {
            let sweeps = backends::run_backends_suite();
            (
                backends::report(&sweeps, before),
                Some(backends::markdown(&sweeps)),
            )
        }
        "stream" => {
            let sweeps = stream::run_stream_suite();
            (
                stream::report(&sweeps, before),
                Some(stream::markdown(&sweeps)),
            )
        }
        other => panic!("unknown bench '{other}' (expected one of {BENCHES:?})"),
    };
    // Min of the probes bracketing the run: a single inflated probe would
    // skew every later comparison through the calibration ratio.
    if let Some(cal) = report.calibration {
        report.calibration = Some(cal.min_with(Calibration::measure()));
    }
    (report, table)
}

fn append_step_summary(text: &str) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    use std::io::Write;
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(text.as_bytes()));
    if let Err(e) = written {
        eprintln!("step summary {path}: {e}");
    }
}

/// Gates `bench` against its committed baseline: the given candidate once,
/// or fresh runs with retries.
fn gate_bench(
    bench: &str,
    candidate: Option<Report>,
    tol: f64,
    out_dir: &Path,
) -> Result<GateOutcome, String> {
    let baseline = Report::load(&baseline_path(bench))?;
    if let Some(candidate) = candidate {
        return gate(&baseline, &candidate, tol);
    }
    let mut merged: Option<Report> = None;
    for attempt in 1..=MAX_ATTEMPTS {
        let fresh = run(bench, QUICK_REPS, false).0;
        let report = match merged.as_mut() {
            Some(m) => {
                m.merge_min(&fresh);
                m
            }
            None => merged.insert(fresh),
        };
        report.save(&out_dir.join(format!("candidate_{bench}.json")));
        let outcome = gate(&baseline, report, tol)?;
        let timed = report.rows.iter().any(|r| r.rule == Rule::MinTime);
        if outcome.passed() || !timed || attempt == MAX_ATTEMPTS {
            return Ok(outcome);
        }
        println!(
            "{bench}: {} row(s) over threshold, retrying...",
            outcome.failures.len()
        );
    }
    unreachable!("the last attempt returns")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tol = arg(&args, "--tol")
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TOL);

    if let Some(bench) = arg(&args, "--write-baseline") {
        let (report, table) = run(&bench, BASELINE_REPS, true);
        for r in report.rows.iter().filter(|r| r.rule != Rule::Info) {
            println!("  {:48} {:>16} {}", r.id, r.value, r.unit);
        }
        report.save(&baseline_path(&bench));
        if let Some(table) = table {
            println!("\n{table}");
            append_step_summary(&table);
        }
        return ExitCode::SUCCESS;
    }

    let out_dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/ci-gate"));
    let mut jobs: Vec<(String, Option<Report>)> = Vec::new();
    if let Some(path) = arg(&args, "--candidate") {
        match Report::load(&PathBuf::from(path)) {
            Ok(c) => jobs.push((c.bench.clone(), Some(c))),
            Err(e) => {
                eprintln!("candidate: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(bench) = arg(&args, "--only") {
        jobs.push((bench, None));
    } else {
        jobs.extend(BENCHES.iter().map(|b| (b.to_string(), None)));
    }

    let mut all_passed = true;
    let mut summary: Vec<(String, GateOutcome)> = Vec::new();
    for (bench, candidate) in jobs {
        match gate_bench(&bench, candidate, tol, out_dir) {
            Ok(outcome) => {
                let verdict = if outcome.passed() { "PASS" } else { "FAIL" };
                println!("{bench}: {verdict} ({} comparisons)", outcome.rows.len());
                for f in &outcome.failures {
                    println!("  {f}");
                }
                all_passed &= outcome.passed();
                summary.push((bench, outcome));
            }
            Err(e) => {
                eprintln!("{bench}: {e}");
                all_passed = false;
            }
        }
    }
    let refs: Vec<(&str, &GateOutcome)> = summary.iter().map(|(b, o)| (b.as_str(), o)).collect();
    append_step_summary(&render_step_summary(&refs));

    if all_passed {
        println!("ci-gate: all gates passed");
        ExitCode::SUCCESS
    } else {
        println!("ci-gate: regression detected");
        ExitCode::FAILURE
    }
}
