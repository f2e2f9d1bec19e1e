//! End-to-end benchmark of the C-BMF stack: fitting, publishing and serving
//! through the program's public library API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|small_stream --seed N --seconds S --trace 0|1
//! ```
//!
//! One run collects Monte Carlo data, fits, checks the outputs, publishes
//! the model(s) to a loopback server and serves `S` seconds of traffic.
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also turns the
//! program's own counters on). The exit code is nonzero when any output
//! check fails. See `README.md` for the workloads and metrics.

mod checks;
mod paper;
mod reference;
mod serving;
mod small_stream;
mod spans;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use serving::{serving_metrics, serving_reference, Published, ServeReport};
use spans::Spans;
use util::{peak_rss_mib, result_line, Metrics};

/// Worker threads the program may use on `small_stream`, at most this many
/// (and at most the host's cores), so runs on wider hosts stay comparable.
/// `paper` runs on one thread: on a 2-core host two threads did not shorten
/// its fit, and they made its peak memory depend on thread interleaving.
const MAX_THREADS: usize = 2;

/// The program counters read around every C-BMF fit call.
const FIT_COUNTERS: [&str; 10] = [
    "cbmf.init.selection_runs",
    "cbmf.greedy.steps",
    "cbmf.em.iterations",
    "cbmf.posterior.moment_solves",
    "linalg.product_macs",
    "linalg.cholesky.rhs_solves",
    "linalg.cholesky.factorizations",
    "linalg.cholesky.block_appends",
    "parallel.fork_joins",
    "parallel.inline_runs",
];

/// Command-line settings and the run's fixed context.
pub struct Ctx {
    /// Workload seed: every input is a pure function of it.
    pub seed: u64,
    /// Length of the serving phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Process start, the origin of `setup_s` and of the spans.
    pub origin: Instant,
    /// Scratch directory for this run's artifacts.
    pub dir: PathBuf,
}

impl Ctx {
    /// Runs `f` with the program's tracing switched off (the phase calls
    /// whose spans give the per-layer times).
    pub fn untraced<T>(&self, f: impl FnOnce() -> T) -> T {
        if !self.trace {
            return f();
        }
        cbmf_trace::set_enabled(false);
        let out = f();
        cbmf_trace::set_enabled(true);
        out
    }
}

fn counter_values() -> Vec<u64> {
    let snap = cbmf_trace::snapshot();
    FIT_COUNTERS
        .iter()
        .map(|n| snap.counters.get(n).copied().unwrap_or(0))
        .collect()
}

/// What a workload run produced.
pub struct RunOut {
    /// The benchmark's own spans.
    pub spans: Spans,
    /// End-to-end metrics recorded by the workload itself (serving).
    pub e2e: Metrics,
    /// Per-layer metrics recorded by the workload itself (probes).
    pub layers: Metrics,
    /// Operations attempted: fits and requests.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Output-check failures.
    pub errors: Vec<String>,
    /// Informational lines printed before the result.
    pub notes: Vec<String>,
    /// Seconds from process start to the end of set-up.
    pub setup_s: f64,
    /// C-BMF fit seconds, as the workload aggregates them.
    pub fit_s: f64,
    /// Simulations the C-BMF model(s) consumed.
    pub sims_used: f64,
    /// Held-out error of the C-BMF model(s), percent.
    pub model_error_pct: f64,
    /// Encoded artifact bytes.
    pub artifact_bytes: f64,
    /// Simulations the circuit layer ran (stream chunks included).
    pub simulations: f64,
    /// Cold re-sweeps the streams made.
    pub resweeps: f64,
    /// Seconds in stream absorbs whose refit ran cold / warm.
    pub absorb_s: (f64, f64),
    /// [`FIT_COUNTERS`] summed over the C-BMF fit calls.
    pub counters: Vec<u64>,
    rows_per_batch: f64,
}

impl RunOut {
    fn new(ctx: &Ctx) -> Self {
        RunOut {
            spans: Spans::new(ctx.origin),
            e2e: Metrics::default(),
            layers: Metrics::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            notes: Vec::new(),
            setup_s: 0.0,
            fit_s: 0.0,
            sims_used: 0.0,
            model_error_pct: 0.0,
            artifact_bytes: 0.0,
            simulations: 0.0,
            resweeps: 0.0,
            absorb_s: (0.0, 0.0),
            counters: vec![0; FIT_COUNTERS.len()],
            rows_per_batch: 0.0,
        }
    }

    /// Runs one C-BMF fit call inside span `name`, adding the program
    /// counters it moved to [`RunOut::counters`].
    pub fn fit<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let before = counter_values();
        let out = self.spans.run(name, |_| f());
        for (acc, (a, b)) in self
            .counters
            .iter_mut()
            .zip(counter_values().iter().zip(before))
        {
            *acc += a - b;
        }
        self.attempted += 1;
        out
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(why());
        }
    }

    /// Records an informational line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Takes over a finished serving phase.
    pub fn absorb_serving(&mut self, published: &Published, report: ServeReport) {
        self.attempted += (report.mean_us.len() + report.var_ms.len()) as u64;
        self.failed += report.failed;
        self.errors.extend(report.errors.iter().cloned());
        let (abs, rel, sds) = report.mean_gap;
        self.note(format!(
            "serving: {} mean + {} variance requests in {:.2} s; {} variance replies checked against the dense posterior; \
             largest variance-path vs MAP mean gap {abs:.3e} ({:.3e}%, {sds:.3} predictive sd)",
            report.mean_us.len(),
            report.var_ms.len(),
            report.elapsed_s,
            report.dense_checked,
            100.0 * rel,
        ));
        self.note(format!("serving reference: {}", serving_reference(&report)));
        let q = published.server.mean_queue_stats();
        self.rows_per_batch = q.submitted as f64 / q.batches.max(1) as f64;
        serving_metrics(&report, &mut self.e2e);
    }

    fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", "s", self.setup_s);
        m.put("fit_s", "s", self.fit_s);
        m.put("peak_rss_mib", "MiB", peak_rss_mib());
        m.put("model_error_pct", "%", self.model_error_pct);
        m.put("sims_used", "simulations", self.sims_used);
        for metric in &self.e2e.0 {
            m.0.push(metric.clone());
        }
        m
    }

    fn per_layer(&self) -> Metrics {
        let s = &self.spans;
        let mut m = Metrics::default();
        m.put("circuits.collect_s", "s", s.self_s("circuits.collect"));
        m.put("circuits.simulations", "count", self.simulations);
        m.put("dataset.build_s", "s", s.self_s("dataset.build"));
        m.put("dataset.append_s", "s", s.self_s("dataset.append"));
        m.put("init.s", "s", s.self_s("init"));
        m.put("em.s", "s", s.self_s("em"));
        m.put(
            "posterior.predictive_build_s",
            "s",
            s.self_s("posterior.predictive_build"),
        );
        m.put("somp.s", "s", s.self_s("somp"));
        m.put("stream.cold_absorb_s", "s", self.absorb_s.0);
        m.put("stream.warm_absorb_s", "s", self.absorb_s.1);
        m.put("stream.chunks", "count", s.count("stream.absorb") as f64);
        m.put("stream.resweeps", "count", self.resweeps);
        for (name, v) in FIT_COUNTERS.iter().zip(&self.counters) {
            m.put(name, "count", *v as f64);
        }
        m.put("artifact.bytes", "bytes", self.artifact_bytes);
        m.put("artifact.encode_s", "s", s.self_s("artifact.encode"));
        m.put("artifact.decode_s", "s", s.self_s("artifact.decode"));
        for metric in &self.layers.0 {
            m.0.push(metric.clone());
        }
        m.put("queue.mean_rows_per_batch", "rows", self.rows_per_batch);
        let snap = cbmf_trace::snapshot();
        let requests = snap.counters.get("server.requests").copied().unwrap_or(0);
        m.put("server.requests", "count", requests as f64);
        // The fit calls ran traced and the phase calls untraced on the same
        // problems and seeds, so the difference is the tracing cost.
        m.put(
            "trace.overhead_s",
            "s",
            s.total_s("fit") - s.total_s("init") - s.total_s("em"),
        );
        m
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench --workload paper|small_stream --seed N --seconds S --trace 0|1");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (run, threads): (fn(&Ctx) -> RunOut, usize) = match workload.as_str() {
        "paper" => (paper::run, 1),
        "small_stream" => (small_stream::run, cores.min(MAX_THREADS)),
        _ => return usage(),
    };

    // Pin the program's worker pool before anything reads it. Nothing else
    // runs yet, so setting the variable cannot race a reader.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    if trace {
        cbmf_trace::set_enabled(true);
    }

    let dir = PathBuf::from("perfbench")
        .join("out")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(3);
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        origin,
        dir,
    };
    let mut out = run(&ctx);
    if trace {
        // The circuit layer's own count must match the benchmark's.
        let counted = cbmf_trace::snapshot()
            .counters
            .get("circuits.montecarlo.simulations")
            .copied()
            .unwrap_or(0) as f64;
        let ours = out.simulations;
        out.check(counted == ours, || {
            format!("circuits counted {counted} simulations, the benchmark {ours}")
        });
    }

    println!(
        "workload {workload} seed {seed} threads {threads} (host cores {cores}) trace {trace}"
    );
    for line in &out.notes {
        println!("{line}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    if trace {
        let path = ctx.dir.with_extension("spans.jsonl");
        if let Err(e) = out.spans.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    // The run's artifacts are scratch; the span file (traced runs) stays.
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let metrics = if trace {
        out.per_layer()
    } else {
        out.end_to_end()
    };
    let correct = out.errors.is_empty();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
