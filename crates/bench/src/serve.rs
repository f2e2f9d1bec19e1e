//! End-to-end serving benchmark: closed-loop clients against a loopback
//! [`cbmf_server::PredictionServer`], written to `BENCH_serve.json` at the
//! repository root.
//!
//! The suite times four combinations at each closed-loop concurrency in
//! [`CONCURRENCY`]: the mean path and the uncertainty path, each through a
//! **coalescing** server (the default dynamic-batching window:
//! [`COALESCED_MAX_BATCH`]-sample tiles, [`COALESCED_DEADLINE_US`] µs
//! deadline) and through an **uncoalesced** server (`max_batch = 1`, one
//! `predict_batch` call per request — the baseline dynamic batching must
//! beat). Reported statistics are wall-clock nanoseconds **per request**
//! (median and minimum over repetitions) plus the derived requests/second.
//!
//! The workload is the predict suite's synthetic serving model
//! ([`crate::predict::serving_model`], K = 8, d = 160) extended with
//! synthetic posterior factors over [`GP_ROWS_PER_STATE`] training rows per
//! state. That makes the Cholesky factor `L` a dense
//! 1024 × 1024 lower triangle (8 MB): every *un*coalesced uncertainty
//! request streams the whole factor through one single-RHS triangular
//! solve, while a coalesced tile shares one multi-RHS solve across every
//! member (see `PosteriorPredictive::predict_tile`). The committed
//! baseline's acceptance bar — uncertainty throughput at concurrency 64 at
//! least [`MIN_COALESCING_GAIN`]× the uncoalesced server's — is exactly
//! that amortization, so it holds on a single-core host where the
//! syscall-bound mean path shows no such headroom. The mean rows are still
//! recorded (and min-time gated) as the protocol-overhead baseline.
//!
//! As in the kernel and predict suites, the **minimum** per-request time
//! is the gated statistic and thresholds are scaled by the cache-resident
//! calibration ratio; the coalescing gain at the top concurrency is a
//! `floor` row of the same report.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use cbmf::{BasisSpec, PerStateModel, PosteriorPredictive, PredictiveParts};
use cbmf_linalg::Matrix;
use cbmf_serve::{BatchConfig, BatchPredictor, ModelArtifact};
use cbmf_server::{PredictClient, PredictionServer, ServerConfig};

use crate::gate::{Report, Rule};
use crate::kernels::Calibration;
use crate::predict::{STATES, SUPPORT, VARIABLES};

/// Closed-loop client counts the suite drives.
pub const CONCURRENCY: [usize; 3] = [1, 8, 64];

/// Synthetic posterior training rows per state: `8 × 128 = 1024` total
/// rows, so the factor `L` is 8 MB and single-request uncertainty queries
/// are solve-streaming-bound (see the module docs).
pub const GP_ROWS_PER_STATE: usize = 128;

/// The acceptance bar on the committed baseline: coalesced uncertainty
/// throughput at the top concurrency must be at least this multiple of the
/// uncoalesced server's.
pub const MIN_COALESCING_GAIN: f64 = 1.3;

/// Tile size of the coalescing server under test (the serving default).
pub const COALESCED_MAX_BATCH: usize = 64;

/// Deadline window of the coalescing server under test, microseconds.
pub const COALESCED_DEADLINE_US: u64 = 100;

/// Queue depth of both servers — deep enough that a closed-loop suite run
/// never trips the `Overloaded` backpressure path.
pub const SERVE_QUEUE_DEPTH: usize = 1024;

/// Request counts per client per repetition. Uncertainty requests are an
/// order of magnitude more expensive than mean requests (they stream the
/// 8 MB factor), so they get a smaller count.
#[derive(Debug, Clone, Copy)]
pub struct ServeLoad {
    /// Mean-path requests each client issues per repetition.
    pub mean_requests: usize,
    /// Uncertainty-path requests each client issues per repetition.
    pub var_requests: usize,
    /// Posterior training rows per state of the served model.
    pub rows_per_state: usize,
}

impl Default for ServeLoad {
    fn default() -> Self {
        ServeLoad {
            mean_requests: 64,
            var_requests: 8,
            rows_per_state: GP_ROWS_PER_STATE,
        }
    }
}

/// Per-request wall-clock `(median, min)` nanoseconds for one closed-loop
/// concurrency; the minimum is the gated statistic.
#[derive(Debug, Clone)]
pub struct ServeResult {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Mean path, coalescing server.
    pub mean_coalesced: (u128, u128),
    /// Mean path, `max_batch = 1` server.
    pub mean_uncoalesced: (u128, u128),
    /// Uncertainty path, coalescing server.
    pub var_coalesced: (u128, u128),
    /// Uncertainty path, `max_batch = 1` server.
    pub var_uncoalesced: (u128, u128),
    /// Achieved tile-size histogram of the coalescing server's uncertainty
    /// queue over this concurrency's repetitions: `var_fill[i]` counts
    /// dispatched tiles of `i + 1` samples.
    pub var_fill: Vec<u64>,
}

/// Builds the suite's GP-serving artifact: the synthetic mean model at
/// dimension `variables` plus synthetic posterior factors over
/// `rows_per_state` training rows per state. Deterministic formulas
/// throughout, so every run serves the identical workload. The artifact
/// suite (`crate::artifact`) times exactly this document's two encodings.
///
/// # Panics
///
/// Panics if the synthetic shapes are inconsistent — a bug in this
/// function, not a runtime condition.
pub fn serving_gp_artifact(variables: usize, rows_per_state: usize) -> ModelArtifact {
    let spec = BasisSpec::Linear;
    let m = spec.num_basis(variables);
    let support_len = SUPPORT.min(m);
    let stride = m / support_len;
    let support: Vec<usize> = (0..support_len).map(|i| i * stride).collect();
    let coeffs = Matrix::from_fn(STATES, support_len, |k, j| {
        ((k * 31 + j * 17) % 23) as f64 / 23.0 - 0.5
    });
    let intercepts = (0..STATES).map(|k| 20.0 + k as f64 * 0.25).collect();
    let model = PerStateModel::new(spec, variables, support, coeffs, intercepts)
        .expect("valid synthetic model");

    let total = STATES * rows_per_state;
    // Dense, well-conditioned lower triangle: unit-scale diagonal, small
    // off-diagonal fill, so triangular solves stream all total²/2 entries.
    let chol_l = Matrix::from_fn(total, total, |i, j| {
        if i == j {
            1.0 + 0.05 * (i % 17) as f64
        } else if j < i {
            0.01 * ((i * 3 + j) % 5) as f64
        } else {
            0.0
        }
    });
    let parts = PredictiveParts {
        chol_l,
        chol_jitter: 0.0,
        ciy: (0..total).map(|i| ((i as f64) * 0.37).cos()).collect(),
        bases: (0..STATES)
            .map(|k| {
                Matrix::from_fn(rows_per_state, m, |n, j| {
                    ((k * 5 + n * 2 + j * 3) % 31) as f64 / 31.0 - 0.5
                })
            })
            .collect(),
        basis_means: (0..STATES)
            .map(|k| (0..m).map(|j| 0.01 * ((k + j) % 7) as f64).collect())
            .collect(),
        y_means: (0..STATES).map(|k| 0.25 * k as f64).collect(),
        lambda: (0..m).map(|j| 0.5 + 0.001 * j as f64).collect(),
        r: Matrix::from_fn(STATES, STATES, |a, b| if a == b { 1.0 } else { 0.4 }),
        sigma0: 0.3,
        basis_spec: spec,
    };
    let predictive = PosteriorPredictive::from_parts(parts).expect("valid synthetic posterior");
    ModelArtifact::from_model(model).with_predictive(&predictive)
}

/// [`serving_gp_artifact`] validated into the suite's serving predictor.
///
/// # Panics
///
/// Panics if the synthetic artifact fails validation — a bug in
/// [`serving_gp_artifact`], not a runtime condition.
pub fn serving_gp_predictor(variables: usize, rows_per_state: usize) -> Arc<BatchPredictor> {
    let artifact = serving_gp_artifact(variables, rows_per_state);
    Arc::new(BatchPredictor::from_artifact(&artifact).expect("artifact round-trips"))
}

/// Deterministic query sample `i` in a `variables`-dimensional space.
fn bench_sample(variables: usize, i: usize) -> Vec<f64> {
    (0..variables)
        .map(|j| ((i * variables + j) % 37) as f64 / 37.0 - 0.5)
        .collect()
}

/// Drives `clients` closed-loop connections, `per_client` requests each,
/// and returns total wall-clock nanoseconds from the start barrier to the
/// last join. Requests only enter flight after every client has connected.
fn closed_loop(
    addr: std::net::SocketAddr,
    clients: usize,
    per_client: usize,
    variables: usize,
    uncertainty: bool,
) -> u128 {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = PredictClient::connect(addr).expect("connect loopback");
                barrier.wait();
                for r in 0..per_client {
                    let x = bench_sample(variables, c * 7919 + r);
                    if uncertainty {
                        client
                            .predict_with_uncertainty(&x)
                            .expect("uncertainty request");
                    } else {
                        client.predict(&x).expect("mean request");
                    }
                }
            })
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("client thread");
    }
    t0.elapsed().as_nanos()
}

fn median_min(samples: &mut [u128]) -> (u128, u128) {
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[0])
}

/// Runs the full closed-loop suite against `predictor` (which must carry
/// posterior factors), `reps` repetitions per combination. `report` is
/// called once per finished concurrency level.
///
/// # Panics
///
/// Panics if the predictor has no uncertainty path, a server fails to
/// bind on loopback, or a request fails — all harness-level conditions.
pub fn run_serve_suite_on(
    predictor: &Arc<BatchPredictor>,
    reps: usize,
    load: ServeLoad,
    mut report: impl FnMut(&ServeResult),
) -> Vec<ServeResult> {
    assert!(
        predictor.has_uncertainty(),
        "serve suite needs posterior factors (the uncertainty rows are the point)"
    );
    let variables = predictor.model().num_variables();
    let mut results = Vec::with_capacity(CONCURRENCY.len());
    for clients in CONCURRENCY {
        let bind = |max_batch: usize| {
            let batch = BatchConfig::from_env()
                .with_max_batch(max_batch)
                .with_deadline(std::time::Duration::from_micros(COALESCED_DEADLINE_US))
                .with_queue_depth(SERVE_QUEUE_DEPTH);
            let config = ServerConfig {
                batch,
                ..ServerConfig::default()
            };
            PredictionServer::bind("127.0.0.1:0", Arc::clone(predictor), config)
                .expect("bind loopback server")
        };
        // The coalescing window under test, and the `max_batch = 1`
        // baseline: one `predict_batch` call per request.
        let (coalesced, uncoalesced) = (bind(COALESCED_MAX_BATCH), bind(1));

        let mut times = [const { Vec::new() }; 4]; // [mean_co, mean_un, var_co, var_un]
        for _ in 0..reps {
            let combos = [
                (coalesced.local_addr(), load.mean_requests, false),
                (uncoalesced.local_addr(), load.mean_requests, false),
                (coalesced.local_addr(), load.var_requests, true),
                (uncoalesced.local_addr(), load.var_requests, true),
            ];
            for (slot, (addr, per_client, uncertainty)) in combos.into_iter().enumerate() {
                let wall = closed_loop(addr, clients, per_client, variables, uncertainty);
                let requests = (clients * per_client) as u128;
                times[slot].push((wall / requests).max(1));
            }
        }
        let [mean_coalesced, mean_uncoalesced, var_coalesced, var_uncoalesced] =
            times.map(|mut t| median_min(&mut t));
        let r = ServeResult {
            clients,
            mean_coalesced,
            mean_uncoalesced,
            var_coalesced,
            var_uncoalesced,
            var_fill: coalesced
                .var_queue_stats()
                .expect("uncertainty queue exists")
                .fill,
        };
        report(&r);
        results.push(r);
    }
    results
}

/// [`run_serve_suite_on`] against the default synthetic GP workload.
pub fn run_serve_suite(
    reps: usize,
    load: ServeLoad,
    report: impl FnMut(&ServeResult),
) -> Vec<ServeResult> {
    let predictor = serving_gp_predictor(VARIABLES, load.rows_per_state);
    run_serve_suite_on(&predictor, reps, load, report)
}

/// Key of one concurrency entry in the report (zero-padded for numeric
/// sorted-key order).
pub fn clients_key(clients: usize) -> String {
    format!("clients_{clients:04}")
}

/// The coalescing gain a result demonstrates on the uncertainty path: the
/// throughput ratio of the coalescing server over the `max_batch = 1`
/// server, by minimum per-request time.
pub fn var_gain(r: &ServeResult) -> f64 {
    r.var_uncoalesced.1 as f64 / r.var_coalesced.1.max(1) as f64
}

/// Renders suite results as a `serve` report. The uncertainty-path
/// coalescing gain is a `floor` row at the top concurrency and `info`
/// elsewhere; the achieved tile-size histogram of the top concurrency is
/// recorded as one `batch_fill.NN` row per nonzero bucket (tiles of NN
/// samples).
pub fn report(
    results: &[ServeResult],
    reps: usize,
    load: ServeLoad,
    calibration: Calibration,
) -> Report {
    let mut out = Report::new("serve", Some(calibration));
    out.info("reps", reps as f64, "count");
    let config = [
        ("serve.deadline_us", COALESCED_DEADLINE_US as usize),
        ("serve.max_batch", COALESCED_MAX_BATCH),
        ("serve.queue_depth", SERVE_QUEUE_DEPTH),
        ("workload.mean_requests_per_client", load.mean_requests),
        ("workload.rows_per_state", load.rows_per_state),
        ("workload.states", STATES),
        ("workload.support", SUPPORT),
        ("workload.var_requests_per_client", load.var_requests),
        ("workload.variables", VARIABLES),
    ];
    for (id, v) in config {
        out.info(id, v as f64, "count");
    }
    let top = CONCURRENCY[CONCURRENCY.len() - 1];
    for r in results {
        let key = clients_key(r.clients);
        out.timing(&format!("{key}.mean_coalesced"), r.mean_coalesced);
        out.timing(&format!("{key}.mean_uncoalesced"), r.mean_uncoalesced);
        out.timing(&format!("{key}.var_coalesced"), r.var_coalesced);
        out.timing(&format!("{key}.var_uncoalesced"), r.var_uncoalesced);
        let gain = format!("{key}.var_coalescing_gain");
        if r.clients == top {
            out.push(gain, var_gain(r), "x", Rule::Floor)
                .limit(MIN_COALESCING_GAIN);
            for (i, &n) in r.var_fill.iter().enumerate().filter(|(_, &n)| n > 0) {
                out.info(format!("batch_fill.{:02}", i + 1), n as f64, "count");
            }
        } else {
            out.info(gain, var_gain(r), "x");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::baseline_path;
    use crate::kernels::cal;

    fn tiny_load() -> ServeLoad {
        ServeLoad {
            mean_requests: 4,
            var_requests: 2,
            rows_per_state: 8,
        }
    }

    fn mk(clients: usize, co: u128, un: u128) -> ServeResult {
        ServeResult {
            clients,
            mean_coalesced: (co, co),
            mean_uncoalesced: (un, un),
            var_coalesced: (co * 10, co * 10),
            var_uncoalesced: (un * 10, un * 10),
            var_fill: vec![1, 0, 2, 0],
        }
    }

    #[test]
    fn suite_covers_every_concurrency_and_validates() {
        let results = run_serve_suite(1, tiny_load(), |_| {});
        assert_eq!(results.len(), CONCURRENCY.len());
        for (r, &c) in results.iter().zip(&CONCURRENCY) {
            assert_eq!(r.clients, c);
            assert!(r.mean_coalesced.1 >= 1 && r.var_coalesced.1 >= 1);
            assert!(r.mean_coalesced.1 <= r.mean_coalesced.0);
        }
        // Every dispatched tile is accounted for in the fill histogram.
        let top = results.last().unwrap();
        assert!(top.var_fill.iter().sum::<u64>() > 0);
        let doc = report(&results, 1, tiny_load(), cal(12345, 67890));
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
    }

    #[test]
    fn merge_min_takes_elementwise_minimum() {
        let mut acc = report(&[mk(64, 100, 200)], 1, tiny_load(), cal(1, 1));
        let rerun = report(&[mk(64, 80, 250)], 1, tiny_load(), cal(1, 1));
        acc.merge_min(&rerun);
        assert_eq!(acc.value("clients_0064.mean_coalesced_min_ns"), Some(80.0));
        assert_eq!(
            acc.value("clients_0064.mean_uncoalesced_min_ns"),
            Some(200.0)
        );
        // The floor keeps the best gain either run demonstrated; info rows
        // keep the first run's value.
        assert_eq!(acc.value("batch_fill.01"), Some(1.0));
        assert_eq!(
            acc.value("clients_0064.var_coalescing_gain"),
            Some(2500.0 / 800.0)
        );
    }

    #[test]
    fn render_derives_rps_and_gain_from_minima() {
        let doc = report(
            &[mk(8, 100, 200), mk(64, 100, 260)],
            3,
            tiny_load(),
            cal(100, 200),
        );
        let gain = doc.row("clients_0064.var_coalescing_gain").unwrap();
        assert_eq!(
            (gain.value, gain.rule, gain.limit),
            (2.6, Rule::Floor, Some(1.3))
        );
        let info = doc.row("clients_0008.var_coalescing_gain").unwrap();
        assert_eq!(info.rule, Rule::Info);
        // Nonzero histogram buckets only, keyed by tile size.
        assert_eq!(doc.value("batch_fill.01"), Some(1.0));
        assert_eq!(doc.value("batch_fill.03"), Some(2.0));
        assert!(doc.row("batch_fill.02").is_none());
    }

    #[test]
    fn validate_rejects_malformed_reports() {
        let text = report(&[mk(64, 10, 20)], 1, tiny_load(), cal(100, 200)).render();
        assert!(Report::parse(&text).is_ok());
        // A floor without its limit cannot be judged.
        let no_limit = text.replacen("\"limit\":1.3,", "", 1);
        assert!(Report::parse(&no_limit).unwrap_err().contains("limit"));
        let mut empty = report(&[], 1, tiny_load(), cal(100, 200));
        empty.rows.clear();
        assert!(Report::parse(&empty.render()).unwrap_err().contains("rows"));
    }

    /// The committed baseline must parse, cover the exact concurrency
    /// levels this suite runs, and be in canonical form. A failure here
    /// means `BENCH_serve.json` needs regenerating via `cargo run --release
    /// -p cbmf-bench --bin loadgen`.
    #[test]
    fn committed_serve_baseline_is_schema_stable() {
        let text = std::fs::read_to_string(baseline_path("serve")).unwrap();
        let doc = Report::parse(&text).unwrap();
        for c in CONCURRENCY {
            let id = format!("{}.var_coalesced_min_ns", clients_key(c));
            assert!(doc.row(&id).is_some(), "baseline lacks {id}");
        }
        assert_eq!(doc.render(), text, "BENCH_serve.json is not canonical");
    }

    /// The acceptance evidence for dynamic batching lives in the committed
    /// baseline: at closed-loop concurrency 64 the coalescing server's
    /// uncertainty throughput must be at least [`MIN_COALESCING_GAIN`]×
    /// the `max_batch = 1` server's, measured in the same document.
    #[test]
    fn committed_baseline_coalescing_gain_at_64_clients() {
        let doc = Report::load(&baseline_path("serve")).unwrap();
        let co = doc.value("clients_0064.var_coalesced_min_ns").unwrap();
        let un = doc.value("clients_0064.var_uncoalesced_min_ns").unwrap();
        let gain = doc.row("clients_0064.var_coalescing_gain").unwrap();
        assert_eq!(gain.value, un / co);
        assert_eq!(gain.limit, Some(MIN_COALESCING_GAIN));
        assert!(
            un >= MIN_COALESCING_GAIN * co,
            "clients_0064: coalesced {co} ns/request is not ≥{MIN_COALESCING_GAIN}x \
             faster than uncoalesced {un} ns/request"
        );
    }
}
