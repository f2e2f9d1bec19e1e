//! Publishing fitted models and serving them over loopback: shared by both
//! workloads.
//!
//! Publishing is what a user does between a finished fit and the first
//! answered request: build the posterior predictive, encode a
//! `cbmf-model/2` artifact, load it through a `ModelRegistry`, and bind a
//! `PredictionServer`. Serving is closed loop with two client threads at
//! once, one sending only mean requests and one only variance requests, so
//! a change that helps one kind by starving the other shows.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbmf::{FitOutcome, PosteriorPredictive, TunableProblem};
use cbmf_linalg::Matrix;
use cbmf_serve::{BatchConfig, BatchPredictor, BatchQueue, ModelArtifact, ModelRegistry};
use cbmf_server::protocol::{
    encode_request, encode_response, read_request, read_response, Request, RequestKind, Response,
};
use cbmf_server::{PredictClient, PredictionServer, ServerConfig};

use crate::checks::{check_dense_agreement, check_mean_response, check_variance_bounds, RefModel};
use crate::reference::DensePosterior;
use crate::spans::Spans;
use crate::util::{median_call_s, quantile, rows, Metrics, Picker};

/// One model to publish: its fit, the problem it was fitted on, and the
/// raw per-state training inputs and responses for the dense reference.
pub struct Fitted<'a> {
    /// Registry name.
    pub name: String,
    /// The fit to serve.
    pub outcome: &'a FitOutcome,
    /// The training problem (for the posterior predictive).
    pub problem: &'a TunableProblem,
    /// Raw per-state training inputs, one row per sample.
    pub xs: Vec<Vec<Vec<f64>>>,
    /// Raw per-state training responses.
    pub ys: Vec<Vec<f64>>,
}

/// A published model: its registry id and the benchmark's reference copy.
pub struct Served {
    /// Registry id requests are routed by.
    pub id: u32,
    /// Mean path and prior, from the fit outcome (not from the artifact).
    pub reference: RefModel,
    xs: Vec<Vec<Vec<f64>>>,
    ys: Vec<Vec<f64>>,
}

/// The running server and what it serves.
pub struct Published {
    /// Loopback server over the registry.
    pub server: PredictionServer,
    /// The registry the server reads.
    pub registry: Arc<ModelRegistry>,
    /// Published models, in request-picking order.
    pub models: Vec<Served>,
    /// Encoded artifact bytes, summed over models.
    pub artifact_bytes: usize,
}

/// Publishes every fit into one registry under `dir` and binds a loopback
/// server over it. Spans: `publish` with children
/// `posterior.predictive_build`, `artifact.encode`, `artifact.decode`
/// (registry load, validation and predictor build) and `server.bind`.
///
/// # Panics
///
/// Panics when a step fails; the benchmark treats that as a broken run.
pub fn publish(spans: &mut Spans, fits: &[Fitted<'_>], dir: &Path) -> Published {
    spans.run("publish", |spans| {
        let registry = Arc::new(ModelRegistry::new());
        let mut models = Vec::new();
        let mut artifact_bytes = 0;
        for fit in fits {
            let prior = fit.outcome.prior().expect("full C-BMF fit carries a prior");
            let predictive = spans.run("posterior.predictive_build", |_| {
                PosteriorPredictive::new(fit.problem, prior).expect("posterior predictive")
            });
            let bytes = spans.run("artifact.encode", |_| {
                ModelArtifact::from_fit(fit.outcome)
                    .with_predictive(&predictive)
                    .to_binary_bytes()
            });
            drop(predictive);
            artifact_bytes += bytes.len();
            let path = dir.join(format!("{}.cbmf.bin", fit.name));
            std::fs::write(&path, &bytes).expect("write artifact");
            drop(bytes);
            let id = spans.run("artifact.decode", |_| {
                registry
                    .register_file(&fit.name, &path)
                    .expect("registry loads the artifact")
            });
            let model = fit.outcome.model();
            let k = model.num_states();
            models.push(Served {
                id,
                reference: RefModel {
                    support: model.support().to_vec(),
                    coeffs: (0..k)
                        .map(|s| model.coefficients().row(s).to_vec())
                        .collect(),
                    intercepts: model.intercepts().to_vec(),
                    lambda: prior.lambda().to_vec(),
                    r: rows(prior.r()),
                    sigma0: prior.sigma0(),
                    x_means: fit
                        .xs
                        .iter()
                        .map(|rows| {
                            let n = rows.len() as f64;
                            (0..rows[0].len())
                                .map(|j| rows.iter().map(|r| r[j]).sum::<f64>() / n)
                                .collect()
                        })
                        .collect(),
                },
                xs: fit.xs.clone(),
                ys: fit.ys.clone(),
            });
        }
        let server = spans.run("server.bind", |_| {
            PredictionServer::bind_registry(
                "127.0.0.1:0",
                Arc::clone(&registry),
                ServerConfig::default(),
            )
            .expect("bind loopback server")
        });
        Published {
            server,
            registry,
            models,
            artifact_bytes,
        }
    })
}

/// What the serving phase measured and found.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Mean-request latencies, µs.
    pub mean_us: Vec<f64>,
    /// Variance-request latencies, ms.
    pub var_ms: Vec<f64>,
    /// Wall time from the first request to the last reply, s.
    pub elapsed_s: f64,
    /// Requests that returned an error.
    pub failed: u64,
    /// Output-check failures (first few).
    pub errors: Vec<String>,
    /// Largest gap between the variance path's mean and the MAP mean:
    /// absolute, relative, and in predictive standard deviations.
    pub mean_gap: (f64, f64, f64),
    /// Variance responses compared with the dense posterior.
    pub dense_checked: usize,
}

struct VarSample {
    model: usize,
    input: usize,
    means: Vec<f64>,
    vars: Vec<f64>,
}

fn note(errors: &mut Vec<String>, e: String) {
    if errors.len() < 8 {
        errors.push(e);
    }
}

/// Serves `seconds` of closed-loop traffic: one client thread sends mean
/// requests, another variance requests, each to a model and to one of that
/// model's inputs (`inputs[model]`) picked from `seed`. Every mean reply is checked against the linear-basis
/// reference and every variance against its prior bound; up to
/// `dense_samples` variance replies are then checked against the dense
/// observation-space posterior.
pub fn serve(
    published: &Published,
    inputs: &[Vec<Vec<f64>>],
    seconds: f64,
    seed: u64,
    dense_samples: usize,
) -> ServeReport {
    let addr = published.server.local_addr();
    let models = &published.models;
    let connect = || -> Vec<PredictClient> {
        models
            .iter()
            .map(|m| {
                PredictClient::connect(addr)
                    .expect("connect to loopback server")
                    .with_model_id(m.id)
            })
            .collect()
    };
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (mean_side, var_side) = std::thread::scope(|scope| {
        let mean = scope.spawn(|| {
            let mut clients = connect();
            let mut pick = Picker::new(seed ^ 0x3EA1);
            let (mut lat, mut failed, mut errors) = (Vec::new(), 0u64, Vec::new());
            while Instant::now() < deadline {
                let m = pick.below(models.len());
                let x = &inputs[m][pick.below(inputs[m].len())];
                let t = Instant::now();
                let reply = clients[m].predict(x);
                lat.push(t.elapsed().as_secs_f64() * 1e6);
                match reply {
                    Ok(means) => {
                        if let Err(e) = check_mean_response(&models[m].reference, x, &means) {
                            note(&mut errors, e);
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        note(&mut errors, format!("mean request failed: {e}"));
                    }
                }
            }
            (lat, failed, errors)
        });
        let var = scope.spawn(|| {
            let mut clients = connect();
            let mut pick = Picker::new(seed ^ 0x7A51);
            let (mut lat, mut failed, mut errors) = (Vec::new(), 0u64, Vec::new());
            let mut samples = Vec::new();
            let mut gap = (0.0f64, 0.0f64, 0.0f64);
            while Instant::now() < deadline {
                let m = pick.below(models.len());
                let i = pick.below(inputs[m].len());
                let x = &inputs[m][i];
                let t = Instant::now();
                let reply = clients[m].predict_with_uncertainty(x);
                lat.push(t.elapsed().as_secs_f64() * 1e3);
                match reply {
                    Ok((means, vars)) => {
                        let reference = &models[m].reference;
                        if let Err(e) = check_variance_bounds(&reference.var_bounds(x), &vars) {
                            note(&mut errors, e);
                        }
                        for ((mean, var), (map, _)) in
                            means.iter().zip(&vars).zip(reference.means(x))
                        {
                            let d = (mean - map).abs();
                            gap.0 = gap.0.max(d);
                            gap.1 = gap.1.max(d / map.abs());
                            gap.2 = gap.2.max(d / var.sqrt());
                        }
                        if lat.len() % 16 == 1 && samples.len() < dense_samples {
                            samples.push(VarSample {
                                model: m,
                                input: i,
                                means,
                                vars,
                            });
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        note(&mut errors, format!("variance request failed: {e}"));
                    }
                }
            }
            (lat, failed, errors, samples, gap)
        });
        (
            mean.join().expect("mean client thread"),
            var.join().expect("variance client thread"),
        )
    });
    let elapsed_s = t0.elapsed().as_secs_f64();
    let (mean_us, mean_failed, mut errors) = mean_side;
    let (var_ms, var_failed, var_errors, samples, mean_gap) = var_side;
    errors.extend(var_errors);

    // Dense observation-space reference for the sampled variance replies.
    let mut dense: Vec<Option<DensePosterior>> = models.iter().map(|_| None).collect();
    for s in &samples {
        let served = &models[s.model];
        let d = dense[s.model].get_or_insert_with(|| {
            DensePosterior::new(
                &served.xs,
                &served.ys,
                &served.reference.lambda,
                served.reference.r.clone(),
                served.reference.sigma0,
            )
        });
        for (k, (&m, &v)) in s.means.iter().zip(&s.vars).enumerate() {
            if let Err(e) = check_dense_agreement(
                (m, v),
                d.predict(k, &inputs[s.model][s.input]),
                d.observations(),
                d.rcond(),
            ) {
                note(&mut errors, format!("state {k}: {e}"));
            }
        }
    }
    if samples.is_empty() {
        note(
            &mut errors,
            "no variance reply was sampled for the dense check".to_string(),
        );
    }
    ServeReport {
        mean_us,
        var_ms,
        elapsed_s,
        failed: mean_failed + var_failed,
        errors,
        mean_gap,
        dense_checked: samples.len(),
    }
}

/// Records the serving end-to-end metrics.
pub fn serving_metrics(report: &ServeReport, m: &mut Metrics) {
    m.put("mean_latency_p50_us", "us", quantile(&report.mean_us, 0.5));
}

/// The serving figures that did not hold steady on `paper` between runs of
/// the same code (README, "Reference figures"), as `name=value` pairs.
pub fn serving_reference(report: &ServeReport) -> String {
    let requests = (report.mean_us.len() + report.var_ms.len()) as f64;
    format!(
        "mean_latency_p99_us={:.6} var_latency_p50_ms={:.6} var_latency_p95_ms={:.6} \
         var_latency_p99_ms={:.6} requests_per_s={:.6}",
        quantile(&report.mean_us, 0.99),
        quantile(&report.var_ms, 0.5),
        quantile(&report.var_ms, 0.95),
        quantile(&report.var_ms, 0.99),
        requests / report.elapsed_s
    )
}

/// Per-layer probes of the serving stack on the first published model,
/// each a median over many calls in this process: a direct single-row
/// predict (mean and variance), an in-process `BatchQueue` submit with the
/// server's default configuration, and a protocol encode/decode round trip
/// of one request and one response.
pub fn probe_layers(published: &Published, x: &[f64], var_calls: usize, m: &mut Metrics) {
    let predictor: Arc<BatchPredictor> = published
        .registry
        .get_by_id(published.models[0].id)
        .expect("published model is resident");
    let row = Matrix::from_vec(1, x.len(), x.to_vec()).expect("one input row");
    let var_s = median_call_s(var_calls, || {
        std::hint::black_box(
            predictor
                .predict_batch_with_uncertainty(&row)
                .expect("variance row"),
        );
    });
    let mean_s = median_call_s(4000, || {
        std::hint::black_box(predictor.predict_batch(&row).expect("mean row"));
    });
    let queue = BatchQueue::for_mean(Arc::clone(&predictor), BatchConfig::from_env());
    let submit_s = median_call_s(4000, || {
        std::hint::black_box(queue.submit(x).expect("queue submit"));
    });
    drop(queue);
    let k = predictor.model().num_states();
    let request = Request {
        kind: RequestKind::Predict,
        model_id: 0,
        sample: x.to_vec(),
    };
    let response = Response::Values(vec![1.0; k]);
    let proto_s = median_call_s(4000, || {
        let req = read_request(&mut Cursor::new(encode_request(&request))).expect("decode request");
        let resp =
            read_response(&mut Cursor::new(encode_response(&response))).expect("decode response");
        std::hint::black_box((req, resp));
    });
    m.put("predictor.var_row_ms", "ms", var_s * 1e3);
    m.put("predictor.mean_row_us", "us", mean_s * 1e6);
    m.put("queue.mean_submit_us", "us", submit_s * 1e6);
    m.put("protocol.roundtrip_us", "us", proto_s * 1e6);
}
