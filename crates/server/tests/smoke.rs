//! Loopback smoke suite: concurrent clients against a live server, with
//! every response compared *bitwise* against the direct
//! `BatchPredictor::predict_batch` call. Run in CI at
//! `RAYON_NUM_THREADS ∈ {1,2,4,8}` — coalescing must be invisible in the
//! bits everywhere.

mod common;

use std::sync::Arc;
use std::time::Duration;

use cbmf_linalg::Matrix;
use cbmf_serve::BatchConfig;
use cbmf_server::protocol::ErrorCode;
use cbmf_server::{ClientError, PredictClient, PredictionServer, ServerConfig};
use common::{gp_predictor, mean_predictor, sample, VARIABLES};

const CLIENTS: usize = 16;

fn serve_config(batch: BatchConfig) -> ServerConfig {
    ServerConfig {
        batch,
        ..ServerConfig::default()
    }
}

/// Drives `CLIENTS` concurrent single-sample clients and checks each
/// response row bitwise against the direct batch call.
fn assert_bitwise_roundtrip(batch: BatchConfig) {
    let predictor = gp_predictor();
    let xs = Matrix::from_fn(CLIENTS, VARIABLES, |i, j| sample(i)[j]);
    let direct_means = predictor.predict_batch(&xs).unwrap();
    let (direct_umeans, direct_vars) = predictor.predict_batch_with_uncertainty(&xs).unwrap();

    let server =
        PredictionServer::bind("127.0.0.1:0", Arc::clone(&predictor), serve_config(batch)).unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = PredictClient::connect(addr).unwrap();
                let mean = client.predict(&sample(i)).unwrap();
                let (umean, var) = client.predict_with_uncertainty(&sample(i)).unwrap();
                (i, mean, umean, var)
            })
        })
        .collect();
    for h in handles {
        let (i, mean, umean, var) = h.join().unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&mean),
            bits(direct_means.row(i)),
            "mean row {i} differs from direct predict_batch"
        );
        assert_eq!(
            bits(&umean),
            bits(direct_umeans.row(i)),
            "uncertainty mean row {i} differs"
        );
        assert_eq!(
            bits(&var),
            bits(direct_vars.row(i)),
            "variance row {i} differs"
        );
    }
    drop(server);
}

#[test]
fn responses_bitwise_equal_direct_predict_with_coalescing() {
    // A wide-open window so concurrent requests genuinely share tiles.
    assert_bitwise_roundtrip(
        BatchConfig::from_env()
            .with_max_batch(8)
            .with_deadline(Duration::from_millis(4)),
    );
}

#[test]
fn responses_bitwise_equal_direct_predict_without_coalescing() {
    // max_batch = 1: every request rides alone; bits must not change.
    assert_bitwise_roundtrip(BatchConfig::from_env().with_max_batch(1));
}

#[test]
fn responses_bitwise_equal_direct_predict_zero_deadline() {
    // Zero deadline: the worker drains whatever is queued immediately, so
    // tiles form only from natural backlog.
    assert_bitwise_roundtrip(
        BatchConfig::from_env()
            .with_max_batch(64)
            .with_deadline(Duration::ZERO),
    );
}

#[test]
fn coalescing_actually_happens_under_concurrency() {
    let server = PredictionServer::bind(
        "127.0.0.1:0",
        gp_predictor(),
        serve_config(
            BatchConfig::from_env()
                .with_max_batch(8)
                .with_deadline(Duration::from_millis(10)),
        ),
    )
    .unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = PredictClient::connect(addr).unwrap();
                for _ in 0..4 {
                    client.predict(&sample(i)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = server.mean_queue_stats();
    assert_eq!(stats.submitted, (CLIENTS * 4) as u64);
    assert!(
        stats.coalesced > 0,
        "16 clients × 4 requests inside a 10ms window never shared a tile: {stats:?}"
    );
    assert_eq!(
        stats
            .fill
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum::<u64>(),
        stats.submitted,
        "fill histogram accounts for every sample"
    );
}

#[test]
fn mean_only_server_rejects_uncertainty_with_typed_code() {
    let server = PredictionServer::bind(
        "127.0.0.1:0",
        mean_predictor(),
        serve_config(BatchConfig::from_env()),
    )
    .unwrap();
    let mut client = PredictClient::connect(server.local_addr()).unwrap();
    // The mean path still works...
    client.predict(&sample(0)).unwrap();
    // ...and the uncertainty path is a typed in-band error, not a hangup.
    match client.predict_with_uncertainty(&sample(0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::NoUncertainty),
        other => panic!("expected NoUncertainty, got {other:?}"),
    }
    // The connection survived the rejection.
    client.predict(&sample(1)).unwrap();
}

#[test]
fn wrong_model_id_and_wrong_dimension_are_typed_errors() {
    let server = PredictionServer::bind(
        "127.0.0.1:0",
        gp_predictor(),
        serve_config(BatchConfig::from_env()),
    )
    .unwrap();
    let mut client = PredictClient::connect(server.local_addr())
        .unwrap()
        .with_model_id(99);
    match client.predict(&sample(0)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::UnknownModel),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
    let mut client = PredictClient::connect(server.local_addr()).unwrap();
    match client.predict(&[1.0, 2.0]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::WrongDimension),
        other => panic!("expected WrongDimension, got {other:?}"),
    }
    // Both connections keep serving after their rejections.
    client.predict(&sample(2)).unwrap();
}

#[test]
fn depth_bound_returns_typed_overloaded() {
    // Tiny queue + a slow-ish artificial load: with depth 1 and many
    // concurrent callers, at least one must bounce with Overloaded while
    // the rest succeed.
    let server = PredictionServer::bind(
        "127.0.0.1:0",
        gp_predictor(),
        serve_config(
            BatchConfig::from_env()
                .with_max_batch(1)
                .with_deadline(Duration::ZERO)
                .with_queue_depth(1),
        ),
    )
    .unwrap();
    let addr = server.local_addr();
    let handles: Vec<_> = (0..32)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = PredictClient::connect(addr).unwrap();
                let mut rejected = 0u64;
                for _ in 0..8 {
                    match client.predict_with_uncertainty(&sample(i)) {
                        Ok(_) => {}
                        // Load shedding surfaces as the dedicated retryable
                        // variant, not a generic server error.
                        Err(e @ ClientError::Overloaded { .. }) => {
                            assert!(e.is_retryable(), "Overloaded must be retryable");
                            rejected += 1;
                        }
                        Err(other) => {
                            assert!(!other.is_retryable(), "only Overloaded is retryable");
                            panic!("unexpected failure: {other:?}");
                        }
                    }
                }
                rejected
            })
        })
        .collect();
    let rejected: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = server.var_queue_stats().unwrap();
    assert_eq!(stats.rejected, rejected);
    assert!(
        rejected > 0,
        "32 hot clients against a depth-1 queue never tripped backpressure"
    );
    assert!(
        stats.submitted > 0,
        "backpressure must shed load, not stop service"
    );
}

#[test]
fn sequential_requests_on_one_connection_all_answer() {
    let server = PredictionServer::bind(
        "127.0.0.1:0",
        gp_predictor(),
        serve_config(BatchConfig::from_env()),
    )
    .unwrap();
    let predictor = gp_predictor();
    let mut client = PredictClient::connect(server.local_addr()).unwrap();
    for i in 0..20 {
        let got = client.predict(&sample(i)).unwrap();
        let xs = Matrix::from_fn(1, VARIABLES, |_, j| sample(i)[j]);
        let want = predictor.predict_batch(&xs).unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}

/// Registry mode: requests route by their model id, unknown ids stay typed,
/// and a hot swap changes what an existing id serves — bitwise equal to the
/// direct predictor call on whichever model is current.
#[test]
fn registry_server_routes_by_model_id_and_hot_swaps() {
    use cbmf_serve::{BatchPredictor, ModelArtifact, ModelRegistry};

    let base = common::toy_model();
    let shifted = {
        let m = common::toy_model();
        let intercepts: Vec<f64> = m.intercepts().iter().map(|v| v + 10.0).collect();
        cbmf::PerStateModel::new(
            m.basis_spec(),
            m.num_variables(),
            m.support().to_vec(),
            m.coefficients().clone(),
            intercepts,
        )
        .unwrap()
    };
    let xs = Matrix::from_fn(1, VARIABLES, |_, j| sample(0)[j]);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let direct_base = BatchPredictor::new(base.clone())
        .predict_batch(&xs)
        .unwrap();
    let direct_shifted = BatchPredictor::new(shifted.clone())
        .predict_batch(&xs)
        .unwrap();

    let registry = Arc::new(ModelRegistry::new());
    let id_base = registry
        .insert("base", &ModelArtifact::from_model(base))
        .unwrap();
    let id_shifted = registry
        .insert("shifted", &ModelArtifact::from_model(shifted.clone()))
        .unwrap();
    let server = PredictionServer::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        serve_config(BatchConfig::from_env()),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut on_base = PredictClient::connect(addr).unwrap().with_model_id(id_base);
    let mut on_shifted = PredictClient::connect(addr)
        .unwrap()
        .with_model_id(id_shifted);
    assert_eq!(
        bits(&on_base.predict(&sample(0)).unwrap()),
        bits(direct_base.row(0))
    );
    assert_eq!(
        bits(&on_shifted.predict(&sample(0)).unwrap()),
        bits(direct_shifted.row(0))
    );

    // An id outside the registry is a typed, non-retryable error.
    let mut unknown = PredictClient::connect(addr).unwrap().with_model_id(99);
    match unknown.predict(&sample(0)) {
        Err(
            e @ ClientError::Server {
                code: ErrorCode::UnknownModel,
                ..
            },
        ) => assert!(!e.is_retryable()),
        other => panic!("expected UnknownModel, got {other:?}"),
    }

    // Hot swap "base" to the shifted model: the same id and the same
    // connection now serve the new bits.
    registry
        .insert("base", &ModelArtifact::from_model(shifted))
        .unwrap();
    assert_eq!(
        bits(&on_base.predict(&sample(0)).unwrap()),
        bits(direct_shifted.row(0)),
        "hot swap must be visible to the next request on an open connection"
    );

    // The mean-path registry stats cover both models' queues.
    assert!(server.mean_queue_stats().submitted >= 3);
}
