//! Registry concurrency: readers hammer a [`ModelRegistry`] while a writer
//! hot-swaps between two models with differing predictions. Every response
//! must be bitwise equal to *exactly one* of the two models — never a torn
//! mix — and LRU eviction under load must never break an in-flight request
//! (readers keep the `Arc` they loaded; evicted models revive from disk).
//!
//! CI runs this suite across `RAYON_NUM_THREADS ∈ {1,2,4,8}`, so the
//! predictor's internal parallelism is exercised at every width underneath
//! the swap storm.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cbmf::{BasisSpec, PerStateModel};
use cbmf_linalg::Matrix;
use cbmf_serve::{BatchPredictor, ModelArtifact, ModelRegistry};

const VARIABLES: usize = 3;
const READERS: usize = 6;

/// Whether the writer should keep churning: until every reader has
/// finished (a panicked reader counts), failing the test after a deadline
/// instead of spinning forever.
fn readers_running(readers: &[JoinHandle<()>], deadline: Instant) -> bool {
    assert!(Instant::now() < deadline, "readers did not finish in time");
    !readers.iter().all(JoinHandle::is_finished)
}

/// A tiny model whose predictions are a recognizable function of `scale` —
/// distinct scales give bitwise-distinct outputs on any nonzero sample.
fn artifact(scale: f64) -> ModelArtifact {
    let coeffs = Matrix::from_fn(2, VARIABLES, |k, j| {
        scale * (k as f64 + 1.0) * (j as f64 + 1.5)
    });
    let model = PerStateModel::new(
        BasisSpec::Linear,
        VARIABLES,
        vec![0, 1, 2],
        coeffs,
        vec![0.25 * scale, -0.5],
    )
    .unwrap();
    ModelArtifact::from_model(model)
}

fn sample_batch() -> Matrix {
    Matrix::from_fn(4, VARIABLES, |i, j| (i as f64 + 1.0) * 0.3 + j as f64 * 0.7)
}

fn direct_bits(a: &ModelArtifact, xs: &Matrix) -> Vec<u64> {
    BatchPredictor::from_artifact(a)
        .unwrap()
        .predict_batch(xs)
        .unwrap()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Readers racing a swap storm between model A and model B: every single
/// response is bitwise A or bitwise B, and the hot path never goes empty.
#[test]
fn swap_storm_yields_exactly_one_model_per_response() {
    const CHECKS_PER_READER: u64 = 200;

    let xs = sample_batch();
    let a = artifact(1.0);
    let b = artifact(-3.0);
    let bits_a = direct_bits(&a, &xs);
    let bits_b = direct_bits(&b, &xs);
    assert_ne!(bits_a, bits_b, "fixture models must disagree");

    let reg = Arc::new(ModelRegistry::new());
    reg.insert("m", &a).unwrap();

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let (xs, bits_a, bits_b) = (xs.clone(), bits_a.clone(), bits_b.clone());
            std::thread::spawn(move || {
                for _ in 0..CHECKS_PER_READER {
                    let predictor = reg
                        .get("m")
                        .expect("a registered pathless model is never absent");
                    let got = bits(&predictor.predict_batch(&xs).unwrap());
                    assert!(
                        got == bits_a || got == bits_b,
                        "response matches neither model bitwise"
                    );
                }
            })
        })
        .collect();

    // Swap for as long as the readers are still checking, so every reader
    // iteration races a live writer.
    let mut swaps = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while readers_running(&readers, deadline) {
        let next = if swaps.is_multiple_of(2) { &b } else { &a };
        reg.insert("m", next).unwrap();
        swaps += 1;
    }
    for h in readers {
        h.join().unwrap();
    }
    assert!(swaps > 0, "the writer never swapped");

    // After the storm settles the slot serves the last published model.
    let settled = bits(&reg.get("m").unwrap().predict_batch(&xs).unwrap());
    let last = if swaps.is_multiple_of(2) {
        &bits_a
    } else {
        &bits_b
    };
    assert_eq!(&settled, last, "final state is the last swap");
}

/// A capacity-1 registry under read load across three disk-backed models:
/// every lookup forces an eviction of some other model, yet every response
/// stays bitwise correct for the requested name — in-flight readers keep
/// their `Arc` and evicted models revive transparently.
#[test]
fn lru_eviction_under_load_never_breaks_requests() {
    let dir =
        std::env::temp_dir().join(format!("cbmf_registry_concurrency_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scales = [("a", 1.0), ("b", 2.0), ("c", -4.0)];
    let xs = sample_batch();
    let mut expect: Vec<(String, Vec<u64>)> = Vec::new();
    for (name, scale) in scales {
        let art = artifact(scale);
        art.save_binary(dir.join(format!("{name}.cbmf.bin")))
            .unwrap();
        expect.push((name.to_string(), direct_bits(&art, &xs)));
    }

    let reg = Arc::new(ModelRegistry::with_capacity(1));
    reg.load_dir(&dir).unwrap();
    assert_eq!(reg.resident(), 1, "capacity bound holds after load_dir");

    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            let xs = xs.clone();
            let expect = expect.clone();
            std::thread::spawn(move || {
                // Stagger starts so threads want different models, forcing
                // an eviction on nearly every lookup.
                for i in t..t + 100 {
                    let (name, want) = &expect[i % expect.len()];
                    let predictor = reg.get(name).expect("revival must succeed");
                    // The slot may be evicted right now by another thread's
                    // revival — this Arc keeps serving regardless.
                    let got = bits(&predictor.predict_batch(&xs).unwrap());
                    assert_eq!(&got, want, "model {name} served wrong bits");
                }
            })
        })
        .collect();

    // Writer churn: reloads re-read the same bytes (bits stay fixed) while
    // forcing publish + capacity enforcement against the read storm.
    let mut reloads = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while readers_running(&readers, deadline) {
        let (name, _) = scales[reloads % scales.len()];
        reg.reload(name).unwrap();
        assert!(reg.resident() <= 1, "capacity bound violated mid-storm");
        reloads += 1;
    }
    for h in readers {
        h.join().unwrap();
    }
    assert!(reloads > 0, "the writer never churned");

    // Nothing was forgotten and the table still answers for every name.
    assert_eq!(reg.names().len(), scales.len());
    for (name, want) in &expect {
        let got = bits(&reg.get(name).unwrap().predict_batch(&xs).unwrap());
        assert_eq!(&got, want, "post-storm lookup of {name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
