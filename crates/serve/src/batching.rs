//! Dynamic request batching: the queue that turns concurrent single-sample
//! callers into `predict_batch` tiles.
//!
//! The measured economics of this workspace favor batches: one
//! [`BatchPredictor::predict_batch`] call amortizes dispatch and packing
//! across its rows, and the uncertainty path shares one blocked multi-RHS
//! triangular solve across a whole tile instead of streaming the Cholesky
//! factor once per sample. A [`BatchQueue`] exposes that win to callers who
//! each hold exactly one sample: submissions park in a bounded queue, a
//! dedicated worker drains up to [`BatchConfig::max_batch`] of them into one
//! evaluator call when either the tile fills or a small deadline window
//! ([`BatchConfig::deadline`]) expires, and each caller gets back exactly its
//! own output row.
//!
//! Coalescing is invisible in the results by construction: every evaluator
//! row depends only on its own input row (pinned by the serving test suite),
//! so a sample's response bits are identical whether it rode alone or in a
//! full tile — at any thread count and any batching window.
//!
//! The queue is deliberately socket-free. `cbmf-server` puts a TCP protocol
//! in front of it, but anything that can call [`BatchQueue::submit`] from
//! multiple threads (an FFI shim, an in-process simulator loop) gets the
//! same coalescing.
//!
//! # Backpressure
//!
//! The queue depth is bounded ([`BatchConfig::queue_depth`]). When a
//! submission would exceed it, `submit` fails fast with
//! [`BatchError::Overloaded`] instead of queueing unboundedly — the caller
//! (e.g. the TCP front-end) turns that into a typed in-band rejection and
//! the client retries with backoff. Depth, batch cap and deadline resolve
//! once per process from `CBMF_SERVE_*` (the `CBMF_BLOCK_*` pattern) with
//! builder overrides for tests and benches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cbmf_linalg::Matrix;
use cbmf_trace::{Counter, Gauge};

use crate::{BatchPredictor, ServeError};

static SERVER_BATCHES: Counter = Counter::new("server.batches");
static SERVER_COALESCED: Counter = Counter::new("server.coalesced");
static SERVER_REJECTED: Counter = Counter::new("server.rejected");
static SERVER_QUEUE_DEPTH: Gauge = Gauge::new("server.queue_depth");

/// Default batch cap: matches the `batch_0064` sweet spot in
/// `BENCH_predict.json` and the predictor's default tile height.
pub const DEFAULT_MAX_BATCH: usize = 64;
/// Default coalescing window in microseconds.
pub const DEFAULT_DEADLINE_US: u64 = 100;
/// Default bounded queue depth (pending submissions before `Overloaded`).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Once-per-process `CBMF_SERVE_*` resolution, like `CBMF_SIMD_ISA` /
/// `CBMF_BLOCK_*`: the first reader fixes the values for the process.
fn env_defaults() -> (usize, u64, usize) {
    static DEFAULTS: OnceLock<(usize, u64, usize)> = OnceLock::new();
    *DEFAULTS.get_or_init(|| {
        let parse_usize = |key: &str, default: usize| {
            std::env::var(key)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(default)
        };
        let deadline = std::env::var("CBMF_SERVE_DEADLINE_US")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(DEFAULT_DEADLINE_US);
        (
            parse_usize("CBMF_SERVE_BATCH", DEFAULT_MAX_BATCH),
            deadline,
            parse_usize("CBMF_SERVE_DEPTH", DEFAULT_QUEUE_DEPTH),
        )
    })
}

/// Tuning knobs for one [`BatchQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Largest tile the worker assembles; 1 disables coalescing.
    pub max_batch: usize,
    /// How long the worker holds an underfull tile open for stragglers.
    /// Zero dispatches whatever is queued immediately.
    pub deadline: Duration,
    /// Pending submissions allowed before [`BatchError::Overloaded`].
    pub queue_depth: usize,
}

impl BatchConfig {
    /// Resolves the process-wide defaults: `CBMF_SERVE_BATCH` (default 64),
    /// `CBMF_SERVE_DEADLINE_US` (default 100), `CBMF_SERVE_DEPTH` (default
    /// 1024), each read once per process on first use.
    pub fn from_env() -> Self {
        let (max_batch, deadline_us, queue_depth) = env_defaults();
        BatchConfig {
            max_batch,
            deadline: Duration::from_micros(deadline_us),
            queue_depth,
        }
    }

    /// Overrides the batch cap (clamped to at least 1).
    #[must_use]
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.max_batch = n.max(1);
        self
    }

    /// Overrides the coalescing deadline.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    /// Overrides the bounded queue depth (clamped to at least 1).
    #[must_use]
    pub fn with_queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n.max(1);
        self
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::from_env()
    }
}

/// Why a [`BatchQueue::submit`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The bounded queue was full; retry with backoff.
    Overloaded,
    /// The queue is shutting down (its owner dropped it).
    Shutdown,
    /// The sample's length does not match the evaluator's input width.
    WrongDimension {
        /// Length the caller submitted.
        got: usize,
        /// Length the evaluator expects.
        want: usize,
    },
    /// The underlying evaluator failed for the whole tile.
    Eval(String),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Overloaded => write!(f, "queue full — retry with backoff"),
            BatchError::Shutdown => write!(f, "batch queue is shut down"),
            BatchError::WrongDimension { got, want } => {
                write!(f, "sample has {got} values, evaluator expects {want}")
            }
            BatchError::Eval(msg) => write!(f, "batch evaluation failed: {msg}"),
        }
    }
}

impl std::error::Error for BatchError {}

/// Point-in-time statistics of one queue (exact, independent of tracing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchQueueStats {
    /// Samples accepted into the queue.
    pub submitted: u64,
    /// Evaluator calls dispatched.
    pub batches: u64,
    /// Samples that shared a tile with at least one other sample
    /// (`batch_len - 1` summed over all dispatched tiles).
    pub coalesced: u64,
    /// Submissions rejected by the depth bound.
    pub rejected: u64,
    /// `fill[i]` counts dispatched tiles of `i + 1` samples.
    pub fill: Vec<u64>,
}

struct Pending {
    sample: Vec<f64>,
    reply: mpsc::SyncSender<Result<Vec<f64>, BatchError>>,
}

struct Shared {
    queue: Mutex<VecDeque<Pending>>,
    avail: Condvar,
    shutdown: AtomicBool,
    submitted: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    fill: Vec<AtomicU64>,
}

type EvalFn = dyn Fn(&Matrix) -> Result<Matrix, ServeError> + Send + Sync;

/// A bounded, deadline-coalescing batch queue over a row-wise evaluator.
///
/// See the [module docs](self) for semantics. Constructed over a shared
/// [`BatchPredictor`] ([`BatchQueue::for_mean`] /
/// [`BatchQueue::for_uncertainty`]) or any row-independent closure
/// ([`BatchQueue::with_eval`]).
pub struct BatchQueue {
    shared: Arc<Shared>,
    config: BatchConfig,
    in_dim: usize,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for BatchQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchQueue")
            .field("config", &self.config)
            .field("in_dim", &self.in_dim)
            .finish_non_exhaustive()
    }
}

impl BatchQueue {
    /// Coalesces submissions into [`BatchPredictor::predict_batch`] calls;
    /// each reply row holds the K per-state means.
    pub fn for_mean(predictor: Arc<BatchPredictor>, config: BatchConfig) -> Self {
        let in_dim = predictor.model().num_variables();
        Self::with_eval(config, in_dim, move |xs| predictor.predict_batch(xs))
    }

    /// Coalesces submissions into
    /// [`BatchPredictor::predict_batch_with_uncertainty`] calls; each reply
    /// row holds `[means[0..K], vars[0..K]]`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] when the predictor carries no posterior
    /// factors.
    pub fn for_uncertainty(
        predictor: Arc<BatchPredictor>,
        config: BatchConfig,
    ) -> Result<Self, ServeError> {
        if !predictor.has_uncertainty() {
            return Err(ServeError::Invalid(
                "predictor carries no posterior factors — cannot serve uncertainty".to_string(),
            ));
        }
        let in_dim = predictor.model().num_variables();
        Ok(Self::with_eval(config, in_dim, move |xs| {
            let (means, vars) = predictor.predict_batch_with_uncertainty(xs)?;
            let (n, k) = means.shape();
            let mut out = Matrix::zeros(n, 2 * k);
            for i in 0..n {
                out.as_mut_slice()[i * 2 * k..i * 2 * k + k].copy_from_slice(means.row(i));
                out.as_mut_slice()[i * 2 * k + k..(i + 1) * 2 * k].copy_from_slice(vars.row(i));
            }
            Ok(out)
        }))
    }

    /// Builds a queue over an arbitrary row-wise evaluator: `eval` receives
    /// an `n × in_dim` tile and must return one output row per input row,
    /// with row `i` depending only on input row `i` (otherwise coalescing
    /// would be observable).
    pub fn with_eval(
        config: BatchConfig,
        in_dim: usize,
        eval: impl Fn(&Matrix) -> Result<Matrix, ServeError> + Send + Sync + 'static,
    ) -> Self {
        let config = BatchConfig {
            max_batch: config.max_batch.max(1),
            deadline: config.deadline,
            queue_depth: config.queue_depth.max(1),
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            avail: Condvar::new(),
            shutdown: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            fill: (0..config.max_batch).map(|_| AtomicU64::new(0)).collect(),
        });
        let worker = {
            let shared = Arc::clone(&shared);
            let cfg = config.clone();
            let eval: Box<EvalFn> = Box::new(eval);
            std::thread::Builder::new()
                .name("cbmf-batch-queue".to_string())
                .spawn(move || worker_loop(&shared, &cfg, in_dim, &eval))
                .expect("spawn batch-queue worker")
        };
        BatchQueue {
            shared,
            config,
            in_dim,
            worker: Some(worker),
        }
    }

    /// The queue's resolved configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// The evaluator's expected sample length.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Submits one sample and blocks until its output row (or a typed
    /// failure) comes back. Safe to call from many threads; concurrent
    /// callers are what the worker coalesces.
    ///
    /// # Errors
    ///
    /// [`BatchError::WrongDimension`] without enqueueing on a length
    /// mismatch; [`BatchError::Overloaded`] when the depth bound is hit;
    /// [`BatchError::Shutdown`] when the queue is (or goes) down;
    /// [`BatchError::Eval`] when the evaluator failed the whole tile.
    pub fn submit(&self, sample: &[f64]) -> Result<Vec<f64>, BatchError> {
        if sample.len() != self.in_dim {
            return Err(BatchError::WrongDimension {
                got: sample.len(),
                want: self.in_dim,
            });
        }
        let (reply, rx) = mpsc::sync_channel(1);
        {
            let mut q = self.shared.queue.lock().unwrap();
            if self.shared.shutdown.load(Ordering::Relaxed) {
                return Err(BatchError::Shutdown);
            }
            if q.len() >= self.config.queue_depth {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                SERVER_REJECTED.inc();
                return Err(BatchError::Overloaded);
            }
            q.push_back(Pending {
                sample: sample.to_vec(),
                reply,
            });
            SERVER_QUEUE_DEPTH.maximize(q.len() as f64);
            self.shared.avail.notify_one();
        }
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        rx.recv().unwrap_or(Err(BatchError::Shutdown))
    }

    /// Exact queue statistics so far.
    pub fn stats(&self) -> BatchQueueStats {
        BatchQueueStats {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            fill: self
                .shared
                .fill
                .iter()
                .map(|f| f.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Drop for BatchQueue {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.avail.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // Anything still queued (submitted after the final drain) gets a
        // clean Shutdown instead of a hung caller.
        let mut q = self.shared.queue.lock().unwrap();
        for p in q.drain(..) {
            let _ = p.reply.send(Err(BatchError::Shutdown));
        }
    }
}

fn worker_loop(shared: &Shared, cfg: &BatchConfig, in_dim: usize, eval: &EvalFn) {
    let mut q = shared.queue.lock().unwrap();
    loop {
        // Park until work arrives or shutdown. On shutdown, drain what is
        // already queued so no accepted submission is dropped.
        while q.is_empty() {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            q = shared.avail.wait(q).unwrap();
        }
        // Coalescing window: hold the tile open for stragglers until it
        // fills or the deadline passes. Skipped entirely when the queue
        // already holds a full tile or coalescing is disabled.
        if cfg.max_batch > 1 && !cfg.deadline.is_zero() {
            let deadline = Instant::now() + cfg.deadline;
            while q.len() < cfg.max_batch && !shared.shutdown.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, timeout) = shared.avail.wait_timeout(q, deadline - now).unwrap();
                q = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        let n = q.len().min(cfg.max_batch);
        let tile: Vec<Pending> = q.drain(..n).collect();
        SERVER_QUEUE_DEPTH.set(q.len() as f64);
        drop(q);

        let mut xs = Matrix::zeros(n, in_dim);
        for (i, p) in tile.iter().enumerate() {
            xs.as_mut_slice()[i * in_dim..(i + 1) * in_dim].copy_from_slice(&p.sample);
        }
        shared.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .coalesced
            .fetch_add((n - 1) as u64, Ordering::Relaxed);
        shared.fill[n - 1].fetch_add(1, Ordering::Relaxed);
        SERVER_BATCHES.inc();
        SERVER_COALESCED.add((n - 1) as u64);

        match eval(&xs) {
            Ok(out) => {
                debug_assert_eq!(out.rows(), n);
                for (i, p) in tile.into_iter().enumerate() {
                    let _ = p.reply.send(Ok(out.row(i).to_vec()));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                for p in tile {
                    let _ = p.reply.send(Err(BatchError::Eval(msg.clone())));
                }
            }
        }
        q = shared.queue.lock().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An evaluator whose row output encodes (input value, observed batch
    /// size) so tests can distinguish coalesced from solo dispatches while
    /// remaining row-independent in its first column.
    fn echo_queue(cfg: BatchConfig) -> BatchQueue {
        BatchQueue::with_eval(cfg, 2, |xs| {
            let (n, _) = xs.shape();
            Ok(Matrix::from_fn(n, 2, |i, j| {
                if j == 0 {
                    xs[(i, 0)] + 1.0
                } else {
                    n as f64
                }
            }))
        })
    }

    #[test]
    fn routes_each_reply_to_its_submitter() {
        let cfg = BatchConfig::from_env()
            .with_max_batch(8)
            .with_deadline(Duration::from_millis(5));
        let q = Arc::new(echo_queue(cfg));
        let handles: Vec<_> = (0..32)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let out = q.submit(&[i as f64, 0.0]).unwrap();
                    assert_eq!(out[0], i as f64 + 1.0, "reply row belongs to sample {i}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = q.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.fill.iter().sum::<u64>(), stats.batches);
        assert_eq!(
            stats
                .fill
                .iter()
                .enumerate()
                .map(|(i, &n)| (i as u64 + 1) * n)
                .sum::<u64>(),
            32,
            "fill histogram accounts for every sample"
        );
    }

    #[test]
    fn deadline_window_coalesces_concurrent_submissions() {
        // A long window and a worker-side rendezvous: park enough
        // submitters, then let the deadline fire once — at least one tile
        // must contain more than one sample.
        let cfg = BatchConfig::from_env()
            .with_max_batch(4)
            .with_deadline(Duration::from_millis(50));
        let q = Arc::new(echo_queue(cfg));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.submit(&[i as f64, 0.0]).unwrap()[1])
            })
            .collect();
        let sizes: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            sizes.iter().any(|&s| s > 1.0),
            "no coalescing observed: batch sizes {sizes:?}"
        );
        assert!(q.stats().coalesced > 0);
    }

    #[test]
    fn max_batch_one_never_coalesces() {
        let cfg = BatchConfig::from_env()
            .with_max_batch(1)
            .with_deadline(Duration::from_millis(20));
        let q = Arc::new(echo_queue(cfg));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.submit(&[i as f64, 0.0]).unwrap()[1])
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 1.0, "tile must hold exactly one sample");
        }
        let stats = q.stats();
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.batches, 16);
    }

    /// Spins until `cond` holds, failing the test after ten seconds instead
    /// of hanging it when the awaited event never comes.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn depth_bound_rejects_with_overloaded() {
        // An evaluator that signals entry, then blocks until released, so
        // the queue backs up deterministically.
        let entered = Arc::new(AtomicBool::new(false));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (entered_w, gate_w) = (Arc::clone(&entered), Arc::clone(&gate));
        let cfg = BatchConfig::from_env()
            .with_max_batch(1)
            .with_deadline(Duration::ZERO)
            .with_queue_depth(2);
        let q = Arc::new(BatchQueue::with_eval(cfg, 1, move |xs| {
            entered_w.store(true, Ordering::SeqCst);
            let (lock, cv) = &*gate_w;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
            let (n, _) = xs.shape();
            Ok(Matrix::from_fn(n, 1, |i, _| xs[(i, 0)]))
        }));
        let submit = |i: usize| {
            let qs = Arc::clone(&q);
            std::thread::spawn(move || qs.submit(&[i as f64]))
        };
        // The first submission is claimed by the worker and blocks in eval;
        // only then do the next two fill the depth-2 queue, and the one
        // after must bounce.
        let mut handles = vec![submit(0)];
        wait_until("the worker to enter eval", || {
            entered.load(Ordering::SeqCst)
        });
        handles.extend([submit(1), submit(2)]);
        wait_until("two queued submissions", || q.stats().submitted == 3);
        let err = q.submit(&[9.0]).unwrap_err();
        assert_eq!(err, BatchError::Overloaded);
        assert_eq!(q.stats().rejected, 1);
        let (lock, cv) = &*gate;
        *lock.lock().unwrap() = true;
        cv.notify_all();
        for h in handles {
            assert!(h.join().unwrap().is_ok());
        }
    }

    #[test]
    fn wrong_dimension_is_rejected_before_enqueue() {
        let q = echo_queue(BatchConfig::from_env());
        assert_eq!(
            q.submit(&[1.0, 2.0, 3.0]).unwrap_err(),
            BatchError::WrongDimension { got: 3, want: 2 }
        );
        assert_eq!(q.stats().submitted, 0);
    }

    #[test]
    fn eval_failure_reaches_every_member_of_the_tile() {
        let cfg = BatchConfig::from_env()
            .with_max_batch(4)
            .with_deadline(Duration::from_millis(30));
        let q = Arc::new(BatchQueue::with_eval(cfg, 1, |_| {
            Err(ServeError::Invalid("injected".to_string()))
        }));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.submit(&[i as f64]))
            })
            .collect();
        for h in handles {
            match h.join().unwrap() {
                Err(BatchError::Eval(msg)) => assert!(msg.contains("injected")),
                other => panic!("expected Eval error, got {other:?}"),
            }
        }
    }

    #[test]
    fn drop_is_clean_and_submit_after_drop_is_impossible_by_construction() {
        let q = echo_queue(BatchConfig::from_env().with_max_batch(2));
        assert_eq!(q.submit(&[5.0, 0.0]).unwrap()[0], 6.0);
        drop(q); // must join the worker without hanging
    }

    #[test]
    fn env_config_defaults_are_sane() {
        let cfg = BatchConfig::from_env();
        assert!(cfg.max_batch >= 1);
        assert!(cfg.queue_depth >= 1);
    }
}
