//! A multi-model registry with atomic hot swap and an LRU-bounded
//! resident set.
//!
//! One serving process holds many fitted circuits × knob states × corners.
//! [`ModelRegistry`] keys validated [`BatchPredictor`]s by name (and by a
//! dense numeric id for the wire protocol), with the fleet-serving
//! properties the ROADMAP asks for:
//!
//! * **Lock-free reads.** The name table and every model slot live behind
//!   [`cbmf_parallel::SwapSlot`]: [`get`](ModelRegistry::get) is a few
//!   atomic operations and never blocks on a writer.
//! * **Atomic hot swap.** [`insert`](ModelRegistry::insert) and
//!   [`reload`](ModelRegistry::reload) build and *validate* the replacement
//!   off to the side, then publish it in one pointer swap. In-flight
//!   requests keep the `Arc` they already loaded — they always see a
//!   complete model, old or new, never a torn one. A replacement that fails
//!   validation leaves the resident model untouched.
//! * **LRU-bounded residency.** At most `capacity` models are resident at
//!   once; publishing past the bound evicts the least-recently-used
//!   *reloadable* model (one registered from a path). Eviction only empties
//!   the slot — readers holding the `Arc` finish their requests on the
//!   evicted model, and the next [`get`](ModelRegistry::get) revives it
//!   from disk transparently.
//!
//! Observability via `cbmf-trace`: process-wide `registry.*` counters, a
//! `registry.resident` gauge, and a per-model
//! `registry.model.<name>.hits` counter (interned, so the name set must be
//! bounded — it is, by the model table).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cbmf_parallel::SwapSlot;
use cbmf_trace::{Counter, Gauge};

use crate::artifact::ModelArtifact;
use crate::error::ServeError;
use crate::predictor::BatchPredictor;

/// Artifact files loaded from disk (initial loads, reloads, and revivals).
static LOADS: Counter = Counter::new("registry.loads");
/// Hot swaps that replaced an already-resident model.
static SWAPS: Counter = Counter::new("registry.swaps");
/// Models evicted by the LRU residency bound.
static EVICTIONS: Counter = Counter::new("registry.evictions");
/// Lookups answered from a resident model.
static HITS: Counter = Counter::new("registry.hits");
/// Lookups that found the slot empty (evicted or unknown).
static MISSES: Counter = Counter::new("registry.misses");
/// Replacement artifacts rejected by validation; the resident model stayed.
static VALIDATION_FAILURES: Counter = Counter::new("registry.validation_failures");
/// Currently resident models.
static RESIDENT: Gauge = Gauge::new("registry.resident");

/// One named model: a hot-swappable predictor slot plus the bookkeeping
/// needed to revive and rank it.
struct Entry {
    name: String,
    id: u32,
    /// Source path, when the model was registered from disk; pathless
    /// (inserted) models cannot be revived and are therefore never evicted.
    path: Mutex<Option<PathBuf>>,
    cell: SwapSlot<BatchPredictor>,
    /// Logical timestamp of the last lookup, for LRU ranking.
    last_used: AtomicU64,
    hits: &'static Counter,
}

/// The immutable published view of the table; replaced wholesale on
/// insert so lookups never take a lock.
struct Directory {
    by_name: BTreeMap<String, Arc<Entry>>,
    /// Dense id space: `by_id[id]` is the entry with that id.
    by_id: Vec<Arc<Entry>>,
}

/// A string-keyed table of hot-swappable models. See the module docs for
/// the concurrency contract.
pub struct ModelRegistry {
    dir: SwapSlot<Directory>,
    /// Serializes structural mutation (insert/evict/revive); reads never
    /// touch it.
    write: Mutex<()>,
    clock: AtomicU64,
    capacity: usize,
    /// Resident-model count, published by capacity enforcement under the
    /// write lock, so readers never see a revival's slot filled before the
    /// victim's slot is emptied.
    resident: AtomicUsize,
}

impl ModelRegistry {
    /// An unbounded registry: every registered model stays resident.
    pub fn new() -> Self {
        Self::with_capacity(usize::MAX)
    }

    /// A registry keeping at most `capacity` models resident (LRU beyond
    /// that). `capacity` is clamped to at least 1.
    pub fn with_capacity(capacity: usize) -> Self {
        let reg = ModelRegistry {
            dir: SwapSlot::new(),
            write: Mutex::new(()),
            clock: AtomicU64::new(0),
            capacity: capacity.max(1),
            resident: AtomicUsize::new(0),
        };
        reg.dir.store(Arc::new(Directory {
            by_name: BTreeMap::new(),
            by_id: Vec::new(),
        }));
        reg
    }

    /// Validates `artifact` and publishes it under `name`, returning the
    /// model's id. A name already in the table keeps its id and is hot
    /// swapped: the new predictor is built first, then one pointer swap
    /// replaces the old one. On validation failure the table is untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError`] from predictor construction (inconsistent factors…).
    pub fn insert(&self, name: &str, artifact: &ModelArtifact) -> Result<u32, ServeError> {
        self.publish(name, artifact, None)
    }

    /// Loads, validates, and publishes the artifact at `path` (either
    /// format, sniffed) under `name`, remembering the path so the model can
    /// be revived after eviction and re-read by
    /// [`reload`](Self::reload).
    ///
    /// # Errors
    ///
    /// [`ServeError`] from the load or from validation.
    pub fn register_file<P: AsRef<Path>>(&self, name: &str, path: P) -> Result<u32, ServeError> {
        let path = path.as_ref();
        LOADS.inc();
        let artifact = ModelArtifact::load_auto(path)?;
        self.publish(name, &artifact, Some(path.to_path_buf()))
    }

    /// Registers every `*.cbmf.json` / `*.cbmf.bin` file in `dir` under its
    /// file stem (`lna.cbmf.bin` → `lna`), in sorted name order. Returns
    /// the `(name, id)` pairs registered.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on an unreadable directory, or the first load /
    /// validation failure (models registered before it stay registered).
    pub fn load_dir<P: AsRef<Path>>(&self, dir: P) -> Result<Vec<(String, u32)>, ServeError> {
        let mut files: Vec<(String, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(fname) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let stem = fname
                .strip_suffix(".cbmf.json")
                .or_else(|| fname.strip_suffix(".cbmf.bin"));
            if let Some(stem) = stem {
                files.push((stem.to_string(), path));
            }
        }
        files.sort();
        let mut out = Vec::with_capacity(files.len());
        for (name, path) in files {
            let id = self.register_file(&name, &path)?;
            out.push((name, id));
        }
        Ok(out)
    }

    /// Re-reads `name`'s artifact from its registered path, validates it off
    /// to the side, and publishes it in one swap. In-flight requests finish
    /// on whichever model they already hold.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for an unknown name or a pathless model;
    /// load/validation errors leave the resident model serving.
    pub fn reload(&self, name: &str) -> Result<(), ServeError> {
        let entry = self
            .lookup(name)
            .ok_or_else(|| ServeError::Invalid(format!("no model named '{name}'")))?;
        let path = entry
            .path
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
            .ok_or_else(|| ServeError::Invalid(format!("model '{name}' has no registered path")))?;
        LOADS.inc();
        let artifact = ModelArtifact::load_auto(&path)?;
        self.publish(name, &artifact, Some(path))?;
        Ok(())
    }

    /// The current predictor for `name`: the resident one, or — for an
    /// evicted model with a registered path — a transparent revival from
    /// disk. `None` for unknown names and for revivals that fail.
    pub fn get(&self, name: &str) -> Option<Arc<BatchPredictor>> {
        let entry = self.lookup(name)?;
        self.fetch(&entry)
    }

    /// Like [`get`](Self::get), keyed by the wire protocol's model id.
    pub fn get_by_id(&self, id: u32) -> Option<Arc<BatchPredictor>> {
        let dir = self.dir.load()?;
        let entry = dir.by_id.get(id as usize)?.clone();
        drop(dir);
        self.fetch(&entry)
    }

    /// The id registered for `name`, if any.
    pub fn id_of(&self, name: &str) -> Option<u32> {
        Some(self.lookup(name)?.id)
    }

    /// The name registered under `id`, if any.
    pub fn name_of(&self, id: u32) -> Option<String> {
        let dir = self.dir.load()?;
        Some(dir.by_id.get(id as usize)?.name.clone())
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        match self.dir.load() {
            Some(dir) => dir.by_name.keys().cloned().collect(),
            None => Vec::new(),
        }
    }

    /// How many models are currently resident (≤ the capacity bound
    /// unless pathless models pin more): the count as of the last completed
    /// insert, eviction or revival.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Acquire)
    }

    // -- internals ---------------------------------------------------------

    fn lookup(&self, name: &str) -> Option<Arc<Entry>> {
        self.dir.load()?.by_name.get(name).cloned()
    }

    /// The read hot path: stamp recency, take the resident `Arc`, or fall
    /// to the revival slow path.
    fn fetch(&self, entry: &Arc<Entry>) -> Option<Arc<BatchPredictor>> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        entry.last_used.store(tick, Ordering::Relaxed);
        if let Some(m) = entry.cell.load() {
            HITS.inc();
            entry.hits.inc();
            return Some(m);
        }
        MISSES.inc();
        self.revive(entry)
    }

    /// Revives an evicted model from its path. Serialized on the write lock
    /// so a read storm on a cold model loads the file once, not N times.
    fn revive(&self, entry: &Arc<Entry>) -> Option<Arc<BatchPredictor>> {
        let _guard = self.write.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(m) = entry.cell.load() {
            return Some(m); // raced a concurrent revival
        }
        let path = entry
            .path
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()?;
        LOADS.inc();
        let artifact = ModelArtifact::load_auto(&path).ok()?;
        let predictor = match BatchPredictor::from_artifact(&artifact) {
            Ok(p) => Arc::new(p),
            Err(_) => {
                VALIDATION_FAILURES.inc();
                return None;
            }
        };
        drop(entry.cell.swap(Some(Arc::clone(&predictor))));
        self.enforce_capacity_locked(Some(entry.id));
        Some(predictor)
    }

    fn publish(
        &self,
        name: &str,
        artifact: &ModelArtifact,
        path: Option<PathBuf>,
    ) -> Result<u32, ServeError> {
        // Validate before touching any shared state: a bad replacement must
        // leave the resident model serving.
        let predictor = Arc::new(BatchPredictor::from_artifact(artifact).inspect_err(|_| {
            VALIDATION_FAILURES.inc();
        })?);

        let _guard = self.write.lock().unwrap_or_else(|e| e.into_inner());
        let dir = self.dir.load().expect("directory always published");
        let entry = match dir.by_name.get(name) {
            Some(existing) => {
                // Known name: keep the id, swap the model in place.
                if let Some(p) = path {
                    *existing.path.lock().unwrap_or_else(|e| e.into_inner()) = Some(p);
                }
                let old = existing.cell.swap(Some(predictor));
                if old.is_some() {
                    SWAPS.inc();
                }
                existing.clone()
            }
            None => {
                let id = dir.by_id.len() as u32;
                let entry = Arc::new(Entry {
                    name: name.to_string(),
                    id,
                    path: Mutex::new(path),
                    cell: SwapSlot::with(predictor),
                    last_used: AtomicU64::new(self.clock.fetch_add(1, Ordering::Relaxed)),
                    hits: cbmf_trace::counter(&format!("registry.model.{name}.hits")),
                });
                let mut by_name = dir.by_name.clone();
                let mut by_id = dir.by_id.clone();
                by_name.insert(name.to_string(), entry.clone());
                by_id.push(entry.clone());
                self.dir.store(Arc::new(Directory { by_name, by_id }));
                entry
            }
        };
        self.enforce_capacity_locked(Some(entry.id));
        Ok(entry.id)
    }

    /// Evicts least-recently-used revivable models until the resident count
    /// is within capacity. `keep` (the id just published or revived) is
    /// never evicted. Caller holds the write lock.
    fn enforce_capacity_locked(&self, keep: Option<u32>) {
        let dir = self.dir.load().expect("directory always published");
        loop {
            let resident: Vec<&Arc<Entry>> = dir
                .by_id
                .iter()
                .filter(|e| e.cell.load().is_some())
                .collect();
            if resident.len() <= self.capacity {
                break;
            }
            // Oldest revivable model that isn't the one we must keep.
            let victim = resident
                .iter()
                .filter(|e| Some(e.id) != keep)
                .filter(|e| e.path.lock().unwrap_or_else(|x| x.into_inner()).is_some())
                .min_by_key(|e| e.last_used.load(Ordering::Relaxed));
            let Some(victim) = victim else {
                break; // everything over budget is pinned; nothing to do
            };
            // Readers already holding the Arc keep serving the evicted
            // model; only the slot empties.
            drop(victim.cell.take());
            EVICTIONS.inc();
        }
        let resident = dir.by_id.iter().filter(|e| e.cell.load().is_some()).count();
        self.resident.store(resident, Ordering::Release);
        RESIDENT.set(resident as f64);
    }
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("names", &self.names())
            .field("resident", &self.resident())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbmf::{BasisSpec, PerStateModel};
    use cbmf_linalg::Matrix;

    fn artifact(scale: f64) -> ModelArtifact {
        let coeffs = Matrix::from_fn(2, 3, |k, j| scale * (k as f64 + 1.0) * (j as f64 + 1.0));
        let model = PerStateModel::new(BasisSpec::Linear, 3, vec![0, 1, 2], coeffs, vec![0.0, 1.0])
            .unwrap();
        ModelArtifact::from_model(model)
    }

    #[test]
    fn insert_get_and_hot_swap_change_predictions() {
        let reg = ModelRegistry::new();
        let id = reg.insert("lna", &artifact(1.0)).unwrap();
        assert_eq!(reg.id_of("lna"), Some(id));
        assert_eq!(reg.name_of(id).as_deref(), Some("lna"));
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let before = reg.get("lna").unwrap().predict_batch(&x).unwrap();
        // Same name, same id, different model after the swap.
        assert_eq!(reg.insert("lna", &artifact(2.0)).unwrap(), id);
        let after = reg.get_by_id(id).unwrap().predict_batch(&x).unwrap();
        assert_ne!(before.as_slice()[0], after.as_slice()[0]);
        assert_eq!(reg.resident(), 1);
    }

    #[test]
    fn unknown_names_and_ids_are_none() {
        let reg = ModelRegistry::new();
        assert!(reg.get("nope").is_none());
        assert!(reg.get_by_id(7).is_none());
        assert!(reg.id_of("nope").is_none());
        assert!(reg.names().is_empty());
    }

    #[test]
    fn lru_evicts_and_revives_from_disk() {
        let dir = std::env::temp_dir().join(format!("cbmf_registry_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, scale) in [("a", 1.0), ("b", 2.0), ("c", 3.0)] {
            artifact(scale)
                .save_binary(dir.join(format!("{name}.cbmf.bin")))
                .unwrap();
        }
        let reg = ModelRegistry::with_capacity(2);
        let listed = reg.load_dir(&dir).unwrap();
        assert_eq!(
            listed.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
            ["a", "b", "c"]
        );
        // Capacity 2: one of the three was evicted, none forgotten.
        assert_eq!(reg.resident(), 2);
        assert_eq!(reg.names().len(), 3);
        // Every model still answers — evicted ones revive transparently.
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        for (name, scale) in [("a", 1.0), ("b", 2.0), ("c", 3.0)] {
            let y = reg.get(name).unwrap().predict_batch(&x).unwrap();
            let want = reg
                .get(name)
                .unwrap()
                .predict_batch(&x)
                .unwrap()
                .as_slice()
                .to_vec();
            assert_eq!(y.as_slice(), &want[..], "model {name} scale {scale}");
            assert!(reg.resident() <= 2);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A revival fills the revived slot before capacity enforcement empties
    /// the victim's. `resident()` must not count that transient state.
    #[test]
    fn resident_count_is_published_after_enforcement() {
        let dir = std::env::temp_dir().join(format!("cbmf_resident_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (name, scale) in [("a", 1.0), ("b", 2.0)] {
            artifact(scale)
                .save_binary(dir.join(format!("{name}.cbmf.bin")))
                .unwrap();
        }
        let reg = ModelRegistry::with_capacity(1);
        reg.load_dir(&dir).unwrap();
        assert_eq!(reg.resident(), 1);
        let table = reg.dir.load().unwrap();
        let evicted = table
            .by_id
            .iter()
            .find(|e| e.cell.load().is_none())
            .unwrap();
        // Stop a revival halfway: the slot is filled, enforcement not run.
        let predictor = BatchPredictor::from_artifact(&artifact(1.0)).unwrap();
        drop(evicted.cell.swap(Some(Arc::new(predictor))));
        assert_eq!(
            reg.resident(),
            1,
            "transient over-capacity state was counted"
        );
        reg.enforce_capacity_locked(Some(evicted.id));
        assert_eq!(reg.resident(), 1);
        assert!(evicted.cell.load().is_some(), "the revived model stays");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pathless_models_are_never_evicted() {
        let reg = ModelRegistry::with_capacity(1);
        reg.insert("pinned_a", &artifact(1.0)).unwrap();
        reg.insert("pinned_b", &artifact(2.0)).unwrap();
        // Both are pathless: the bound cannot be enforced without losing a
        // model, so both stay.
        assert_eq!(reg.resident(), 2);
        assert!(reg.get("pinned_a").is_some());
        assert!(reg.get("pinned_b").is_some());
    }

    #[test]
    fn reload_requires_a_path_and_republishes() {
        let dirp = std::env::temp_dir().join(format!("cbmf_reload_test_{}", std::process::id()));
        std::fs::create_dir_all(&dirp).unwrap();
        let file = dirp.join("m.cbmf.bin");
        artifact(1.0).save_binary(&file).unwrap();
        let reg = ModelRegistry::new();
        reg.insert("pathless", &artifact(1.0)).unwrap();
        assert!(reg.reload("pathless").is_err());
        assert!(reg.reload("missing").is_err());
        let id = reg.register_file("m", &file).unwrap();
        let x = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let before = reg.get_by_id(id).unwrap().predict_batch(&x).unwrap();
        artifact(5.0).save_binary(&file).unwrap();
        reg.reload("m").unwrap();
        let after = reg.get_by_id(id).unwrap().predict_batch(&x).unwrap();
        assert_ne!(before.as_slice()[0], after.as_slice()[0]);
        std::fs::remove_dir_all(&dirp).ok();
    }
}
