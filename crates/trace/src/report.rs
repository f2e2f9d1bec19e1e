//! Versioned run reports: the machine-checkable artifact behind
//! `results/trace_*.json` and the CI gates.
//!
//! A report is one JSON document with a fixed, versioned schema
//! ([`REPORT_SCHEMA`]): host metadata (core count, OS, arch), a caller-
//! supplied run label plus free-form metadata, and the full trace snapshot
//! (spans, counters, gauges). Objects serialize with sorted keys, so two
//! reports of the same run diff cleanly.
//!
//! ```json
//! {
//!   "counters": {"cbmf.greedy.steps": 123, ...},
//!   "gauges": {...},
//!   "histograms": {"server.request_ns": {"count": ..., "p50_ns": ..., ...}, ...},
//!   "host": {"arch": "x86_64", "os": "linux", "threads": 8},
//!   "meta": {...},
//!   "run": "cbmf_report_lna",
//!   "schema": "cbmf-trace-report/1",
//!   "spans": {"fit/init": {"count": 1, "max_ns": ..., ...}, ...},
//!   "unix_ms": 1754500000000
//! }
//! ```

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::Snapshot;

/// Schema identifier stamped into every report; bump on breaking layout
/// changes so the CI gate can refuse mixed-version comparisons.
pub const REPORT_SCHEMA: &str = "cbmf-trace-report/1";

/// Caller-supplied report context: the run label and free-form metadata
/// (training sizes, seeds, thresholds, ...).
#[derive(Debug, Clone, Default)]
pub struct ReportMeta {
    /// Short run label; also used in the `trace_<run>.json` file name.
    pub run: String,
    /// Free-form key→value metadata recorded under `"meta"`.
    pub meta: BTreeMap<String, Json>,
}

impl ReportMeta {
    /// Creates a report context with the given run label.
    pub fn new(run: impl Into<String>) -> Self {
        ReportMeta {
            run: run.into(),
            meta: BTreeMap::new(),
        }
    }

    /// Adds one metadata entry (builder style).
    pub fn with(mut self, key: impl Into<String>, value: Json) -> Self {
        self.meta.insert(key.into(), value);
        self
    }
}

/// Renders a snapshot as a schema-versioned report document.
pub fn render_report(meta: &ReportMeta, snap: &Snapshot) -> Json {
    let spans: BTreeMap<String, Json> = snap
        .spans
        .iter()
        .map(|(path, s)| {
            (
                path.clone(),
                Json::obj([
                    ("count".to_string(), Json::Num(s.count as f64)),
                    ("total_ns".to_string(), Json::Num(s.total_ns as f64)),
                    ("min_ns".to_string(), Json::Num(s.min_ns as f64)),
                    ("max_ns".to_string(), Json::Num(s.max_ns as f64)),
                ]),
            )
        })
        .collect();
    let counters: BTreeMap<String, Json> = snap
        .counters
        .iter()
        .map(|(name, v)| (name.to_string(), Json::Num(*v as f64)))
        .collect();
    let gauges: BTreeMap<String, Json> = snap
        .gauges
        .iter()
        .map(|(name, v)| (name.to_string(), Json::Num(*v)))
        .collect();
    let histograms: BTreeMap<String, Json> = snap
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .map(|(name, h)| {
            (
                name.to_string(),
                Json::obj([
                    ("count".to_string(), Json::Num(h.count as f64)),
                    ("min_ns".to_string(), Json::Num(h.min as f64)),
                    ("max_ns".to_string(), Json::Num(h.max as f64)),
                    (
                        "p50_ns".to_string(),
                        Json::Num(h.quantile(0.50).unwrap_or(0.0).round()),
                    ),
                    (
                        "p95_ns".to_string(),
                        Json::Num(h.quantile(0.95).unwrap_or(0.0).round()),
                    ),
                    (
                        "p99_ns".to_string(),
                        Json::Num(h.quantile(0.99).unwrap_or(0.0).round()),
                    ),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("schema".to_string(), Json::Str(REPORT_SCHEMA.to_string())),
        ("run".to_string(), Json::Str(meta.run.clone())),
        ("meta".to_string(), Json::Obj(meta.meta.clone())),
        ("host".to_string(), host_meta()),
        ("unix_ms".to_string(), Json::Num(unix_ms())),
        ("spans".to_string(), Json::Obj(spans)),
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        ("histograms".to_string(), Json::Obj(histograms)),
    ])
}

/// Host metadata shared by trace reports and the bench suite: logical core
/// count, OS, and architecture.
pub fn host_meta() -> Json {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    Json::obj([
        ("threads".to_string(), Json::Num(threads as f64)),
        (
            "os".to_string(),
            Json::Str(std::env::consts::OS.to_string()),
        ),
        (
            "arch".to_string(),
            Json::Str(std::env::consts::ARCH.to_string()),
        ),
    ])
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_ms() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as f64)
        .unwrap_or(0.0)
}

/// Renders the *current* snapshot under `meta` and writes it to
/// `<dir>/trace_<run>.json` (pretty, sorted keys). Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors; the directory is created if missing.
pub fn write_report(dir: &Path, meta: &ReportMeta) -> io::Result<PathBuf> {
    let doc = render_report(meta, &crate::snapshot());
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace_{}.json", meta.run));
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

/// Appends the report as one compact NDJSON line to `path` (created if
/// missing) — the accumulating log form, one record per run.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_ndjson(path: &Path, doc: &Json) -> io::Result<()> {
    use io::Write as _;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", doc.to_compact())
}

/// Validates the fixed skeleton of a report document: schema string, run
/// label, and the three trace sections. Returns a human-readable reason on
/// failure. The CI gate calls this before trusting any numbers.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == REPORT_SCHEMA => {}
        Some(s) => return Err(format!("schema '{s}' != '{REPORT_SCHEMA}'")),
        None => return Err("missing 'schema' field".to_string()),
    }
    if doc.get("run").and_then(Json::as_str).is_none() {
        return Err("missing 'run' label".to_string());
    }
    for section in ["spans", "counters", "gauges", "host"] {
        if doc.get(section).and_then(Json::as_obj).is_none() {
            return Err(format!("missing '{section}' object"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{clear_enabled_override, reset, set_enabled, span, Counter, Gauge, Histogram};

    #[test]
    #[cfg(feature = "trace")]
    fn report_round_trips_through_json() {
        let _l = crate::tests::test_lock();
        set_enabled(true);
        reset();
        static C: Counter = Counter::new("test.report.sims");
        static G: Gauge = Gauge::new("test.report.err_pct");
        static H: Histogram = Histogram::new("test.report.latency_ns");
        C.add(256);
        G.set(3.25);
        for v in [900, 1_000, 1_100, 50_000] {
            H.record(v);
        }
        {
            let _fit = span("fit");
            let _init = span("init");
        }
        let meta = ReportMeta::new("unit").with("seed", Json::Num(7.0));
        let doc = render_report(&meta, &crate::snapshot());
        clear_enabled_override();

        validate_report(&doc).unwrap();
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(REPORT_SCHEMA));
        assert_eq!(parsed.get("run").unwrap().as_str(), Some("unit"));
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("test.report.sims")
                .unwrap()
                .as_u64(),
            Some(256)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .unwrap()
                .get("test.report.err_pct")
                .unwrap()
                .as_f64(),
            Some(3.25)
        );
        let hist = parsed
            .get("histograms")
            .unwrap()
            .get("test.report.latency_ns")
            .unwrap();
        assert_eq!(hist.get("count").unwrap().as_u64(), Some(4));
        assert_eq!(hist.get("min_ns").unwrap().as_u64(), Some(900));
        assert_eq!(hist.get("max_ns").unwrap().as_u64(), Some(50_000));
        assert!(hist.get("p50_ns").unwrap().as_f64().unwrap() >= 900.0);
        assert!(hist.get("p99_ns").unwrap().as_f64().unwrap() <= 50_000.0);
        let spans = parsed.get("spans").unwrap().as_obj().unwrap();
        assert!(spans.contains_key("fit"));
        assert!(spans.contains_key("fit/init"));
        assert_eq!(spans["fit/init"].get("count").unwrap().as_u64(), Some(1));
        assert!(parsed.get("host").unwrap().get("threads").is_some());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        assert!(validate_report(&Json::Null).is_err());
        let doc = Json::parse(r#"{"schema": "other/9"}"#).unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("other/9"));
        let doc = Json::parse(
            r#"{"schema": "cbmf-trace-report/1", "run": "x", "spans": {}, "counters": {}, "gauges": {}}"#,
        )
        .unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("host"));
    }
}
