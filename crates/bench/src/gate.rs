//! The one report envelope every committed bench writes, and the one gate
//! that compares a fresh run against it.
//!
//! Every `BENCH_*.json` and `BASELINE_accuracy.json` is a [`Report`]:
//!
//! ```text
//! {"schema": "cbmf-bench/1", "bench": "<suite>", "host": {...},
//!  "calibration": {"cache_ns": .., "dram_ns": ..} | null,
//!  "rows": [{"id": .., "value": .., "unit": .., "rule": .., ["limit": ..], ["probe": "dram"]}]}
//! ```
//!
//! Each row names the [`Rule`] the gate applies to it. With `b` the
//! committed baseline value, `c` the candidate value and `tol` the relative
//! tolerance ([`DEFAULT_TOL`] unless overridden):
//!
//! | rule | passes when |
//! |------|-------------|
//! | `min_time` | `c ≤ b · scale · (1 + tol)`; `scale` is the candidate/baseline ratio of the cache probe, or of the DRAM probe for `"probe": "dram"` rows |
//! | `drift` | `c ≤ b · (1 + tol) + 0.01` |
//! | `exact` | `c = b` |
//! | `ceiling` | `c ≤ b` |
//! | `floor` | `c ≥ limit / (1 + tol)` |
//! | `bitwise` | `c = 1` |
//! | `dominates` | `c ≤ limit · (1 + tol) + 0.01` |
//! | `info` | never gated (recorded for readers) |
//!
//! `min_time`, `drift`, `exact` and `ceiling` compare the candidate with the
//! baseline. `floor`, `bitwise` and `dominates` are claims a run makes about
//! itself — the coalescing gain, C-BMF beating each backend at equal budget,
//! a one-chunk stream reproducing the batch fit — so their `value` and
//! `limit` are read from the candidate; the baseline row only demands that
//! the claim be present. Every gated baseline row must exist in the
//! candidate; candidate-only rows are additions, not regressions.
//!
//! Minimum times are the timed statistic throughout: scheduling noise only
//! ever adds time, so minima are what a busy runner reproduces. The two
//! calibration probes ([`crate::kernels::Calibration`]) let a runner of
//! different core or memory speed compare against a baseline recorded
//! elsewhere.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use cbmf_trace::Json;

use crate::kernels::{host_with_isa, Calibration};

/// Schema tag of every bench report.
pub const SCHEMA: &str = "cbmf-bench/1";

/// Default relative tolerance of the gate (20 %).
pub const DEFAULT_TOL: f64 = 0.20;

/// Absolute slack of the `drift` and `dominates` rules, in the row's units
/// (error percent): keeps near-zero baselines from rejecting round-off.
pub const ACCURACY_ABS_SLACK: f64 = 0.01;

/// Every committed bench, in gating order.
pub const BENCHES: [&str; 7] = [
    "kernels", "predict", "serve", "artifact", "accuracy", "backends", "stream",
];

/// Path of a bench's committed baseline at the repository root.
pub fn baseline_path(bench: &str) -> PathBuf {
    let name = if bench == "accuracy" {
        "BASELINE_accuracy.json".to_string()
    } else {
        format!("BENCH_{bench}.json")
    };
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(name)
}

/// How the gate judges one row (see the module docs for the table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Calibration-scaled minimum time, compared with the baseline.
    MinTime,
    /// Relative-plus-absolute tolerance above the baseline.
    Drift,
    /// Equal to the baseline.
    Exact,
    /// At most the baseline.
    Ceiling,
    /// At least the row's `limit`, relaxed by the tolerance.
    Floor,
    /// A candidate-side boolean (1 = holds) that must hold.
    Bitwise,
    /// At most the row's `limit` (another number of the same run), within
    /// the `drift` tolerance.
    Dominates,
    /// Recorded, never gated.
    Info,
}

impl Rule {
    /// Every rule with its name in a report, in table order.
    pub const ALL: [(Rule, &'static str); 8] = [
        (Rule::MinTime, "min_time"),
        (Rule::Drift, "drift"),
        (Rule::Exact, "exact"),
        (Rule::Ceiling, "ceiling"),
        (Rule::Floor, "floor"),
        (Rule::Bitwise, "bitwise"),
        (Rule::Dominates, "dominates"),
        (Rule::Info, "info"),
    ];

    /// The rule's name in a report.
    pub fn name(self) -> &'static str {
        Rule::ALL
            .iter()
            .find(|(r, _)| *r == self)
            .expect("every rule")
            .1
    }
}

/// One measured or derived number of a report.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Stable identifier, unique within the report.
    pub id: String,
    /// The number.
    pub value: f64,
    /// Unit label (`ns`, `%`, `count`, `bytes`, `x`, `bool`, ...).
    pub unit: String,
    /// How the gate judges the row.
    pub rule: Rule,
    /// The bound of a `floor` or `dominates` row.
    pub limit: Option<f64>,
    /// Whether a `min_time` row scales by the DRAM probe instead of the
    /// cache probe (its working set leaves the last-level cache).
    pub dram: bool,
}

impl Row {
    /// Sets the bound of a `floor` or `dominates` row.
    pub fn limit(&mut self, limit: f64) -> &mut Row {
        self.limit = Some(limit);
        self
    }

    /// Scales a `min_time` row by the DRAM probe.
    pub fn on_dram(&mut self) -> &mut Row {
        self.dram = true;
        self
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::Str(self.id.clone())),
            ("value".to_string(), Json::Num(self.value)),
            ("unit".to_string(), Json::Str(self.unit.clone())),
            ("rule".to_string(), Json::Str(self.rule.name().to_string())),
        ];
        if let Some(limit) = self.limit {
            fields.push(("limit".to_string(), Json::Num(limit)));
        }
        if self.dram {
            fields.push(("probe".to_string(), Json::Str("dram".to_string())));
        }
        Json::obj(fields)
    }

    fn from_json(doc: &Json) -> Result<Row, String> {
        let id = doc
            .get("id")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or("row without an 'id'")?;
        let bad = |what: &str| format!("row '{id}': {what}");
        let value = doc
            .get("value")
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite())
            .ok_or_else(|| bad("missing or non-finite 'value'"))?;
        let unit = doc
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing 'unit'"))?;
        let rule_name = doc.get("rule").and_then(Json::as_str).unwrap_or("");
        let rule = Rule::ALL
            .into_iter()
            .find(|(_, name)| *name == rule_name)
            .ok_or_else(|| bad(&format!("unknown rule '{rule_name}'")))?
            .0;
        let limit = doc.get("limit").and_then(Json::as_f64);
        if matches!(rule, Rule::Floor | Rule::Dominates) != limit.is_some() {
            return Err(bad(
                "a 'limit' belongs to exactly the floor and dominates rules",
            ));
        }
        let dram = match doc.get("probe") {
            None => false,
            Some(Json::Str(p)) if p == "dram" && rule == Rule::MinTime => true,
            Some(_) => return Err(bad("'probe' must be \"dram\" on a min_time row")),
        };
        Ok(Row {
            id: id.to_string(),
            value,
            unit: unit.to_string(),
            rule,
            limit,
            dram,
        })
    }
}

/// One bench run in the shared envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Suite name, one of [`BENCHES`].
    pub bench: String,
    /// Host descriptor (`threads`, `os`, `arch`, `simd_isa`).
    pub host: Json,
    /// Host-speed probes; required when any row is `min_time`.
    pub calibration: Option<Calibration>,
    /// Rows in emission order.
    pub rows: Vec<Row>,
}

impl Report {
    /// An empty report for this host.
    pub fn new(bench: &str, calibration: Option<Calibration>) -> Report {
        Report {
            bench: bench.to_string(),
            host: host_with_isa(),
            calibration,
            rows: Vec::new(),
        }
    }

    /// Appends a row and returns it for [`Row::limit`] / [`Row::on_dram`].
    pub fn push(&mut self, id: impl Into<String>, value: f64, unit: &str, rule: Rule) -> &mut Row {
        self.rows.push(Row {
            id: id.into(),
            value,
            unit: unit.to_string(),
            rule,
            limit: None,
            dram: false,
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// Appends an `info` row.
    pub fn info(&mut self, id: impl Into<String>, value: f64, unit: &str) -> &mut Row {
        self.push(id, value, unit, Rule::Info)
    }

    /// Appends the `{id}_median_ns` (info) and `{id}_min_ns` (`min_time`)
    /// rows of one `(median, min)` timing, returning the gated row.
    pub fn timing(&mut self, id: &str, (median, min): (u128, u128)) -> &mut Row {
        self.info(format!("{id}_median_ns"), median as f64, "ns");
        self.push(format!("{id}_min_ns"), min as f64, "ns", Rule::MinTime)
    }

    /// The row with this id.
    pub fn row(&self, id: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// The value of the row with this id.
    pub fn value(&self, id: &str) -> Option<f64> {
        self.row(id).map(|r| r.value)
    }

    /// The canonical text: sorted envelope keys, one row per line, rows in
    /// emission order. Parsing and re-rendering reproduces it byte for byte.
    pub fn render(&self) -> String {
        let calibration = match self.calibration {
            Some(c) => Json::obj([
                ("cache_ns".to_string(), Json::Num(c.cache_ns as f64)),
                ("dram_ns".to_string(), Json::Num(c.dram_ns as f64)),
            ]),
            None => Json::Null,
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("    {}", r.to_json().to_compact()))
            .collect();
        format!(
            "{{\n  \"bench\": {},\n  \"calibration\": {},\n  \"host\": {},\n  \"rows\": [\n{}\n  ],\n  \"schema\": \"{SCHEMA}\"\n}}\n",
            Json::Str(self.bench.clone()).to_compact(),
            calibration.to_compact(),
            self.host.to_compact(),
            rows.join(",\n"),
        )
    }

    /// Parses and validates a report document.
    ///
    /// # Errors
    ///
    /// A reason string for malformed JSON or a document outside the
    /// envelope: wrong schema, missing bench or host, bad calibration, no
    /// rows, duplicate ids, unknown rules, a misplaced `limit` or `probe`,
    /// or a `min_time` row without calibration.
    pub fn parse(text: &str) -> Result<Report, String> {
        let doc = Json::parse(text).map_err(|e| format!("parse: {e}"))?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("schema {other:?} is not '{SCHEMA}'")),
        }
        let bench = doc
            .get("bench")
            .and_then(Json::as_str)
            .filter(|s| !s.is_empty())
            .ok_or("missing 'bench'")?;
        let host = doc
            .get("host")
            .filter(|h| h.as_obj().is_some())
            .ok_or("missing 'host' object")?;
        let calibration = match doc.get("calibration") {
            None | Some(Json::Null) => None,
            Some(c) => {
                let probe = |k: &str| {
                    c.get(k)
                        .and_then(Json::as_f64)
                        .filter(|v| *v > 0.0)
                        .map(|v| v as u128)
                        .ok_or(format!("missing or non-positive 'calibration.{k}'"))
                };
                Some(Calibration {
                    cache_ns: probe("cache_ns")?,
                    dram_ns: probe("dram_ns")?,
                })
            }
        };
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .filter(|r| !r.is_empty())
            .ok_or("missing or empty 'rows'")?
            .iter()
            .map(Row::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut seen = HashSet::new();
        for r in &rows {
            if !seen.insert(r.id.as_str()) {
                return Err(format!("duplicate row id '{}'", r.id));
            }
            if r.rule == Rule::MinTime && calibration.is_none() {
                return Err(format!("min_time row '{}' needs a calibration", r.id));
            }
        }
        Ok(Report {
            bench: bench.to_string(),
            host: host.clone(),
            calibration,
            rows,
        })
    }

    /// Reads and validates a report file.
    ///
    /// # Errors
    ///
    /// A reason string naming the path on read or validation failure.
    pub fn load(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Report::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes [`Report::render`] to `path`, creating its directory.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written (a harness-level condition).
    pub fn save(&self, path: &Path) {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create report directory");
        }
        std::fs::write(path, self.render())
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }

    /// Folds a re-run into this report: nanosecond rows and probes keep the
    /// minimum (noise only adds time), `floor` rows the maximum, and every
    /// other row its first value. Retrying a timing suite this way filters
    /// scheduling noise while a genuine slowdown fails every attempt.
    pub fn merge_min(&mut self, rerun: &Report) {
        if let (Some(a), Some(b)) = (self.calibration, rerun.calibration) {
            self.calibration = Some(a.min_with(b));
        }
        for r in &mut self.rows {
            let Some(n) = rerun.row(&r.id) else { continue };
            if r.rule == Rule::Floor {
                r.value = r.value.max(n.value);
            } else if r.unit == "ns" {
                r.value = r.value.min(n.value);
            }
        }
    }
}

/// One comparison the gate performed, in table-renderable form. A
/// `candidate` of NaN marks a row missing from the candidate.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// The row id.
    pub check: String,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value (NaN when missing).
    pub candidate: f64,
    /// The threshold the rule derived: the largest passing candidate value,
    /// or the smallest for `floor` rows.
    pub allowed: f64,
    /// Whether this comparison passed.
    pub passed: bool,
}

/// Outcome of gating one report: every comparison, with its failures.
#[derive(Debug, Clone, Default)]
pub struct GateOutcome {
    /// Human-readable failure lines; empty means the gate passed.
    pub failures: Vec<String>,
    /// Every comparison as a structured row (for the CI verdict table).
    pub rows: Vec<GateRow>,
}

impl GateOutcome {
    /// True when every comparison passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compares a candidate run with the committed baseline of the same bench
/// under each gated baseline row's [`Rule`].
///
/// # Errors
///
/// A reason string when the two reports belong to different benches, or a
/// `min_time` row cannot be scaled because the candidate has no
/// calibration.
pub fn gate(baseline: &Report, candidate: &Report, tol: f64) -> Result<GateOutcome, String> {
    if baseline.bench != candidate.bench {
        return Err(format!(
            "candidate bench '{}' is not baseline bench '{}'",
            candidate.bench, baseline.bench
        ));
    }
    let scales = match (baseline.calibration, candidate.calibration) {
        (Some(b), Some(c)) => Some((
            c.cache_ns as f64 / b.cache_ns as f64,
            c.dram_ns as f64 / b.dram_ns as f64,
        )),
        _ => None,
    };
    let mut out = GateOutcome::default();
    for b in baseline.rows.iter().filter(|r| r.rule != Rule::Info) {
        let c = candidate.row(&b.id);
        let value = c.map_or(f64::NAN, |c| c.value);
        let limit = c.and_then(|c| c.limit).unwrap_or(f64::NAN);
        let (allowed, passed) = match b.rule {
            Rule::MinTime => {
                let (cache, dram) =
                    scales.ok_or(format!("min_time row '{}' without calibration", b.id))?;
                let allowed = b.value * if b.dram { dram } else { cache } * (1.0 + tol);
                (allowed, value <= allowed)
            }
            Rule::Drift => {
                let allowed = b.value * (1.0 + tol) + ACCURACY_ABS_SLACK;
                (allowed, value <= allowed)
            }
            Rule::Exact => (b.value, value == b.value),
            Rule::Ceiling => (b.value, value <= b.value),
            Rule::Floor => {
                let allowed = limit / (1.0 + tol);
                (allowed, value >= allowed)
            }
            Rule::Bitwise => (1.0, value == 1.0),
            Rule::Dominates => {
                let allowed = limit * (1.0 + tol) + ACCURACY_ABS_SLACK;
                (allowed, value <= allowed)
            }
            Rule::Info => unreachable!("filtered above"),
        };
        out.rows.push(GateRow {
            check: b.id.clone(),
            baseline: b.value,
            candidate: value,
            allowed,
            passed,
        });
        if c.is_none() {
            out.failures
                .push(format!("{}: missing from candidate run", b.id));
        } else if !passed {
            let probe = if b.dram { ", dram probe" } else { "" };
            out.failures.push(format!(
                "{}: {value} {} fails {} (allowed {allowed:.4}, baseline {}{probe})",
                b.id,
                b.unit,
                b.rule.name(),
                b.value
            ));
        }
    }
    Ok(out)
}

fn fmt_cell(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the verdict table CI posts to `$GITHUB_STEP_SUMMARY`: one line
/// per comparison across every gated bench, baseline vs candidate vs the
/// allowed threshold, then the failures.
pub fn render_step_summary(gates: &[(&str, &GateOutcome)]) -> String {
    let mut out = String::from("## CI regression gate verdict\n\n");
    out.push_str("| gate | check | baseline | candidate | allowed | verdict |\n");
    out.push_str("|------|-------|---------:|----------:|--------:|:-------:|\n");
    for (label, outcome) in gates {
        for r in &outcome.rows {
            out.push_str(&format!(
                "| {label} | {} | {} | {} | {} | {} |\n",
                r.check,
                fmt_cell(r.baseline),
                fmt_cell(r.candidate),
                fmt_cell(r.allowed),
                if r.passed { "✅" } else { "❌" }
            ));
        }
    }
    let failures: usize = gates.iter().map(|(_, o)| o.failures.len()).sum();
    let checked: usize = gates.iter().map(|(_, o)| o.rows.len()).sum();
    if failures == 0 {
        out.push_str(&format!("\nAll {checked} comparisons passed.\n"));
    } else {
        out.push_str(&format!(
            "\n**{failures} of {checked} comparisons failed:**\n\n"
        ));
        for (label, outcome) in gates {
            for f in &outcome.failures {
                out.push_str(&format!("- {label}: {f}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal(cache_ns: u128, dram_ns: u128) -> Option<Calibration> {
        Some(crate::kernels::cal(cache_ns, dram_ns))
    }

    /// A report of `(id, value, rule)` rows; `limits` gives the bound of
    /// each floor or dominates row by id.
    fn doc(
        bench: &str,
        calibration: Option<Calibration>,
        rows: &[(&str, f64, Rule)],
        limits: &[(&str, f64)],
    ) -> Report {
        let mut r = Report::new(bench, calibration);
        for &(id, value, rule) in rows {
            let unit = if rule == Rule::MinTime { "ns" } else { "u" };
            let row = r.push(id, value, unit, rule);
            if let Some(&(_, l)) = limits.iter().find(|(lid, _)| *lid == id) {
                row.limit(l);
            }
        }
        r
    }

    /// Ids of the rows the candidate fails.
    fn failing(b: &Report, c: &Report) -> Vec<String> {
        let out = gate(b, c, DEFAULT_TOL).unwrap();
        assert_eq!(
            out.failures.len(),
            out.rows.iter().filter(|r| !r.passed).count()
        );
        let ids = out.rows.iter().filter(|r| !r.passed);
        ids.map(|r| r.check.clone()).collect()
    }

    fn kernels(serial: f64, parallel: f64, cal_ns: u128) -> Report {
        let rows = [
            ("matmul.serial_min_ns", serial, Rule::MinTime),
            ("matmul.parallel_min_ns", parallel, Rule::MinTime),
            ("matmul.serial_median_ns", serial, Rule::Info),
        ];
        doc("kernels", cal(cal_ns, cal_ns), &rows, &[])
    }

    fn predict(serial: f64, cal_ns: u128, dram_ns: u128, dram_row: bool) -> Report {
        let mut r = Report::new("predict", cal(cal_ns, dram_ns));
        r.push("batch.serial_min_ns", serial, "ns", Rule::MinTime)
            .dram = dram_row;
        r
    }

    #[test]
    fn kernel_gate_passes_identical_runs() {
        let base = kernels(1000.0, 900.0, 100);
        let out = gate(&base, &base, DEFAULT_TOL).unwrap();
        assert!(out.passed());
        assert_eq!(out.rows.len(), 2, "info rows are never gated");
    }

    #[test]
    fn kernel_gate_fails_beyond_tolerance() {
        let base = kernels(1000.0, 900.0, 100);
        let slow = kernels(1250.0, 900.0, 100);
        assert_eq!(failing(&base, &slow), ["matmul.serial_min_ns"]);
        assert!(failing(&base, &kernels(1190.0, 1050.0, 100)).is_empty());
    }

    #[test]
    fn kernel_gate_scales_thresholds_by_calibration() {
        let base = kernels(1000.0, 900.0, 100);
        assert!(failing(&base, &kernels(2000.0, 1800.0, 200)).is_empty());
        assert_eq!(failing(&base, &kernels(4000.0, 3600.0, 200)).len(), 2);
    }

    #[test]
    fn kernel_gate_flags_missing_kernels_and_bad_docs() {
        let base = kernels(1000.0, 900.0, 100);
        let mut cand = base.clone();
        cand.rows.retain(|r| r.id != "matmul.parallel_min_ns");
        let out = gate(&base, &cand, DEFAULT_TOL).unwrap();
        assert_eq!(
            out.failures,
            ["matmul.parallel_min_ns: missing from candidate run"]
        );
        // Another bench, or min_time rows without calibration, cannot be
        // gated at all.
        assert!(gate(&base, &predict(1.0, 1, 1, false), DEFAULT_TOL).is_err());
        cand.calibration = None;
        assert!(gate(&base, &cand, DEFAULT_TOL).is_err());
        assert!(Report::parse("null").is_err());
    }

    #[test]
    fn predict_gate_mirrors_kernel_gate_semantics() {
        let base = predict(240.0, 100, 100, false);
        assert!(failing(&base, &base).is_empty());
        assert_eq!(failing(&base, &predict(312.0, 100, 100, false)).len(), 1);
        assert!(failing(&base, &predict(480.0, 200, 200, false)).is_empty());
    }

    #[test]
    fn predict_gate_covers_fused_fields_when_the_baseline_has_them() {
        // Rows only the candidate carries are not gated; every row the
        // baseline carries is.
        let base = predict(150.0, 100, 100, false);
        let mut cand = base.clone();
        cand.push("batch.extra_min_ns", 1e9, "ns", Rule::MinTime);
        assert!(failing(&base, &cand).is_empty());
        assert_eq!(failing(&cand, &base), ["batch.extra_min_ns"]);
    }

    #[test]
    fn predict_gate_uses_dram_ratio_for_the_large_batch() {
        // Same core speed, half the memory bandwidth: a 1.8x slowdown passes
        // on a DRAM-probed row only, and a 2.6x one fails there too.
        let dram = predict(1000.0, 100, 500, true);
        assert!(failing(&dram, &predict(1800.0, 100, 1000, true)).is_empty());
        let cache = predict(1000.0, 100, 500, false);
        assert_eq!(failing(&cache, &predict(1800.0, 100, 1000, false)).len(), 1);
        let out = gate(&dram, &predict(2600.0, 100, 1000, true), DEFAULT_TOL).unwrap();
        assert!(out.failures[0].contains("dram probe"), "{:?}", out.failures);
    }

    #[test]
    fn gates_record_structured_rows_for_the_summary_table() {
        let base = predict(240.0, 100, 100, false);
        let out = gate(&base, &predict(312.0, 100, 100, false), DEFAULT_TOL).unwrap();
        let r = &out.rows[0];
        assert_eq!(
            (r.check.as_str(), r.baseline, r.candidate),
            ("batch.serial_min_ns", 240.0, 312.0)
        );
        assert!(!r.passed && (r.allowed - 288.0).abs() < 1e-9);
    }

    #[test]
    fn step_summary_renders_every_row_and_failure() {
        let base = predict(240.0, 100, 100, false);
        let slow = gate(&base, &predict(312.0, 100, 100, false), DEFAULT_TOL).unwrap();
        let md = render_step_summary(&[("predict", &slow)]);
        assert!(md.contains("| gate | check | baseline | candidate | allowed | verdict |"));
        assert!(md.contains("| predict | batch.serial_min_ns | 240 | 312 | 288 | ❌ |"));
        assert!(md.contains("1 of 1 comparisons failed"));
        assert!(md.contains("- predict: batch.serial_min_ns"));
        let pass = gate(&base, &base, DEFAULT_TOL).unwrap();
        let md = render_step_summary(&[("predict", &pass)]);
        assert!(md.contains("All 1 comparisons passed.") && !md.contains("❌"));
    }

    fn serve(gain: f64, co: f64, cal_ns: u128) -> Report {
        let rows = [
            ("c64.var_coalesced_min_ns", co, Rule::MinTime),
            ("c64.var_coalescing_gain", gain, Rule::Floor),
        ];
        doc(
            "serve",
            cal(cal_ns, cal_ns),
            &rows,
            &[("c64.var_coalescing_gain", 1.3)],
        )
    }

    #[test]
    fn serve_gate_passes_identical_runs_and_counts_the_gain_row() {
        let base = serve(1.6, 1000.0, 100);
        let out = gate(&base, &base, DEFAULT_TOL).unwrap();
        assert!(out.passed() && out.rows.len() == 2);
    }

    #[test]
    fn serve_gate_fails_on_min_time_regression_and_scales_by_calibration() {
        let base = serve(1.6, 1000.0, 100);
        let slow = serve(1.6, 1250.0, 100);
        assert_eq!(failing(&base, &slow), ["c64.var_coalesced_min_ns"]);
        assert!(failing(&base, &serve(1.6, 2000.0, 200)).is_empty());
    }

    #[test]
    fn serve_gate_enforces_the_coalescing_gain_floor() {
        // The floor is limit / (1 + tol) = 1.3 / 1.2 ≈ 1.083.
        let base = serve(1.6, 1000.0, 100);
        let out = gate(&base, &serve(1.05, 1000.0, 100), DEFAULT_TOL).unwrap();
        assert!(!out.rows[1].passed && (out.rows[1].allowed - 1.3 / 1.2).abs() < 1e-12);
        assert!(failing(&base, &serve(1.09, 1000.0, 100)).is_empty());
    }

    #[test]
    fn serve_gate_flags_a_missing_64_client_entry() {
        let base = serve(1.6, 1000.0, 100);
        let mut cand = base.clone();
        cand.rows.clear();
        let out = gate(&base, &cand, DEFAULT_TOL).unwrap();
        assert_eq!(out.failures.len(), 2);
        assert!(out.failures.iter().all(|f| f.contains("missing")));
    }

    fn artifact(bin_load: f64, speedup: f64, bytes_saved: f64, cal_ns: u128) -> Report {
        let rows = [
            ("binary.load_min_ns", bin_load, Rule::MinTime),
            ("load_speedup", speedup, Rule::Floor),
            ("sizes.bytes_saved", bytes_saved, Rule::Floor),
        ];
        let limits = [("load_speedup", 5.0), ("sizes.bytes_saved", 1.0)];
        doc("artifact", cal(cal_ns, cal_ns), &rows, &limits)
    }

    #[test]
    fn artifact_gate_passes_identical_runs_and_counts_every_row() {
        let base = artifact(10000.0, 10.0, 1000.0, 100);
        let out = gate(&base, &base, DEFAULT_TOL).unwrap();
        assert!(out.passed() && out.rows.len() == 3);
    }

    #[test]
    fn artifact_gate_fails_on_load_regression_and_scales_by_calibration() {
        let base = artifact(10000.0, 10.0, 1000.0, 100);
        let slow = artifact(13000.0, 10.0, 1000.0, 100);
        assert_eq!(failing(&base, &slow), ["binary.load_min_ns"]);
        assert!(failing(&base, &artifact(20000.0, 10.0, 1000.0, 200)).is_empty());
    }

    #[test]
    fn artifact_gate_enforces_the_speedup_floor_and_size_sanity() {
        let base = artifact(10000.0, 10.0, 1000.0, 100);
        // 5.0 / 1.2 ≈ 4.167: 4.175 passes, 4.083 fails.
        assert!(failing(&base, &artifact(10000.0, 4.175, 1000.0, 100)).is_empty());
        let flat = artifact(10000.0, 4.083, 1000.0, 100);
        assert_eq!(failing(&base, &flat), ["load_speedup"]);
        // A binary encoding no smaller than the JSON one saves no bytes,
        // under the 1-byte floor at any tolerance.
        let bloated = artifact(10000.0, 10.0, 0.0, 100);
        assert_eq!(failing(&base, &bloated), ["sizes.bytes_saved"]);
        assert!(failing(&base, &artifact(10000.0, 10.0, 1.0, 100)).is_empty());
    }

    fn accuracy(err: f64, support: f64, jitter: f64) -> Report {
        let rows = [
            ("synthetic.error_pct", err, Rule::Drift),
            ("synthetic.support_size", support, Rule::Exact),
            ("recovery.jitter_retries", jitter, Rule::Ceiling),
        ];
        doc("accuracy", None, &rows, &[])
    }

    #[test]
    fn accuracy_gate_passes_identical_and_improved_runs() {
        let base = accuracy(2.5, 8.0, 0.0);
        assert!(failing(&base, &base).is_empty());
        assert!(failing(&base, &accuracy(1.0, 8.0, 0.0)).is_empty());
    }

    #[test]
    fn accuracy_gate_fails_on_degradation_or_support_change() {
        let base = accuracy(2.5, 8.0, 0.0);
        assert_eq!(
            failing(&base, &accuracy(3.5, 8.0, 0.0)),
            ["synthetic.error_pct"]
        );
        assert_eq!(
            failing(&base, &accuracy(2.5, 9.0, 0.0)),
            ["synthetic.support_size"]
        );
        assert_eq!(
            failing(&base, &accuracy(2.5, 7.0, 0.0)),
            ["synthetic.support_size"]
        );
    }

    #[test]
    fn accuracy_gate_fails_when_recovery_counters_grow() {
        let base = accuracy(2.5, 8.0, 0.0);
        assert_eq!(
            failing(&base, &accuracy(2.5, 8.0, 1.0)),
            ["recovery.jitter_retries"]
        );
        // Fewer firings than the baseline is an improvement.
        assert!(failing(&accuracy(2.5, 8.0, 2.0), &base).is_empty());
    }

    #[test]
    fn accuracy_gate_absolute_slack_covers_near_zero_baselines() {
        let base = accuracy(0.0, 8.0, 0.0);
        assert!(failing(&base, &accuracy(0.009, 8.0, 0.0)).is_empty());
        assert_eq!(failing(&base, &accuracy(0.011, 8.0, 0.0)).len(), 1);
    }

    fn backends(cbmf: f64, somp: f64, support: f64) -> Report {
        let rows = [
            ("lna.cbmf.error_pct", cbmf, Rule::Drift),
            ("lna.cbmf.support_size", support, Rule::Exact),
            ("lna.somp.error_pct", somp, Rule::Drift),
            ("lna.cbmf_vs_somp", cbmf, Rule::Dominates),
        ];
        doc("backends", cal(1, 1), &rows, &[("lna.cbmf_vs_somp", somp)])
    }

    #[test]
    fn backends_gate_passes_identical_dominant_runs() {
        let base = backends(1.0, 1.5, 4.0);
        let out = gate(&base, &base, DEFAULT_TOL).unwrap();
        assert!(out.passed() && out.rows.len() == 4);
    }

    #[test]
    fn backends_gate_fails_on_error_drift_or_support_change() {
        let base = backends(1.0, 1.5, 4.0);
        assert_eq!(
            failing(&base, &backends(1.0, 1.9, 4.0)),
            ["lna.somp.error_pct"]
        );
        assert_eq!(
            failing(&base, &backends(1.0, 1.5, 5.0)),
            ["lna.cbmf.support_size"]
        );
    }

    #[test]
    fn backends_gate_fails_when_cbmf_loses_dominance() {
        // Dominance is judged within the candidate: C-BMF at 1.3 against
        // S-OMP at 1.0 exceeds 1.0 · 1.2 + 0.01 even with no drift.
        let base = backends(1.3, 1.0, 4.0);
        assert_eq!(failing(&base, &base), ["lna.cbmf_vs_somp"]);
        assert!(failing(&base, &backends(1.2, 1.0, 4.0)).is_empty());
    }

    #[test]
    fn backends_gate_rejects_malformed_documents() {
        let good = backends(1.0, 1.5, 4.0).render();
        assert!(Report::parse(&good).is_ok());
        for (from, to) in [
            ("\"rule\":\"dominates\"", "\"rule\":\"beats\""),
            ("\"limit\":1.5,", ""),
            ("cbmf-bench/1", "cbmf-bench-backends/1"),
            ("\"bench\": \"backends\"", "\"bench\": \"\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "pattern {from} not found");
            assert!(Report::parse(&bad).is_err(), "accepted {to}");
        }
    }

    fn stream(total: f64, saving: f64, bitwise: f64) -> Report {
        let rows = [
            ("lna.stream.error_pct", 1.3, Rule::Drift),
            ("lna.stream.total_samples", total, Rule::Exact),
            ("lna.full_stream_bitwise", bitwise, Rule::Bitwise),
            ("circuits_saving", saving, Rule::Floor),
        ];
        doc("stream", cal(1, 1), &rows, &[("circuits_saving", 3.0)])
    }

    #[test]
    fn stream_gate_passes_identical_saving_runs() {
        let base = stream(48.0, 4.0, 1.0);
        let out = gate(&base, &base, DEFAULT_TOL).unwrap();
        assert!(out.passed() && out.rows.len() == 4);
    }

    #[test]
    fn stream_gate_fails_on_drift_or_schedule_change() {
        let base = stream(48.0, 4.0, 1.0);
        assert_eq!(
            failing(&base, &stream(84.0, 4.0, 1.0)),
            ["lna.stream.total_samples"]
        );
    }

    #[test]
    fn stream_gate_enforces_the_savings_floor() {
        let base = stream(48.0, 4.0, 1.0);
        assert!(failing(&base, &stream(48.0, 3.0, 1.0)).is_empty());
        assert_eq!(failing(&base, &stream(48.0, 2.0, 1.0)), ["circuits_saving"]);
    }

    #[test]
    fn stream_gate_requires_bitwise_parity_everywhere() {
        let base = stream(48.0, 4.0, 1.0);
        assert_eq!(
            failing(&base, &stream(48.0, 4.0, 0.0)),
            ["lna.full_stream_bitwise"]
        );
    }

    #[test]
    fn stream_gate_rejects_malformed_documents() {
        let good = stream(48.0, 4.0, 1.0);
        let text = good.render();
        assert_eq!(Report::parse(&text).unwrap(), good, "render round-trips");
        let dup = text.replacen("lna.stream.error_pct", "lna.stream.total_samples", 1);
        assert!(Report::parse(&dup).unwrap_err().contains("duplicate"));
        let uncalibrated = text.replacen("{\"cache_ns\":1,\"dram_ns\":1}", "null", 1);
        assert!(Report::parse(&uncalibrated).is_ok(), "no min_time rows");
        let probe = "\"probe\":\"dram\",\"rule\":\"exact\"";
        let bad_probe = text.replacen("\"rule\":\"exact\"", probe, 1);
        assert!(Report::parse(&bad_probe).unwrap_err().contains("probe"));
    }

    /// The gate's self-test on every committed baseline: a baseline gated
    /// against itself passes, and perturbing one row of each rule kind it
    /// carries fails exactly that row. Together the baselines carry every
    /// gated rule.
    #[test]
    fn every_committed_baseline_catches_a_perturbed_row_of_each_rule() {
        let mut covered = HashSet::new();
        for bench in BENCHES {
            let base = Report::load(&baseline_path(bench)).unwrap();
            assert_eq!(base.bench, bench);
            assert!(failing(&base, &base).is_empty(), "{bench} fails itself");
            for (i, row) in base.rows.iter().enumerate() {
                if row.rule == Rule::Info || !covered.insert((bench, row.rule)) {
                    continue;
                }
                let mut cand = base.clone();
                let r = &mut cand.rows[i];
                r.value = match r.rule {
                    Rule::MinTime | Rule::Drift => r.value * 1.5 + 1.0,
                    Rule::Exact | Rule::Ceiling => r.value + 1.0,
                    Rule::Floor => r.limit.unwrap() / 1.5,
                    Rule::Bitwise => 0.0,
                    Rule::Dominates => r.limit.unwrap() * 1.5 + 1.0,
                    Rule::Info => unreachable!("skipped above"),
                };
                assert_eq!(failing(&base, &cand), [row.id.as_str()], "{bench}");
            }
        }
        let rules: HashSet<Rule> = covered.into_iter().map(|(_, r)| r).collect();
        assert_eq!(rules.len(), Rule::ALL.len() - 1, "{rules:?}");
    }
}
