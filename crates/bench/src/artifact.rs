//! Artifact serialization benchmark: JSON `cbmf-model/1` vs binary
//! `cbmf-model/2` save/load times at paper scale, written to
//! `BENCH_artifact.json` at the repository root.
//!
//! The workload is the serving suite's synthetic GP artifact
//! ([`crate::serve::serving_gp_artifact`]) at the paper's d =
//! [`ARTIFACT_VARIABLES`] variation variables with
//! [`ARTIFACT_ROWS_PER_STATE`] posterior training rows per state — a
//! multi-megabyte document dominated by `f64` payloads (the Cholesky
//! factor, the per-state bases), which is exactly the regime the binary
//! format exists for: JSON spends its time formatting and parsing decimal
//! numbers, the binary reader bulk-copies bits.
//!
//! The acceptance bar is the [`MIN_BINARY_SPEEDUP`]× **load** speedup
//! (minimum JSON load time over minimum binary load time, same host, same
//! bytes): a `floor` row of the report, asserted on the committed baseline
//! by a unit test here and on fresh runs by the `ci_gate` binary, next to
//! a `floor` row demanding the binary encoding be at least one byte
//! smaller than the JSON one. As in every timed suite, the **minimum** over
//! repetitions is the gated statistic.

use std::path::PathBuf;

use cbmf_serve::ModelArtifact;

use crate::gate::{Report, Rule};
use crate::kernels::{time_stats, Calibration};
use crate::predict::{STATES, SUPPORT};

/// The paper's LNA variation dimensionality (Wang & Li, DAC 2016) — the
/// suite's default workload dimension.
pub const ARTIFACT_VARIABLES: usize = 1300;

/// Posterior training rows per state of the default workload: `8 × 64`
/// total rows keep the Cholesky factor dense-but-CI-sized while the
/// per-state bases (`64 × 1300` each) dominate the document.
pub const ARTIFACT_ROWS_PER_STATE: usize = 64;

/// The acceptance bar: the binary load must be at least this many times
/// faster than the JSON load of the same artifact, by minimum times.
pub const MIN_BINARY_SPEEDUP: f64 = 5.0;

/// Workload dimensions of one suite run.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactLoad {
    /// Variation variables of the synthetic model.
    pub variables: usize,
    /// Posterior training rows per state.
    pub rows_per_state: usize,
}

impl Default for ArtifactLoad {
    fn default() -> Self {
        ArtifactLoad {
            variables: ARTIFACT_VARIABLES,
            rows_per_state: ARTIFACT_ROWS_PER_STATE,
        }
    }
}

/// Wall-clock `(median, min)` save and load nanoseconds of both encodings
/// of one artifact; loads include validation. Minima are gated.
#[derive(Debug, Clone, Copy)]
pub struct ArtifactResult {
    /// Size of the canonical JSON encoding, bytes.
    pub json_bytes: u64,
    /// Size of the binary encoding, bytes.
    pub bin_bytes: u64,
    /// Writing the JSON encoding.
    pub json_save: (u128, u128),
    /// Loading the JSON encoding.
    pub json_load: (u128, u128),
    /// Writing the binary encoding.
    pub bin_save: (u128, u128),
    /// Loading the binary encoding.
    pub bin_load: (u128, u128),
}

/// The load speedup a result demonstrates: minimum JSON load time over
/// minimum binary load time (a same-host ratio — no calibration scaling).
pub fn binary_speedup(r: &ArtifactResult) -> f64 {
    r.json_load.1 as f64 / r.bin_load.1.max(1) as f64
}

/// Times `reps` save/load repetitions of both encodings of the synthetic
/// GP artifact at `load`'s dimensions, through real files in a process-
/// scoped temp directory. Loads go through the public loaders
/// ([`ModelArtifact::load`] / [`ModelArtifact::load_binary`]), so parse
/// *and* validation cost is measured — that is what a serving process pays.
///
/// # Panics
///
/// Panics on filesystem failure or if the two encodings disagree about the
/// model (the losslessness cross-check) — harness-level conditions.
pub fn run_artifact_suite(reps: usize, load: ArtifactLoad) -> ArtifactResult {
    let artifact = crate::serve::serving_gp_artifact(load.variables, load.rows_per_state);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "cbmf_bench_artifact_{}_{}",
        std::process::id(),
        load.variables
    ));
    std::fs::create_dir_all(&dir).expect("create artifact bench dir");
    let json_path = dir.join("workload.cbmf.json");
    let bin_path = dir.join("workload.cbmf.bin");

    let json_save = time_stats(reps, || artifact.save(&json_path).expect("save json"));
    let bin_save = time_stats(reps, || {
        artifact.save_binary(&bin_path).expect("save binary")
    });
    let json_load = time_stats(reps, || {
        std::hint::black_box(ModelArtifact::load(&json_path).expect("load json"));
    });
    let bin_load = time_stats(reps, || {
        std::hint::black_box(ModelArtifact::load_binary(&bin_path).expect("load binary"));
    });

    // Losslessness cross-check, once, outside the timed region: both files
    // decode to the identical model bits.
    let from_json = ModelArtifact::load(&json_path).expect("load json");
    let from_bin = ModelArtifact::load_binary(&bin_path).expect("load binary");
    assert_eq!(
        from_json.to_binary_bytes(),
        from_bin.to_binary_bytes(),
        "json and binary encodings decoded to different models"
    );

    let json_bytes = std::fs::metadata(&json_path).expect("stat json").len();
    let bin_bytes = std::fs::metadata(&bin_path).expect("stat binary").len();
    std::fs::remove_dir_all(&dir).ok();

    ArtifactResult {
        json_bytes,
        bin_bytes,
        json_save,
        json_load,
        bin_save,
        bin_load,
    }
}

/// Renders a suite result as an `artifact` report.
pub fn report(
    r: &ArtifactResult,
    reps: usize,
    load: ArtifactLoad,
    calibration: Calibration,
) -> Report {
    let mut out = Report::new("artifact", Some(calibration));
    out.info("reps", reps as f64, "count");
    let workload = [
        ("rows_per_state", load.rows_per_state),
        ("states", STATES),
        ("support", SUPPORT),
        ("variables", load.variables),
    ];
    for (name, v) in workload {
        out.info(format!("workload.{name}"), v as f64, "count");
    }
    out.timing("binary.load", r.bin_load);
    out.timing("binary.save", r.bin_save);
    out.timing("json.load", r.json_load);
    out.timing("json.save", r.json_save);
    out.info("sizes.bin_bytes", r.bin_bytes as f64, "bytes");
    out.info("sizes.json_bytes", r.json_bytes as f64, "bytes");
    out.push("load_speedup", binary_speedup(r), "x", Rule::Floor)
        .limit(MIN_BINARY_SPEEDUP);
    let saved = r.json_bytes as f64 - r.bin_bytes as f64;
    out.push("sizes.bytes_saved", saved, "bytes", Rule::Floor)
        .limit(1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::baseline_path;
    use crate::kernels::cal;

    fn tiny_load() -> ArtifactLoad {
        ArtifactLoad {
            variables: 40,
            rows_per_state: 4,
        }
    }

    fn mk(json_load: u128, bin_load: u128) -> ArtifactResult {
        ArtifactResult {
            json_bytes: 1000,
            bin_bytes: 300,
            json_save: (json_load, json_load),
            json_load: (json_load, json_load),
            bin_save: (bin_load, bin_load),
            bin_load: (bin_load, bin_load),
        }
    }

    #[test]
    fn suite_times_both_encodings_and_validates() {
        let r = run_artifact_suite(1, tiny_load());
        assert!(r.json_bytes > 0 && r.bin_bytes > 0);
        assert!(
            r.bin_bytes < r.json_bytes,
            "binary must be the smaller encoding"
        );
        assert!(r.json_load.1 >= 1 && r.bin_load.1 >= 1);
        assert!(r.json_load.1 <= r.json_load.0 && r.bin_load.1 <= r.bin_load.0);
        let doc = report(&r, 1, tiny_load(), cal(123, 456));
        assert_eq!(Report::parse(&doc.render()).unwrap(), doc);
        assert_eq!(
            doc.value("sizes.bytes_saved"),
            Some((r.json_bytes - r.bin_bytes) as f64)
        );
    }

    #[test]
    fn merge_min_takes_elementwise_minimum() {
        let mut acc = report(&mk(100, 10), 1, tiny_load(), cal(1, 1));
        acc.merge_min(&report(&mk(80, 12), 1, tiny_load(), cal(1, 1)));
        assert_eq!(acc.value("json.load_min_ns"), Some(80.0));
        assert_eq!(acc.value("binary.load_min_ns"), Some(10.0));
        assert_eq!(acc.value("json.save_min_ns"), Some(80.0));
        assert_eq!(acc.value("binary.save_min_ns"), Some(10.0));
        assert_eq!(acc.value("load_speedup"), Some(10.0));
    }

    #[test]
    fn validate_rejects_malformed_reports() {
        let text = report(&mk(100, 10), 3, tiny_load(), cal(100, 200)).render();
        assert!(Report::parse(&text).is_ok());
        let no_limit = text.replacen("\"limit\":5,", "", 1);
        assert!(Report::parse(&no_limit)
            .unwrap_err()
            .contains("load_speedup"));
        let info_limit = text.replacen("\"id\":\"reps\",", "\"id\":\"reps\",\"limit\":1,", 1);
        assert!(Report::parse(&info_limit).unwrap_err().contains("limit"));
    }

    /// The committed baseline must parse, be in canonical form, and — the
    /// acceptance bar of the binary format — record a load speedup of at
    /// least [`MIN_BINARY_SPEEDUP`]× at paper scale. A failure here means
    /// `BENCH_artifact.json` needs regenerating via `ci_gate --write-baseline artifact`.
    #[test]
    fn committed_artifact_baseline_meets_the_speedup_floor() {
        let text = std::fs::read_to_string(baseline_path("artifact")).unwrap();
        let doc = Report::parse(&text).unwrap();
        assert_eq!(doc.render(), text, "BENCH_artifact.json is not canonical");
        let measured =
            doc.value("json.load_min_ns").unwrap() / doc.value("binary.load_min_ns").unwrap();
        assert_eq!(doc.value("load_speedup"), Some(measured));
        assert!(
            measured >= MIN_BINARY_SPEEDUP,
            "committed baseline's binary load is only {measured:.2}x faster than JSON \
             (< {MIN_BINARY_SPEEDUP}x floor)"
        );
        // The paper-scale workload is what the floor is about.
        assert_eq!(
            doc.value("workload.variables"),
            Some(ARTIFACT_VARIABLES as f64)
        );
    }
}
