//! Committed bench trajectory: the append-only `BENCH_history.jsonl` and
//! the regression gate behind `mobitrace bench --compare`.
//!
//! Every `mobitrace bench` run can append one [`BenchEntry`] — git SHA,
//! UTC timestamp, run label and the full flat metric map — to a JSONL
//! history file that is committed per PR, so the perf trajectory of the
//! repo lives in the repo. `--compare <baseline.jsonl>` checks the current
//! run against the committed entries and fails (exit 1, via [`gate`]) when
//! a tracked metric regresses beyond tolerance or goes missing.
//!
//! # Metric namespace
//!
//! Metrics are flat dotted keys, the stable — and only — interface of
//! `BENCH_pipeline.json` and this history. `mobitrace bench` measures
//! exactly what the gate tracks plus the raw timings its ratios come
//! from:
//!
//! - `analysis.<pass>.*` — per-pass `rows_s`, `cols_s` and their
//!   `ratio` (= `cols_s / rows_s`) for the nine gated kernels
//! - `world_scan.*` — per-call refill/replay/build micro-timings, their
//!   ratios, and the campaign-wide `plan_cache.hit_rate`
//! - `serve.query_refresh_p99_s` — per-query refresh latency over the
//!   snapshot generations of a live campaign
//!
//! `mobitrace fleet` writes `fleet.*` keys. Older history entries also
//! carry keys no current run produces (`sim.*`, `ingest.*`, `live.*`,
//! `pool.*`, `json.*`, ungated passes); they stay in the file as the
//! record of those runs and are ignored by the gate.
//!
//! # What the gate tracks
//!
//! CI benches on unknown runner hardware at `--quick` scale while the
//! committed entries come from full-scale dev runs, so absolute wall
//! clocks are not portable. The gate therefore tracks *dimensionless*
//! metrics only: each analysis kernel's columnar-vs-row-reference ratio
//! (both sides measured on the same data in the same process, which
//! cancels machine speed and dataset scale), and the scan replay/refill
//! cost normalised by plan build cost. A kernel that gets slower moves its
//! ratio up on any machine; tolerances are generous (default
//! [`DEFAULT_TOLERANCE`] plus a per-key absolute slack) to absorb
//! small-dataset noise at `--quick` scale.
//!
//! [`TRACKED_FLOOR`] keys are the mirror image: higher-is-better ratios
//! (the scan-plan cache hit rate, fleet throughput)
//! that fail when they fall below `baseline / tolerance - slack`.
//!
//! # Fleet keys are machine-sensitive
//!
//! The `fleet.*` keys are the exception to the dimensionless rule:
//! `fleet.records_per_s` is raw wall-clock throughput and
//! `fleet.enqueue_commit_p99_s` a raw latency, and both move with core
//! count, scheduler behaviour and allocator pressure. They are gated
//! anyway — an ingest-frontend regression shows up nowhere else — but
//! with deliberately generous per-key slack (tens of thousands of
//! records/s, hundreds of milliseconds), sized for cross-runner variance
//! rather than micro-noise. When comparing entries from machines of
//! different classes, expect the `moved >25%` advisory section to flag
//! fleet keys even while the gate passes; that is working as intended.
//!
//! # Mixed histories and the lookback baseline
//!
//! `mobitrace fleet` appends entries whose metric map holds only
//! `fleet.*` keys, interleaved in the same history file with full bench
//! entries. Comparing against "the last entry" would therefore find no
//! shared keys half the time; [`lookback_baseline`] merges the history
//! newest-last so each key's baseline is *the most recent entry that has
//! that key*, and the gate compares against the merge.
//!
//! # A dropped key fails
//!
//! A tracked key the baseline has must come back: a run that stops
//! producing a gated metric would otherwise pass by omission. Which keys a
//! run owes depends on its kind — a run carrying `fleet.*` keys owes the
//! tracked `fleet.*` keys, any other run owes every other tracked key —
//! and a missing one is a FAIL row. A tracked key the baseline lacks is a
//! fresh metric with no history yet, reported as skipped.

use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write as _;
use std::path::Path;

/// Default multiplicative tolerance of the regression gate: a tracked
/// metric fails when it exceeds `baseline * tolerance + slack`.
pub const DEFAULT_TOLERANCE: f64 = 1.75;

/// Gated metrics with their per-key absolute slack. All are dimensionless
/// and lower-is-better (see the module docs for why only dimensionless
/// metrics are gated).
pub const TRACKED: &[(&str, f64)] = &[
    // user_days segments (device, day) runs, and runs are short at
    // `--quick` scale, so its ratio sits higher there than in the
    // committed full-scale entries — it gets extra absolute headroom.
    ("analysis.user_days.ratio", 0.35),
    ("analysis.overview.ratio", 0.08),
    ("analysis.aggregate_series.ratio", 0.08),
    ("analysis.venue_series.ratio", 0.08),
    ("analysis.rssi.ratio", 0.08),
    ("analysis.channels.ratio", 0.08),
    ("analysis.public_aps.ratio", 0.08),
    ("analysis.offload.ratio", 0.08),
    ("analysis.apclass.ratio", 0.08),
    ("world_scan.into_ratio", 0.25),
    ("world_scan.replay_ratio", 0.25),
    // Wall-clock latency, machine-sensitive (see module docs): the slack
    // absorbs a slow runner, the ratio still catches a pipeline stall.
    ("fleet.enqueue_commit_p99_s", 0.25),
    // Serve-layer per-query refresh latency (selection + gather + index
    // rebuild + analysis passes per snapshot generation). Wall-clock and
    // machine-sensitive like the fleet keys, so the slack is generous; a
    // superlinear regression in the filter compiler or the gather path
    // still trips it.
    ("serve.query_refresh_p99_s", 0.25),
];

/// Gated metrics that are *higher*-is-better, with per-key absolute
/// slack: these fail when the current value falls below
/// `baseline / tolerance - slack`.
pub const TRACKED_FLOOR: &[(&str, f64)] = &[
    // Effective scan-plan reuse rate (shared + per-device local); a drop
    // means plan caching broke somewhere.
    ("world_scan.plan_cache.hit_rate", 0.10),
    // Raw fleet throughput — machine-sensitive, generous slack (module
    // docs).
    ("fleet.records_per_s", 50_000.0),
];

/// One committed bench run: provenance plus the flat metric map.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Short git SHA of `HEAD` when the bench ran, `+dirty` when the work
    /// tree had uncommitted changes, `unknown` outside a git checkout.
    pub git_sha: String,
    /// UTC wall-clock time of the run (RFC 3339).
    pub timestamp: String,
    /// Free-form run label (e.g. `pre-simd`, `post-simd`).
    pub label: String,
    /// Population scale the pipeline ran at.
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
    /// Whether `--quick` capped the scale.
    pub quick: bool,
    /// Flat dotted metric map (see the module docs for the namespace).
    pub metrics: BTreeMap<String, f64>,
}

impl BenchEntry {
    /// A run recorded now: `HEAD`'s SHA ([`git_head_sha`]) and the current
    /// UTC time.
    pub fn now(
        label: String,
        scale: f64,
        seed: u64,
        quick: bool,
        metrics: BTreeMap<String, f64>,
    ) -> BenchEntry {
        let unix_secs = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        BenchEntry {
            git_sha: git_head_sha(),
            timestamp: utc_timestamp(unix_secs),
            label,
            scale,
            seed,
            quick,
            metrics,
        }
    }

    /// Serialise to the JSONL line shape.
    pub fn to_value(&self) -> Value {
        let metrics: serde_json::Map =
            self.metrics.iter().map(|(k, &v)| (k.clone(), serde_json::json!(v))).collect();
        serde_json::json!({
            "git_sha": self.git_sha,
            "timestamp": self.timestamp,
            "label": self.label,
            "scale": self.scale,
            "seed": self.seed,
            "quick": self.quick,
            "metrics": Value::Object(metrics),
        })
    }

    /// Parse one JSONL line shape back into an entry.
    pub fn from_value(v: &Value) -> Result<BenchEntry, String> {
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{key}'"))
        };
        let num_field = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number field '{key}'"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("missing object field 'metrics'")?
            .iter()
            .filter_map(|(k, m)| m.as_f64().map(|f| (k.clone(), f)))
            .collect();
        Ok(BenchEntry {
            git_sha: str_field("git_sha")?,
            timestamp: str_field("timestamp")?,
            label: str_field("label")?,
            scale: num_field("scale")?,
            seed: num_field("seed")? as u64,
            quick: v.get("quick").and_then(Value::as_bool).unwrap_or(false),
            metrics,
        })
    }
}

/// Short SHA of `HEAD`, with a `+dirty` suffix when the work tree has
/// uncommitted changes; `unknown` when git is unavailable.
pub fn git_head_sha() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(sha) = run(&["rev-parse", "--short=12", "HEAD"]) else {
        return "unknown".into();
    };
    let dirty = run(&["status", "--porcelain"]).is_some_and(|s| !s.trim().is_empty());
    format!("{}{}", sha.trim(), if dirty { "+dirty" } else { "" })
}

/// RFC 3339 UTC timestamp for a unix time (days-from-civil inverse, no
/// external time crate needed).
pub fn utc_timestamp(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let secs = unix_secs % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}Z", secs / 3_600, (secs % 3_600) / 60, secs % 60)
}

/// Load every entry of a JSONL history file, oldest first.
pub fn load_history(path: &Path) -> Result<Vec<BenchEntry>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?;
        out.push(
            BenchEntry::from_value(&v)
                .map_err(|e| format!("{}:{}: {e}", path.display(), lineno + 1))?,
        );
    }
    Ok(out)
}

/// Append one entry as a new JSONL line (creating the file if needed).
pub fn append_history(path: &Path, entry: &BenchEntry) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let line = serde_json::to_string(&entry.to_value()).expect("serializable");
    writeln!(f, "{line}").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One gated metric's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Metric key.
    pub key: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value; `None` when the run did not produce the key.
    pub current: Option<f64>,
    /// Failure threshold (`baseline * tolerance + slack`, or `baseline /
    /// tolerance - slack` for a [`TRACKED_FLOOR`] key).
    pub limit: f64,
    /// Whether the current value exists and stayed within the threshold.
    pub pass: bool,
}

/// Outcome of comparing a run against a baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Baseline provenance, for the report header.
    pub baseline: String,
    /// Multiplicative tolerance applied.
    pub tolerance: f64,
    /// Verdicts for every tracked metric the baseline has and this kind
    /// of run owes (see "A dropped key fails" in the module docs).
    pub rows: Vec<CompareRow>,
    /// Tracked metrics this kind of run owes but the baseline lacks
    /// (reported, never failed: a fresh metric has no history yet).
    pub missing: Vec<String>,
    /// Ungated metrics shared by both entries that moved by more than 25%
    /// in either direction: (key, baseline, current).
    pub moved: Vec<(String, f64, f64)>,
}

impl CompareReport {
    /// True when any tracked metric exceeded its threshold.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| !r.pass)
    }
}

impl fmt::Display for CompareReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "regression gate vs {} (tolerance {:.2}x):", self.baseline, self.tolerance)?;
        writeln!(
            f,
            "  {:<34} {:>10} {:>10} {:>10}  verdict",
            "tracked metric", "baseline", "current", "limit"
        )?;
        for r in &self.rows {
            // Ceiling limits sit above their baseline, floor limits below;
            // mark the floors so the table reads unambiguously.
            let verdict = match (r.current.is_some(), r.pass, r.limit < r.baseline) {
                (false, ..) => "FAIL (not produced)",
                (true, true, false) => "pass",
                (true, false, false) => "FAIL",
                (true, true, true) => "pass (floor)",
                (true, false, true) => "FAIL (floor)",
            };
            let current = r.current.map_or_else(|| "-".to_string(), |c| format!("{c:.4}"));
            writeln!(
                f,
                "  {:<34} {:>10.4} {current:>10} {:>10.4}  {verdict}",
                r.key, r.baseline, r.limit
            )?;
        }
        for key in &self.missing {
            writeln!(f, "  {key:<34} (not in the baseline; skipped)")?;
        }
        if !self.moved.is_empty() {
            writeln!(f, "  ungated metrics moved >25%:")?;
            for (key, base, cur) in &self.moved {
                writeln!(
                    f,
                    "    {key:<32} {base:>10.4} -> {cur:>10.4} ({:+.0}%)",
                    (cur / base - 1.0) * 100.0
                )?;
            }
        }
        Ok(())
    }
}

/// Merge a history into one synthetic baseline entry: each metric's
/// value comes from the most recent entry that carries it (see "Mixed
/// histories" in the module docs). Provenance fields come from the last
/// entry overall.
pub fn lookback_baseline(history: &[BenchEntry]) -> Option<BenchEntry> {
    let last = history.last()?;
    let mut merged = last.clone();
    merged.label = format!("lookback[{}] {}", history.len(), last.label);
    for entry in history {
        // Oldest first: later entries override, so each key ends on its
        // newest value.
        for (k, &v) in &entry.metrics {
            merged.metrics.insert(k.clone(), v);
        }
    }
    Some(merged)
}

/// Gate a run against a baseline entry: every [`TRACKED`] metric must stay
/// within `baseline * tolerance + slack`, and every [`TRACKED_FLOOR`]
/// metric above `baseline / tolerance - slack`. A tracked key the baseline
/// has and this kind of run owes fails when the run did not produce it;
/// one the baseline lacks is skipped (module docs, "A dropped key fails").
pub fn compare(baseline: &BenchEntry, current: &BenchEntry, tolerance: f64) -> CompareReport {
    let fleet_run = current.metrics.keys().any(|k| k.starts_with("fleet."));
    let gated = TRACKED.iter().map(|&(k, s)| (k, s, false));
    let gated = gated.chain(TRACKED_FLOOR.iter().map(|&(k, s)| (k, s, true)));
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (key, slack, floor) in gated {
        if key.starts_with("fleet.") != fleet_run {
            continue;
        }
        let Some(&base) = baseline.metrics.get(key) else {
            missing.push(key.to_string());
            continue;
        };
        let limit =
            if floor { (base / tolerance - slack).max(0.0) } else { base * tolerance + slack };
        let cur = current.metrics.get(key).copied();
        let pass = cur.is_some_and(|c| if floor { c >= limit } else { c <= limit });
        rows.push(CompareRow { key: key.into(), baseline: base, current: cur, limit, pass });
    }
    let tracked_keys: Vec<&str> = TRACKED.iter().chain(TRACKED_FLOOR).map(|&(k, _)| k).collect();
    let mut moved = Vec::new();
    for (key, &base) in &baseline.metrics {
        if tracked_keys.contains(&key.as_str()) {
            continue;
        }
        let Some(&cur) = current.metrics.get(key) else {
            continue;
        };
        if base > 0.0 && !(0.8..=1.25).contains(&(cur / base)) {
            moved.push((key.clone(), base, cur));
        }
    }
    CompareReport {
        baseline: format!(
            "{} ({}, {}, scale {})",
            baseline.label, baseline.git_sha, baseline.timestamp, baseline.scale
        ),
        tolerance,
        rows,
        missing,
        moved,
    }
}

/// Why [`gate`] failed.
#[derive(Debug)]
pub enum GateError {
    /// The `--compare` history is unreadable or has no entries.
    Baseline(String),
    /// A tracked metric regressed or was not produced.
    Regressed {
        /// The `--compare` history path, for the re-baselining hint.
        history: String,
        /// The subcommand that appends a fresh entry (`bench` or `fleet`).
        command: String,
    },
    /// Appending to the `--history` file failed.
    History(String),
}

impl GateError {
    /// The CLI's exit status: 2 for an unusable baseline (no verdict was
    /// reached), 1 for a regression or a failed append.
    pub fn exit_code(&self) -> i32 {
        match self {
            GateError::Baseline(_) => 2,
            GateError::Regressed { .. } | GateError::History(_) => 1,
        }
    }
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Baseline(e) | GateError::History(e) => f.write_str(e),
            GateError::Regressed { history, command } => write!(
                f,
                "regression gate FAILED. If this perf change is intentional, append a fresh \
                 entry with `mobitrace {command} --history {history} --label <why>` and commit \
                 the updated history."
            ),
        }
    }
}

/// The `--compare` / `--history` tail of `mobitrace bench` and `mobitrace
/// fleet`: gate `entry` against the [`lookback_baseline`] of the history
/// at `baseline`, printing the report to stderr, then append `entry` to the
/// history at `history`. A failed gate returns before the append.
/// `command` names the subcommand in the re-baselining hint.
pub fn gate(
    entry: &BenchEntry,
    baseline: Option<&Path>,
    history: Option<&Path>,
    tolerance: f64,
    command: &str,
) -> Result<(), GateError> {
    if let Some(path) = baseline {
        let entries = load_history(path).map_err(GateError::Baseline)?;
        let merged = lookback_baseline(&entries).ok_or_else(|| {
            GateError::Baseline(format!("baseline {} has no entries", path.display()))
        })?;
        let report = compare(&merged, entry, tolerance);
        eprint!("{report}");
        if report.regressed() {
            return Err(GateError::Regressed {
                history: path.display().to_string(),
                command: command.to_string(),
            });
        }
        eprintln!("regression gate passed");
    }
    if let Some(path) = history {
        append_history(path, entry).map_err(GateError::History)?;
        eprintln!("appended entry '{}' ({}) to {}", entry.label, entry.git_sha, path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(metrics: &[(&str, f64)]) -> BenchEntry {
        BenchEntry {
            git_sha: "abc123def456".into(),
            timestamp: utc_timestamp(1_754_000_000),
            label: "test".into(),
            scale: 0.15,
            seed: 20151028,
            quick: false,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn timestamp_is_civil_utc() {
        assert_eq!(utc_timestamp(0), "1970-01-01T00:00:00Z");
        assert_eq!(utc_timestamp(951_827_696), "2000-02-29T12:34:56Z");
        assert_eq!(utc_timestamp(1_754_000_000), "2025-07-31T22:13:20Z");
    }

    #[test]
    fn jsonl_roundtrip_preserves_entry() {
        let e = entry(&[("analysis.overview.ratio", 0.42), ("sim.cached_s", 1.5)]);
        let back = BenchEntry::from_value(&e.to_value()).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = entry(&[("analysis.overview.ratio", 0.40)]);
        let same = entry(&[("analysis.overview.ratio", 0.41)]);
        assert!(!compare(&base, &same, DEFAULT_TOLERANCE).regressed());
        // 0.40 * 1.75 + 0.08 = 0.78: anything above regresses.
        let slow = entry(&[("analysis.overview.ratio", 0.80)]);
        let report = compare(&base, &slow, DEFAULT_TOLERANCE);
        assert!(report.regressed());
        assert!(report.to_string().contains("FAIL"));
    }

    #[test]
    fn gate_fails_dropped_metrics_and_skips_fresh_ones() {
        let base = entry(&[("analysis.overview.ratio", 0.40)]);
        let cur = entry(&[("analysis.rssi.ratio", 0.30)]);
        let report = compare(&base, &cur, DEFAULT_TOLERANCE);
        // The baseline's key went missing from the run: a FAIL row...
        assert!(report.regressed());
        let dropped = report.rows.iter().find(|r| r.key == "analysis.overview.ratio").unwrap();
        assert_eq!(dropped.current, None);
        assert!(!dropped.pass);
        assert!(report.to_string().contains("FAIL (not produced)"));
        // ...while the run's key the baseline lacks is fresh, so skipped.
        assert!(report.missing.contains(&"analysis.rssi.ratio".to_string()));
        assert!(!report.missing.contains(&"analysis.overview.ratio".to_string()));
    }

    #[test]
    fn each_run_kind_owes_only_its_own_tracked_keys() {
        let base = entry(&[
            ("analysis.overview.ratio", 0.40),
            ("fleet.records_per_s", 200_000.0),
            ("fleet.enqueue_commit_p99_s", 0.01),
        ]);
        // A bench run never produces fleet keys, and a fleet run never
        // produces bench keys: neither fails for the other's.
        let bench = entry(&[("analysis.overview.ratio", 0.41)]);
        let report = compare(&base, &bench, DEFAULT_TOLERANCE);
        assert!(!report.regressed());
        assert!(report.rows.iter().all(|r| !r.key.starts_with("fleet.")));
        let fleet =
            entry(&[("fleet.records_per_s", 190_000.0), ("fleet.enqueue_commit_p99_s", 0.01)]);
        let report = compare(&base, &fleet, DEFAULT_TOLERANCE);
        assert!(!report.regressed());
        assert!(report.rows.iter().all(|r| r.key.starts_with("fleet.")));
        assert_eq!(report.rows.len(), 2);
    }

    #[test]
    fn fleet_run_that_drops_a_fleet_key_fails() {
        let base =
            entry(&[("fleet.records_per_s", 200_000.0), ("fleet.enqueue_commit_p99_s", 0.01)]);
        let cur = entry(&[("fleet.records_per_s", 200_000.0)]);
        let report = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(report.regressed());
        let failed: Vec<&str> =
            report.rows.iter().filter(|r| !r.pass).map(|r| r.key.as_str()).collect();
        assert_eq!(failed, ["fleet.enqueue_commit_p99_s"]);
    }

    #[test]
    fn gate_maps_outcomes_to_exit_codes() {
        let dir = std::env::temp_dir().join(format!("benchhist-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hist = dir.join("hist.jsonl");
        let _ = std::fs::remove_file(&hist);
        let cur = entry(&[("analysis.overview.ratio", 0.40)]);
        // No history file yet: no verdict, exit 2.
        let err = gate(&cur, Some(&hist), None, DEFAULT_TOLERANCE, "bench").unwrap_err();
        assert_eq!(err.exit_code(), 2);
        // Recording works without a comparison, and then gates the next run.
        gate(&cur, None, Some(&hist), DEFAULT_TOLERANCE, "bench").unwrap();
        gate(&cur, Some(&hist), None, DEFAULT_TOLERANCE, "bench").unwrap();
        // A regression is exit 1 and is not appended.
        let slow = entry(&[("analysis.overview.ratio", 0.90)]);
        let err = gate(&slow, Some(&hist), Some(&hist), DEFAULT_TOLERANCE, "bench").unwrap_err();
        assert_eq!(err.exit_code(), 1);
        assert!(err.to_string().contains("mobitrace bench --history"));
        assert_eq!(load_history(&hist).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn moved_section_reports_large_ungated_shifts() {
        let base = entry(&[("sim.cached_s", 1.0), ("ingest.encode_s", 0.5)]);
        let cur = entry(&[("sim.cached_s", 2.0), ("ingest.encode_s", 0.51)]);
        let report = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert_eq!(report.moved.len(), 1);
        assert_eq!(report.moved[0].0, "sim.cached_s");
    }

    #[test]
    fn floor_keys_fail_downward_not_upward() {
        let base = entry(&[("world_scan.plan_cache.hit_rate", 0.9)]);
        // Falling within tolerance passes: 0.9 / 1.75 - 0.10 ≈ 0.41.
        let dip = entry(&[("world_scan.plan_cache.hit_rate", 0.6)]);
        assert!(!compare(&base, &dip, DEFAULT_TOLERANCE).regressed());
        // Falling below the floor fails...
        let collapse = entry(&[("world_scan.plan_cache.hit_rate", 0.3)]);
        let report = compare(&base, &collapse, DEFAULT_TOLERANCE);
        assert!(report.regressed());
        assert!(report.to_string().contains("FAIL (floor)"));
        // ...and rising can never fail a floor key.
        let faster = entry(&[("world_scan.plan_cache.hit_rate", 1.0)]);
        assert!(!compare(&base, &faster, DEFAULT_TOLERANCE).regressed());
    }

    #[test]
    fn fleet_throughput_floor_has_absolute_slack() {
        let base = entry(&[("fleet.records_per_s", 200_000.0)]);
        // 200k / 1.75 - 50k ≈ 64.3k: a slower runner still passes.
        let slower = entry(&[("fleet.records_per_s", 70_000.0)]);
        assert!(!compare(&base, &slower, DEFAULT_TOLERANCE).regressed());
        let collapsed = entry(&[("fleet.records_per_s", 10_000.0)]);
        assert!(compare(&base, &collapsed, DEFAULT_TOLERANCE).regressed());
    }

    #[test]
    fn lookback_merges_mixed_histories_per_key() {
        let mut bench =
            entry(&[("analysis.overview.ratio", 0.40), ("world_scan.plan_cache.hit_rate", 0.8)]);
        bench.label = "bench".into();
        let mut fleet = entry(&[("fleet.records_per_s", 150_000.0)]);
        fleet.label = "fleet".into();
        let mut newer_bench =
            entry(&[("analysis.overview.ratio", 0.45), ("world_scan.plan_cache.hit_rate", 0.9)]);
        newer_bench.label = "bench2".into();
        let history = vec![bench, fleet, newer_bench];
        let merged = lookback_baseline(&history).unwrap();
        // Each key's baseline is its newest occurrence, regardless of the
        // entry kinds interleaved after it.
        assert_eq!(merged.metrics["fleet.records_per_s"], 150_000.0);
        assert_eq!(merged.metrics["world_scan.plan_cache.hit_rate"], 0.9);
        assert_eq!(merged.metrics["analysis.overview.ratio"], 0.45);
        assert!(merged.label.starts_with("lookback[3]"));
        assert!(lookback_baseline(&[]).is_none());
    }

    #[test]
    fn history_appends_and_loads_in_order() {
        let dir = std::env::temp_dir().join(format!("benchhist-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.jsonl");
        let _ = std::fs::remove_file(&path);
        let a = entry(&[("analysis.overview.ratio", 0.5)]);
        let mut b = a.clone();
        b.label = "second".into();
        append_history(&path, &a).unwrap();
        append_history(&path, &b).unwrap();
        let loaded = load_history(&path).unwrap();
        assert_eq!(loaded, vec![a, b]);
        std::fs::remove_file(&path).unwrap();
    }
}
