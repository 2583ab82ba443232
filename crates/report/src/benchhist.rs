//! Committed bench trajectory: the append-only `BENCH_history.jsonl` and
//! the regression gate behind `mobitrace bench --compare`.
//!
//! Every `mobitrace bench` run can append one [`BenchEntry`] — git SHA,
//! UTC timestamp, run label and the full flat metric map — to a JSONL
//! history file that is committed per PR, so the perf trajectory of the
//! repo lives in the repo. `--compare <baseline.jsonl>` checks the current
//! run against the last committed entry and fails (exit 1, via
//! [`CompareReport::regressed`]) when a tracked stage regresses beyond
//! tolerance.
//!
//! # Metric namespace
//!
//! Metrics are flat dotted keys, the stable — and only — interface of
//! `BENCH_pipeline.json` and this history (the nested per-stage aliases
//! that once shadowed this map were removed after their one-release
//! deprecation window):
//!
//! - `sim.*` — simulator stage (`cached_s`, `uncached_s`, `speedup`,
//!   and `total_s` = cached sim + context build, the resimulation
//!   path's time to analysis-ready contexts)
//! - `ingest.*` — encode/ingest/clean stages
//! - `analysis.<pass>.*` — per-pass `rows_s`, `cols_s` and their
//!   `ratio` (= `cols_s / rows_s`)
//! - `live.*` — streaming engine stages
//! - `world_scan.*` — per-call scan/replay micro-timings
//! - `pool.*` — `.mtpool` persistence (`save_s`, `load_s`, `analyze_s`;
//!   the pool's exit criterion is `pool.load_s + pool.analyze_s <
//!   sim.total_s`)
//! - `json.*` — JSON dataset persistence (`save_s`, `load_s`,
//!   `analyze_s`), the baseline the pool replaces
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
    /// Current value.
    pub current: f64,
    /// Failure threshold (`baseline * tolerance + slack`).
    pub limit: f64,
    /// Whether the current value stayed within the threshold.
    pub pass: bool,
}

/// Outcome of comparing a run against a baseline entry.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Baseline provenance, for the report header.
    pub baseline: String,
    /// Multiplicative tolerance applied.
    pub tolerance: f64,
    /// Verdicts for every tracked metric present in both entries.
    pub rows: Vec<CompareRow>,
    /// Tracked metrics absent from the baseline or the current run
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
            let verdict = match (r.pass, r.limit < r.baseline) {
                (true, false) => "pass",
                (false, false) => "FAIL",
                (true, true) => "pass (floor)",
                (false, true) => "FAIL (floor)",
            };
            writeln!(
                f,
                "  {:<34} {:>10.4} {:>10.4} {:>10.4}  {verdict}",
                r.key, r.baseline, r.current, r.limit
            )?;
        }
        for key in &self.missing {
            writeln!(f, "  {key:<34} (not in both entries; skipped)")?;
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

/// Gate a run against a baseline entry: every [`TRACKED`] metric present
/// in both must stay within `baseline * tolerance + slack`, and every
/// [`TRACKED_FLOOR`] metric must stay above `baseline / tolerance -
/// slack`.
pub fn compare(baseline: &BenchEntry, current: &BenchEntry, tolerance: f64) -> CompareReport {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for &(key, slack) in TRACKED {
        match (baseline.metrics.get(key), current.metrics.get(key)) {
            (Some(&base), Some(&cur)) => {
                let limit = base * tolerance + slack;
                rows.push(CompareRow {
                    key: key.into(),
                    baseline: base,
                    current: cur,
                    limit,
                    pass: cur <= limit,
                });
            }
            _ => missing.push(key.to_string()),
        }
    }
    for &(key, slack) in TRACKED_FLOOR {
        match (baseline.metrics.get(key), current.metrics.get(key)) {
            (Some(&base), Some(&cur)) => {
                let limit = (base / tolerance - slack).max(0.0);
                rows.push(CompareRow {
                    key: key.into(),
                    baseline: base,
                    current: cur,
                    limit,
                    pass: cur >= limit,
                });
            }
            _ => missing.push(key.to_string()),
        }
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
    fn gate_skips_metrics_missing_from_either_side() {
        let base = entry(&[("analysis.overview.ratio", 0.40)]);
        let cur = entry(&[("analysis.rssi.ratio", 0.30)]);
        let report = compare(&base, &cur, DEFAULT_TOLERANCE);
        assert!(!report.regressed());
        assert!(report.missing.contains(&"analysis.overview.ratio".to_string()));
        assert!(report.missing.contains(&"analysis.rssi.ratio".to_string()));
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
