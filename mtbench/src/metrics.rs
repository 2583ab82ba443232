//! Every metric `mtbench` reports: name, unit, direction and, for a
//! per-layer metric, the end-to-end metric and workload it should move.
//! `BENCHMARK.json` lists the same names; the smoke test holds the two
//! together.

use crate::workloads::{batch, fleet, live, pool};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
    /// Per-layer only: (end-to-end metric, workload) it should move.
    pub target: Option<(&'static str, &'static str)>,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    target: Option<(&'static str, &'static str)>,
) -> MetricDef {
    MetricDef { name: name.into(), unit, better, target }
}

/// Median of the set-ups a run makes, seconds.
pub const SETUP_S: &str = "setup_s";
/// Median of the workload's user-visible latency samples, seconds.
pub const LATENCY_P50_S: &str = "latency_p50_s";
/// 90th percentile of the same samples, seconds.
pub const LATENCY_P90_S: &str = "latency_p90_s";
/// Peak resident-memory growth of a repetition, MB; omitted where the
/// platform does not let the benchmark measure it.
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// The end-to-end metrics; every workload reports all of them.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def(SETUP_S, "s", "lower", None),
        def(LATENCY_P50_S, "s", "lower", None),
        def(LATENCY_P90_S, "s", "lower", None),
    ]
}

/// The per-layer metrics; every workload reports all of them, 0 for a
/// layer it does not exercise. Span times are seconds per traced
/// repetition (rep, replay or ladder).
pub fn per_layer() -> Vec<MetricDef> {
    let (b, p, l, f) = (batch::NAME, pool::NAME, live::NAME, fleet::NAME);
    let lo = "lower";
    let hi = "higher";
    let mut v = vec![
        def("world.sim_s", "s", lo, Some((SETUP_S, b))),
        def("world.encode_s", "s", lo, Some((SETUP_S, b))),
        def("world.reference_s", "s", lo, Some((SETUP_S, b))),
        def("world.records", "count", hi, Some((SETUP_S, b))),
        def("collector.ingest_s", "s", lo, Some((LATENCY_P50_S, b))),
        def("collector.drain_s", "s", lo, Some((LATENCY_P50_S, b))),
        def("collector.clean_s", "s", lo, Some((LATENCY_P50_S, b))),
        def("collector.records_in", "count", hi, Some((LATENCY_P50_S, b))),
        def("collector.duplicates", "count", lo, Some((LATENCY_P50_S, b))),
        def("collector.useful_share", "ratio", hi, Some((LATENCY_P50_S, b))),
        def("collector.tap_overflow", "count", lo, Some((LATENCY_P50_S, l))),
        def("core.context_s", "s", lo, Some((LATENCY_P50_S, b))),
        def("core.context_parts_s", "s", lo, Some((LATENCY_P50_S, p))),
        def("report.experiments_s", "s", lo, Some((LATENCY_P50_S, b))),
        def("pool.save_s", "s", lo, Some((LATENCY_P50_S, p))),
        def("pool.load_s", "s", lo, Some((LATENCY_P50_S, p))),
        def("pool.file_mb", "MB", lo, Some((LATENCY_P50_S, p))),
        def("pool.bytes_per_bin", "B/bin", lo, Some((LATENCY_P50_S, p))),
        def("live.ingest_batch_s", "s", lo, Some((LATENCY_P50_S, l))),
        def("live.fold_s", "s", lo, Some((LATENCY_P50_S, l))),
        def("live.compact_s", "s", lo, Some((LATENCY_P50_S, l))),
        def("live.finish_s", "s", lo, Some((LATENCY_P90_S, l))),
        def("live.idle_s", "s", hi, Some((LATENCY_P50_S, l))),
        def("live.backlog_max", "count", lo, Some((LATENCY_P50_S, l))),
        def("live.generations", "count", hi, Some((LATENCY_P90_S, l))),
        def("live.batches", "count", hi, Some((LATENCY_P50_S, l))),
        def("live.dup_dropped", "count", lo, Some((LATENCY_P50_S, l))),
        def("live.late_dropped", "count", lo, Some((LATENCY_P50_S, l))),
        def("live.gen_late_p99_s", "s", lo, Some((LATENCY_P90_S, l))),
        def("live.staleness_p99_s", "s", lo, Some((LATENCY_P90_S, l))),
        def("query.evaluate_s", "s", lo, Some((LATENCY_P90_S, l))),
        def("query.selectivity", "ratio", hi, Some((LATENCY_P90_S, l))),
        def("serve.refresh_p50_s", "s", lo, Some((LATENCY_P50_S, l))),
        def("serve.refresh_p90_s", "s", lo, Some((LATENCY_P90_S, l))),
        def("fleet.admit_s", "s", lo, Some((LATENCY_P50_S, f))),
        def("fleet.submit_s", "s", lo, Some((LATENCY_P90_S, f))),
        def("fleet.finish_s", "s", lo, Some((LATENCY_P90_S, f))),
        def("fleet.sustained_rps", "1/s", hi, Some((LATENCY_P90_S, f))),
        def("fleet.commit_p50_s", "s", lo, Some((LATENCY_P50_S, f))),
        def("fleet.commit_p99_s", "s", lo, Some((LATENCY_P90_S, f))),
    ];
    for (_, label) in fleet::RUNGS {
        v.push(def(format!("fleet.{label}.goodput_rps"), "1/s", hi, Some((LATENCY_P90_S, f))));
        v.push(def(format!("fleet.{label}.shed_share"), "ratio", lo, Some((LATENCY_P90_S, f))));
        v.push(def(format!("fleet.{label}.commit_p99_s"), "s", lo, Some((LATENCY_P90_S, f))));
        v.push(def(format!("fleet.{label}.gen_late_p99_s"), "s", lo, Some((LATENCY_P90_S, f))));
    }
    v.extend([
        def(PEAK_RSS_MB, "MB", lo, Some((LATENCY_P50_S, b))),
        def("verify_s", "s", lo, Some((SETUP_S, b))),
        def("unattributed_s", "s", lo, Some((LATENCY_P50_S, b))),
        def("trace.overhead", "ratio", lo, Some((LATENCY_P50_S, b))),
    ]);
    v
}

/// Span names whose summed self time is a per-layer metric.
pub const SPAN_METRICS: [(&str, &str); 15] = [
    ("collector.ingest", "collector.ingest_s"),
    ("collector.drain", "collector.drain_s"),
    ("collector.clean", "collector.clean_s"),
    ("core.context", "core.context_s"),
    ("core.context_parts", "core.context_parts_s"),
    ("report.experiment", "report.experiments_s"),
    ("pool.save", "pool.save_s"),
    ("pool.load", "pool.load_s"),
    ("live.ingest_batch", "live.ingest_batch_s"),
    ("live.finish", "live.finish_s"),
    ("live.idle", "live.idle_s"),
    ("query.evaluate", "query.evaluate_s"),
    ("fleet.admit", "fleet.admit_s"),
    ("fleet.submit", "fleet.submit_s"),
    ("fleet.finish", "fleet.finish_s"),
];
