//! Smoke test: all four workloads through the library at scale 0.02, and
//! `BENCHMARK.json` held to the metrics the library emits.

use mobitrace_benchmark::bench::{self, Config, Metric, Report};
use mobitrace_benchmark::metrics::{end_to_end, per_layer, MetricDef, PEAK_RSS_MB};
use mobitrace_benchmark::rss::RssWindow;
use mobitrace_benchmark::{repo_root, workloads};
use serde_json::Value;

/// A traced run: untraced repetitions (end-to-end metrics) alternate with
/// traced ones (per-layer metrics). Two fleet ladders of 0.3 s rungs; the
/// closed loops stop after two timed reps, one of each kind.
fn run() -> Report {
    bench::run(&Config {
        workloads: workloads::NAMES.to_vec(),
        seed: 7,
        seconds: 3.0,
        scale: 0.02,
        trace: true,
        min_reps: 2,
        inject: None,
        tmp_dir: repo_root().join(".mtbench-tmp").join(format!("smoke-{}", std::process::id())),
    })
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// (name, unit, better) of each metric in a `BENCHMARK.json` list.
fn listed(list: &Value) -> Vec<(String, String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m[k].as_str().unwrap_or_default().to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn from_library(defs: Vec<MetricDef>) -> Vec<(String, String, String)> {
    defs.into_iter().map(|d| (d.name, d.unit.to_string(), d.better.to_string())).collect()
}

fn valid_name(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_library() {
    let doc = benchmark_json();
    let workloads: Vec<&str> =
        doc["workloads"].as_array().unwrap().iter().map(|w| w["name"].as_str().unwrap()).collect();
    assert!((2..=8).contains(&workloads.len()));
    // `fleet_ingest` runs in `mtbench` but is not listed: see README.md.
    for w in &workloads {
        assert!(workloads::NAMES.contains(w), "unknown workload {w}");
    }
    let e2e = listed(&doc["end_to_end"]);
    let layer = listed(&doc["per_layer"]);
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&layer.len()));
    for (n, _, _) in e2e.iter().chain(&layer) {
        assert!(valid_name(n), "bad metric name {n}");
    }
    for w in &workloads {
        assert!(valid_name(w), "bad workload name {w}");
    }
    assert_eq!(e2e, from_library(end_to_end()));
    assert_eq!(layer, from_library(per_layer()));
    for m in doc["end_to_end"].as_array().unwrap() {
        let bound = m["bound"].as_f64().expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    // Every per-layer metric names an end-to-end metric and a workload
    // that exist.
    for d in per_layer() {
        let (metric, workload) = d.target.expect("per-layer metrics name their target");
        assert!(e2e.iter().any(|(n, _, _)| n == metric), "{}: unknown target {metric}", d.name);
        assert!(workloads::NAMES.contains(&workload), "{}: unknown workload {workload}", d.name);
    }
}

fn check(workload: &str, emitted: &[Metric], expected: &[(String, String, String)]) {
    // Where the kernel's memory high-water mark cannot be reset, the
    // memory metric is left out rather than reported as a failure.
    let rss_measurable = RssWindow::open().is_some();
    for (name, unit, _) in expected {
        if name == PEAK_RSS_MB && !rss_measurable {
            continue;
        }
        let m = emitted.iter().find(|m| &m.name == name);
        let m = m.unwrap_or_else(|| panic!("{workload} did not emit {name}"));
        assert!(m.value.is_finite(), "{workload}: {name} = {}", m.value);
        assert_eq!(m.unit, unit, "{workload}: {name} unit");
    }
}

#[test]
fn all_workloads_emit_every_metric() {
    let doc = benchmark_json();
    let report = run();
    assert_eq!(report.results.len(), workloads::NAMES.len());
    for r in &report.results {
        assert!(r.attempted > 0, "{} attempted nothing", r.name);
        assert_eq!(r.failed, 0, "{} failed: {:?}", r.name, r.problems);
        assert!(r.correct());
        check(r.name, &r.end_to_end, &listed(&doc["end_to_end"]));
        check(r.name, &r.per_layer, &listed(&doc["per_layer"]));
        for m in &r.end_to_end {
            assert!(m.value > 0.0, "{}: end-to-end {} reads {}", r.name, m.name, m.value);
        }

        // Layer rows plus the unattributed row account for the traced
        // threads' time.
        let a = r.attribution.as_ref().expect("traced runs attribute");
        assert!(a.thread_s > 0.0);
        let off = (a.accounted_s() - a.thread_s).abs() / a.thread_s;
        assert!(off <= 0.05, "{}: rows cover {} of {} s", r.name, a.accounted_s(), a.thread_s);
    }
}
