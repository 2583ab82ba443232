//! Printing a run: human tables, `results.json`, and the one-line JSON
//! result that ends standard output.

use crate::bench::{Config, Report, WorkloadResult};
use crate::metrics::PEAK_RSS_MB;
use crate::trace::Layer;
use crate::workloads::{fleet, live};
use serde_json::{json, Map, Value};
use std::path::Path;

/// The layer row a workload's failed checks are shown on.
fn checked_layer(workload: &str) -> Layer {
    match workload {
        live::NAME => Layer::Live,
        fleet::NAME => Layer::Fleet,
        _ => Layer::Report,
    }
}

fn metrics_json(values: &[crate::bench::Metric]) -> Value {
    let mut m = Map::new();
    for v in values {
        m.insert(v.name.clone(), json!({ "value": v.value, "unit": v.unit }));
    }
    Value::Object(m)
}

/// The result line for the selected workloads: one workload's metrics
/// under their own names, several under `workload/metric`.
pub fn result_line(report: &Report) -> Value {
    let single = report.results.len() == 1;
    let mut metrics = Map::new();
    for r in &report.results {
        for v in r.reported() {
            let key = if single { v.name.clone() } else { format!("{}/{}", r.name, v.name) };
            metrics.insert(key, json!({ "value": v.value, "unit": v.unit }));
        }
    }
    json!({
        "correct": report.results.iter().all(WorkloadResult::correct),
        "attempted": report.results.iter().map(|r| r.attempted).sum::<u64>(),
        "failed": report.results.iter().map(|r| r.failed).sum::<u64>(),
        "metrics": Value::Object(metrics),
    })
}

/// Human-readable tables, one block per workload.
pub fn print_tables(report: &Report) {
    for r in &report.results {
        println!(
            "== {}: {} of {} operations failed, {} reps, {} latency samples, {:.1} s",
            r.name, r.failed, r.attempted, r.reps, r.samples, r.run_s
        );
        for p in &r.problems {
            println!("   FAIL {p}");
        }
        if let Some(a) = &r.attribution {
            println!(
                "   {:<12} {:>10} {:>10} {:>10} {:>9}",
                "layer", "calls", "self_s", "wait_s", "failures"
            );
            for (layer, row) in &a.rows {
                let failures = if *layer == checked_layer(r.name) { r.failed } else { 0 };
                if row.calls > 0 || failures > 0 {
                    println!(
                        "   {:<12} {:>10} {:>10.4} {:>10.4} {:>9}",
                        layer.name(),
                        row.calls,
                        row.self_s,
                        row.wait_s,
                        failures
                    );
                }
            }
            println!("   {:<12} {:>10} {:>10.4}", "unattributed", "", a.unattributed_s);
            println!(
                "   {:<12} {:>10} {:>10.4}   (thread time {:.4} s)",
                "total",
                "",
                a.accounted_s(),
                a.thread_s
            );
            if r.per_layer.iter().all(|m| m.name != PEAK_RSS_MB) {
                println!("   {PEAK_RSS_MB} unavailable: /proc/self/clear_refs cannot be written");
            }
        }
        for v in r.reported() {
            if v.value != 0.0 || r.attribution.is_none() {
                println!("   {:<32} {:>14.6} {}", v.name, v.value, v.unit);
            }
        }
    }
}

/// Last commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git repository.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Non-blank, non-comment lines of a Rust file before its first
/// `#[cfg(test)]`.
fn non_test_loc(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else { return 0 };
    text.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Non-test lines of code per crate under `crates/`, from `src/` only.
pub fn loc_per_crate(root: &Path) -> Map<String, Value> {
    let mut out = Map::new();
    let Ok(entries) = std::fs::read_dir(root.join("crates")) else { return out };
    for e in entries.flatten() {
        let mut files = Vec::new();
        rust_files(&e.path().join("src"), &mut files);
        if !files.is_empty() {
            let loc: usize = files.iter().map(|f| non_test_loc(f)).sum();
            out.insert(e.file_name().to_string_lossy().into_owned(), json!(loc));
        }
    }
    out
}

/// The unscored `info` block: provenance and code size, not metrics.
pub fn info(cfg: &Config, report: &Report, root: &Path) -> Value {
    let mut run_s = Map::new();
    for r in &report.results {
        run_s.insert(r.name.to_string(), json!(r.run_s));
    }
    json!({
        "git_sha": git_sha(root),
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "scale": cfg.scale,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "setups_s": report.setups.iter().map(|t| t.total_s).collect::<Vec<f64>>(),
        "records": report.records,
        "workload_run_s": Value::Object(run_s),
        "loc": Value::Object(loc_per_crate(root)),
    })
}

/// Write `results.json`.
pub fn write_results(
    path: &Path,
    cfg: &Config,
    report: &Report,
    root: &Path,
) -> std::io::Result<()> {
    let mut workloads = Map::new();
    for r in &report.results {
        let mut entry = json!({
            "correct": r.correct(),
            "attempted": r.attempted,
            "failed": r.failed,
            "problems": r.problems.clone(),
            "samples": r.samples,
            "reps": r.reps,
            "metrics": metrics_json(&r.end_to_end),
        });
        if let Some(a) = &r.attribution {
            let rows: Vec<Value> = a
                .rows
                .iter()
                .map(|(l, row)| {
                    json!({
                        "layer": l.name(),
                        "calls": row.calls,
                        "self_s": row.self_s,
                        "wait_s": row.wait_s,
                        "failures": if *l == checked_layer(r.name) { r.failed } else { 0 },
                    })
                })
                .collect();
            entry["layers"] = Value::Array(rows);
            entry["per_layer"] = metrics_json(&r.per_layer);
            entry["unattributed_s"] = json!(a.unattributed_s);
            entry["thread_s"] = json!(a.thread_s);
        }
        workloads.insert(r.name.to_string(), entry);
    }
    let doc = json!({ "info": info(cfg, report, root), "workloads": Value::Object(workloads) });
    std::fs::write(path, serde_json::to_string_pretty(&doc).map_err(std::io::Error::other)? + "\n")
}
