//! `mtbench compare A.json… -- B.json…`: two sets of `results.json`
//! files, side by side, judged against the bounds in `BENCHMARK.json`.
//!
//! For every (workload, end-to-end metric) pair it prints each side's
//! median and quartiles. A pair whose spread (quartile distance over
//! median) is wider than the bound on either side is *unresolved*; a pair
//! whose medians differ by more than the bound is *flagged*.

use crate::stats;
use serde_json::Value;
use std::path::{Path, PathBuf};

/// One end-to-end metric's bound.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `lower` or `higher` is better.
    pub better: String,
    /// Allowed change as a share of the first side's median.
    pub bound: f64,
}

/// Read the end-to-end bounds from `BENCHMARK.json`.
pub fn bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = doc["end_to_end"].as_array().ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"].as_str().ok_or("metric without a name")?.to_string(),
                better: m["better"].as_str().unwrap_or("lower").to_string(),
                bound: m["bound"].as_f64().ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn load(path: &PathBuf) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

/// Values of `metric` for `workload` across result files.
fn values(docs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d["workloads"][workload]["metrics"][metric]["value"].as_f64())
        .collect()
}

/// Verdict on one pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound, spreads within the bound.
    Agree,
    /// The second side is worse by more than the bound.
    Worse,
    /// The second side is better by more than the bound.
    Better,
    /// A spread is wider than the bound (or too few values).
    Unresolved,
}

/// Relative spread (q3 − q1) / median, NaN with fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    match stats::quartiles(values) {
        Some([q1, m, q3]) => (q3 - q1) / m.abs(),
        None => f64::NAN,
    }
}

/// Judge one pair.
pub fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> Verdict {
    let (sa, sb) = (spread(a), spread(b));
    if !(sa <= bound.bound && sb <= bound.bound) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = (mb - ma) / ma.abs();
    let worse = if bound.better == "higher" { -change } else { change };
    if worse > bound.bound {
        Verdict::Worse
    } else if worse < -bound.bound {
        Verdict::Better
    } else {
        Verdict::Agree
    }
}

/// `v` with five significant digits (latencies span microseconds to
/// seconds).
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (4 - v.abs().log10().floor() as i32).max(0) as usize;
    format!("{v:.decimals$}")
}

/// Print the comparison; `Ok(true)` when every pair agrees.
pub fn run(a: &[PathBuf], b: &[PathBuf], bench_json: &Path) -> Result<bool, String> {
    let bounds = bounds(bench_json)?;
    let docs_a = a.iter().map(load).collect::<Result<Vec<_>, _>>()?;
    let docs_b = b.iter().map(load).collect::<Result<Vec<_>, _>>()?;
    let mut workloads: Vec<String> = Vec::new();
    for d in docs_a.iter().chain(&docs_b) {
        if let Some(w) = d["workloads"].as_object() {
            for k in w.keys() {
                if !workloads.contains(k) {
                    workloads.push(k.clone());
                }
            }
        }
    }
    println!(
        "{:<16} {:<14} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let fmt = |v: &[f64]| match stats::quartiles(v) {
        Some([q1, m, q3]) => format!("{} [{}, {}]", sig(m), sig(q1), sig(q3)),
        None => format!("{} (n={})", sig(stats::median(v)), v.len()),
    };
    let mut all_agree = true;
    for w in &workloads {
        for bound in &bounds {
            let (va, vb) = (values(&docs_a, w, &bound.name), values(&docs_b, w, &bound.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, bound);
            all_agree &= v == Verdict::Agree;
            let change = (stats::median(&vb) - stats::median(&va)) / stats::median(&va).abs();
            let verdict = match v {
                Verdict::Agree => "agree",
                Verdict::Worse => "FLAG: worse",
                Verdict::Better => "FLAG: better",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{w:<16} {:<14} {:>34} {:>34} {:>+7.1}% {:>5.0}%  {verdict} (spread A {:.1}%, B {:.1}%)",
                bound.name,
                fmt(&va),
                fmt(&vb),
                change * 100.0,
                bound.bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
        }
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(b: f64) -> Bound {
        Bound { name: "x".into(), better: "lower".into(), bound: b }
    }

    #[test]
    fn verdicts() {
        let a = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(verdict(&a, &[1.02, 1.03, 1.01, 1.02], &bound(0.05)), Verdict::Agree);
        assert_eq!(verdict(&a, &[1.2, 1.21, 1.19, 1.2], &bound(0.05)), Verdict::Worse);
        assert_eq!(verdict(&a, &[0.8, 0.81, 0.79, 0.8], &bound(0.05)), Verdict::Better);
        assert_eq!(verdict(&a, &[0.5, 1.5, 1.0, 2.0], &bound(0.05)), Verdict::Unresolved);
        assert_eq!(verdict(&a, &[1.0], &bound(0.05)), Verdict::Unresolved);
    }

    #[test]
    fn five_significant_digits() {
        assert_eq!(sig(3.1609e-5), "0.000031609");
        assert_eq!(sig(1.97362), "1.9736");
        assert_eq!(sig(25000.0), "25000");
        assert_eq!(sig(0.0), "0");
    }
}
