//! One `mtbench` run: repeated set-up, then each selected workload —
//! untraced for the end-to-end metrics, or with untraced and traced
//! repetitions alternating for the per-layer metrics and the tracing
//! overhead.

use crate::metrics::{self, LATENCY_P50_S, LATENCY_P90_S, PEAK_RSS_MB, SETUP_S};
use crate::stats;
use crate::trace::{self, Attribution, Layer, SpanRecord};
use crate::workloads::{self, batch, fleet, live, pool, Inject, Pass, PassOpts};
use crate::world::{self, Needs, SetupTiming, World};
use std::path::PathBuf;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workloads, by name, in order.
    pub workloads: Vec<&'static str>,
    /// Input seed.
    pub seed: u64,
    /// Measuring time per workload, seconds.
    pub seconds: f64,
    /// Campaign population scale.
    pub scale: f64,
    /// Per-layer run: untraced and traced repetitions alternate.
    pub trace: bool,
    /// Fewest timed reps of the closed-loop workloads.
    pub min_reps: usize,
    /// Fault to inject (negative tests).
    pub inject: Option<Inject>,
    /// Scratch directory for pool files.
    pub tmp_dir: PathBuf,
}

/// One metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// One workload's outcome.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// Operations attempted, traced repetitions included.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// First few failures.
    pub problems: Vec<String>,
    /// End-to-end metrics, from the untraced repetitions.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics; empty unless traced.
    pub per_layer: Vec<Metric>,
    /// Layer rows of the traced repetitions.
    pub attribution: Option<Attribution>,
    /// Wall time of the workload's pass, seconds.
    pub run_s: f64,
    /// Latency samples behind the end-to-end percentiles.
    pub samples: usize,
    /// Repetitions of the pass, warm-ups and traced ones included.
    pub reps: usize,
}

impl WorkloadResult {
    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn reported(&self) -> &[Metric] {
        if self.attribution.is_some() {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Operations were attempted and none failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Everything a run produced.
pub struct Report {
    /// Timing of every set-up.
    pub setups: Vec<SetupTiming>,
    /// Records the world holds.
    pub records: usize,
    /// Per-workload outcomes.
    pub results: Vec<WorkloadResult>,
    /// Spans of the traced halves.
    pub spans: Vec<SpanRecord>,
}

fn run_pass(name: &'static str, world: &World, opts: &PassOpts) -> (Pass, f64) {
    let t0 = std::time::Instant::now();
    let pass = match name {
        batch::NAME => batch::run(world, opts),
        pool::NAME => pool::run(world, opts),
        live::NAME => live::run(world, opts),
        fleet::NAME => fleet::run(world, opts),
        other => unreachable!("unknown workload {other}"),
    };
    (pass, t0.elapsed().as_secs_f64())
}

fn end_to_end(pass: &Pass, setup_s: f64) -> Vec<Metric> {
    let sorted = stats::sorted(&pass.latencies);
    metrics::end_to_end()
        .into_iter()
        .map(|d| {
            let value = match d.name.as_str() {
                SETUP_S => setup_s,
                LATENCY_P50_S => stats::quantile(&sorted, 0.50),
                LATENCY_P90_S => stats::quantile(&sorted, 0.90),
                other => unreachable!("no value for {other}"),
            };
            Metric { name: d.name, value, unit: d.unit }
        })
        .collect()
}

fn per_layer(
    name: &str,
    pass: &Pass,
    spans: &[SpanRecord],
    attribution: &Attribution,
    setups: &[SetupTiming],
    records: usize,
) -> Vec<Metric> {
    let reps = pass.traced_walls.len().max(1) as f64;
    let mut values: Vec<Metric> = metrics::per_layer()
        .into_iter()
        .map(|d| Metric { name: d.name, value: 0.0, unit: d.unit })
        .collect();
    let mut set = |n: &str, v: f64| {
        if let Some(slot) = values.iter_mut().find(|m| m.name == n) {
            slot.value = v;
        }
    };
    let med = |f: fn(&SetupTiming) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    set("world.sim_s", med(|t| t.sim_s));
    set("world.encode_s", med(|t| t.encode_s));
    set("world.reference_s", med(|t| t.reference_s));
    set("world.records", records as f64);
    for (span, metric) in metrics::SPAN_METRICS {
        set(metric, trace::self_seconds(spans, name, span) / reps);
    }
    for (n, v) in &pass.counters {
        set(n, *v);
    }
    let verify =
        attribution.rows.iter().find(|(l, _)| *l == Layer::Verify).map_or(0.0, |r| r.1.self_s);
    set("verify_s", verify / reps);
    set("unattributed_s", attribution.unattributed_s / reps);
    set("trace.overhead", stats::median(&pass.traced_walls) / stats::median(&pass.walls) - 1.0);
    match pass.peak_rss_mb {
        Some(mb) => set(PEAK_RSS_MB, mb),
        // Unmeasurable here, not failed: left out of the metrics.
        None => values.retain(|m| m.name != PEAK_RSS_MB),
    }
    values
}

/// What set-up must build for `workloads`.
pub fn needs(workloads: &[&str]) -> Needs {
    let mut n = Needs::default();
    for &w in workloads {
        match w {
            batch::NAME => {
                n.uploads = [true; 3];
                n.reference = true;
            }
            pool::NAME => n.reference = true,
            live::NAME => {
                n.uploads[2] = true;
                n.live = true;
            }
            fleet::NAME => n.fleet = true,
            other => unreachable!("unknown workload {other}"),
        }
    }
    n
}

/// Set-ups per untraced run; `setup_s` is their median. A traced run
/// reports the parts of one set-up instead of `setup_s`.
const SETUPS: usize = 3;

/// Run set-up (several times untraced, once traced), then every selected
/// workload.
pub fn run(cfg: &Config) -> Report {
    let n_setups = if cfg.trace { 1 } else { SETUPS };
    let mut setups = Vec::with_capacity(n_setups);
    let mut world = None;
    for _ in 0..n_setups {
        drop(world.take());
        let w = world::build(cfg.scale, cfg.seed, needs(&cfg.workloads));
        setups.push(w.timing);
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    let setup_s = stats::median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    std::fs::create_dir_all(&cfg.tmp_dir).expect("create the scratch directory");

    let mut results = Vec::new();
    let mut all_spans = Vec::new();
    let opts = PassOpts {
        seconds: cfg.seconds,
        min_reps: cfg.min_reps,
        inject: cfg.inject,
        tmp_dir: cfg.tmp_dir.clone(),
        trace: cfg.trace,
    };
    for &name in &cfg.workloads {
        let (pass, run_s) = run_pass(name, &world, &opts);
        let mut result = WorkloadResult {
            name,
            attempted: pass.attempted,
            failed: pass.failed,
            problems: pass.problems.clone(),
            end_to_end: end_to_end(&pass, setup_s),
            per_layer: Vec::new(),
            attribution: None,
            run_s,
            samples: pass.latencies.len(),
            reps: pass.reps,
        };
        if cfg.trace {
            let spans = trace::take();
            let attribution = Attribution::of(&spans, name);
            result.per_layer =
                per_layer(name, &pass, &spans, &attribution, &setups, world.records());
            result.attribution = Some(attribution);
            all_spans.extend(spans);
        }
        results.push(result);
    }
    let _ = std::fs::remove_dir_all(&cfg.tmp_dir);
    Report { setups, records: world.records(), results, spans: all_spans }
}

/// Parse a workload name (or `all`).
pub fn parse_workloads(arg: &str) -> Option<Vec<&'static str>> {
    if arg == "all" {
        return Some(workloads::NAMES.to_vec());
    }
    workloads::NAMES.iter().find(|&&n| n == arg).map(|&n| vec![n])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(peak_rss_mb: Option<f64>) -> Pass {
        Pass {
            attempted: 35,
            walls: vec![1.0],
            traced_walls: vec![1.1],
            peak_rss_mb,
            ..Pass::default()
        }
    }

    fn result(per_layer: Vec<Metric>) -> WorkloadResult {
        WorkloadResult {
            name: batch::NAME,
            attempted: 35,
            failed: 0,
            problems: Vec::new(),
            end_to_end: Vec::new(),
            per_layer,
            attribution: Some(Attribution::default()),
            run_s: 1.0,
            samples: 1,
            reps: 2,
        }
    }

    #[test]
    fn unmeasurable_memory_is_omitted_not_failed() {
        let setups = [SetupTiming::default()];
        let attribution = Attribution::default();
        let metrics = per_layer(batch::NAME, &pass(None), &[], &attribution, &setups, 1);
        assert!(metrics.iter().all(|m| m.name != PEAK_RSS_MB));
        assert_eq!(metrics.len(), metrics::per_layer().len() - 1);
        assert!(metrics.iter().all(|m| m.value.is_finite()), "{metrics:?}");
        assert!(result(metrics).correct());

        let metrics = per_layer(batch::NAME, &pass(Some(12.5)), &[], &attribution, &setups, 1);
        let rss = metrics.iter().find(|m| m.name == PEAK_RSS_MB).expect("peak_rss_mb");
        assert_eq!(rss.value, 12.5);
    }

    #[test]
    fn failed_operations_alone_make_a_run_incorrect() {
        let mut r = result(Vec::new());
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        r.failed = 0;
        r.attempted = 0;
        assert!(!r.correct());
    }
}
