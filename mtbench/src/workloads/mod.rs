//! The four workloads. Each drives one path through the program's
//! highest-level public entry points, checks every output against the
//! set-up references, and returns what one pass measured.

pub mod batch;
pub mod fleet;
pub mod live;
pub mod pool;

use crate::trace::{self, Layer};
use crate::world::World;
use mobitrace_core::AnalysisContext;
use mobitrace_report::{all_experiment_ids, run_experiment, CampaignSet};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in run order.
pub const NAMES: [&str; 4] = [batch::NAME, pool::NAME, live::NAME, fleet::NAME];

/// A deliberate fault, for the negative tests: the checks must notice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// `batch_reproduce` never sends one upload (nor its duplicate).
    DropUpload,
    /// `pool_reopen` flips one byte in the middle of the saved pool.
    CorruptPool,
}

/// How long and how a pass runs.
#[derive(Debug, Clone)]
pub struct PassOpts {
    /// Measuring time budget, seconds.
    pub seconds: f64,
    /// Fewest timed repetitions for the closed-loop workloads.
    pub min_reps: usize,
    /// Fault to inject, if any.
    pub inject: Option<Inject>,
    /// Private scratch directory for pool files.
    pub tmp_dir: PathBuf,
    /// Trace every second timed repetition. Untraced and traced
    /// repetitions alternate so that the machine's drift, which is larger
    /// than the tracing cost, affects both alike.
    pub trace: bool,
}

impl PassOpts {
    /// Whether timed repetition `k` (0-based, warm-ups not counted) is
    /// traced.
    pub fn traced(&self, k: usize) -> bool {
        self.trace && k % 2 == 1
    }
}

/// What one pass of a workload measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// First few check failures, for the log.
    pub problems: Vec<String>,
    /// Samples of the workload's user-visible latency from the untraced
    /// repetitions, seconds.
    pub latencies: Vec<f64>,
    /// Peak RSS growth over an untraced repetition, MB; `None` when the
    /// platform does not let the benchmark measure it.
    pub peak_rss_mb: Option<f64>,
    /// Wall time of each untraced timed repetition, seconds.
    pub walls: Vec<f64>,
    /// Wall time of each traced repetition, seconds.
    pub traced_walls: Vec<f64>,
    /// Repetitions (reps, replays or ladders) the pass ran.
    pub reps: usize,
    /// Per-layer values the program reported or the pass computed.
    pub counters: Vec<(String, f64)>,
}

impl Pass {
    /// Record a timed repetition's wall time on its side.
    pub fn timed(&mut self, traced: bool, wall_s: f64) {
        if traced {
            self.traced_walls.push(wall_s);
        } else {
            self.walls.push(wall_s);
        }
    }

    /// Record `n` failed operations with a reason.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.problems.len() < 8 {
            self.problems.push(why);
        }
    }

    /// Set a per-layer value.
    pub fn counter(&mut self, name: impl Into<String>, value: f64) {
        self.counters.push((name.into(), value));
    }
}

/// Rendered experiment reports by id; `None` when an experiment failed.
pub type Reports = Vec<(&'static str, Option<String>)>;

/// Run all 35 experiments over `set`, each in its own span.
pub fn render_experiments(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> Reports {
    all_experiment_ids()
        .into_iter()
        .map(|id| {
            let _s = trace::span("report.experiment", Layer::Report);
            (id, run_experiment(id, set, ctxs).map(|r| r.render()))
        })
        .collect()
}

/// Reports the program does not render deterministically, checked for
/// shape only: the same lines with the same words, while numbers and map
/// glyphs may differ. Both attribute each AP to its modal report cell with
/// `max_by_key` over a `HashMap` (`apmap::density_maps` for `fig10`,
/// `interference::interference_pressure` for `interference`), so vote ties
/// break by the map's random iteration order and can move an AP between
/// cells from one run to the next on the same dataset.
const SHAPE_ONLY: [&str; 2] = ["fig10", "interference"];

fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().filter(|t| t.chars().any(char::is_alphabetic)).collect()
}

fn same_shape(got: &str, want: &str) -> bool {
    got.lines().count() == want.lines().count()
        && got.lines().zip(want.lines()).all(|(g, w)| words(g) == words(w))
}

/// Compare rendered experiments with the references. Every report counts
/// as failed when `inputs_ok` is false: it was computed from a dataset
/// that already differs from the reference.
pub fn check_reports(
    world: &World,
    produced: &[(&'static str, Option<String>)],
    inputs_ok: bool,
    pass: &mut Pass,
    rep: usize,
) {
    let _s = trace::span("verify.reports", Layer::Verify);
    let n = world.reports.len() as u64;
    pass.attempted += n;
    if !inputs_ok {
        pass.fail(n, format!("rep {rep}: dataset differs from the reference"));
        return;
    }
    for (id, want) in &world.reports {
        match produced.iter().find(|(p, _)| p == id) {
            Some((_, Some(got))) if got == want => {}
            Some((_, Some(got))) if SHAPE_ONLY.contains(id) && same_shape(got, want) => {}
            Some((_, Some(_))) => {
                pass.fail(1, format!("rep {rep}: {id} differs from the reference"))
            }
            _ => pass.fail(1, format!("rep {rep}: {id} missing")),
        }
    }
}

/// Whether a campaign set equals the reference, dataset by dataset.
pub fn same_set(a: &CampaignSet, b: &CampaignSet) -> bool {
    let _s = trace::span("verify.datasets", Layer::Verify);
    a.years == b.years && a.update_2015 == b.update_2015
}

/// Sleep, then spin, until `due_s` after `start`. Returns how late the
/// caller is at return, seconds (never negative).
pub fn wait_until(start: Instant, due_s: f64) -> f64 {
    let _w = trace::rolled_wait("bench.schedule_wait", Layer::Bench);
    loop {
        let ahead = due_s - start.elapsed().as_secs_f64();
        if ahead <= 0.0 {
            return -ahead;
        }
        if ahead > 300e-6 {
            std::thread::sleep(std::time::Duration::from_secs_f64(ahead - 150e-6));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Closed-loop repetition control: a warm-up, then timed reps until both
/// `min_reps` ran and the time budget is spent.
pub fn more_reps(opts: &PassOpts, pass: &Pass, started: Instant) -> bool {
    pass.walls.len() + pass.traced_walls.len() < opts.min_reps
        || started.elapsed().as_secs_f64() < opts.seconds
}

#[cfg(test)]
mod tests {
    use super::same_shape;

    #[test]
    fn shape_ignores_numbers_and_glyphs_only() {
        let want = "2013: home map: 12 cells (max 3 APs)\n  . : +\nyear share\n2015 0.412\n";
        assert!(same_shape(
            "2013: home map: 14 cells (max 4 APs)\n :  #\nyear share\n2015 0.5\n",
            want
        ));
        assert!(!same_shape(
            "2013: office map: 12 cells (max 3 APs)\n  . : +\nyear share\n2015 0.412\n",
            want
        ));
        assert!(!same_shape(
            "2013: home map: 12 cells (max 3 APs)\nyear share\n2015 0.412\n",
            want
        ));
    }
}
