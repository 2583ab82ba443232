//! The pool's correctness contract, end to end: the two ways to reach
//! analysis-ready contexts — resimulate in memory, or mmap the `.mtpool`
//! file — must render **bit-identical** experiment reports for every
//! experiment in the registry. Rendered text is the strictest practical
//! equality: it folds every table cell, every figure bar, and every
//! paper-reference comparison into one string, so any drift anywhere in
//! the decode path shows up as a diff here.

use mobitrace_core::AnalysisContext;
use mobitrace_report::{all_experiment_ids, run_experiment, CampaignSet};
use std::path::PathBuf;

const SCALE: f64 = 0.012;
const SEED: u64 = 77;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mt-pool-paths-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn render_all(set: &CampaignSet, ctxs: &[AnalysisContext<'_>; 3]) -> Vec<(String, String)> {
    all_experiment_ids()
        .iter()
        .map(|id| {
            let r = run_experiment(id, set, ctxs).expect("registered experiment");
            (id.to_string(), r.render())
        })
        .collect()
}

#[test]
fn resimulate_and_pool_render_identical_reports() {
    let dir = scratch_dir("pool");
    let pool_path = dir.join("campaigns.mtpool");

    // Path 1: resimulate.
    let sim_set = CampaignSet::simulate(SCALE, SEED);
    let sim_reports = render_all(&sim_set, &sim_set.contexts());
    assert!(!sim_reports.is_empty());

    // Path 2: pool round-trip, contexts served from the stored
    // index/columns rather than rebuilt.
    sim_set.save_pool(&pool_path).expect("save pool");
    let (pool_set, views) = CampaignSet::load_pool(&pool_path).expect("load pool");
    let pool_reports = render_all(&pool_set, &pool_set.contexts_with(views));

    assert_eq!(sim_reports.len(), pool_reports.len());
    for ((id, sim), (pid, pool)) in sim_reports.iter().zip(pool_reports.iter()) {
        assert_eq!(id, pid);
        assert_eq!(sim, pool, "pool path diverged on experiment {id}");
    }

    std::fs::remove_dir_all(&dir).ok();
}
