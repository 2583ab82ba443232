//! `pool_reopen`: persistence, closed loop. Every rep saves the reference
//! campaign set to a fresh pool file, then reopens it and brings it back
//! to 35 rendered experiments; the rep's latency is that whole cycle. Pool
//! writes run beside pool reads; the file size shows when a faster read is
//! paid for in space.

use super::{check_reports, more_reps, render_experiments, same_set, Inject, Pass, PassOpts};
use crate::rss::{self, RssWindow};
use crate::trace::{self, Layer};
use crate::world::World;
use mobitrace_report::CampaignSet;
use std::path::Path;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "pool_reopen";

/// Flip one byte in the middle of `path`.
fn corrupt(path: &Path) -> std::io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x5A;
    std::fs::write(path, bytes)
}

/// One save → reopen → render cycle, checked into `pass`. Returns the
/// cycle's seconds and the pool file's size, or `None` when a step
/// failed.
fn cycle(world: &World, opts: &PassOpts, rep: usize, pass: &mut Pass) -> Option<(f64, u64)> {
    let n_reports = world.reports.len() as u64;
    let path = opts.tmp_dir.join(format!("reopen-{rep}.mtpool"));
    let t0 = Instant::now();
    let saved = {
        let _s = trace::span("pool.save", Layer::Pool);
        world.reference().save_pool(&path)
    };
    let save_s = t0.elapsed().as_secs_f64();
    if let Err(e) = saved {
        pass.attempted += n_reports;
        pass.fail(n_reports, format!("rep {rep}: save_pool failed: {e}"));
        return None;
    }
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    if opts.inject == Some(Inject::CorruptPool) {
        corrupt(&path).expect("corrupt the scratch pool");
    }
    let t1 = Instant::now();
    let loaded = {
        let _s = trace::span("pool.load", Layer::Pool);
        CampaignSet::load_pool(&path)
    };
    let out = match loaded {
        Err(e) => {
            pass.attempted += n_reports;
            pass.fail(n_reports, format!("rep {rep}: load_pool failed: {e}"));
            None
        }
        Ok((set, views)) => {
            let ctxs = {
                let _s = trace::span("core.context_parts", Layer::Core);
                set.contexts_with(views)
            };
            let reports = render_experiments(&set, &ctxs);
            let cycle_s = save_s + t1.elapsed().as_secs_f64();
            drop(ctxs);
            let same = same_set(&set, world.reference());
            check_reports(world, &reports, same, pass, rep);
            Some((cycle_s, file_bytes))
        }
    };
    let _ = std::fs::remove_file(&path);
    out
}

/// Run the workload for one pass.
pub fn run(world: &World, opts: &PassOpts) -> Pass {
    let mut pass = Pass::default();
    let mut started = None;
    let mut file_bytes = 0u64;
    let mut rep = 0usize;
    loop {
        trace::set_context(NAME, rep as u32);
        // Rep 0 is the warm-up: checked, neither timed nor traced.
        let traced = rep > 0 && opts.traced(rep - 1);
        let traced_rep = trace::repetition(traced);
        // Memory is measured on the warm-up only: trimming the heap before
        // a rep moves page faults into its timing.
        let window = started.is_none().then(RssWindow::open);
        let done = cycle(world, opts, rep, &mut pass);
        if let Some(w) = window {
            pass.peak_rss_mb = rss::growth_mb(&w);
        }
        drop(traced_rep);
        if let (Some((cycle_s, bytes)), Some(_)) = (done, started) {
            pass.timed(traced, cycle_s);
            if !traced {
                pass.latencies.push(cycle_s);
            }
            file_bytes = bytes;
        }
        started.get_or_insert_with(Instant::now);
        rep += 1;
        // A pool that never reopens would otherwise loop until the
        // minimum number of timed reps, which never comes.
        if !more_reps(opts, &pass, started.expect("set after the warm-up"))
            || (pass.failed > 0 && rep > opts.min_reps)
        {
            break;
        }
    }
    pass.reps = rep;
    let set = world.reference();
    let bins = set.years.iter().map(|d| d.bins.len()).sum::<usize>() + set.update_2015.bins.len();
    pass.counter("pool.file_mb", file_bytes as f64 / (1024.0 * 1024.0));
    pass.counter("pool.bytes_per_bin", file_bytes as f64 / bins.max(1) as f64);
    pass
}
