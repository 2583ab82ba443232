//! `batch_reproduce`: the paper-reproduction path, closed loop with one
//! caller. Every rep sends all uploads to fresh collection servers, cleans
//! the records as `CampaignSet::simulate_opts` does, builds the analysis
//! contexts and renders the 35 experiments. Collector clean, core context
//! build and report analysis do the work; pool and query do none.

use super::{
    check_reports, more_reps, render_experiments, same_set, Inject, Pass, PassOpts, Reports,
};
use crate::rss::{self, RssWindow};
use crate::trace::{self, Layer};
use crate::world::World;
use mobitrace_collector::{clean, strip_update_days, CleanOptions, CollectionServer};
use mobitrace_report::CampaignSet;
use std::ops::Range;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "batch_reproduce";

/// Offered, stored and duplicate record counts of one rep's ingest.
#[derive(Debug, Default, Clone, Copy)]
struct Ingest {
    offered: u64,
    stored: u64,
    duplicates: u64,
}

/// One reproduction from uploads to rendered reports; the clock stops
/// when the last report is rendered.
fn reproduce(
    world: &World,
    skip: Option<(usize, &Range<usize>)>,
) -> (CampaignSet, Reports, Ingest, f64) {
    let t0 = Instant::now();
    let keep_updates = CleanOptions { remove_update_days: false, ..CleanOptions::default() };
    let mut ingest = Ingest::default();
    let mut cleaned = Vec::with_capacity(3);
    for (y, yd) in world.years.iter().enumerate() {
        let server = CollectionServer::new();
        {
            let _s = trace::span("collector.ingest", Layer::Collector);
            for u in &yd.uploads {
                if skip.is_some_and(|(sy, r)| sy == y && *r == u.records) {
                    continue;
                }
                ingest.offered += u64::from(u.n());
                ingest.stored += server.ingest_stream(u.bytes.clone()) as u64;
            }
        }
        ingest.duplicates += server.stats().duplicates;
        let records = {
            let _s = trace::span("collector.drain", Layer::Collector);
            server.into_records()
        };
        let _s = trace::span("collector.clean", Layer::Collector);
        cleaned.push(clean(yd.meta.clone(), yd.devices.clone(), &records, keep_updates).0);
    }
    let update_2015 = cleaned.pop().expect("three years");
    let main_2015 = {
        let _s = trace::span("collector.clean", Layer::Collector);
        strip_update_days(&update_2015).0
    };
    let y2014 = cleaned.pop().expect("three years");
    let y2013 = cleaned.pop().expect("three years");
    let set = CampaignSet { years: [y2013, y2014, main_2015], update_2015 };
    let ctxs = {
        let _s = trace::span("core.context", Layer::Core);
        set.contexts()
    };
    let reports = render_experiments(&set, &ctxs);
    let wall = t0.elapsed().as_secs_f64();
    drop(ctxs);
    (set, reports, ingest, wall)
}

/// The upload `--inject drop-upload` withholds: a middle 2013 upload,
/// together with any duplicate re-sending the same records.
fn dropped_upload(world: &World) -> (usize, &Range<usize>) {
    let uploads = &world.years[0].uploads;
    (0, &uploads[uploads.len() / 2].records)
}

/// Run the workload for one pass.
pub fn run(world: &World, opts: &PassOpts) -> Pass {
    let mut pass = Pass::default();
    let skip = (opts.inject == Some(Inject::DropUpload)).then(|| dropped_upload(world));
    let mut started = None;
    let mut ingest;
    let mut rep = 0usize;
    loop {
        trace::set_context(NAME, rep as u32);
        // Rep 0 is the warm-up: checked, neither timed nor traced.
        let traced = rep > 0 && opts.traced(rep - 1);
        let traced_rep = trace::repetition(traced);
        // Memory is measured on the warm-up only: trimming the heap before
        // a rep moves page faults into its timing.
        let window = started.is_none().then(RssWindow::open);
        let (set, reports, got, wall) = reproduce(world, skip);
        if let Some(w) = window {
            pass.peak_rss_mb = rss::growth_mb(&w);
        }
        ingest = got;
        let same = same_set(&set, world.reference());
        check_reports(world, &reports, same, &mut pass, rep);
        drop(set);
        drop(traced_rep);
        match started {
            None => started = Some(Instant::now()),
            Some(_) => {
                pass.timed(traced, wall);
                if !traced {
                    pass.latencies.push(wall);
                }
            }
        }
        rep += 1;
        if !more_reps(opts, &pass, started.expect("set after the warm-up")) {
            break;
        }
    }
    pass.reps = rep;
    pass.counter("collector.records_in", ingest.offered as f64);
    pass.counter("collector.duplicates", ingest.duplicates as f64);
    pass.counter("collector.useful_share", ingest.stored as f64 / ingest.offered.max(1) as f64);
    pass
}
