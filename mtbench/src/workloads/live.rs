//! `live_serve`: the streaming path, open loop. A generator thread sends
//! the 2015 uploads to a tapped collection server at a fixed
//! [`LIVE_RATE`]; this thread drains the tap into the live engine and, on
//! every new compaction, refreshes six registered queries. The answers'
//! staleness is the user-visible result: live fold/compact and query
//! refresh set it, and the geometric snapshot cadence decides how stale
//! served answers get between generations.
//!
//! `run_live_campaign*` accepts only a simulator config, so this module
//! re-creates its drain loop around the public engine calls.

use super::{wait_until, Pass, PassOpts};
use crate::rss::{self, RssWindow};
use crate::stats;
use crate::trace::{self, Layer};
use crate::world::{World, LIVE_RATE};
use mobitrace_collector::CollectionServer;
use mobitrace_live::{check_convergence, LiveEngine, LiveOptions};
use mobitrace_query::{watermark_minute, CompileOptions, Query, QuerySet, ServeRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "live_serve";

/// Registered filters besides the unfiltered query.
const FILTERS: [&str; 5] =
    ["venue=home", "venue=public", "os=android && day>=1", "wifi=assoc", "hour>=18 && hour<24"];
/// Staleness sampling interval over the send schedule, seconds.
const SAMPLE_S: f64 = 0.010;
/// A pass needs at least this many refresh samples.
pub const MIN_REFRESH: usize = 100;
/// Replays a pass may add while collecting [`MIN_REFRESH`] samples.
const MAX_REPLAYS: usize = 8;
/// Drain-thread sleep when the tap is empty (as the live campaign runner).
const DRAIN_IDLE: Duration = Duration::from_millis(1);

fn query_set() -> QuerySet {
    let mut queries = vec![Query::unfiltered("all")];
    for (i, src) in FILTERS.iter().enumerate() {
        queries.push(Query::parse(format!("q{}", i + 1), src).expect("registered filters parse"));
    }
    QuerySet { queries, opts: CompileOptions::default() }
}

/// What one replay produced.
#[derive(Default)]
struct Replay {
    staleness: Vec<f64>,
    refresh: Vec<f64>,
    gen_late: Vec<f64>,
    selected: f64,
    selectable: f64,
    backlog_max: u64,
    tap_overflow: u64,
    wall_s: f64,
    peak_rss_mb: Option<f64>,
    counters: mobitrace_live::LiveStats,
}

fn refresh(
    set: &QuerySet,
    snap: &mobitrace_model::LiveSnapshot,
    generation: u64,
    out: &mut Replay,
) -> Vec<ServeRecord> {
    let recs = {
        let _s = trace::span("query.evaluate", Layer::Query);
        set.evaluate(&snap.ds, &snap.index, &snap.cols, generation, watermark_minute(&snap.cols))
    };
    out.refresh.extend(recs.iter().map(|r| r.elapsed_s));
    out.selected += recs[1..].iter().map(|r| r.rows as f64).sum::<f64>();
    out.selectable += (recs[0].rows * (recs.len() - 1)) as f64;
    recs
}

fn replay(world: &World, rep: usize, pass: &mut Pass) -> Replay {
    let window = RssWindow::open();
    let y = &world.years[2];
    let set = query_set();
    let mut out = Replay::default();
    let mut due = Vec::with_capacity(y.uploads.len());
    let mut offered = 0u64;
    for u in &y.uploads {
        due.push(offered as f64 / LIVE_RATE);
        offered += u64::from(u.n());
    }
    // Coverage is judged on originals: their last-record minutes ascend.
    let originals: Vec<(u32, f64)> = y
        .uploads
        .iter()
        .zip(&due)
        .filter(|(u, _)| !u.dup)
        .map(|(u, &d)| (u.last_minute, d))
        .collect();

    let server = CollectionServer::new();
    let tap = server.attach_tap();
    let opts = LiveOptions::default();
    let mut engine = LiveEngine::new(y.meta.clone(), y.devices.len(), opts);
    let done = AtomicBool::new(false);
    let mut generations: Vec<(f64, Option<u32>)> = Vec::new();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            trace::set_context(NAME, rep as u32);
            let _root = trace::thread_root();
            let mut late = Vec::with_capacity(y.uploads.len());
            for (u, &d) in y.uploads.iter().zip(&due) {
                late.push(wait_until(start, d));
                let _s = trace::rolled("collector.ingest", Layer::Collector);
                server.ingest_stream(u.bytes.clone());
            }
            done.store(true, Ordering::Release);
            late
        });
        let mut batches = Vec::new();
        let mut seen = 0u64;
        loop {
            // Read the flag before draining: whatever was published before
            // it rose is caught by this last drain.
            let stopping = done.load(Ordering::Acquire);
            {
                let _s = trace::rolled("collector.drain", Layer::Collector);
                tap.drain_into(&mut batches);
            }
            let idle = batches.is_empty();
            for b in batches.drain(..) {
                let _s = trace::rolled("live.ingest_batch", Layer::Live);
                engine.ingest_batch(&b);
            }
            let s = engine.stats();
            out.backlog_max = out.backlog_max.max(tap.published().saturating_sub(s.records_seen));
            if s.compactions > seen {
                seen = s.compactions;
                let snap = engine.snapshot();
                let recs = refresh(&set, &snap, s.compactions, &mut out);
                generations.push((start.elapsed().as_secs_f64(), recs[0].watermark));
            }
            if stopping {
                break;
            }
            if idle {
                let _w = trace::rolled_wait("live.idle", Layer::Live);
                std::thread::sleep(DRAIN_IDLE);
            }
        }
        out.gen_late = generator.join().expect("live generator thread");
    });

    let fin = {
        let _s = trace::span("live.finish", Layer::Live);
        engine.install_devices(y.devices.clone());
        engine.finish()
    };
    let last = refresh(&set, &fin.snapshot, fin.stats.compactions, &mut out);
    out.wall_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = rss::growth_mb(&window);

    // Staleness over the send schedule: sample time minus the due time of
    // the newest upload the latest served generation covers.
    let end = due.last().copied().unwrap_or(0.0);
    let mut g = 0usize;
    let mut k = 0u64;
    loop {
        let t = k as f64 * SAMPLE_S;
        if t > end {
            break;
        }
        while g < generations.len() && generations[g].0 <= t {
            g += 1;
        }
        let covered_due = match g.checked_sub(1).and_then(|i| generations[i].1) {
            Some(w) => match originals.partition_point(|&(m, _)| m <= w) {
                0 => 0.0,
                n => originals[n - 1].1,
            },
            None => 0.0,
        };
        out.staleness.push(t - covered_due);
        k += 1;
    }

    let _v = trace::span("verify.live", Layer::Verify);
    pass.attempted += offered;
    let lost = fin.stats.late_dropped + tap.discarded();
    if lost > 0 {
        pass.fail(lost, format!("replay {rep}: {lost} records late-dropped or discarded"));
    }
    if let Err(why) = check_convergence(&fin, &y.records, opts.clean) {
        pass.fail(offered - lost, format!("replay {rep}: live run diverged from batch: {why}"));
    } else if Some(&last[0].metrics) != world.live_payload.as_ref() {
        pass.fail(offered - lost, format!("replay {rep}: final unfiltered payload differs"));
    }
    out.tap_overflow = tap.overflow();
    out.counters = fin.stats;
    out
}

/// Run the workload for one pass.
pub fn run(world: &World, opts: &PassOpts) -> Pass {
    let mut pass = Pass::default();
    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    let mut rss_mb = Vec::new();
    loop {
        let k = replays.len();
        trace::set_context(NAME, k as u32);
        let traced = opts.traced(k);
        let traced_rep = trace::repetition(traced);
        let r = replay(world, k, &mut pass);
        drop(traced_rep);
        pass.timed(traced, r.wall_s);
        if !traced {
            pass.latencies.extend(&r.staleness);
            rss_mb.push(r.peak_rss_mb);
        }
        replays.push(r);
        let refreshes: usize = replays.iter().map(|r| r.refresh.len()).sum();
        let enough = refreshes >= MIN_REFRESH && (!opts.trace || replays.len() >= 2);
        if (enough && started.elapsed().as_secs_f64() >= opts.seconds)
            || replays.len() >= MAX_REPLAYS
        {
            break;
        }
    }
    let n = replays.len() as f64;
    let all = |f: fn(&Replay) -> &Vec<f64>| {
        stats::sorted(&replays.iter().flat_map(f).copied().collect::<Vec<_>>())
    };
    let per_replay = |f: fn(&Replay) -> u64| replays.iter().map(f).sum::<u64>() as f64 / n;
    let refresh = all(|r| &r.refresh);
    if refresh.len() < MIN_REFRESH {
        pass.fail(
            pass.attempted,
            format!("only {} refresh samples (< {MIN_REFRESH})", refresh.len()),
        );
    }
    pass.latencies = stats::sorted(&pass.latencies);
    pass.peak_rss_mb = rss_mb.into_iter().collect::<Option<Vec<f64>>>().map(|v| stats::median(&v));
    pass.reps = replays.len();
    let selected: f64 = replays.iter().map(|r| r.selected).sum();
    let selectable: f64 = replays.iter().map(|r| r.selectable).sum();
    pass.counter("serve.refresh_p50_s", stats::quantile(&refresh, 0.50));
    pass.counter("serve.refresh_p90_s", stats::quantile(&refresh, 0.90));
    pass.counter("query.selectivity", selected / selectable.max(1.0));
    pass.counter("live.fold_s", per_replay(|r| r.counters.fold_nanos) * 1e-9);
    pass.counter("live.compact_s", per_replay(|r| r.counters.compact_nanos) * 1e-9);
    pass.counter("live.generations", per_replay(|r| r.counters.compactions));
    pass.counter("live.batches", per_replay(|r| r.counters.batches));
    pass.counter("live.dup_dropped", per_replay(|r| r.counters.dup_dropped));
    pass.counter("live.late_dropped", per_replay(|r| r.counters.late_dropped));
    pass.counter(
        "live.backlog_max",
        replays.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
    );
    pass.counter("live.gen_late_p99_s", stats::quantile(&all(|r| &r.gen_late), 0.99));
    pass.counter("live.staleness_p99_s", stats::quantile(&pass.latencies, 0.99));
    pass.counter("collector.tap_overflow", per_replay(|r| r.tap_overflow));
    pass
}
