//! `fleet_ingest`: the fleet frontend under an open-loop rate ladder. One
//! generator thread offers all three years' uploads (device ids disjoint)
//! through `FleetIngest::admit` then `submit` or `account_shed`, at each
//! rung's fixed rate, into a fresh pipeline of 4 cohorts and 1 worker.
//! Admission, the bounded queue and the per-cohort store are the
//! bottleneck; analysis does nothing.

use super::{wait_until, Pass, PassOpts};
use crate::rss::{self, RssWindow};
use crate::stats;
use crate::trace::{self, Layer};
use crate::world::World;
use mobitrace_fleet::{Admission, FleetConfig, FleetIngest};
use mobitrace_model::{DeviceId, Record};
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "fleet_ingest";

/// Offered rates, records/s, with the labels their metrics carry.
pub const RUNGS: [(f64, &str); 6] = [
    (25_000.0, "r25k"),
    (50_000.0, "r50k"),
    (100_000.0, "r100k"),
    (200_000.0, "r200k"),
    (400_000.0, "r400k"),
    (800_000.0, "r800k"),
];
/// The rung whose enqueue→commit latencies are the workload's latency:
/// the lightest, the nearest to the paper's load (1,600 phones uploading
/// every 10 minutes). Once the worker saturates (from about 300k
/// records/s on a 2-vCPU machine), the latency is set by where the
/// cohort-granular shed frontier settles, which flips between two levels
/// about 25% apart from one pipeline to the next on the same input.
const LATENCY_RUNG: usize = 0;
/// The rung the per-layer `fleet.commit_*` metrics describe.
const COMMIT_RUNG: usize = 2;
/// A rung is sustained with no shedding, enqueue→commit p99 at most this…
const COMMIT_P99_LIMIT_S: f64 = 0.010;
/// …and generator lateness p99 at most this.
const GEN_LATE_P99_LIMIT_S: f64 = 0.001;

/// The records of the first `sent` scheduled uploads, minus duplicate
/// re-sends, with fleet device ids, sorted by (device, seq).
fn offered_set(world: &World, sent: usize) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    for u in world.fleet[..sent].iter().filter(|u| !u.dup) {
        let shift = world.fleet_offsets[u.year];
        out.extend(
            world.years[u.year].records[u.records.clone()]
                .iter()
                .map(|r| Record { device: DeviceId(r.device.0 + shift), ..r.clone() }),
        );
    }
    out.sort_unstable_by_key(|r| (r.device, r.seq));
    out
}

/// What one rung measured.
struct Rung {
    peak_rss_mb: Option<f64>,
    goodput_rps: f64,
    shed_share: f64,
    commit_p50_s: f64,
    commit_p99_s: f64,
    gen_late_p99_s: f64,
}

/// Run one rung, checking its accounting into `pass`; an untraced one
/// also gives the workload's latency samples.
fn rung(world: &World, r: usize, rate: f64, rung_s: f64, traced: bool, pass: &mut Pass) -> Rung {
    trace::set_context(NAME, r as u32);
    let _rung = trace::span("bench.rung", Layer::Bench);
    let window = RssWindow::open();
    let fleet = {
        let _s = trace::span("fleet.new", Layer::Fleet);
        FleetIngest::new(FleetConfig { cohorts: 4, workers: 1, ..FleetConfig::default() })
    };
    let mut late = Vec::new();
    let (mut offered, mut refused, mut sent) = (0u64, 0u64, 0usize);
    let start = Instant::now();
    for u in &world.fleet {
        let due = offered as f64 / rate;
        if due >= rung_s {
            break;
        }
        late.push(wait_until(start, due));
        let n = u.n();
        let _s = trace::rolled("fleet.admit", Layer::Fleet);
        match fleet.admit(u.device, n, start.elapsed().as_secs_f64()) {
            (cohort, Admission::Admit) => {
                let _s = trace::rolled("fleet.submit", Layer::Fleet);
                fleet.submit(cohort, n, u.bytes.clone());
            }
            (cohort, Admission::Shed) => fleet.account_shed(cohort, n),
            (_, Admission::Backpressure) => {
                fleet.note_backpressure();
                refused += u64::from(n);
            }
        }
        offered += u64::from(n);
        sent += 1;
    }
    let stats = {
        let _s = trace::span("fleet.finish", Layer::Fleet);
        fleet.finish()
    };
    let wall = start.elapsed().as_secs_f64();
    let peak_rss_mb = rss::growth_mb(&window);

    let _v = trace::span("verify.fleet", Layer::Verify);
    pass.attempted += offered;
    let lost = stats.lost_crash + stats.lost_worker;
    if lost > 0 {
        pass.fail(lost, format!("rung {r}: {lost} records lost to crashes or workers"));
    }
    let accounted = stats.committed + stats.duplicates + stats.shed_records + lost + refused;
    if accounted != offered || stats.rejected_streams > 0 || !stats.worker_failures.is_empty() {
        pass.fail(
            offered - lost,
            format!(
                "rung {r}: identity broken: offered {offered} != accounted {accounted} \
                 (rejected streams {}, failures {:?})",
                stats.rejected_streams, stats.worker_failures
            ),
        );
    }
    let shed = stats.shed_records + refused;
    let row = Rung {
        peak_rss_mb,
        goodput_rps: stats.committed as f64 / wall,
        shed_share: shed as f64 / offered.max(1) as f64,
        commit_p50_s: stats.latency_quantile(0.50),
        commit_p99_s: stats.latency_quantile(0.99),
        gen_late_p99_s: stats::quantile(&stats::sorted(&late), 0.99),
    };
    if r == LATENCY_RUNG && !traced {
        pass.latencies.extend(stats.latencies_s.iter().map(|&l| f64::from(l)));
    }
    if shed == 0 && stats.into_records() != offered_set(world, sent) {
        pass.fail(offered - lost, format!("rung {r}: stored records differ from those offered"));
    }
    row
}

/// Ladders per untraced pass. The lightest rung's enqueue→commit latency
/// is bimodal on a 2-vCPU virtual machine (a woken worker commits in
/// about 20 µs or about 35 µs), so its median follows the host's state
/// during the rung: several short ladders spread over the pass sample
/// more of those states than one long ladder does.
const LADDERS: usize = 5;

/// Run [`LADDERS`] ladders, every rung lasting a fifth of `seconds` split
/// among the ladders, or until the input runs out; with `opts.trace`, as
/// many more traced ladders alternate with the untraced ones in the same
/// time. The per-layer figures are medians over the untraced ladders.
pub fn run(world: &World, opts: &PassOpts) -> Pass {
    let mut pass = Pass::default();
    let ladders = if opts.trace { 2 * LADDERS } else { LADDERS };
    let rung_s = opts.seconds / 5.0 / ladders as f64;
    let mut untraced: Vec<Vec<Rung>> = RUNGS.iter().map(|_| Vec::new()).collect();
    let mut sustained = Vec::new();
    let mut peak_rss_mb = Some(0.0f64);
    for k in 0..ladders {
        let traced = opts.traced(k);
        let traced_rep = trace::repetition(traced);
        let started = Instant::now();
        let mut top = 0.0;
        for (r, &(rate, _)) in RUNGS.iter().enumerate() {
            let m = rung(world, r, rate, rung_s, traced, &mut pass);
            if m.shed_share == 0.0
                && m.commit_p99_s <= COMMIT_P99_LIMIT_S
                && m.gen_late_p99_s <= GEN_LATE_P99_LIMIT_S
            {
                top = rate;
            }
            if !traced {
                peak_rss_mb = peak_rss_mb.zip(m.peak_rss_mb).map(|(a, b)| a.max(b));
                untraced[r].push(m);
            }
        }
        drop(traced_rep);
        pass.timed(traced, started.elapsed().as_secs_f64());
        if !traced {
            sustained.push(top);
        }
    }
    let med =
        |rows: &[Rung], f: fn(&Rung) -> f64| stats::median(&rows.iter().map(f).collect::<Vec<_>>());
    for (r, &(_, label)) in RUNGS.iter().enumerate() {
        let rows = &untraced[r];
        pass.counter(format!("fleet.{label}.goodput_rps"), med(rows, |m| m.goodput_rps));
        pass.counter(format!("fleet.{label}.shed_share"), med(rows, |m| m.shed_share));
        pass.counter(format!("fleet.{label}.commit_p99_s"), med(rows, |m| m.commit_p99_s));
        pass.counter(format!("fleet.{label}.gen_late_p99_s"), med(rows, |m| m.gen_late_p99_s));
        if r == COMMIT_RUNG {
            pass.counter("fleet.commit_p50_s", med(rows, |m| m.commit_p50_s));
            pass.counter("fleet.commit_p99_s", med(rows, |m| m.commit_p99_s));
        }
    }
    pass.counter("fleet.sustained_rps", stats::median(&sustained));
    pass.peak_rss_mb = peak_rss_mb;
    pass.reps = ladders;
    pass
}
