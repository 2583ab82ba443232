//! Run a simulated campaign through the live engine.
//!
//! [`run_live_campaign`] wires the pieces end to end: it starts a normal
//! simulated campaign via [`mobitrace_sim::run_campaign_raw`], attaches an
//! [ingest tap](mobitrace_collector::IngestTap) to the collection server
//! the moment it exists, and drains the tap from a dedicated thread into a
//! [`LiveEngine`] *while the campaign is still uploading*. When the
//! campaign ends the engine folds its remaining pending records, the real
//! device table (survey + ground truth, known only after the device loop)
//! replaces the placeholders, and the final snapshot is checked for bit
//! identity against a batch clean of the very records the server retained
//! — the same convergence contract the chaos harness proves for the batch
//! pipeline, so chaos schedules and live analysis compose.

use crate::engine::{check_convergence, FinishedLive, LiveEngine, LiveOptions, LiveStats};
use crate::pool_sink::{PoolSpoolStats, SnapshotPoolSink};
use mobitrace_collector::CleanStats;
use mobitrace_model::LiveSnapshot;
use mobitrace_pool::PoolError;
use mobitrace_sim::{run_campaign_raw, CampaignConfig, RawCampaign};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Callback invoked on every snapshot the engine publishes: each mid-run
/// compaction (from the drain thread) and the finished snapshot (from the
/// caller's thread, after the real device table is installed). The `Send`
/// bound is what lets the drain thread carry it; callers that stream
/// results share the output sink behind a mutex.
pub type SnapshotObserver = Box<dyn FnMut(&Arc<LiveSnapshot>, &LiveStats) + Send>;

/// One published snapshot observed during the run: how much the engine had
/// folded and what the incremental maintenance had cost by then. The cost
/// counters are cumulative; deltas between consecutive metrics give the
/// per-snapshot cost. Every compaction copies the whole merged run, so a
/// single delta grows with the dataset; only the total (at most 17× the
/// rows folded) is linear.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMetric {
    /// Compactions done when the snapshot was taken.
    pub compactions: u64,
    /// Bin rows in the published snapshot.
    pub bins: usize,
    /// Records folded so far.
    pub folded: u64,
    /// Tap batches consumed so far.
    pub batches: u64,
    /// Cumulative nanoseconds spent folding.
    pub fold_nanos: u64,
    /// Cumulative nanoseconds spent compacting.
    pub compact_nanos: u64,
}

/// Everything a live campaign run produces.
#[derive(Debug)]
pub struct LiveRunReport {
    /// The finished engine output: final snapshot, counters, late keys.
    pub finished: FinishedLive,
    /// The campaign as the batch path sees it (records, device table,
    /// transport/ingest counters).
    pub raw: RawCampaign,
    /// Periodic snapshot metrics, one per compaction observed mid-run.
    pub snapshots: Vec<SnapshotMetric>,
    /// `None` when the final snapshot is bit-identical to the batch
    /// reference; otherwise a description of the first divergence.
    pub divergence: Option<String>,
    /// The batch reference's cleaning stats (present when converged).
    pub batch_stats: Option<CleanStats>,
    /// Records published through the tap (replays included).
    pub tap_published: u64,
    /// Records that overflowed a tap channel into the spill buffer.
    pub tap_overflow: u64,
    /// Wall-clock seconds for the whole run (campaign + live engine).
    pub wall_s: f64,
}

impl LiveRunReport {
    /// Whether the live snapshot matched the batch reference exactly.
    pub fn converged(&self) -> bool {
        self.divergence.is_none()
    }
}

/// How long the drainer sleeps when the tap has nothing for it.
const DRAIN_IDLE: Duration = Duration::from_millis(1);

/// Run one campaign with the live engine attached; see the
/// [module docs](self). Deterministic in its *products*: the final
/// snapshot and the convergence verdict depend only on the config, never
/// on drain timing (timing moves work between batches, not records
/// between outcomes).
pub fn run_live_campaign(config: &CampaignConfig, opts: LiveOptions) -> LiveRunReport {
    run_live_campaign_inner(config, opts, None, None).0
}

/// [`run_live_campaign`], plus a [`SnapshotObserver`] invoked on every
/// published snapshot generation — the hook `mobitrace serve` uses to
/// re-evaluate registered queries mid-campaign without stopping ingest.
pub fn run_live_campaign_observed(
    config: &CampaignConfig,
    opts: LiveOptions,
    observer: SnapshotObserver,
) -> LiveRunReport {
    run_live_campaign_inner(config, opts, None, Some(observer)).0
}

/// [`run_live_campaign`], plus streaming persistence: snapshots the engine
/// publishes mid-run are appended to the pool at `path` on the sink's
/// geometric cadence ([`SnapshotPoolSink::offer`]), each as its own
/// generation, and the finished snapshot always is, so other processes can
/// mmap the file and analyze the latest complete generation while the
/// campaign is still uploading. Creating the pool (taking the writer lock) can fail; append
/// failures after that degrade persistence only and are reported in the
/// returned [`PoolSpoolStats`].
pub fn run_live_campaign_to_pool(
    config: &CampaignConfig,
    opts: LiveOptions,
    path: &Path,
) -> Result<(LiveRunReport, PoolSpoolStats), PoolError> {
    let sink = SnapshotPoolSink::create(path)?;
    let (report, stats) = run_live_campaign_inner(config, opts, Some(sink), None);
    Ok((report, stats.expect("sink passed in is returned")))
}

fn run_live_campaign_inner(
    config: &CampaignConfig,
    opts: LiveOptions,
    mut sink: Option<SnapshotPoolSink>,
    mut observer: Option<SnapshotObserver>,
) -> (LiveRunReport, Option<PoolSpoolStats>) {
    let t0 = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    type WorkerOut =
        (LiveEngine, Vec<SnapshotMetric>, Option<SnapshotPoolSink>, Option<SnapshotObserver>);
    let mut worker: Option<std::thread::JoinHandle<WorkerOut>> = None;
    let mut tap_handle = None;

    let raw = run_campaign_raw(config, |server| {
        let tap = server.attach_tap();
        tap_handle = Some(Arc::clone(&tap));
        let stop = Arc::clone(&stop);
        let mut engine = LiveEngine::new(
            mobitrace_model::CampaignMeta {
                year: config.year,
                start: config.year.campaign_start(),
                days: config.days,
                seed: config.seed,
            },
            config.n_users,
            opts,
        );
        let mut sink = sink.take();
        let mut observer = observer.take();
        worker = Some(std::thread::spawn(move || {
            let mut batches = Vec::new();
            let mut metrics = Vec::new();
            let mut seen_compactions = 0u64;
            loop {
                // Read the stop flag *before* draining: everything
                // published before the flag was raised is caught by this
                // final drain, so no batch is ever left behind.
                let stopping = stop.load(Ordering::Acquire);
                tap.drain_into(&mut batches);
                let idle = batches.is_empty();
                for batch in batches.drain(..) {
                    engine.ingest_batch(&batch);
                }
                let s = engine.stats();
                if s.compactions > seen_compactions {
                    seen_compactions = s.compactions;
                    let snap = engine.snapshot();
                    if let Some(sink) = sink.as_mut() {
                        sink.offer(&snap);
                    }
                    if let Some(obs) = observer.as_mut() {
                        obs(&snap, &s);
                    }
                    metrics.push(SnapshotMetric {
                        compactions: s.compactions,
                        bins: snap.len(),
                        folded: s.folded,
                        batches: s.batches,
                        fold_nanos: s.fold_nanos,
                        compact_nanos: s.compact_nanos,
                    });
                }
                if stopping {
                    break;
                }
                if idle {
                    std::thread::sleep(DRAIN_IDLE);
                }
            }
            (engine, metrics, sink, observer)
        }));
    });

    // The campaign (and its last upload) is over; let the drainer finish.
    stop.store(true, Ordering::Release);
    let (mut engine, mut snapshots, mut sink, mut observer) =
        worker.expect("on_server hook ran").join().expect("live drain thread");
    let tap = tap_handle.expect("tap attached");

    // The real device table (survey answers, ground truth) exists only
    // now; swap it in before the final fold + compaction.
    engine.install_devices(raw.devices.clone());
    let finished = engine.finish();
    if let Some(s) = sink.as_mut() {
        s.append(&finished.snapshot);
    }
    if let Some(obs) = observer.as_mut() {
        obs(&finished.snapshot, &finished.stats);
    }
    snapshots.push(SnapshotMetric {
        compactions: finished.stats.compactions,
        bins: finished.snapshot.len(),
        folded: finished.stats.folded,
        batches: finished.stats.batches,
        fold_nanos: finished.stats.fold_nanos,
        compact_nanos: finished.stats.compact_nanos,
    });

    let (divergence, batch_stats) = match check_convergence(&finished, &raw.records, opts.clean) {
        Ok(stats) => (None, Some(stats)),
        Err(why) => (Some(why), None),
    };

    let report = LiveRunReport {
        finished,
        raw,
        snapshots,
        divergence,
        batch_stats,
        tap_published: tap.published(),
        tap_overflow: tap.overflow(),
        wall_s: t0.elapsed().as_secs_f64(),
    };
    (report, sink.map(|s| s.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool_sink::PERSIST_GROWTH;

    fn tiny(seed: u64) -> CampaignConfig {
        let mut cfg = CampaignConfig::scaled(mobitrace_model::Year::Y2015, 0.02);
        cfg.days = 3;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn live_campaign_converges() {
        let report = run_live_campaign(&tiny(21), LiveOptions::default());
        assert!(report.converged(), "diverged: {:?}", report.divergence);
        let stats = report.batch_stats.unwrap();
        assert!(stats.bins_out > 0);
        assert_eq!(report.finished.stats.bins_out, stats.bins_out);
        // The tap saw every record the server retained, exactly once (no
        // crashes in this campaign, so no replays).
        assert_eq!(report.tap_published, report.raw.records.len() as u64);
        assert_eq!(report.finished.stats.records_seen, report.tap_published);
        // Snapshots were published during the run, not just at the end.
        assert!(!report.snapshots.is_empty());
        // Ground truth made it into the live dataset's device table.
        assert!(report.finished.snapshot.ds.devices.iter().all(|d| d.truth.is_some()));
    }

    #[test]
    fn live_campaign_converges_under_chaos() {
        use mobitrace_collector::ChaosProfile;
        let mut cfg = tiny(22).with_chaos(ChaosProfile::flaky());
        cfg.tether_users = 0.0;
        let report = run_live_campaign(&cfg, LiveOptions::default());
        assert!(report.converged(), "diverged under chaos: {:?}", report.divergence);
        assert!(report.raw.net.chaos_failed > 0, "chaos did not bite");
    }

    #[test]
    fn live_pool_spool_serves_concurrent_readers_and_lands_on_final_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "mt-live-pool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.mtpool");

        // A second "process": polls the pool while the writer appends.
        // Every successful open must decode cleanly (atomic publication);
        // opens may fail benignly before the file exists or mid-slot-flip
        // (the reader just retries), but a decode of a published
        // generation must never fail.
        let stop = Arc::new(AtomicBool::new(false));
        let rpath = path.clone();
        let rstop = Arc::clone(&stop);
        let reader = std::thread::spawn(move || {
            let mut decoded = 0u64;
            while !rstop.load(Ordering::Acquire) {
                if let Ok(Some(pd)) = crate::pool_sink::latest_generation(&rpath) {
                    assert_eq!(pd.ds.bins.len(), pd.cols.device.len());
                    decoded += 1;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            decoded
        });

        let (report, spool) =
            run_live_campaign_to_pool(&tiny(24), LiveOptions::default(), &path).unwrap();
        stop.store(true, Ordering::Release);
        let mid_run_decodes = reader.join().expect("reader thread");

        assert!(report.converged(), "diverged: {:?}", report.divergence);
        assert_eq!(spool.error, None, "spool degraded: {:?}", spool.error);
        // Mid-run generations persist on the sink's growth cadence; the
        // finished snapshot (the last metric) always does.
        let (finished, mid_run) = report.snapshots.split_last().expect("finished snapshot");
        let persisted_mid_run = {
            let mut last: Option<usize> = None;
            mid_run
                .iter()
                .filter(|m| {
                    let keep = last.is_none_or(|l| m.bins as f64 >= l as f64 * PERSIST_GROWTH);
                    if keep {
                        last = Some(m.bins);
                    }
                    keep
                })
                .count() as u64
        };
        assert_eq!(finished.compactions, report.finished.stats.compactions);
        assert_eq!(spool.generations, persisted_mid_run + 1);
        assert!(spool.generations >= 1);
        assert!(spool.epoch >= spool.generations);

        // After the run, the newest generation is the finished snapshot,
        // bit-identical — ground truth device table included.
        let pd = crate::pool_sink::latest_generation(&path).unwrap().expect("final generation");
        assert_eq!(pd.ds, report.finished.snapshot.ds);
        assert_eq!(pd.index, report.finished.snapshot.index);
        assert_eq!(pd.cols, report.finished.snapshot.cols);

        // The mid-run reader is timing-dependent; just surface the count
        // so a regression to "readers always blocked" would be visible.
        let _ = mid_run_decodes;
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_products_are_drain_timing_independent() {
        // Two runs of the same config: the final snapshot must be
        // bit-identical even though drain timing (batch boundaries,
        // compaction points) differs between runs. Timing-dependent
        // counters (batches, overflow) are deliberately not compared.
        let a = run_live_campaign(&tiny(23), LiveOptions::default());
        let b = run_live_campaign(&tiny(23), LiveOptions::default());
        assert_eq!(a.finished.snapshot.ds, b.finished.snapshot.ds);
        assert_eq!(a.finished.snapshot.index, b.finished.snapshot.index);
        assert_eq!(a.finished.snapshot.cols, b.finished.snapshot.cols);
        assert_eq!(a.finished.stats.as_clean_stats(), b.finished.stats.as_clean_stats());
    }
}
