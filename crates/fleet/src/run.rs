//! The fleet stress driver: synthetic million-device ingest.
//!
//! Producer threads stand in for the fleet. Each owns a contiguous slice
//! of [`DeviceAgent`]s and replays per-bin observations from a shared
//! [`ObservationPool`] (a small scan-plan-cached template campaign,
//! inverted back into observations — see `mobitrace_sim::fleet`). One
//! driver round is one upload round is one 10-minute simulated bin, so
//! the agents' real backoff policy (10–160 simulated minutes) maps to
//! 1–16 skipped rounds.
//!
//! Per agent and round the producer runs the full admission protocol:
//!
//! - `Admit` → drain the agent's cache into a per-thread scratch block
//!   ([`DeviceAgent::take_stream_into`]) and enqueue it;
//! - `Backpressure` → the agent is told (`note_server_reject`) and its
//!   exponential backoff opens; the data stays on the device;
//! - `Shed` → the stream is dropped *and accounted* per record.
//!
//! The run ends when the wall-clock budget expires; workers drain their
//! queues, and the report reconciles every record the fleet ever made:
//!
//! ```text
//! records_made = committed + duplicates + shed + lost_crash + lost_worker
//!              + pending (still on devices) + agent_dropped (cache evictions)
//! ```
//!
//! Chaos mode layers crash/recover cycles and soft-limit squeezes over
//! the cohort servers (each recovery merges the set-aside store back). A
//! [`FaultSpec`] layers *deterministic* faults on top — worker kills
//! (supervised respawn, `lost_worker` accounting), scheduled server
//! crashes, checkpoint I/O failures. The reconciliation must stay exact
//! through all of it, and `checkpoint_dir`/`resume` make the run
//! restartable across process death.
//!
//! [`DeviceAgent`]: mobitrace_collector::DeviceAgent
//! [`ObservationPool`]: mobitrace_sim::ObservationPool

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use mobitrace_collector::{DeviceAgent, DEFAULT_CACHE_CAP};
use mobitrace_model::{DeviceId, Os, OsVersion, SimTime, Year};
use mobitrace_sim::ObservationPool;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::faults::{FaultInjector, FaultSpec, FaultStats};
use crate::ingest::{resolve_workers, Admission, CheckpointConfig, FleetConfig, FleetIngest};

/// Stress-run shape.
#[derive(Debug, Clone)]
pub struct FleetRunConfig {
    /// Synthetic devices.
    pub devices: usize,
    /// Cohorts (independent server domains).
    pub cohorts: usize,
    /// Ingest workers; 0 = auto (one per core, capped at 8).
    pub workers: usize,
    /// Producer threads; 0 = auto.
    pub producers: usize,
    /// Wall-clock budget, seconds.
    pub duration_s: f64,
    /// Crash/recover + soft-limit chaos.
    pub chaos: bool,
    /// Seed for the template campaign and producer jitter.
    pub seed: u64,
    /// Template devices in the observation pool.
    pub templates: usize,
    /// Days simulated per template.
    pub template_days: u32,
    /// Per-worker queue depth, batches.
    pub queue_cap: usize,
    /// Token-bucket rate per cohort, records/s; 0 = unlimited.
    pub rate_per_cohort: f64,
    /// Agent cache capacity (records held through backoff).
    pub agent_cache_cap: usize,
    /// Campaign year the templates are drawn from.
    pub year: Year,
    /// Deterministic fault schedule (worker kills, server crashes,
    /// checkpoint I/O faults). Composes with `chaos`.
    pub faults: Option<FaultSpec>,
    /// Durable per-cohort checkpoints under this directory during the
    /// run (and once more at graceful shutdown).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint a cohort every this-many committed batches.
    pub checkpoint_every_batches: u64,
    /// Rebuild the cohort servers from the newest valid checkpoints in
    /// `checkpoint_dir` before ingesting (the `--resume` path).
    pub resume: bool,
}

impl Default for FleetRunConfig {
    fn default() -> FleetRunConfig {
        FleetRunConfig {
            devices: 50_000,
            cohorts: 4,
            workers: 0,
            producers: 0,
            duration_s: 5.0,
            chaos: false,
            seed: 0xF1EE7,
            templates: 24,
            template_days: 2,
            queue_cap: 256,
            rate_per_cohort: 0.0,
            agent_cache_cap: DEFAULT_CACHE_CAP,
            year: Year::Y2015,
            faults: None,
            checkpoint_dir: None,
            checkpoint_every_batches: 64,
            resume: false,
        }
    }
}

/// What one producer thread observed.
#[derive(Default)]
struct ProducerOut {
    rounds: u32,
    records_made: u64,
    pending: u64,
    dropped: u64,
    server_rejects: u64,
    backoff_skips: u64,
}

/// Everything a fleet stress run measures. Counter semantics follow the
/// reconciliation identity in the module docs; [`reconciles`]
/// (FleetRunReport::reconciles) checks it exactly.
#[derive(Debug, Clone)]
pub struct FleetRunReport {
    /// Devices simulated.
    pub devices: usize,
    /// Cohorts.
    pub cohorts: usize,
    /// Ingest workers that ran.
    pub workers: usize,
    /// Producer threads that ran.
    pub producers: usize,
    /// Upload rounds completed (max over producers).
    pub rounds: u32,
    /// Wall-clock from first observation to queues drained, seconds.
    pub elapsed_s: f64,
    /// Records the agents produced.
    pub records_made: u64,
    /// Records committed to cohort servers.
    pub committed: u64,
    /// Records refused as duplicates.
    pub duplicates: u64,
    /// Records shed under overload (accounted, newest cohorts first).
    pub shed_records: u64,
    /// Records lost to crashes landing mid-flight.
    pub lost_crash: u64,
    /// Records still cached on devices at the end.
    pub pending: u64,
    /// Records evicted from full agent caches during backoff.
    pub agent_dropped: u64,
    /// Backpressure refusals the admission layer signalled.
    pub backpressure_signals: u64,
    /// Rejections the agents registered (opens their backoff).
    pub server_rejects: u64,
    /// Upload rounds agents skipped inside backoff windows.
    pub backoff_skips: u64,
    /// Server crash/recover cycles (chaos + injected).
    pub crashes: u64,
    /// Records a dying worker held in flight (supervision accounting).
    pub lost_worker: u64,
    /// Worker respawns performed by supervision.
    pub restarts: u64,
    /// Workers that exhausted their restart budget and drained as shed.
    pub degraded_workers: u64,
    /// Durable checkpoints written.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (previous file left intact).
    pub checkpoint_failures: u64,
    /// Records recovered from checkpoints at startup (`resume`).
    pub resumed_records: u64,
    /// Which scheduled faults actually fired (None without a schedule).
    pub fault_stats: Option<FaultStats>,
    /// Failures that survived to teardown: escaped worker panics, dead
    /// producers, failed final checkpoints. Non-empty → the run needs
    /// attention (and the counters may not reconcile); CLI exits
    /// non-zero.
    pub failures: Vec<String>,
    /// Sustained commit throughput, records/s.
    pub records_per_s: f64,
    /// Enqueue→commit latency, median, seconds.
    pub enqueue_commit_p50_s: f64,
    /// Enqueue→commit latency, 99th percentile, seconds.
    pub enqueue_commit_p99_s: f64,
}

impl FleetRunReport {
    /// Sum of every accounted outcome; equals [`records_made`]
    /// (FleetRunReport::records_made) when nothing leaked.
    pub fn accounted(&self) -> u64 {
        self.committed
            + self.duplicates
            + self.shed_records
            + self.lost_crash
            + self.lost_worker
            + self.pending
            + self.agent_dropped
    }

    /// Whether every record the fleet made is accounted for.
    pub fn reconciles(&self) -> bool {
        self.accounted() == self.records_made
    }

    /// A clean run: the identity balances and nothing failed during
    /// supervision or teardown.
    pub fn healthy(&self) -> bool {
        self.reconciles() && self.failures.is_empty()
    }
}

/// Run the fleet stress driver (see module docs).
///
/// # Panics
/// On an invalid resume source; use [`try_run_fleet`] to handle that as
/// an error (the CLI does).
pub fn run_fleet(cfg: &FleetRunConfig) -> FleetRunReport {
    try_run_fleet(cfg).expect("resume from checkpoint dir")
}

/// [`run_fleet`], with resume-source problems (missing/corrupt
/// checkpoint pools) surfaced as a [`PoolError`] instead of a panic.
pub fn try_run_fleet(cfg: &FleetRunConfig) -> Result<FleetRunReport, mobitrace_pool::PoolError> {
    assert!(cfg.devices >= 1);
    let pool = ObservationPool::build(cfg.year, cfg.templates, cfg.template_days, cfg.seed);
    let injector = cfg.faults.clone().map(FaultInjector::new);
    let fleet_cfg = FleetConfig {
        cohorts: cfg.cohorts,
        workers: cfg.workers,
        queue_cap: cfg.queue_cap,
        rate_per_cohort: cfg.rate_per_cohort,
        // Two seconds of sustained rate as burst headroom: enough to
        // absorb a synchronized upload round without voiding the limit.
        burst: if cfg.rate_per_cohort > 0.0 {
            cfg.rate_per_cohort * 2.0
        } else {
            FleetConfig::default().burst
        },
        checkpoint: cfg.checkpoint_dir.clone().map(|dir| CheckpointConfig {
            dir,
            every_batches: cfg.checkpoint_every_batches,
            final_checkpoint: true,
        }),
        ..FleetConfig::default()
    };
    let fleet = match (cfg.resume, &cfg.checkpoint_dir) {
        (true, Some(dir)) => FleetIngest::resume(fleet_cfg, dir, injector.clone())?,
        (true, None) => panic!("resume requires a checkpoint dir"),
        (false, _) => match injector.clone() {
            Some(inj) => FleetIngest::with_faults(fleet_cfg, inj),
            None => FleetIngest::new(fleet_cfg),
        },
    };
    let n_workers = fleet.n_workers();
    let n_producers = if cfg.producers > 0 { cfg.producers } else { resolve_workers(0) };
    let n_producers = n_producers.min(cfg.devices);
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    let scope_out: (Vec<ProducerOut>, Vec<String>) = std::thread::scope(|scope| {
        let chaos_handle = cfg.chaos.then(|| {
            let fleet = &fleet;
            let stop = &stop;
            let duration_s = cfg.duration_s;
            scope.spawn(move || {
                let mut crashes = 0u64;
                let beat = Duration::from_secs_f64((duration_s / 8.0).clamp(0.05, 0.5));
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(beat);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let n = fleet.servers().len();
                    let victim = &fleet.servers()[k % n];
                    victim.crash();
                    crashes += 1;
                    std::thread::sleep(beat / 2);
                    victim.recover();
                    // Soft-limit squeeze on the next cohort: accepting()
                    // turns false, agents back off, then the limit lifts.
                    let squeezed = &fleet.servers()[(k + 1) % n];
                    squeezed.set_soft_limit(1);
                    std::thread::sleep(beat / 4);
                    squeezed.set_soft_limit(0);
                    k += 1;
                }
                // Leave every cohort healthy so the drain commits.
                for s in fleet.servers() {
                    if s.is_crashed() {
                        s.recover();
                    }
                    s.set_soft_limit(0);
                }
                crashes
            })
        });

        let mut handles = Vec::with_capacity(n_producers);
        for p in 0..n_producers {
            let lo = cfg.devices * p / n_producers;
            let hi = cfg.devices * (p + 1) / n_producers;
            let pool = &pool;
            let fleet = &fleet;
            let stop = &stop;
            let run_cfg = cfg;
            handles.push(scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(run_cfg.seed ^ ((p as u64) << 32));
                let mut agents: Vec<DeviceAgent> = (lo..hi)
                    .map(|d| {
                        // 1-in-4 iOS, matching the campaigns' rough mix.
                        let (os, v) = if d % 4 == 3 {
                            (Os::Ios, OsVersion::new(7, 0))
                        } else {
                            (Os::Android, OsVersion::new(4, 4))
                        };
                        DeviceAgent::new(DeviceId(d as u32), os, v)
                            .with_cache_cap(run_cfg.agent_cache_cap)
                    })
                    .collect();
                let mut scratch = BytesMut::new();
                let mut round = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let now_sim = SimTime::from_minutes(round.wrapping_mul(10));
                    let now_s = start.elapsed().as_secs_f64();
                    for (i, agent) in agents.iter_mut().enumerate() {
                        let device = DeviceId((lo + i) as u32);
                        agent.observe(pool.get(lo + i, round as usize));
                        if agent.in_backoff(now_sim) {
                            // Counts the skip; drains nothing.
                            let n = agent.take_stream_into(now_sim, &mut scratch);
                            debug_assert_eq!(n, 0);
                            continue;
                        }
                        let pending = agent.pending() as u32;
                        match fleet.admit(device, pending, now_s) {
                            (cohort, Admission::Admit) => {
                                let n = agent.take_stream_into(now_sim, &mut scratch);
                                if n > 0 {
                                    fleet.submit(cohort, n, scratch.split().freeze());
                                }
                            }
                            (cohort, Admission::Shed) => {
                                // One frame per observation, so the frame
                                // count is the record count.
                                let n = agent.take_stream_into(now_sim, &mut scratch);
                                if n > 0 {
                                    fleet.account_shed(cohort, n);
                                    scratch.clear();
                                }
                            }
                            (_, Admission::Backpressure) => {
                                agent.note_server_reject(&mut rng, now_sim);
                                fleet.note_backpressure();
                            }
                        }
                    }
                    round += 1;
                    if start.elapsed().as_secs_f64() >= run_cfg.duration_s {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                ProducerOut {
                    rounds: round,
                    records_made: agents.iter().map(|a| a.records_made).sum(),
                    pending: agents.iter().map(|a| a.pending() as u64).sum(),
                    dropped: agents.iter().map(|a| a.dropped_records).sum(),
                    server_rejects: agents.iter().map(|a| a.server_rejects).sum(),
                    backoff_skips: agents.iter().map(|a| a.backoff_skips).sum(),
                }
            }));
        }
        // A dead producer must not abort the run: its agents' counters
        // are gone (the identity cannot balance), but the caller still
        // gets a report naming the failure instead of a panic.
        let mut outs: Vec<ProducerOut> = Vec::with_capacity(n_producers);
        let mut failures: Vec<String> = Vec::new();
        for (p, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(out) => outs.push(out),
                Err(_) => {
                    stop.store(true, Ordering::Relaxed);
                    failures.push(format!("producer {p} died; its agent counters are lost"));
                }
            }
        }
        if let Some(h) = chaos_handle {
            // Producers set `stop`; the chaos thread heals and exits.
            if h.join().is_err() {
                failures.push("chaos controller died".into());
            }
        }
        (outs, failures)
    });
    let (outs, mut failures) = scope_out;

    let stats = fleet.finish();
    failures.extend(stats.worker_failures.iter().cloned());
    let elapsed_s = start.elapsed().as_secs_f64();

    let report = FleetRunReport {
        devices: cfg.devices,
        cohorts: cfg.cohorts,
        workers: n_workers,
        producers: n_producers,
        rounds: outs.iter().map(|o| o.rounds).max().unwrap_or(0),
        elapsed_s,
        records_made: outs.iter().map(|o| o.records_made).sum(),
        committed: stats.committed,
        duplicates: stats.duplicates,
        shed_records: stats.shed_records,
        lost_crash: stats.lost_crash,
        pending: outs.iter().map(|o| o.pending).sum(),
        agent_dropped: outs.iter().map(|o| o.dropped).sum(),
        backpressure_signals: stats.backpressure_signals,
        server_rejects: outs.iter().map(|o| o.server_rejects).sum(),
        backoff_skips: outs.iter().map(|o| o.backoff_skips).sum(),
        crashes: stats.crashes,
        lost_worker: stats.lost_worker,
        restarts: stats.restarts,
        degraded_workers: stats.degraded_workers,
        checkpoints: stats.checkpoints,
        checkpoint_failures: stats.checkpoint_failures,
        resumed_records: stats.resumed_records,
        fault_stats: stats.fault_stats,
        failures,
        records_per_s: if elapsed_s > 0.0 { stats.committed as f64 / elapsed_s } else { 0.0 },
        enqueue_commit_p50_s: stats.latency_quantile(0.50),
        enqueue_commit_p99_s: stats.latency_quantile(0.99),
    };
    debug_assert!(
        !report.failures.is_empty() || report.reconciles(),
        "fleet accounting leaked: made {} != accounted {}",
        report.records_made,
        report.accounted()
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_reconciles_exactly() {
        let report = run_fleet(&FleetRunConfig {
            devices: 400,
            cohorts: 3,
            workers: 2,
            producers: 2,
            duration_s: 0.4,
            templates: 20,
            template_days: 1,
            ..FleetRunConfig::default()
        });
        assert!(report.rounds >= 1);
        assert!(report.records_made > 0);
        assert!(report.committed > 0);
        assert!(report.records_per_s > 0.0);
        assert!(
            report.reconciles(),
            "made {} != accounted {} ({report:?})",
            report.records_made,
            report.accounted()
        );
        assert!(report.enqueue_commit_p99_s >= report.enqueue_commit_p50_s);
    }

    #[test]
    fn rate_limited_run_backpressures_and_still_reconciles() {
        let report = run_fleet(&FleetRunConfig {
            devices: 600,
            cohorts: 2,
            workers: 1,
            producers: 1,
            duration_s: 0.5,
            templates: 20,
            template_days: 1,
            rate_per_cohort: 50.0,
            agent_cache_cap: 2,
            ..FleetRunConfig::default()
        });
        assert!(report.backpressure_signals > 0, "tight buckets must refuse: {report:?}");
        assert!(report.server_rejects > 0, "agents must register the refusals");
        assert!(report.backoff_skips > 0, "refused agents must back off");
        assert!(report.agent_dropped > 0, "tiny caches must evict during backoff");
        assert!(
            report.reconciles(),
            "made {} != accounted {} ({report:?})",
            report.records_made,
            report.accounted()
        );
    }

    #[test]
    fn faulted_run_reconciles_exactly_and_fires_the_schedule() {
        let dir = std::env::temp_dir().join(format!(
            "fleet-faultrun-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_fleet(&FleetRunConfig {
            devices: 600,
            cohorts: 3,
            workers: 2,
            producers: 2,
            duration_s: 0.8,
            templates: 20,
            template_days: 1,
            faults: Some(FaultSpec::quick()),
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every_batches: 8,
            ..FleetRunConfig::default()
        });
        let fired = report.fault_stats.expect("fault stats present");
        assert!(fired.kills_fired >= 2, "quick schedule kills at least twice: {fired:?}");
        assert!(fired.pool_faults_fired >= 1, "at least one pool fault fires: {fired:?}");
        assert!(report.restarts >= 2, "killed workers respawn: {report:?}");
        assert!(report.lost_worker > 0, "a mid-batch kill loses its batch");
        assert!(report.checkpoints > 0, "checkpointing ran");
        assert!(report.checkpoint_failures >= 1, "the injected pool fault failed a checkpoint");
        assert!(
            report.failures.is_empty(),
            "handled faults are not failures: {:?}",
            report.failures
        );
        assert!(
            report.reconciles(),
            "made {} != accounted {} under faults ({report:?})",
            report.records_made,
            report.accounted()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faults_compose_with_chaos() {
        let report = run_fleet(&FleetRunConfig {
            devices: 400,
            cohorts: 2,
            workers: 2,
            producers: 2,
            duration_s: 0.8,
            chaos: true,
            templates: 20,
            template_days: 1,
            faults: Some(FaultSpec::quick()),
            ..FleetRunConfig::default()
        });
        assert!(report.crashes > 0);
        assert!(report.restarts >= 1);
        assert!(
            report.reconciles(),
            "made {} != accounted {} under chaos+faults ({report:?})",
            report.records_made,
            report.accounted()
        );
    }

    #[test]
    fn chaos_run_reconciles_exactly() {
        let report = run_fleet(&FleetRunConfig {
            devices: 500,
            cohorts: 2,
            workers: 2,
            producers: 2,
            duration_s: 0.8,
            chaos: true,
            templates: 20,
            template_days: 1,
            ..FleetRunConfig::default()
        });
        assert!(report.crashes > 0, "chaos must crash at least once: {report:?}");
        assert!(
            report.reconciles(),
            "made {} != accounted {} under chaos ({report:?})",
            report.records_made,
            report.accounted()
        );
    }
}
