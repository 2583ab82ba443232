//! The thread-per-core ingest pipeline.
//!
//! [`FleetIngest`] fronts one [`CollectionServer`] per cohort with a pool
//! of pinned ingest workers. Producers (device agents, or the driver
//! threads standing in for a million of them) go through a two-step
//! protocol:
//!
//! 1. [`admit`](FleetIngest::admit) — the admission decision:
//!    server-level backpressure ([`accepting`]), the shed frontier
//!    (queue-depth graduated, newest cohorts first), the per-cohort token
//!    bucket, and a queue-full check, in that order;
//! 2. [`submit`](FleetIngest::submit) — hand the encoded upload stream to
//!    the cohort's worker over a bounded channel.
//!
//! Each worker owns its receive queue outright: it decodes streams with
//! the zero-alloc [`decode_batch_into`] *outside* the server lock and
//! commits via [`store_batch`], which takes that lock once per batch.
//! Cohort → worker assignment is static (`cohort mod workers`), so each
//! cohort server has exactly one writer and one cohort's batches are
//! never reordered against each other — the per-device arrival order the
//! dedup path relies on survives the fan-out.
//!
//! [`CollectionServer`]: mobitrace_collector::CollectionServer
//! [`accepting`]: mobitrace_collector::CollectionServer::accepting
//! [`decode_batch_into`]: mobitrace_collector::decode_batch_into
//! [`store_batch`]: mobitrace_collector::CollectionServer::store_batch

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{bounded, Sender};
use mobitrace_collector::CollectionServer;
use mobitrace_model::{DeviceId, Record};
use mobitrace_pool::PoolError;
use parking_lot::Mutex;

use crate::admission::{is_shed, shed_level, TokenBucket};
use crate::faults::FaultInjector;
use crate::router::CohortRouter;
use crate::supervisor::{supervise, RestartPolicy, WorkerCtx, WorkerOut};

/// Fleet pipeline shape and admission policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Independent ingest domains (servers). At least 1.
    pub cohorts: usize,
    /// Ingest workers; 0 = one per available core (capped at 8).
    pub workers: usize,
    /// Bounded per-worker queue depth, in batches. At least 1.
    pub queue_cap: usize,
    /// Token-bucket sustained rate per cohort, records/s; <= 0 unlimited.
    pub rate_per_cohort: f64,
    /// Token-bucket burst per cohort, records.
    pub burst: f64,
    /// Per-cohort server soft record limit (0 disables) — the server-level
    /// backpressure admission forwards to agents.
    pub soft_limit: usize,
    /// Pin worker threads to cores (best effort, Linux only).
    pub pin_workers: bool,
    /// Periodic per-cohort durable checkpointing (None disables).
    pub checkpoint: Option<CheckpointConfig>,
    /// Worker restart budget + backoff (see [`RestartPolicy`]).
    pub restart: RestartPolicy,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            cohorts: 4,
            workers: 0,
            queue_cap: 256,
            rate_per_cohort: 0.0,
            burst: 50_000.0,
            soft_limit: 0,
            pin_workers: true,
            checkpoint: None,
            restart: RestartPolicy::default(),
        }
    }
}

/// Periodic durable checkpointing of cohort servers into `.mtpool`
/// files, one per cohort, under a directory. Each checkpoint is an
/// atomic replace: a crash at any point leaves the previous checkpoint
/// intact, so the directory always holds the newest *valid* checkpoint
/// per cohort. Resume via [`FleetIngest::resume`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding `cohort-<n>.mtpool` files (created if absent).
    pub dir: PathBuf,
    /// Checkpoint a cohort after every this-many batches committed for
    /// it (minimum 1).
    pub every_batches: u64,
    /// Also checkpoint every cohort once during a graceful
    /// [`finish`](FleetIngest::finish), making a clean shutdown
    /// lossless on resume. Kill-9 tests turn this off to model a
    /// process that never got to say goodbye.
    pub final_checkpoint: bool,
}

impl CheckpointConfig {
    /// Checkpoint everything under `dir`, every 64 batches per cohort,
    /// with a final checkpoint on graceful shutdown.
    pub fn in_dir(dir: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig { dir: dir.into(), every_batches: 64, final_checkpoint: true }
    }

    /// The checkpoint file for one cohort.
    pub fn cohort_path(&self, cohort: u32) -> PathBuf {
        self.dir.join(format!("cohort-{cohort}.mtpool"))
    }
}

/// Number of workers a config resolves to on this machine.
pub fn resolve_workers(cfg_workers: usize) -> usize {
    if cfg_workers > 0 {
        cfg_workers
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get()).min(8)
    }
}

/// The admission decision for one agent's pending upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue via [`FleetIngest::submit`].
    Admit,
    /// Refuse and keep the data on the device: the agent must be told via
    /// `note_server_reject` so its backoff opens.
    Backpressure,
    /// Drop the upload and account it via [`FleetIngest::account_shed`].
    Shed,
}

/// One enqueued upload: a contiguous frame stream from a single device.
pub(crate) struct Batch {
    pub(crate) cohort: u32,
    /// Records the producer says are in `stream` — carried alongside so
    /// a supervisor can account a batch its worker died holding without
    /// decoding it.
    pub(crate) n_records: u32,
    pub(crate) stream: Bytes,
    pub(crate) enqueued: Instant,
}

/// The running fleet pipeline (see module docs).
pub struct FleetIngest {
    cfg: FleetConfig,
    router: CohortRouter,
    servers: Arc<Vec<Arc<CollectionServer>>>,
    buckets: Vec<Mutex<TokenBucket>>,
    shed: Arc<Vec<AtomicU64>>,
    txs: Vec<Sender<Batch>>,
    depth: Vec<Arc<AtomicUsize>>,
    paused: Arc<AtomicBool>,
    workers: Vec<JoinHandle<WorkerOut>>,
    n_workers: usize,
    injector: Option<Arc<FaultInjector>>,
    backpressure_signals: AtomicU64,
    enqueued_records: AtomicU64,
    resumed_records: u64,
}

impl FleetIngest {
    /// Build the servers and spawn the worker pool.
    pub fn new(cfg: FleetConfig) -> FleetIngest {
        FleetIngest::assemble(cfg, None, None)
    }

    /// [`new`](Self::new) with an armed [`FaultInjector`]: workers run
    /// its schedule (kills, server crashes) and checkpoint writers wear
    /// it as their pool I/O shim.
    pub fn with_faults(cfg: FleetConfig, injector: Arc<FaultInjector>) -> FleetIngest {
        FleetIngest::assemble(cfg, Some(injector), None)
    }

    /// Rebuild a pipeline from the newest valid checkpoints in `dir`
    /// (as written by a [`CheckpointConfig`]-enabled run) and continue
    /// ingesting into the recovered state. Cohorts with no checkpoint
    /// file start empty; a checkpoint that exists but fails validation
    /// is a loud error — resuming past silent corruption is how
    /// longitudinal datasets grow holes.
    /// [`FleetStats::resumed_records`] reports what was recovered.
    pub fn resume(
        cfg: FleetConfig,
        dir: &Path,
        injector: Option<Arc<FaultInjector>>,
    ) -> Result<FleetIngest, PoolError> {
        let mut servers = Vec::with_capacity(cfg.cohorts);
        for cohort in 0..cfg.cohorts {
            let path = dir.join(format!("cohort-{cohort}.mtpool"));
            let server = if path.exists() {
                CollectionServer::recover_from_pool(&path)?
            } else {
                CollectionServer::new()
            };
            server.set_soft_limit(cfg.soft_limit);
            servers.push(Arc::new(server));
        }
        Ok(FleetIngest::assemble(cfg, injector, Some(servers)))
    }

    fn assemble(
        cfg: FleetConfig,
        injector: Option<Arc<FaultInjector>>,
        resumed: Option<Vec<Arc<CollectionServer>>>,
    ) -> FleetIngest {
        assert!(cfg.cohorts >= 1 && cfg.queue_cap >= 1);
        if let Some(ckpt) = &cfg.checkpoint {
            std::fs::create_dir_all(&ckpt.dir).expect("create checkpoint dir");
        }
        let router = CohortRouter::new(cfg.cohorts);
        let resumed_records;
        let servers: Arc<Vec<Arc<CollectionServer>>> = match resumed {
            Some(existing) => {
                assert_eq!(existing.len(), cfg.cohorts);
                resumed_records = existing.iter().map(|s| s.len() as u64).sum();
                Arc::new(existing)
            }
            None => {
                resumed_records = 0;
                Arc::new(
                    (0..cfg.cohorts)
                        .map(|_| {
                            let s = CollectionServer::new();
                            s.set_soft_limit(cfg.soft_limit);
                            Arc::new(s)
                        })
                        .collect(),
                )
            }
        };
        let buckets = (0..cfg.cohorts)
            .map(|_| Mutex::new(TokenBucket::new(cfg.rate_per_cohort, cfg.burst)))
            .collect();
        let shed: Arc<Vec<AtomicU64>> =
            Arc::new((0..cfg.cohorts).map(|_| AtomicU64::new(0)).collect());
        let n_workers = resolve_workers(cfg.workers);
        let paused = Arc::new(AtomicBool::new(false));
        let mut txs = Vec::with_capacity(n_workers);
        let mut depth = Vec::with_capacity(n_workers);
        let mut workers = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let (tx, rx) = bounded::<Batch>(cfg.queue_cap);
            let d = Arc::new(AtomicUsize::new(0));
            let ctx = WorkerCtx {
                worker: w,
                servers: Arc::clone(&servers),
                depth: Arc::clone(&d),
                paused: Arc::clone(&paused),
                shed: Arc::clone(&shed),
                injector: injector.clone(),
                checkpoint: cfg.checkpoint.clone(),
                policy: cfg.restart,
            };
            let pin = cfg.pin_workers;
            workers.push(
                std::thread::Builder::new()
                    .name(format!("fleet-ingest-{w}"))
                    .spawn(move || {
                        if pin {
                            // Best effort: on a smaller machine the core
                            // may not exist, and that is fine.
                            let _ = affinity::pin_to_core(w);
                        }
                        supervise(ctx, rx)
                    })
                    .expect("spawn fleet worker"),
            );
            txs.push(tx);
            depth.push(d);
        }
        FleetIngest {
            cfg,
            router,
            servers,
            buckets,
            shed,
            txs,
            depth,
            paused,
            workers,
            n_workers,
            injector,
            backpressure_signals: AtomicU64::new(0),
            enqueued_records: AtomicU64::new(0),
            resumed_records,
        }
    }

    /// The router (for cohort lookups without an admission decision).
    pub fn router(&self) -> &CohortRouter {
        &self.router
    }

    /// Records recovered from checkpoints at construction (0 unless this
    /// ingest was built by [`FleetIngest::resume`]).
    pub fn resumed_records(&self) -> u64 {
        self.resumed_records
    }

    /// The per-cohort servers, in cohort order (chaos controllers crash,
    /// recover and squeeze them through this).
    pub fn servers(&self) -> &[Arc<CollectionServer>] {
        &self.servers
    }

    /// Ingest workers actually running.
    pub fn n_workers(&self) -> usize {
        self.n_workers
    }

    fn worker_of(&self, cohort: u32) -> usize {
        cohort as usize % self.n_workers
    }

    /// Decide admission for `n_records` pending on `device` at `now_s`
    /// (seconds on any monotonic clock; feeds the token buckets). Returns
    /// the device's cohort alongside the decision; the caller completes
    /// the protocol (`submit`, `account_shed`, or agent backoff +
    /// [`note_backpressure`](FleetIngest::note_backpressure)).
    pub fn admit(&self, device: DeviceId, n_records: u32, now_s: f64) -> (u32, Admission) {
        let cohort = self.router.cohort_of(device);
        if !self.servers[cohort as usize].accepting() {
            return (cohort, Admission::Backpressure);
        }
        // The bucket is the cohort's rate contract and is consulted
        // before the queue-depth shed frontier: rate-limited traffic is
        // *refused* (kept on the device, retried after backoff) so the
        // bucket protects the queues, and shedding stays the emergency
        // valve for load the contract admitted but the workers cannot
        // absorb.
        if self.cfg.rate_per_cohort > 0.0
            && !self.buckets[cohort as usize].lock().try_take(f64::from(n_records), now_s)
        {
            return (cohort, Admission::Backpressure);
        }
        let w = self.worker_of(cohort);
        let fill = self.depth[w].load(Ordering::Relaxed) as f64 / self.cfg.queue_cap as f64;
        let level = shed_level(self.router.n_cohorts(), fill);
        if is_shed(cohort as usize, self.router.n_cohorts(), level) {
            return (cohort, Admission::Shed);
        }
        if self.depth[w].load(Ordering::Relaxed) >= self.cfg.queue_cap {
            return (cohort, Admission::Backpressure);
        }
        (cohort, Admission::Admit)
    }

    /// Enqueue an admitted upload stream for `cohort`. May briefly block
    /// if a race filled the queue after `admit` — the bounded channel is
    /// the hard limit the depth check only approximates. If the cohort's
    /// worker is unrecoverably gone (supervision exhausted and the
    /// receiver dropped — should not happen, but must not abort), the
    /// records are accounted as shed rather than lost silently.
    pub fn submit(&self, cohort: u32, n_records: u32, stream: Bytes) {
        let w = self.worker_of(cohort);
        self.depth[w].fetch_add(1, Ordering::Relaxed);
        self.enqueued_records.fetch_add(u64::from(n_records), Ordering::Relaxed);
        let batch = Batch { cohort, n_records, stream, enqueued: Instant::now() };
        if self.txs[w].send(batch).is_err() {
            self.depth[w].fetch_sub(1, Ordering::Relaxed);
            self.shed[cohort as usize].fetch_add(u64::from(n_records), Ordering::Relaxed);
        }
    }

    /// Account `n_records` shed for `cohort`. Every record a producer
    /// drops on a `Shed` decision must pass through here — the
    /// reconciliation invariant counts on it.
    pub fn account_shed(&self, cohort: u32, n_records: u32) {
        self.shed[cohort as usize].fetch_add(u64::from(n_records), Ordering::Relaxed);
    }

    /// Count one backpressure refusal (paired with the agent's
    /// `note_server_reject`).
    pub fn note_backpressure(&self) {
        self.backpressure_signals.fetch_add(1, Ordering::Relaxed);
    }

    /// Stall the workers (simulated downstream hang): queues fill, the
    /// shed frontier advances. Chaos/test hook.
    pub fn pause_workers(&self) {
        self.paused.store(true, Ordering::Relaxed);
    }

    /// Resume stalled workers.
    pub fn resume_workers(&self) {
        self.paused.store(false, Ordering::Relaxed);
    }

    /// Records shed so far, newest cohort included.
    pub fn shed_total(&self) -> u64 {
        self.shed.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Close the intake, drain the queues, join the workers and fold
    /// their counters. Worker failures never abort teardown: a panic
    /// that somehow escaped supervision is folded into
    /// [`FleetStats::worker_failures`] so the caller gets a full report
    /// plus the failure, not an abort.
    pub fn finish(mut self) -> FleetStats {
        self.resume_workers();
        // Heal injector-crashed servers before the queues drain, so the
        // drain commits into recovered stores wherever the schedule's
        // recovery never fired (run ended while a server was down).
        if self.injector.is_some() {
            for s in self.servers.iter() {
                if s.is_crashed() {
                    s.recover();
                }
            }
        }
        self.txs.clear(); // disconnect: workers drain and exit
        let mut latencies_s = Vec::new();
        let (mut committed, mut duplicates, mut lost_crash, mut lost_worker) =
            (0u64, 0u64, 0u64, 0u64);
        let (mut rejected_streams, mut batches, mut restarts) = (0u64, 0u64, 0u64);
        let (mut checkpoints, mut checkpoint_failures, mut degraded_workers) = (0u64, 0u64, 0u64);
        let mut supervision_log: Vec<String> = Vec::new();
        let mut worker_failures: Vec<String> = Vec::new();
        for (w, h) in self.workers.drain(..).enumerate() {
            match h.join() {
                Ok(out) => {
                    latencies_s.extend_from_slice(&out.latencies_s);
                    committed += out.committed;
                    duplicates += out.duplicates;
                    lost_crash += out.lost_crash;
                    lost_worker += out.lost_worker;
                    rejected_streams += out.rejected_streams;
                    batches += out.batches;
                    restarts += out.restarts;
                    checkpoints += out.checkpoints;
                    checkpoint_failures += out.checkpoint_failures;
                    degraded_workers += u64::from(out.degraded);
                    supervision_log.extend(out.log);
                }
                Err(payload) => {
                    // The supervisor itself died — count it loudly; its
                    // in-flight accounting is unrecoverable.
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    worker_failures.push(format!("worker {w} supervisor died: {msg}"));
                }
            }
        }
        // A scheduled crash can fire *during* the drain, after the heal
        // above. Heal again now that the workers are gone: teardown must
        // never leave a set-aside store unmerged, or the final store
        // (and any final checkpoint) would silently miss records an
        // earlier periodic checkpoint already holds.
        if self.injector.is_some() {
            for s in self.servers.iter() {
                if s.is_crashed() {
                    s.recover();
                }
            }
        }
        // Graceful-shutdown checkpoints: with the queues drained and the
        // workers gone, every cohort's live store is final — capture it.
        if let Some(ckpt) = self.cfg.checkpoint.clone().filter(|c| c.final_checkpoint) {
            let shim = self
                .injector
                .as_ref()
                .map(|i| Arc::clone(i) as Arc<dyn mobitrace_pool::PoolIoShim>);
            for (cohort, server) in self.servers.iter().enumerate() {
                if server.is_crashed() {
                    continue;
                }
                match server.checkpoint_to_pool_with(&ckpt.cohort_path(cohort as u32), shim.clone())
                {
                    Ok(_) => checkpoints += 1,
                    Err(e) => {
                        checkpoint_failures += 1;
                        supervision_log.push(format!("final checkpoint cohort {cohort}: {e}"));
                    }
                }
            }
        }
        latencies_s.sort_unstable_by(f32::total_cmp);
        let shed_by_cohort: Vec<u64> =
            self.shed.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let crashes = self.servers.iter().map(|s| s.stats().crashes).sum();
        // A worker that died outside supervision may have leaked its
        // server Arc; fall back to shared handles (record extraction
        // then clones instead of consuming) rather than aborting.
        let servers = match Arc::try_unwrap(std::mem::take(&mut self.servers)) {
            Ok(owned) => owned,
            Err(shared) => {
                worker_failures
                    .push("a dead worker leaked server handles; extracting by clone".into());
                shared.iter().map(Arc::clone).collect()
            }
        };
        FleetStats {
            committed,
            duplicates,
            lost_crash,
            lost_worker,
            rejected_streams,
            batches,
            shed_records: shed_by_cohort.iter().sum(),
            shed_by_cohort,
            backpressure_signals: self.backpressure_signals.load(Ordering::Relaxed),
            enqueued_records: self.enqueued_records.load(Ordering::Relaxed),
            crashes,
            restarts,
            degraded_workers,
            checkpoints,
            checkpoint_failures,
            resumed_records: self.resumed_records,
            fault_stats: self.injector.as_ref().map(|i| i.stats()),
            supervision_log,
            worker_failures,
            latencies_s,
            servers,
        }
    }
}

impl Drop for FleetIngest {
    fn drop(&mut self) {
        // `finish` drains these; a dropped-without-finish pipeline must
        // not leave workers blocked on recv forever.
        self.paused.store(false, Ordering::Relaxed);
        self.txs.clear();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Folded pipeline counters after [`FleetIngest::finish`].
pub struct FleetStats {
    /// Newly stored records across all cohorts.
    pub committed: u64,
    /// Records refused as duplicates by cohort servers.
    pub duplicates: u64,
    /// Records lost to a crash landing between admission and commit.
    pub lost_crash: u64,
    /// Records a dying worker held in flight — claimed off its queue,
    /// never committed (the supervision term of the identity).
    pub lost_worker: u64,
    /// Streams that failed to decode (should be zero with healthy agents).
    pub rejected_streams: u64,
    /// Batches processed.
    pub batches: u64,
    /// Records shed, total.
    pub shed_records: u64,
    /// Records shed, per cohort (newest cohorts shed first).
    pub shed_by_cohort: Vec<u64>,
    /// Backpressure refusals signalled to agents.
    pub backpressure_signals: u64,
    /// Records handed to `submit`.
    pub enqueued_records: u64,
    /// Server crash count (chaos + injected).
    pub crashes: u64,
    /// Worker respawns performed by supervision.
    pub restarts: u64,
    /// Workers that exhausted their restart budget and drained as shed.
    pub degraded_workers: u64,
    /// Successful durable checkpoints written.
    pub checkpoints: u64,
    /// Checkpoint attempts that failed (previous file left intact).
    pub checkpoint_failures: u64,
    /// Records recovered from checkpoints at startup
    /// ([`FleetIngest::resume`]); 0 for a fresh pipeline.
    pub resumed_records: u64,
    /// Fired-fault counters when a [`FaultInjector`] was armed.
    pub fault_stats: Option<crate::faults::FaultStats>,
    /// Informational supervision messages: caught-and-restarted panics,
    /// survived checkpoint failures. Expected under a fault schedule;
    /// everything here was *handled* and is already in the counters.
    pub supervision_log: Vec<String>,
    /// Genuine teardown failures: a supervisor thread that died, leaked
    /// server handles. Non-empty means the run needs operator attention
    /// even if the identity balances; CLI runs exit non-zero on it.
    pub worker_failures: Vec<String>,
    /// Enqueue→commit latencies, seconds, sorted ascending.
    pub latencies_s: Vec<f32>,
    /// The cohort servers, for record extraction.
    pub servers: Vec<Arc<CollectionServer>>,
}

impl FleetStats {
    /// Latency quantile `q` in [0, 1], seconds; 0 when nothing committed.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        if self.latencies_s.is_empty() {
            return 0.0;
        }
        let i = ((self.latencies_s.len() - 1) as f64 * q).round() as usize;
        f64::from(self.latencies_s[i])
    }

    /// Drain every cohort server and merge into one (device, seq)-sorted
    /// record vector — the shape [`clean`](mobitrace_collector::clean())
    /// requires, and the basis of the fleet-vs-batch determinism proof.
    pub fn into_records(self) -> Vec<Record> {
        let mut all: Vec<Record> = Vec::new();
        for server in self.servers {
            // Sole owner: consume. A leaked handle (dead worker) forces
            // the clone path — slower, never an abort.
            match Arc::try_unwrap(server) {
                Ok(owned) => all.extend(owned.into_records()),
                Err(shared) => all.extend(shared.clone_records()),
            }
        }
        all.sort_unstable_by_key(|r| (r.device, r.seq));
        all
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    //! Best-effort CPU pinning via a direct syscall-wrapper binding (the
    //! build has no libc crate; same pattern as the pool crate's mmap
    //! bindings).

    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pin the calling thread to `core`. Returns whether the kernel
    /// accepted the mask.
    pub fn pin_to_core(core: usize) -> bool {
        let mut mask = [0u64; 16]; // cpu_set_t for up to 1024 CPUs
        let (word, bit) = (core / 64, core % 64);
        if word >= mask.len() {
            return false;
        }
        mask[word] = 1u64 << bit;
        // SAFETY: pid 0 targets the calling thread; the mask pointer and
        // size describe a live, correctly sized buffer.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_to_core(_core: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use mobitrace_collector::encode_batch;
    use mobitrace_model::{CellId, CounterSnapshot, Record, ScanSummary, SimTime, WifiState};

    fn record(device: u32, seq: u32) -> Record {
        Record {
            device: DeviceId(device),
            seq,
            time: SimTime::from_minutes(seq * 10),
            boot_epoch: 0,
            os: mobitrace_model::Os::Android,
            os_version: mobitrace_model::OsVersion::new(4, 4),
            counters: CounterSnapshot::default(),
            wifi: WifiState::Off,
            scan: ScanSummary::default(),
            apps: Vec::new(),
            geo: CellId::new(0, 0),
            battery_pct: 80,
            tethering: false,
        }
    }

    fn stream_of(records: &[Record]) -> Bytes {
        let mut buf = BytesMut::new();
        encode_batch(records.iter(), &mut buf);
        buf.freeze()
    }

    #[test]
    fn commits_across_cohorts_and_workers() {
        let fleet = FleetIngest::new(FleetConfig {
            cohorts: 4,
            workers: 3,
            pin_workers: false,
            ..FleetConfig::default()
        });
        let mut sent = 0u32;
        for d in 0..200u32 {
            let device = DeviceId(d);
            let recs: Vec<Record> = (0..5).map(|s| record(d, s)).collect();
            let (cohort, decision) = fleet.admit(device, 5, 0.0);
            assert_eq!(decision, Admission::Admit, "unloaded fleet admits");
            assert_eq!(cohort, fleet.router().cohort_of(device));
            fleet.submit(cohort, 5, stream_of(&recs));
            sent += 5;
        }
        let stats = fleet.finish();
        assert_eq!(stats.committed, u64::from(sent));
        assert_eq!(stats.duplicates, 0);
        assert_eq!(stats.lost_crash, 0);
        assert_eq!(stats.shed_records, 0);
        assert_eq!(stats.latencies_s.len(), 200);
        assert!(stats.latency_quantile(0.99) >= stats.latency_quantile(0.5));
        let records = stats.into_records();
        assert_eq!(records.len(), 1000);
        assert!(records.windows(2).all(|w| (w[0].device, w[0].seq) < (w[1].device, w[1].seq)));
    }

    #[test]
    fn duplicate_records_are_refused_and_counted() {
        let fleet =
            FleetIngest::new(FleetConfig { cohorts: 1, workers: 1, ..FleetConfig::default() });
        let recs: Vec<Record> = (0..10).map(|s| record(7, s)).collect();
        fleet.submit(0, 10, stream_of(&recs));
        fleet.submit(0, 10, stream_of(&recs));
        let stats = fleet.finish();
        assert_eq!(stats.committed, 10);
        assert_eq!(stats.duplicates, 10);
    }

    #[test]
    fn stalled_workers_advance_the_shed_frontier_newest_first() {
        let n_cohorts = 4usize;
        let fleet = FleetIngest::new(FleetConfig {
            cohorts: n_cohorts,
            workers: 1,
            queue_cap: 8,
            pin_workers: false,
            ..FleetConfig::default()
        });
        fleet.pause_workers();
        // Representative device per cohort (router is stable, so scan).
        let mut rep = vec![None; n_cohorts];
        for d in 0..10_000u32 {
            let c = fleet.router().cohort_of(DeviceId(d)) as usize;
            if rep[c].is_none() {
                rep[c] = Some(DeviceId(d));
            }
        }
        let rep: Vec<DeviceId> = rep.into_iter().map(Option::unwrap).collect();
        // Fill the single worker queue to just over half: the newest
        // cohort sheds, cohort 0 still admits.
        for i in 0..5u32 {
            let c = fleet.router().cohort_of(rep[(i as usize) % n_cohorts]);
            fleet.submit(c, 1, stream_of(&[record(1_000_000 + i, 0)]));
        }
        let (_, d_new) = fleet.admit(rep[n_cohorts - 1], 1, 0.0);
        assert_eq!(d_new, Admission::Shed, "newest cohort sheds first");
        let (_, d_old) = fleet.admit(rep[0], 1, 0.0);
        assert_eq!(d_old, Admission::Admit, "oldest cohort keeps flowing");
        fleet.account_shed(fleet.router().cohort_of(rep[n_cohorts - 1]), 1);
        // Saturate the queue: now even cohort 0 is refused (backpressure,
        // not shed — its data stays on the device).
        for i in 5..8u32 {
            fleet.submit(
                fleet.router().cohort_of(rep[0]),
                1,
                stream_of(&[record(2_000_000 + i, 0)]),
            );
        }
        let (_, d_full) = fleet.admit(rep[0], 1, 0.0);
        assert_ne!(d_full, Admission::Admit, "full queue admits nothing");
        fleet.resume_workers();
        let stats = fleet.finish();
        assert_eq!(stats.shed_records, 1);
        assert_eq!(*stats.shed_by_cohort.last().unwrap(), 1);
        assert_eq!(stats.shed_by_cohort[0], 0);
        assert_eq!(stats.committed, 8);
    }

    #[test]
    fn token_bucket_backpressure_is_per_cohort() {
        let fleet = FleetIngest::new(FleetConfig {
            cohorts: 2,
            workers: 1,
            rate_per_cohort: 100.0,
            burst: 10.0,
            pin_workers: false,
            ..FleetConfig::default()
        });
        let (mut dev_a, mut dev_b) = (None, None);
        for d in 0..1_000u32 {
            match fleet.router().cohort_of(DeviceId(d)) {
                0 if dev_a.is_none() => dev_a = Some(DeviceId(d)),
                1 if dev_b.is_none() => dev_b = Some(DeviceId(d)),
                _ => {}
            }
        }
        let (a, b) = (dev_a.unwrap(), dev_b.unwrap());
        assert_eq!(fleet.admit(a, 10, 0.0).1, Admission::Admit);
        assert_eq!(fleet.admit(a, 10, 0.0).1, Admission::Backpressure, "cohort 0 budget spent");
        fleet.note_backpressure();
        assert_eq!(fleet.admit(b, 10, 0.0).1, Admission::Admit, "cohort 1 has its own bucket");
        // Refill admits cohort 0 again.
        assert_eq!(fleet.admit(a, 10, 0.1).1, Admission::Admit);
        let stats = fleet.finish();
        assert_eq!(stats.backpressure_signals, 1);
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fleet-ingest-{}-{:?}-{tag}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn killed_worker_respawns_and_accounts_its_inflight_batch() {
        use crate::faults::{FaultSpec, WorkerKill, KILL_MARKER};
        let injector = crate::faults::FaultInjector::new(FaultSpec {
            worker_kills: vec![WorkerKill { worker: 0, at_batch: 2 }],
            ..FaultSpec::default()
        });
        let fleet = FleetIngest::with_faults(
            FleetConfig {
                cohorts: 1,
                workers: 1,
                pin_workers: false,
                restart: RestartPolicy { budget: 4, backoff_base_ms: 0 },
                ..FleetConfig::default()
            },
            Arc::clone(&injector),
        );
        for d in 0..10u32 {
            let recs: Vec<Record> = (0..5).map(|s| record(d, s)).collect();
            fleet.submit(0, 5, stream_of(&recs));
        }
        let stats = fleet.finish();
        assert_eq!(stats.lost_worker, 5, "exactly the killed batch is lost");
        assert_eq!(stats.restarts, 1, "the worker respawned once");
        assert_eq!(stats.committed, 45, "every other batch commits after respawn");
        assert_eq!(stats.committed + stats.lost_worker, stats.enqueued_records);
        assert_eq!(injector.stats().kills_fired, 1);
        assert!(stats.worker_failures.is_empty(), "a handled kill is not a failure");
        assert!(
            stats.supervision_log.iter().any(|m| m.contains(KILL_MARKER)),
            "the kill is visible in the supervision log: {:?}",
            stats.supervision_log
        );
        assert_eq!(stats.degraded_workers, 0);
    }

    #[test]
    fn budget_exhaustion_degrades_to_accounted_shed() {
        use crate::faults::{FaultSpec, WorkerKill};
        // A kill on every one of the first three batches with a budget
        // of two: two respawns, then the third panic degrades the
        // worker and the rest of the queue drains as shed.
        let injector = crate::faults::FaultInjector::new(FaultSpec {
            worker_kills: (1..=3).map(|at_batch| WorkerKill { worker: 0, at_batch }).collect(),
            ..FaultSpec::default()
        });
        let fleet = FleetIngest::with_faults(
            FleetConfig {
                cohorts: 1,
                workers: 1,
                pin_workers: false,
                restart: RestartPolicy { budget: 2, backoff_base_ms: 0 },
                ..FleetConfig::default()
            },
            injector,
        );
        for d in 0..10u32 {
            fleet.submit(0, 1, stream_of(&[record(d, 0)]));
        }
        let stats = fleet.finish();
        assert_eq!(stats.lost_worker, 3, "one batch lost per kill");
        assert_eq!(stats.restarts, 2, "budget bounds the respawns");
        assert_eq!(stats.degraded_workers, 1);
        assert_eq!(stats.committed, 0, "every pre-degrade batch was killed mid-flight");
        assert_eq!(stats.shed_records, 7, "the degraded drain sheds the rest, accounted");
        assert_eq!(
            stats.lost_worker + stats.shed_records + stats.committed,
            stats.enqueued_records,
            "identity balances through degradation"
        );
    }

    #[test]
    fn checkpoint_resume_recovers_committed_records() {
        let dir = scratch("ckpt");
        let cfg = FleetConfig {
            cohorts: 2,
            workers: 1,
            pin_workers: false,
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                every_batches: 1,
                final_checkpoint: false,
            }),
            ..FleetConfig::default()
        };
        let fleet = FleetIngest::new(cfg.clone());
        for d in 0..20u32 {
            let cohort = fleet.router().cohort_of(DeviceId(d));
            fleet.submit(cohort, 3, stream_of(&(0..3).map(|s| record(d, s)).collect::<Vec<_>>()));
        }
        let stats = fleet.finish();
        assert_eq!(stats.committed, 60);
        assert!(stats.checkpoints > 0);
        assert_eq!(stats.checkpoint_failures, 0);
        drop(stats); // kill-9: only the checkpoint files survive

        let fleet = FleetIngest::resume(cfg, &dir, None).expect("resume");
        let stats = fleet.finish();
        assert_eq!(stats.resumed_records, 60, "every committed record came back");
        assert_eq!(stats.into_records().len(), 60);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crashed_cohort_backpressures_and_inflight_is_counted() {
        let fleet = FleetIngest::new(FleetConfig {
            cohorts: 1,
            workers: 1,
            pin_workers: false,
            ..FleetConfig::default()
        });
        fleet.pause_workers();
        fleet.submit(0, 3, stream_of(&[record(1, 0), record(1, 1), record(1, 2)]));
        fleet.servers()[0].crash();
        // New admissions are refused at the door...
        assert_eq!(fleet.admit(DeviceId(2), 1, 0.0).1, Admission::Backpressure);
        // ...and the in-flight batch is lost per record, not per stream.
        fleet.resume_workers();
        let stats = fleet.finish();
        assert_eq!(stats.lost_crash, 3);
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.crashes, 1);
    }
}
