//! Deterministic fault injection for the fleet pipeline.
//!
//! A [`FaultSpec`] is a *schedule*: worker kills pinned to per-worker
//! batch ordinals, cohort-server crashes pinned to global batch
//! ordinals, and pool I/O faults pinned to pool-operation ordinals.
//! Ordinals — not wall-clock times — make the schedule deterministic:
//! the same spec over the same submission sequence fires the same
//! faults at the same points, which is what lets the reconciliation
//! identity be asserted *exactly* under fault (`tests/fault_injection.rs`)
//! rather than approximately.
//!
//! The [`FaultInjector`] arms a spec: ingest workers call
//! [`on_batch`](FaultInjector::on_batch) once per delivery (where kills
//! and server crashes fire), and the injector doubles as the pool
//! writer's [`PoolIoShim`] so checkpoint I/O faults (ENOSPC, short
//! write, fsync error, transient blip) hit exact operations. Every
//! fault fires **once** — `>=` ordinal matching plus a fired flag — so
//! a schedule survives run-length drift without double-firing.
//!
//! This composes with the wall-clock chaos thread in [`crate::run`]:
//! both may crash servers; recovery is idempotent and the accounting
//! identity holds under the union.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mobitrace_collector::CollectionServer;
use mobitrace_pool::shim::{IoOp, PoolIoShim, Verdict};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Marker embedded in injected kill panics, so supervision reports can
/// distinguish scheduled kills from organic worker bugs.
pub const KILL_MARKER: &str = "fault-injected worker kill";

/// Kill one worker (panic mid-batch) at its `at_batch`-th delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerKill {
    /// Worker index (a kill scheduled past the actual worker count
    /// never fires).
    pub worker: usize,
    /// Per-worker batch ordinal (1-based); the kill lands *after* the
    /// in-flight batch is claimed and *before* it commits, so the batch
    /// is lost and must surface as `lost_worker`.
    pub at_batch: u64,
}

/// Crash one cohort server at a global batch ordinal, recovering it
/// `down_for` batches later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// Cohort whose server crashes (out-of-range cohorts never fire).
    pub cohort: u32,
    /// Global (all-worker) batch ordinal, 1-based.
    pub at_batch: u64,
    /// Batches until the scheduled recovery.
    pub down_for: u64,
}

/// What an injected pool I/O fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolFaultKind {
    /// `ENOSPC` on a write — disk full mid-checkpoint.
    Enospc,
    /// A torn write: only half the payload lands, then `WriteZero`.
    ShortWrite,
    /// An `fsync`/`fdatasync`/directory-sync failure.
    FsyncError,
    /// An `Interrupted` blip — exercises the writer's retry-once path
    /// (the retry re-consults the shim, finds the fault spent, and
    /// succeeds).
    Transient,
}

/// One scheduled pool I/O fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolFault {
    /// Pool-operation ordinal (1-based, counted across all checkpoint
    /// writes and syncs the injector shims). The fault fires at the
    /// first *eligible* operation at or after this ordinal — writes for
    /// write-shaped faults, syncs for [`PoolFaultKind::FsyncError`].
    pub at_op: u64,
    /// The failure to inject.
    pub kind: PoolFaultKind,
}

/// A deterministic fault schedule over one fleet run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Scheduled worker kills.
    pub worker_kills: Vec<WorkerKill>,
    /// Scheduled cohort-server crashes.
    pub server_crashes: Vec<ServerCrash>,
    /// Scheduled checkpoint I/O faults.
    pub pool_faults: Vec<PoolFault>,
}

impl FaultSpec {
    /// The empty schedule (no faults fire).
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// The pinned CI schedule: guarantees at least two worker kills
    /// (both on worker 0, so they fire at any worker count) and one
    /// pool write failure (ENOSPC on the first checkpoint), plus a
    /// server crash/recover cycle, a short write, a transient blip and
    /// an fsync failure at later ordinals.
    pub fn quick() -> FaultSpec {
        FaultSpec {
            worker_kills: vec![
                WorkerKill { worker: 0, at_batch: 3 },
                WorkerKill { worker: 0, at_batch: 24 },
                WorkerKill { worker: 1, at_batch: 11 },
            ],
            server_crashes: vec![ServerCrash { cohort: 0, at_batch: 48, down_for: 48 }],
            pool_faults: vec![
                PoolFault { at_op: 2, kind: PoolFaultKind::Enospc },
                PoolFault { at_op: 30, kind: PoolFaultKind::Transient },
                PoolFault { at_op: 60, kind: PoolFaultKind::ShortWrite },
                PoolFault { at_op: 90, kind: PoolFaultKind::FsyncError },
            ],
        }
    }

    /// A seeded random schedule. Keeps the [`quick`](Self::quick)
    /// guarantees — two kills on worker 0 at small ordinals, an early
    /// ENOSPC — and layers seed-dependent extra kills, crashes and pool
    /// faults on top, so `--faults` runs differ by seed but every seed
    /// satisfies the "≥2 kills, ≥1 pool write failure" floor.
    pub fn seeded(seed: u64, workers: usize, cohorts: usize) -> FaultSpec {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_1A7E);
        let mut spec = FaultSpec {
            worker_kills: vec![
                WorkerKill { worker: 0, at_batch: rng.gen_range(2..8) },
                WorkerKill { worker: 0, at_batch: rng.gen_range(16..48) },
            ],
            server_crashes: Vec::new(),
            pool_faults: vec![PoolFault {
                at_op: rng.gen_range(1..4),
                kind: PoolFaultKind::Enospc,
            }],
        };
        for _ in 0..rng.gen_range(0..3) {
            spec.worker_kills.push(WorkerKill {
                worker: rng.gen_range(0..workers.max(1)),
                at_batch: rng.gen_range(8..256),
            });
        }
        for _ in 0..rng.gen_range(1..3) {
            spec.server_crashes.push(ServerCrash {
                cohort: rng.gen_range(0..cohorts.max(1)) as u32,
                at_batch: rng.gen_range(32..512),
                down_for: rng.gen_range(16..128),
            });
        }
        let kinds =
            [PoolFaultKind::ShortWrite, PoolFaultKind::FsyncError, PoolFaultKind::Transient];
        for _ in 0..rng.gen_range(1..4) {
            spec.pool_faults.push(PoolFault {
                at_op: rng.gen_range(8..400),
                kind: kinds[rng.gen_range(0..kinds.len())],
            });
        }
        spec
    }

    /// Whether the schedule contains any fault at all.
    pub fn is_empty(&self) -> bool {
        self.worker_kills.is_empty()
            && self.server_crashes.is_empty()
            && self.pool_faults.is_empty()
    }
}

/// Counters of faults that actually fired (a schedule may outrun a
/// short run; unfired entries are not an error).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Worker kills that fired.
    pub kills_fired: u64,
    /// Server crashes that fired.
    pub crashes_fired: u64,
    /// Scheduled recoveries that fired.
    pub recoveries_fired: u64,
    /// Pool I/O faults that fired.
    pub pool_faults_fired: u64,
}

const MAX_TRACKED_WORKERS: usize = 64;

/// An armed [`FaultSpec`]: shared, lock-free fault state consulted by
/// every ingest worker and (as a [`PoolIoShim`]) by checkpoint writers.
pub struct FaultInjector {
    spec: FaultSpec,
    global_batches: AtomicU64,
    worker_batches: Vec<AtomicU64>,
    pool_ops: AtomicU64,
    kill_fired: Vec<AtomicBool>,
    crash_fired: Vec<AtomicBool>,
    recover_fired: Vec<AtomicBool>,
    pool_fired: Vec<AtomicBool>,
    kills: AtomicU64,
    crashes: AtomicU64,
    recoveries: AtomicU64,
    pool_faults: AtomicU64,
}

impl FaultInjector {
    /// Arm a schedule.
    pub fn new(spec: FaultSpec) -> Arc<FaultInjector> {
        let max_worker = spec
            .worker_kills
            .iter()
            .map(|k| k.worker + 1)
            .max()
            .unwrap_or(0)
            .max(MAX_TRACKED_WORKERS);
        Arc::new(FaultInjector {
            worker_batches: (0..max_worker).map(|_| AtomicU64::new(0)).collect(),
            kill_fired: spec.worker_kills.iter().map(|_| AtomicBool::new(false)).collect(),
            crash_fired: spec.server_crashes.iter().map(|_| AtomicBool::new(false)).collect(),
            recover_fired: spec.server_crashes.iter().map(|_| AtomicBool::new(false)).collect(),
            pool_fired: spec.pool_faults.iter().map(|_| AtomicBool::new(false)).collect(),
            global_batches: AtomicU64::new(0),
            pool_ops: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
            pool_faults: AtomicU64::new(0),
            spec,
        })
    }

    /// The armed schedule.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Fault counters so far (stable after the fleet is finished).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            kills_fired: self.kills.load(Ordering::Relaxed),
            crashes_fired: self.crashes.load(Ordering::Relaxed),
            recoveries_fired: self.recoveries.load(Ordering::Relaxed),
            pool_faults_fired: self.pool_faults.load(Ordering::Relaxed),
        }
    }

    /// Worker-side hook, called once per claimed batch *before* commit.
    /// Drives scheduled server crashes/recoveries, then fires any due
    /// kill for this worker by panicking (the supervisor catches it and
    /// accounts the in-flight batch as `lost_worker`).
    ///
    /// # Panics
    /// By design, when a scheduled kill for `worker` is due.
    pub fn on_batch(&self, worker: usize, servers: &[Arc<CollectionServer>]) {
        let g = self.global_batches.fetch_add(1, Ordering::Relaxed) + 1;
        for (i, c) in self.spec.server_crashes.iter().enumerate() {
            let server = match servers.get(c.cohort as usize) {
                Some(s) => s,
                None => continue,
            };
            if g >= c.at_batch && !self.crash_fired[i].swap(true, Ordering::Relaxed) {
                server.crash();
                self.crashes.fetch_add(1, Ordering::Relaxed);
            }
            if g >= c.at_batch.saturating_add(c.down_for)
                && self.crash_fired[i].load(Ordering::Relaxed)
                && !self.recover_fired[i].swap(true, Ordering::Relaxed)
            {
                if server.is_crashed() {
                    server.recover();
                }
                self.recoveries.fetch_add(1, Ordering::Relaxed);
            }
        }
        let Some(per_worker) = self.worker_batches.get(worker) else { return };
        let w = per_worker.fetch_add(1, Ordering::Relaxed) + 1;
        for (i, k) in self.spec.worker_kills.iter().enumerate() {
            if k.worker == worker
                && w >= k.at_batch
                && !self.kill_fired[i].swap(true, Ordering::Relaxed)
            {
                self.kills.fetch_add(1, Ordering::Relaxed);
                panic!("{KILL_MARKER}: worker {worker} at batch ordinal {w}");
            }
        }
    }
}

impl PoolIoShim for FaultInjector {
    fn check(&self, op: IoOp) -> Verdict {
        let o = self.pool_ops.fetch_add(1, Ordering::Relaxed) + 1;
        for (i, f) in self.spec.pool_faults.iter().enumerate() {
            if o < f.at_op {
                continue;
            }
            let eligible = match f.kind {
                PoolFaultKind::FsyncError => op.is_sync(),
                _ => op.is_write(),
            };
            if !eligible || self.pool_fired[i].swap(true, Ordering::Relaxed) {
                continue;
            }
            self.pool_faults.fetch_add(1, Ordering::Relaxed);
            return match f.kind {
                PoolFaultKind::Enospc => Verdict::Fail(std::io::Error::from_raw_os_error(28)),
                PoolFaultKind::ShortWrite => {
                    let len = match op {
                        IoOp::Write { len, .. } => len,
                        _ => 0,
                    };
                    Verdict::ShortWrite(len / 2)
                }
                PoolFaultKind::FsyncError => {
                    Verdict::Fail(std::io::Error::other("injected fsync failure"))
                }
                PoolFaultKind::Transient => Verdict::Fail(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient blip",
                )),
            };
        }
        Verdict::Proceed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_schedules_are_deterministic_and_guaranteed() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = FaultSpec::seeded(seed, 4, 8);
            let b = FaultSpec::seeded(seed, 4, 8);
            assert_eq!(a, b, "same seed, same schedule");
            let kills_on_zero = a.worker_kills.iter().filter(|k| k.worker == 0).count();
            assert!(kills_on_zero >= 2, "seed {seed}: floor of two worker-0 kills");
            assert!(
                a.pool_faults.iter().any(|f| f.kind == PoolFaultKind::Enospc && f.at_op <= 4),
                "seed {seed}: floor of one early pool write failure"
            );
            assert!(!a.server_crashes.is_empty(), "seed {seed}: at least one server crash");
        }
        assert_ne!(FaultSpec::seeded(1, 4, 8), FaultSpec::seeded(2, 4, 8));
    }

    #[test]
    fn pool_faults_fire_once_on_first_eligible_op() {
        let inj = FaultInjector::new(FaultSpec {
            pool_faults: vec![
                PoolFault { at_op: 1, kind: PoolFaultKind::FsyncError },
                PoolFault { at_op: 2, kind: PoolFaultKind::Enospc },
            ],
            ..FaultSpec::default()
        });
        // Op 1 is a write: the fsync fault is not eligible, the ENOSPC
        // (at_op 2) not yet due.
        assert!(matches!(inj.check(IoOp::Write { off: 0, len: 8 }), Verdict::Proceed));
        // Op 2, a write: ENOSPC fires.
        match inj.check(IoOp::Write { off: 8, len: 8 }) {
            Verdict::Fail(e) => assert_eq!(e.raw_os_error(), Some(28)),
            v => panic!("expected ENOSPC, got {v:?}"),
        }
        // Op 3, a sync: the pending fsync fault fires late (>= match).
        assert!(matches!(inj.check(IoOp::SyncAll), Verdict::Fail(_)));
        // Both spent: everything proceeds now.
        assert!(matches!(inj.check(IoOp::Write { off: 16, len: 8 }), Verdict::Proceed));
        assert!(matches!(inj.check(IoOp::DirSync), Verdict::Proceed));
        assert_eq!(inj.stats().pool_faults_fired, 2);
    }

    #[test]
    fn quick_schedule_keeps_its_guarantees() {
        assert!(FaultSpec::none().is_empty());
        let quick = FaultSpec::quick();
        assert!(!quick.is_empty());
        assert!(quick.worker_kills.iter().filter(|k| k.worker == 0).count() >= 2);
        assert!(quick.pool_faults.iter().any(|f| f.kind == PoolFaultKind::Enospc && f.at_op <= 4));
        assert_eq!(quick.server_crashes.len(), 1);
    }

    #[test]
    fn seeded_schedules_stay_inside_the_fleet() {
        for seed in 0..64u64 {
            let spec = FaultSpec::seeded(seed, 3, 5);
            assert!(spec.worker_kills.iter().all(|k| k.worker < 3), "seed {seed}");
            assert!(spec.server_crashes.iter().all(|c| c.cohort < 5), "seed {seed}");
            // A fleet reported as empty is treated as one worker, one cohort.
            let spec = FaultSpec::seeded(seed, 0, 0);
            assert!(spec.worker_kills.iter().all(|k| k.worker == 0), "seed {seed}");
            assert!(spec.server_crashes.iter().all(|c| c.cohort == 0), "seed {seed}");
        }
    }

    #[test]
    fn worker_kill_fires_once_at_its_own_ordinal() {
        let inj = FaultInjector::new(FaultSpec {
            worker_kills: vec![WorkerKill { worker: 1, at_batch: 3 }],
            ..FaultSpec::default()
        });
        let batch = |worker| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.on_batch(worker, &[])))
        };
        // Worker 0's deliveries do not advance worker 1's ordinal.
        for _ in 0..5 {
            assert!(batch(0).is_ok());
        }
        assert!(batch(1).is_ok());
        assert!(batch(1).is_ok());
        let msg = batch(1).expect_err("the third delivery is killed");
        assert!(msg.downcast_ref::<String>().unwrap().contains(KILL_MARKER));
        assert!(batch(1).is_ok(), "a kill fires once");
        assert_eq!(inj.stats().kills_fired, 1);
    }

    #[test]
    fn server_crash_recovers_after_its_window() {
        let servers = [Arc::new(CollectionServer::new())];
        let inj = FaultInjector::new(FaultSpec {
            server_crashes: vec![
                ServerCrash { cohort: 0, at_batch: 2, down_for: 3 },
                ServerCrash { cohort: 7, at_batch: 1, down_for: 1 },
            ],
            ..FaultSpec::default()
        });
        let crashed: Vec<bool> = (0..8)
            .map(|_| {
                inj.on_batch(0, &servers);
                servers[0].is_crashed()
            })
            .collect();
        assert_eq!(crashed, [false, true, true, true, false, false, false, false]);
        let stats = inj.stats();
        // The crash aimed at a cohort that does not exist never fires.
        assert_eq!((stats.crashes_fired, stats.recoveries_fired), (1, 1));
    }

    #[test]
    fn write_faults_shape_their_errors() {
        let inj = FaultInjector::new(FaultSpec {
            pool_faults: vec![
                PoolFault { at_op: 1, kind: PoolFaultKind::ShortWrite },
                PoolFault { at_op: 2, kind: PoolFaultKind::Transient },
            ],
            ..FaultSpec::default()
        });
        // A sync is not eligible for write-shaped faults; it only advances
        // the ordinal.
        assert!(matches!(inj.check(IoOp::SyncAll), Verdict::Proceed));
        assert!(matches!(inj.check(IoOp::Write { off: 0, len: 100 }), Verdict::ShortWrite(50)));
        match inj.check(IoOp::Write { off: 0, len: 100 }) {
            Verdict::Fail(e) => assert_eq!(e.kind(), std::io::ErrorKind::Interrupted),
            v => panic!("expected a transient blip, got {v:?}"),
        }
        assert!(matches!(inj.check(IoOp::Write { off: 0, len: 100 }), Verdict::Proceed));
    }
}
