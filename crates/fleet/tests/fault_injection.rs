//! Property: the extended reconciliation identity holds **exactly**
//! under randomized fault schedules. For any combination of worker
//! kills, server crashes and injected pool I/O failures,
//!
//! `made = committed + duplicates + shed + lost_crash + lost_worker`
//!
//! (driving `FleetIngest` directly there is no producer, so the
//! `pending`/`agent_dropped` terms of the full run identity are zero),
//! no genuine worker failure is reported, and every checkpoint file the
//! run left behind recovers to a subset of the records the final store
//! holds — a checkpoint may be stale, never wrong.

use bytes::{Bytes, BytesMut};
use mobitrace_collector::{encode_batch, CollectionServer};
use mobitrace_fleet::{
    CheckpointConfig, FaultInjector, FaultSpec, FleetConfig, FleetIngest, PoolFault, PoolFaultKind,
    RestartPolicy, ServerCrash, WorkerKill,
};
use mobitrace_model::{CellId, CounterSnapshot, DeviceId, Record, ScanSummary, SimTime, WifiState};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

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

fn scratch(case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fleet-faultprop-{}-{:?}-{case}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone)]
struct Scenario {
    workers: usize,
    cohorts: usize,
    devices: u32,
    recs_per_device: u32,
    dup_every: u32,
    budget: u32,
    every_batches: u64,
    final_checkpoint: bool,
    kills: Vec<(usize, u64)>,
    crashes: Vec<(u32, u64, u64)>,
    pool_faults: Vec<(u64, u8)>,
    case_id: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (1usize..=3, 1usize..=3, 12u32..48, 1u32..=4, 0u32..4),
        (1u32..=3, 1u64..=6, any::<bool>()),
        prop::collection::vec((0usize..3, 1u64..24), 0..4),
        prop::collection::vec((0u32..3, 1u64..48, 1u64..32), 0..3),
        prop::collection::vec((1u64..12, 0u8..4), 0..3),
        any::<u64>(),
    )
        .prop_map(
            |(
                (workers, cohorts, devices, recs_per_device, dup_every),
                (budget, every_batches, final_checkpoint),
                kills,
                crashes,
                pool_faults,
                case_id,
            )| Scenario {
                workers,
                cohorts,
                devices,
                recs_per_device,
                dup_every,
                budget,
                every_batches,
                final_checkpoint,
                kills,
                crashes,
                pool_faults,
                case_id,
            },
        )
}

fn spec_of(s: &Scenario) -> FaultSpec {
    FaultSpec {
        worker_kills: s
            .kills
            .iter()
            .map(|&(w, at_batch)| WorkerKill { worker: w % s.workers, at_batch })
            .collect(),
        server_crashes: s
            .crashes
            .iter()
            .map(|&(c, at_batch, down_for)| ServerCrash {
                cohort: c % s.cohorts as u32,
                at_batch,
                down_for,
            })
            .collect(),
        pool_faults: s
            .pool_faults
            .iter()
            .map(|&(at_op, k)| PoolFault {
                at_op,
                kind: match k {
                    0 => PoolFaultKind::Enospc,
                    1 => PoolFaultKind::ShortWrite,
                    2 => PoolFaultKind::FsyncError,
                    _ => PoolFaultKind::Transient,
                },
            })
            .collect(),
    }
}

fn keys_of(records: &[Record]) -> BTreeSet<(u32, u32)> {
    records.iter().map(|r| (r.device.0, r.seq)).collect()
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    #[test]
    fn identity_holds_exactly_under_randomized_faults(s in scenario()) {
        let dir = scratch(s.case_id);
        let spec = spec_of(&s);
        let injector = FaultInjector::new(spec);
        let cfg = FleetConfig {
            cohorts: s.cohorts,
            workers: s.workers,
            pin_workers: false,
            restart: RestartPolicy { budget: s.budget, backoff_base_ms: 0 },
            checkpoint: Some(CheckpointConfig {
                dir: dir.clone(),
                every_batches: s.every_batches,
                final_checkpoint: s.final_checkpoint,
            }),
            ..FleetConfig::default()
        };
        let fleet = FleetIngest::with_faults(cfg, injector.clone());

        let mut made = 0u64;
        for d in 0..s.devices {
            let recs: Vec<Record> =
                (0..s.recs_per_device).map(|seq| record(d, seq)).collect();
            let cohort = fleet.router().cohort_of(DeviceId(d));
            let stream = stream_of(&recs);
            let n = recs.len() as u32;
            fleet.submit(cohort, n, stream.clone());
            made += u64::from(n);
            if s.dup_every > 0 && d % s.dup_every == 0 {
                fleet.submit(cohort, n, stream);
                made += u64::from(n);
            }
        }

        let stats = fleet.finish();
        prop_assert_eq!(stats.enqueued_records, made, "every submit is ledgered");
        let accounted = stats.committed
            + stats.duplicates
            + stats.lost_crash
            + stats.lost_worker
            + stats.shed_records;
        prop_assert_eq!(
            accounted, made,
            "identity violated: committed={} duplicates={} lost_crash={} \
             lost_worker={} shed={} (restarts={} degraded={} log={:?})",
            stats.committed, stats.duplicates, stats.lost_crash,
            stats.lost_worker, stats.shed_records, stats.restarts,
            stats.degraded_workers, stats.supervision_log
        );
        prop_assert!(
            stats.worker_failures.is_empty(),
            "injected faults must be handled, not failures: {:?}",
            stats.worker_failures
        );
        // Kills that fired must each be visible as a restart or a
        // degradation (never silently absorbed).
        let fired = injector.stats();
        prop_assert!(
            stats.restarts + stats.degraded_workers >= fired.kills_fired.min(1),
            "a fired kill left no supervision trace"
        );

        // Every surviving checkpoint file recovers to a subset of the
        // final store: stale is allowed, wrong is not.
        let cohorts = s.cohorts as u32;
        let final_keys = keys_of(&stats.into_records());
        for cohort in 0..cohorts {
            let path = dir.join(format!("cohort-{cohort}.mtpool"));
            if !path.exists() {
                continue;
            }
            let server = CollectionServer::recover_from_pool(&path)
                .map_err(|e| TestCaseError::fail(format!("unreadable checkpoint {path:?}: {e}")))?;
            let ckpt_keys = keys_of(&server.into_records());
            prop_assert!(
                ckpt_keys.is_subset(&final_keys),
                "checkpoint {cohort} holds records the final store never committed"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
