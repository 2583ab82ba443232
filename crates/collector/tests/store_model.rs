//! Model-based test of the collection server's store.
//!
//! Arbitrary interleavings of frame, batch, stream and pre-decoded
//! deliveries — with duplicates, ascending, reversed and shuffled sequence
//! numbers, and crash/recover cycles — drive a
//! [`CollectionServer`] and a reference model keyed by (device, seq) in
//! lockstep. Every call's return value, the duplicate count and `len()`
//! must match the model after each step; at the end the extracted records,
//! the tap batches and a pool checkpoint round trip must match it too.

use bytes::{Bytes, BytesMut};
use mobitrace_collector::{encode_batch, encode_frame, CollectionServer, IngestStats, TapBatch};
use mobitrace_model::{
    AppCategory, AppCounter, AssocInfo, Band, Bssid, CellId, Channel, CounterSnapshot, Dbm,
    DeviceId, Essid, Os, OsVersion, Record, ScanSummary, SimTime, TrafficCounters, WifiState,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A record whose payload depends on `variant`, so a duplicate delivery
/// can carry different bytes than the copy the server keeps.
fn record(device: u32, seq: u32, variant: u8) -> Record {
    let wifi = if variant.is_multiple_of(2) {
        WifiState::Off
    } else {
        WifiState::Associated(AssocInfo {
            bssid: Bssid::from_u64(u64::from(device)),
            essid: Essid::new(format!("ap-{device}")),
            band: Band::Ghz24,
            channel: Channel(6),
            rssi: Dbm::new(-57),
        })
    };
    Record {
        device: DeviceId(device),
        os: Os::Android,
        seq,
        time: SimTime::from_minutes(seq * 10),
        boot_epoch: 0,
        counters: CounterSnapshot::default(),
        wifi,
        scan: ScanSummary::default(),
        apps: vec![AppCounter {
            category: AppCategory::Video,
            counters: TrafficCounters {
                rx_bytes: u64::from(variant),
                ..TrafficCounters::default()
            },
        }],
        geo: CellId::new(0, 0),
        battery_pct: variant % 101,
        tethering: false,
        os_version: OsVersion::new(4, 4),
    }
}

/// Bytes no decoder accepts as a frame.
const GARBAGE: &[u8] = &[0xFF; 7];

#[derive(Debug, Clone, Copy)]
enum Path {
    /// One [`CollectionServer::ingest`] call per frame.
    Frames,
    /// One [`CollectionServer::ingest_batch`] call.
    Batch,
    /// One [`CollectionServer::ingest_stream`] call.
    Stream,
    /// One [`CollectionServer::store_batch`] call with decoded records.
    Store,
}

#[derive(Debug, Clone)]
enum Op {
    /// Deliver `records` over `path`, plus one bad frame when `corrupt`
    /// (ignored by `Store`, which takes no frames).
    Deliver {
        path: Path,
        records: Vec<Record>,
        corrupt: bool,
    },
    Crash,
    Recover,
    Drain,
}

fn delivery() -> impl Strategy<Value = Op> {
    let path =
        prop_oneof![Just(Path::Frames), Just(Path::Batch), Just(Path::Stream), Just(Path::Store)];
    // Order 0 keeps the generated (shuffled) order, 1 sorts, 2 reverses.
    let keys = prop::collection::vec((0u32..4, 0u32..48), 0..16);
    (path, keys, 0u8..3, any::<u8>(), prop::bool::weighted(0.1)).prop_map(
        |(path, mut keys, order, variant, corrupt)| {
            if order > 0 {
                keys.sort_unstable();
            }
            if order == 2 {
                keys.reverse();
            }
            let records = keys.into_iter().map(|(d, s)| record(d, s, variant)).collect();
            Op::Deliver { path, records, corrupt }
        },
    )
}

/// A long ascending run for one device, so crashes set aside and merge
/// back long runs. A stride of 2 leaves gaps a later run fills with
/// in-place inserts.
fn bulk() -> impl Strategy<Value = Op> {
    (0u32..4, 0u32..64, 0u32..1500, 1u32..3, any::<u8>()).prop_map(
        |(device, start, len, step, variant)| {
            let records = (0..len).map(|i| record(device, start + i * step, variant)).collect();
            Op::Deliver { path: Path::Store, records, corrupt: false }
        },
    )
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        delivery(),
        delivery(),
        delivery(),
        delivery(),
        delivery(),
        delivery(),
        bulk(),
        Just(Op::Crash),
        Just(Op::Recover),
        Just(Op::Drain),
    ]
}

/// The reference: first delivery of a (device, seq) wins, a crash moves
/// `live` into `aside`, and recovery merges the outage's commits into
/// `aside` and makes that `live`. Both merges keep the earlier record.
#[derive(Debug, Default)]
struct Model {
    tapped: bool,
    crashed: bool,
    live: BTreeMap<(DeviceId, u32), Record>,
    aside: BTreeMap<(DeviceId, u32), Record>,
    stats: IngestStats,
    /// Tap batches published and not yet drained.
    pending: Vec<TapBatch>,
}

impl Model {
    fn store(&mut self, records: Vec<Record>) -> usize {
        let offered = records.len();
        let mut accepted = Vec::new();
        for r in records {
            let key = (r.device, r.seq);
            if self.live.contains_key(&key) {
                continue;
            }
            self.live.insert(key, r.clone());
            accepted.push(r);
        }
        self.stats.duplicates += (offered - accepted.len()) as u64;
        let stored = accepted.len();
        self.publish(accepted, false);
        stored
    }

    fn publish(&mut self, records: Vec<Record>, replay: bool) {
        if self.tapped && !records.is_empty() {
            self.pending.push(TapBatch { replay, records });
        }
    }

    /// Merge `live` into `aside`, keeping `aside`'s record on a clash.
    fn set_aside(&mut self) {
        for (key, r) in std::mem::take(&mut self.live) {
            self.aside.entry(key).or_insert(r);
        }
    }

    fn crash(&mut self) {
        self.crashed = true;
        self.stats.crashes += 1;
        self.set_aside();
        self.pending.clear();
    }

    fn recover(&mut self) {
        self.crashed = false;
        self.set_aside();
        self.live = std::mem::take(&mut self.aside);
        self.publish(self.live.values().cloned().collect(), true);
    }

    fn records(&self) -> Vec<Record> {
        self.live.values().cloned().collect()
    }
}

/// Apply one delivery to both sides; the server's return value must match.
fn deliver(
    server: &CollectionServer,
    model: &mut Model,
    path: Path,
    records: Vec<Record>,
    corrupt: bool,
) -> Result<(), TestCaseError> {
    let bad = Bytes::from_static(GARBAGE);
    match path {
        Path::Frames => {
            let mut frames: Vec<(Bytes, Option<Record>)> =
                records.into_iter().map(|r| (encode_frame(&r), Some(r))).collect();
            if corrupt {
                frames.insert(frames.len() / 2, (bad, None));
            }
            for (frame, record) in frames {
                let got = server.ingest(&frame);
                if model.crashed {
                    model.stats.lost_down += 1;
                    prop_assert_eq!(got, Ok(false));
                    continue;
                }
                model.stats.frames += 1;
                match record {
                    Some(r) => prop_assert_eq!(got, Ok(model.store(vec![r]) == 1)),
                    None => {
                        model.stats.rejected += 1;
                        prop_assert!(got.is_err());
                    }
                }
            }
        }
        Path::Batch => {
            let mut frames: Vec<Bytes> = records.iter().map(encode_frame).collect();
            if corrupt {
                frames.insert(frames.len() / 2, bad);
            }
            let n = frames.len() as u64;
            let got = server.ingest_batch(frames);
            let expect = if model.crashed {
                model.stats.lost_down += n;
                0
            } else {
                model.stats.frames += n;
                model.stats.rejected += u64::from(corrupt);
                model.store(records)
            };
            prop_assert_eq!(got, expect);
        }
        Path::Stream => {
            let mut buf = BytesMut::new();
            encode_batch(records.iter(), &mut buf);
            if corrupt {
                buf.extend_from_slice(GARBAGE);
            }
            let got = server.ingest_stream(buf.freeze());
            let expect = if model.crashed {
                model.stats.lost_down += 1;
                0
            } else {
                model.stats.frames += records.len() as u64 + u64::from(corrupt);
                model.stats.rejected += u64::from(corrupt);
                model.store(records)
            };
            prop_assert_eq!(got, expect);
        }
        Path::Store => {
            let got = server.store_batch(records.clone());
            prop_assert_eq!(got, model.store(records));
        }
    }
    Ok(())
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    fn server_matches_reference_model(
        tapped in any::<bool>(),
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let server = CollectionServer::new();
        let tap = tapped.then(|| server.attach_tap());
        let mut model = Model { tapped, ..Model::default() };
        let mut drained = Vec::new();
        let mut expect_drained = Vec::new();

        for op in ops {
            match op {
                Op::Deliver { path, records, corrupt } => {
                    deliver(&server, &mut model, path, records, corrupt)?;
                }
                Op::Crash => {
                    server.crash();
                    model.crash();
                }
                Op::Recover => {
                    server.recover();
                    model.recover();
                }
                Op::Drain => {
                    if let Some(tap) = &tap {
                        tap.drain_into(&mut drained);
                    }
                    expect_drained.append(&mut model.pending);
                    prop_assert_eq!(&drained, &expect_drained);
                }
            }
            // Covers `duplicates`, and every other counter with it.
            prop_assert_eq!(server.stats(), model.stats);
            prop_assert_eq!(server.len(), model.live.len());
        }

        let expect = model.records();
        prop_assert_eq!(server.clone_records(), expect.clone());

        if let Some(tap) = &tap {
            tap.drain_into(&mut drained);
        }
        expect_drained.append(&mut model.pending);
        prop_assert_eq!(&drained, &expect_drained);

        let dir = std::env::temp_dir().join(format!(
            "mobitrace-store-model-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.mtpool");
        server.checkpoint_to_pool(&path).unwrap();
        let revived = CollectionServer::recover_from_pool(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(revived.len(), expect.len());
        prop_assert_eq!(revived.into_records(), expect.clone());

        prop_assert_eq!(server.into_records(), expect);
    }
}
