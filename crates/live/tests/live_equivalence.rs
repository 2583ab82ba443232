//! Incremental-vs-batch equivalence under adversarial arrival orders.
//!
//! The property: feed a `CollectionServer` an *arbitrary*
//! interleaving of per-device record streams — duplicate deliveries,
//! cross-device and in-device reordering, tap drains at random points, an
//! optional mid-stream crash + recovery — and the `LiveEngine`'s
//! final snapshot is bit-identical to a batch clean of exactly the records
//! the server retained, minus the engine's late set (excluded on both
//! sides by construction). This is the streaming analogue of the
//! chaos-convergence proof: the server tolerates transport chaos, the
//! engine tolerates tap chaos, and their composition still lands on the
//! batch pipeline's answer.

use mobitrace_collector::{encode_frame, CleanOptions, CollectionServer, IngestTap, TapBatch};
use mobitrace_core::AnalysisContext;
use mobitrace_live::{batch_reference, check_convergence, LiveEngine, LiveOptions};
use mobitrace_model::{
    AppCategory, AppCounter, AssocInfo, Band, Bssid, CampaignMeta, CellId, Channel,
    CounterSnapshot, Dataset, Dbm, DeviceId, Essid, Os, OsVersion, Record, ScanSummary, SimTime,
    TrafficCounters, WifiState, Year,
};
use proptest::prelude::*;

fn meta(days: u32) -> CampaignMeta {
    CampaignMeta { year: Year::Y2015, start: Year::Y2015.campaign_start(), days, seed: 0 }
}

/// Cumulative counters as a monotone function of the running volume.
fn counters(cum: u64) -> CounterSnapshot {
    CounterSnapshot {
        cell3g: TrafficCounters {
            rx_bytes: cum / 3,
            tx_bytes: cum / 9,
            rx_pkts: cum / 1400,
            tx_pkts: cum / 4000,
        },
        lte: TrafficCounters {
            rx_bytes: cum * 2,
            tx_bytes: cum / 2,
            rx_pkts: cum / 450,
            tx_pkts: cum / 1800,
        },
        wifi: TrafficCounters {
            rx_bytes: cum,
            tx_bytes: cum / 4,
            rx_pkts: cum / 900,
            tx_pkts: cum / 3600,
        },
    }
}

/// One synthetic sample. Time derives from `seq` (eight bins per synthetic
/// day, so short streams still span several days), which makes seq order
/// and time order agree per device — the co-monotonicity the real agent
/// guarantees. Every third sample associates to one of a few APs
/// (exercising first-encounter interning across compactions) and every
/// sample carries a cumulative per-app counter (exercising app-delta
/// replication).
fn rec(dev: u32, seq: u32, cum: u64, tether: bool, osv: OsVersion) -> Record {
    let wifi = if (seq + dev).is_multiple_of(3) {
        let k = (seq / 3 + dev) % 5;
        WifiState::Associated(AssocInfo {
            bssid: Bssid::from_u64(0xA0_0000 + u64::from(k)),
            essid: Essid::new(format!("net-{}", k % 3)),
            band: Band::Ghz24,
            channel: Channel(6),
            rssi: Dbm::new(-55),
        })
    } else {
        WifiState::OnUnassociated
    };
    Record {
        device: DeviceId(dev),
        os: Os::Ios,
        seq,
        time: SimTime::from_day_bin(seq / 8, seq % 8),
        boot_epoch: 0,
        counters: counters(cum),
        wifi,
        scan: ScanSummary::default(),
        apps: vec![AppCounter {
            category: AppCategory::Video,
            counters: TrafficCounters {
                rx_bytes: cum / 2,
                tx_bytes: cum / 8,
                rx_pkts: 0,
                tx_pkts: 0,
            },
        }],
        geo: CellId::new((dev % 7) as i16, (seq % 5) as i16),
        battery_pct: 70,
        tethering: tether,
        os_version: osv,
    }
}

/// Move everything currently in the tap into the engine.
fn drain(tap: &IngestTap, engine: &mut LiveEngine, scratch: &mut Vec<TapBatch>) {
    tap.drain_into(scratch);
    for b in scratch.drain(..) {
        engine.ingest_batch(&b);
    }
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// Any interleaving, any lateness allowance, duplicates, random drain
    /// points, an optional crash/recover cycle: live == batch, bit for bit.
    #[test]
    fn shuffled_arrivals_converge(
        streams in prop::collection::vec(
            prop::collection::vec((0u64..40_000, prop::bool::weighted(0.07)), 3..28),
            1..4,
        ),
        update_at in prop::collection::vec(prop::option::of(0usize..20), 3),
        swaps in prop::collection::vec(any::<prop::sample::Index>(), 96),
        actions in prop::collection::vec(0u8..8, 96),
        crash_at in prop::option::of(0usize..80),
        lateness in 5u32..40,
    ) {
        // Co-monotonic per-device streams with cumulative counters and an
        // optional iOS 8.2 transition mid-stream.
        let mut all: Vec<Record> = Vec::new();
        for (d, incrs) in streams.iter().enumerate() {
            let mut cum = 0u64;
            for (i, &(inc, tether)) in incrs.iter().enumerate() {
                cum += inc;
                let osv = match update_at[d] {
                    Some(k) if i >= k => OsVersion::IOS_8_2,
                    _ => OsVersion::new(8, 1),
                };
                all.push(rec(d as u32, i as u32, cum, tether, osv));
            }
        }
        // Arbitrary delivery order: a Fisher–Yates pass driven by the
        // strategy, reordering freely across and within devices.
        for i in (1..all.len()).rev() {
            let j = swaps[i % swaps.len()].index(i + 1);
            all.swap(i, j);
        }

        let server = CollectionServer::new();
        let tap = server.attach_tap();
        let mut engine = LiveEngine::new(
            meta(8),
            streams.len(),
            LiveOptions {
                lateness_minutes: lateness,
                compact_min_tail: 8,
                ..LiveOptions::default()
            },
        );
        let mut scratch = Vec::new();
        for (k, r) in all.iter().enumerate() {
            if crash_at == Some(k) {
                // Undrained tap batches die with the process; recovery
                // replays the whole store and the engine deduplicates.
                server.crash();
                server.recover();
            }
            server.ingest(&encode_frame(r)).unwrap();
            match actions[k % actions.len()] {
                0 | 1 => drain(&tap, &mut engine, &mut scratch),
                2 => {
                    // Redelivered frame: the server refuses it, so the tap
                    // never republishes it.
                    prop_assert_eq!(server.ingest(&encode_frame(r)), Ok(false));
                }
                _ => {}
            }
        }
        drain(&tap, &mut engine, &mut scratch);
        let fin = engine.finish();
        let records = server.into_records();
        if let Err(why) = check_convergence(&fin, &records, CleanOptions::default()) {
            return Err(TestCaseError::fail(why));
        }
    }
}

/// The live snapshot is not just bin-equal: an [`AnalysisContext`] served
/// *from* it via `from_parts` — reusing the incrementally maintained index
/// and columns instead of rebuilding them — matches a context built from
/// scratch on the batch dataset, field by field.
#[test]
fn live_context_equals_batch_context() {
    let server = CollectionServer::new();
    let tap = server.attach_tap();
    let mut engine =
        LiveEngine::new(meta(8), 3, LiveOptions { compact_min_tail: 16, ..LiveOptions::default() });
    let mut scratch = Vec::new();
    for seq in 0..40u32 {
        for dev in [2u32, 0, 1] {
            let cum = u64::from(seq) * 3_000 + u64::from(dev) * 17;
            let r = rec(dev, seq, cum, false, OsVersion::new(8, 1));
            server.ingest(&encode_frame(&r)).unwrap();
        }
        if seq % 5 == 0 {
            drain(&tap, &mut engine, &mut scratch);
        }
    }
    drain(&tap, &mut engine, &mut scratch);
    let fin = engine.finish();
    assert!(fin.stats.compactions >= 2, "compaction never amortised mid-stream");

    let records = server.into_records();
    let (batch_ds, _) = batch_reference(
        fin.snapshot.ds.meta.clone(),
        fin.snapshot.ds.devices.clone(),
        &records,
        &fin.late,
        CleanOptions::default(),
    );
    // The finished snapshot keeps its rows in `cols` alone.
    let live_ds = Dataset { bins: fin.snapshot.cols.clone(), ..fin.snapshot.ds.clone() };
    let live = AnalysisContext::from_parts(
        &live_ds,
        fin.snapshot.index.clone(),
        fin.snapshot.cols.clone(),
    );
    let batch = AnalysisContext::new(&batch_ds);
    assert_eq!(*live.ds, batch_ds);
    assert_eq!(live.days, batch.days);
    assert_eq!(live.classes, batch.classes);
    assert_eq!(live.thresholds, batch.thresholds);
    assert_eq!(live.aps, batch.aps);
    assert_eq!(live.home_cell, batch.home_cell);
    assert_eq!(live.index, batch.index);
    assert_eq!(live.cols, batch.cols);
}
