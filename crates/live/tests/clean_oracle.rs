//! A frozen reference for the cleaning rules.
//!
//! Batch `clean` and the live engine clean with one state machine
//! (`DeviceCleaner`), so `live_equivalence` compares that machine with
//! itself and would pass with a fault in a rule. This suite pins both paths
//! to `clean_reference`: the batch cleaner as it was written before the
//! state machine existed (a per-device lookahead pass for the update day,
//! then one pass of gap and reboot accounting, counter and app deltas and
//! tethering removal), kept here unchanged except that tethering removal no
//! longer sits behind an option.
//!
//! The generated device streams carry every case the rules treat
//! specially: boot-epoch bumps with counters restarting, sequence gaps
//! (leading ones too), counter regressions inside an epoch, tethering, an
//! iOS 8.2 transition (also on a tethered record, on a device's last day,
//! and a second one after a brief downgrade), repeated app categories in
//! one record, and APs repeated across devices, including one BSSID under
//! two ESSIDs. Case count honours `PROPTEST_CASES`.

use mobitrace_collector::{clean, CleanOptions, CleanStats, TapBatch};
use mobitrace_live::{LiveEngine, LiveOptions};
use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, AppCounter, AssocInfo, Band, BinRecord, Bssid,
    CampaignMeta, Carrier, CellId, Channel, CounterSnapshot, Dataset, DatasetColumns, Dbm,
    DeviceId, DeviceInfo, Essid, Os, OsVersion, Record, ScanSummary, SimTime, TrafficCounters,
    WifiAssoc, WifiBinState, WifiState, Year,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// The batch cleaner before `DeviceCleaner`, frozen. Records must be
/// sorted by (device, seq).
fn clean_reference(
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
    records: &[Record],
    opts: CleanOptions,
) -> (Dataset, CleanStats) {
    let mut stats = CleanStats { records_in: records.len() as u64, ..CleanStats::default() };
    let mut aps: Vec<ApEntry> = Vec::new();
    // Keyed by the shared `Essid` (an `Arc` bump per lookup, hashed and
    // compared by contents), not an owned copy of the name.
    let mut ap_index: HashMap<(u64, Essid), ApRef> = HashMap::new();
    let mut bins = DatasetColumns::with_capacity(records.len(), 0);
    let mut apps: Vec<AppBin> = Vec::new();

    let mut i = 0;
    while i < records.len() {
        let device = records[i].device;
        let mut j = i;
        while j < records.len() && records[j].device == device {
            j += 1;
        }
        let dev_records = &records[i..j];
        i = j;

        // Pass 1: find the iOS-update day, if any.
        let update_day: Option<u32> = dev_records.windows(2).find_map(|w| {
            (w[0].os_version < OsVersion::IOS_8_2 && w[1].os_version >= OsVersion::IOS_8_2)
                .then(|| w[1].time.day())
        });

        // Pass 2: delta reconstruction. Sequence numbers are monotonic
        // across reboots, so gap widths are exact loss counts whether or
        // not the epoch changed in between.
        if let Some(first) = dev_records.first() {
            if first.seq > 0 {
                stats.gaps += 1;
                stats.missing_records += u64::from(first.seq);
            }
        }
        let mut prev: Option<&Record> = None;
        for r in dev_records {
            if let Some(p) = prev {
                if r.seq > p.seq + 1 {
                    stats.gaps += 1;
                    stats.missing_records += u64::from(r.seq - p.seq - 1);
                }
            }
            // The delta base: the previous record of the same boot epoch.
            // After a reboot the counters restarted from zero, so
            // everything accumulated since boot belongs to this bin.
            let base = prev.filter(|p| p.boot_epoch == r.boot_epoch);
            stats.reboots += u64::from(prev.is_some() && base.is_none());
            let (d3g, dlte, dwifi) = match base {
                Some(p) => (
                    delta(&r.counters.cell3g, &p.counters.cell3g),
                    delta(&r.counters.lte, &p.counters.lte),
                    delta(&r.counters.wifi, &p.counters.wifi),
                ),
                None => (r.counters.cell3g, r.counters.lte, r.counters.wifi),
            };
            prev = Some(r);

            if r.tethering {
                stats.tethering_removed += 1;
                continue;
            }
            if opts.remove_update_days {
                if let Some(day) = update_day {
                    if r.time.day() == day || r.time.day() == day + 1 {
                        stats.update_days_removed += 1;
                        continue;
                    }
                }
            }

            let wifi = match &r.wifi {
                WifiState::Off => WifiBinState::Off,
                WifiState::OnUnassociated => WifiBinState::OnUnassociated,
                WifiState::Associated(a) => {
                    let key = (a.bssid.as_u64(), a.essid.clone());
                    let ap = *ap_index.entry(key).or_insert_with(|| {
                        let r = ApRef(aps.len() as u32);
                        aps.push(ApEntry { bssid: a.bssid, essid: a.essid.clone() });
                        r
                    });
                    WifiBinState::Associated(WifiAssoc {
                        ap,
                        band: a.band,
                        channel: a.channel,
                        rssi: a.rssi,
                    })
                }
            };

            // The scratch buffer moves into the row and back out.
            apps.clear();
            app_deltas(r, base, &mut apps);
            let bin = BinRecord {
                device,
                time: r.time,
                rx_3g: d3g.rx_bytes,
                tx_3g: d3g.tx_bytes,
                rx_lte: dlte.rx_bytes,
                tx_lte: dlte.tx_bytes,
                rx_wifi: dwifi.rx_bytes,
                tx_wifi: dwifi.tx_bytes,
                wifi,
                scan: r.scan,
                apps: std::mem::take(&mut apps),
                geo: r.geo,
                os_version: r.os_version,
            };
            bins.push(&bin);
            apps = bin.apps;
        }
    }

    stats.bins_out = bins.len() as u64;
    (Dataset { meta, devices, aps, bins }, stats)
}

/// Counter delta that tolerates regressions (clamped to zero).
fn delta(now: &TrafficCounters, before: &TrafficCounters) -> TrafficCounters {
    now.delta_since(before).unwrap_or_default()
}

/// Per-app byte deltas of `r` against `prev`, the device's previous record
/// in the same boot epoch; apps without new bytes are dropped, and the
/// first entry of a category repeated in `prev` is its base.
fn app_deltas(r: &Record, prev: Option<&Record>, out: &mut Vec<AppBin>) {
    let mut base = [None::<TrafficCounters>; AppCategory::ALL.len()];
    if let Some(p) = prev {
        for app in &p.apps {
            base[app.category.index()].get_or_insert(app.counters);
        }
    }
    out.extend(r.apps.iter().filter_map(|app| {
        let d = delta(&app.counters, &base[app.category.index()].unwrap_or_default());
        (d.rx_bytes > 0 || d.tx_bytes > 0).then_some(AppBin {
            category: app.category,
            rx_bytes: d.rx_bytes,
            tx_bytes: d.tx_bytes,
        })
    }));
}

const DAYS: u32 = 12;

/// (BSSID, ESSID) identities; BSSID 1 appears under two names.
const APS: [(u64, &str); 5] = [(1, "home"), (2, "work"), (1, "guest"), (3, "cafe"), (4, "lab")];

/// One generated sample: sequence gap, bins since the previous sample,
/// reboot, tethering, counter regression, volume, WiFi kind and the
/// app entries as (category, extra bytes).
type Step = (u32, u32, bool, bool, bool, u64, u8, Vec<(usize, u64)>);

/// One device's stream: first seq, samples, where it moves to iOS 8.2,
/// whether that sample is tethered, and one sample after which it is
/// briefly back below 8.2.
type Stream = (u32, Vec<Step>, Option<usize>, bool, Option<usize>);

fn step() -> impl Strategy<Value = Step> {
    (
        (0u32..9).prop_map(|x| x.saturating_sub(5)),
        1u32..40,
        prop::bool::weighted(0.08),
        prop::bool::weighted(0.1),
        prop::bool::weighted(0.04),
        0u64..50_000,
        0u8..8,
        prop::collection::vec((0usize..3, 0u64..5_000), 0..4),
    )
}

fn stream() -> impl Strategy<Value = Stream> {
    (
        0u32..3,
        prop::collection::vec(step(), 0..36),
        prop::option::of(0usize..36),
        any::<bool>(),
        prop::option::of(0usize..36),
    )
}

fn counters(cum: u64) -> CounterSnapshot {
    let c = |rx: u64, tx: u64| TrafficCounters {
        rx_bytes: rx,
        tx_bytes: tx,
        rx_pkts: rx / 900,
        tx_pkts: tx / 900,
    };
    CounterSnapshot { cell3g: c(cum / 3, cum / 9), lte: c(cum * 2, cum / 2), wifi: c(cum, cum / 4) }
}

/// The records one device's stream produces, in sequence order.
fn records(dev: u32, (first_seq, steps, update_at, tether_update, dip_at): &Stream) -> Vec<Record> {
    let (mut seq, mut bin, mut epoch, mut cum) = (*first_seq, 0u32, 0u16, 0u64);
    let mut app_cum = [0u64; 3];
    let mut out = Vec::new();
    for (k, (gap, dt, reboot, tether, regress, vol, wifi, apps)) in steps.iter().enumerate() {
        if k > 0 {
            seq += 1 + gap;
            bin += dt;
        }
        if *reboot {
            epoch += 1;
            cum = 0;
            app_cum = [0; 3];
        }
        cum += vol;
        for (c, a) in app_cum.iter_mut().enumerate() {
            *a += vol / (c as u64 + 2);
        }
        let updated = update_at.is_some_and(|u| k >= u) && *dip_at != Some(k);
        let wifi = match wifi {
            0 => WifiState::Off,
            1 | 2 => WifiState::OnUnassociated,
            w => {
                let (mac, name) = APS[(usize::from(*w) + dev as usize) % APS.len()];
                WifiState::Associated(AssocInfo {
                    bssid: Bssid::from_u64(mac),
                    essid: Essid::new(name),
                    band: if mac == 2 { Band::Ghz5 } else { Band::Ghz24 },
                    channel: Channel(6),
                    rssi: Dbm::new(-40 - (*vol % 50) as i16),
                })
            }
        };
        out.push(Record {
            device: DeviceId(dev),
            os: Os::Ios,
            seq,
            time: SimTime::from_minutes(bin * 10),
            boot_epoch: epoch,
            counters: counters(if *regress { cum / 2 } else { cum }),
            wifi,
            scan: ScanSummary { n24_all: (vol % 7) as u16, ..ScanSummary::default() },
            apps: apps
                .iter()
                .map(|&(c, extra)| AppCounter {
                    category: AppCategory::ALL[c],
                    counters: TrafficCounters {
                        rx_bytes: app_cum[c] + extra,
                        tx_bytes: (app_cum[c] + extra) / 10,
                        rx_pkts: 0,
                        tx_pkts: 0,
                    },
                })
                .collect(),
            geo: CellId::new(dev as i16, (bin / 144 % 3) as i16),
            battery_pct: 60,
            tethering: *tether || (*tether_update && *update_at == Some(k)),
            os_version: if updated { OsVersion::IOS_8_2 } else { OsVersion::new(8, 1) },
        });
    }
    out
}

fn devices(n: usize) -> Vec<DeviceInfo> {
    (0..n)
        .map(|i| DeviceInfo {
            device: DeviceId(i as u32),
            os: Os::Ios,
            carrier: Carrier::A,
            recruited: true,
            survey: None,
            truth: None,
        })
        .collect()
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// Batch `clean` and a live engine fed the same records, in time order
    /// and in batches of any size, both equal the frozen reference bit for
    /// bit, with and without the update-day exclusion.
    #[test]
    fn clean_and_live_match_frozen_reference(
        streams in prop::collection::vec(stream(), 1..5),
        batch in 1usize..24,
        floor in 1usize..8,
    ) {
        let meta = CampaignMeta {
            year: Year::Y2015,
            start: Year::Y2015.campaign_start(),
            days: DAYS,
            seed: 0,
        };
        let all: Vec<Record> =
            streams.iter().enumerate().flat_map(|(d, s)| records(d as u32, s)).collect();
        let mut arrivals = all.clone();
        arrivals.sort_by_key(|r| (r.time, r.device));

        for remove_update_days in [true, false] {
            let opts = CleanOptions { remove_update_days };
            let devs = devices(streams.len());
            let (want, want_stats) = clean_reference(meta.clone(), devs.clone(), &all, opts);

            let (got, got_stats) = clean(meta.clone(), devs.clone(), &all, opts);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(got_stats, want_stats);

            let mut engine = LiveEngine::with_devices(
                meta.clone(),
                devs,
                LiveOptions { clean: opts, compact_min_tail: floor, ..LiveOptions::default() },
            );
            for chunk in arrivals.chunks(batch) {
                engine.ingest_batch(&TapBatch { replay: false, records: chunk.to_vec() });
            }
            let fin = engine.finish();
            prop_assert!(fin.late.is_empty(), "in-order arrivals went late");
            let snap = &fin.snapshot;
            prop_assert_eq!(&snap.cols, &want.bins);
            prop_assert_eq!(&snap.ds.aps, &want.aps);
            prop_assert_eq!(&snap.ds.meta, &want.meta);
            prop_assert_eq!(&snap.ds.devices, &want.devices);
            prop_assert_eq!(fin.stats.clean, want_stats);
        }
    }
}
