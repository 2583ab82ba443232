//! Live generation ≡ batch rebuild, and columns-only serving ≡ serving
//! with rows.
//!
//! `LiveTableBuilder` publishes mid-run generations whose `ds.bins` is
//! empty: `cols` plus `index` are the rows, and `ds` holds only the
//! identifier tables. This suite drives random interleaved appends,
//! update-day tombstones and compactions (with a small compaction floor,
//! so the 1/32 trigger fires often) and checks, after every compaction:
//!
//! * the generation's AP table, index and columns equal the canonical
//!   first-encounter AP table, `DatasetIndex::build` and
//!   `DatasetColumns::build` over the surviving rows appended so far;
//! * `QuerySet::evaluate` on the columns-only generation equals
//!   `evaluate` on the same data with its bins filled, for venue, os, wifi,
//!   day/hour, device/cohort and negated filters.
//!
//! Case count honours `PROPTEST_CASES`.

use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, AssocInfo, Band, BinRecord, Bssid, CampaignMeta, Carrier,
    CellId, Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid,
    LiveRow, LiveSnapshot, LiveTableBuilder, Os, OsVersion, ScanSummary, SimTime, WifiAssoc,
    WifiBinState, WifiState, Year,
};
use mobitrace_query::{CompileOptions, Query, QuerySet};
use proptest::prelude::*;
use std::collections::HashMap;

const DAYS: u32 = 6;

/// (BSSID, ESSID) identities; BSSID 1 appears under two names, so the AP
/// key must be the pair, not the radio.
const APS: [(u64, &str); 4] = [(1, "home"), (2, "work"), (1, "guest"), (3, "cafe")];

const FILTERS: [&str; 9] = [
    "venue=home",
    "venue!=home",
    "os=android",
    "wifi=assoc",
    "wifi=available || wifi=off",
    "day>=1 && hour<12",
    "device=0 || cohort=1",
    "!(wifi=off || day<1)",
    "!(venue=other) && os!=ios",
];

fn meta() -> CampaignMeta {
    CampaignMeta { year: Year::Y2015, start: Year::Y2015.campaign_start(), days: DAYS, seed: 0 }
}

fn devices(n: u32) -> Vec<DeviceInfo> {
    (0..n)
        .map(|i| DeviceInfo {
            device: DeviceId(i),
            os: if i % 2 == 0 { Os::Android } else { Os::Ios },
            carrier: Carrier::A,
            recruited: true,
            survey: None,
            truth: None,
        })
        .collect()
}

fn live_row(dev: u32, minute: u32, wifi_kind: u8, ap: usize, vol: u64, n_apps: usize) -> LiveRow {
    let wifi = match wifi_kind {
        0 => WifiState::Off,
        1 => WifiState::OnUnassociated,
        _ => {
            let (mac, name) = APS[ap % APS.len()];
            WifiState::Associated(AssocInfo {
                bssid: Bssid::from_u64(mac),
                essid: Essid::new(name),
                band: if mac == 2 { Band::Ghz5 } else { Band::Ghz24 },
                channel: Channel(6),
                rssi: Dbm::new(-45 - (vol % 40) as i16),
            })
        }
    };
    LiveRow {
        device: DeviceId(dev),
        time: SimTime::from_minutes(minute),
        rx_3g: vol / 7,
        tx_3g: vol / 19,
        rx_lte: vol,
        tx_lte: vol / 4,
        rx_wifi: vol * 2,
        tx_wifi: vol / 2,
        wifi,
        scan: ScanSummary { n24_all: (vol % 5) as u16, ..ScanSummary::default() },
        apps: (0..n_apps)
            .map(|k| AppBin {
                category: AppCategory::ALL[k],
                rx_bytes: vol / (k as u64 + 2),
                tx_bytes: vol / 9,
            })
            .collect(),
        geo: CellId::new((dev % 3) as i16, (minute / 1440 % 2) as i16),
        os_version: OsVersion::new(8, 1),
    }
}

/// The batch way: sort the surviving rows, intern APs in first-encounter
/// order, build a full dataset with rows.
fn reference(n_devices: u32, rows: &[LiveRow]) -> Dataset {
    let mut rows = rows.to_vec();
    rows.sort_by_key(|r| (r.device, r.time));
    let mut aps: Vec<ApEntry> = Vec::new();
    let mut ids: HashMap<(u64, Essid), ApRef> = HashMap::new();
    let bins: Vec<BinRecord> = rows
        .into_iter()
        .map(|r| BinRecord {
            device: r.device,
            time: r.time,
            rx_3g: r.rx_3g,
            tx_3g: r.tx_3g,
            rx_lte: r.rx_lte,
            tx_lte: r.tx_lte,
            rx_wifi: r.rx_wifi,
            tx_wifi: r.tx_wifi,
            wifi: match r.wifi {
                WifiState::Off => WifiBinState::Off,
                WifiState::OnUnassociated => WifiBinState::OnUnassociated,
                WifiState::Associated(a) => {
                    let ap = *ids.entry((a.bssid.as_u64(), a.essid.clone())).or_insert_with(|| {
                        aps.push(ApEntry { bssid: a.bssid, essid: a.essid.clone() });
                        ApRef(aps.len() as u32 - 1)
                    });
                    WifiBinState::Associated(WifiAssoc {
                        ap,
                        band: a.band,
                        channel: a.channel,
                        rssi: a.rssi,
                    })
                }
            },
            scan: r.scan,
            apps: r.apps,
            geo: r.geo,
            os_version: r.os_version,
        })
        .collect();
    Dataset { meta: meta(), devices: devices(n_devices), aps, bins: DatasetColumns::build(&bins) }
}

fn query_set() -> QuerySet {
    let mut queries = vec![Query::unfiltered("all")];
    for (i, src) in FILTERS.iter().enumerate() {
        queries.push(Query::parse(format!("q{i}"), src).expect("static filter"));
    }
    QuerySet { queries, opts: CompileOptions::default() }
}

/// Generation products and served payloads against the batch rebuild.
fn check_generation(
    snap: &LiveSnapshot,
    n_devices: u32,
    live: &[LiveRow],
    set: &QuerySet,
) -> Result<(), TestCaseError> {
    let want = reference(n_devices, live);
    let (index, cols) = (DatasetIndex::build(&want), want.bins.clone());
    prop_assert!(snap.ds.bins.is_empty(), "mid-run generation carries rows");
    prop_assert_eq!(&snap.ds.meta, &want.meta);
    prop_assert_eq!(&snap.ds.devices, &want.devices);
    prop_assert_eq!(&snap.ds.aps, &want.aps);
    prop_assert_eq!(&snap.index, &index);
    prop_assert_eq!(&snap.cols, &cols);

    let served = set.evaluate(&snap.ds, &snap.index, &snap.cols, snap.compactions, None);
    let batch = set.evaluate(&want, &index, &cols, snap.compactions, None);
    for (a, b) in served.iter().zip(&batch) {
        prop_assert_eq!(a.rows, b.rows, "rows, query {}", &a.filter);
        prop_assert_eq!(&a.metrics, &b.metrics, "payload, query {}", &a.filter);
    }
    Ok(())
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// Ops: 0–6 append (the device's next bin, `step` bins later), 7
    /// tombstone the device's current day, 8 compact.
    #[test]
    fn generations_equal_batch_rebuild_and_serve_identically(
        n_devices in 1u32..4,
        floor in 1usize..6,
        ops in prop::collection::vec(
            (0u8..9, 0u32..4, 1u32..40, 0u8..3, 0usize..4, 0u64..60_000, 0usize..3),
            0..120,
        ),
    ) {
        let set = query_set();
        let mut b = LiveTableBuilder::new(meta(), devices(n_devices)).with_compact_min_tail(floor);
        let mut next_bin = vec![0u32; n_devices as usize];
        let mut tomb: Vec<Option<u32>> = vec![None; n_devices as usize];
        let mut live: Vec<LiveRow> = Vec::new();
        let mut compactions = 0u64;
        for (kind, dev, step, wifi_kind, ap, vol, n_apps) in ops {
            let d = (dev % n_devices) as usize;
            match kind {
                0..=6 => {
                    let minute = (next_bin[d] + step) * 10;
                    if minute >= DAYS * 1440 {
                        continue;
                    }
                    next_bin[d] += step;
                    // The engine's cleaner drops rows on a tombstoned day.
                    if tomb[d].is_some_and(|t| minute / 1440 == t || minute / 1440 == t + 1) {
                        continue;
                    }
                    let row = live_row(d as u32, minute, wifi_kind, ap, vol, n_apps);
                    live.push(row.clone());
                    b.append(row);
                }
                7 => {
                    if tomb[d].is_some() {
                        continue;
                    }
                    let day = next_bin[d] * 10 / 1440;
                    tomb[d] = Some(day);
                    let before = live.len();
                    live.retain(|r| {
                        !(r.device.index() == d && (r.time.day() == day || r.time.day() == day + 1))
                    });
                    let killed = b.tombstone_update_day(DeviceId(d as u32), day);
                    prop_assert_eq!(killed as usize, before - live.len());
                }
                _ => {
                    let snap = b.compact();
                    compactions += 1;
                    prop_assert_eq!(snap.compactions, compactions);
                    check_generation(&snap, n_devices, &live, &set)?;
                }
            }
            prop_assert_eq!(b.len(), live.len());
            if b.should_compact() {
                let snap = b.compact();
                compactions += 1;
                check_generation(&snap, n_devices, &live, &set)?;
            }
        }
        let snap = b.compact();
        check_generation(&snap, n_devices, &live, &set)?;
    }
}
