//! Property test: every columnar analysis pass must produce results
//! *identical* (bit-exact, including f64 aggregates) to its retained
//! row-scan reference on arbitrary small datasets. This is the contract
//! that lets the hot paths scan [`mobitrace_model::DatasetColumns`] while
//! `Dataset::bins` stays the source of truth.

use mobitrace_core::apclass::{ApClass, ApClassification};
use mobitrace_core::daily::{TrafficClass, UserDay};
use mobitrace_core::ratios::ClassFilter;
use mobitrace_core::{
    apclass, apps, availability, daily, overview, quality, ratios, timeseries, AnalysisContext,
};
use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, Dbm, DeviceId, DeviceInfo, Essid, Os, OsVersion, ScanSummary, SimTime,
    WifiAssoc, WifiBinState, Year,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const N_DEV: u32 = 4;
const N_APS: u32 = 3;
/// One public ESSID, and two pairs sharing an ESSID (so per-ESSID
/// deduplication in the Table 5 pass has something to merge).
const ESSIDS: [&str; N_APS as usize] = ["ap-0", "7SPOT", "ap-0"];

fn wifi_strategy() -> impl Strategy<Value = WifiBinState> {
    prop_oneof![
        Just(WifiBinState::Off),
        Just(WifiBinState::OnUnassociated),
        (0..N_APS, any::<bool>(), 1u8..=13, -90i16..=-30).prop_map(|(ap, five, ch, rssi)| {
            WifiBinState::Associated(WifiAssoc {
                ap: ApRef(ap),
                band: if five { Band::Ghz5 } else { Band::Ghz24 },
                channel: Channel(ch),
                rssi: Dbm::new(rssi),
            })
        }),
    ]
}

fn apps_strategy() -> impl Strategy<Value = Vec<AppBin>> {
    proptest::collection::vec(
        (0usize..AppCategory::ALL.len(), 0u64..2_000_000, 0u64..200_000).prop_map(
            |(cat, rx, tx)| AppBin { category: AppCategory::ALL[cat], rx_bytes: rx, tx_bytes: tx },
        ),
        0..3,
    )
}

fn bin_strategy() -> impl Strategy<Value = BinRecord> {
    (
        (0..N_DEV, 0u32..7, 0u32..1440, wifi_strategy()),
        proptest::array::uniform6(0u64..5_000_000),
        proptest::array::uniform8(0u16..20),
        apps_strategy(),
        (-4i16..4, -4i16..4),
    )
        .prop_map(|((dev, day, minute, wifi), vol, scan, apps, (gx, gy))| BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_minute(day, minute),
            rx_3g: vol[0],
            tx_3g: vol[1],
            rx_lte: vol[2],
            tx_lte: vol[3],
            rx_wifi: vol[4],
            tx_wifi: vol[5],
            wifi,
            scan: ScanSummary {
                n24_all: scan[0],
                n24_strong: scan[1],
                n5_all: scan[2],
                n5_strong: scan[3],
                n24_public_all: scan[4],
                n24_public_strong: scan[5],
                n5_public_all: scan[6],
                n5_public_strong: scan[7],
            },
            apps,
            geo: CellId::new(gx, gy),
            os_version: OsVersion::new(4, 4),
        })
}

/// Assemble a valid dataset: bins sorted by (device, time) and unique per
/// (device, time), every device present in the device table.
fn dataset(mut bins: Vec<BinRecord>) -> Dataset {
    bins.sort_by_key(|b| (b.device, b.time));
    bins.dedup_by_key(|b| (b.device, b.time));
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2013,
            start: Year::Y2013.campaign_start(),
            days: 7,
            seed: 0,
        },
        devices: (0..N_DEV)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: if i % 3 == 2 { Os::Ios } else { Os::Android },
                carrier: Carrier::ALL[(i % 3) as usize],
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: (0..N_APS)
            .map(|i| ApEntry {
                bssid: Bssid::from_u64(u64::from(i) + 1),
                essid: Essid::new(ESSIDS[i as usize]),
            })
            .collect(),
        bins,
    }
}

/// Hash-map reference for [`apclass::aps_per_user_day`]: distinct pairs
/// per (device, day) gathered over all rows, then filtered by an allowed
/// set of user-days of the wanted class.
fn aps_per_user_day_reference(
    ds: &Dataset,
    filter: Option<(&[UserDay], &[TrafficClass], TrafficClass)>,
) -> [u64; 4] {
    let mut per_day: HashMap<(DeviceId, u32), HashSet<ApRef>> = HashMap::new();
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            per_day.entry((b.device, b.time.day())).or_default().insert(a.ap);
        }
    }
    let allowed: Option<HashSet<(DeviceId, u32)>> = filter.map(|(days, classes, want)| {
        days.iter()
            .zip(classes)
            .filter(|(_, c)| **c == want)
            .map(|(d, _)| (d.device, d.day))
            .collect()
    });
    let mut out = [0u64; 4];
    for (key, aps) in per_day {
        if let Some(allowed) = &allowed {
            if !allowed.contains(&key) {
                continue;
            }
        }
        out[aps.len().min(4) - 1] += 1;
    }
    out
}

/// Hash-map reference for [`apclass::hpo_breakdown`].
fn hpo_breakdown_reference(ds: &Dataset, cls: &ApClassification) -> HashMap<(u8, u8, u8), u64> {
    let mut per_day: HashMap<(DeviceId, u32), HashSet<ApRef>> = HashMap::new();
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            per_day.entry((b.device, b.time.day())).or_default().insert(a.ap);
        }
    }
    let mut out: HashMap<(u8, u8, u8), u64> = HashMap::new();
    for ((device, _day), aps) in per_day {
        let (mut h, mut p, mut o) = (0u8, 0u8, 0u8);
        let mut seen_essids: HashSet<(&str, ApClass)> = HashSet::new();
        for ap in aps {
            let class = match cls.class(ap) {
                ApClass::Home if !cls.is_device_home(device, ap) => ApClass::Other,
                c => c,
            };
            if !seen_essids.insert((ds.ap(ap).essid.as_str(), class)) {
                continue;
            }
            match class {
                ApClass::Home => h = h.saturating_add(1),
                ApClass::Public => p = p.saturating_add(1),
                ApClass::Office | ApClass::Other => o = o.saturating_add(1),
            }
        }
        *out.entry((h.min(4), p.min(4), o.min(4))).or_default() += 1;
    }
    out
}

/// Run every columnar pass against its row-scan reference, asserting
/// bit-exact equality. Panics on mismatch, so it works both as a plain
/// test body and inside `proptest!` (shrinking treats panics as failures).
fn assert_passes_match(ds: &Dataset) {
    let ctx = AnalysisContext::new(ds);
    let cols = &ctx.cols;

    assert_eq!(daily::user_days_cols(cols), daily::user_days(ds));
    assert_eq!(apclass::classify_cols(ds, cols), apclass::classify(ds));
    assert_eq!(overview::overview(ds, cols), overview::overview_rows(ds));
    assert_eq!(timeseries::aggregate_series(ds, cols), timeseries::aggregate_series_rows(ds));
    assert_eq!(
        timeseries::venue_series(ds, cols, &ctx.aps),
        timeseries::venue_series_rows(ds, &ctx.aps)
    );
    assert_eq!(quality::rssi_analysis(cols, &ctx.aps), quality::rssi_analysis_rows(ds, &ctx.aps));
    assert_eq!(
        quality::channel_analysis(cols, &ctx.aps),
        quality::channel_analysis_rows(ds, &ctx.aps)
    );
    assert_eq!(
        availability::detected_public_aps(ds, cols),
        availability::detected_public_aps_rows(ds)
    );
    assert_eq!(availability::offload_potential(ds, cols), availability::offload_potential_rows(ds));
    for filter in [
        ClassFilter::All,
        ClassFilter::Only(TrafficClass::Heavy),
        ClassFilter::Only(TrafficClass::Light),
    ] {
        assert_eq!(
            ratios::wifi_traffic_ratio(&ctx, filter),
            ratios::wifi_traffic_ratio_rows(&ctx, filter)
        );
        assert_eq!(
            ratios::wifi_user_ratio(&ctx, filter),
            ratios::wifi_user_ratio_rows(&ctx, filter)
        );
    }
    assert_eq!(apps::app_breakdown(&ctx, None), apps::app_breakdown_rows(&ctx, None));
    assert_eq!(
        apps::app_breakdown(&ctx, Some(TrafficClass::Light)),
        apps::app_breakdown_rows(&ctx, Some(TrafficClass::Light))
    );
    assert_eq!(apclass::aps_per_user_day(&ctx, None), aps_per_user_day_reference(ds, None));
    for class in [TrafficClass::Light, TrafficClass::Heavy, TrafficClass::Middle] {
        assert_eq!(
            apclass::aps_per_user_day(&ctx, Some(class)),
            aps_per_user_day_reference(ds, Some((&ctx.days, &ctx.classes, class)))
        );
    }
    assert_eq!(apclass::hpo_breakdown(&ctx), hpo_breakdown_reference(ds, &ctx.aps));
}

/// Case count: 48 by default, raised through `PROPTEST_CASES` (CI runs
/// an elevated-case step).
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    #[test]
    fn columnar_passes_match_row_references(
        bins in proptest::collection::vec(bin_strategy(), 0..160),
    ) {
        assert_passes_match(&dataset(bins));
    }

    /// Adversarial shape: every bin of the dataset shares one WiFi state,
    /// so one selection vector covers all rows while the other is empty —
    /// the extreme fill cases of the lane-chunked selection kernels.
    #[test]
    fn all_one_wifi_state_days_match(
        state in 0u8..3,
        bins in proptest::collection::vec(bin_strategy(), 1..96),
    ) {
        let mut bins = bins;
        for b in &mut bins {
            b.wifi = match state {
                0 => WifiBinState::Off,
                1 => WifiBinState::OnUnassociated,
                _ => WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(b.device.0 % N_APS),
                    band: Band::Ghz24,
                    channel: Channel(1 + (b.device.0 % 13) as u8),
                    rssi: Dbm::new(-60),
                }),
            };
        }
        assert_passes_match(&dataset(bins));
    }

    /// Adversarial shape: every device contributes exactly one bin —
    /// every (device, day) run the segmented kernels see has length 1.
    #[test]
    fn single_record_devices_match(
        bins in proptest::collection::vec(bin_strategy(), 1..=N_DEV as usize),
    ) {
        let mut bins = bins;
        for (k, b) in bins.iter_mut().enumerate() {
            b.device = DeviceId(k as u32); // one bin per device
        }
        assert_passes_match(&dataset(bins));
    }
}

#[test]
fn empty_dataset_matches() {
    assert_passes_match(&dataset(vec![]));
}

/// Row counts straddling the lane width (8) and the staging blocks
/// (64/128): tails of every length, exact lane multiples, and one-over.
#[test]
fn non_lane_multiple_row_counts_match() {
    for n in [1usize, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129] {
        let bins: Vec<BinRecord> = (0..n)
            .map(|i| BinRecord {
                device: DeviceId((i % N_DEV as usize) as u32),
                time: SimTime::from_day_minute((i / 144) as u32 % 7, (i * 10 % 1440) as u32),
                rx_3g: i as u64 * 17,
                tx_3g: i as u64 * 3,
                rx_lte: i as u64 * 23,
                tx_lte: i as u64 * 5,
                rx_wifi: i as u64 * 31,
                tx_wifi: i as u64 * 7,
                wifi: match i % 3 {
                    0 => WifiBinState::Off,
                    1 => WifiBinState::OnUnassociated,
                    _ => WifiBinState::Associated(WifiAssoc {
                        ap: ApRef((i % N_APS as usize) as u32),
                        band: if i % 2 == 0 { Band::Ghz24 } else { Band::Ghz5 },
                        channel: Channel(1 + (i % 13) as u8),
                        rssi: Dbm::new(-40 - (i % 50) as i16),
                    }),
                },
                scan: ScanSummary {
                    n24_all: (i % 9) as u16,
                    n24_strong: (i % 4) as u16,
                    n5_all: (i % 5) as u16,
                    n5_strong: (i % 3) as u16,
                    n24_public_all: (i % 7) as u16,
                    n24_public_strong: (i % 2) as u16,
                    n5_public_all: (i % 6) as u16,
                    n5_public_strong: (i % 2) as u16,
                },
                apps: vec![],
                geo: CellId::new((i % 5) as i16 - 2, (i % 7) as i16 - 3),
                os_version: OsVersion::new(4, 4),
            })
            .collect();
        assert_passes_match(&dataset(bins));
    }
}
