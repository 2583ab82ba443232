//! An independent oracle for the AP classifier.
//!
//! `classify` and `classify_cols` share one body, so the columnar
//! equivalence suite cannot see a fault in it. This file re-derives the
//! classification straight from the rules in the `apclass` module doc,
//! over `BinRecord` rows with ordered maps and plain integer thresholds,
//! sharing no code with the library's classifier:
//!
//! - **Home**: per device, the pair associated during ≥70% of a night's
//!   22:00–06:00 window (48 ten-minute bins) on the most nights; equal
//!   night counts go to the smaller pair index.
//! - **Public**: a well-known public ESSID, unless the pair is somebody's
//!   home.
//! - **Office**: any other pair with ≥50% of its associated bins between
//!   11:00 and 17:00 on weekdays.
//! - **Other**: the rest. Pairs never associated stay unclassified
//!   (`Other`) and uncounted.

use mobitrace_core::apclass::{self, ApClass, ApClassification, ClassCounts};
use mobitrace_model::{
    is_public_essid, ApEntry, ApRef, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, Dbm, DeviceId, DeviceInfo, Essid, Os, OsVersion, ScanSummary,
    SimTime, WifiAssoc, WifiBinState, Year,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Ten-minute bins in the eight-hour night window.
const NIGHT_BINS: u32 = 48;

/// The night a bin belongs to: 22:00–24:00 opens night `day`, 00:00–06:00
/// closes night `day - 1` (none before the campaign's first night).
fn night_of(t: SimTime) -> Option<u32> {
    let minute = t.minute % (24 * 60);
    let day = t.minute / (24 * 60);
    if minute >= 22 * 60 {
        Some(day)
    } else if minute < 6 * 60 {
        day.checked_sub(1)
    } else {
        None
    }
}

/// Weekday office hours: 11:00–17:00, Monday to Friday.
fn in_office_window(ds: &Dataset, t: SimTime) -> bool {
    let minute = t.minute % (24 * 60);
    (11 * 60..17 * 60).contains(&minute) && !t.weekday(ds.meta.start).is_weekend()
}

/// The classification, re-derived from the module doc's rules.
fn oracle(ds: &Dataset) -> ApClassification {
    let assoc: Vec<(DeviceId, SimTime, ApRef)> = ds
        .bins
        .to_bins()
        .iter()
        .filter_map(|b: &BinRecord| match b.wifi {
            WifiBinState::Associated(a) => Some((b.device, b.time, a.ap)),
            _ => None,
        })
        .collect();

    // Home: bins per (device, night, pair), then qualifying nights per
    // (device, pair), then the best pair per device.
    let mut night_bins: BTreeMap<(DeviceId, u32, ApRef), u32> = BTreeMap::new();
    for &(device, time, ap) in &assoc {
        if let Some(night) = night_of(time) {
            *night_bins.entry((device, night, ap)).or_default() += 1;
        }
    }
    let mut nights: BTreeMap<(DeviceId, ApRef), u32> = BTreeMap::new();
    for (&(device, _, ap), &bins) in &night_bins {
        if bins * 10 >= NIGHT_BINS * 7 {
            *nights.entry((device, ap)).or_default() += 1;
        }
    }
    let mut best: BTreeMap<DeviceId, (u32, ApRef)> = BTreeMap::new();
    for (&(device, ap), &n) in &nights {
        // Ascending pair order: a later pair wins only with more nights.
        match best.get(&device) {
            Some(&(m, _)) if m >= n => {}
            _ => {
                best.insert(device, (n, ap));
            }
        }
    }
    let home_of: HashMap<DeviceId, ApRef> = best.iter().map(|(&d, &(_, ap))| (d, ap)).collect();
    let homes: BTreeSet<ApRef> = best.values().map(|&(_, ap)| ap).collect();

    // Per-pair totals and office-window bins.
    let mut total: BTreeMap<ApRef, u64> = BTreeMap::new();
    let mut office: BTreeMap<ApRef, u64> = BTreeMap::new();
    for &(_, time, ap) in &assoc {
        *total.entry(ap).or_default() += 1;
        if in_office_window(ds, time) {
            *office.entry(ap).or_default() += 1;
        }
    }

    let mut class_of = vec![ApClass::Other; ds.aps.len()];
    let mut counts = ClassCounts::default();
    for (&ap, &bins) in &total {
        let class = if homes.contains(&ap) {
            ApClass::Home
        } else if is_public_essid(ds.aps[ap.0 as usize].essid.as_str()) {
            ApClass::Public
        } else if 2 * office.get(&ap).copied().unwrap_or(0) >= bins {
            ApClass::Office
        } else {
            ApClass::Other
        };
        class_of[ap.0 as usize] = class;
        match class {
            ApClass::Home => counts.home += 1,
            ApClass::Public => counts.public += 1,
            ApClass::Office => {
                counts.office += 1;
                counts.other += 1;
            }
            ApClass::Other => counts.other += 1,
        }
    }
    ApClassification { class_of, home_of, counts }
}

const N_DEV: u32 = 4;
/// Two public ESSIDs (one of them FON, the home-at-public case) and three
/// private ones.
const ESSIDS: [&str; 5] = ["home-a", "FON_FREE_INTERNET", "corp-7", "7SPOT", "home-b"];

/// A run of consecutive ten-minute bins of one device, all in one WiFi
/// state: `ap` associated, or unassociated when `None`.
#[derive(Debug, Clone)]
struct Block {
    device: u32,
    day: u32,
    start_bin: u32,
    len: u32,
    ap: Option<u32>,
}

fn block_strategy() -> impl Strategy<Value = Block> {
    (
        0..N_DEV,
        0u32..9,
        // Mostly evening starts, so whole nights are covered often.
        prop_oneof![126u32..136, 60u32..110, 0u32..144],
        prop_oneof![30u32..60, 1u32..40],
        prop_oneof![(0..ESSIDS.len() as u32).prop_map(Some), Just(None)],
    )
        .prop_map(|(device, day, start_bin, len, ap)| Block {
            device,
            day,
            start_bin,
            len,
            ap,
        })
}

/// Expand blocks into a valid dataset: bins inside the campaign window,
/// unique per (device, time) (the first block to claim a bin keeps it),
/// sorted by (device, time).
fn dataset(blocks: &[Block]) -> Dataset {
    let days = 10u32;
    let mut rows: BTreeMap<(DeviceId, u32), Option<u32>> = BTreeMap::new();
    for b in blocks {
        for k in 0..b.len {
            let minute = (b.day * 144 + b.start_bin + k) * 10;
            if minute < days * 24 * 60 {
                rows.entry((DeviceId(b.device), minute)).or_insert(b.ap);
            }
        }
    }
    let bins: Vec<BinRecord> = rows
        .into_iter()
        .map(|((device, minute), ap)| BinRecord {
            device,
            time: SimTime { minute },
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 1,
            tx_lte: 0,
            rx_wifi: 2,
            tx_wifi: 0,
            wifi: match ap {
                Some(ap) => WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(ap),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-60),
                }),
                None => WifiBinState::OnUnassociated,
            },
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        })
        .collect();
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2014,
            start: Year::Y2014.campaign_start(),
            days,
            seed: 0,
        },
        devices: (0..N_DEV)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: Os::Android,
                carrier: Carrier::ALL[0],
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: ESSIDS
            .iter()
            .enumerate()
            .map(|(i, e)| ApEntry { bssid: Bssid::from_u64(i as u64 + 1), essid: Essid::new(*e) })
            .collect(),
        bins: DatasetColumns::build(&bins),
    }
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(96)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    #[test]
    fn classify_matches_oracle(blocks in proptest::collection::vec(block_strategy(), 0..40)) {
        let ds = dataset(&blocks);
        prop_assert_eq!(apclass::classify(&ds), oracle(&ds));
    }
}

/// Two pairs tie on qualifying nights: the smaller pair index is home,
/// and the other (a FON ESSID) stays public.
#[test]
fn night_tie_goes_to_the_smaller_pair() {
    let night = |day: u32, ap: u32| Block { device: 1, day, start_bin: 132, len: 48, ap: Some(ap) };
    let ds = dataset(&[night(1, 1), night(3, 0), night(5, 1), night(7, 0)]);
    let want = oracle(&ds);
    assert_eq!(want.home_of.get(&DeviceId(1)), Some(&ApRef(0)));
    assert_eq!(want.class_of[1], ApClass::Public);
    assert_eq!(apclass::classify(&ds), want);
}

/// The simulator's campaigns exercise every class at realistic scale.
#[test]
fn classify_matches_oracle_on_a_simulated_campaign() {
    let cfg = mobitrace_sim::CampaignConfig::scaled(Year::Y2015, 0.02).with_seed(11);
    let (ds, _) = mobitrace_sim::campaign::run_campaign(&cfg);
    let want = oracle(&ds);
    assert!(want.counts.home > 0 && want.counts.public > 0 && want.counts.office > 0);
    assert_eq!(apclass::classify(&ds), want);
}
