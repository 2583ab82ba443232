//! Property test: every columnar analysis pass must produce results
//! *identical* (bit-exact, including f64 aggregates) to its retained
//! row-scan reference on arbitrary small datasets. This is the contract
//! that lets the hot paths scan [`mobitrace_model::DatasetColumns`] while
//! `Dataset::bins` stays the source of truth.

use mobitrace_core::apclass::{ApClass, ApClassification, HomeInferenceScore};
use mobitrace_core::apmap::ApDensityMap;
use mobitrace_core::assoc::AssocDurations;
use mobitrace_core::bands::FiveGhzShares;
use mobitrace_core::carriers::CarrierComparison;
use mobitrace_core::daily::{TrafficClass, UserDay};
use mobitrace_core::interference::InterferencePressure;
use mobitrace_core::ratios::ClassFilter;
use mobitrace_core::sensitivity::SweepPoint;
use mobitrace_core::timeseries::WEEK_HOURS;
use mobitrace_core::wifistate::WifiStateSeries;
use mobitrace_core::{
    apclass, apmap, apps, assoc, availability, bands, carriers, daily, interference, overview,
    quality, ratios, sensitivity, timeseries, wifistate, AnalysisContext,
};
use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, Dbm, DeviceId, DeviceInfo, Essid, GroundTruth, Os, OsVersion, ScanSummary,
    SimTime, WifiAssoc, WifiBinState, Year, BIN_MINUTES,
};
use proptest::prelude::*;
use std::cmp::Reverse;
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
                truth: truth(i),
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

/// Ground truth for the home-rule sweep: devices 0 and 2 own a home AP
/// (APs 0 and 2), device 1 owns none and device 3 carries no truth.
fn truth(device: u32) -> Option<GroundTruth> {
    let home = match device {
        0 | 2 => vec![Bssid::from_u64(u64::from(device) + 1)],
        1 => vec![],
        _ => return None,
    };
    Some(GroundTruth { home_bssids: home, ..GroundTruth::default() })
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

/// The most-voted cell of a tally, ties to the smaller cell (the rule
/// the two modal-cell references share).
fn modal_cell(votes: &HashMap<CellId, u32>) -> Option<CellId> {
    votes.iter().max_by_key(|&(&cell, &n)| (n, Reverse(cell))).map(|(&cell, _)| cell)
}

/// Row-scan reference for [`apmap::density_maps`]: the pass as it read
/// `ds.bins`.
fn density_maps_reference(ds: &Dataset, cls: &ApClassification) -> (ApDensityMap, ApDensityMap) {
    // Most-frequent report cell per AP.
    let mut cell_votes: HashMap<usize, HashMap<CellId, u32>> = HashMap::new();
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            *cell_votes.entry(a.ap.index()).or_default().entry(b.geo).or_default() += 1;
        }
    }
    let mut home = ApDensityMap::default();
    let mut public = ApDensityMap::default();
    for (idx, votes) in cell_votes {
        let cell = modal_cell(&votes).expect("votes nonempty");
        match cls.class_of[idx] {
            ApClass::Home => *home.cells.entry(cell).or_default() += 1,
            ApClass::Public => *public.cells.entry(cell).or_default() += 1,
            _ => {}
        }
    }
    (home, public)
}

/// Row-scan reference for [`interference::interference_pressure`]: the pass as it read
/// `ds.bins`.
fn interference_pressure_reference(
    ds: &Dataset,
    cls: &ApClassification,
) -> HashMap<ApClass, InterferencePressure> {
    // Channel of each associated 2.4 GHz AP and its modal cell (ties to
    // the smaller cell).
    let mut chan: HashMap<usize, Channel> = HashMap::new();
    let mut cell_votes: HashMap<usize, HashMap<CellId, u32>> = HashMap::new();
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            if a.band == Band::Ghz24 {
                chan.entry(a.ap.index()).or_insert(a.channel);
                *cell_votes.entry(a.ap.index()).or_default().entry(b.geo).or_default() += 1;
            }
        }
    }
    // Group channels by (class, cell).
    let mut per_cell: HashMap<(ApClass, CellId), Vec<Channel>> = HashMap::new();
    for (idx, votes) in cell_votes {
        let cell = modal_cell(&votes).expect("nonempty");
        let class = cls.class_of[idx];
        per_cell.entry((class, cell)).or_default().push(chan[&idx]);
    }
    let mut out: HashMap<ApClass, InterferencePressure> = HashMap::new();
    for ((class, _cell), channels) in per_cell {
        let e = out.entry(class).or_default();
        for i in 0..channels.len() {
            for j in (i + 1)..channels.len() {
                e.total_pairs += 1;
                if channels[i].overlaps_24(channels[j]) {
                    e.overlapping_pairs += 1;
                }
            }
        }
    }
    out
}

/// Row-scan reference for [`wifistate::wifi_state_series`]: the pass as it read
/// `ds.bins`.
fn wifi_state_series_reference(ds: &Dataset, os: Os) -> WifiStateSeries {
    let mut user = vec![0u64; WEEK_HOURS];
    let mut off = vec![0u64; WEEK_HOURS];
    let mut avail = vec![0u64; WEEK_HOURS];
    let mut total = vec![0u64; WEEK_HOURS];
    for b in &ds.bins {
        if ds.device(b.device).os != os {
            continue;
        }
        let slot = ((b.time.day() % 7) * 24 + b.time.hour()) as usize;
        total[slot] += 1;
        match &b.wifi {
            WifiBinState::Associated(_) => user[slot] += 1,
            WifiBinState::Off => off[slot] += 1,
            WifiBinState::OnUnassociated => avail[slot] += 1,
        }
    }
    let ratio = |num: &[u64]| -> Vec<f64> {
        num.iter()
            .zip(&total)
            .map(|(&n, &t)| if t > 0 { n as f64 / t as f64 } else { 0.0 })
            .collect()
    };
    let mean = |num: &[u64]| -> f64 {
        let n: u64 = num.iter().sum();
        let t: u64 = total.iter().sum();
        if t > 0 {
            n as f64 / t as f64
        } else {
            0.0
        }
    };
    WifiStateSeries {
        user: ratio(&user),
        off: ratio(&off),
        available: ratio(&avail),
        means: (mean(&user), mean(&off), mean(&avail)),
    }
}

/// Row-scan reference for [`bands::five_ghz_shares`]: the pass as it read
/// `ds.bins`.
fn five_ghz_shares_reference(ds: &Dataset, cls: &ApClassification) -> FiveGhzShares {
    // Band per AP entry, learned from associations.
    let mut band_of: HashMap<usize, Band> = HashMap::new();
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            band_of.entry(a.ap.index()).or_insert(a.band);
        }
    }
    let mut counts: HashMap<ApClass, (usize, usize)> = HashMap::new(); // (5ghz, total)
    for (&idx, &band) in &band_of {
        let class = cls.class_of[idx];
        let e = counts.entry(class).or_default();
        e.1 += 1;
        if band == Band::Ghz5 {
            e.0 += 1;
        }
    }
    let share = |c: ApClass| {
        counts
            .get(&c)
            .map(|&(five, total)| if total > 0 { five as f64 / total as f64 } else { 0.0 })
            .unwrap_or(0.0)
    };
    FiveGhzShares {
        home: share(ApClass::Home),
        office: share(ApClass::Office),
        public: share(ApClass::Public),
    }
}

/// Row-scan reference for [`assoc::association_durations`]: the pass as it read
/// `ds.bins`.
fn association_durations_reference(ds: &Dataset, cls: &ApClassification) -> AssocDurations {
    let mut out = AssocDurations::default();
    let mut current: Option<(mobitrace_model::DeviceId, ApRef, u32, u32)> = None;
    // (device, ap, start_bin, last_bin) in global bins.
    let finish = |out: &mut AssocDurations,
                  dev_ap: (mobitrace_model::DeviceId, ApRef),
                  start: u32,
                  last: u32| {
        let bins = last - start + 1;
        let hours = f64::from(bins * BIN_MINUTES) / 60.0;
        match cls.class(dev_ap.1) {
            ApClass::Home => out.home.push(hours),
            ApClass::Public => out.public.push(hours),
            ApClass::Office => out.office.push(hours),
            ApClass::Other => out.other.push(hours),
        }
    };
    for b in &ds.bins {
        let gbin = b.time.global_bin();
        let assoc = b.wifi.assoc().map(|a| a.ap);
        current = match (current, assoc) {
            (Some((dev, ap, start, last)), Some(now))
                if dev == b.device && ap == now && gbin == last + 1 =>
            {
                Some((dev, ap, start, gbin))
            }
            (Some((dev, ap, start, last)), now) => {
                finish(&mut out, (dev, ap), start, last);
                now.map(|ap| (b.device, ap, gbin, gbin))
            }
            (None, Some(ap)) => Some((b.device, ap, gbin, gbin)),
            (None, None) => None,
        };
    }
    if let Some((dev, ap, start, last)) = current {
        finish(&mut out, (dev, ap), start, last);
    }
    out
}

/// Row-scan reference for [`carriers::carrier_wifi_user_ratios`]: the pass as it read
/// `ds.bins`.
fn carrier_wifi_user_ratios_reference(ds: &Dataset, os: Os) -> CarrierComparison {
    let mut assoc = [0u64; 3];
    let mut total = [0u64; 3];
    for b in &ds.bins {
        let dev = ds.device(b.device);
        if dev.os != os {
            continue;
        }
        let c = dev.carrier.index();
        total[c] += 1;
        if b.wifi.assoc().is_some() {
            assoc[c] += 1;
        }
    }
    let mut ratios = [0.0; 3];
    for c in Carrier::ALL {
        let i = c.index();
        ratios[i] = if total[i] > 0 { assoc[i] as f64 / total[i] as f64 } else { 0.0 };
    }
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    CarrierComparison { ratios, spread: max - min }
}

/// Row-scan reference for [`sensitivity::home_rule_sweep`]: the pass as it read
/// `ds.bins`, with the home pick's ties going to the smaller pair.
fn home_rule_sweep_reference(ds: &Dataset, thresholds: &[f64]) -> Vec<SweepPoint> {
    // Collect per-(device, night, pair) coverage counts once.
    let mut night_cover: HashMap<(DeviceId, u32, ApRef), u32> = HashMap::new();
    for b in &ds.bins {
        let Some(a) = b.wifi.assoc() else { continue };
        let h = b.time.hour();
        let night_day = if h >= 22 {
            Some(b.time.day())
        } else if h < 6 {
            b.time.day().checked_sub(1)
        } else {
            None
        };
        if let Some(nd) = night_day {
            *night_cover.entry((b.device, nd, a.ap)).or_default() += 1;
        }
    }

    thresholds
        .iter()
        .map(|&threshold| {
            // Qualifying nights per (device, pair) at this threshold.
            let need = threshold * 48.0;
            let mut nights: HashMap<(DeviceId, ApRef), u32> = HashMap::new();
            for (&(dev, _night, ap), &cover) in &night_cover {
                if f64::from(cover) >= need {
                    *nights.entry((dev, ap)).or_default() += 1;
                }
            }
            let mut home_of: HashMap<DeviceId, ApRef> = HashMap::new();
            for (&(dev, ap), &n) in &nights {
                let better = match home_of.get(&dev) {
                    Some(&cur) => (n, Reverse(ap)) > (nights[&(dev, cur)], Reverse(cur)),
                    None => true,
                };
                if better {
                    home_of.insert(dev, ap);
                }
            }
            // Score vs truth.
            let mut score = HomeInferenceScore::default();
            for dev in &ds.devices {
                let Some(truth) = &dev.truth else { continue };
                match (home_of.get(&dev.device), truth.home_bssids.is_empty()) {
                    (Some(&ap), false) => {
                        if truth.is_home_bssid(ds.ap(ap).bssid) {
                            score.true_positive += 1;
                        } else {
                            score.false_positive += 1;
                        }
                    }
                    (Some(_), true) => score.false_positive += 1,
                    (None, false) => score.false_negative += 1,
                    (None, true) => {}
                }
            }
            SweepPoint {
                threshold,
                inferred_share: home_of.len() as f64 / ds.devices.len().max(1) as f64,
                score,
            }
        })
        .collect()
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
    assert_eq!(apmap::density_maps(&ctx), density_maps_reference(ds, &ctx.aps));
    assert_eq!(
        interference::interference_pressure(&ctx),
        interference_pressure_reference(ds, &ctx.aps)
    );
    assert_eq!(bands::five_ghz_shares(&ctx), five_ghz_shares_reference(ds, &ctx.aps));
    assert_eq!(assoc::association_durations(&ctx), association_durations_reference(ds, &ctx.aps));
    for os in [Os::Android, Os::Ios] {
        assert_eq!(wifistate::wifi_state_series(&ctx, os), wifi_state_series_reference(ds, os));
        assert_eq!(
            carriers::carrier_wifi_user_ratios(&ctx, os),
            carrier_wifi_user_ratios_reference(ds, os)
        );
    }
    // Sparse random nights: the low thresholds are the ones that infer.
    let thresholds = [0.0, 0.02, 0.05, 0.1, 0.7];
    assert_eq!(
        sensitivity::home_rule_sweep(&ctx, &thresholds),
        home_rule_sweep_reference(ds, &thresholds)
    );
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

    /// Adversarial shape: an hour of samples, many sharing a 10-minute
    /// bin, so rows adjacent in time need not be adjacent in the table
    /// (an association spell must not bridge an unassociated sample).
    #[test]
    fn crowded_bins_match(
        bins in proptest::collection::vec(bin_strategy(), 1..96),
    ) {
        let mut bins = bins;
        for b in &mut bins {
            b.time = SimTime::from_day_minute(0, b.time.minute_of_day() % 60);
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
