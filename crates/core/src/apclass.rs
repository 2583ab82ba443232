//! AP classification: home, public, office, other (§3.4.1; Tables 4–5,
//! Fig. 12).
//!
//! - **Home**: the most common (BSSID, ESSID) pair a device associates
//!   with during ≥70% of the 22:00–06:00 window of a day;
//! - **Public**: well-known public ESSIDs — except pairs inferred as
//!   somebody's home (the FON-at-home exception);
//! - **Office**: remaining pairs whose associations fall mainly (≥50%)
//!   between 11:00 and 17:00 on weekdays;
//! - **Other**: the rest (offices that miss the window rule, shops,
//!   mobile routers).
//!
//! Because simulated datasets carry ground truth, [`score_home_inference`]
//! reports the precision/recall of the paper's home heuristic — an
//! evaluation the original study could not perform.

use crate::ctx::AnalysisContext;
use crate::daily::TrafficClass;
use mobitrace_model::{
    is_public_essid, AllRows, ApRef, Dataset, DatasetColumns, DeviceId, RowSet, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Inferred class of one (BSSID, ESSID) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApClass {
    /// Somebody's home network.
    Home,
    /// Public provider network.
    Public,
    /// Office network (subset of Other in Table 4's presentation).
    Office,
    /// Anything else.
    Other,
}

/// Number of bins in the 22:00–06:00 night window.
const NIGHT_WINDOW_BINS: u32 = 48;
/// Home rule: pair must cover ≥70% of the night window.
const HOME_COVERAGE: f64 = 0.70;
/// Office rule: ≥50% of the pair's bins in the 11:00–17:00 weekday window.
const OFFICE_SHARE: f64 = 0.50;

/// Result of the classification pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApClassification {
    /// Class per AP table entry.
    pub class_of: Vec<ApClass>,
    /// Inferred home pair per device (absent = no home AP inferred).
    pub home_of: HashMap<DeviceId, ApRef>,
    /// Unique pair counts per class: (home, public, other-incl-office,
    /// office) — the Table 4 rows.
    pub counts: ClassCounts,
}

/// Table 4 row counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ClassCounts {
    /// Unique home pairs.
    pub home: usize,
    /// Unique public pairs.
    pub public: usize,
    /// Unique other pairs (office included, as in Table 4).
    pub other: usize,
    /// Unique office pairs (the parenthesised Table 4 row).
    pub office: usize,
}

impl ClassCounts {
    /// Total unique associated pairs.
    pub fn total(&self) -> usize {
        self.home + self.public + self.other
    }
}

impl ApClassification {
    /// Class of a pair.
    pub fn class(&self, ap: ApRef) -> ApClass {
        self.class_of[ap.index()]
    }

    /// Is this pair the inferred home of the given device?
    pub fn is_device_home(&self, device: DeviceId, ap: ApRef) -> bool {
        self.home_of.get(&device) == Some(&ap)
    }
}

/// Run the classifier over a dataset (row scan; the reference
/// implementation for [`classify_cols`]).
pub fn classify(ds: &Dataset) -> ApClassification {
    classify_impl(
        ds,
        ds.bins.iter().filter_map(|b| b.wifi.assoc().map(|a| (b.device, b.time, a.ap))),
    )
}

/// Columnar variant of [`classify`]: identical output, but streams the
/// device/time/association columns of the associated rows instead of the
/// row records. The shared core is generic over the scan, so every entry
/// point monomorphizes the same logic.
pub fn classify_cols(ds: &Dataset, cols: &DatasetColumns) -> ApClassification {
    classify_over(ds, cols, &AllRows)
}

/// [`classify_cols`] over the rows of `rows` only, read in place: the
/// classification a view holding just those rows would get.
pub fn classify_over(ds: &Dataset, cols: &DatasetColumns, rows: &impl RowSet) -> ApClassification {
    classify_impl(
        ds,
        rows.associated(cols).iter().map(|&r| {
            let i = r as usize;
            (cols.device[i], cols.time[i], cols.assoc_ap[i])
        }),
    )
}

/// The classifier over the associated bins, in (device, time) order —
/// only associations carry evidence, so unassociated bins are never
/// scanned.
fn classify_impl(
    ds: &Dataset,
    assoc_bins: impl Iterator<Item = (DeviceId, SimTime, ApRef)>,
) -> ApClassification {
    let n_aps = ds.aps.len();
    // Per-pair usage tallies.
    let mut total_bins = vec![0u64; n_aps];
    let mut office_window_bins = vec![0u64; n_aps];
    // Home inference: per device, per pair, number of qualifying nights.
    let mut nights_qualified: HashMap<(DeviceId, ApRef), u32> = HashMap::new();
    // Scratch: bins per pair in the current (device, night) window. A
    // device's bins are time-sorted, so its night numbers never decrease
    // and each night is complete when the next one (or device) starts.
    let mut night_bins: Vec<(ApRef, u32)> = Vec::new();
    let mut current_night: Option<(DeviceId, u32)> = None;

    let mut flush_night = |night: Option<(DeviceId, u32)>, night_bins: &mut Vec<(ApRef, u32)>| {
        let Some((device, _)) = night else {
            return;
        };
        for &(ap, count) in night_bins.iter() {
            if f64::from(count) >= HOME_COVERAGE * f64::from(NIGHT_WINDOW_BINS) {
                *nights_qualified.entry((device, ap)).or_default() += 1;
            }
        }
        night_bins.clear();
    };

    for (device, time, ap) in assoc_bins {
        total_bins[ap.index()] += 1;
        let hour = time.hour();
        if (11..17).contains(&hour) && !time.weekday(ds.meta.start).is_weekend() {
            office_window_bins[ap.index()] += 1;
        }
        // Night window: 22:00–24:00 belongs to tonight; 00:00–06:00 to
        // yesterday's night.
        let night_day = if hour >= 22 {
            Some(time.day())
        } else if hour < 6 {
            time.day().checked_sub(1)
        } else {
            None
        };
        if let Some(nd) = night_day {
            if current_night != Some((device, nd)) {
                flush_night(current_night, &mut night_bins);
                current_night = Some((device, nd));
            }
            match night_bins.iter_mut().find(|(a, _)| *a == ap) {
                Some((_, count)) => *count += 1,
                None => night_bins.push((ap, 1)),
            }
        }
    }
    flush_night(current_night, &mut night_bins);

    // Per device: home = pair with the most qualifying nights; equal
    // counts break to the smaller pair index so the winner never depends
    // on hash-map iteration order.
    let mut home_of: HashMap<DeviceId, ApRef> = HashMap::new();
    for (&(device, ap), &nights) in &nights_qualified {
        let better = match home_of.get(&device) {
            Some(&cur) => {
                let cur_nights = nights_qualified[&(device, cur)];
                nights > cur_nights || (nights == cur_nights && ap.0 < cur.0)
            }
            None => true,
        };
        if better {
            home_of.insert(device, ap);
        }
    }
    let home_pairs: HashSet<ApRef> = home_of.values().copied().collect();

    let mut class_of = vec![ApClass::Other; n_aps];
    let mut counts = ClassCounts::default();
    for (i, entry) in ds.aps.iter().enumerate() {
        let ap = ApRef(i as u32);
        if total_bins[i] == 0 {
            // Never associated (cannot appear in a cleaned dataset's AP
            // table, but be defensive).
            continue;
        }
        let class = if home_pairs.contains(&ap) {
            // FON-at-home exception: home wins over the public ESSID rule.
            ApClass::Home
        } else if is_public_essid(entry.essid.as_str()) {
            ApClass::Public
        } else if office_window_bins[i] as f64 / total_bins[i] as f64 >= OFFICE_SHARE {
            ApClass::Office
        } else {
            ApClass::Other
        };
        class_of[i] = class;
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

/// Precision/recall of the home heuristic against simulation ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct HomeInferenceScore {
    /// Devices whose inferred home matches a true home BSSID.
    pub true_positive: usize,
    /// Devices with an inferred home that is wrong (or who own none).
    pub false_positive: usize,
    /// Devices owning a home AP for which none was inferred.
    pub false_negative: usize,
}

impl HomeInferenceScore {
    /// Precision.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positive + self.false_positive;
        if denom == 0 {
            0.0
        } else {
            self.true_positive as f64 / denom as f64
        }
    }

    /// Recall.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positive + self.false_negative;
        if denom == 0 {
            0.0
        } else {
            self.true_positive as f64 / denom as f64
        }
    }
}

/// Score the home inference (requires ground truth; devices without truth
/// are skipped).
pub fn score_home_inference(ds: &Dataset, cls: &ApClassification) -> HomeInferenceScore {
    let mut score = HomeInferenceScore::default();
    for dev in &ds.devices {
        let Some(truth) = &dev.truth else {
            continue;
        };
        let inferred = cls.home_of.get(&dev.device);
        match (inferred, truth.home_bssids.is_empty()) {
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
    score
}

/// Breakdown of the number of associated pairs per user-day (Fig. 12): how
/// many user-days associated with 1, 2, 3, ≥4 distinct pairs, optionally
/// restricted to one traffic class.
///
/// One walk over the context's user-day runs; each run's associated pairs
/// are collected into a reused buffer, sorted and deduplicated.
pub fn aps_per_user_day(ctx: &AnalysisContext<'_>, class: Option<TrafficClass>) -> [u64; 4] {
    let mut out = [0u64; 4];
    let mut aps: Vec<ApRef> = Vec::new();
    for run in ctx.user_day_runs() {
        if class.is_some_and(|want| run.class != want) {
            continue;
        }
        distinct_assoc_aps(&ctx.cols, run.rows, &mut aps);
        if let Some(n) = aps.len().checked_sub(1) {
            out[n.min(3)] += 1;
        }
    }
    out
}

/// Table 5: breakdown of user-days by (home, public, other) ESSID-count
/// pattern. Keys are (h, p, o) with counts clamped at 4. Walks the
/// user-day runs like [`aps_per_user_day`].
pub fn hpo_breakdown(ctx: &AnalysisContext<'_>) -> HashMap<(u8, u8, u8), u64> {
    let (ds, cls) = (ctx.ds, &ctx.aps);
    let mut out: HashMap<(u8, u8, u8), u64> = HashMap::new();
    let mut aps: Vec<ApRef> = Vec::new();
    let mut seen_essids: Vec<(&str, ApClass)> = Vec::new();
    for run in ctx.user_day_runs() {
        distinct_assoc_aps(&ctx.cols, run.rows, &mut aps);
        if aps.is_empty() {
            continue;
        }
        let (mut h, mut p, mut o) = (0u8, 0u8, 0u8);
        // Distinct ESSIDs per class, per the paper's Table 5 wording.
        seen_essids.clear();
        for &ap in &aps {
            // A pair only counts as home for its own device; somebody
            // else's home AP is "other" from this device's perspective.
            let class = match cls.class(ap) {
                ApClass::Home if !cls.is_device_home(run.device, ap) => ApClass::Other,
                c => c,
            };
            let key = (ds.ap(ap).essid.as_str(), class);
            if seen_essids.contains(&key) {
                continue;
            }
            seen_essids.push(key);
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

/// The distinct associated pairs among `rows`, sorted, into `aps`.
fn distinct_assoc_aps(cols: &DatasetColumns, rows: Range<usize>, aps: &mut Vec<ApRef>) {
    aps.clear();
    aps.extend(rows.filter_map(|i| cols.assoc_ap_of(i)));
    aps.sort_unstable();
    aps.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    /// Build a dataset with explicit association patterns.
    struct Builder {
        ds: Dataset,
    }

    impl Builder {
        fn new(n_devices: u32, days: u32) -> Builder {
            Builder {
                ds: Dataset {
                    meta: CampaignMeta {
                        year: Year::Y2015,
                        start: Year::Y2015.campaign_start(),
                        days,
                        seed: 0,
                    },
                    devices: (0..n_devices)
                        .map(|i| DeviceInfo {
                            device: DeviceId(i),
                            os: Os::Android,
                            carrier: Carrier::A,
                            recruited: true,
                            survey: None,
                            truth: None,
                        })
                        .collect(),
                    aps: vec![],
                    bins: vec![],
                },
            }
        }

        fn ap(&mut self, essid: &str) -> ApRef {
            let r = ApRef(self.ds.aps.len() as u32);
            self.ds
                .aps
                .push(ApEntry { bssid: Bssid::from_u64(r.0 as u64 + 1), essid: Essid::new(essid) });
            r
        }

        fn assoc(&mut self, dev: u32, day: u32, bin: u32, ap: ApRef) {
            self.ds.bins.push(BinRecord {
                device: DeviceId(dev),
                time: SimTime::from_day_bin(day, bin),
                rx_3g: 0,
                tx_3g: 0,
                rx_lte: 0,
                tx_lte: 0,
                rx_wifi: 1000,
                tx_wifi: 100,
                wifi: WifiBinState::Associated(WifiAssoc {
                    ap,
                    band: Band::Ghz24,
                    channel: Channel(6),
                    rssi: Dbm::new(-55),
                }),
                scan: ScanSummary::default(),
                apps: vec![],
                geo: CellId::new(0, 0),
                os_version: OsVersion::new(4, 4),
            });
        }

        fn finish(mut self) -> Dataset {
            self.ds.bins.sort_by_key(|b| (b.device, b.time));
            self.ds
        }
    }

    /// Associate a device with `ap` for the full night window of `day`.
    fn full_night(b: &mut Builder, dev: u32, day: u32, ap: ApRef) {
        for bin in 132..144 {
            b.assoc(dev, day, bin, ap);
        }
        for bin in 0..36 {
            b.assoc(dev, day + 1, bin, ap);
        }
    }

    #[test]
    fn home_inferred_from_night_coverage() {
        let mut b = Builder::new(1, 5);
        let home = b.ap("aterm-aabbcc");
        full_night(&mut b, 0, 0, home);
        full_night(&mut b, 0, 2, home);
        let ds = b.finish();
        let cls = classify(&ds);
        assert_eq!(cls.home_of.get(&DeviceId(0)), Some(&home));
        assert_eq!(cls.class(home), ApClass::Home);
        assert_eq!(cls.counts.home, 1);
    }

    #[test]
    fn partial_night_is_not_home() {
        let mut b = Builder::new(1, 3);
        let ap = b.ap("aterm-aabbcc");
        // Only 20 of 48 night bins.
        for bin in 132..144 {
            b.assoc(0, 0, bin, ap);
        }
        for bin in 0..8 {
            b.assoc(0, 1, bin, ap);
        }
        let ds = b.finish();
        let cls = classify(&ds);
        assert!(cls.home_of.is_empty());
        assert_eq!(cls.counts.home, 0);
    }

    #[test]
    fn public_essid_classified_public() {
        let mut b = Builder::new(1, 2);
        let pub_ap = b.ap("0000carrier-a");
        b.assoc(0, 0, 70, pub_ap);
        b.assoc(0, 0, 71, pub_ap);
        let ds = b.finish();
        let cls = classify(&ds);
        assert_eq!(cls.class(pub_ap), ApClass::Public);
        assert_eq!(cls.counts.public, 1);
    }

    #[test]
    fn fon_at_home_is_home_not_public() {
        let mut b = Builder::new(1, 5);
        let fon = b.ap("FON_FREE_INTERNET");
        full_night(&mut b, 0, 0, fon);
        full_night(&mut b, 0, 1, fon);
        let ds = b.finish();
        let cls = classify(&ds);
        assert_eq!(cls.class(fon), ApClass::Home, "FON exception must apply");
        assert_eq!(cls.counts.public, 0);
    }

    #[test]
    fn office_window_rule() {
        let mut b = Builder::new(1, 5);
        let office = b.ap("corp-1234");
        // Day 2 of the 2015 campaign is a Monday. 11:00–17:00 = bins 66–102.
        for day in [2, 3, 4] {
            for bin in 66..102 {
                b.assoc(0, day, bin, office);
            }
        }
        let ds = b.finish();
        let cls = classify(&ds);
        assert_eq!(cls.class(office), ApClass::Office);
        assert_eq!(cls.counts.office, 1);
        // Office counts inside "other" for Table 4.
        assert_eq!(cls.counts.other, 1);
    }

    #[test]
    fn weekend_noon_is_not_office() {
        let mut b = Builder::new(1, 3);
        let ap = b.ap("cafe-guest-9");
        // Day 0 = Saturday: noon associations only.
        for bin in 66..102 {
            b.assoc(0, 0, bin, ap);
        }
        let ds = b.finish();
        let cls = classify(&ds);
        assert_eq!(cls.class(ap), ApClass::Other);
    }

    #[test]
    fn home_inference_scoring() {
        let mut b = Builder::new(2, 5);
        let home = b.ap("aterm-ffeedd");
        full_night(&mut b, 0, 0, home);
        full_night(&mut b, 0, 1, home);
        let mut ds = b.finish();
        // Device 0 truly owns that AP; device 1 owns one we never saw.
        ds.devices[0].truth =
            Some(GroundTruth { home_bssids: vec![ds.aps[0].bssid], ..GroundTruth::default() });
        ds.devices[1].truth =
            Some(GroundTruth { home_bssids: vec![Bssid::from_u64(999)], ..GroundTruth::default() });
        let cls = classify(&ds);
        let score = score_home_inference(&ds, &cls);
        assert_eq!(score.true_positive, 1);
        assert_eq!(score.false_negative, 1);
        assert_eq!(score.precision(), 1.0);
        assert_eq!(score.recall(), 0.5);
    }

    #[test]
    fn aps_per_day_histogram() {
        let mut b = Builder::new(2, 2);
        let a1 = b.ap("x1");
        let a2 = b.ap("x2");
        let a3 = b.ap("x3");
        b.assoc(0, 0, 10, a1);
        b.assoc(0, 0, 20, a2);
        b.assoc(0, 0, 30, a3);
        b.assoc(1, 0, 10, a1);
        b.assoc(1, 1, 10, a1);
        let ds = b.finish();
        let hist = aps_per_user_day(&AnalysisContext::new(&ds), None);
        assert_eq!(hist, [2, 0, 1, 0]); // two 1-AP days, one 3-AP day
    }

    #[test]
    fn hpo_patterns() {
        let mut b = Builder::new(1, 5);
        let home = b.ap("aterm-001122");
        let public = b.ap("0001carrier-c");
        full_night(&mut b, 0, 0, home);
        full_night(&mut b, 0, 1, home);
        b.assoc(0, 0, 80, public);
        let ds = b.finish();
        let hpo = hpo_breakdown(&AnalysisContext::new(&ds));
        // Day 0: home + public = (1, 1, 0).
        assert_eq!(hpo.get(&(1, 1, 0)), Some(&1));
        // Days 1/2: home only (night spillover into day 2).
        assert!(hpo.get(&(1, 0, 0)).copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn cols_variant_matches_rows() {
        let mut b = Builder::new(2, 5);
        let home = b.ap("aterm-aabbcc");
        let public = b.ap("0000carrier-a");
        full_night(&mut b, 0, 0, home);
        full_night(&mut b, 0, 2, home);
        b.assoc(1, 0, 70, public);
        b.assoc(1, 0, 71, public);
        let ds = b.finish();
        assert_eq!(classify(&ds), classify_cols(&ds, &DatasetColumns::build(&ds)));
    }

    #[test]
    fn someone_elses_home_counts_as_other() {
        let mut b = Builder::new(2, 5);
        let home0 = b.ap("aterm-0a0a0a");
        full_night(&mut b, 0, 0, home0);
        full_night(&mut b, 0, 1, home0);
        // Device 1 visits device 0's home AP one afternoon.
        b.assoc(1, 0, 90, home0);
        let ds = b.finish();
        let hpo = hpo_breakdown(&AnalysisContext::new(&ds));
        assert_eq!(hpo.get(&(0, 0, 1)), Some(&1), "visitor day should be O=1: {hpo:?}");
    }
}
