//! WiFi association durations (Fig. 13).
//!
//! Consecutive bins of one device on the same (BSSID, ESSID) pair form one
//! association spell; Fig. 13 plots the CCDF of spell durations (hours) by
//! venue class.

use crate::apclass::ApClass;
use crate::stats::ccdf_points;
use crate::AnalysisContext;
use mobitrace_model::BIN_MINUTES;
use serde::{Deserialize, Serialize};

/// Association spell durations in hours, by class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AssocDurations {
    /// Home spells.
    pub home: Vec<f64>,
    /// Public spells.
    pub public: Vec<f64>,
    /// Office spells.
    pub office: Vec<f64>,
    /// Other spells.
    pub other: Vec<f64>,
}

impl AssocDurations {
    /// CCDF points for a class's durations.
    pub fn ccdf(&self, class: ApClass) -> Vec<(f64, f64)> {
        ccdf_points(match class {
            ApClass::Home => &self.home,
            ApClass::Public => &self.public,
            ApClass::Office => &self.office,
            ApClass::Other => &self.other,
        })
    }

    /// The `p`-th percentile duration for a class.
    pub fn percentile(&self, class: ApClass, p: f64) -> f64 {
        let xs = match class {
            ApClass::Home => &self.home,
            ApClass::Public => &self.public,
            ApClass::Office => &self.office,
            ApClass::Other => &self.other,
        };
        crate::stats::percentile(xs, p)
    }
}

/// Extract all association spells by walking the associated rows: a
/// spell continues only into the next row when that row is associated too,
/// belongs to the same device, names the same AP and falls in the next
/// global bin. Every spell bin is one row, so its length is its row count.
pub fn association_durations(ctx: &AnalysisContext<'_>) -> AssocDurations {
    let (c, cls) = (&*ctx.cols, &ctx.aps);
    let sel = &c.sel_associated;
    let continues = |i: usize, j: usize| {
        j == i + 1
            && c.device[j] == c.device[i]
            && c.assoc_ap[j] == c.assoc_ap[i]
            && c.time[j].global_bin() == c.time[i].global_bin() + 1
    };
    let mut out = AssocDurations::default();
    let mut start = 0;
    for end in 1..=sel.len() {
        if end < sel.len() && continues(sel[end - 1] as usize, sel[end] as usize) {
            continue;
        }
        let hours = f64::from((end - start) as u32 * BIN_MINUTES) / 60.0;
        match cls.class(c.assoc_ap[sel[start] as usize]) {
            ApClass::Home => out.home.push(hours),
            ApClass::Public => out.public.push(hours),
            ApClass::Office => out.office.push(hours),
            ApClass::Other => out.other.push(hours),
        }
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn dataset(bins: Vec<BinRecord>, essids: Vec<&str>) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: vec![DeviceInfo {
                device: DeviceId(0),
                os: Os::Android,
                carrier: Carrier::A,
                recruited: true,
                survey: None,
                truth: None,
            }],
            aps: essids
                .into_iter()
                .enumerate()
                .map(|(i, e)| ApEntry {
                    bssid: Bssid::from_u64(i as u64 + 1),
                    essid: Essid::new(e),
                })
                .collect(),
            bins: DatasetColumns::build(&bins),
        }
    }

    fn bin(day: u32, b: u32, ap: Option<u32>) -> BinRecord {
        BinRecord {
            device: DeviceId(0),
            time: SimTime::from_day_bin(day, b),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 0,
            tx_lte: 0,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: match ap {
                Some(a) => WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(a),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-50),
                }),
                None => WifiBinState::OnUnassociated,
            },
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn contiguous_spell_duration() {
        // 6 consecutive bins on a public AP = 1 hour.
        let bins = (0..6).map(|b| bin(0, 60 + b, Some(0))).collect();
        let ds = dataset(bins, vec!["0000carrier-a"]);
        let d = association_durations(&AnalysisContext::new(&ds));
        assert_eq!(d.public, vec![1.0]);
        assert!(d.home.is_empty());
    }

    #[test]
    fn gap_splits_spell() {
        let mut bins: Vec<BinRecord> = (0..3).map(|b| bin(0, 60 + b, Some(0))).collect();
        bins.push(bin(0, 64, None)); // gap at bin 63 (missing) + unassoc 64
        bins.extend((65..67).map(|b| bin(0, b, Some(0))));
        let ds = dataset(bins, vec!["0000carrier-a"]);
        let d = association_durations(&AnalysisContext::new(&ds));
        assert_eq!(d.public.len(), 2);
        assert!((d.public[0] - 0.5).abs() < 1e-12);
        assert!((d.public[1] - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn unassociated_row_inside_a_bin_splits_spell() {
        // An unassociated sample at 10:05 sits between two associated
        // bins that are adjacent in time but not in rows.
        let mut off = bin(0, 60, None);
        off.time = SimTime::from_day_minute(0, 605);
        let bins = vec![bin(0, 60, Some(0)), off, bin(0, 61, Some(0))];
        let ds = dataset(bins, vec!["0000carrier-a"]);
        let d = association_durations(&AnalysisContext::new(&ds));
        assert_eq!(d.public, vec![1.0 / 6.0; 2]);
    }

    #[test]
    fn ap_switch_splits_spell() {
        let mut bins: Vec<BinRecord> = (0..3).map(|b| bin(0, 60 + b, Some(0))).collect();
        bins.extend((63..66).map(|b| bin(0, b, Some(1))));
        let ds = dataset(bins, vec!["0000carrier-a", "0001carrier-c"]);
        let d = association_durations(&AnalysisContext::new(&ds));
        assert_eq!(d.public.len(), 2);
    }

    #[test]
    fn overnight_home_spell_spans_days() {
        // 22:00 day0 → 06:00 day1 on a home-qualifying AP = 8 hours.
        let mut bins: Vec<BinRecord> =
            (132..144).map(|b| bin(0, 0, Some(0)).time_at(0, b)).collect();
        bins.extend((0..36).map(|b| bin(1, b, Some(0))));
        // Second night makes it home.
        bins.extend((132..144).map(|b| bin(1, b, Some(0))));
        bins.extend((0..36).map(|b| bin(2, b, Some(0))));
        let ds = dataset(bins, vec!["aterm-9f9f9f"]);
        let d = association_durations(&AnalysisContext::new(&ds));
        assert!(!d.home.is_empty());
        let max = d.home.iter().cloned().fold(0.0, f64::max);
        assert!((max - 8.0).abs() < 1e-9, "max home spell {max} h");
    }

    trait TimeAt {
        fn time_at(self, day: u32, b: u32) -> BinRecord;
    }
    impl TimeAt for BinRecord {
        fn time_at(mut self, day: u32, b: u32) -> BinRecord {
            self.time = SimTime::from_day_bin(day, b);
            self
        }
    }
}
