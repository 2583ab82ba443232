//! Per-user-day aggregates and the light/heavy user classification.
//!
//! The paper classifies *user-days*: "light users" are those whose daily
//! download ranks in the 40th–60th percentile, "heavy hitters" the top 5%
//! — and "one user may be a light user one day and heavy hitter on
//! another" (§2).

use mobitrace_model::{AllRows, Dataset, DatasetColumns, DeviceId, RowSet};
use serde::{Deserialize, Serialize};

/// Daily traffic of one device on one campaign day (bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserDay {
    /// Device.
    pub device: DeviceId,
    /// Campaign day.
    pub day: u32,
    /// 3G downlink.
    pub rx_3g: u64,
    /// 3G uplink.
    pub tx_3g: u64,
    /// LTE downlink.
    pub rx_lte: u64,
    /// LTE uplink.
    pub tx_lte: u64,
    /// WiFi downlink.
    pub rx_wifi: u64,
    /// WiFi uplink.
    pub tx_wifi: u64,
}

impl UserDay {
    /// Total cellular downlink.
    pub fn rx_cell(&self) -> u64 {
        self.rx_3g + self.rx_lte
    }

    /// Total cellular uplink.
    pub fn tx_cell(&self) -> u64 {
        self.tx_3g + self.tx_lte
    }

    /// Total downlink.
    pub fn rx_total(&self) -> u64 {
        self.rx_cell() + self.rx_wifi
    }

    /// Total uplink.
    pub fn tx_total(&self) -> u64 {
        self.tx_cell() + self.tx_wifi
    }
}

/// Columnar variant of [`user_days`]: identical output, but streams the
/// device/time/counter columns instead of pulling whole `BinRecord`s
/// (plus their app vectors) through cache.
pub fn user_days_cols(cols: &DatasetColumns) -> Vec<UserDay> {
    user_days_over(cols, &AllRows)
}

/// [`user_days_cols`] over the rows of `rows` only, read in place.
///
/// The set is segmented into maximal runs of one (device, day) — the same
/// grouping [`user_days`]'s `last_mut()` merge produces, including a fresh
/// entry for any non-consecutive repeat of a pair — and each run's six
/// counters reduce through [`RowSet::sum`] (lane-chunked slice sums over
/// all rows; integer addition is associative, so the totals are
/// bit-identical either way).
pub fn user_days_over(cols: &DatasetColumns, rows: &impl RowSet) -> Vec<UserDay> {
    let n = rows.len(cols);
    let mut out: Vec<UserDay> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let first = rows.row(start);
        let device = cols.device[first];
        let day = cols.time[first].day();
        let mut end = start + 1;
        while end < n {
            let i = rows.row(end);
            if cols.device[i] != device || cols.time[i].day() != day {
                break;
            }
            end += 1;
        }
        out.push(UserDay {
            device,
            day,
            rx_3g: rows.sum(&cols.rx_3g, start..end),
            tx_3g: rows.sum(&cols.tx_3g, start..end),
            rx_lte: rows.sum(&cols.rx_lte, start..end),
            tx_lte: rows.sum(&cols.tx_lte, start..end),
            rx_wifi: rows.sum(&cols.rx_wifi, start..end),
            tx_wifi: rows.sum(&cols.tx_wifi, start..end),
        });
        start = end;
    }
    out
}

/// Compute per-user-day aggregates (relies on the dataset's
/// (device, time) sort order). Days with zero bins do not appear.
/// Retained as the row-scan reference for [`user_days_cols`].
pub fn user_days(ds: &Dataset) -> Vec<UserDay> {
    let mut out: Vec<UserDay> = Vec::new();
    for b in &ds.bins {
        let day = b.time.day();
        match out.last_mut() {
            Some(last) if last.device == b.device && last.day == day => {
                last.rx_3g += b.rx_3g;
                last.tx_3g += b.tx_3g;
                last.rx_lte += b.rx_lte;
                last.tx_lte += b.tx_lte;
                last.rx_wifi += b.rx_wifi;
                last.tx_wifi += b.tx_wifi;
            }
            _ => out.push(UserDay {
                device: b.device,
                day,
                rx_3g: b.rx_3g,
                tx_3g: b.tx_3g,
                rx_lte: b.rx_lte,
                tx_lte: b.tx_lte,
                rx_wifi: b.rx_wifi,
                tx_wifi: b.tx_wifi,
            }),
        }
    }
    out
}

/// User-day traffic class per the paper's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Daily download in the 40th–60th percentile.
    Light,
    /// Daily download strictly above the 95th percentile (top 5%).
    Heavy,
    /// Everything else.
    Middle,
}

/// Classify every user-day by its daily download volume percentile.
/// Returns per-user-day classes parallel to `days`, plus the
/// (40th, 60th, 95th) percentile thresholds in bytes.
pub fn classify_user_days(days: &[UserDay]) -> (Vec<TrafficClass>, (f64, f64, f64)) {
    let volumes: Vec<f64> = days.iter().map(|d| d.rx_total() as f64).collect();
    let mut sorted = volumes.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let p40 = crate::stats::percentile_sorted(&sorted, 40.0);
    let p60 = crate::stats::percentile_sorted(&sorted, 60.0);
    let p95 = crate::stats::percentile_sorted(&sorted, 95.0);
    let classes = volumes
        .iter()
        .map(|&v| {
            if v > p95 {
                TrafficClass::Heavy
            } else if (p40..=p60).contains(&v) {
                TrafficClass::Light
            } else {
                TrafficClass::Middle
            }
        })
        .collect();
    (classes, (p40, p60, p95))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn dataset_with_bins(n_dev: u32, bins: Vec<BinRecord>) -> Dataset {
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2015,
                start: Year::Y2015.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: (0..n_dev)
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
            bins,
        }
    }

    fn bin(dev: u32, day: u32, b: u32, wifi: u64, lte: u64) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, b),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: lte,
            tx_lte: lte / 5,
            rx_wifi: wifi,
            tx_wifi: wifi / 5,
            wifi: WifiBinState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn aggregation_sums_per_day() {
        let ds = dataset_with_bins(
            2,
            vec![
                bin(0, 0, 0, 100, 10),
                bin(0, 0, 5, 200, 20),
                bin(0, 1, 0, 50, 5),
                bin(1, 0, 0, 7, 3),
            ],
        );
        let days = user_days(&ds);
        assert_eq!(days, user_days_cols(&DatasetColumns::build(&ds)));
        assert_eq!(days.len(), 3);
        assert_eq!(days[0].rx_wifi, 300);
        assert_eq!(days[0].rx_lte, 30);
        assert_eq!(days[0].rx_total(), 330);
        assert_eq!(days[1].day, 1);
        assert_eq!(days[2].device, DeviceId(1));
    }

    #[test]
    fn classification_thresholds() {
        // 100 user-days with volumes 1..=100 MB.
        let bins: Vec<BinRecord> =
            (0..100).map(|i| bin(i, 0, 0, (i as u64 + 1) * 1_000_000, 0)).collect();
        let ds = dataset_with_bins(100, bins);
        let days = user_days(&ds);
        let (classes, (p40, p60, p95)) = classify_user_days(&days);
        assert!(p40 < p60 && p60 < p95);
        let heavy = classes.iter().filter(|c| **c == TrafficClass::Heavy).count();
        let light = classes.iter().filter(|c| **c == TrafficClass::Light).count();
        // Top 5% of 100 ≈ 5–6 days; light band ≈ 20.
        assert!((5..=7).contains(&heavy), "heavy {heavy}");
        assert!((19..=22).contains(&light), "light {light}");
    }

    #[test]
    fn same_user_can_switch_classes() {
        let mut bins = vec![bin(0, 0, 0, 1_000_000_000, 0), bin(0, 1, 0, 50_000_000, 0)];
        for i in 1..50 {
            bins.push(bin(i, 0, 0, 50_000_000, 0));
        }
        bins.sort_by_key(|b| (b.device, b.time));
        let ds = dataset_with_bins(50, bins);
        let days = user_days(&ds);
        let (classes, _) = classify_user_days(&days);
        let dev0: Vec<TrafficClass> = days
            .iter()
            .zip(&classes)
            .filter(|(d, _)| d.device == DeviceId(0))
            .map(|(_, c)| *c)
            .collect();
        assert_eq!(dev0[0], TrafficClass::Heavy);
        assert_ne!(dev0[1], TrafficClass::Heavy);
    }
}
