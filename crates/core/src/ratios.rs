//! WiFi-traffic ratio and WiFi-user ratio (Figs. 6–8).
//!
//! - *WiFi-traffic ratio*: WiFi download volume ÷ total download volume in
//!   one-hour bins over the week;
//! - *WiFi-user ratio*: share of devices associated to WiFi per time bin.
//!
//! Both come plain (Fig. 6) and split into heavy hitters vs light users
//! (Figs. 7–8) using the user-day classification.

use crate::ctx::AnalysisContext;
use crate::daily::TrafficClass;
use crate::timeseries::WEEK_HOURS;
use mobitrace_model::BinRecord;
use serde::{Deserialize, Serialize};

/// A weekly hourly ratio series plus its mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RatioSeries {
    /// Ratio per hour-of-week slot (NaN-free; empty slots are 0).
    pub ratio: Vec<f64>,
    /// Volume/user-weighted mean over all slots.
    pub mean: f64,
}

fn finish(num: Vec<f64>, den: Vec<f64>) -> RatioSeries {
    let ratio: Vec<f64> =
        num.iter().zip(&den).map(|(&n, &d)| if d > 0.0 { n / d } else { 0.0 }).collect();
    let total_n: f64 = num.iter().sum();
    let total_d: f64 = den.iter().sum();
    RatioSeries { ratio, mean: if total_d > 0.0 { total_n / total_d } else { 0.0 } }
}

/// Which user-days contribute to a ratio series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassFilter {
    /// All user-days.
    All,
    /// Only a given traffic class.
    Only(TrafficClass),
}

impl ClassFilter {
    fn admits(self, c: Option<TrafficClass>) -> bool {
        match self {
            ClassFilter::All => true,
            ClassFilter::Only(want) => c == Some(want),
        }
    }
}

/// WiFi-traffic ratio per hour of week (Figs. 6a, 7). Walks the
/// user-day runs, skipping filtered-out runs wholesale, and streams the
/// time column and two counters of the admitted rows.
pub fn wifi_traffic_ratio(ctx: &AnalysisContext<'_>, filter: ClassFilter) -> RatioSeries {
    let cols = &ctx.cols;
    let mut wifi = vec![0.0; WEEK_HOURS];
    let mut total = vec![0.0; WEEK_HOURS];
    for run in ctx.user_day_runs().filter(|r| filter.admits(Some(r.class))) {
        let week_day = (run.day % 7) * 24;
        for i in run.rows {
            let slot = (week_day + cols.time[i].hour()) as usize;
            wifi[slot] += cols.rx_wifi[i] as f64;
            total[slot] += cols.rx_total(i) as f64;
        }
    }
    finish(wifi, total)
}

/// Row-scan reference for [`wifi_traffic_ratio`] (kept for equivalence
/// tests and benchmarks).
pub fn wifi_traffic_ratio_rows(
    ctx: &AnalysisContext<'_>,
    bins: &[BinRecord],
    filter: ClassFilter,
) -> RatioSeries {
    let mut wifi = vec![0.0; WEEK_HOURS];
    let mut total = vec![0.0; WEEK_HOURS];
    for b in bins {
        if !filter.admits(ctx.class_of(b.device, b.time.day())) {
            continue;
        }
        let slot = ((b.time.day() % 7) * 24 + b.time.hour()) as usize;
        wifi[slot] += b.rx_wifi as f64;
        total[slot] += b.rx_total() as f64;
    }
    finish(wifi, total)
}

/// WiFi-user ratio per hour of week (Figs. 6b, 8): among devices observed
/// in a slot, the share with at least one WiFi association.
pub fn wifi_user_ratio(ctx: &AnalysisContext<'_>, filter: ClassFilter) -> RatioSeries {
    // Count distinct (device, slot-instance) pairs. One device appears
    // once per hour: 6 bins — it counts as a WiFi user if any of them is
    // associated. An admitted user-day run is time-ordered, so each of
    // its hours is one adjacent group of rows; only the time column and
    // the one-byte WiFi tag are read.
    let cols = &ctx.cols;
    let mut users = vec![0.0; WEEK_HOURS];
    let mut wifi_users = vec![0.0; WEEK_HOURS];
    for run in ctx.user_day_runs().filter(|r| filter.admits(Some(r.class))) {
        let week_day = (run.day % 7) * 24;
        let mut i = run.rows.start;
        while i < run.rows.end {
            let hour = cols.time[i].hour();
            let mut assoc = false;
            while i < run.rows.end && cols.time[i].hour() == hour {
                assoc |= cols.wifi_tag[i] == mobitrace_model::WifiTag::Associated;
                i += 1;
            }
            let slot = (week_day + hour) as usize;
            users[slot] += 1.0;
            if assoc {
                wifi_users[slot] += 1.0;
            }
        }
    }
    finish(wifi_users, users)
}

/// Row-scan reference for [`wifi_user_ratio`] (kept for equivalence tests
/// and benchmarks).
pub fn wifi_user_ratio_rows(
    ctx: &AnalysisContext<'_>,
    bins: &[BinRecord],
    filter: ClassFilter,
) -> RatioSeries {
    let mut users = vec![0.0; WEEK_HOURS];
    let mut wifi_users = vec![0.0; WEEK_HOURS];
    let mut current: Option<(mobitrace_model::DeviceId, u32, bool, usize, bool)> = None;
    let mut flush = |c: Option<(mobitrace_model::DeviceId, u32, bool, usize, bool)>| {
        if let Some((_, _, assoc, slot, admitted)) = c {
            if admitted {
                users[slot] += 1.0;
                if assoc {
                    wifi_users[slot] += 1.0;
                }
            }
        }
    };
    for b in bins {
        let abs_hour = b.time.minute / 60;
        let slot = ((b.time.day() % 7) * 24 + b.time.hour()) as usize;
        let assoc = b.wifi.assoc().is_some();
        match &mut current {
            Some((dev, hour, acc_assoc, _, _)) if *dev == b.device && *hour == abs_hour => {
                *acc_assoc |= assoc;
            }
            other => {
                let admitted = filter.admits(ctx.class_of(b.device, b.time.day()));
                flush(other.take());
                current = Some((b.device, abs_hour, assoc, slot, admitted));
            }
        }
    }
    flush(current.take());
    finish(wifi_users, users)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn dataset(n: u32, bins: Vec<BinRecord>) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 7,
                seed: 0,
            },
            devices: (0..n)
                .map(|i| DeviceInfo {
                    device: DeviceId(i),
                    os: Os::Android,
                    carrier: Carrier::A,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("x") }],
            bins: DatasetColumns::build(&bins),
        }
    }

    fn bin(dev: u32, day: u32, hour: u32, wifi: u64, cell: u64, assoc: bool) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_minute(day, hour * 60),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: cell,
            tx_lte: 0,
            rx_wifi: wifi,
            tx_wifi: 0,
            wifi: if assoc {
                WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(0),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-50),
                })
            } else {
                WifiBinState::OnUnassociated
            },
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn traffic_ratio_per_slot() {
        let ds = dataset(
            2,
            vec![
                bin(0, 0, 10, 300, 100, true),
                bin(1, 0, 10, 100, 300, false),
                bin(0, 0, 20, 0, 500, false),
            ],
        );
        let ctx = AnalysisContext::new(&ds);
        let r = wifi_traffic_ratio(&ctx, ClassFilter::All);
        assert_eq!(r, wifi_traffic_ratio_rows(&ctx, &ds.bins.to_bins(), ClassFilter::All));
        assert!((r.ratio[10] - 0.5).abs() < 1e-12); // 400/800
        assert_eq!(r.ratio[20], 0.0);
        // Mean = 400 / 1300.
        assert!((r.mean - 400.0 / 1300.0).abs() < 1e-12);
    }

    #[test]
    fn user_ratio_counts_devices_once_per_hour() {
        let ds = dataset(
            2,
            vec![
                // Device 0: two bins in hour 10, one associated.
                bin(0, 0, 10, 0, 10, false),
                {
                    let mut b = bin(0, 0, 10, 0, 10, true);
                    b.time = SimTime::from_day_minute(0, 10 * 60 + 10);
                    b
                },
                // Device 1: hour 10, never associated.
                bin(1, 0, 10, 0, 10, false),
            ],
        );
        let ctx = AnalysisContext::new(&ds);
        let r = wifi_user_ratio(&ctx, ClassFilter::All);
        assert_eq!(r, wifi_user_ratio_rows(&ctx, &ds.bins.to_bins(), ClassFilter::All));
        assert!((r.ratio[10] - 0.5).abs() < 1e-12, "{}", r.ratio[10]);
    }

    #[test]
    fn class_filter_restricts() {
        // 30 light-ish devices, one heavy device with huge traffic.
        let mut bins = Vec::new();
        for dev in 0..30 {
            bins.push(bin(dev, 0, 10, 1_000_000, 1_000_000, false));
        }
        bins.push(bin(30, 0, 10, 900_000_000, 100_000_000, true));
        let ds = dataset(31, bins);
        let ctx = AnalysisContext::new(&ds);
        let heavy = wifi_traffic_ratio(&ctx, ClassFilter::Only(TrafficClass::Heavy));
        assert!((heavy.ratio[10] - 0.9).abs() < 1e-9, "{}", heavy.ratio[10]);
        let all = wifi_traffic_ratio(&ctx, ClassFilter::All);
        assert!(all.ratio[10] < 0.9);
    }
}
