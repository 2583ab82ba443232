//! WiFi interface-state ratios (Fig. 9, §3.3.4).
//!
//! Android devices report interface state explicitly, so for each weekly
//! hour slot the population splits into *WiFi users* (associated),
//! *WiFi-off* (interface disabled) and *WiFi-available* (enabled,
//! unassociated). iOS reports only associations, so just the WiFi-user
//! curve exists.

use crate::timeseries::WEEK_HOURS;
use crate::AnalysisContext;
use mobitrace_model::{Os, WifiTag};
use serde::{Deserialize, Serialize};

/// Fig. 9 ratio curves for one OS population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WifiStateSeries {
    /// Share of devices associated to WiFi.
    pub user: Vec<f64>,
    /// Share with the interface explicitly off (Android only; zeros for
    /// iOS).
    pub off: Vec<f64>,
    /// Share enabled but unassociated (Android only).
    pub available: Vec<f64>,
    /// Means over all slots: (user, off, available).
    pub means: (f64, f64, f64),
}

/// Compute the Fig. 9 curves for one OS: the OS is resolved once per
/// device, then each of its day spans is tallied by weekly slot and state.
pub fn wifi_state_series(ctx: &AnalysisContext<'_>, os: Os) -> WifiStateSeries {
    let (c, index) = (&*ctx.cols, &*ctx.index);
    let mut by_tag = [[0u64; WEEK_HOURS]; 3];
    for dev in index.devices_with_bins().filter(|&d| ctx.ds.device(d).os == os) {
        for (day, rows) in index.day_spans(dev) {
            let week_day = (day % 7) * 24;
            for i in rows {
                by_tag[c.wifi_tag[i] as usize][(week_day + c.time[i].hour()) as usize] += 1;
            }
        }
    }
    let [off, avail, user] =
        [WifiTag::Off, WifiTag::OnUnassociated, WifiTag::Associated].map(|t| by_tag[t as usize]);
    let total: Vec<u64> = (0..WEEK_HOURS).map(|s| off[s] + avail[s] + user[s]).collect();
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

/// The business-hours (10:00–18:00 weekday) mean of a weekly curve — the
/// paper's "50% of Android users explicitly turn off WiFi during the day".
pub fn business_hours_mean(curve: &[f64]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for day in 0..7u32 {
        // Campaigns start Saturday: days 2–6 of the week are Mon–Fri.
        if day < 2 {
            continue;
        }
        for hour in 10..18 {
            sum += curve[(day * 24 + hour) as usize];
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn dataset(bins: Vec<BinRecord>, oses: Vec<Os>) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 7,
                seed: 0,
            },
            devices: oses
                .into_iter()
                .enumerate()
                .map(|(i, os)| DeviceInfo {
                    device: DeviceId(i as u32),
                    os,
                    carrier: Carrier::A,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("x") }],
            bins,
        }
    }

    fn bin(dev: u32, hour: u32, state: WifiBinState) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_minute(2, hour * 60), // day 2 = Monday
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 0,
            tx_lte: 0,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: state,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    fn assoc() -> WifiBinState {
        WifiBinState::Associated(WifiAssoc {
            ap: ApRef(0),
            band: Band::Ghz24,
            channel: Channel(1),
            rssi: Dbm::new(-50),
        })
    }

    #[test]
    fn three_way_split() {
        let ds = dataset(
            vec![
                bin(0, 12, WifiBinState::Off),
                bin(1, 12, WifiBinState::OnUnassociated),
                bin(2, 12, assoc()),
                bin(3, 12, assoc()),
            ],
            vec![Os::Android; 4],
        );
        let s = wifi_state_series(&AnalysisContext::new(&ds), Os::Android);
        let slot = (2 * 24 + 12) as usize;
        assert!((s.user[slot] - 0.5).abs() < 1e-12);
        assert!((s.off[slot] - 0.25).abs() < 1e-12);
        assert!((s.available[slot] - 0.25).abs() < 1e-12);
        let (u, o, a) = s.means;
        assert!((u + o + a - 1.0).abs() < 1e-12);
    }

    #[test]
    fn os_filter() {
        let ds = dataset(
            vec![bin(0, 12, assoc()), bin(1, 12, WifiBinState::Off)],
            vec![Os::Android, Os::Ios],
        );
        let ctx = AnalysisContext::new(&ds);
        let android = wifi_state_series(&ctx, Os::Android);
        let slot = (2 * 24 + 12) as usize;
        assert_eq!(android.user[slot], 1.0);
        let ios = wifi_state_series(&ctx, Os::Ios);
        assert_eq!(ios.off[slot], 1.0);
    }

    #[test]
    fn business_hours_window() {
        let mut curve = vec![0.0; WEEK_HOURS];
        // Monday 10:00–17:00 = slots 2*24+10 .. 2*24+18 set to 1.
        for hour in 10..18 {
            curve[(2 * 24 + hour) as usize] = 1.0;
        }
        // 8 of 40 business-hour slots are 1.
        assert!((business_hours_mean(&curve) - 0.2).abs() < 1e-12);
        // Weekend slots are excluded entirely.
        let mut weekend = vec![0.0; WEEK_HOURS];
        for hour in 10..18 {
            weekend[hour as usize] = 1.0; // day 0 = Saturday
        }
        assert_eq!(business_hours_mean(&weekend), 0.0);
    }
}
