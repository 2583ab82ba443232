//! iOS software-update timing (Fig. 18, §3.7).
//!
//! Run on a dataset cleaned *without* update-day removal. An update is the
//! first bin where a device reports `os_version ≥ 8.2` after previously
//! reporting an older version.

use crate::apclass::{ApClass, ApClassification};
use crate::stats::cdf_points;
use mobitrace_model::{Dataset, DeviceId, Os, OsVersion, SimTime, WifiTag};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One device's detected update.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectedUpdate {
    /// Device.
    pub device: DeviceId,
    /// First bin on the new version.
    pub at: SimTime,
    /// Did the device have an inferred home AP?
    pub has_home_ap: bool,
    /// Venue class carrying the most WiFi volume on the update day.
    pub via: Option<ApClass>,
}

/// Fig. 18 analysis output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct UpdateAnalysis {
    /// All detected updates.
    pub updates: Vec<DetectedUpdate>,
    /// iOS devices observed before the release.
    pub ios_devices: usize,
    /// Share of iOS devices updated within the window.
    pub adoption: f64,
    /// Adoption among devices with / without an inferred home AP.
    pub adoption_home: f64,
    /// Adoption among devices without a home AP (the paper: 14%).
    pub adoption_no_home: f64,
    /// iOS devices with an inferred home AP (denominator of
    /// `adoption_home`).
    pub n_home: usize,
    /// iOS devices without one (denominator of `adoption_no_home`).
    pub n_no_home: usize,
    /// Median update day (days since release) with / without home AP.
    pub median_delay_home: f64,
    /// Median delay without home AP.
    pub median_delay_no_home: f64,
    /// Of updaters without home APs: how many went via public / office
    /// WiFi.
    pub no_home_via: (usize, usize),
}

impl UpdateAnalysis {
    /// CDF of update times (days since release), optionally home-AP-less
    /// devices only.
    pub fn timing_cdf(&self, release_day: u32, no_home_only: bool) -> Vec<(f64, f64)> {
        let days: Vec<f64> = self
            .updates
            .iter()
            .filter(|u| !no_home_only || !u.has_home_ap)
            .map(|u| f64::from(u.at.minute) / 1440.0 - f64::from(release_day))
            .collect();
        cdf_points(&days)
    }
}

/// Fixed class order for the update-day volume argmax: ties break towards
/// the front so the winner never depends on hash-map iteration order.
const VIA_ORDER: [ApClass; 4] = [ApClass::Home, ApClass::Public, ApClass::Office, ApClass::Other];

/// Detect updates and compute Fig. 18's statistics.
///
/// Finds each iOS device's rows by binary search on the sorted device
/// column (skipping Android devices wholesale), scans their OS-version
/// column once, and finds the update day's rows by binary search on the
/// time column — no index is built or needed.
pub fn update_analysis(ds: &Dataset, cls: &ApClassification, release_day: u32) -> UpdateAnalysis {
    let mut out = UpdateAnalysis::default();
    let c = &ds.bins;
    // Device → (first bin on the new version, carrying venue class).
    let mut detected: HashMap<DeviceId, (SimTime, Option<ApClass>)> = HashMap::new();
    for dev in &ds.devices {
        if dev.os != Os::Ios {
            continue;
        }
        let rows = ds.device_rows(dev.device);
        // The last pre-8.2 → ≥ 8.2 step of the device.
        let Some(at) = c.os_version[rows.clone()]
            .windows(2)
            .rposition(|w| w[0] < OsVersion::IOS_8_2 && w[1] >= OsVersion::IOS_8_2)
            .map(|k| c.time[rows.start + k + 1])
        else {
            continue;
        };
        // WiFi volume per class on the update day; `None` = never
        // associated that day.
        let mut volumes: [Option<u64>; 4] = [None; 4];
        let time = &c.time[rows.clone()];
        let day = rows.start + time.partition_point(|t| t.day() < at.day())
            ..rows.start + time.partition_point(|t| t.day() <= at.day());
        for i in day.filter(|&i| c.wifi_tag[i] == WifiTag::Associated) {
            let k = VIA_ORDER
                .iter()
                .position(|&class| class == cls.class(c.assoc_ap[i]))
                .expect("class in order");
            *volumes[k].get_or_insert(0) += c.rx_wifi[i];
        }
        let mut via: Option<ApClass> = None;
        let mut best = 0u64;
        for (k, v) in volumes.iter().enumerate() {
            if let Some(v) = *v {
                if via.is_none() || v > best {
                    via = Some(VIA_ORDER[k]);
                    best = v;
                }
            }
        }
        detected.insert(dev.device, (at, via));
    }

    let ios_devices = ds.devices.iter().filter(|d| d.os == Os::Ios).count();
    out.ios_devices = ios_devices;

    let mut delays_home = Vec::new();
    let mut delays_no_home = Vec::new();
    let (mut n_home, mut n_no_home) = (0usize, 0usize);
    for dev in &ds.devices {
        if dev.os != Os::Ios {
            continue;
        }
        let has_home_ap = cls.home_of.contains_key(&dev.device);
        if has_home_ap {
            n_home += 1;
        } else {
            n_no_home += 1;
        }
        if let Some(&(at, via)) = detected.get(&dev.device) {
            out.updates.push(DetectedUpdate { device: dev.device, at, has_home_ap, via });
            let delay = f64::from(at.minute) / 1440.0 - f64::from(release_day);
            if has_home_ap {
                delays_home.push(delay);
            } else {
                delays_no_home.push(delay);
            }
        }
    }

    out.adoption =
        if ios_devices > 0 { out.updates.len() as f64 / ios_devices as f64 } else { 0.0 };
    out.adoption_home = if n_home > 0 { delays_home.len() as f64 / n_home as f64 } else { 0.0 };
    out.adoption_no_home =
        if n_no_home > 0 { delays_no_home.len() as f64 / n_no_home as f64 } else { 0.0 };
    out.n_home = n_home;
    out.n_no_home = n_no_home;
    out.median_delay_home = crate::stats::median(&delays_home);
    out.median_delay_no_home = crate::stats::median(&delays_no_home);
    out.no_home_via = (
        out.updates.iter().filter(|u| !u.has_home_ap && u.via == Some(ApClass::Public)).count(),
        out.updates
            .iter()
            .filter(|u| !u.has_home_ap && matches!(u.via, Some(ApClass::Office)))
            .count(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn bin(dev: u32, day: u32, b: u32, version: OsVersion, ap: Option<u32>) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, b),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 0,
            tx_lte: 0,
            rx_wifi: if ap.is_some() { 1_000_000 } else { 0 },
            tx_wifi: 0,
            wifi: match ap {
                Some(a) => WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(a),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-60),
                }),
                None => WifiBinState::Off,
            },
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: version,
        }
    }

    fn dataset(bins: Vec<BinRecord>, n_dev: u32) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2015,
                start: Year::Y2015.campaign_start(),
                days: 25,
                seed: 0,
            },
            devices: (0..n_dev)
                .map(|i| DeviceInfo {
                    device: DeviceId(i),
                    os: Os::Ios,
                    carrier: Carrier::A,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: vec![ApEntry { bssid: Bssid::from_u64(9), essid: Essid::new("0000carrier-a") }],
            bins: DatasetColumns::build(&bins),
        }
    }

    #[test]
    fn detects_version_transition() {
        let old = OsVersion::new(8, 1);
        let new = OsVersion::IOS_8_2;
        let bins = vec![
            bin(0, 9, 10, old, None),
            bin(0, 12, 10, new, Some(0)),
            bin(0, 13, 10, new, None),
            // Device 1 never updates.
            bin(1, 9, 10, old, None),
            bin(1, 20, 10, old, None),
        ];
        let ds = dataset(bins, 2);
        let cls = crate::apclass::classify(&ds);
        let a = update_analysis(&ds, &cls, 10);
        assert_eq!(a.updates.len(), 1);
        assert_eq!(a.updates[0].at.day(), 12);
        assert!((a.adoption - 0.5).abs() < 1e-12);
        // Updated via the public AP that carried the day's WiFi volume.
        assert_eq!(a.updates[0].via, Some(ApClass::Public));
        assert_eq!(a.no_home_via.0, 1);
    }

    #[test]
    fn already_new_devices_are_not_updates() {
        let bins =
            vec![bin(0, 9, 10, OsVersion::IOS_8_2, None), bin(0, 12, 10, OsVersion::IOS_8_2, None)];
        let ds = dataset(bins, 1);
        let cls = crate::apclass::classify(&ds);
        let a = update_analysis(&ds, &cls, 10);
        assert!(a.updates.is_empty());
    }

    #[test]
    fn timing_cdf_in_days_since_release() {
        let old = OsVersion::new(8, 1);
        let bins = vec![
            bin(0, 9, 0, old, None),
            bin(0, 11, 0, OsVersion::IOS_8_2, None), // +1 day
            bin(1, 9, 0, old, None),
            bin(1, 14, 0, OsVersion::IOS_8_2, None), // +4 days
        ];
        let ds = dataset(bins, 2);
        let cls = crate::apclass::classify(&ds);
        let a = update_analysis(&ds, &cls, 10);
        let cdf = a.timing_cdf(10, false);
        assert_eq!(cdf.len(), 2);
        assert!((cdf[0].0 - 1.0).abs() < 1e-9);
        assert!((cdf[1].0 - 4.0).abs() < 1e-9);
    }
}
