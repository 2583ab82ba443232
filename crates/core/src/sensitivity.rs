//! Sensitivity of the home-AP heuristic to its 70% night-coverage
//! threshold — an ablation only possible with ground truth.
//!
//! The paper fixes "at least 70% of the time between 10pm and 6am" without
//! justification. Sweeping the threshold against the simulator's ground
//! truth shows the precision/recall trade-off around that choice.

use crate::apclass::HomeInferenceScore;
use mobitrace_model::{ApRef, Dataset, DeviceId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One point of the threshold sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Night-coverage threshold (fraction of the 48-bin window).
    pub threshold: f64,
    /// Share of devices with an inferred home at this threshold.
    pub inferred_share: f64,
    /// Score against ground truth.
    pub score: HomeInferenceScore,
}

/// Sweep the home-rule coverage threshold. Returns one point per
/// threshold, computed from a single pass over the dataset.
pub fn home_rule_sweep(ds: &Dataset, thresholds: &[f64]) -> Vec<SweepPoint> {
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
                    Some(&cur) => n > nights[&(dev, cur)],
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

/// The default sweep grid around the paper's 0.7.
pub fn default_thresholds() -> Vec<f64> {
    vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn dataset_with_coverage(night_bins: u32) -> Dataset {
        let mut bins = Vec::new();
        // `night_bins` bins of night coverage on day 0's night.
        for k in 0..night_bins.min(12) {
            bins.push(mk(0, 132 + k));
        }
        for k in 0..night_bins.saturating_sub(12).min(36) {
            bins.push(mk(1, k));
        }
        bins.sort_by_key(|b| (b.device, b.time));
        let mut ds = Dataset {
            meta: CampaignMeta {
                year: Year::Y2015,
                start: Year::Y2015.campaign_start(),
                days: 3,
                seed: 0,
            },
            devices: vec![DeviceInfo {
                device: DeviceId(0),
                os: Os::Android,
                carrier: Carrier::A,
                recruited: true,
                survey: None,
                truth: Some(GroundTruth {
                    home_bssids: vec![Bssid::from_u64(1)],
                    ..GroundTruth::default()
                }),
            }],
            aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("aterm-x") }],
            bins,
        };
        ds.bins.dedup_by_key(|b| (b.device, b.time));
        ds
    }

    fn mk(day: u32, bin: u32) -> BinRecord {
        BinRecord {
            device: DeviceId(0),
            time: SimTime::from_day_bin(day, bin),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 0,
            tx_lte: 0,
            rx_wifi: 100,
            tx_wifi: 10,
            wifi: WifiBinState::Associated(WifiAssoc {
                ap: ApRef(0),
                band: Band::Ghz24,
                channel: Channel(6),
                rssi: Dbm::new(-55),
            }),
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn lower_threshold_recalls_more() {
        // 50% coverage: inferred at 0.4, missed at 0.7.
        let ds = dataset_with_coverage(24);
        let sweep = home_rule_sweep(&ds, &[0.4, 0.7]);
        assert_eq!(sweep[0].score.true_positive, 1);
        assert_eq!(sweep[1].score.true_positive, 0);
        assert_eq!(sweep[1].score.false_negative, 1);
        assert!(sweep[0].inferred_share > sweep[1].inferred_share);
    }

    #[test]
    fn recall_monotone_in_threshold() {
        let ds = dataset_with_coverage(40);
        let sweep = home_rule_sweep(&ds, &default_thresholds());
        for w in sweep.windows(2) {
            assert!(w[0].score.recall() >= w[1].score.recall() - 1e-12);
        }
    }
}
