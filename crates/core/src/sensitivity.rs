//! Sensitivity of the home-AP heuristic to its 70% night-coverage
//! threshold — an ablation only possible with ground truth.
//!
//! The paper fixes "at least 70% of the time between 10pm and 6am" without
//! justification. Sweeping the threshold against the simulator's ground
//! truth shows the precision/recall trade-off around that choice.

use crate::apclass::HomeInferenceScore;
use crate::AnalysisContext;
use mobitrace_model::{ApRef, DeviceId};
use serde::{Deserialize, Serialize};

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
/// threshold, computed from a single pass over the associated rows. At
/// each threshold a device's home is the pair with the most qualifying
/// nights, ties going to the smaller [`ApRef`].
pub fn home_rule_sweep(ctx: &AnalysisContext<'_>, thresholds: &[f64]) -> Vec<SweepPoint> {
    let (c, ds) = (&*ctx.cols, ctx.ds);
    // Per-(pair, night) coverage counts, sorted by pair then night within
    // each device; `device_end` closes each device's slice.
    let mut cover: Vec<(ApRef, u32, u32)> = Vec::new();
    let mut device_end: Vec<(DeviceId, usize)> = Vec::new();
    let mut night_rows: Vec<(ApRef, u32)> = Vec::new();
    for dev in ctx.index.devices_with_bins() {
        night_rows.clear();
        for &i in ctx.associated_rows(ctx.index.device_range(dev)) {
            let t = c.time[i as usize];
            let h = t.hour();
            let night_day = if h >= 22 {
                Some(t.day())
            } else if h < 6 {
                t.day().checked_sub(1)
            } else {
                None
            };
            if let Some(nd) = night_day {
                night_rows.push((c.assoc_ap[i as usize], nd));
            }
        }
        night_rows.sort_unstable();
        for run in night_rows.chunk_by(|a, b| a == b) {
            cover.push((run[0].0, run[0].1, run.len() as u32));
        }
        device_end.push((dev, cover.len()));
    }

    thresholds
        .iter()
        .map(|&threshold| {
            let need = threshold * 48.0;
            let mut home_of: Vec<Option<ApRef>> = vec![None; ds.devices.len()];
            let mut start = 0;
            for &(dev, end) in &device_end {
                let mut best: Option<(ApRef, usize)> = None;
                for pair in cover[start..end].chunk_by(|a, b| a.0 == b.0) {
                    let nights = pair.iter().filter(|p| f64::from(p.2) >= need).count();
                    // Pairs ascend: a strict `>` keeps the smaller on a tie.
                    if nights > 0 && best.is_none_or(|(_, most)| nights > most) {
                        best = Some((pair[0].0, nights));
                    }
                }
                home_of[dev.index()] = best.map(|(ap, _)| ap);
                start = end;
            }
            // Score vs truth.
            let mut score = HomeInferenceScore::default();
            for dev in &ds.devices {
                let Some(truth) = &dev.truth else { continue };
                match (home_of[dev.device.index()], truth.home_bssids.is_empty()) {
                    (Some(ap), false) => {
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
            let inferred = home_of.iter().flatten().count();
            SweepPoint {
                threshold,
                inferred_share: inferred as f64 / ds.devices.len().max(1) as f64,
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
        let sweep = home_rule_sweep(&AnalysisContext::new(&ds), &[0.4, 0.7]);
        assert_eq!(sweep[0].score.true_positive, 1);
        assert_eq!(sweep[1].score.true_positive, 0);
        assert_eq!(sweep[1].score.false_negative, 1);
        assert!(sweep[0].inferred_share > sweep[1].inferred_share);
    }

    #[test]
    fn evening_bins_count_toward_the_night() {
        // 22:00–24:00 only: exactly the 12 bins a 25% threshold needs.
        let ds = dataset_with_coverage(12);
        let sweep = home_rule_sweep(&AnalysisContext::new(&ds), &[0.25]);
        assert_eq!(sweep[0].score.true_positive, 1);
    }

    #[test]
    fn tied_pairs_go_to_the_smaller_ap_on_every_call() {
        // One full night on pair 1, then one on pair 0 (the true home): a
        // tie at one qualifying night each.
        let mut ds = dataset_with_coverage(0);
        ds.aps.push(ApEntry { bssid: Bssid::from_u64(2), essid: Essid::new("aterm-y") });
        for (night, ap) in [(0, 1), (1, 0)] {
            let night_bins = (132..144).map(|b| (night, b)).chain((0..36).map(|b| (night + 1, b)));
            for (day, b) in night_bins {
                let mut bin = mk(day, b);
                if let WifiBinState::Associated(a) = &mut bin.wifi {
                    a.ap = ApRef(ap);
                }
                ds.bins.push(bin);
            }
        }
        let ctx = AnalysisContext::new(&ds);
        for _ in 0..32 {
            let sweep = home_rule_sweep(&ctx, &[0.7]);
            assert_eq!(sweep[0].score.true_positive, 1);
            assert_eq!(sweep[0].score.false_positive, 0);
        }
    }

    #[test]
    fn recall_monotone_in_threshold() {
        let ds = dataset_with_coverage(40);
        let sweep = home_rule_sweep(&AnalysisContext::new(&ds), &default_thresholds());
        for w in sweep.windows(2) {
            assert!(w[0].score.recall() >= w[1].score.recall() - 1e-12);
        }
    }
}
