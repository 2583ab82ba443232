//! 2.4 GHz cross-channel interference (§3.4.5).
//!
//! The paper argues home-AP channel selection improved from 2013 (a pile-up
//! on the factory default, channel 1) to 2015 (more dispersion), while
//! public deployments were planned on {1, 6, 11} all along. We quantify
//! that with the expected co-channel pressure among associated APs sharing
//! a 5 km cell: the number of overlapping-channel pairs per cell,
//! normalised by the pairs possible.

use crate::apclass::ApClass;
use crate::AnalysisContext;
use mobitrace_model::{Band, CellId, Channel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Interference pressure for one AP class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct InterferencePressure {
    /// Overlapping-channel AP pairs across all cells.
    pub overlapping_pairs: u64,
    /// All co-located AP pairs.
    pub total_pairs: u64,
}

impl InterferencePressure {
    /// Share of co-located pairs that overlap in spectrum (lower is a
    /// better-planned deployment; 13 random channels would give ~0.6).
    pub fn overlap_share(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.overlapping_pairs as f64 / self.total_pairs as f64
        }
    }
}

/// Compute per-class interference pressure over the reporting grid.
pub fn interference_pressure(ctx: &AnalysisContext<'_>) -> HashMap<ApClass, InterferencePressure> {
    let c = &*ctx.cols;
    let on_24 = |i: usize| c.assoc_band[i] == Band::Ghz24;
    // Channel of each associated 2.4 GHz AP (its first report) and its
    // modal cell (ties to the smaller cell).
    let mut chan: Vec<Option<Channel>> = vec![None; ctx.aps.class_of.len()];
    for i in c.sel_associated.iter().map(|&i| i as usize).filter(|&i| on_24(i)) {
        chan[c.assoc_ap[i].index()].get_or_insert(c.assoc_channel[i]);
    }
    // Group channels by (class, cell).
    let mut per_cell: Vec<(ApClass, CellId, Channel)> = ctx
        .ap_modal_cells(on_24)
        .into_iter()
        .zip(chan)
        .zip(&ctx.aps.class_of)
        .filter_map(|((cell, ch), &class)| Some((class, cell?, ch?)))
        .collect();
    per_cell.sort_unstable_by_key(|&(class, cell, _)| (class as u8, cell));
    let mut out: HashMap<ApClass, InterferencePressure> = HashMap::new();
    for group in per_cell.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let e = out.entry(group[0].0).or_default();
        for (i, a) in group.iter().enumerate() {
            for b in &group[i + 1..] {
                e.total_pairs += 1;
                if a.2.overlaps_24(b.2) {
                    e.overlapping_pairs += 1;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn ds_with(channels: Vec<(&str, u8)>) -> Dataset {
        let aps: Vec<ApEntry> = channels
            .iter()
            .enumerate()
            .map(|(i, (e, _))| ApEntry {
                bssid: Bssid::from_u64(i as u64 + 1),
                essid: Essid::new(*e),
            })
            .collect();
        let bins: Vec<BinRecord> = channels
            .iter()
            .enumerate()
            .map(|(i, (_, ch))| BinRecord {
                device: DeviceId(0),
                time: SimTime::from_minutes(i as u32 * 10),
                rx_3g: 0,
                tx_3g: 0,
                rx_lte: 0,
                tx_lte: 0,
                rx_wifi: 0,
                tx_wifi: 0,
                wifi: WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(i as u32),
                    band: Band::Ghz24,
                    channel: Channel(*ch),
                    rssi: Dbm::new(-55),
                }),
                scan: ScanSummary::default(),
                apps: vec![],
                geo: CellId::new(5, 5),
                os_version: OsVersion::new(4, 4),
            })
            .collect();
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
            aps,
            bins: DatasetColumns::build(&bins),
        }
    }

    #[test]
    fn planned_public_deployment_scores_zero() {
        let ds = ds_with(vec![("0000carrier-a", 1), ("0001carrier-c", 6), ("7SPOT", 11)]);
        let p = interference_pressure(&AnalysisContext::new(&ds));
        let pub_p = p[&ApClass::Public];
        assert_eq!(pub_p.total_pairs, 3);
        assert_eq!(pub_p.overlapping_pairs, 0);
        assert_eq!(pub_p.overlap_share(), 0.0);
    }

    #[test]
    fn default_channel_pileup_scores_high() {
        let ds = ds_with(vec![("0000carrier-a", 1), ("0001carrier-c", 1), ("7SPOT", 2)]);
        let p = interference_pressure(&AnalysisContext::new(&ds));
        assert_eq!(p[&ApClass::Public].overlap_share(), 1.0);
    }

    #[test]
    fn tied_modal_cells_resolve_the_same_on_every_call() {
        // Four public APs on channel 1. AP 0 is reported once from each of
        // two cells (an exact tie); APs 1 and 2 sit in the smaller cell,
        // AP 3 in the larger. The tie going to the smaller cell yields 3
        // co-located pairs; the other way would yield 2.
        let mut ds = ds_with(vec![
            ("0000carrier-a", 1),
            ("0001carrier-c", 1),
            ("7SPOT", 1),
            ("0000carrier-a", 1),
        ]);
        let (lo, hi) = (CellId::new(1, 1), CellId::new(1, 2));
        let mut rows = ds.bins.to_bins();
        for (b, cell) in rows.iter_mut().zip([hi, lo, lo, hi]) {
            b.geo = cell;
        }
        let mut extra = rows[0].clone();
        extra.time = SimTime::from_minutes(100);
        extra.geo = lo;
        rows.push(extra);
        ds.bins = DatasetColumns::build(&rows);
        let ctx = AnalysisContext::new(&ds);
        for _ in 0..32 {
            let p = interference_pressure(&ctx);
            assert_eq!(p[&ApClass::Public].total_pairs, 3);
        }
    }

    #[test]
    fn empty_dataset_empty_map() {
        let ds = ds_with(vec![]);
        assert!(interference_pressure(&AnalysisContext::new(&ds)).is_empty());
    }
}
