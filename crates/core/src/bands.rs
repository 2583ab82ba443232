//! 5 GHz adoption among associated APs (Fig. 14).

use crate::apclass::ApClass;
use crate::AnalysisContext;
use mobitrace_model::Band;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fraction of unique associated APs operating at 5 GHz, per venue class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FiveGhzShares {
    /// Home APs.
    pub home: f64,
    /// Office APs.
    pub office: f64,
    /// Public APs.
    pub public: f64,
}

/// Compute Fig. 14's fractions. Each unique (BSSID, ESSID) pair carries
/// one band (real dual-band APs expose one BSSID per radio).
pub fn five_ghz_shares(ctx: &AnalysisContext<'_>) -> FiveGhzShares {
    let c = &*ctx.cols;
    // Band per AP entry, learned from its first association.
    let mut band_of: Vec<Option<Band>> = vec![None; ctx.aps.class_of.len()];
    for &i in &c.sel_associated {
        band_of[c.assoc_ap[i as usize].index()].get_or_insert(c.assoc_band[i as usize]);
    }
    let mut counts: HashMap<ApClass, (usize, usize)> = HashMap::new(); // (5ghz, total)
    for (&class, band) in ctx.aps.class_of.iter().zip(band_of) {
        let Some(band) = band else { continue };
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

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn ds_with_assocs(assocs: Vec<(&str, Band)>) -> Dataset {
        let aps: Vec<ApEntry> = assocs
            .iter()
            .enumerate()
            .map(|(i, (e, _))| ApEntry {
                bssid: Bssid::from_u64(i as u64 + 1),
                essid: Essid::new(*e),
            })
            .collect();
        let bins: Vec<BinRecord> = assocs
            .iter()
            .enumerate()
            .map(|(i, (_, band))| BinRecord {
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
                    band: *band,
                    channel: if *band == Band::Ghz5 { Channel(36) } else { Channel(6) },
                    rssi: Dbm::new(-55),
                }),
                scan: ScanSummary::default(),
                apps: vec![],
                geo: CellId::new(0, 0),
                os_version: OsVersion::new(4, 4),
            })
            .collect();
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2015,
                start: Year::Y2015.campaign_start(),
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
    fn public_share_counts_unique_aps() {
        let ds = ds_with_assocs(vec![
            ("0000carrier-a", Band::Ghz5),
            ("0000carrier-a", Band::Ghz24),
            ("0001carrier-c", Band::Ghz5),
            ("7SPOT", Band::Ghz5),
        ]);
        let s = five_ghz_shares(&AnalysisContext::new(&ds));
        assert!((s.public - 0.75).abs() < 1e-12, "{}", s.public);
        assert_eq!(s.home, 0.0);
    }

    #[test]
    fn empty_dataset_zero_shares() {
        let ds = ds_with_assocs(vec![]);
        assert_eq!(five_ghz_shares(&AnalysisContext::new(&ds)), FiveGhzShares::default());
    }
}
