//! AP density maps (Fig. 10): unique associated APs per 5 km cell, by
//! venue class.

use crate::apclass::ApClass;
use crate::AnalysisContext;
use mobitrace_model::CellId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One density map: cell → number of unique associated APs of a class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ApDensityMap {
    /// Per-cell AP counts.
    pub cells: HashMap<CellId, u32>,
}

impl ApDensityMap {
    /// Number of cells with at least `n` APs (the paper compares cells
    /// with ≥1 and ≥100 APs across years).
    pub fn cells_with_at_least(&self, n: u32) -> usize {
        self.cells.values().filter(|&&v| v >= n).count()
    }

    /// The maximum cell count.
    pub fn max_cell(&self) -> u32 {
        self.cells.values().copied().max().unwrap_or(0)
    }
}

/// Compute Fig. 10's maps for home and public APs. An AP is attributed to
/// the cell where its associations were most often reported, ties going
/// to the smaller cell.
pub fn density_maps(ctx: &AnalysisContext<'_>) -> (ApDensityMap, ApDensityMap) {
    let mut home = ApDensityMap::default();
    let mut public = ApDensityMap::default();
    for (class, cell) in ctx.aps.class_of.iter().zip(ctx.ap_modal_cells(|_| true)) {
        let Some(cell) = cell else { continue };
        match class {
            ApClass::Home => *home.cells.entry(cell).or_default() += 1,
            ApClass::Public => *public.cells.entry(cell).or_default() += 1,
            _ => {}
        }
    }
    (home, public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    /// One device reporting an association with `ap` from `cell` per
    /// entry, ten minutes apart; AP 0 is a home-pattern ESSID, AP 1 public.
    fn reports(entries: &[(u32, CellId)]) -> Dataset {
        let aps = vec![
            ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("0000carrier-a") },
            ApEntry { bssid: Bssid::from_u64(2), essid: Essid::new("7SPOT") },
        ];
        let bins: Vec<BinRecord> = entries
            .iter()
            .enumerate()
            .map(|(t, &(ap, cell))| BinRecord {
                device: DeviceId(0),
                time: SimTime::from_minutes(t as u32 * 10),
                rx_3g: 0,
                tx_3g: 0,
                rx_lte: 0,
                tx_lte: 0,
                rx_wifi: 0,
                tx_wifi: 0,
                wifi: WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(ap),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-60),
                }),
                scan: ScanSummary::default(),
                apps: vec![],
                geo: cell,
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
    fn aps_attributed_to_modal_cell() {
        let downtown = CellId::new(10, 10);
        let edge = CellId::new(11, 10);
        // AP 0's third report is a minority one.
        let ds = reports(&[(0, downtown), (0, downtown), (0, edge), (1, downtown)]);
        let (home, public) = density_maps(&AnalysisContext::new(&ds));
        assert_eq!(public.cells.get(&downtown), Some(&2));
        assert_eq!(public.cells.get(&edge), None);
        assert_eq!(home.cells.len(), 0);
        assert_eq!(public.cells_with_at_least(1), 1);
        assert_eq!(public.cells_with_at_least(3), 0);
        assert_eq!(public.max_cell(), 2);
    }

    #[test]
    fn tied_votes_go_to_the_smaller_cell_on_every_call() {
        let (lo, hi) = (CellId::new(4, 9), CellId::new(5, 0));
        // AP 1 reported from both cells equally often: an exact tie.
        let ds = reports(&[(1, hi), (1, lo), (1, hi), (1, lo)]);
        let ctx = AnalysisContext::new(&ds);
        for _ in 0..32 {
            let (_, public) = density_maps(&ctx);
            assert_eq!(public.cells, HashMap::from([(lo, 1)]));
        }
    }
}
