//! Per-carrier comparisons (§3.3.4): the paper finds "no difference in the
//! WiFi-user ratios among three cellular carriers providing iPhones" —
//! OS drives WiFi behaviour, not the carrier.

use crate::AnalysisContext;
use mobitrace_model::{Carrier, Os};
use serde::{Deserialize, Serialize};

/// WiFi-user ratio per carrier for one OS.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct CarrierComparison {
    /// Mean WiFi-user ratio per carrier (A, B, C).
    pub ratios: [f64; 3],
    /// Max absolute spread between carriers.
    pub spread: f64,
}

/// Compute the per-carrier mean WiFi-user ratio for one OS population:
/// each device adds its row count and its associated-row count.
pub fn carrier_wifi_user_ratios(ctx: &AnalysisContext<'_>, os: Os) -> CarrierComparison {
    let mut assoc = [0u64; 3];
    let mut total = [0u64; 3];
    for dev in ctx.index.devices_with_bins() {
        let info = ctx.ds.device(dev);
        if info.os != os {
            continue;
        }
        let (c, rows) = (info.carrier.index(), ctx.index.device_range(dev));
        assoc[c] += ctx.associated_rows(rows.clone()).len() as u64;
        total[c] += rows.len() as u64;
    }
    let mut ratios = [0.0; 3];
    for c in Carrier::ALL {
        let i = c.index();
        ratios[i] = if total[i] > 0 { assoc[i] as f64 / total[i] as f64 } else { 0.0 };
    }
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    CarrierComparison { ratios, spread: max - min }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn bin(dev: u32, t: u32, assoc: bool) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_minutes(t * 10),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 0,
            tx_lte: 0,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: if assoc {
                WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(0),
                    band: Band::Ghz24,
                    channel: Channel(1),
                    rssi: Dbm::new(-50),
                })
            } else {
                WifiBinState::Off
            },
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(8, 1),
        }
    }

    #[test]
    fn ratios_split_by_carrier_and_os() {
        let devices = [(Carrier::A, Os::Ios), (Carrier::B, Os::Ios), (Carrier::C, Os::Android)];
        let ds = Dataset {
            meta: CampaignMeta {
                year: Year::Y2015,
                start: Year::Y2015.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: devices
                .iter()
                .enumerate()
                .map(|(i, (carrier, os))| DeviceInfo {
                    device: DeviceId(i as u32),
                    os: *os,
                    carrier: *carrier,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("x") }],
            bins: vec![
                bin(0, 0, true),
                bin(0, 1, true),
                bin(1, 0, true),
                bin(1, 1, false),
                bin(2, 0, true), // Android: excluded from iOS comparison
            ],
        };
        let cmp = carrier_wifi_user_ratios(&AnalysisContext::new(&ds), Os::Ios);
        assert!((cmp.ratios[0] - 1.0).abs() < 1e-12);
        assert!((cmp.ratios[1] - 0.5).abs() < 1e-12);
        assert_eq!(cmp.ratios[2], 0.0); // no iOS devices on carrier C
        assert!((cmp.spread - 1.0).abs() < 1e-12);
    }
}
