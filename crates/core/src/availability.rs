//! Public-WiFi availability for WiFi-available users (Fig. 17, §3.5).
//!
//! A *WiFi-available* bin has the interface enabled but unassociated. For
//! those bins the scan summaries tell how many public APs — per band,
//! total and "strong" (≥ -70 dBm) — the device could have joined, and how
//! much of its cellular traffic it could therefore have offloaded.

use crate::stats::ccdf_points;
use mobitrace_model::{AllRows, Dataset, DatasetColumns, DeviceId, RowSet, WifiBinState};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Fig. 17: CCDFs of the number of detected public APs per
/// WiFi-available device per 10-minute bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct DetectedPublicAps {
    /// 2.4 GHz, all detected.
    pub g24_all: Vec<f64>,
    /// 2.4 GHz, strong only.
    pub g24_strong: Vec<f64>,
    /// 5 GHz, all detected.
    pub g5_all: Vec<f64>,
    /// 5 GHz, strong only.
    pub g5_strong: Vec<f64>,
}

impl DetectedPublicAps {
    /// CCDF of one series.
    pub fn ccdf(xs: &[f64]) -> Vec<(f64, f64)> {
        ccdf_points(xs)
    }

    /// Share of samples that detected at least one AP.
    pub fn share_nonzero(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().filter(|&&v| v >= 1.0).count() as f64 / xs.len() as f64
    }
}

/// Collect Fig. 17's samples (WiFi-available bins of Android devices —
/// only Android reports scans). Iterates the `sel_available` selection
/// vector — the WiFi-available rows in ascending order, so samples are
/// pushed in exactly the order of [`detected_public_aps_rows`] — against a
/// dense per-device Android table built once from the device list.
pub fn detected_public_aps(ds: &Dataset, cols: &DatasetColumns) -> DetectedPublicAps {
    let mut out = DetectedPublicAps::default();
    let android: Vec<bool> =
        ds.devices.iter().map(|d| d.os == mobitrace_model::Os::Android).collect();
    for &ri in &cols.sel_available {
        let i = ri as usize;
        if !android[cols.device[i].index()] {
            continue;
        }
        out.g24_all.push(f64::from(cols.scan.n24_public_all[i]));
        out.g24_strong.push(f64::from(cols.scan.n24_public_strong[i]));
        out.g5_all.push(f64::from(cols.scan.n5_public_all[i]));
        out.g5_strong.push(f64::from(cols.scan.n5_public_strong[i]));
    }
    out
}

/// Row-scan reference for [`detected_public_aps`] (kept for equivalence
/// tests and benchmarks).
pub fn detected_public_aps_rows(ds: &Dataset) -> DetectedPublicAps {
    let mut out = DetectedPublicAps::default();
    for b in &ds.bins {
        if !matches!(b.wifi, WifiBinState::OnUnassociated) {
            continue;
        }
        if ds.device(b.device).os != mobitrace_model::Os::Android {
            continue;
        }
        out.g24_all.push(f64::from(b.scan.n24_public_all));
        out.g24_strong.push(f64::from(b.scan.n24_public_strong));
        out.g5_all.push(f64::from(b.scan.n5_public_all));
        out.g5_strong.push(f64::from(b.scan.n5_public_strong));
    }
    out
}

/// §3.5 offload-potential estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct OffloadPotential {
    /// WiFi-available devices (had ≥1 enabled-unassociated bin).
    pub available_devices: usize,
    /// Share of those devices that saw a strong public AP at least once.
    pub devices_with_opportunity: f64,
    /// Share of those devices' *daily cellular download* that flowed in
    /// bins with a strong public AP in range — i.e. offloadable.
    pub offloadable_share: f64,
}

/// Estimate how much cellular traffic WiFi-available users could offload
/// to public WiFi (the paper concludes 15–20%).
pub fn offload_potential(ds: &Dataset, cols: &DatasetColumns) -> OffloadPotential {
    offload_potential_over(ds, cols, &AllRows)
}

/// [`offload_potential`] over the rows of `rows` only, read in place. The
/// per-device tallies live in a dense vector sized from
/// `ds.devices.len()` — device ids index the device table directly, so no
/// hash map (and no iteration-order dependence) is involved.
pub fn offload_potential_over(
    ds: &Dataset,
    cols: &DatasetColumns,
    rows: &impl RowSet,
) -> OffloadPotential {
    // Per device: (cellular rx in available bins with a strong public AP,
    // total cellular rx in available bins, saw an opportunity, seen at all).
    let mut per_dev: Vec<(u64, u64, bool, bool)> = vec![(0, 0, false, false); ds.devices.len()];
    // The set's WiFi-available rows, in ascending order; per-device
    // tallies are integer sums, so the result is identical to the full
    // scan.
    for &ri in rows.available(cols) {
        let i = ri as usize;
        let cell_rx = cols.rx_3g[i] + cols.rx_lte[i];
        let e = &mut per_dev[cols.device[i].index()];
        e.3 = true;
        e.1 += cell_rx;
        let strong = cols.scan.n24_public_strong[i] > 0 || cols.scan.n5_public_strong[i] > 0;
        if strong {
            e.0 += cell_rx;
            e.2 = true;
        }
    }
    let available_devices = per_dev.iter().filter(|(_, _, _, seen)| *seen).count();
    if available_devices == 0 {
        return OffloadPotential::default();
    }
    let with_opp = per_dev.iter().filter(|(_, _, opp, _)| *opp).count();
    let offloadable: u64 = per_dev.iter().map(|(o, _, _, _)| o).sum();
    let total: u64 = per_dev.iter().map(|(_, t, _, _)| t).sum();
    OffloadPotential {
        available_devices,
        devices_with_opportunity: with_opp as f64 / available_devices as f64,
        offloadable_share: if total == 0 { 0.0 } else { offloadable as f64 / total as f64 },
    }
}

/// Row-scan reference for [`offload_potential`] (kept for equivalence
/// tests and benchmarks).
pub fn offload_potential_rows(ds: &Dataset) -> OffloadPotential {
    let mut per_dev: HashMap<DeviceId, (u64, u64, bool)> = HashMap::new();
    for b in &ds.bins {
        let available = matches!(b.wifi, WifiBinState::OnUnassociated);
        if !available {
            continue;
        }
        let e = per_dev.entry(b.device).or_default();
        e.1 += b.rx_cell();
        let strong = b.scan.n24_public_strong > 0 || b.scan.n5_public_strong > 0;
        if strong {
            e.0 += b.rx_cell();
            e.2 = true;
        }
    }
    let available_devices = per_dev.len();
    if available_devices == 0 {
        return OffloadPotential::default();
    }
    let with_opp = per_dev.values().filter(|(_, _, opp)| *opp).count();
    let offloadable: u64 = per_dev.values().map(|(o, _, _)| o).sum();
    let total: u64 = per_dev.values().map(|(_, t, _)| t).sum();
    OffloadPotential {
        available_devices,
        devices_with_opportunity: with_opp as f64 / available_devices as f64,
        offloadable_share: if total == 0 { 0.0 } else { offloadable as f64 / total as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn bin(dev: u32, t: u32, state: WifiBinState, scan: ScanSummary, cell_rx: u64) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_minutes(t * 10),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: cell_rx,
            tx_lte: 0,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: state,
            scan,
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    fn dataset(bins: Vec<BinRecord>, n_dev: u32) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
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

    fn scan(p24_all: u16, p24_strong: u16) -> ScanSummary {
        ScanSummary {
            n24_all: p24_all + 2,
            n24_strong: p24_strong + 1,
            n24_public_all: p24_all,
            n24_public_strong: p24_strong,
            ..ScanSummary::default()
        }
    }

    #[test]
    fn only_available_bins_sampled() {
        let ds = dataset(
            vec![
                bin(0, 0, WifiBinState::OnUnassociated, scan(5, 2), 0),
                bin(0, 1, WifiBinState::Off, scan(9, 9), 0),
            ],
            1,
        );
        let d = detected_public_aps(&ds, &DatasetColumns::build(&ds));
        assert_eq!(d, detected_public_aps_rows(&ds));
        assert_eq!(d.g24_all, vec![5.0]);
        assert_eq!(d.g24_strong, vec![2.0]);
    }

    #[test]
    fn offload_share_counts_strong_bins() {
        let ds = dataset(
            vec![
                bin(0, 0, WifiBinState::OnUnassociated, scan(3, 1), 600),
                bin(0, 1, WifiBinState::OnUnassociated, scan(3, 0), 400),
                // Device 1 never sees a strong public AP.
                bin(1, 0, WifiBinState::OnUnassociated, scan(1, 0), 1000),
            ],
            2,
        );
        let o = offload_potential(&ds, &DatasetColumns::build(&ds));
        assert_eq!(o, offload_potential_rows(&ds));
        assert_eq!(o.available_devices, 2);
        assert!((o.devices_with_opportunity - 0.5).abs() < 1e-12);
        assert!((o.offloadable_share - 0.3).abs() < 1e-12); // 600 / 2000
    }

    #[test]
    fn empty_dataset_defaults() {
        let ds = dataset(vec![], 0);
        let cols = DatasetColumns::build(&ds);
        assert_eq!(offload_potential(&ds, &cols), OffloadPotential::default());
        assert_eq!(DetectedPublicAps::share_nonzero(&[]), 0.0);
    }

    #[test]
    fn share_nonzero_counts() {
        assert!((DetectedPublicAps::share_nonzero(&[0.0, 1.0, 3.0, 0.0]) - 0.5).abs() < 1e-12);
    }
}
