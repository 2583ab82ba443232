//! Dataset overview (Table 1).

use mobitrace_model::{lanes, BinRecord, Dataset, DatasetColumns, Os};
use serde::{Deserialize, Serialize};

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Overview {
    /// Campaign year.
    pub year: u16,
    /// Campaign window as strings (start, end).
    pub window: (String, String),
    /// Android devices.
    pub n_android: usize,
    /// iOS devices.
    pub n_ios: usize,
    /// Total devices.
    pub n_total: usize,
    /// LTE share of *cellular traffic volume* (the figure the running text
    /// quotes: 32% in 2013, 80% in 2015).
    pub lte_traffic_share: f64,
}

/// Compute the Table 1 row for a dataset. The volume sums stream the four
/// cellular counter columns through lane-chunked reductions (integer sums
/// are associative, so the chunked result is bit-identical to
/// [`overview_rows`]).
pub fn overview(ds: &Dataset, cols: &DatasetColumns) -> Overview {
    let lte = lanes::sum_paired(&cols.rx_lte, &cols.tx_lte);
    let cell3g = lanes::sum_paired(&cols.rx_3g, &cols.tx_3g);
    finish_overview(ds, lte, cell3g)
}

/// Row-scan reference for [`overview`] (kept for equivalence tests and
/// benchmarks).
pub fn overview_rows(ds: &Dataset, bins: &[BinRecord]) -> Overview {
    let (mut lte, mut cell3g) = (0u64, 0u64);
    for b in bins {
        lte += b.rx_lte + b.tx_lte;
        cell3g += b.rx_3g + b.tx_3g;
    }
    finish_overview(ds, lte, cell3g)
}

fn finish_overview(ds: &Dataset, lte: u64, cell3g: u64) -> Overview {
    let total_cell = lte + cell3g;
    let start = ds.meta.start;
    let end = start.plus_days(i64::from(ds.meta.days) - 1);
    Overview {
        year: ds.meta.year.as_u16(),
        window: (start.to_string(), end.to_string()),
        n_android: ds.count_os(Os::Android),
        n_ios: ds.count_os(Os::Ios),
        n_total: ds.devices.len(),
        lte_traffic_share: if total_cell == 0 { 0.0 } else { lte as f64 / total_cell as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    #[test]
    fn counts_and_lte_share() {
        let mk_bin = |dev: u32, lte: u64, g3: u64| BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_minutes(dev * 10),
            rx_3g: g3,
            tx_3g: 0,
            rx_lte: lte,
            tx_lte: 0,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: WifiBinState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(8, 1),
        };
        let ds = Dataset {
            meta: CampaignMeta {
                year: Year::Y2014,
                start: Year::Y2014.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: vec![
                DeviceInfo {
                    device: DeviceId(0),
                    os: Os::Android,
                    carrier: Carrier::A,
                    recruited: true,
                    survey: None,
                    truth: None,
                },
                DeviceInfo {
                    device: DeviceId(1),
                    os: Os::Ios,
                    carrier: Carrier::B,
                    recruited: true,
                    survey: None,
                    truth: None,
                },
            ],
            aps: vec![],
            bins: DatasetColumns::build(&[mk_bin(0, 700, 300), mk_bin(1, 0, 0)]),
        };
        let o = overview(&ds, &ds.bins);
        assert_eq!(o, overview_rows(&ds, &ds.bins.to_bins()));
        assert_eq!(o.year, 2014);
        assert_eq!((o.n_android, o.n_ios, o.n_total), (1, 1, 2));
        assert!((o.lte_traffic_share - 0.7).abs() < 1e-12);
        assert_eq!(o.window.0, "2014-03-01");
        assert_eq!(o.window.1, "2014-03-15");
    }
}
