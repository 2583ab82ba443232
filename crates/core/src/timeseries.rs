//! Aggregated traffic time series (Fig. 2) and WiFi-by-venue series
//! (Fig. 11).
//!
//! The paper plots aggregated volume in Mbps over one Saturday-to-Saturday
//! week. We aggregate each (day-of-week, hour) slot across the campaign and
//! rescale to Mbps.

use crate::apclass::{ApClass, ApClassification};
use mobitrace_model::{AllRows, Dataset, DatasetColumns, RowSet, SimTime};
use serde::{Deserialize, Serialize};

/// Hours in the weekly grid (Sat 00:00 → Fri 23:00, campaign-start
/// aligned; campaigns start on Saturdays).
pub const WEEK_HOURS: usize = 7 * 24;

/// One weekly Mbps series per traffic stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct WeeklySeries {
    /// Mbps per weekly hour slot.
    pub mbps: Vec<f64>,
}

impl WeeklySeries {
    fn from_bytes(bytes_per_slot: &[u64], weeks: f64) -> WeeklySeries {
        WeeklySeries {
            mbps: bytes_per_slot.iter().map(|&b| (b as f64 / weeks) * 8.0 / 3600.0 / 1e6).collect(),
        }
    }

    /// Mean of the series.
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.mbps)
    }

    /// Peak value.
    pub fn peak(&self) -> f64 {
        self.mbps.iter().cloned().fold(0.0, f64::max)
    }

    /// Hour-of-week index of the peak.
    pub fn peak_slot(&self) -> usize {
        self.mbps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaNs"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// Fig. 2: aggregated cellular/WiFi TX/RX weekly series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AggregateSeries {
    /// Cellular downlink.
    pub cell_rx: WeeklySeries,
    /// Cellular uplink.
    pub cell_tx: WeeklySeries,
    /// WiFi downlink.
    pub wifi_rx: WeeklySeries,
    /// WiFi uplink.
    pub wifi_tx: WeeklySeries,
}

impl AggregateSeries {
    /// WiFi share of total volume (the 59% → 67% headline).
    pub fn wifi_share(&self) -> f64 {
        let wifi: f64 = self.wifi_rx.mbps.iter().chain(&self.wifi_tx.mbps).sum();
        let cell: f64 = self.cell_rx.mbps.iter().chain(&self.cell_tx.mbps).sum();
        if wifi + cell == 0.0 {
            0.0
        } else {
            wifi / (wifi + cell)
        }
    }
}

fn weekly_slot(ds: &Dataset, t: SimTime) -> usize {
    // Campaigns start on Saturday, so day-of-campaign % 7 aligns with the
    // paper's Sat..Fri axis.
    debug_assert_eq!(
        ds.meta.start.weekday(),
        mobitrace_model::Weekday::Sat,
        "weekly alignment assumes Saturday start"
    );
    ((t.day() % 7) * 24 + t.hour()) as usize
}

/// Compute Fig. 2's four series.
pub fn aggregate_series(ds: &Dataset, cols: &DatasetColumns) -> AggregateSeries {
    aggregate_series_over(ds, cols, &AllRows)
}

/// [`aggregate_series`] over the rows of `rows` only, read in place.
/// Streams the time column and the six counter columns in fixed-size
/// blocks: per block, the weekly slots and the paired cellular totals are
/// precomputed into stack buffers (branch-free lane loops the optimizer
/// vectorizes over all rows), then a scalar pass scatters them into the
/// slot accumulators. Row order — and therefore every integer
/// accumulation — is identical to [`aggregate_series_rows`].
pub fn aggregate_series_over(
    ds: &Dataset,
    cols: &DatasetColumns,
    rows: &impl RowSet,
) -> AggregateSeries {
    const BLOCK: usize = 128;
    let mut cell_rx = vec![0u64; WEEK_HOURS];
    let mut cell_tx = vec![0u64; WEEK_HOURS];
    let mut wifi_rx = vec![0u64; WEEK_HOURS];
    let mut wifi_tx = vec![0u64; WEEK_HOURS];
    let n = rows.len(cols);
    let mut slots = [0u16; BLOCK];
    let mut crx = [0u64; BLOCK];
    let mut ctx = [0u64; BLOCK];
    let mut start = 0usize;
    while start < n {
        let m = BLOCK.min(n - start);
        for (k, s) in slots.iter_mut().take(m).enumerate() {
            *s = weekly_slot(ds, cols.time[rows.row(start + k)]) as u16;
        }
        for k in 0..m {
            let i = rows.row(start + k);
            crx[k] = cols.rx_3g[i] + cols.rx_lte[i];
            ctx[k] = cols.tx_3g[i] + cols.tx_lte[i];
        }
        for k in 0..m {
            let slot = usize::from(slots[k]);
            let i = rows.row(start + k);
            cell_rx[slot] += crx[k];
            cell_tx[slot] += ctx[k];
            wifi_rx[slot] += cols.rx_wifi[i];
            wifi_tx[slot] += cols.tx_wifi[i];
        }
        start += m;
    }
    let weeks = f64::from(ds.meta.days) / 7.0;
    AggregateSeries {
        cell_rx: WeeklySeries::from_bytes(&cell_rx, weeks),
        cell_tx: WeeklySeries::from_bytes(&cell_tx, weeks),
        wifi_rx: WeeklySeries::from_bytes(&wifi_rx, weeks),
        wifi_tx: WeeklySeries::from_bytes(&wifi_tx, weeks),
    }
}

/// Row-scan reference for [`aggregate_series`] (kept for equivalence tests
/// and benchmarks).
pub fn aggregate_series_rows(ds: &Dataset) -> AggregateSeries {
    let mut cell_rx = vec![0u64; WEEK_HOURS];
    let mut cell_tx = vec![0u64; WEEK_HOURS];
    let mut wifi_rx = vec![0u64; WEEK_HOURS];
    let mut wifi_tx = vec![0u64; WEEK_HOURS];
    for b in &ds.bins {
        let slot = weekly_slot(ds, b.time);
        cell_rx[slot] += b.rx_cell();
        cell_tx[slot] += b.tx_cell();
        wifi_rx[slot] += b.rx_wifi;
        wifi_tx[slot] += b.tx_wifi;
    }
    let weeks = f64::from(ds.meta.days) / 7.0;
    AggregateSeries {
        cell_rx: WeeklySeries::from_bytes(&cell_rx, weeks),
        cell_tx: WeeklySeries::from_bytes(&cell_tx, weeks),
        wifi_rx: WeeklySeries::from_bytes(&wifi_rx, weeks),
        wifi_tx: WeeklySeries::from_bytes(&wifi_tx, weeks),
    }
}

/// Fig. 11: WiFi weekly series split by venue class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct VenueSeries {
    /// Home WiFi (rx, tx).
    pub home: (WeeklySeries, WeeklySeries),
    /// Public WiFi (rx, tx).
    pub public: (WeeklySeries, WeeklySeries),
    /// Office WiFi (rx, tx).
    pub office: (WeeklySeries, WeeklySeries),
    /// Volume shares of total WiFi volume: (home, public, office).
    pub shares: (f64, f64, f64),
}

/// Compute Fig. 11's series.
pub fn venue_series(ds: &Dataset, cols: &DatasetColumns, cls: &ApClassification) -> VenueSeries {
    venue_series_over(ds, cols, &AllRows, cls)
}

/// [`venue_series`] over the rows of `rows` only, read in place. Iterates
/// the set's associated rows ([`RowSet::associated`]) in ascending order,
/// so every accumulation happens in the same order as
/// [`venue_series_rows`], instead of re-testing the WiFi tag on every row.
pub fn venue_series_over(
    ds: &Dataset,
    cols: &DatasetColumns,
    rows: &impl RowSet,
    cls: &ApClassification,
) -> VenueSeries {
    let mut rx = [vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS]];
    let mut tx = [vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS]];
    let mut totals = [0u64; 4]; // home, public, office, other
    let mut wifi_total = 0u64;
    for &ri in rows.associated(cols) {
        let i = ri as usize;
        let ap = cols.assoc_ap[i];
        let slot = weekly_slot(ds, cols.time[i]);
        let vol = cols.rx_wifi[i] + cols.tx_wifi[i];
        wifi_total += vol;
        let idx = match cls.class(ap) {
            ApClass::Home => 0,
            ApClass::Public => 1,
            ApClass::Office => 2,
            ApClass::Other => 3,
        };
        if idx < 3 {
            rx[idx][slot] += cols.rx_wifi[i];
            tx[idx][slot] += cols.tx_wifi[i];
        }
        totals[idx] += vol;
    }
    let weeks = f64::from(ds.meta.days) / 7.0;
    let series = |i: usize| {
        (WeeklySeries::from_bytes(&rx[i], weeks), WeeklySeries::from_bytes(&tx[i], weeks))
    };
    let share = |i: usize| {
        if wifi_total == 0 {
            0.0
        } else {
            totals[i] as f64 / wifi_total as f64
        }
    };
    VenueSeries {
        home: series(0),
        public: series(1),
        office: series(2),
        shares: (share(0), share(1), share(2)),
    }
}

/// Row-scan reference for [`venue_series`] (kept for equivalence tests and
/// benchmarks).
pub fn venue_series_rows(ds: &Dataset, cls: &ApClassification) -> VenueSeries {
    let mut rx = [vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS]];
    let mut tx = [vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS], vec![0u64; WEEK_HOURS]];
    let mut totals = [0u64; 4]; // home, public, office, other
    let mut wifi_total = 0u64;
    for b in &ds.bins {
        let Some(assoc) = b.wifi.assoc() else {
            continue;
        };
        let slot = weekly_slot(ds, b.time);
        let vol = b.rx_wifi + b.tx_wifi;
        wifi_total += vol;
        let idx = match cls.class(assoc.ap) {
            ApClass::Home => 0,
            ApClass::Public => 1,
            ApClass::Office => 2,
            ApClass::Other => 3,
        };
        if idx < 3 {
            rx[idx][slot] += b.rx_wifi;
            tx[idx][slot] += b.tx_wifi;
        }
        totals[idx] += vol;
    }
    let weeks = f64::from(ds.meta.days) / 7.0;
    let series = |i: usize| {
        (WeeklySeries::from_bytes(&rx[i], weeks), WeeklySeries::from_bytes(&tx[i], weeks))
    };
    let share = |i: usize| {
        if wifi_total == 0 {
            0.0
        } else {
            totals[i] as f64 / wifi_total as f64
        }
    };
    VenueSeries {
        home: series(0),
        public: series(1),
        office: series(2),
        shares: (share(0), share(1), share(2)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn dataset(n: u32, bins: Vec<BinRecord>) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2015,
                start: Year::Y2015.campaign_start(),
                days: 14,
                seed: 0,
            },
            devices: (0..n)
                .map(|i| DeviceInfo {
                    device: DeviceId(i),
                    os: Os::Android,
                    carrier: Carrier::A,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("aterm-x") }],
            bins,
        }
    }

    fn bin(day: u32, hour: u32, wifi: u64, cell: u64, assoc: bool) -> BinRecord {
        BinRecord {
            device: DeviceId(0),
            time: SimTime::from_day_minute(day, hour * 60),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: cell,
            tx_lte: cell / 5,
            rx_wifi: wifi,
            tx_wifi: wifi / 5,
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
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn mbps_conversion() {
        // 900 MB in one hourly slot over 2 weeks → 450 MB/week-slot
        // → 450e6 × 8 / 3600 / 1e6 = 1.0 Mbps.
        let ds = dataset(1, vec![bin(0, 10, 900_000_000, 0, false)]);
        let agg = aggregate_series(&ds, &DatasetColumns::build(&ds));
        assert_eq!(agg, aggregate_series_rows(&ds));
        let slot = 10;
        assert!((agg.wifi_rx.mbps[slot] - 1.0).abs() < 1e-9, "{}", agg.wifi_rx.mbps[slot]);
        assert_eq!(agg.wifi_rx.peak_slot(), slot);
    }

    #[test]
    fn weekly_folding() {
        // Same weekday+hour in two different weeks lands in one slot.
        let ds = dataset(1, vec![bin(1, 9, 100, 0, false), bin(8, 9, 100, 0, false)]);
        let agg = aggregate_series(&ds, &DatasetColumns::build(&ds));
        let populated = agg.wifi_rx.mbps.iter().filter(|&&v| v > 0.0).count();
        assert_eq!(populated, 1);
    }

    #[test]
    fn wifi_share() {
        let ds = dataset(1, vec![bin(0, 10, 670, 330, false)]);
        let agg = aggregate_series(&ds, &DatasetColumns::build(&ds));
        // (670+134) / (670+134+330+66) = 0.67.
        assert!((agg.wifi_share() - 0.67).abs() < 0.01, "{}", agg.wifi_share());
    }

    #[test]
    fn venue_split_uses_classification() {
        let ds = dataset(1, vec![bin(0, 21, 1000, 0, true)]);
        let cls = crate::apclass::classify(&ds);
        let v = venue_series(&ds, &DatasetColumns::build(&ds), &cls);
        assert_eq!(v, venue_series_rows(&ds, &cls));
        // Single AP, no night coverage → classified Other; home gets none.
        assert_eq!(v.home.0.mbps.iter().filter(|&&x| x > 0.0).count(), 0);
        // Shares account for "other" implicitly (home+public+office < 1).
        assert!(v.shares.0 + v.shares.1 + v.shares.2 <= 1.0);
    }
}
