//! Application-category breakdowns (Tables 6–7, §3.6).
//!
//! Android per-app volumes are attributed to a network × location context:
//! cellular at home / cellular elsewhere (home = the device's inferred
//! night-time cell, as the paper infers home locations for cellular), and
//! WiFi by the venue class of the associated AP.

use crate::apclass::ApClass;
use crate::ctx::AnalysisContext;
use crate::daily::TrafficClass;
use mobitrace_model::{AppCategory, BinRecord, Os};
use serde::{Deserialize, Serialize};

/// The four table contexts of Tables 6–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TableContext {
    /// Cellular at the home cell.
    CellHome,
    /// Cellular elsewhere.
    CellOther,
    /// WiFi on the device's home AP.
    WifiHome,
    /// WiFi on a public AP.
    WifiPublic,
}

impl TableContext {
    /// All contexts in table order.
    pub const ALL: [TableContext; 4] = [
        TableContext::CellHome,
        TableContext::CellOther,
        TableContext::WifiHome,
        TableContext::WifiPublic,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            TableContext::CellHome => "Cell home",
            TableContext::CellOther => "Cell other",
            TableContext::WifiHome => "WiFi home",
            TableContext::WifiPublic => "WiFi public",
        }
    }
}

/// Per-context per-category volumes (bytes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AppBreakdown {
    /// RX volume indexed by `[context][category]`.
    pub rx: [[u64; 26]; 4],
    /// TX volume indexed by `[context][category]`.
    pub tx: [[u64; 26]; 4],
}

impl AppBreakdown {
    /// Top `n` categories of a context by RX share: (category, percent).
    pub fn top_rx(&self, ctx: TableContext, n: usize) -> Vec<(AppCategory, f64)> {
        top(&self.rx[ctx as usize], n)
    }

    /// Top `n` categories of a context by TX share.
    pub fn top_tx(&self, ctx: TableContext, n: usize) -> Vec<(AppCategory, f64)> {
        top(&self.tx[ctx as usize], n)
    }
}

fn top(volumes: &[u64; 26], n: usize) -> Vec<(AppCategory, f64)> {
    let total: u64 = volumes.iter().sum();
    if total == 0 {
        return Vec::new();
    }
    let mut ranked: Vec<(AppCategory, f64)> = volumes
        .iter()
        .enumerate()
        .map(|(i, &v)| (AppCategory::ALL[i], v as f64 / total as f64 * 100.0))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("no NaNs"));
    ranked.truncate(n);
    ranked
}

/// Compute the Tables 6/7 breakdown, optionally restricted to a traffic
/// class (the paper also reports light-user mixes in §3.6).
///
/// Walks the context's user-day runs: non-Android devices and runs of
/// other classes are skipped wholesale, with the class resolved once per
/// run. Within a run it scans the CSR app column: bins without app
/// entries cost one offset compare, and the entries themselves stream
/// from one flat allocation.
pub fn app_breakdown(ctx: &AnalysisContext<'_>, class: Option<TrafficClass>) -> AppBreakdown {
    let cols = &ctx.cols;
    let mut out = AppBreakdown::default();
    for run in ctx.user_day_runs() {
        if ctx.ds.devices[run.device.index()].os != Os::Android
            || class.is_some_and(|want| run.class != want)
        {
            continue;
        }
        let home_cell = ctx.home_cell.get(&run.device);
        for i in run.rows {
            let apps = cols.apps_of(i);
            if apps.is_empty() {
                continue;
            }
            // Which context does this bin belong to?
            let table_ctx = match cols.assoc_ap_of(i) {
                Some(ap) => match ctx.aps.class(ap) {
                    ApClass::Home if ctx.aps.is_device_home(run.device, ap) => {
                        TableContext::WifiHome
                    }
                    ApClass::Public => TableContext::WifiPublic,
                    // Office/other/foreign-home WiFi is outside the four
                    // table columns, as in the paper.
                    _ => continue,
                },
                None => {
                    if cols.rx_cell(i) + cols.tx_cell(i) == 0 {
                        continue;
                    }
                    if home_cell == Some(&cols.geo[i]) {
                        TableContext::CellHome
                    } else {
                        TableContext::CellOther
                    }
                }
            };
            let slot = table_ctx as usize;
            for app in apps {
                out.rx[slot][app.category.index()] += app.rx_bytes;
                out.tx[slot][app.category.index()] += app.tx_bytes;
            }
        }
    }
    out
}

/// Row-scan reference for [`app_breakdown`] (kept for equivalence tests
/// and benchmarks).
pub fn app_breakdown_rows(
    ctx: &AnalysisContext<'_>,
    bins: &[BinRecord],
    class: Option<TrafficClass>,
) -> AppBreakdown {
    let mut out = AppBreakdown::default();
    for dev in &ctx.ds.devices {
        if dev.os != Os::Android {
            continue;
        }
        for (day, range) in ctx.index.day_spans(dev.device) {
            if let Some(want) = class {
                if ctx.class_of(dev.device, day) != Some(want) {
                    continue;
                }
            }
            for b in &bins[range] {
                if b.apps.is_empty() {
                    continue;
                }
                let table_ctx = match b.wifi.assoc() {
                    Some(a) => match ctx.aps.class(a.ap) {
                        ApClass::Home if ctx.aps.is_device_home(b.device, a.ap) => {
                            TableContext::WifiHome
                        }
                        ApClass::Public => TableContext::WifiPublic,
                        _ => continue,
                    },
                    None => {
                        if b.rx_cell() + b.tx_cell() == 0 {
                            continue;
                        }
                        if ctx.is_at_home_cell(b.device, b.geo) {
                            TableContext::CellHome
                        } else {
                            TableContext::CellOther
                        }
                    }
                };
                let slot = table_ctx as usize;
                for app in &b.apps {
                    out.rx[slot][app.category.index()] += app.rx_bytes;
                    out.tx[slot][app.category.index()] += app.tx_bytes;
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

    fn dataset() -> Dataset {
        let mut bins = Vec::new();
        let home_cell = CellId::new(3, 3);
        let town = CellId::new(8, 8);
        // Night bins establish the home cell.
        for day in 0..3u32 {
            for nb in 0..30u32 {
                bins.push(mk_bin(day, nb, home_cell, None, vec![]));
            }
        }
        // Cellular at home: video.
        bins.push(mk_bin(
            0,
            120,
            home_cell,
            None,
            vec![AppBin { category: AppCategory::Video, rx_bytes: 900, tx_bytes: 30 }],
        ));
        // Cellular elsewhere: browser.
        bins.push(mk_bin(
            1,
            80,
            town,
            None,
            vec![AppBin { category: AppCategory::Browser, rx_bytes: 700, tx_bytes: 70 }],
        ));
        // WiFi public: downloading.
        bins.push(mk_bin(
            2,
            80,
            town,
            Some(0),
            vec![AppBin { category: AppCategory::Downloading, rx_bytes: 500, tx_bytes: 5 }],
        ));
        bins.sort_by_key(|b| (b.device, b.time));
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
            aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("0000carrier-a") }],
            bins: DatasetColumns::build(&bins),
        }
    }

    fn mk_bin(day: u32, bin: u32, cell: CellId, ap: Option<u32>, apps: Vec<AppBin>) -> BinRecord {
        let cell_rx: u64 =
            if ap.is_none() { apps.iter().map(|a| a.rx_bytes).sum::<u64>().max(1) } else { 0 };
        BinRecord {
            device: DeviceId(0),
            time: SimTime::from_day_bin(day, bin),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: cell_rx,
            tx_lte: 0,
            rx_wifi: if ap.is_some() { apps.iter().map(|a| a.rx_bytes).sum() } else { 0 },
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
            apps,
            geo: cell,
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn contexts_separate_volumes() {
        let ds = dataset();
        let actx = AnalysisContext::new(&ds);
        let b = app_breakdown(&actx, None);
        assert_eq!(b, app_breakdown_rows(&actx, &ds.bins.to_bins(), None));
        assert_eq!(b.rx[TableContext::CellHome as usize][AppCategory::Video.index()], 900);
        assert_eq!(b.rx[TableContext::CellOther as usize][AppCategory::Browser.index()], 700);
        assert_eq!(b.rx[TableContext::WifiPublic as usize][AppCategory::Downloading.index()], 500);
        assert_eq!(b.rx[TableContext::WifiHome as usize].iter().sum::<u64>(), 0);
    }

    #[test]
    fn top_ranking_and_percentages() {
        let ds = dataset();
        let actx = AnalysisContext::new(&ds);
        let b = app_breakdown(&actx, None);
        let top = b.top_rx(TableContext::CellHome, 3);
        assert_eq!(top[0].0, AppCategory::Video);
        assert!((top[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_context_has_no_top() {
        let ds = dataset();
        let actx = AnalysisContext::new(&ds);
        let b = app_breakdown(&actx, None);
        assert!(b.top_rx(TableContext::WifiHome, 5).is_empty());
    }
}
