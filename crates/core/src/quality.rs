//! WiFi quality: RSSI distributions (Fig. 15) and 2.4 GHz channel usage
//! (Fig. 16).

use crate::apclass::{ApClass, ApClassification};
use crate::stats::Histogram;
use mobitrace_model::{AllRows, Band, Dataset, DatasetColumns, Dbm, RowSet};
use serde::{Deserialize, Serialize};

/// Fig. 15: per-class PDF of the *maximum* RSSI observed for each
/// associated 2.4 GHz AP, plus summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RssiAnalysis {
    /// Histogram over [-95, -20] dBm for home APs.
    pub home: Histogram,
    /// Same for public APs.
    pub public: Histogram,
    /// Same for office APs.
    pub office: Histogram,
    /// Mean max-RSSI per class (home, public, office).
    pub means: (f64, f64, f64),
    /// Share of APs weaker than -70 dBm per class (home, public, office).
    pub weak_shares: (f64, f64, f64),
}

/// Compute Fig. 15 (2.4 GHz associations only, as in the paper).
pub fn rssi_analysis(cols: &DatasetColumns, cls: &ApClassification) -> RssiAnalysis {
    rssi_analysis_over(cols, &AllRows, cls)
}

/// [`rssi_analysis`] over the rows of `rows` only, read in place. Iterates
/// the set's associated rows ([`RowSet::associated`]), gathering
/// band/AP/RSSI into a dense per-AP max-RSSI table (no hash map; max is
/// order-independent and the per-class sums accumulate in AP-table order,
/// so the floating-point result is deterministic and identical to
/// [`rssi_analysis_rows`]).
pub fn rssi_analysis_over(
    cols: &DatasetColumns,
    rows: &impl RowSet,
    cls: &ApClassification,
) -> RssiAnalysis {
    let mut max_rssi: Vec<Option<Dbm>> = vec![None; cls.class_of.len()];
    for &ri in rows.associated(cols) {
        let i = ri as usize;
        if cols.assoc_band[i] == Band::Ghz24 {
            let rssi = cols.assoc_rssi[i];
            let m = &mut max_rssi[cols.assoc_ap[i].index()];
            *m = Some(m.map_or(rssi, |cur| cur.max(rssi)));
        }
    }
    finish_rssi(&max_rssi, cls)
}

/// Row-scan reference for [`rssi_analysis`] (kept for equivalence tests
/// and benchmarks).
pub fn rssi_analysis_rows(ds: &Dataset, cls: &ApClassification) -> RssiAnalysis {
    let mut max_rssi: Vec<Option<Dbm>> = vec![None; cls.class_of.len()];
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            if a.band == Band::Ghz24 {
                let m = &mut max_rssi[a.ap.index()];
                *m = Some(m.map_or(a.rssi, |cur| cur.max(a.rssi)));
            }
        }
    }
    finish_rssi(&max_rssi, cls)
}

fn finish_rssi(max_rssi: &[Option<Dbm>], cls: &ApClassification) -> RssiAnalysis {
    let mut hists = [
        Histogram::new(-95.0, -20.0, 75),
        Histogram::new(-95.0, -20.0, 75),
        Histogram::new(-95.0, -20.0, 75),
    ];
    let mut sums = [0.0f64; 3];
    let mut weak = [0usize; 3];
    let mut counts = [0usize; 3];
    for (idx, rssi) in max_rssi.iter().enumerate() {
        let Some(rssi) = rssi else {
            continue;
        };
        let slot = match cls.class_of[idx] {
            ApClass::Home => 0,
            ApClass::Public => 1,
            ApClass::Office => 2,
            ApClass::Other => continue,
        };
        let v = rssi.as_f64();
        hists[slot].add(v);
        sums[slot] += v;
        counts[slot] += 1;
        if !rssi.is_strong() {
            weak[slot] += 1;
        }
    }
    let stat = |i: usize| {
        if counts[i] == 0 {
            (0.0, 0.0)
        } else {
            (sums[i] / counts[i] as f64, weak[i] as f64 / counts[i] as f64)
        }
    };
    let (m0, w0) = stat(0);
    let (m1, w1) = stat(1);
    let (m2, w2) = stat(2);
    let [home, public, office] = hists;
    RssiAnalysis { home, public, office, means: (m0, m1, m2), weak_shares: (w0, w1, w2) }
}

/// Fig. 16: distribution over the 13 Japanese 2.4 GHz channels of unique
/// associated APs, home vs public.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ChannelAnalysis {
    /// P(channel) for home APs, index 0 = channel 1.
    pub home: [f64; 13],
    /// P(channel) for public APs.
    pub public: [f64; 13],
}

impl ChannelAnalysis {
    /// Share of home APs on the factory-default channel 1.
    pub fn home_default_share(&self) -> f64 {
        self.home[0]
    }

    /// Share of public APs on the orthogonal set {1, 6, 11}.
    pub fn public_orthogonal_share(&self) -> f64 {
        self.public[0] + self.public[5] + self.public[10]
    }
}

/// Compute Fig. 16. Iterates the `sel_associated` selection vector (the
/// associated rows in ascending order, so "first seen" is the same row as
/// in [`channel_analysis_rows`]) into a dense per-AP first-seen-channel
/// table.
pub fn channel_analysis(cols: &DatasetColumns, cls: &ApClassification) -> ChannelAnalysis {
    let mut chan_of: Vec<Option<u8>> = vec![None; cls.class_of.len()];
    for &ri in &cols.sel_associated {
        let i = ri as usize;
        let ap = cols.assoc_ap[i].index();
        if cols.assoc_band[i] == Band::Ghz24 && chan_of[ap].is_none() {
            chan_of[ap] = Some(cols.assoc_channel[i].0);
        }
    }
    finish_channels(&chan_of, cls)
}

/// Row-scan reference for [`channel_analysis`] (kept for equivalence tests
/// and benchmarks).
pub fn channel_analysis_rows(ds: &Dataset, cls: &ApClassification) -> ChannelAnalysis {
    let mut chan_of: Vec<Option<u8>> = vec![None; cls.class_of.len()];
    for b in &ds.bins {
        if let Some(a) = b.wifi.assoc() {
            if a.band == Band::Ghz24 && chan_of[a.ap.index()].is_none() {
                chan_of[a.ap.index()] = Some(a.channel.0);
            }
        }
    }
    finish_channels(&chan_of, cls)
}

fn finish_channels(chan_of: &[Option<u8>], cls: &ApClassification) -> ChannelAnalysis {
    let mut home = [0.0f64; 13];
    let mut public = [0.0f64; 13];
    let (mut n_home, mut n_public) = (0.0f64, 0.0f64);
    for (idx, ch) in chan_of.iter().enumerate() {
        let Some(ch) = *ch else {
            continue;
        };
        if !(1..=13).contains(&ch) {
            continue;
        }
        match cls.class_of[idx] {
            ApClass::Home => {
                home[usize::from(ch) - 1] += 1.0;
                n_home += 1.0;
            }
            ApClass::Public => {
                public[usize::from(ch) - 1] += 1.0;
                n_public += 1.0;
            }
            _ => {}
        }
    }
    if n_home > 0.0 {
        for v in &mut home {
            *v /= n_home;
        }
    }
    if n_public > 0.0 {
        for v in &mut public {
            *v /= n_public;
        }
    }
    ChannelAnalysis { home, public }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    struct B(Dataset);

    impl B {
        fn new() -> B {
            B(Dataset {
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
                aps: vec![],
                bins: vec![],
            })
        }

        fn assoc_ap(&mut self, essid: &str, channel: u8, rssis: &[i16]) {
            let ap = ApRef(self.0.aps.len() as u32);
            self.0.aps.push(ApEntry {
                bssid: Bssid::from_u64(ap.0 as u64 + 1),
                essid: Essid::new(essid),
            });
            for (k, &r) in rssis.iter().enumerate() {
                let t = self.0.bins.len() as u32;
                let _ = k;
                self.0.bins.push(BinRecord {
                    device: DeviceId(0),
                    time: SimTime::from_minutes(t * 10),
                    rx_3g: 0,
                    tx_3g: 0,
                    rx_lte: 0,
                    tx_lte: 0,
                    rx_wifi: 0,
                    tx_wifi: 0,
                    wifi: WifiBinState::Associated(WifiAssoc {
                        ap,
                        band: Band::Ghz24,
                        channel: Channel(channel),
                        rssi: Dbm::new(r),
                    }),
                    scan: ScanSummary::default(),
                    apps: vec![],
                    geo: CellId::new(0, 0),
                    os_version: OsVersion::new(4, 4),
                });
            }
        }
    }

    #[test]
    fn max_rssi_per_ap() {
        let mut b = B::new();
        b.assoc_ap("0000carrier-a", 6, &[-80, -60, -72]);
        b.assoc_ap("7SPOT", 11, &[-75, -71]);
        let ds = b.0;
        let cls = crate::apclass::classify(&ds);
        let r = rssi_analysis(&DatasetColumns::build(&ds), &cls);
        assert_eq!(r, rssi_analysis_rows(&ds, &cls));
        // Max RSSIs are -60 (strong) and -71 (weak): mean -65.5, weak ½.
        assert!((r.means.1 - (-65.5)).abs() < 1e-9, "{}", r.means.1);
        assert!((r.weak_shares.1 - 0.5).abs() < 1e-12);
        assert_eq!(r.public.total(), 2);
        assert_eq!(r.home.total(), 0);
    }

    #[test]
    fn channel_distribution() {
        let mut b = B::new();
        b.assoc_ap("0000carrier-a", 1, &[-60]);
        b.assoc_ap("0001carrier-c", 6, &[-60]);
        b.assoc_ap("7SPOT", 11, &[-60]);
        b.assoc_ap("Metro_Free_Wi-Fi", 11, &[-60]);
        let ds = b.0;
        let cls = crate::apclass::classify(&ds);
        let c = channel_analysis(&DatasetColumns::build(&ds), &cls);
        assert_eq!(c, channel_analysis_rows(&ds, &cls));
        assert!((c.public[0] - 0.25).abs() < 1e-12);
        assert!((c.public[10] - 0.5).abs() < 1e-12);
        assert!((c.public_orthogonal_share() - 1.0).abs() < 1e-12);
        assert_eq!(c.home_default_share(), 0.0);
    }

    #[test]
    fn pdf_density_positive_where_mass() {
        let mut b = B::new();
        b.assoc_ap("0000carrier-a", 6, &[-55]);
        let ds = b.0;
        let cls = crate::apclass::classify(&ds);
        let r = rssi_analysis(&DatasetColumns::build(&ds), &cls);
        let pdf = r.public.pdf();
        let at_55: f64 =
            pdf.iter().filter(|(c, _)| (*c - (-55.0)).abs() < 1.0).map(|(_, d)| *d).sum();
        assert!(at_55 > 0.0);
    }
}
