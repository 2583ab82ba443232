//! An independent oracle for the served payload's headline figures.
//!
//! `QuerySet::evaluate` and `evaluate_payload` both build their payload
//! in one shared function, so the equivalence suites, which compare the
//! two, cannot see a fault inside it. This oracle recomputes `bins`,
//! `devices`, `wifi_share` and `venue_shares` from the dataset's bins as
//! rows, with ordered maps and no code shared with the kernels. Every
//! volume is an exact `u64` sum taken in row order, (device, time), so no
//! sum depends on the order of its terms, and each share is one `f64`
//! division of two such sums. The AP classification is an input: its own
//! oracle is `crates/core/tests/apclass_oracle.rs`.

use mobitrace_core::apclass::{classify, ApClass, ApClassification};
use mobitrace_model::{
    BinRecord, Dataset, DatasetColumns, DatasetIndex, DeviceId, WifiBinState, Year,
};
use mobitrace_query::{CompileOptions, Query, QuerySet, ServeRecord};
use mobitrace_sim::{campaign::run_campaign, CampaignConfig};
use std::collections::{BTreeMap, BTreeSet};

/// The four headline figures, as the oracle derives them.
#[derive(Debug)]
struct Headline {
    bins: usize,
    devices: usize,
    wifi_share: f64,
    venue_shares: (f64, f64, f64),
}

/// The headline figures of the rows `keep` admits, under `cls`.
///
/// - `bins`: admitted rows; `devices`: distinct devices among them.
/// - `wifi_share`: WiFi bytes (rx + tx) over all bytes (3G, LTE and WiFi,
///   rx + tx) of the admitted rows.
/// - `venue_shares`: over the admitted rows associated to an AP, the
///   WiFi bytes (rx + tx) at home, public and office APs, each over the
///   WiFi bytes of all associated rows (the "other" class included).
fn oracle(
    rows: &[BinRecord],
    keep: impl Fn(&BinRecord) -> bool,
    cls: &ApClassification,
) -> Headline {
    let mut bins = 0usize;
    let mut devices: BTreeSet<DeviceId> = BTreeSet::new();
    let (mut wifi, mut all) = (0u64, 0u64);
    let mut venue: BTreeMap<&str, u64> = BTreeMap::new();
    for b in rows.iter().filter(|b| keep(b)) {
        bins += 1;
        devices.insert(b.device);
        let wifi_bytes = b.rx_wifi + b.tx_wifi;
        wifi += wifi_bytes;
        all += b.rx_3g + b.tx_3g + b.rx_lte + b.tx_lte + wifi_bytes;
        if let WifiBinState::Associated(a) = b.wifi {
            let class = match cls.class_of[a.ap.index()] {
                ApClass::Home => "home",
                ApClass::Public => "public",
                ApClass::Office => "office",
                ApClass::Other => "other",
            };
            *venue.entry(class).or_default() += wifi_bytes;
        }
    }
    let share = |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
    let associated: u64 = venue.values().sum();
    let of = |class: &str| share(venue.get(class).copied().unwrap_or(0), associated);
    Headline {
        bins,
        devices: devices.len(),
        wifi_share: share(wifi, all),
        venue_shares: (of("home"), of("public"), of("office")),
    }
}

/// `got`'s payload against the oracle. `wifi_share` is summed from
/// per-hour rates by the kernel, so it may differ in the last bits.
fn assert_headline(got: &ServeRecord, want: &Headline) {
    let m = &got.metrics;
    assert_eq!(m.bins, want.bins, "bins, query {:?}", got.filter);
    assert_eq!(got.rows, want.bins, "rows, query {:?}", got.filter);
    assert_eq!(m.devices, want.devices, "devices, query {:?}", got.filter);
    assert!(
        (m.wifi_share - want.wifi_share).abs() <= 1e-12,
        "wifi share {} vs {}, query {:?}",
        m.wifi_share,
        want.wifi_share,
        got.filter
    );
    assert_eq!(m.venue_shares, want.venue_shares, "venue shares, query {:?}", got.filter);
}

/// The unfiltered query and a filtered one over a simulated campaign,
/// whose classification has home, public and office APs.
#[test]
fn served_payload_matches_row_oracle() {
    let cfg = CampaignConfig::scaled(Year::Y2015, 0.02).with_seed(11);
    let (ds, _) = run_campaign(&cfg);
    let rows = ds.bins.to_bins();
    let set = QuerySet {
        queries: vec![
            Query::unfiltered("all"),
            Query::parse("late-wifi", "wifi!=off && day>=1").expect("static filter"),
        ],
        opts: CompileOptions::default(),
    };
    let recs = set.evaluate(&ds, &DatasetIndex::build(&ds), &ds.bins, 1, None);

    let cls = classify(&ds);
    assert!(cls.counts.home > 0 && cls.counts.public > 0 && cls.counts.office > 0);
    let all = oracle(&rows, |_| true, &cls);
    assert!(all.venue_shares.0 > 0.0 && all.venue_shares.1 > 0.0 && all.venue_shares.2 > 0.0);
    assert_headline(&recs[0], &all);

    // A filtered query's classification is that of its own rows.
    let late_wifi = |b: &BinRecord| b.wifi.is_on() && b.time.day() >= 1;
    let picked: Vec<BinRecord> = rows.iter().filter(|b| late_wifi(b)).cloned().collect();
    let view = Dataset { bins: DatasetColumns::build(&picked), ..ds.clone() };
    let filtered = oracle(&rows, late_wifi, &classify(&view));
    assert!(filtered.bins > 0 && filtered.bins < all.bins);
    assert_headline(&recs[1], &filtered);
}
