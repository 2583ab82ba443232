//! Filtered-query ≡ eager-filtered-batch equivalence.
//!
//! The properties the serve layer stands on: compiling a filter into a
//! selection vector and either materializing it (gathered columns,
//! rebuilt index, `AnalysisContext::from_parts`) or serving it in place
//! (`QuerySet::evaluate`, the passes reading the selection over the
//! snapshot's own columns) is **bit-identical** — every context product
//! and every metric in the payload — to eagerly cloning the selected bins
//! into a fresh `Dataset` and running the whole batch pipeline
//! (`AnalysisContext::new`) over that copy. Filtering is a view, never an
//! approximation.
//!
//! Adversarial shapes are generated on purpose: empty filter results
//! (`device=99` matches nothing), single-device datasets, and row counts
//! that are not multiples of any SIMD lane width (sizes drawn from
//! 0..13).

use mobitrace_core::AnalysisContext;
use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, Os,
    OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
};
use mobitrace_query::{
    evaluate_payload, materialize, parse, select_rows, CompileOptions, Query, QuerySet,
};
use proptest::prelude::*;

/// Expression pool: every field, both adversarial extremes (`device=99`
/// selects nothing on these datasets; `device=0` pins a single device),
/// venue predicates (forcing the classification path) and nested boolean
/// structure.
const EXPRS: &[&str] = &[
    "device=99",
    "device=0",
    "device!=0",
    "day>=2",
    "day<1",
    "hour>=6 && hour<22",
    "os=android",
    "os!=android",
    "wifi=assoc",
    "wifi=available",
    "wifi!=off",
    "venue=home",
    "venue!=home",
    "venue=public || venue=office",
    "cohort=0 || cohort=2",
    "!(wifi=off || day<1)",
    "(venue=home && hour>=18) || wifi=available",
];

fn make_bin(dev: u32, day: u32, slot: u32, wifi_kind: u8, ap: u32, vol: u64) -> BinRecord {
    let wifi = match wifi_kind {
        0 => WifiBinState::Off,
        1 => WifiBinState::OnUnassociated,
        _ => WifiBinState::Associated(WifiAssoc {
            ap: ApRef(ap),
            band: if ap.is_multiple_of(2) { Band::Ghz24 } else { Band::Ghz5 },
            channel: Channel(6),
            rssi: Dbm::new(-40 - (ap as i16) * 9),
        }),
    };
    BinRecord {
        device: DeviceId(dev),
        // 16 slots per day spread across the 24 h so hour predicates see
        // both halves of an `hour>=6 && hour<22` window.
        time: SimTime::from_day_bin(day, slot * 9),
        rx_3g: vol / 7,
        tx_3g: vol / 19,
        rx_lte: vol,
        tx_lte: vol / 4,
        rx_wifi: vol * 2,
        tx_wifi: vol / 2,
        wifi,
        scan: ScanSummary {
            n24_all: (vol % 5) as u16,
            n24_public_strong: (vol % 3) as u16,
            ..ScanSummary::default()
        },
        apps: if vol.is_multiple_of(2) {
            vec![AppBin { category: AppCategory::Video, rx_bytes: vol / 3, tx_bytes: vol / 9 }]
        } else {
            vec![]
        },
        geo: CellId::new((dev % 5) as i16, (day % 3) as i16),
        os_version: OsVersion::new(4, 4),
    }
}

fn make_dataset(n_devices: u32, raw: &[(u32, u32, u32, u8, u32, u64)]) -> Dataset {
    let mut bins: Vec<BinRecord> = Vec::new();
    for &(dev, day, slot, wifi_kind, ap, vol) in raw {
        bins.push(make_bin(dev % n_devices, day, slot, wifi_kind, ap, vol));
    }
    bins.sort_by_key(|b| (b.device, b.time));
    bins.dedup_by_key(|b| (b.device, b.time));
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2013,
            start: Year::Y2013.campaign_start(),
            days: 6,
            seed: 0,
        },
        devices: (0..n_devices)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: if i % 2 == 0 { Os::Android } else { Os::Ios },
                carrier: Carrier::B,
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: (0..4u64)
            .map(|i| ApEntry {
                bssid: Bssid::from_u64(0xBB_0000 + i),
                essid: Essid::new(format!("net-{i}")),
            })
            .collect(),
        bins,
    }
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// For any generated dataset and any pool expression: the lazy
    /// filtered view (gather + index rebuild + `from_parts`) equals the
    /// eager filtered copy (bin clone + full `AnalysisContext::new`) in
    /// every context product and every payload metric.
    #[test]
    fn filtered_view_equals_eager_copy(
        n_devices in 1u32..4,
        raw in prop::collection::vec(
            (0u32..4, 0u32..6, 0u32..16, 0u8..3, 0u32..4, 0u64..50_000),
            0..13,
        ),
        expr_idx in 0usize..EXPRS.len(),
    ) {
        let src = EXPRS[expr_idx];
        let ds = make_dataset(n_devices, &raw);
        let cols = DatasetColumns::build(&ds);
        let expr = parse(src).unwrap();
        let opts = CompileOptions::default();
        let rows = select_rows(&expr, &ds, &cols, opts);

        // Lazy path: the serve layer's per-generation work.
        let view = materialize(&ds, &cols, &rows);
        let lazy = view.context();

        // Eager path: clone the selected bins and run the batch pipeline
        // from scratch.
        let eager_ds = Dataset {
            meta: ds.meta.clone(),
            devices: ds.devices.clone(),
            aps: ds.aps.clone(),
            bins: rows.iter().map(|&r| ds.bins[r as usize].clone()).collect(),
        };
        let eager = AnalysisContext::new(&eager_ds);

        prop_assert_eq!(*lazy.ds, eager_ds);
        prop_assert_eq!(&lazy.index, &eager.index);
        prop_assert_eq!(&lazy.cols, &eager.cols);
        prop_assert_eq!(&lazy.days, &eager.days);
        prop_assert_eq!(&lazy.classes, &eager.classes);
        prop_assert_eq!(lazy.thresholds, eager.thresholds);
        prop_assert_eq!(&lazy.aps, &eager.aps);
        prop_assert_eq!(&lazy.home_cell, &eager.home_cell);
        prop_assert_eq!(evaluate_payload(&lazy), evaluate_payload(&eager));
    }
}

/// The eager reference for one selection: the selected bins cloned into a
/// fresh dataset.
fn eager_copy(ds: &Dataset, rows: &[u32]) -> Dataset {
    Dataset {
        meta: ds.meta.clone(),
        devices: ds.devices.clone(),
        aps: ds.aps.clone(),
        bins: rows.iter().map(|&r| ds.bins[r as usize].clone()).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// The serve path reads each selection in place. For every pool
    /// expression, each `QuerySet::evaluate` record — on the dataset with
    /// its rows and on its columns-only form — equals the batch payload
    /// over the eagerly copied selection in `metrics`, `rows` and
    /// `devices`.
    #[test]
    fn served_records_equal_eager_payload(
        n_devices in 1u32..4,
        raw in prop::collection::vec(
            (0u32..4, 0u32..6, 0u32..16, 0u8..3, 0u32..4, 0u64..50_000),
            0..13,
        ),
    ) {
        let ds = make_dataset(n_devices, &raw);
        let cols = DatasetColumns::build(&ds);
        let index = DatasetIndex::build(&ds);
        let opts = CompileOptions::default();
        let queries = EXPRS
            .iter()
            .enumerate()
            .map(|(i, src)| Query::parse(format!("q{i}"), src).unwrap())
            .collect();
        let set = QuerySet { queries, opts };
        let columns_only = Dataset { bins: Vec::new(), ..ds.clone() };
        for snapshot in [&ds, &columns_only] {
            let recs = set.evaluate(snapshot, &index, &cols, 1, None);
            prop_assert_eq!(recs.len(), EXPRS.len());
            for (rec, src) in recs.iter().zip(EXPRS) {
                let rows = select_rows(&parse(src).unwrap(), &ds, &cols, opts);
                let eager_ds = eager_copy(&ds, &rows);
                let eager = AnalysisContext::new(&eager_ds);
                // Row and device counts straight from the eager copy, so
                // they do not lean on the payload code both sides share.
                prop_assert_eq!(rec.rows, eager_ds.bins.len(), "{}", src);
                let devices = eager.index.devices_with_bins().count();
                prop_assert_eq!(rec.metrics.devices, devices, "{}", src);
                prop_assert_eq!(&rec.metrics, &evaluate_payload(&eager), "{}", src);
            }
        }
    }
}

/// The three named adversarial shapes, pinned deterministically so they
/// run on every `cargo test` even when the random cases miss them.
#[test]
fn adversarial_shapes_pinned() {
    // 11 bins: not a multiple of 2, 4 or 8 lanes.
    let raw: Vec<(u32, u32, u32, u8, u32, u64)> =
        (0..11).map(|i| (i % 3, i % 6, i, (i % 3) as u8, i % 4, u64::from(i) * 1019)).collect();
    for (n_devices, src) in [
        (3, "device=99"), // empty filter result
        (1, "device=0"),  // single device, full selection
        (3, "wifi=assoc"),
    ] {
        let ds = make_dataset(n_devices, &raw);
        let cols = DatasetColumns::build(&ds);
        let expr = parse(src).unwrap();
        let rows = select_rows(&expr, &ds, &cols, CompileOptions::default());
        let view = materialize(&ds, &cols, &rows);
        let lazy = view.context();
        let eager_ds = Dataset {
            meta: ds.meta.clone(),
            devices: ds.devices.clone(),
            aps: ds.aps.clone(),
            bins: rows.iter().map(|&r| ds.bins[r as usize].clone()).collect(),
        };
        let eager = AnalysisContext::new(&eager_ds);
        assert_eq!(lazy.cols, eager.cols, "{src}");
        assert_eq!(lazy.index, eager.index, "{src}");
        assert_eq!(evaluate_payload(&lazy), evaluate_payload(&eager), "{src}");
    }
}
