//! Predicate compiler: [`FilterExpr`] → ascending row-selection vector.
//!
//! Compilation works a column at a time: each predicate becomes a per-row
//! mask from one scan of the column it tests, the masks combine
//! element-wise under the boolean operators, and the rows left set are
//! collected in order, so the output is an ascending selection vector in
//! the same sense as `DatasetColumns::sel_associated`. Venue predicates
//! need the AP classification; [`select_rows`] builds it at most once per
//! compile and only when the expression actually mentions `venue`
//! ([`FilterExpr::uses_venue`]), and [`select_rows_with`] takes one the
//! caller already holds (the query executor shares one per generation).
//!
//! The query executor reads a selection in place: the payload passes take
//! it as a `Selection` row set over the snapshot's own columns, so serving
//! a filter copies no column. Row filtering narrows *observations*, never
//! the identifier space, so `ApRef`/`DeviceId` indexes stay valid.
//! [`materialize`] is for callers that want a self-contained
//! [`FilteredDataset`]: its bins are the gathered columns
//! (`DatasetColumns::gather`, bit-identical to building them from the
//! filtered rows), with the index rebuilt from their device/time
//! columns. No row is rebuilt.

use crate::expr::{CmpOp, FilterExpr, Predicate, WifiClass};
use mobitrace_core::apclass::{classify_cols, ApClassification};
use mobitrace_core::AnalysisContext;
use mobitrace_model::{Dataset, DatasetColumns, DatasetIndex, DeviceId, WifiTag};
use std::borrow::Cow;

/// Knobs the compiler needs beyond the dataset itself.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Cohort count for `cohort=` predicates — must match the fleet
    /// router's `--cohorts` for the buckets to line up.
    pub n_cohorts: u32,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions { n_cohorts: 4 }
    }
}

/// The fleet router's device→cohort hash (splitmix64 output mixer over
/// the device id), replicated here so `--where "cohort=2"` selects
/// exactly the rows the fleet frontend routed to cohort 2. Parity with
/// `CohortRouter::cohort_of` is pinned by a cross-crate test.
pub fn cohort_of(device: DeviceId, n_cohorts: u32) -> u32 {
    let mut x = u64::from(device.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % u64::from(n_cohorts.max(1))) as u32
}

/// The per-row truth of one predicate over every row of `cols`: one scan
/// of the column the predicate tests. Device and AP properties (OS,
/// venue class) are decided once per table entry and looked up per row.
/// `aps` is `Some` iff the expression mentions venue.
fn pred_mask(
    p: &Predicate,
    ds: &Dataset,
    cols: &DatasetColumns,
    aps: Option<&ApClassification>,
    opts: CompileOptions,
) -> Vec<bool> {
    // op is Eq or Ne for the categorical predicates (parser-enforced);
    // Ne flips.
    let eq = |op: CmpOp, matches: bool| matches == (op == CmpOp::Eq);
    match *p {
        Predicate::Device(op, v) => cols.device.iter().map(|d| op.eval(d.0, v)).collect(),
        Predicate::Cohort(op, v) => {
            cols.device.iter().map(|&d| op.eval(cohort_of(d, opts.n_cohorts), v)).collect()
        }
        Predicate::Day(op, v) => cols.time.iter().map(|t| op.eval(t.day(), v)).collect(),
        Predicate::Hour(op, v) => cols.time.iter().map(|t| op.eval(t.hour(), v)).collect(),
        Predicate::Os(op, os) => {
            let of_device: Vec<bool> = ds.devices.iter().map(|d| op.eval(d.os, os)).collect();
            cols.device.iter().map(|d| of_device[d.index()]).collect()
        }
        Predicate::Wifi(op, w) => cols
            .wifi_tag
            .iter()
            .map(|&tag| {
                eq(
                    op,
                    match w {
                        WifiClass::Off => tag == WifiTag::Off,
                        WifiClass::On => tag.is_on(),
                        WifiClass::Assoc => tag == WifiTag::Associated,
                        WifiClass::Available => tag == WifiTag::OnUnassociated,
                    },
                )
            })
            .collect(),
        Predicate::Venue(op, v) => {
            let aps = aps.expect("venue predicate without classification");
            let of_ap: Vec<bool> = aps.class_of.iter().map(|&class| eq(op, class == v)).collect();
            // Venue predicates range over *associated* rows only: an
            // unassociated bin has no venue, so it matches neither
            // `venue=home` nor `venue!=home`.
            cols.wifi_tag
                .iter()
                .zip(&cols.assoc_ap)
                .map(|(&tag, ap)| tag == WifiTag::Associated && of_ap[ap.index()])
                .collect()
        }
    }
}

/// The per-row truth of an expression: predicate masks combined
/// element-wise under the boolean operators.
fn expr_mask(
    e: &FilterExpr,
    ds: &Dataset,
    cols: &DatasetColumns,
    aps: Option<&ApClassification>,
    opts: CompileOptions,
) -> Vec<bool> {
    let combine = |a: &FilterExpr, b: &FilterExpr, op: fn(bool, bool) -> bool| {
        let mut m = expr_mask(a, ds, cols, aps, opts);
        for (x, y) in m.iter_mut().zip(expr_mask(b, ds, cols, aps, opts)) {
            *x = op(*x, y);
        }
        m
    };
    match e {
        FilterExpr::Pred(p) => pred_mask(p, ds, cols, aps, opts),
        FilterExpr::And(a, b) => combine(a, b, |x, y| x && y),
        FilterExpr::Or(a, b) => combine(a, b, |x, y| x || y),
        FilterExpr::Not(a) => {
            let mut m = expr_mask(a, ds, cols, aps, opts);
            for x in &mut m {
                *x = !*x;
            }
            m
        }
    }
}

/// Compile the expression against one snapshot: an ascending vector of
/// the row indexes that satisfy it. The AP classification is computed
/// here (once) only if the expression mentions venue.
pub fn select_rows(
    expr: &FilterExpr,
    ds: &Dataset,
    cols: &DatasetColumns,
    opts: CompileOptions,
) -> Vec<u32> {
    let aps = expr.uses_venue().then(|| classify_cols(ds, cols));
    select_rows_with(expr, ds, cols, aps.as_ref(), opts)
}

/// [`select_rows`] with the snapshot's AP classification supplied by the
/// caller. `aps` must be `classify_cols(ds, cols)` and must be present
/// when the expression mentions venue.
pub fn select_rows_with(
    expr: &FilterExpr,
    ds: &Dataset,
    cols: &DatasetColumns,
    aps: Option<&ApClassification>,
    opts: CompileOptions,
) -> Vec<u32> {
    let mask = expr_mask(expr, ds, cols, aps, opts);
    mask.iter().enumerate().filter(|&(_, &keep)| keep).map(|(i, _)| i as u32).collect()
}

/// A filtered snapshot view: the selected bins as a self-consistent
/// dataset plus its prebuilt index.
pub struct FilteredDataset {
    /// The filtered dataset (full device/AP tables, selected bins only).
    pub ds: Dataset,
    /// Bin-range index over `ds.bins`.
    pub index: DatasetIndex,
    /// The selection vector that produced this view (row indexes into the
    /// *source* snapshot).
    pub rows: Vec<u32>,
}

impl FilteredDataset {
    /// Build the analysis context over the filtered view without
    /// re-scanning or copying: the context borrows the prebuilt index and
    /// the bins, so the view can serve repeated evaluations.
    pub fn context(&self) -> AnalysisContext<'_> {
        AnalysisContext::from_cow_parts(
            &self.ds,
            Cow::Borrowed(&self.index),
            Cow::Borrowed(&self.ds.bins),
        )
    }
}

/// Materialize a selection into a [`FilteredDataset`]: the gathered
/// columns as its bins and the index rebuilt from their device/time
/// columns (both bit-identical to building from the filtered rows; the
/// property tests pin it). Works on columns-only sources too.
pub fn materialize(ds: &Dataset, cols: &DatasetColumns, rows: &[u32]) -> FilteredDataset {
    let fds = Dataset {
        meta: ds.meta.clone(),
        devices: ds.devices.clone(),
        aps: ds.aps.clone(),
        bins: cols.gather(rows),
    };
    let index = DatasetIndex::build(&fds);
    FilteredDataset { ds: fds, index, rows: rows.to_vec() }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::expr::parse;
    use mobitrace_model::{
        ApEntry, ApRef, AppBin, BinRecord, Bssid, CampaignMeta, Carrier, CellId, DeviceInfo, Essid,
        Os, OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
    };

    fn assoc(ap: u32) -> WifiBinState {
        WifiBinState::Associated(WifiAssoc {
            ap: ApRef(ap),
            band: mobitrace_model::Band::Ghz24,
            channel: mobitrace_model::Channel(6),
            rssi: mobitrace_model::Dbm::new(-50),
        })
    }

    fn bin(dev: u32, day: u32, b: u32, wifi: WifiBinState) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, b),
            rx_3g: 10,
            tx_3g: 1,
            rx_lte: 100,
            tx_lte: 10,
            rx_wifi: 1000,
            tx_wifi: 100,
            wifi,
            scan: ScanSummary::default(),
            apps: vec![AppBin {
                category: mobitrace_model::AppCategory::Browser,
                rx_bytes: 7,
                tx_bytes: 3,
            }],
            geo: CellId::new(dev as i16, day as i16),
            os_version: OsVersion::new(4, 4),
        }
    }

    pub(crate) fn dataset() -> Dataset {
        let mut bins = Vec::new();
        for dev in 0..3u32 {
            for day in 0..4u32 {
                bins.push(bin(dev, day, 10, WifiBinState::Off));
                bins.push(bin(dev, day, 70, WifiBinState::OnUnassociated));
                bins.push(bin(dev, day, 135, assoc(dev)));
            }
        }
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 5,
                seed: 0,
            },
            devices: (0..3)
                .map(|i| DeviceInfo {
                    device: DeviceId(i),
                    os: if i == 0 { Os::Ios } else { Os::Android },
                    carrier: Carrier::B,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: (0..3u64)
                .map(|i| ApEntry { bssid: Bssid::from_u64(i), essid: Essid::new("x") })
                .collect(),
            bins: DatasetColumns::build(&bins),
        }
    }

    /// Reference implementation: per-bin row-record scan, no columns.
    fn naive_rows(expr_src: &str, ds: &Dataset) -> Vec<u32> {
        let cols = &ds.bins;
        let expr = parse(expr_src).unwrap();
        let aps = classify_cols(ds, cols);
        let opts = CompileOptions::default();
        let mut out = Vec::new();
        for (i, b) in ds.bins.to_bins().iter().enumerate() {
            let keep = eval_naive(&expr, b, ds, &aps, opts);
            if keep {
                out.push(i as u32);
            }
        }
        out
    }

    fn eval_naive(
        e: &FilterExpr,
        b: &BinRecord,
        ds: &Dataset,
        aps: &ApClassification,
        opts: CompileOptions,
    ) -> bool {
        use crate::expr::CmpOp;
        match e {
            FilterExpr::And(x, y) => {
                eval_naive(x, b, ds, aps, opts) && eval_naive(y, b, ds, aps, opts)
            }
            FilterExpr::Or(x, y) => {
                eval_naive(x, b, ds, aps, opts) || eval_naive(y, b, ds, aps, opts)
            }
            FilterExpr::Not(x) => !eval_naive(x, b, ds, aps, opts),
            FilterExpr::Pred(p) => match *p {
                Predicate::Device(op, v) => op.eval(b.device.0, v),
                Predicate::Cohort(op, v) => op.eval(cohort_of(b.device, opts.n_cohorts), v),
                Predicate::Day(op, v) => op.eval(b.time.day(), v),
                Predicate::Hour(op, v) => op.eval(b.time.hour(), v),
                Predicate::Os(op, os) => op.eval(ds.devices[b.device.index()].os, os),
                Predicate::Wifi(op, w) => {
                    let m = match w {
                        WifiClass::Off => matches!(b.wifi, WifiBinState::Off),
                        WifiClass::On => !matches!(b.wifi, WifiBinState::Off),
                        WifiClass::Assoc => matches!(b.wifi, WifiBinState::Associated(_)),
                        WifiClass::Available => matches!(b.wifi, WifiBinState::OnUnassociated),
                    };
                    m == (op == CmpOp::Eq)
                }
                Predicate::Venue(op, v) => match &b.wifi {
                    WifiBinState::Associated(a) => (aps.class(a.ap) == v) == (op == CmpOp::Eq),
                    _ => false,
                },
            },
        }
    }

    #[test]
    fn select_rows_matches_naive_scan() {
        let ds = dataset();
        let cols = ds.bins.clone();
        let opts = CompileOptions::default();
        let exprs = [
            "device=1",
            "device!=1 && day>=2",
            "wifi=assoc",
            "wifi!=off",
            "wifi=available || wifi=off",
            "os=android",
            "os!=android && hour<12",
            "cohort=0 || cohort=1 || cohort=2 || cohort=3",
            "venue=home",
            "venue!=home",
            "!(venue=home) && wifi=assoc",
            "day>=1 && day<3 && hour>=6",
            "device=99",
        ];
        for src in exprs {
            let expr = parse(src).unwrap();
            let got = select_rows(&expr, &ds, &cols, opts);
            assert_eq!(got, naive_rows(src, &ds), "expression: {src}");
        }
    }

    #[test]
    fn cohort_covers_all_devices() {
        // Every row matches exactly one cohort bucket.
        let ds = dataset();
        let cols = ds.bins.clone();
        let opts = CompileOptions { n_cohorts: 4 };
        let mut total = 0;
        for c in 0..4 {
            let expr = parse(&format!("cohort={c}")).unwrap();
            total += select_rows(&expr, &ds, &cols, opts).len();
        }
        assert_eq!(total, ds.bins.len());
    }

    #[test]
    fn materialized_view_is_self_consistent() {
        let ds = dataset();
        let cols = ds.bins.clone();
        let expr = parse("wifi=assoc || day=0").unwrap();
        let rows = select_rows(&expr, &ds, &cols, CompileOptions::default());
        assert!(!rows.is_empty());
        let f = materialize(&ds, &cols, &rows);
        assert_eq!(f.ds.bins.len(), rows.len());
        // Gathered columns and rebuilt index must equal a from-scratch
        // build over the filtered bins.
        let src = ds.bins.to_bins();
        let want: Vec<BinRecord> = rows.iter().map(|&r| src[r as usize].clone()).collect();
        assert_eq!(f.ds.bins, DatasetColumns::build(&want));
        assert_eq!(f.index, DatasetIndex::build_cols(&f.ds.bins, ds.devices.len()));
        // Identifier tables stay whole.
        assert_eq!(f.ds.devices.len(), ds.devices.len());
        assert_eq!(f.ds.aps.len(), ds.aps.len());
    }

    #[test]
    fn empty_selection_materializes_cleanly() {
        let ds = dataset();
        let cols = ds.bins.clone();
        let expr = parse("device=99").unwrap();
        let rows = select_rows(&expr, &ds, &cols, CompileOptions::default());
        assert!(rows.is_empty());
        let f = materialize(&ds, &cols, &rows);
        assert!(f.ds.bins.is_empty());
        let ctx = f.context();
        assert!(ctx.days.is_empty());
    }
}
