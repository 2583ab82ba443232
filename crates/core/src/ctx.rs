//! Shared analysis context.

use crate::apclass::{classify_cols, ApClassification};
use crate::daily::{classify_user_days, user_days_cols, TrafficClass, UserDay};
use mobitrace_model::{ApRef, CellId, Dataset, DatasetColumns, DatasetIndex, DeviceId};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::ops::Range;

/// Below this bin count the context is built sequentially: the passes are
/// cheap enough that thread spawn/join overhead dominates.
const PARALLEL_BUILD_THRESHOLD: usize = 50_000;

/// One user-day's bins: a maximal (device, day) run of rows in the
/// dataset, with the traffic class of that user-day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserDayRun {
    /// Device.
    pub device: DeviceId,
    /// Campaign day.
    pub day: u32,
    /// The run's rows (indices into `ds.bins` and the columnar view).
    pub rows: Range<usize>,
    /// Traffic class of the user-day.
    pub class: TrafficClass,
}

/// Precomputed products shared by the individual analyses: per-user-day
/// aggregates with their light/heavy classes, the AP classification, and
/// each device's inferred home cell (modal 22:00–06:00 location — the same
/// night-window idea the AP heuristic uses, applied to geolocation so that
/// *cellular* traffic can also be split home/other as in Tables 6–7).
pub struct AnalysisContext<'a> {
    /// The dataset under analysis.
    pub ds: &'a Dataset,
    /// Per-user-day aggregates.
    pub days: Vec<UserDay>,
    /// Traffic class per user-day (parallel to `days`).
    pub classes: Vec<TrafficClass>,
    /// (40th, 60th, 95th) daily-download percentile thresholds (bytes).
    pub thresholds: (f64, f64, f64),
    /// AP classification.
    pub aps: ApClassification,
    /// Inferred home cell per device.
    pub home_cell: HashMap<DeviceId, CellId>,
    /// Precomputed per-device / per-day row ranges (owned, or borrowed
    /// from a snapshot).
    pub index: Cow<'a, DatasetIndex>,
    /// Columnar (structure-of-arrays) rows; the hot full-scan passes
    /// stream these columns instead of the row records. Owned, or
    /// borrowed from a snapshot.
    pub cols: Cow<'a, DatasetColumns>,
}

impl<'a> AnalysisContext<'a> {
    /// Build the context: the bin-range index and the columnar view first,
    /// then the three independent passes (user-day aggregates + classes,
    /// AP classification, home cells), all scanning the columns. On large
    /// datasets the builds and passes run on separate threads; they touch
    /// disjoint products, so the result is identical either way.
    pub fn new(ds: &'a Dataset) -> AnalysisContext<'a> {
        let (index, cols) = if ds.bins.len() < PARALLEL_BUILD_THRESHOLD {
            (DatasetIndex::build(ds), DatasetColumns::build(ds))
        } else {
            std::thread::scope(|scope| {
                let cols = scope.spawn(|| DatasetColumns::build(ds));
                (DatasetIndex::build(ds), cols.join().expect("columns build"))
            })
        };
        AnalysisContext::from_parts(ds, index, cols)
    }

    /// Build the context from an already-built index and columnar view —
    /// the entry point for incrementally maintained datasets (the live
    /// engine's snapshots carry both), skipping the two full-scan builds.
    /// `index` and `cols` are the rows: `ds` supplies the identifier tables
    /// and its `bins` may be empty; when it is not, it must hold exactly
    /// the rows `cols` does. The analysis passes here scan only the
    /// provided views.
    pub fn from_parts(
        ds: &'a Dataset,
        index: DatasetIndex,
        cols: DatasetColumns,
    ) -> AnalysisContext<'a> {
        AnalysisContext::from_cow_parts(ds, Cow::Owned(index), Cow::Owned(cols))
    }

    /// [`from_parts`](Self::from_parts) over owned or borrowed parts, so a
    /// caller holding a snapshot's index and columns builds a context
    /// without cloning them.
    pub fn from_cow_parts(
        ds: &'a Dataset,
        index: Cow<'a, DatasetIndex>,
        cols: Cow<'a, DatasetColumns>,
    ) -> AnalysisContext<'a> {
        debug_assert!(
            ds.bins.is_empty() || ds.bins.len() == cols.len(),
            "row table and columns disagree"
        );
        let (c, ix) = (&*cols, &*index);
        let small = c.len() < PARALLEL_BUILD_THRESHOLD;
        let (days, classes, thresholds, aps, home_cell) = if small {
            let days = user_days_cols(c);
            let (classes, thresholds) = classify_user_days(&days);
            let aps = classify_cols(ds, c);
            (days, classes, thresholds, aps, infer_home_cells(c, ix))
        } else {
            std::thread::scope(|scope| {
                let daily = scope.spawn(|| {
                    let days = user_days_cols(c);
                    let (classes, thresholds) = classify_user_days(&days);
                    (days, classes, thresholds)
                });
                let aps = scope.spawn(|| classify_cols(ds, c));
                let home_cell = infer_home_cells(c, ix);
                let (days, classes, thresholds) = daily.join().expect("daily pass");
                let aps = aps.join().expect("ap pass");
                (days, classes, thresholds, aps, home_cell)
            })
        };
        AnalysisContext { ds, days, classes, thresholds, aps, home_cell, index, cols }
    }

    /// Traffic class of a (device, day) pair, if that user-day exists.
    pub fn class_of(&self, device: DeviceId, day: u32) -> Option<TrafficClass> {
        // `days` is sorted by (device, day) by construction.
        let idx = self.days.binary_search_by_key(&(device, day), |d| (d.device, d.day)).ok()?;
        Some(self.classes[idx])
    }

    /// Every user-day's bin run with its class, in (device, day) order.
    /// Bins and `days` share that order ([`Dataset::validate`] enforces
    /// it), so the k-th indexed day span *is* the k-th user-day: class-
    /// filtered passes resolve the class once per run from here instead
    /// of calling [`class_of`](Self::class_of) per bin.
    pub fn user_day_runs(&self) -> impl Iterator<Item = UserDayRun> + '_ {
        let index = &self.index;
        index
            .devices_with_bins()
            .flat_map(move |dev| index.day_spans(dev).map(move |(day, rows)| (dev, day, rows)))
            .zip(self.days.iter().zip(&self.classes))
            .map(|((device, day, rows), (user_day, &class))| {
                debug_assert_eq!((user_day.device, user_day.day), (device, day));
                UserDayRun { device, day, rows, class }
            })
    }

    /// Is the device at its inferred home cell in this bin?
    pub fn is_at_home_cell(&self, device: DeviceId, cell: CellId) -> bool {
        self.home_cell.get(&device) == Some(&cell)
    }

    /// The associated rows among `rows`: a slice of `sel_associated`
    /// found by two binary searches.
    pub(crate) fn associated_rows(&self, rows: Range<usize>) -> &[u32] {
        let sel = &self.cols.sel_associated;
        let lo = sel.partition_point(|&i| (i as usize) < rows.start);
        let hi = sel.partition_point(|&i| (i as usize) < rows.end);
        &sel[lo..hi]
    }

    /// Each AP's modal report cell over the associated rows that `keep`
    /// admits, ties to the smaller cell as [`modal_cell`]; `None` for an
    /// AP no admitted row reports. Consecutive rows mostly repeat one
    /// (AP, cell) pair, so runs of it are counted first and only the runs
    /// are sorted.
    pub(crate) fn ap_modal_cells(&self, keep: impl Fn(usize) -> bool) -> Vec<Option<CellId>> {
        let c = &*self.cols;
        let mut runs: Vec<(ApRef, CellId, u32)> = Vec::new();
        for i in c.sel_associated.iter().map(|&i| i as usize).filter(|&i| keep(i)) {
            let (ap, cell) = (c.assoc_ap[i], c.geo[i]);
            match runs.last_mut() {
                Some((a, g, n)) if (*a, *g) == (ap, cell) => *n += 1,
                _ => runs.push((ap, cell, 1)),
            }
        }
        runs.sort_unstable_by_key(|&(ap, cell, _)| (ap, cell));
        let mut modal: Vec<Option<(CellId, u32)>> = vec![None; self.aps.class_of.len()];
        for pair in runs.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (ap, cell) = (pair[0].0, pair[0].1);
            let votes = pair.iter().map(|r| r.2).sum::<u32>();
            // Cells ascend within an AP: a strict `>` keeps the smaller on a tie.
            let best = &mut modal[ap.index()];
            if best.is_none_or(|(_, most)| votes > most) {
                *best = Some((cell, votes));
            }
        }
        modal.into_iter().map(|m| m.map(|(cell, _)| cell)).collect()
    }
}

/// Modal night-time (22:00–06:00) cell per device. Walks each device's
/// indexed range over the time/geo columns with one reused tally map,
/// picking the winner with [`modal_cell`].
fn infer_home_cells(cols: &DatasetColumns, index: &DatasetIndex) -> HashMap<DeviceId, CellId> {
    let mut home = HashMap::new();
    let mut tally: HashMap<CellId, u32> = HashMap::new();
    for dev in index.devices_with_bins() {
        tally.clear();
        for i in index.device_range(dev) {
            let h = cols.time[i].hour();
            if !(22..24).contains(&h) && h >= 6 {
                continue;
            }
            *tally.entry(cols.geo[i]).or_default() += 1;
        }
        if let Some(cell) = modal_cell(&tally) {
            home.insert(dev, cell);
        }
    }
    home
}

/// The most-voted cell of a tally. Ties break to the smaller [`CellId`],
/// so the pick never depends on hash-map iteration order.
pub(crate) fn modal_cell(votes: &HashMap<CellId, u32>) -> Option<CellId> {
    votes.iter().max_by_key(|&(&cell, &n)| (n, Reverse(cell))).map(|(&cell, _)| cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::*;

    fn bin(dev: u32, day: u32, b: u32, cell: CellId) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, b),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 1000,
            tx_lte: 100,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: WifiBinState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: cell,
            os_version: OsVersion::new(4, 4),
        }
    }

    fn dataset(n: u32, bins: Vec<BinRecord>) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: (0..n)
                .map(|i| DeviceInfo {
                    device: DeviceId(i),
                    os: Os::Android,
                    carrier: Carrier::B,
                    recruited: true,
                    survey: None,
                    truth: None,
                })
                .collect(),
            aps: vec![],
            bins,
        }
    }

    #[test]
    fn home_cell_is_modal_night_cell() {
        let home = CellId::new(5, 5);
        let office = CellId::new(9, 9);
        let mut bins = Vec::new();
        // Nights at home, days at the office.
        for day in 0..3 {
            for b in 0..30 {
                bins.push(bin(0, day, b, home)); // 0:00–5:00
            }
            for b in 60..100 {
                bins.push(bin(0, day, b, office));
            }
        }
        let ds = dataset(1, bins);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(ctx.home_cell.get(&DeviceId(0)), Some(&home));
        assert!(ctx.is_at_home_cell(DeviceId(0), home));
        assert!(!ctx.is_at_home_cell(DeviceId(0), office));
    }

    #[test]
    fn class_lookup_by_device_day() {
        let mut bins = Vec::new();
        for dev in 0..30 {
            bins.push(bin(dev, 0, 60, CellId::new(0, 0)));
        }
        // One giant day for device 0.
        let mut b0 = bin(0, 1, 60, CellId::new(0, 0));
        b0.rx_wifi = 10_000_000_000;
        bins.push(b0);
        let ds = dataset(30, bins);
        let ctx = AnalysisContext::new(&ds);
        assert_eq!(ctx.class_of(DeviceId(0), 1), Some(crate::daily::TrafficClass::Heavy));
        assert_eq!(ctx.class_of(DeviceId(0), 7), None);
        // The run walk agrees with the point lookups and covers every bin.
        let runs: Vec<UserDayRun> = ctx.user_day_runs().collect();
        assert_eq!(runs.len(), ctx.days.len());
        assert_eq!(runs.iter().map(|r| r.rows.len()).sum::<usize>(), ds.bins.len());
        for r in &runs {
            assert_eq!(ctx.class_of(r.device, r.day), Some(r.class));
            assert!(ds.bins[r.rows.clone()]
                .iter()
                .all(|b| b.device == r.device && b.time.day() == r.day));
        }
    }

    #[test]
    fn from_parts_matches_new() {
        let mut bins = Vec::new();
        for dev in 0..10 {
            for day in 0..3 {
                bins.push(bin(dev, day, 10, CellId::new(dev as i16, 0)));
                bins.push(bin(dev, day, 130, CellId::new(0, dev as i16)));
            }
        }
        let ds = dataset(10, bins);
        let a = AnalysisContext::new(&ds);
        let b =
            AnalysisContext::from_parts(&ds, DatasetIndex::build(&ds), DatasetColumns::build(&ds));
        assert_eq!(a.days, b.days);
        assert_eq!(a.classes, b.classes);
        assert_eq!(a.thresholds, b.thresholds);
        assert_eq!(a.aps, b.aps);
        assert_eq!(a.home_cell, b.home_cell);
        assert_eq!(a.index, b.index);
        assert_eq!(a.cols, b.cols);
    }

    #[test]
    fn device_with_no_night_bins_has_no_home_cell() {
        let bins = vec![bin(0, 0, 80, CellId::new(1, 1))]; // 13:20 only
        let ds = dataset(1, bins);
        let ctx = AnalysisContext::new(&ds);
        assert!(ctx.home_cell.is_empty());
    }
}
