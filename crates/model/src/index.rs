//! Precomputed bin-range index over a [`Dataset`].
//!
//! Analyses repeatedly need "all bins of device X" or "device X's bins on
//! day Y". The dataset is sorted by (device, time), so those are contiguous
//! slices — but finding them with `partition_point` per query re-scans the
//! bin table over and over. [`DatasetIndex`] computes every per-device
//! range and per-(device, day) sub-range in a single pass, turning each
//! later lookup into O(1) (device) or O(log days) (day) slicing.
//!
//! The index holds plain offsets, not references, so it can be built once
//! and shared freely across analysis threads.

use crate::columns::DatasetColumns;
use crate::dataset::Dataset;
use crate::error::ModelError;
use crate::ids::DeviceId;
use std::ops::Range;

/// One contiguous run of bins: a single device on a single campaign day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DaySpan {
    /// Campaign day index.
    day: u32,
    /// First row of the run (index into the bin columns).
    start: u32,
    /// One past the last bin of the run.
    end: u32,
}

/// Per-device and per-(device, day) bin ranges of one [`Dataset`].
///
/// Built once via [`DatasetIndex::build`]; valid for as long as the
/// dataset's bin columns are unmodified.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DatasetIndex {
    /// `device_start[d]..device_start[d + 1]` is device `d`'s bin range.
    device_start: Vec<u32>,
    /// `day_offsets[d]..day_offsets[d + 1]` indexes `day_spans` for
    /// device `d`; spans are in ascending day order.
    day_offsets: Vec<u32>,
    /// All (device, day) runs, grouped by device.
    day_spans: Vec<DaySpan>,
}

impl DatasetIndex {
    /// Build the index in one pass over the device and time columns of
    /// `ds.bins` (which [`Dataset::validate`] guarantees are sorted by
    /// (device, time), every device present in the device table).
    pub fn build(ds: &Dataset) -> DatasetIndex {
        DatasetIndex::build_cols(&ds.bins, ds.devices.len())
    }

    /// Build the index from a columnar view's device/time columns, over a
    /// device table of `n_devices` entries — how views that are not a
    /// whole dataset (live generations, filtered queries) get theirs.
    pub fn build_cols(cols: &DatasetColumns, n_devices: usize) -> DatasetIndex {
        let (device, time) = (&cols.device, &cols.time);
        let mut device_start = vec![0u32; n_devices + 1];
        let mut day_offsets = vec![0u32; n_devices + 1];
        let mut day_spans: Vec<DaySpan> = Vec::new();
        let mut i = 0usize;
        for d in 0..n_devices {
            device_start[d] = i as u32;
            day_offsets[d] = day_spans.len() as u32;
            let dev = DeviceId(d as u32);
            while i < device.len() && device[i] == dev {
                let day = time[i].day();
                let start = i;
                while i < device.len() && device[i] == dev && time[i].day() == day {
                    i += 1;
                }
                day_spans.push(DaySpan { day, start: start as u32, end: i as u32 });
            }
        }
        device_start[n_devices] = i as u32;
        day_offsets[n_devices] = day_spans.len() as u32;
        debug_assert_eq!(i, device.len(), "bins referencing devices outside the table");
        DatasetIndex { device_start, day_offsets, day_spans }
    }

    /// Number of devices the index covers.
    pub fn n_devices(&self) -> usize {
        self.device_start.len().saturating_sub(1)
    }

    /// Total number of indexed bins.
    pub fn n_bins(&self) -> usize {
        self.device_start.last().copied().unwrap_or(0) as usize
    }

    /// The bin range of one device (empty for devices without bins or
    /// outside the table).
    pub fn device_range(&self, d: DeviceId) -> Range<usize> {
        let i = d.index();
        if i + 1 >= self.device_start.len() {
            return 0..0;
        }
        self.device_start[i] as usize..self.device_start[i + 1] as usize
    }

    /// Devices that have at least one bin, in id order.
    pub fn devices_with_bins(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.n_devices()).filter_map(move |i| {
            (self.device_start[i] < self.device_start[i + 1]).then_some(DeviceId(i as u32))
        })
    }

    /// The (day, bin-range) runs of one device, ascending by day.
    pub fn day_spans(&self, d: DeviceId) -> impl Iterator<Item = (u32, Range<usize>)> + '_ {
        let i = d.index();
        let r = if i + 1 >= self.day_offsets.len() {
            0..0
        } else {
            self.day_offsets[i] as usize..self.day_offsets[i + 1] as usize
        };
        self.day_spans[r].iter().map(|s| (s.day, s.start as usize..s.end as usize))
    }

    /// The bin range of one device on one day, if that device produced
    /// bins that day.
    pub fn day_range(&self, d: DeviceId, day: u32) -> Option<Range<usize>> {
        let i = d.index();
        if i + 1 >= self.day_offsets.len() {
            return None;
        }
        let spans = &self.day_spans[self.day_offsets[i] as usize..self.day_offsets[i + 1] as usize];
        let k = spans.binary_search_by_key(&day, |s| s.day).ok()?;
        Some(spans[k].start as usize..spans[k].end as usize)
    }

    /// Flatten the index into plain `u32` columns for persistence. The
    /// inverse of [`from_columns`](Self::from_columns); together they
    /// round-trip the index losslessly without re-scanning the dataset.
    pub fn to_columns(&self) -> IndexColumns {
        IndexColumns {
            device_start: self.device_start.clone(),
            day_offsets: self.day_offsets.clone(),
            span_day: self.day_spans.iter().map(|s| s.day).collect(),
            span_start: self.day_spans.iter().map(|s| s.start).collect(),
            span_end: self.day_spans.iter().map(|s| s.end).collect(),
        }
    }

    /// Reassemble an index from persisted columns, re-checking the shape
    /// invariants [`build`](Self::build) guarantees (equal table lengths,
    /// monotone offsets, spans nested in their device range) so corrupt
    /// input surfaces as [`ModelError::Inconsistent`] instead of panics
    /// or silent wrong slicing later.
    pub fn from_columns(c: IndexColumns) -> Result<DatasetIndex, ModelError> {
        let bad = |what: &str| ModelError::Inconsistent(format!("index columns: {what}"));
        if c.device_start.len() != c.day_offsets.len() || c.device_start.is_empty() {
            return Err(bad("device_start / day_offsets length mismatch"));
        }
        let ns = c.span_day.len();
        if c.span_start.len() != ns || c.span_end.len() != ns {
            return Err(bad("span column length mismatch"));
        }
        if c.day_offsets.last().copied().unwrap_or(0) as usize != ns {
            return Err(bad("day_offsets does not close over the span table"));
        }
        if c.device_start.windows(2).any(|w| w[0] > w[1])
            || c.day_offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(bad("offsets not monotone"));
        }
        let day_spans: Vec<DaySpan> = (0..ns)
            .map(|i| DaySpan { day: c.span_day[i], start: c.span_start[i], end: c.span_end[i] })
            .collect();
        for d in 0..c.device_start.len() - 1 {
            let (lo, hi) = (c.device_start[d], c.device_start[d + 1]);
            let spans = day_spans
                .get(c.day_offsets[d] as usize..c.day_offsets[d + 1] as usize)
                .ok_or_else(|| bad("day_offsets outside the span table"))?;
            let mut cursor = lo;
            for s in spans {
                if s.start != cursor || s.end < s.start || s.end > hi {
                    return Err(bad("span not contiguous within its device range"));
                }
                cursor = s.end;
            }
            if cursor != hi {
                return Err(bad("spans do not cover the device range"));
            }
            if spans.windows(2).any(|w| w[0].day >= w[1].day) {
                return Err(bad("span days not strictly ascending"));
            }
        }
        Ok(DatasetIndex { device_start: c.device_start, day_offsets: c.day_offsets, day_spans })
    }
}

/// [`DatasetIndex`] flattened into plain columns — the persistence
/// exchange format used by the `.mtpool` pool codec.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexColumns {
    /// `device_start[d]..device_start[d + 1]` is device `d`'s bin range.
    pub device_start: Vec<u32>,
    /// `day_offsets[d]..day_offsets[d + 1]` indexes the span columns.
    pub day_offsets: Vec<u32>,
    /// Campaign day of each span.
    pub span_day: Vec<u32>,
    /// First bin of each span.
    pub span_start: Vec<u32>,
    /// One past the last bin of each span.
    pub span_end: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::*;
    use crate::ids::CellId;
    use crate::record::{Os, OsVersion};
    use crate::time::{SimTime, Year};

    fn bin(dev: u32, day: u32, b: u32) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, b),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 1,
            tx_lte: 0,
            rx_wifi: 0,
            tx_wifi: 0,
            wifi: WifiBinState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        }
    }

    fn dataset(n_devices: u32, bins: Vec<BinRecord>) -> Dataset {
        let mut bins = bins;
        bins.sort_by_key(|b| (b.device, b.time));
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2014,
                start: Year::Y2014.campaign_start(),
                days: 15,
                seed: 0,
            },
            devices: (0..n_devices)
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
            bins: DatasetColumns::build(&bins),
        }
    }

    #[test]
    fn ranges_match_device_bins_scan() {
        // Device 1 has no bins at all; device 0 spans two days.
        let ds =
            dataset(3, vec![bin(0, 0, 3), bin(0, 0, 9), bin(0, 2, 1), bin(2, 1, 0), bin(2, 1, 5)]);
        ds.validate().unwrap();
        let index = DatasetIndex::build(&ds);
        assert_eq!(index.n_devices(), 3);
        assert_eq!(index.n_bins(), ds.bins.len());
        for d in 0..3u32 {
            let dev = DeviceId(d);
            assert_eq!(index.device_range(dev), ds.device_rows(dev), "device {d}");
        }
        assert!(index.device_range(DeviceId(1)).is_empty());
        let with_bins: Vec<_> = index.devices_with_bins().collect();
        assert_eq!(with_bins, vec![DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn day_spans_partition_each_device() {
        let ds =
            dataset(2, vec![bin(0, 0, 3), bin(0, 0, 9), bin(0, 2, 1), bin(1, 1, 0), bin(1, 1, 5)]);
        let index = DatasetIndex::build(&ds);
        let spans: Vec<_> = index.day_spans(DeviceId(0)).collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0], (0, 0..2));
        assert_eq!(spans[1], (2, 2..3));
        // Spans must exactly tile the device range.
        let total: usize = spans.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, index.device_range(DeviceId(0)).len());
    }

    #[test]
    fn day_range_lookup() {
        let ds = dataset(2, vec![bin(0, 0, 3), bin(0, 2, 1), bin(1, 1, 0)]);
        let index = DatasetIndex::build(&ds);
        assert_eq!(index.day_range(DeviceId(0), 0), Some(0..1));
        assert_eq!(index.day_range(DeviceId(0), 1), None);
        assert_eq!(index.day_range(DeviceId(0), 2), Some(1..2));
        assert_eq!(index.day_range(DeviceId(1), 1), Some(2..3));
        assert_eq!(index.day_range(DeviceId(9), 0), None);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let ds = dataset(0, vec![]);
        let index = DatasetIndex::build(&ds);
        assert_eq!(index.n_devices(), 0);
        assert_eq!(index.n_bins(), 0);
        assert!(index.device_range(DeviceId(0)).is_empty());
        assert_eq!(index.day_range(DeviceId(0), 0), None);
    }

    /// `build` must match a naive per-row scan, including around empty
    /// devices at the start, middle and end of the table.
    #[test]
    fn build_matches_naive_ranges() {
        let cases: Vec<(u32, Vec<BinRecord>)> = vec![
            (0, vec![]),
            (3, vec![]),
            (3, vec![bin(0, 0, 3), bin(0, 0, 9), bin(0, 2, 1), bin(2, 1, 0), bin(2, 1, 5)]),
            (5, vec![bin(1, 0, 0), bin(1, 1, 0), bin(1, 1, 1), bin(3, 0, 7)]),
            (2, vec![bin(0, 0, 0), bin(0, 1, 0), bin(1, 0, 0), bin(1, 2, 0)]),
        ];
        for (n, bins) in cases {
            let ds = dataset(n, bins);
            let rows = ds.bins.to_bins();
            let index = DatasetIndex::build(&ds);
            assert_eq!((index.n_devices(), index.n_bins()), (n as usize, rows.len()));
            for d in 0..n {
                let dev = DeviceId(d);
                let mine: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].device == dev).collect();
                assert_eq!(index.device_range(dev).collect::<Vec<_>>(), mine, "device {d}");
                for day in 0..15 {
                    let on_day: Vec<usize> =
                        mine.iter().copied().filter(|&i| rows[i].time.day() == day).collect();
                    let got = index.day_range(dev, day).map_or(vec![], |r| r.collect());
                    assert_eq!(got, on_day, "device {d} day {day}");
                }
            }
        }
    }
}
