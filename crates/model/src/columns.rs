//! The bin table of a [`Dataset`](crate::Dataset), stored as columns
//! (structure of arrays).
//!
//! A dataset's bins *are* a [`DatasetColumns`]: six `Vec<u64>` traffic
//! counters, a one-byte WiFi state tag with parallel association columns,
//! the scan summary as eight `u16` columns, and the per-app bins
//! flattened CSR-style (offset array + one flat `Vec<AppBin>`), so each
//! analysis pass streams exactly the bytes it needs. The collector's
//! `clean` appends each cleaned bin straight into the columns, a pool
//! decodes straight into them, and no path rebuilds a row table.
//!
//! [`BinRecord`] is the same row as one value. [`DatasetColumns::build`]
//! turns rows into columns and [`DatasetColumns::to_bins`] turns them
//! back; fixtures, tests and the row-at-a-time reference passes use them.
//! [`DatasetIndex`](crate::DatasetIndex) ranges slice the columns
//! directly. Views that are not a whole dataset carry columns of their
//! own beside an identifier-only `Dataset` (live generations, with empty
//! `bins`).
//!
//! A pass that can run on part of a view takes a [`RowSet`]: [`AllRows`],
//! or a [`Selection`] — an ascending selection vector, as a filter
//! compiler produces — read in place, so a filtered query never copies
//! the columns it reads.

use crate::dataset::{ApRef, AppBin, BinRecord, ScanSummary, WifiAssoc, WifiBinState};
use crate::ids::{CellId, DeviceId};
use crate::net::{Band, Channel};
use crate::record::OsVersion;
use crate::time::SimTime;
use crate::units::Dbm;
use std::ops::Range;

/// One-byte discriminant of [`WifiBinState`], stored as its own column so
/// state filters scan one byte per bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum WifiTag {
    /// Interface explicitly off.
    Off = 0,
    /// On but unassociated.
    OnUnassociated = 1,
    /// Associated; the `assoc_*` columns hold the association at this row.
    Associated = 2,
}

impl WifiTag {
    /// The tag of a row state.
    pub fn of(state: &WifiBinState) -> WifiTag {
        match state {
            WifiBinState::Off => WifiTag::Off,
            WifiBinState::OnUnassociated => WifiTag::OnUnassociated,
            WifiBinState::Associated(_) => WifiTag::Associated,
        }
    }

    /// Interface enabled? Mirrors [`WifiBinState::is_on`].
    pub fn is_on(self) -> bool {
        !matches!(self, WifiTag::Off)
    }

    /// Decode the on-disk `u8` discriminant; `None` for anything outside
    /// the three defined tags (so corrupt persisted data surfaces as an
    /// error instead of undefined behaviour).
    pub fn from_u8(raw: u8) -> Option<WifiTag> {
        match raw {
            0 => Some(WifiTag::Off),
            1 => Some(WifiTag::OnUnassociated),
            2 => Some(WifiTag::Associated),
            _ => None,
        }
    }
}

/// [`ScanSummary`] transposed into eight `u16` columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanColumns {
    /// All 2.4 GHz APs detected.
    pub n24_all: Vec<u16>,
    /// 2.4 GHz APs with RSSI ≥ -70 dBm.
    pub n24_strong: Vec<u16>,
    /// All 5 GHz APs detected.
    pub n5_all: Vec<u16>,
    /// 5 GHz APs with RSSI ≥ -70 dBm.
    pub n5_strong: Vec<u16>,
    /// Public-ESSID 2.4 GHz APs detected.
    pub n24_public_all: Vec<u16>,
    /// Public-ESSID 2.4 GHz APs with RSSI ≥ -70 dBm.
    pub n24_public_strong: Vec<u16>,
    /// Public-ESSID 5 GHz APs detected.
    pub n5_public_all: Vec<u16>,
    /// Public-ESSID 5 GHz APs with RSSI ≥ -70 dBm.
    pub n5_public_strong: Vec<u16>,
}

impl ScanColumns {
    fn with_capacity(n: usize) -> ScanColumns {
        ScanColumns {
            n24_all: Vec::with_capacity(n),
            n24_strong: Vec::with_capacity(n),
            n5_all: Vec::with_capacity(n),
            n5_strong: Vec::with_capacity(n),
            n24_public_all: Vec::with_capacity(n),
            n24_public_strong: Vec::with_capacity(n),
            n5_public_all: Vec::with_capacity(n),
            n5_public_strong: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, s: &ScanSummary) {
        self.n24_all.push(s.n24_all);
        self.n24_strong.push(s.n24_strong);
        self.n5_all.push(s.n5_all);
        self.n5_strong.push(s.n5_strong);
        self.n24_public_all.push(s.n24_public_all);
        self.n24_public_strong.push(s.n24_public_strong);
        self.n5_public_all.push(s.n5_public_all);
        self.n5_public_strong.push(s.n5_public_strong);
    }

    /// Reconstruct the row-form summary at row `i`.
    pub fn summary(&self, i: usize) -> ScanSummary {
        ScanSummary {
            n24_all: self.n24_all[i],
            n24_strong: self.n24_strong[i],
            n5_all: self.n5_all[i],
            n5_strong: self.n5_strong[i],
            n24_public_all: self.n24_public_all[i],
            n24_public_strong: self.n24_public_strong[i],
            n5_public_all: self.n5_public_all[i],
            n5_public_strong: self.n5_public_strong[i],
        }
    }
}

/// Poison AP reference stored in `assoc_ap` for non-associated rows; any
/// accidental table lookup through it panics instead of aliasing AP 0.
const NO_AP: ApRef = ApRef(u32::MAX);

/// The bin table of a [`Dataset`](crate::Dataset), one column per field.
///
/// Every column has one entry per bin (the CSR `app_offsets` has one
/// extra trailing entry), in the dataset's (device, time) sort order. For
/// non-associated rows the `assoc_*` columns hold filler values that must
/// only be read behind a [`WifiTag::Associated`] check — use
/// [`wifi_assoc`](DatasetColumns::wifi_assoc) unless scanning `wifi_tag`
/// explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetColumns {
    /// Device of each bin.
    pub device: Vec<DeviceId>,
    /// Bin start time.
    pub time: Vec<SimTime>,
    /// 3G downlink bytes.
    pub rx_3g: Vec<u64>,
    /// 3G uplink bytes.
    pub tx_3g: Vec<u64>,
    /// LTE downlink bytes.
    pub rx_lte: Vec<u64>,
    /// LTE uplink bytes.
    pub tx_lte: Vec<u64>,
    /// WiFi downlink bytes.
    pub rx_wifi: Vec<u64>,
    /// WiFi uplink bytes.
    pub tx_wifi: Vec<u64>,
    /// WiFi interface state tag.
    pub wifi_tag: Vec<WifiTag>,
    /// Associated AP (`u32::MAX` poison filler when not associated).
    pub assoc_ap: Vec<ApRef>,
    /// Association band (2.4 GHz filler when not associated).
    pub assoc_band: Vec<Band>,
    /// Association channel (channel 0 filler when not associated).
    pub assoc_channel: Vec<Channel>,
    /// Association max RSSI (0 dBm filler when not associated).
    pub assoc_rssi: Vec<Dbm>,
    /// Scan-summary columns.
    pub scan: ScanColumns,
    /// CSR offsets into [`apps`](DatasetColumns::apps): bin `i`'s app
    /// entries are `apps[app_offsets[i]..app_offsets[i + 1]]`. Length is
    /// `len() + 1`.
    pub app_offsets: Vec<u32>,
    /// All per-app-category entries, flattened in bin order.
    pub apps: Vec<AppBin>,
    /// Coarse geolocation.
    pub geo: Vec<CellId>,
    /// OS version at sample time.
    pub os_version: Vec<OsVersion>,
    /// Selection vector: row indexes (ascending) whose `wifi_tag` is
    /// [`WifiTag::Associated`]. Venue/quality passes iterate this instead
    /// of scanning the tag column — same rows in the same order, no
    /// per-row branch.
    pub sel_associated: Vec<u32>,
    /// Selection vector: row indexes (ascending) whose `wifi_tag` is
    /// [`WifiTag::OnUnassociated`] (the "WiFi-available" bins of the
    /// offload analyses).
    pub sel_available: Vec<u32>,
}

/// No rows; the CSR offset array holds its leading zero.
impl Default for DatasetColumns {
    fn default() -> DatasetColumns {
        DatasetColumns::with_capacity(0, 0)
    }
}

impl DatasetColumns {
    /// Rows into columns, in the rows' order.
    pub fn build(rows: &[BinRecord]) -> DatasetColumns {
        let n_apps = rows.iter().map(|b| b.apps.len()).sum();
        let mut c = DatasetColumns::with_capacity(rows.len(), n_apps);
        for b in rows {
            c.push(b);
        }
        c
    }

    /// Empty columns with room for `rows` bins and `apps` app entries (the
    /// CSR offset array holds its leading zero).
    pub fn with_capacity(rows: usize, apps: usize) -> DatasetColumns {
        let mut app_offsets = Vec::with_capacity(rows + 1);
        app_offsets.push(0);
        DatasetColumns {
            device: Vec::with_capacity(rows),
            time: Vec::with_capacity(rows),
            rx_3g: Vec::with_capacity(rows),
            tx_3g: Vec::with_capacity(rows),
            rx_lte: Vec::with_capacity(rows),
            tx_lte: Vec::with_capacity(rows),
            rx_wifi: Vec::with_capacity(rows),
            tx_wifi: Vec::with_capacity(rows),
            wifi_tag: Vec::with_capacity(rows),
            assoc_ap: Vec::with_capacity(rows),
            assoc_band: Vec::with_capacity(rows),
            assoc_channel: Vec::with_capacity(rows),
            assoc_rssi: Vec::with_capacity(rows),
            scan: ScanColumns::with_capacity(rows),
            app_offsets,
            apps: Vec::with_capacity(apps),
            geo: Vec::with_capacity(rows),
            os_version: Vec::with_capacity(rows),
            sel_associated: Vec::new(),
            sel_available: Vec::new(),
        }
    }

    /// Append one row.
    pub fn push(&mut self, b: &BinRecord) {
        let row = self.device.len() as u32;
        self.device.push(b.device);
        self.time.push(b.time);
        self.rx_3g.push(b.rx_3g);
        self.tx_3g.push(b.tx_3g);
        self.rx_lte.push(b.rx_lte);
        self.tx_lte.push(b.tx_lte);
        self.rx_wifi.push(b.rx_wifi);
        self.tx_wifi.push(b.tx_wifi);
        let tag = WifiTag::of(&b.wifi);
        self.wifi_tag.push(tag);
        match tag {
            WifiTag::Associated => self.sel_associated.push(row),
            WifiTag::OnUnassociated => self.sel_available.push(row),
            WifiTag::Off => {}
        }
        let assoc = b.wifi.assoc();
        self.assoc_ap.push(assoc.map_or(NO_AP, |a| a.ap));
        self.assoc_band.push(assoc.map_or(Band::Ghz24, |a| a.band));
        self.assoc_channel.push(assoc.map_or(Channel(0), |a| a.channel));
        self.assoc_rssi.push(assoc.map_or(Dbm::new(0), |a| a.rssi));
        self.scan.push(&b.scan);
        self.apps.extend_from_slice(&b.apps);
        self.app_offsets.push(self.apps.len() as u32);
        self.geo.push(b.geo);
        self.os_version.push(b.os_version);
    }

    /// Drop every row, keeping the allocations (the live builder reuses
    /// its per-device tails across compactions).
    pub(crate) fn clear(&mut self) {
        self.device.clear();
        self.time.clear();
        self.rx_3g.clear();
        self.tx_3g.clear();
        self.rx_lte.clear();
        self.tx_lte.clear();
        self.rx_wifi.clear();
        self.tx_wifi.clear();
        self.wifi_tag.clear();
        self.assoc_ap.clear();
        self.assoc_band.clear();
        self.assoc_channel.clear();
        self.assoc_rssi.clear();
        let s = &mut self.scan;
        s.n24_all.clear();
        s.n24_strong.clear();
        s.n5_all.clear();
        s.n5_strong.clear();
        s.n24_public_all.clear();
        s.n24_public_strong.clear();
        s.n5_public_all.clear();
        s.n5_public_strong.clear();
        self.app_offsets.clear();
        self.app_offsets.push(0);
        self.apps.clear();
        self.geo.clear();
        self.os_version.clear();
        self.sel_associated.clear();
        self.sel_available.clear();
    }

    /// Append the contiguous row range `rows` of `src`: every column is a
    /// slice copy, the CSR offsets are rebased onto this view's app table
    /// and the selection vectors are shifted into this view's numbering.
    /// The live builder's compaction is a sequence of these.
    pub(crate) fn extend_from_range(&mut self, src: &DatasetColumns, rows: Range<usize>) {
        if rows.is_empty() {
            return;
        }
        let base = self.len() as u32;
        let (lo, hi) = (rows.start as u32, rows.end as u32);
        for (out, sel) in [
            (&mut self.sel_associated, &src.sel_associated),
            (&mut self.sel_available, &src.sel_available),
        ] {
            let first = sel.partition_point(|&r| r < lo);
            let last = sel.partition_point(|&r| r < hi);
            out.extend(sel[first..last].iter().map(|&r| r - lo + base));
        }
        let r = rows.clone();
        self.device.extend_from_slice(&src.device[r.clone()]);
        self.time.extend_from_slice(&src.time[r.clone()]);
        self.rx_3g.extend_from_slice(&src.rx_3g[r.clone()]);
        self.tx_3g.extend_from_slice(&src.tx_3g[r.clone()]);
        self.rx_lte.extend_from_slice(&src.rx_lte[r.clone()]);
        self.tx_lte.extend_from_slice(&src.tx_lte[r.clone()]);
        self.rx_wifi.extend_from_slice(&src.rx_wifi[r.clone()]);
        self.tx_wifi.extend_from_slice(&src.tx_wifi[r.clone()]);
        self.wifi_tag.extend_from_slice(&src.wifi_tag[r.clone()]);
        self.assoc_ap.extend_from_slice(&src.assoc_ap[r.clone()]);
        self.assoc_band.extend_from_slice(&src.assoc_band[r.clone()]);
        self.assoc_channel.extend_from_slice(&src.assoc_channel[r.clone()]);
        self.assoc_rssi.extend_from_slice(&src.assoc_rssi[r.clone()]);
        let (s, t) = (&mut self.scan, &src.scan);
        s.n24_all.extend_from_slice(&t.n24_all[r.clone()]);
        s.n24_strong.extend_from_slice(&t.n24_strong[r.clone()]);
        s.n5_all.extend_from_slice(&t.n5_all[r.clone()]);
        s.n5_strong.extend_from_slice(&t.n5_strong[r.clone()]);
        s.n24_public_all.extend_from_slice(&t.n24_public_all[r.clone()]);
        s.n24_public_strong.extend_from_slice(&t.n24_public_strong[r.clone()]);
        s.n5_public_all.extend_from_slice(&t.n5_public_all[r.clone()]);
        s.n5_public_strong.extend_from_slice(&t.n5_public_strong[r.clone()]);
        self.geo.extend_from_slice(&src.geo[r.clone()]);
        self.os_version.extend_from_slice(&src.os_version[r]);
        let (a0, a1) = (src.app_offsets[rows.start], src.app_offsets[rows.end]);
        let app_base = self.apps.len() as u32;
        self.apps.extend_from_slice(&src.apps[a0 as usize..a1 as usize]);
        self.app_offsets
            .extend(src.app_offsets[rows.start + 1..=rows.end].iter().map(|&o| o - a0 + app_base));
    }

    /// Number of bin rows.
    pub fn len(&self) -> usize {
        self.device.len()
    }

    /// True when no bins were transposed.
    pub fn is_empty(&self) -> bool {
        self.device.is_empty()
    }

    /// Total cellular downlink bytes at row `i` (mirrors
    /// [`BinRecord::rx_cell`]).
    pub fn rx_cell(&self, i: usize) -> u64 {
        self.rx_3g[i] + self.rx_lte[i]
    }

    /// Total cellular uplink bytes at row `i` (mirrors
    /// [`BinRecord::tx_cell`]).
    pub fn tx_cell(&self, i: usize) -> u64 {
        self.tx_3g[i] + self.tx_lte[i]
    }

    /// Total downlink bytes at row `i` (mirrors [`BinRecord::rx_total`]).
    pub fn rx_total(&self, i: usize) -> u64 {
        self.rx_cell(i) + self.rx_wifi[i]
    }

    /// Total uplink bytes at row `i` (mirrors [`BinRecord::tx_total`]).
    pub fn tx_total(&self, i: usize) -> u64 {
        self.tx_cell(i) + self.tx_wifi[i]
    }

    /// The associated AP at row `i`, if the bin was associated. Cheaper
    /// than [`wifi_assoc`](DatasetColumns::wifi_assoc) for passes that only
    /// need the AP reference: it touches the tag and AP columns only.
    pub fn assoc_ap_of(&self, i: usize) -> Option<ApRef> {
        (self.wifi_tag[i] == WifiTag::Associated).then(|| self.assoc_ap[i])
    }

    /// The association at row `i`, if the bin was associated.
    pub fn wifi_assoc(&self, i: usize) -> Option<WifiAssoc> {
        (self.wifi_tag[i] == WifiTag::Associated).then(|| WifiAssoc {
            ap: self.assoc_ap[i],
            band: self.assoc_band[i],
            channel: self.assoc_channel[i],
            rssi: self.assoc_rssi[i],
        })
    }

    /// Reconstruct the row-form WiFi state at row `i`.
    pub fn wifi_state(&self, i: usize) -> WifiBinState {
        match self.wifi_tag[i] {
            WifiTag::Off => WifiBinState::Off,
            WifiTag::OnUnassociated => WifiBinState::OnUnassociated,
            WifiTag::Associated => {
                WifiBinState::Associated(self.wifi_assoc(i).expect("tag says associated"))
            }
        }
    }

    /// The per-app entries of bin `i` (empty for iOS bins).
    pub fn apps_of(&self, i: usize) -> &[AppBin] {
        &self.apps[self.app_offsets[i] as usize..self.app_offsets[i + 1] as usize]
    }

    /// Columns back into rows: the inverse of
    /// [`build`](DatasetColumns::build), so `build(rows).to_bins() ==
    /// rows`. For fixtures, tests and the row-at-a-time reference passes.
    pub fn to_bins(&self) -> Vec<BinRecord> {
        (0..self.len())
            .map(|i| BinRecord {
                device: self.device[i],
                time: self.time[i],
                rx_3g: self.rx_3g[i],
                tx_3g: self.tx_3g[i],
                rx_lte: self.rx_lte[i],
                tx_lte: self.tx_lte[i],
                rx_wifi: self.rx_wifi[i],
                tx_wifi: self.tx_wifi[i],
                wifi: self.wifi_state(i),
                scan: self.scan.summary(i),
                apps: self.apps_of(i).to_vec(),
                geo: self.geo[i],
                os_version: self.os_version[i],
            })
            .collect()
    }

    /// Gather a row subset into a new, densely renumbered columnar view.
    ///
    /// `rows` are row indexes into `self` in strictly ascending order (a
    /// selection vector, as produced by a filter compiler). Each column is
    /// gathered on its own, the CSR app table is re-flattened, and the
    /// `sel_associated` / `sel_available` selection vectors are rebuilt in
    /// the *new* row numbering — so the result is bit-identical to
    /// [`build`](DatasetColumns::build) over exactly the selected rows.
    pub fn gather(&self, rows: &[u32]) -> DatasetColumns {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be ascending");
        fn pick<T: Copy>(col: &[T], rows: &[u32]) -> Vec<T> {
            rows.iter().map(|&r| col[r as usize]).collect()
        }
        let wifi_tag = pick(&self.wifi_tag, rows);
        let mut sel_associated = Vec::new();
        let mut sel_available = Vec::new();
        for (new_row, tag) in wifi_tag.iter().enumerate() {
            match tag {
                WifiTag::Associated => sel_associated.push(new_row as u32),
                WifiTag::OnUnassociated => sel_available.push(new_row as u32),
                WifiTag::Off => {}
            }
        }
        let n_apps = rows.iter().map(|&r| self.apps_of(r as usize).len()).sum();
        let mut app_offsets = Vec::with_capacity(rows.len() + 1);
        app_offsets.push(0);
        let mut apps = Vec::with_capacity(n_apps);
        for &r in rows {
            apps.extend_from_slice(self.apps_of(r as usize));
            app_offsets.push(apps.len() as u32);
        }
        let s = &self.scan;
        DatasetColumns {
            device: pick(&self.device, rows),
            time: pick(&self.time, rows),
            rx_3g: pick(&self.rx_3g, rows),
            tx_3g: pick(&self.tx_3g, rows),
            rx_lte: pick(&self.rx_lte, rows),
            tx_lte: pick(&self.tx_lte, rows),
            rx_wifi: pick(&self.rx_wifi, rows),
            tx_wifi: pick(&self.tx_wifi, rows),
            wifi_tag,
            assoc_ap: pick(&self.assoc_ap, rows),
            assoc_band: pick(&self.assoc_band, rows),
            assoc_channel: pick(&self.assoc_channel, rows),
            assoc_rssi: pick(&self.assoc_rssi, rows),
            scan: ScanColumns {
                n24_all: pick(&s.n24_all, rows),
                n24_strong: pick(&s.n24_strong, rows),
                n5_all: pick(&s.n5_all, rows),
                n5_strong: pick(&s.n5_strong, rows),
                n24_public_all: pick(&s.n24_public_all, rows),
                n24_public_strong: pick(&s.n24_public_strong, rows),
                n5_public_all: pick(&s.n5_public_all, rows),
                n5_public_strong: pick(&s.n5_public_strong, rows),
            },
            app_offsets,
            apps,
            geo: pick(&self.geo, rows),
            os_version: pick(&self.os_version, rows),
            sel_associated,
            sel_available,
        }
    }
}

/// The rows of a [`DatasetColumns`] an analysis pass reads: every row
/// ([`AllRows`]) or an ascending selection vector ([`Selection`]).
///
/// A pass is written once, generic over its row set. The set's `k`-th row
/// is [`row(k)`](RowSet::row); for [`AllRows`] that is `k` itself, so the
/// all-rows instantiation compiles to the same contiguous loops as a
/// whole-view scan, while a selection reads the selected rows where they
/// lie. Over a selection every pass returns exactly what it returns on
/// [`DatasetColumns::gather`] of that selection: rows are visited in the
/// same order, and the WiFi selection vectors are the view's own
/// restricted to the set.
pub trait RowSet {
    /// Number of rows in the set.
    fn len(&self, cols: &DatasetColumns) -> usize;

    /// Row index (into the columns) of the set's `k`-th row; ascending
    /// in `k`.
    fn row(&self, k: usize) -> usize;

    /// `Σ col[row(k)]` over the set positions `ks`.
    fn sum(&self, col: &[u64], ks: Range<usize>) -> u64;

    /// The set's associated rows, ascending: `cols.sel_associated`
    /// restricted to the set.
    fn associated<'s>(&'s self, cols: &'s DatasetColumns) -> &'s [u32];

    /// The set's WiFi-available rows, ascending: `cols.sel_available`
    /// restricted to the set.
    fn available<'s>(&'s self, cols: &'s DatasetColumns) -> &'s [u32];
}

/// Every row of the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllRows;

impl RowSet for AllRows {
    #[inline]
    fn len(&self, cols: &DatasetColumns) -> usize {
        cols.len()
    }

    #[inline]
    fn row(&self, k: usize) -> usize {
        k
    }

    #[inline]
    fn sum(&self, col: &[u64], ks: Range<usize>) -> u64 {
        crate::lanes::sum(&col[ks])
    }

    fn associated<'s>(&'s self, cols: &'s DatasetColumns) -> &'s [u32] {
        &cols.sel_associated
    }

    fn available<'s>(&'s self, cols: &'s DatasetColumns) -> &'s [u32] {
        &cols.sel_available
    }
}

/// An ascending selection of rows of one [`DatasetColumns`], with its own
/// associated and WiFi-available selection vectors (split out of the
/// selection once, by one pass over the WiFi tag column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    rows: Vec<u32>,
    associated: Vec<u32>,
    available: Vec<u32>,
}

impl Selection {
    /// Select `rows` (strictly ascending row indexes) of `cols`. The
    /// selection must only be read with these columns.
    pub fn new(cols: &DatasetColumns, rows: Vec<u32>) -> Selection {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be ascending");
        let mut associated = Vec::new();
        let mut available = Vec::new();
        for &r in &rows {
            match cols.wifi_tag[r as usize] {
                WifiTag::Associated => associated.push(r),
                WifiTag::OnUnassociated => available.push(r),
                WifiTag::Off => {}
            }
        }
        Selection { rows, associated, available }
    }
}

impl RowSet for Selection {
    #[inline]
    fn len(&self, _cols: &DatasetColumns) -> usize {
        self.rows.len()
    }

    #[inline]
    fn row(&self, k: usize) -> usize {
        self.rows[k] as usize
    }

    #[inline]
    fn sum(&self, col: &[u64], ks: Range<usize>) -> u64 {
        self.rows[ks].iter().map(|&r| col[r as usize]).sum()
    }

    fn associated<'s>(&'s self, _cols: &'s DatasetColumns) -> &'s [u32] {
        &self.associated
    }

    fn available<'s>(&'s self, _cols: &'s DatasetColumns) -> &'s [u32] {
        &self.available
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppCategory;
    use crate::dataset::*;

    fn bin(dev: u32, minute: u32, wifi: WifiBinState, apps: Vec<AppBin>) -> BinRecord {
        BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_minutes(minute),
            rx_3g: 1,
            tx_3g: 2,
            rx_lte: 3,
            tx_lte: 4,
            rx_wifi: 5,
            tx_wifi: 6,
            wifi,
            scan: ScanSummary { n24_all: 7, n5_strong: 8, ..ScanSummary::default() },
            apps,
            geo: CellId::new(1, -2),
            os_version: OsVersion::new(8, 1),
        }
    }

    /// The rows of a dataset: sorted by (device, time).
    fn dataset(mut bins: Vec<BinRecord>) -> Vec<BinRecord> {
        bins.sort_by_key(|b| (b.device, b.time));
        bins
    }

    fn assoc() -> WifiBinState {
        WifiBinState::Associated(WifiAssoc {
            ap: ApRef(0),
            band: Band::Ghz5,
            channel: Channel(48),
            rssi: Dbm::new(-62),
        })
    }

    fn app(cat: AppCategory, rx: u64) -> AppBin {
        AppBin { category: cat, rx_bytes: rx, tx_bytes: rx / 2 }
    }

    #[test]
    fn transpose_reconstructs_every_row() {
        let ds = dataset(vec![
            bin(0, 0, WifiBinState::Off, vec![app(AppCategory::Social, 10)]),
            bin(0, 10, assoc(), vec![app(AppCategory::Video, 20), app(AppCategory::Game, 30)]),
            bin(1, 0, WifiBinState::OnUnassociated, vec![]),
        ]);
        let c = DatasetColumns::build(&ds);
        assert_eq!(c.len(), ds.len());
        assert_eq!(c.app_offsets.len(), ds.len() + 1);
        for (i, b) in ds.iter().enumerate() {
            assert_eq!(c.device[i], b.device);
            assert_eq!(c.time[i], b.time);
            assert_eq!(
                (c.rx_3g[i], c.tx_3g[i], c.rx_lte[i], c.tx_lte[i], c.rx_wifi[i], c.tx_wifi[i]),
                (b.rx_3g, b.tx_3g, b.rx_lte, b.tx_lte, b.rx_wifi, b.tx_wifi),
            );
            assert_eq!(c.wifi_state(i), b.wifi);
            assert_eq!(c.wifi_assoc(i).as_ref(), b.wifi.assoc());
            assert_eq!(c.scan.summary(i), b.scan);
            assert_eq!(c.apps_of(i), b.apps.as_slice());
            assert_eq!(c.geo[i], b.geo);
            assert_eq!(c.os_version[i], b.os_version);
            assert_eq!(c.rx_cell(i), b.rx_cell());
            assert_eq!(c.tx_cell(i), b.tx_cell());
            assert_eq!(c.rx_total(i), b.rx_total());
            assert_eq!(c.tx_total(i), b.tx_total());
            assert_eq!(c.assoc_ap_of(i), b.wifi.assoc().map(|a| a.ap));
        }
    }

    #[test]
    fn tags_mirror_states() {
        assert_eq!(WifiTag::of(&WifiBinState::Off), WifiTag::Off);
        assert!(!WifiTag::Off.is_on());
        assert!(WifiTag::OnUnassociated.is_on());
        assert!(WifiTag::Associated.is_on());
    }

    #[test]
    fn empty_dataset_builds_empty_columns() {
        let c = DatasetColumns::build(&dataset(vec![]));
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.app_offsets, vec![0]);
        assert!(c.apps.is_empty());
    }

    #[test]
    fn selection_vectors_partition_wifi_states() {
        let ds = dataset(vec![
            bin(0, 0, WifiBinState::Off, vec![]),
            bin(0, 10, assoc(), vec![]),
            bin(0, 20, WifiBinState::OnUnassociated, vec![]),
            bin(1, 0, assoc(), vec![]),
            bin(1, 10, WifiBinState::OnUnassociated, vec![]),
        ]);
        let c = DatasetColumns::build(&ds);
        let expect = |tag: WifiTag| -> Vec<u32> {
            (0..c.len()).filter(|&i| c.wifi_tag[i] == tag).map(|i| i as u32).collect()
        };
        assert_eq!(c.sel_associated, expect(WifiTag::Associated));
        assert_eq!(c.sel_available, expect(WifiTag::OnUnassociated));
        assert_eq!(
            c.sel_associated.len() + c.sel_available.len(),
            c.wifi_tag.iter().filter(|t| t.is_on()).count()
        );
    }

    /// `gather` over any ascending subset must equal `build` over a
    /// dataset holding exactly those bins — CSR and selection vectors
    /// included.
    #[test]
    fn gather_matches_build_over_subset() {
        let bins = vec![
            bin(0, 0, WifiBinState::Off, vec![app(AppCategory::Social, 10)]),
            bin(0, 10, assoc(), vec![app(AppCategory::Video, 20), app(AppCategory::Game, 30)]),
            bin(0, 20, WifiBinState::OnUnassociated, vec![]),
            bin(1, 0, assoc(), vec![app(AppCategory::Browser, 5)]),
            bin(1, 10, WifiBinState::OnUnassociated, vec![]),
            bin(1, 20, WifiBinState::Off, vec![]),
        ];
        let ds = dataset(bins);
        let full = DatasetColumns::build(&ds);
        let subsets: Vec<Vec<u32>> =
            vec![vec![], vec![0], vec![1, 3], vec![0, 2, 4, 5], (0..ds.len() as u32).collect()];
        for rows in subsets {
            let gathered = full.gather(&rows);
            let sub_ds = dataset(rows.iter().map(|&r| ds[r as usize].clone()).collect());
            let rebuilt = DatasetColumns::build(&sub_ds);
            assert_eq!(gathered, rebuilt, "subset {rows:?}");
        }
    }

    /// A selection's sums and WiFi selection vectors equal those of the
    /// gathered view, renumbered back into source rows.
    #[test]
    fn selection_reads_what_gather_copies() {
        let ds = dataset(vec![
            bin(0, 0, WifiBinState::Off, vec![]),
            bin(0, 10, assoc(), vec![]),
            bin(0, 20, WifiBinState::OnUnassociated, vec![]),
            bin(1, 0, assoc(), vec![]),
            bin(1, 10, WifiBinState::OnUnassociated, vec![]),
            bin(1, 20, assoc(), vec![]),
        ]);
        let full = DatasetColumns::build(&ds);
        for rows in [vec![], vec![0], vec![1, 2, 5], vec![0, 3, 4], vec![0, 1, 2, 3, 4, 5]] {
            let g = full.gather(&rows);
            let sel = Selection::new(&full, rows.clone());
            let back = |v: &[u32]| -> Vec<u32> { v.iter().map(|&k| rows[k as usize]).collect() };
            assert_eq!((0..sel.len(&full)).map(|k| sel.row(k) as u32).collect::<Vec<_>>(), rows);
            assert_eq!(sel.len(&full), g.len());
            assert_eq!(sel.associated(&full), back(&g.sel_associated), "{rows:?}");
            assert_eq!(sel.available(&full), back(&g.sel_available), "{rows:?}");
            for k in 0..=rows.len() {
                assert_eq!(sel.sum(&full.rx_3g, 0..k), crate::lanes::sum(&g.rx_3g[..k]));
            }
        }
        assert_eq!(AllRows.associated(&full), full.sel_associated.as_slice());
        assert_eq!(AllRows.sum(&full.tx_wifi, 1..4), 18);
    }

    /// `to_bins` inverts `build` across every WiFi state and CSR shape
    /// (empty, single- and multi-entry app rows).
    #[test]
    fn to_bins_inverts_build() {
        let ds = dataset(vec![
            bin(0, 0, WifiBinState::Off, vec![]),
            bin(0, 10, assoc(), vec![app(AppCategory::Video, 20), app(AppCategory::Game, 30)]),
            bin(0, 20, WifiBinState::OnUnassociated, vec![app(AppCategory::Social, 10)]),
            bin(1, 0, assoc(), vec![]),
            bin(
                1,
                10,
                WifiBinState::Off,
                vec![
                    app(AppCategory::Browser, 1),
                    app(AppCategory::Browser, 2),
                    app(AppCategory::Video, 3),
                ],
            ),
            bin(2, 5, WifiBinState::OnUnassociated, vec![]),
        ]);
        assert_eq!(DatasetColumns::build(&ds).to_bins(), ds);
        assert!(DatasetColumns::build(&dataset(vec![])).to_bins().is_empty());
    }

    /// Concatenating row ranges equals building over the concatenated
    /// rows — CSR rebasing and shifted selection vectors included.
    #[test]
    fn extend_from_range_matches_build_over_concatenation() {
        let bins = vec![
            bin(0, 0, WifiBinState::Off, vec![app(AppCategory::Social, 10)]),
            bin(0, 10, assoc(), vec![app(AppCategory::Video, 20), app(AppCategory::Game, 30)]),
            bin(0, 20, WifiBinState::OnUnassociated, vec![]),
            bin(1, 0, assoc(), vec![app(AppCategory::Browser, 5)]),
            bin(1, 10, WifiBinState::OnUnassociated, vec![]),
            bin(1, 20, WifiBinState::Off, vec![]),
        ];
        let ds = dataset(bins);
        let full = DatasetColumns::build(&ds);
        for ranges in [vec![0..6, 6..6], vec![0..2, 3..6], vec![1..1, 2..4, 5..6], vec![4..6, 0..1]]
        {
            let mut c = DatasetColumns::with_capacity(0, 0);
            for r in &ranges {
                c.extend_from_range(&full, r.clone());
            }
            let picked = ranges.iter().flat_map(|r| ds[r.clone()].iter().cloned());
            let mut want = DatasetColumns::with_capacity(0, 0);
            for b in picked {
                want.push(&b);
            }
            assert_eq!(c, want, "ranges {ranges:?}");
            c.clear();
            assert_eq!(c, DatasetColumns::with_capacity(0, 0));
        }
    }

    #[test]
    fn csr_concatenates_in_bin_order() {
        let ds = dataset(vec![
            bin(0, 0, WifiBinState::Off, vec![app(AppCategory::Social, 1)]),
            bin(0, 10, WifiBinState::Off, vec![]),
            bin(
                0,
                20,
                WifiBinState::Off,
                vec![app(AppCategory::Video, 2), app(AppCategory::Browser, 3)],
            ),
        ]);
        let c = DatasetColumns::build(&ds);
        assert_eq!(c.app_offsets, vec![0, 1, 1, 3]);
        assert_eq!(c.apps.len(), 3);
        assert!(c.apps_of(1).is_empty());
        assert_eq!(c.apps_of(2).len(), 2);
    }
}
