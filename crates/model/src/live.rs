//! Incremental dataset construction for the streaming analysis engine.
//!
//! The batch pipeline builds its products in two passes: `clean` interns
//! everything into a [`Dataset`] whose bins are columns, then
//! [`DatasetIndex::build`] re-scans the device and time columns. A live
//! consumer cannot afford either full scan per update, so this
//! module keeps the dataset in LSM style instead, entirely in columns:
//!
//! * the cleaner pushes each kept bin through [`BinSink`] into a
//!   per-device *tail* column run. The association is stored under an
//!   **append-time AP id** from an [`ApInterner`]: each new (BSSID, ESSID)
//!   pair is interned once, the first time it is seen (its `Essid` is
//!   cloned only then), because the canonical AP numbering is a
//!   whole-dataset property that only compaction can decide;
//! * retroactive removals (the iOS-update-day rule discovers its victim
//!   days *after* their bins were appended) are recorded as per-device day
//!   **tombstones** and only counted logically in the merged run; a
//!   tail's dead rows are its last rows and are truncated at once, as the
//!   batch cleaner truncates its columns;
//! * a periodic **compaction** builds the next merged run — a
//!   [`DatasetColumns`] in (device, time) order with per-device ranges —
//!   by slice copies: each device's previous merged slice minus its
//!   tombstoned days (one contiguous span, since a device's rows are
//!   time-sorted), then that device's tail. One pass over the associated
//!   rows then **renumbers** every AP to the canonical first-encounter
//!   [`ApRef`] and emits the AP table (the pass batch `clean` ends with
//!   too), and the index is rebuilt from the device/time columns.
//!
//! The merged run *is* the published [`LiveSnapshot`]'s columns: the
//! builder keeps an `Arc` of the snapshot it last published, so each
//! compaction makes exactly one copy of the live rows. Every snapshot,
//! mid-run or finished, leaves `ds.bins` empty: `cols` plus `index` are
//! the rows, held once. No path rebuilds rows. A snapshot taken between
//! compactions is a pointer clone, never a rebuild, and after the final
//! compaction the snapshot is bit-identical to what the batch pipeline
//! produces from the same cleaned records, which the live engine's
//! convergence proof asserts.
//!
//! **Cadence.** A compaction fires once the tails hold at least
//! `compact_min_tail` rows *and* 1/32 of the live merged run. Each
//! compaction copies the merged run plus the tails, at most 33× the
//! tails, so total copy work stays linear: at most 33× the rows appended.
//! The ratio sets how often readers see a new generation, and each
//! generation also costs the readers a query refresh on the same drain
//! thread. Measured on the `mtbench` `live_serve` workload (scale 0.04,
//! 2 vCPUs, six registered queries), with column-run compaction and the
//! filtered queries read in place:
//!
//! | ratio | generations | staleness p50 / p90 | drain idle | tap spill |
//! |-------|-------------|---------------------|------------|-----------|
//! | ½     | 14  | 0.35 s / 0.92 s | 4.1 s | ≈3k |
//! | 1/16  | 60  | 0.079 s / 0.198 s | 3.6 s | ≈17k |
//! | 1/32  | 96  | 0.050–0.052 s / 0.118–0.120 s | 2.6–3.2 s | ≈27–48k |
//! | 1/64  | 145 | 0.040 s / 0.079 s | 2.15–2.17 s | ≈60–65k |
//!
//! (Generations, idle seconds and records spilled into the tap's
//! unbounded side buffer are per ≈4.7 s replay.) When every filtered
//! query gathered its own copy of the columns, 1/16 measured
//! 0.110 s / 0.247 s with 2.5–2.6 s idle and ≈67–71k spilled. 1/32 beats
//! that on staleness and still leaves at least that much idle time; 1/64
//! is fresher again, but leaves the drain thread less idle time than
//! that and spills about as much.

use crate::columns::DatasetColumns;
use crate::dataset::{ApEntry, ApRef, BinRecord, CampaignMeta, Dataset, DeviceInfo};
use crate::ids::{DeviceId, Essid};
use crate::index::DatasetIndex;
use crate::net::AssocInfo;
use crate::time::SimTime;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Compaction trigger: compact once the tails hold at least this many rows
/// *and* at least 1/[`COMPACT_RATIO`] of the live merged run. The
/// multiplicative part makes total compaction work linear in the final row
/// count; the additive floor stops tiny datasets from compacting after
/// every batch.
const COMPACT_MIN_TAIL: usize = 1024;

/// Tails must reach `merged / COMPACT_RATIO` rows before a compaction.
/// Each compaction then copies at most `COMPACT_RATIO + 1` times its
/// tails. 32 is the freshest ratio measured that still leaves the drain
/// thread as much idle time as 1/16 did when filtered queries gathered
/// their columns (see the cadence table in the module docs).
const COMPACT_RATIO: usize = 32;

/// Where a cleaner puts the bins it keeps: the live builder here, or the
/// batch pipeline's dataset columns.
pub trait BinSink {
    /// The AP reference an association is stored under.
    fn intern(&mut self, a: &AssocInfo) -> ApRef;
    /// Append one kept bin, its AP under its [`intern`](Self::intern)
    /// reference.
    fn push(&mut self, bin: &BinRecord);
    /// The device's update day was just detected: cut its rows already
    /// pushed on `day` and `day + 1`, and return how many.
    fn drop_update_days(&mut self, device: DeviceId, day: u32) -> u64;
}

/// One published state of the live dataset: the identifier tables plus the
/// two views every columnar analysis pass needs, all consistent with each
/// other. The engine hands these out behind an `Arc`, so taking a snapshot
/// costs a reference count, not a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Campaign metadata, device table and canonical AP table. `bins` is
    /// always empty: `cols` holds the rows, in mid-run generations and in
    /// the finished snapshot alike.
    pub ds: Dataset,
    /// Per-device / per-day row ranges over `cols`.
    pub index: DatasetIndex,
    /// The rows, in (device, time) order.
    pub cols: DatasetColumns,
    /// Compactions performed so far (including the one that produced this).
    pub compactions: u64,
}

impl LiveSnapshot {
    /// Bin rows in this snapshot.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when the snapshot holds no bins.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// LSM-style builder behind the live engine: per-device tail appends, day
/// tombstones, periodic compaction into a [`LiveSnapshot`].
///
/// Rows must be appended per device in ascending time order (the engine's
/// watermark discipline guarantees it); across devices any interleaving is
/// fine.
#[derive(Debug)]
pub struct LiveTableBuilder {
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
    /// The last published snapshot. Its columns are the merged run: sorted
    /// by (device, time), tombstones applied as of that compaction, APs
    /// numbered canonically.
    merged: Arc<LiveSnapshot>,
    /// Per-device range into the merged run.
    merged_ranges: Vec<Range<usize>>,
    /// The merged run's canonical AP ids → append-time ids.
    canon_to_intern: Vec<u32>,
    /// Per-device uncompacted appends, each in ascending time order, APs
    /// under append-time ids.
    tails: Vec<DatasetColumns>,
    /// Rows across all tails.
    tail_rows: usize,
    /// Append-time AP ids.
    aps: ApInterner,
    /// Update day per device: bins on `d` and `d + 1` are dead. Applied
    /// logically on registration, physically at the next compaction.
    tombs: Vec<Option<u32>>,
    /// Rows in the merged run that tombstones have logically removed (they
    /// stop counting toward `len`, and compaction will drop them).
    dead_merged: usize,
    compactions: u64,
    /// Additive compaction floor (tests shrink it to force compactions).
    compact_min_tail: usize,
}

/// The rows of a time-sorted slice that fall on `day` or `day + 1` — one
/// contiguous span.
fn dead_span(time: &[SimTime], day: u32) -> Range<usize> {
    time.partition_point(|t| t.day() < day)..time.partition_point(|t| t.day() <= day + 1)
}

/// Cut the rows of `cols[from..]`, one device's time-sorted rows, that
/// fall on update day `day` or the day after, and return how many went.
/// The cleaner detects the update on the device's first record on `day`,
/// before any later one, so those rows are the last rows of `cols`.
pub fn truncate_update_days(cols: &mut DatasetColumns, from: usize, day: u32) -> usize {
    let dead = dead_span(&cols.time[from..], day);
    if dead.is_empty() {
        return 0;
    }
    debug_assert_eq!(from + dead.end, cols.len(), "update-day rows must be the last rows");
    cols.truncate(from + dead.start);
    dead.len()
}

/// Append-time AP ids: each (BSSID, ESSID) pair gets the next id the first
/// time it is seen, and its `Essid` is cloned only then. The batch cleaner
/// and the live builder both store associations under these ids and
/// [`renumber`](ApInterner::renumber) them once the rows are final, so the
/// two paths share one AP numbering.
#[derive(Debug, Default)]
pub struct ApInterner {
    entries: Vec<ApEntry>,
    ids: HashMap<(u64, Essid), u32>,
}

impl ApInterner {
    /// The append-time id of an association's AP.
    pub fn intern(&mut self, a: &AssocInfo) -> ApRef {
        let entries = &mut self.entries;
        let key = (a.bssid.as_u64(), a.essid.clone());
        ApRef(*self.ids.entry(key).or_insert_with_key(|(_, essid)| {
            entries.push(ApEntry { bssid: a.bssid, essid: essid.clone() });
            (entries.len() - 1) as u32
        }))
    }

    /// Renumber the associated rows of `cols` from append-time ids to the
    /// canonical order, first encounter over `cols`' rows. Returns the
    /// canonical AP table and each canonical id's append-time id. An AP
    /// that no row of `cols` references (its rows were cut) gets no entry.
    pub fn renumber(&self, cols: &mut DatasetColumns) -> (Vec<ApEntry>, Vec<u32>) {
        let mut canon = vec![u32::MAX; self.entries.len()];
        let (mut aps, mut canon_to_intern) = (Vec::new(), Vec::new());
        for &r in &cols.sel_associated {
            let ap = &mut cols.assoc_ap[r as usize];
            let id = ap.index();
            if canon[id] == u32::MAX {
                canon[id] = aps.len() as u32;
                aps.push(self.entries[id].clone());
                canon_to_intern.push(id as u32);
            }
            *ap = ApRef(canon[id]);
        }
        (aps, canon_to_intern)
    }
}

impl LiveTableBuilder {
    /// New builder over a fixed device table. Every appended row's device
    /// must index into `devices`.
    pub fn new(meta: CampaignMeta, devices: Vec<DeviceInfo>) -> LiveTableBuilder {
        let n = devices.len();
        let cols = DatasetColumns::with_capacity(0, 0);
        let merged = Arc::new(LiveSnapshot {
            index: DatasetIndex::build_cols(&cols, n),
            cols,
            ds: Dataset {
                meta: meta.clone(),
                devices: devices.clone(),
                aps: vec![],
                bins: DatasetColumns::default(),
            },
            compactions: 0,
        });
        LiveTableBuilder {
            meta,
            devices,
            merged,
            merged_ranges: vec![0..0; n],
            canon_to_intern: Vec::new(),
            tails: (0..n).map(|_| DatasetColumns::with_capacity(0, 0)).collect(),
            tail_rows: 0,
            aps: ApInterner::default(),
            tombs: vec![None; n],
            dead_merged: 0,
            compactions: 0,
            compact_min_tail: COMPACT_MIN_TAIL,
        }
    }

    /// Override the additive compaction floor (test hook — a floor of 1
    /// compacts as aggressively as the size ratio allows).
    pub fn with_compact_min_tail(mut self, min_tail: usize) -> LiveTableBuilder {
        self.compact_min_tail = min_tail.max(1);
        self
    }

    /// Replace the device table (same length). The campaign runner only
    /// learns survey answers and ground truth after the last device
    /// finishes, so the engine installs the real table just before the
    /// final compaction.
    pub fn install_devices(&mut self, devices: Vec<DeviceInfo>) {
        assert_eq!(devices.len(), self.devices.len(), "device table size changed");
        self.devices = devices;
    }

    /// Number of devices in the table.
    pub fn n_devices(&self) -> usize {
        self.devices.len()
    }

    /// Live rows (appended minus tombstoned).
    pub fn len(&self) -> usize {
        self.merged.len() - self.dead_merged + self.tail_rows
    }

    /// True when no live rows exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Compactions performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The last published snapshot (an empty one before the first
    /// compaction) — an `Arc` clone.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.merged)
    }

    /// Register a device's iOS-update day: rows on `day` and `day + 1` are
    /// logically removed now and physically dropped at the next compaction.
    /// Returns how many already-appended rows the tombstone killed.
    pub fn tombstone_update_day(&mut self, device: DeviceId, day: u32) -> u64 {
        let d = device.index();
        debug_assert!(self.tombs[d].is_none(), "one update day per device");
        self.tombs[d] = Some(day);
        let in_merged = dead_span(&self.merged.cols.time[self.merged_ranges[d].clone()], day).len();
        self.dead_merged += in_merged;
        // Dead tail rows are cut now; every later append is filtered by the
        // engine's cleaner.
        let in_tail = truncate_update_days(&mut self.tails[d], 0, day);
        self.tail_rows -= in_tail;
        (in_merged + in_tail) as u64
    }

    /// Whether enough tail rows have piled up to amortise a compaction.
    pub fn should_compact(&self) -> bool {
        self.tail_rows >= self.compact_min_tail
            && self.tail_rows * COMPACT_RATIO >= self.merged.len() - self.dead_merged
    }

    /// Merge the tails and tombstones into a fresh run and publish it as
    /// the next snapshot (see the [module docs](self)).
    pub fn compact(&mut self) -> Arc<LiveSnapshot> {
        let src = &self.merged.cols;
        let tail_apps: usize = self.tails.iter().map(|t| t.apps.len()).sum();
        let mut cols = DatasetColumns::with_capacity(self.len(), src.apps.len() + tail_apps);
        for d in 0..self.devices.len() {
            let start = cols.len();
            let range = self.merged_ranges[d].clone();
            let keep = match self.tombs[d] {
                Some(day) => {
                    let dead = dead_span(&src.time[range.clone()], day);
                    [range.start..range.start + dead.start, range.start + dead.end..range.end]
                }
                None => [range, 0..0],
            };
            for rows in keep {
                // Merged rows carry last compaction's canonical ids; map
                // them back to append-time ids like the tail's.
                let from = cols.sel_associated.len();
                cols.extend_from_range(src, rows);
                for &r in &cols.sel_associated[from..] {
                    let ap = &mut cols.assoc_ap[r as usize];
                    *ap = ApRef(self.canon_to_intern[ap.index()]);
                }
            }
            let tail = &mut self.tails[d];
            cols.extend_from_range(tail, 0..tail.len());
            tail.truncate(0);
            self.merged_ranges[d] = start..cols.len();
        }
        debug_assert_eq!(cols.len(), self.len());

        // Canonical renumbering: first encounter in (device, time) order.
        let (aps, canon_to_intern) = self.aps.renumber(&mut cols);
        self.canon_to_intern = canon_to_intern;

        self.tail_rows = 0;
        self.dead_merged = 0;
        self.compactions += 1;
        self.merged = Arc::new(LiveSnapshot {
            index: DatasetIndex::build_cols(&cols, self.devices.len()),
            cols,
            ds: Dataset {
                meta: self.meta.clone(),
                devices: self.devices.clone(),
                aps,
                bins: DatasetColumns::default(),
            },
            compactions: self.compactions,
        });
        Arc::clone(&self.merged)
    }
}

/// Bins go to their device's tail under append-time AP ids; a detected
/// update day becomes the device's tombstone.
impl BinSink for LiveTableBuilder {
    fn intern(&mut self, a: &AssocInfo) -> ApRef {
        self.aps.intern(a)
    }

    fn push(&mut self, bin: &BinRecord) {
        let tail = &mut self.tails[bin.device.index()];
        debug_assert!(
            tail.time.last().is_none_or(|&t| t < bin.time),
            "tail appends must be in ascending time order"
        );
        tail.push(bin);
        self.tail_rows += 1;
    }

    fn drop_update_days(&mut self, device: DeviceId, day: u32) -> u64 {
        self.tombstone_update_day(device, day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Carrier, ScanSummary, WifiAssoc, WifiBinState};
    use crate::ids::{Bssid, CellId};
    use crate::net::{Band, Channel, WifiState};
    use crate::record::{Os, OsVersion};
    use crate::time::Year;
    use crate::units::Dbm;

    fn meta(days: u32) -> CampaignMeta {
        CampaignMeta { year: Year::Y2015, start: Year::Y2015.campaign_start(), days, seed: 0 }
    }

    fn devices(n: u32) -> Vec<DeviceInfo> {
        (0..n)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: Os::Android,
                carrier: Carrier::A,
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect()
    }

    /// A cleaned bin and its raw WiFi state, before its AP is interned.
    type Row = (BinRecord, WifiState);

    fn row(dev: u32, day: u32, bin: u32, wifi: WifiState) -> Row {
        let bin = BinRecord {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, bin),
            rx_3g: 1,
            tx_3g: 2,
            rx_lte: 3,
            tx_lte: 4,
            rx_wifi: u64::from(dev * 100 + day * 10 + bin),
            tx_wifi: 6,
            wifi: WifiBinState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(1, 1),
            os_version: OsVersion::new(8, 1),
        };
        (bin, wifi)
    }

    /// Intern the row's AP and push it, as the cleaner does.
    fn append(b: &mut LiveTableBuilder, (bin, wifi): &Row) {
        let wifi = WifiBinState::of(wifi, |a| b.intern(a));
        b.push(&BinRecord { wifi, ..bin.clone() });
    }

    fn assoc(name: &str, mac: u64) -> WifiState {
        WifiState::Associated(AssocInfo {
            bssid: Bssid::from_u64(mac),
            essid: Essid::new(name),
            band: Band::Ghz24,
            channel: Channel(6),
            rssi: Dbm::new(-60),
        })
    }

    /// The snapshot's dataset with its bins filled from the columns.
    fn with_rows(snap: &LiveSnapshot) -> Dataset {
        Dataset { bins: snap.cols.clone(), ..snap.ds.clone() }
    }

    /// The reference: what the snapshot must equal, computed the batch way
    /// (direct Dataset + batch index/column builds over the same rows).
    fn batch_reference(meta: CampaignMeta, devs: Vec<DeviceInfo>, rows: &[Row]) -> LiveSnapshot {
        let mut rows: Vec<Row> = rows.to_vec();
        rows.sort_by_key(|(r, _)| (r.device, r.time));
        let mut aps: Vec<ApEntry> = Vec::new();
        let mut ap_index: HashMap<(u64, String), ApRef> = HashMap::new();
        let bins: Vec<BinRecord> = rows
            .iter()
            .map(|(r, wifi)| BinRecord {
                wifi: match wifi {
                    WifiState::Off => WifiBinState::Off,
                    WifiState::OnUnassociated => WifiBinState::OnUnassociated,
                    WifiState::Associated(a) => {
                        let key = (a.bssid.as_u64(), a.essid.as_str().to_owned());
                        let ap = *ap_index.entry(key).or_insert_with(|| {
                            let ap = ApRef(aps.len() as u32);
                            aps.push(ApEntry { bssid: a.bssid, essid: a.essid.clone() });
                            ap
                        });
                        WifiBinState::Associated(WifiAssoc {
                            ap,
                            band: a.band,
                            channel: a.channel,
                            rssi: a.rssi,
                        })
                    }
                },
                ..r.clone()
            })
            .collect();
        let ds = Dataset { meta, devices: devs, aps, bins: DatasetColumns::build(&bins) };
        LiveSnapshot {
            index: DatasetIndex::build(&ds),
            cols: DatasetColumns::build(&bins),
            ds,
            compactions: 0,
        }
    }

    #[test]
    fn compaction_matches_batch_build() {
        let mut b = LiveTableBuilder::new(meta(5), devices(3)).with_compact_min_tail(4);
        let rows = vec![
            row(0, 0, 0, assoc("home", 1)),
            row(2, 0, 0, assoc("work", 2)),
            row(0, 0, 1, assoc("home", 1)),
            row(2, 0, 5, WifiState::Off),
            row(0, 1, 0, assoc("cafe", 3)),
            row(2, 1, 0, assoc("home", 1)),
            row(0, 1, 1, WifiState::OnUnassociated),
        ];
        for (k, r) in rows.iter().enumerate() {
            append(&mut b, r);
            if b.should_compact() {
                b.compact();
            }
            assert_eq!(b.len(), k + 1);
        }
        let snap = b.compact();
        let want = batch_reference(meta(5), devices(3), &rows);
        assert_eq!(with_rows(&snap), want.ds);
        assert_eq!(snap.index, want.index);
        assert_eq!(snap.cols, want.cols);
        assert!(snap.ds.bins.is_empty(), "mid-run generations carry no rows");
        with_rows(&snap).validate().unwrap();
        // Device 1 never appeared; its range must still be addressable.
        assert!(snap.index.device_range(DeviceId(1)).is_empty());
    }

    /// Canonical AP numbering is first-encounter over (device, time) order
    /// — *not* arrival order — so interleaved appends across devices must
    /// not disturb it, and multiple compactions must agree.
    #[test]
    fn ap_order_is_device_time_not_arrival() {
        let mut b = LiveTableBuilder::new(meta(3), devices(2)).with_compact_min_tail(1);
        // Device 1's "late" AP arrives first.
        append(&mut b, &row(1, 0, 0, assoc("late", 9)));
        let first = b.compact();
        assert_eq!(first.ds.aps.len(), 1);
        append(&mut b, &row(0, 0, 0, assoc("early", 5)));
        let snap = b.compact();
        assert_eq!(snap.ds.aps[0].essid.as_str(), "early");
        assert_eq!(snap.ds.aps[1].essid.as_str(), "late");
        let want = batch_reference(
            meta(3),
            devices(2),
            &[row(1, 0, 0, assoc("late", 9)), row(0, 0, 0, assoc("early", 5))],
        );
        assert_eq!(with_rows(&snap), want.ds);
    }

    #[test]
    fn tombstone_removes_update_days_logically_and_physically() {
        let mut b = LiveTableBuilder::new(meta(5), devices(2)).with_compact_min_tail(1);
        for day in 0..4u32 {
            append(&mut b, &row(0, day, 0, WifiState::Off));
            append(&mut b, &row(1, day, 0, WifiState::Off));
        }
        b.compact();
        append(&mut b, &row(0, 4, 0, WifiState::Off));
        assert_eq!(b.len(), 9);
        // Device 0 updated on day 1: days 1 and 2 die — two in the merged
        // run, none in the tail.
        let killed = b.tombstone_update_day(DeviceId(0), 1);
        assert_eq!(killed, 2);
        assert_eq!(b.len(), 7, "logical removal is immediate");
        let snap = b.compact();
        assert_eq!(snap.len(), 7);
        let want_rows: Vec<Row> = (0..4u32)
            .flat_map(|day| [row(0, day, 0, WifiState::Off), row(1, day, 0, WifiState::Off)])
            .chain([row(0, 4, 0, WifiState::Off)])
            .filter(|(r, _)| !(r.device == DeviceId(0) && (r.time.day() == 1 || r.time.day() == 2)))
            .collect();
        let want = batch_reference(meta(5), devices(2), &want_rows);
        assert_eq!(with_rows(&snap), want.ds);
        assert_eq!(snap.index, want.index);
        assert_eq!(snap.cols, want.cols);
    }

    #[test]
    fn tombstone_filters_tail_rows_too() {
        let mut b = LiveTableBuilder::new(meta(4), devices(1)).with_compact_min_tail(100);
        for day in 0..4u32 {
            append(&mut b, &row(0, day, 0, WifiState::Off));
        }
        // All four rows still in the tail; update day 2 kills days 2 and 3.
        let killed = b.tombstone_update_day(DeviceId(0), 2);
        assert_eq!(killed, 2);
        assert_eq!(b.len(), 2);
        let snap = b.compact();
        let days: Vec<u32> = snap.cols.time.iter().map(|t| t.day()).collect();
        assert_eq!(days, vec![0, 1]);
    }

    /// Every compaction copies the live merged run plus the tails, and the
    /// 1/32 trigger fires only once the tails reach 1/32 of the run — so
    /// each copy is at most 33× its tails and the total stays linear.
    #[test]
    fn compaction_trigger_amortises() {
        let n = 4_000usize;
        let mut b = LiveTableBuilder::new(meta(30), devices(2)).with_compact_min_tail(8);
        let mut copied = 0usize;
        for k in 0..n as u32 {
            append(&mut b, &row(k % 2, k / 288, (k / 2) % 144, WifiState::Off));
            if b.should_compact() {
                copied += b.compact().len();
            }
        }
        assert!(b.compactions() >= 2, "trigger never fired");
        assert!(copied <= 33 * n, "compactions copied {copied} rows for {n} appended");
        assert_eq!(b.len(), n);
    }

    #[test]
    fn empty_builder_compacts_to_empty_snapshot() {
        let mut b = LiveTableBuilder::new(meta(1), devices(2));
        let snap = b.compact();
        assert!(snap.is_empty());
        assert_eq!(snap.len(), 0);
        assert_eq!(snap.ds.devices.len(), 2);
        assert_eq!(snap.cols.app_offsets, vec![0]);
        snap.ds.validate().unwrap();
    }
}
