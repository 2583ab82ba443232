//! Incremental dataset construction for the streaming analysis engine.
//!
//! The batch pipeline builds its products in three passes: `clean` sorts
//! and interns everything into a [`Dataset`], then [`DatasetIndex::build`]
//! and [`DatasetColumns::build`] each re-scan the bin table. A live
//! consumer cannot afford any of those full scans per update, so this
//! module keeps the dataset in LSM style instead, entirely in columns:
//!
//! * appends land in per-device *tail* column runs. The association is
//!   stored under an **append-time AP id**: each new (BSSID, ESSID) pair
//!   is interned once, the first time it is seen (its `Essid` is cloned
//!   only then), because the canonical AP numbering is a whole-dataset
//!   property that only compaction can decide;
//! * retroactive removals (the iOS-update-day rule discovers its victim
//!   days *after* their bins were appended) are recorded as per-device day
//!   **tombstones** and only counted logically;
//! * a periodic **compaction** builds the next merged run — a
//!   [`DatasetColumns`] in (device, time) order with per-device ranges —
//!   by slice copies: each device's previous merged slice minus its
//!   tombstoned days (one contiguous span, since a device's rows are
//!   time-sorted), then that device's tail. One pass over the associated
//!   rows then **renumbers** every AP to the canonical first-encounter
//!   [`ApRef`] and emits the AP table, and the index is rebuilt from the
//!   device/time columns.
//!
//! The merged run *is* the published [`LiveSnapshot`]'s columns: the
//! builder keeps an `Arc` of the snapshot it last published, so each
//! compaction makes exactly one copy of the live rows. Mid-run snapshots
//! carry no row table — `ds.bins` is empty and `cols` plus `index` are the
//! rows; the live engine fills `ds.bins` once, through
//! [`DatasetColumns::to_bins`], when it finishes. A snapshot taken between
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
use crate::dataset::{
    ApEntry, ApRef, AppBin, BinRecord, CampaignMeta, Dataset, DeviceInfo, ScanSummary, WifiAssoc,
    WifiBinState,
};
use crate::ids::{CellId, DeviceId, Essid};
use crate::index::DatasetIndex;
use crate::net::WifiState;
use crate::record::OsVersion;
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

/// One cleaned bin to append. Identical to [`BinRecord`] except that the
/// WiFi association still carries the raw (BSSID, ESSID) identity: AP
/// references are only assigned at compaction time, where the canonical
/// first-encounter order over the *surviving* rows is known.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveRow {
    /// Device.
    pub device: DeviceId,
    /// Bin start time.
    pub time: SimTime,
    /// 3G downlink bytes in the bin.
    pub rx_3g: u64,
    /// 3G uplink bytes in the bin.
    pub tx_3g: u64,
    /// LTE downlink bytes in the bin.
    pub rx_lte: u64,
    /// LTE uplink bytes in the bin.
    pub tx_lte: u64,
    /// WiFi downlink bytes in the bin.
    pub rx_wifi: u64,
    /// WiFi uplink bytes in the bin.
    pub tx_wifi: u64,
    /// Raw WiFi state (association not yet interned).
    pub wifi: WifiState,
    /// Scan summary.
    pub scan: ScanSummary,
    /// Per-app volumes.
    pub apps: Vec<AppBin>,
    /// Coarse geolocation.
    pub geo: CellId,
    /// OS version at sample time.
    pub os_version: OsVersion,
}

/// One published state of the live dataset: the identifier tables plus the
/// two views every columnar analysis pass needs, all consistent with each
/// other. The engine hands these out behind an `Arc`, so taking a snapshot
/// costs a reference count, not a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// Campaign metadata, device table and canonical AP table. `bins` is
    /// empty in mid-run generations (`cols` holds the rows); the finished
    /// snapshot fills it.
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
    /// Append-time AP table: id → entry.
    interned: Vec<ApEntry>,
    /// Append-time AP ids by (BSSID, ESSID).
    intern_ids: HashMap<(u64, Essid), u32>,
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

impl LiveTableBuilder {
    /// New builder over a fixed device table. Every appended row's device
    /// must index into `devices`.
    pub fn new(meta: CampaignMeta, devices: Vec<DeviceInfo>) -> LiveTableBuilder {
        let n = devices.len();
        let cols = DatasetColumns::with_capacity(0, 0);
        let merged = Arc::new(LiveSnapshot {
            index: DatasetIndex::build_cols(&cols, n),
            cols,
            ds: Dataset { meta: meta.clone(), devices: devices.clone(), aps: vec![], bins: vec![] },
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
            interned: Vec::new(),
            intern_ids: HashMap::new(),
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

    /// Append one cleaned row to its device tail.
    pub fn append(&mut self, row: LiveRow) {
        let tail = &mut self.tails[row.device.index()];
        debug_assert!(
            tail.time.last().is_none_or(|&t| t < row.time),
            "tail appends must be in ascending time order"
        );
        let wifi = match row.wifi {
            WifiState::Off => WifiBinState::Off,
            WifiState::OnUnassociated => WifiBinState::OnUnassociated,
            WifiState::Associated(a) => {
                let interned = &mut self.interned;
                let id = *self.intern_ids.entry((a.bssid.as_u64(), a.essid)).or_insert_with_key(
                    |(_, essid)| {
                        interned.push(ApEntry { bssid: a.bssid, essid: essid.clone() });
                        (interned.len() - 1) as u32
                    },
                );
                WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(id),
                    band: a.band,
                    channel: a.channel,
                    rssi: a.rssi,
                })
            }
        };
        tail.push_bin(&BinRecord {
            device: row.device,
            time: row.time,
            rx_3g: row.rx_3g,
            tx_3g: row.tx_3g,
            rx_lte: row.rx_lte,
            tx_lte: row.tx_lte,
            rx_wifi: row.rx_wifi,
            tx_wifi: row.tx_wifi,
            wifi,
            scan: row.scan,
            apps: row.apps,
            geo: row.geo,
            os_version: row.os_version,
        });
        self.tail_rows += 1;
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
        let tail = &mut self.tails[d];
        let dead = dead_span(&tail.time, day);
        if !dead.is_empty() {
            let cap = (tail.len(), tail.apps.len());
            let old = std::mem::replace(tail, DatasetColumns::with_capacity(cap.0, cap.1));
            tail.extend_from_range(&old, 0..dead.start);
            tail.extend_from_range(&old, dead.end..old.len());
            self.tail_rows -= dead.len();
        }
        (in_merged + dead.len()) as u64
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
            tail.clear();
            self.merged_ranges[d] = start..cols.len();
        }
        debug_assert_eq!(cols.len(), self.len());

        // Canonical renumbering: first encounter in (device, time) order.
        let mut canon = vec![u32::MAX; self.interned.len()];
        let mut aps = Vec::new();
        self.canon_to_intern.clear();
        for &r in &cols.sel_associated {
            let ap = &mut cols.assoc_ap[r as usize];
            let id = ap.index();
            if canon[id] == u32::MAX {
                canon[id] = aps.len() as u32;
                aps.push(self.interned[id].clone());
                self.canon_to_intern.push(id as u32);
            }
            *ap = ApRef(canon[id]);
        }

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
                bins: Vec::new(),
            },
            compactions: self.compactions,
        });
        Arc::clone(&self.merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Carrier;
    use crate::ids::{Bssid, Essid};
    use crate::net::{AssocInfo, Band, Channel};
    use crate::record::Os;
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

    fn row(dev: u32, day: u32, bin: u32, wifi: WifiState) -> LiveRow {
        LiveRow {
            device: DeviceId(dev),
            time: SimTime::from_day_bin(day, bin),
            rx_3g: 1,
            tx_3g: 2,
            rx_lte: 3,
            tx_lte: 4,
            rx_wifi: u64::from(dev * 100 + day * 10 + bin),
            tx_wifi: 6,
            wifi,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(1, 1),
            os_version: OsVersion::new(8, 1),
        }
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

    /// The snapshot's dataset with its row table filled from the columns.
    fn with_rows(snap: &LiveSnapshot) -> Dataset {
        Dataset { bins: snap.cols.to_bins(), ..snap.ds.clone() }
    }

    /// The reference: what the snapshot must equal, computed the batch way
    /// (direct Dataset + batch index/column builds over the same rows).
    fn batch_reference(
        meta: CampaignMeta,
        devs: Vec<DeviceInfo>,
        rows: &[LiveRow],
    ) -> LiveSnapshot {
        let mut rows: Vec<LiveRow> = rows.to_vec();
        rows.sort_by_key(|r| (r.device, r.time));
        let mut aps: Vec<ApEntry> = Vec::new();
        let mut ap_index: HashMap<(u64, String), ApRef> = HashMap::new();
        let bins: Vec<BinRecord> = rows
            .iter()
            .map(|r| BinRecord {
                device: r.device,
                time: r.time,
                rx_3g: r.rx_3g,
                tx_3g: r.tx_3g,
                rx_lte: r.rx_lte,
                tx_lte: r.tx_lte,
                rx_wifi: r.rx_wifi,
                tx_wifi: r.tx_wifi,
                wifi: match &r.wifi {
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
                scan: r.scan,
                apps: r.apps.clone(),
                geo: r.geo,
                os_version: r.os_version,
            })
            .collect();
        let ds = Dataset { meta, devices: devs, aps, bins };
        LiveSnapshot {
            index: DatasetIndex::build(&ds),
            cols: DatasetColumns::build(&ds),
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
            b.append(r.clone());
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
        b.append(row(1, 0, 0, assoc("late", 9)));
        let first = b.compact();
        assert_eq!(first.ds.aps.len(), 1);
        b.append(row(0, 0, 0, assoc("early", 5)));
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
            b.append(row(0, day, 0, WifiState::Off));
            b.append(row(1, day, 0, WifiState::Off));
        }
        b.compact();
        b.append(row(0, 4, 0, WifiState::Off));
        assert_eq!(b.len(), 9);
        // Device 0 updated on day 1: days 1 and 2 die — two in the merged
        // run, none in the tail.
        let killed = b.tombstone_update_day(DeviceId(0), 1);
        assert_eq!(killed, 2);
        assert_eq!(b.len(), 7, "logical removal is immediate");
        let snap = b.compact();
        assert_eq!(snap.len(), 7);
        let want_rows: Vec<LiveRow> = (0..4u32)
            .flat_map(|day| [row(0, day, 0, WifiState::Off), row(1, day, 0, WifiState::Off)])
            .chain([row(0, 4, 0, WifiState::Off)])
            .filter(|r| !(r.device == DeviceId(0) && (r.time.day() == 1 || r.time.day() == 2)))
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
            b.append(row(0, day, 0, WifiState::Off));
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
            b.append(row(k % 2, k / 288, (k / 2) % 144, WifiState::Off));
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
