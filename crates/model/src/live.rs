//! Incremental dataset construction for the streaming analysis engine.
//!
//! The batch pipeline builds its products in three passes: `clean` sorts
//! and interns everything into a [`Dataset`], then [`DatasetIndex::build`]
//! and [`DatasetColumns::build`] each re-scan the bin table. A live
//! consumer cannot afford any of those full scans per update, so this
//! module keeps the dataset in LSM style instead:
//!
//! * appends land in cheap per-device *tail* vectors ([`LiveRow`] keeps the
//!   association un-interned, because the canonical AP numbering is a
//!   whole-dataset property);
//! * retroactive removals (the iOS-update-day rule discovers its victim
//!   days *after* their bins were appended) are recorded as per-device day
//!   **tombstones** and only counted logically;
//! * a periodic **compaction** — amortised O(1) per appended row by a
//!   tail-vs-merged size trigger — folds tails and tombstones into a fresh
//!   sorted run and emits a [`LiveSnapshot`]: the bins, the canonical
//!   first-encounter AP table, the bin-range index and the columnar
//!   transpose, all built in the same single walk via
//!   [`DatasetIndexBuilder`] and the columnar push path.
//!
//! Snapshots are plain owned values; the engine wraps them in `Arc` so
//! readers get copy-on-write semantics — a snapshot taken between
//! compactions is a pointer clone, never a rebuild. After the final
//! compaction the snapshot is bit-identical to what the batch pipeline
//! produces from the same cleaned records, which the live engine's
//! convergence proof asserts.

use crate::columns::DatasetColumns;
use crate::dataset::{
    ApEntry, ApRef, AppBin, BinRecord, CampaignMeta, Dataset, DeviceInfo, ScanSummary, WifiAssoc,
    WifiBinState,
};
use crate::ids::{CellId, DeviceId, Essid};
use crate::index::{DatasetIndex, DatasetIndexBuilder};
use crate::net::WifiState;
use crate::record::OsVersion;
use crate::time::SimTime;
use std::collections::HashMap;
use std::ops::Range;

/// Compaction trigger: compact once the tails hold at least this many rows
/// *and* at least half as many as the merged run. The multiplicative part
/// makes total compaction work linear in the final row count; the additive
/// floor stops tiny datasets from compacting after every batch.
const COMPACT_MIN_TAIL: usize = 1024;

/// One cleaned bin awaiting compaction. Identical to [`BinRecord`] except
/// that the WiFi association still carries the raw (BSSID, ESSID) identity:
/// AP references are only assigned at compaction time, where the canonical
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

/// One published state of the live dataset: the cleaned [`Dataset`] plus
/// the two derived views every columnar analysis pass needs, all consistent
/// with each other. The engine hands these out behind an `Arc`, so taking a
/// snapshot costs a reference count, not a copy.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSnapshot {
    /// The cleaned dataset as of the last compaction.
    pub ds: Dataset,
    /// Per-device / per-day bin ranges over `ds.bins`.
    pub index: DatasetIndex,
    /// Columnar transpose of `ds.bins`.
    pub cols: DatasetColumns,
    /// Compactions performed so far (including the one that produced this).
    pub compactions: u64,
}

impl LiveSnapshot {
    /// Bin rows in this snapshot.
    pub fn len(&self) -> usize {
        self.ds.bins.len()
    }

    /// True when the snapshot holds no bins.
    pub fn is_empty(&self) -> bool {
        self.ds.bins.is_empty()
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
    /// Rows already compacted, sorted by (device, time), tombstones applied.
    merged: Vec<LiveRow>,
    /// Per-device range into `merged`.
    merged_ranges: Vec<Range<usize>>,
    /// Per-device uncompacted appends, each in ascending time order.
    tails: Vec<Vec<LiveRow>>,
    /// Rows across all tails.
    tail_rows: usize,
    /// Update day per device: bins on `d` and `d + 1` are dead. Applied
    /// logically on registration, physically at the next compaction.
    tombs: Vec<Option<u32>>,
    /// Rows in `merged` that tombstones have logically removed (they stop
    /// counting toward `len`, and compaction will drop them).
    dead_merged: usize,
    compactions: u64,
    /// Additive compaction floor (tests shrink it to force compactions).
    compact_min_tail: usize,
}

impl LiveTableBuilder {
    /// New builder over a fixed device table. Every appended row's device
    /// must index into `devices`.
    pub fn new(meta: CampaignMeta, devices: Vec<DeviceInfo>) -> LiveTableBuilder {
        let n = devices.len();
        LiveTableBuilder {
            meta,
            devices,
            merged: Vec::new(),
            merged_ranges: vec![0..0; n],
            tails: (0..n).map(|_| Vec::new()).collect(),
            tail_rows: 0,
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

    /// Append one cleaned row to its device tail.
    pub fn append(&mut self, row: LiveRow) {
        let d = row.device.index();
        debug_assert!(
            self.tails[d].last().is_none_or(|p| p.time < row.time),
            "tail appends must be in ascending time order"
        );
        self.tails[d].push(row);
        self.tail_rows += 1;
    }

    /// Register a device's iOS-update day: rows on `day` and `day + 1` are
    /// logically removed now and physically dropped at the next compaction.
    /// Returns how many already-appended rows the tombstone killed.
    pub fn tombstone_update_day(&mut self, device: DeviceId, day: u32) -> u64 {
        let d = device.index();
        debug_assert!(self.tombs[d].is_none(), "one update day per device");
        self.tombs[d] = Some(day);
        let dead = |r: &LiveRow| {
            let rd = r.time.day();
            rd == day || rd == day + 1
        };
        let in_merged =
            self.merged[self.merged_ranges[d].clone()].iter().filter(|r| dead(r)).count();
        let in_tail = self.tails[d].iter().filter(|r| dead(r)).count();
        self.dead_merged += in_merged;
        // Dead tail rows are filtered at compaction; stop counting them now.
        self.tails[d].retain(|r| !dead(r));
        self.tail_rows -= in_tail;
        (in_merged + in_tail) as u64
    }

    /// Whether enough tail rows have piled up to amortise a compaction.
    pub fn should_compact(&self) -> bool {
        self.tail_rows >= self.compact_min_tail
            && self.tail_rows * 2 >= self.merged.len() - self.dead_merged
    }

    /// Fold tails and tombstones into a fresh sorted run and publish a
    /// snapshot. One walk over the surviving rows builds the bins, the
    /// canonical first-encounter AP table, the index and the columns.
    pub fn compact(&mut self) -> LiveSnapshot {
        let n_rows = self.len();
        let mut new_merged: Vec<LiveRow> = Vec::with_capacity(n_rows);
        let old_merged = std::mem::take(&mut self.merged);
        let mut old_iter = old_merged.into_iter();
        let mut consumed = 0usize;
        for d in 0..self.devices.len() {
            let start = new_merged.len();
            let range = self.merged_ranges[d].clone();
            debug_assert_eq!(range.start, consumed, "merged ranges must tile the run");
            let tomb = self.tombs[d];
            let dead = |r: &LiveRow| match tomb {
                Some(day) => {
                    let rd = r.time.day();
                    rd == day || rd == day + 1
                }
                None => false,
            };
            for row in old_iter.by_ref().take(range.len()) {
                if !dead(&row) {
                    new_merged.push(row);
                }
            }
            consumed = range.end;
            // Tails were already tombstone-filtered on registration, and
            // every later append is filtered by the engine's cleaner.
            new_merged.append(&mut self.tails[d]);
            self.merged_ranges[d] = start..new_merged.len();
        }
        self.merged = new_merged;
        self.tail_rows = 0;
        self.dead_merged = 0;
        self.compactions += 1;

        // Single pass: bins + canonical AP interning + index + columns.
        let mut aps: Vec<ApEntry> = Vec::new();
        let mut ap_index: HashMap<(u64, Essid), ApRef> = HashMap::new();
        let mut bins: Vec<BinRecord> = Vec::with_capacity(self.merged.len());
        let mut index = DatasetIndexBuilder::new();
        let mut cols = DatasetColumns::new_for_push();
        for row in &self.merged {
            let wifi = match &row.wifi {
                WifiState::Off => WifiBinState::Off,
                WifiState::OnUnassociated => WifiBinState::OnUnassociated,
                WifiState::Associated(a) => {
                    let key = (a.bssid.as_u64(), a.essid.clone());
                    let ap = *ap_index.entry(key).or_insert_with(|| {
                        let r = ApRef(aps.len() as u32);
                        aps.push(ApEntry { bssid: a.bssid, essid: a.essid.clone() });
                        r
                    });
                    WifiBinState::Associated(WifiAssoc {
                        ap,
                        band: a.band,
                        channel: a.channel,
                        rssi: a.rssi,
                    })
                }
            };
            let bin = BinRecord {
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
                apps: row.apps.clone(),
                geo: row.geo,
                os_version: row.os_version,
            };
            index.push(bin.device, bin.time);
            cols.push_bin(&bin);
            bins.push(bin);
        }
        let ds = Dataset { meta: self.meta.clone(), devices: self.devices.clone(), aps, bins };
        LiveSnapshot {
            index: index.finish(ds.devices.len()),
            cols,
            ds,
            compactions: self.compactions,
        }
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
        assert_eq!(snap.ds, want.ds);
        assert_eq!(snap.index, want.index);
        assert_eq!(snap.cols, want.cols);
        snap.ds.validate().unwrap();
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
        assert_eq!(snap.ds, want.ds);
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
        assert_eq!(snap.ds.bins.len(), 7);
        let want_rows: Vec<LiveRow> = (0..4u32)
            .flat_map(|day| [row(0, day, 0, WifiState::Off), row(1, day, 0, WifiState::Off)])
            .chain([row(0, 4, 0, WifiState::Off)])
            .filter(|r| !(r.device == DeviceId(0) && (r.time.day() == 1 || r.time.day() == 2)))
            .collect();
        let want = batch_reference(meta(5), devices(2), &want_rows);
        assert_eq!(snap.ds, want.ds);
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
        let days: Vec<u32> = snap.ds.bins.iter().map(|x| x.time.day()).collect();
        assert_eq!(days, vec![0, 1]);
    }

    #[test]
    fn compaction_trigger_amortises() {
        let mut b = LiveTableBuilder::new(meta(30), devices(1)).with_compact_min_tail(8);
        let mut compactions = 0u64;
        for k in 0..1_000u32 {
            b.append(row(0, k / 144, k % 144, WifiState::Off));
            if b.should_compact() {
                b.compact();
                compactions += 1;
            }
        }
        assert!(compactions >= 2, "trigger never fired");
        assert!(compactions <= 16, "trigger fired {compactions} times for 1000 rows");
        assert_eq!(b.compactions(), compactions);
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
