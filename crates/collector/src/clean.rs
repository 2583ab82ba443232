//! The cleaning pipeline: raw records → analysis-ready [`Dataset`].
//!
//! One state machine, [`DeviceCleaner`], applies the paper's cleaning
//! rules (§2) to a device's records in sequence order, for the batch
//! pipeline ([`clean()`]) and the live engine alike. It reconstructs
//! per-bin volumes from cumulative counter deltas (reboot epochs guard
//! against negative deltas), counts sequence gaps, removes tethering
//! records, and, for devices that installed iOS 8.2 during the 2015
//! campaign, drops the update day and the following day from the main
//! analysis dataset. The update shows only on the record that carries it,
//! so the device's rows already kept on that day are cut through the
//! [`BinSink`]: a truncate of the device's rows in batch, a tombstone in
//! the live builder. Both sinks intern (BSSID, ESSID) pairs into
//! append-time AP ids and renumber them to the canonical first-encounter
//! order once the rows are final.

use mobitrace_model::{
    truncate_update_days, ApInterner, ApRef, AppBin, AppCategory, AppCounter, AssocInfo, BinRecord,
    BinSink, CampaignMeta, CounterSnapshot, Dataset, DatasetColumns, DeviceId, DeviceInfo,
    OsVersion, Record, SimTime, TrafficCounters, WifiBinState,
};

/// Cleaning options. Tethering records are always removed, as in the
/// paper's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanOptions {
    /// Remove the iOS-update day and the next day per updated device
    /// (disabled when producing the dataset for the §3.7 update analysis).
    pub remove_update_days: bool,
}

impl Default for CleanOptions {
    fn default() -> CleanOptions {
        CleanOptions { remove_update_days: true }
    }
}

/// What the cleaning pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanStats {
    /// Raw records in.
    pub records_in: u64,
    /// Bin records out.
    pub bins_out: u64,
    /// Records dropped for tethering.
    pub tethering_removed: u64,
    /// Records dropped around iOS updates.
    pub update_days_removed: u64,
    /// Reboots detected (counter resets).
    pub reboots: u64,
    /// Sequence gaps (lost uploads) detected.
    pub gaps: u64,
    /// Records the gaps prove were lost (sum of gap widths, including
    /// records missing before a device's first delivered record). Lost
    /// *tails* are invisible here — sequence numbers only witness a loss
    /// when a later record arrives.
    pub missing_records: u64,
}

/// The iOS-update rule over one device's records (or bins) in time order:
/// the update day is the day of the first record on iOS 8.2 or later that
/// follows one below it, and that day and the next are dropped.
#[derive(Debug, Default)]
struct UpdateRule {
    /// OS version of the previous record.
    prev: Option<OsVersion>,
    /// The update day, once seen.
    day: Option<u32>,
}

impl UpdateRule {
    /// Step over the next record; returns the update day when this record
    /// reveals it.
    fn step(&mut self, os: OsVersion, time: SimTime) -> Option<u32> {
        let update = self.day.is_none()
            && self.prev.is_some_and(|p| p < OsVersion::IOS_8_2 && os >= OsVersion::IOS_8_2);
        self.prev = Some(os);
        if update {
            self.day = Some(time.day());
        }
        self.day.filter(|_| update)
    }

    /// Whether a record at `time` falls on the update day or the next.
    fn shadows(&self, time: SimTime) -> bool {
        self.day.is_some_and(|d| time.day() == d || time.day() == d + 1)
    }
}

/// What a record leaves behind as the next record's delta base.
#[derive(Debug)]
struct Prev {
    seq: u32,
    boot_epoch: u16,
    counters: CounterSnapshot,
}

/// The previous record's app counters by category; a category repeated
/// in that record has its first entry as the base. Each entry carries the
/// number of the record that set it, so moving to the next record clears
/// nothing.
#[derive(Debug, Default)]
struct AppBase {
    /// Records set so far: entries stamped with it are the previous
    /// record's.
    stamp: u64,
    by_category: [(u64, TrafficCounters); AppCategory::ALL.len()],
}

impl AppBase {
    /// Make one record's app counters the base.
    fn set(&mut self, apps: &[AppCounter]) {
        self.stamp += 1;
        for app in apps {
            let entry = &mut self.by_category[app.category.index()];
            if entry.0 != self.stamp {
                *entry = (self.stamp, app.counters);
            }
        }
    }

    /// The base of `category`: zero when the previous record had none.
    fn get(&self, category: AppCategory) -> TrafficCounters {
        let (stamp, counters) = self.by_category[category.index()];
        if stamp == self.stamp {
            counters
        } else {
            TrafficCounters::default()
        }
    }
}

/// One device's cleaning state: the previous record's seq, boot epoch,
/// counters and per-category app base, plus the update day once it is
/// seen. Every record of the device goes through [`fold`](Self::fold) in
/// sequence order; the batch pipeline runs one cleaner per device run,
/// the live engine one per device lane. A new (default) cleaner has seen
/// none of its device's records.
#[derive(Debug, Default)]
pub struct DeviceCleaner {
    /// `None` before the device's first record.
    prev: Option<Prev>,
    apps_base: AppBase,
    update: UpdateRule,
    /// App-delta buffer, moved into each kept bin and back out.
    apps: Vec<AppBin>,
}

impl DeviceCleaner {
    /// Run the device's next record through the cleaning rules: count it
    /// and any sequence gap before it, detect a reboot and the iOS update,
    /// drop it for tethering or the update shadow, or push its bin (counter
    /// and app deltas against the previous record of the same boot epoch)
    /// to `sink`. Records must come in sequence order.
    pub fn fold(
        &mut self,
        r: &Record,
        opts: CleanOptions,
        sink: &mut impl BinSink,
        stats: &mut CleanStats,
    ) {
        stats.records_in += 1;
        // Sequence numbers are monotonic across reboots, so a gap's width
        // is an exact loss count; before the first record, the seq is.
        let expected = self.prev.as_ref().map_or(0, |p| p.seq + 1);
        if r.seq > expected {
            stats.gaps += 1;
            stats.missing_records += u64::from(r.seq - expected);
        }
        // The delta base: the previous record of the same boot epoch.
        // After a reboot the counters restarted from zero, so everything
        // accumulated since boot belongs to this bin.
        let base = self.prev.as_ref().filter(|p| p.boot_epoch == r.boot_epoch);
        stats.reboots += u64::from(self.prev.is_some() && base.is_none());
        if let Some(day) = self.update.step(r.os_version, r.time) {
            if opts.remove_update_days {
                let cut = sink.drop_update_days(r.device, day);
                stats.update_days_removed += cut;
                stats.bins_out -= cut;
            }
        }

        if r.tethering {
            stats.tethering_removed += 1;
        } else if opts.remove_update_days && self.update.shadows(r.time) {
            stats.update_days_removed += 1;
        } else {
            let (d3g, dlte, dwifi) = match base {
                Some(p) => (
                    delta(&r.counters.cell3g, &p.counters.cell3g),
                    delta(&r.counters.lte, &p.counters.lte),
                    delta(&r.counters.wifi, &p.counters.wifi),
                ),
                None => (r.counters.cell3g, r.counters.lte, r.counters.wifi),
            };
            self.apps.clear();
            app_deltas(&r.apps, base.map(|_| &self.apps_base), &mut self.apps);
            let bin = BinRecord {
                device: r.device,
                time: r.time,
                rx_3g: d3g.rx_bytes,
                tx_3g: d3g.tx_bytes,
                rx_lte: dlte.rx_bytes,
                tx_lte: dlte.tx_bytes,
                rx_wifi: dwifi.rx_bytes,
                tx_wifi: dwifi.tx_bytes,
                wifi: WifiBinState::of(&r.wifi, |a| sink.intern(a)),
                scan: r.scan,
                apps: std::mem::take(&mut self.apps),
                geo: r.geo,
                os_version: r.os_version,
            };
            sink.push(&bin);
            self.apps = bin.apps;
            stats.bins_out += 1;
        }

        // Every record, kept or dropped, is the next one's base.
        self.prev = Some(Prev { seq: r.seq, boot_epoch: r.boot_epoch, counters: r.counters });
        self.apps_base.set(&r.apps);
    }
}

/// The batch sink: every device's kept bins in one set of columns, the
/// device being cleaned owning the rows from `device_start` on.
struct ColumnSink {
    bins: DatasetColumns,
    aps: ApInterner,
    device_start: usize,
}

impl BinSink for ColumnSink {
    fn intern(&mut self, a: &AssocInfo) -> ApRef {
        self.aps.intern(a)
    }

    fn push(&mut self, bin: &BinRecord) {
        self.bins.push(bin);
    }

    fn drop_update_days(&mut self, _: DeviceId, day: u32) -> u64 {
        truncate_update_days(&mut self.bins, self.device_start, day) as u64
    }
}

/// Run the pipeline. `records` must be sorted by (device, seq) — the
/// order [`CollectionServer::into_records`](crate::CollectionServer::into_records)
/// produces. One [`DeviceCleaner`] per device run appends each kept bin
/// straight to the dataset's columns; app deltas go through the cleaner's
/// reused buffer, so no bin allocates.
pub fn clean(
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
    records: &[Record],
    opts: CleanOptions,
) -> (Dataset, CleanStats) {
    let mut stats = CleanStats::default();
    let mut sink = ColumnSink {
        bins: DatasetColumns::with_capacity(records.len(), 0),
        aps: ApInterner::default(),
        device_start: 0,
    };
    for run in records.chunk_by(|a, b| a.device == b.device) {
        sink.device_start = sink.bins.len();
        let mut cleaner = DeviceCleaner::default();
        for r in run {
            cleaner.fold(r, opts, &mut sink, &mut stats);
        }
    }
    let (aps, _) = sink.aps.renumber(&mut sink.bins);
    (Dataset { meta, devices, aps, bins: sink.bins }, stats)
}

/// Re-apply the iOS-update-day exclusion to an already-cleaned dataset
/// with the cleaner's update rule: per device, the first day reporting
/// ≥ iOS 8.2 after an older version — and the following day — are
/// dropped. Returns the filtered dataset (a gather of the kept rows) and
/// the number of removed bins. Lets one simulation serve both the main
/// analyses (update days removed) and the §3.7 update analysis (retained).
pub fn strip_update_days(ds: &Dataset) -> (Dataset, u64) {
    // Bins are sorted by (device, time), so each device is one contiguous
    // run, stepped through the rule in time order.
    let c = &ds.bins;
    let mut keep: Vec<u32> = Vec::with_capacity(c.len());
    let mut start = 0;
    for run in c.device.chunk_by(|a, b| a == b) {
        let rows = start..start + run.len();
        start = rows.end;
        let mut rule = UpdateRule::default();
        for i in rows.clone() {
            if rule.step(c.os_version[i], c.time[i]).is_some() {
                break;
            }
        }
        keep.extend(rows.filter(|&i| !rule.shadows(c.time[i])).map(|i| i as u32));
    }
    let removed = (c.len() - keep.len()) as u64;
    let out = Dataset {
        meta: ds.meta.clone(),
        devices: ds.devices.clone(),
        aps: ds.aps.clone(),
        bins: c.gather(&keep),
    };
    (out, removed)
}

/// Counter delta that tolerates regressions (clamped to zero — regressions
/// within an epoch indicate corruption the codec let through, which the
/// checksum makes vanishingly unlikely; clamping is the safe fallback).
fn delta(now: &TrafficCounters, before: &TrafficCounters) -> TrafficCounters {
    now.delta_since(before).unwrap_or_default()
}

/// Append to `out` the per-app byte deltas of a record's app counters
/// against `base`, the app base of the device's previous record in the
/// same boot epoch (`None` after a reboot or for a first record: everything
/// counted so far belongs to this bin). Apps without new bytes are dropped.
/// Only [`DeviceCleaner::fold`] calls this, for batch and live alike.
fn app_deltas(apps: &[AppCounter], base: Option<&AppBase>, out: &mut Vec<AppBin>) {
    out.extend(apps.iter().filter_map(|app| {
        let d = base.map_or(app.counters, |b| delta(&app.counters, &b.get(app.category)));
        (d.rx_bytes > 0 || d.tx_bytes > 0).then_some(AppBin {
            category: app.category,
            rx_bytes: d.rx_bytes,
            tx_bytes: d.tx_bytes,
        })
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{DeviceAgent, Observation};
    use crate::server::CollectionServer;
    use crate::transport::{FaultPlan, LossyTransport};
    use mobitrace_model::{
        AppCategory, Carrier, CellId, DeviceId, Os, ScanSummary, SimTime, WifiState, Year,
    };
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn meta(days: u32) -> CampaignMeta {
        CampaignMeta { year: Year::Y2015, start: Year::Y2015.campaign_start(), days, seed: 0 }
    }

    fn device_info(n: u32, os: Os) -> Vec<DeviceInfo> {
        (0..n)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os,
                carrier: Carrier::A,
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect()
    }

    fn obs(minute: u32, wifi_rx: u64, tether: bool) -> Observation {
        Observation {
            time: SimTime::from_minutes(minute),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 2_000,
            tx_lte: 200,
            rx_wifi: wifi_rx,
            tx_wifi: wifi_rx / 5,
            wifi: WifiState::OnUnassociated,
            scan: ScanSummary::default(),
            apps: vec![AppBin {
                category: AppCategory::Browser,
                rx_bytes: wifi_rx,
                tx_bytes: wifi_rx / 10,
            }],
            geo: CellId::new(2, 3),
            charging: false,
            tethering: tether,
        }
    }

    /// End-to-end: agent → transport → server → clean reproduces per-bin
    /// volumes exactly on a reliable channel.
    #[test]
    fn pipeline_reproduces_volumes() {
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
        let mut transport = LossyTransport::new(FaultPlan::reliable());
        let server = CollectionServer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let volumes = [100u64, 0, 5_000, 250, 1_000_000];
        for (k, &v) in volumes.iter().enumerate() {
            let t = SimTime::from_minutes(k as u32 * 10);
            agent.observe(&obs(t.minute, v, false));
            agent.try_upload(&mut rng, t, &mut transport);
            server.ingest_batch(transport.deliver_due(t));
        }
        let records = server.into_records();
        let (ds, stats) =
            clean(meta(1), device_info(1, Os::Android), &records, CleanOptions::default());
        ds.validate().unwrap();
        assert_eq!(stats.bins_out, 5);
        let got: Vec<u64> = ds.bins.rx_wifi.clone();
        assert_eq!(got, volumes);
        // App deltas survive too.
        for (b, &v) in ds.bins.to_bins().iter().zip(&volumes) {
            let app_rx: u64 = b.apps.iter().map(|a| a.rx_bytes).sum();
            assert_eq!(app_rx, v);
        }
    }

    #[test]
    fn tethering_bins_removed_without_leaking_volume() {
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
        let mut transport = LossyTransport::new(FaultPlan::reliable());
        let server = CollectionServer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for (k, (v, tether)) in
            [(1000u64, false), (9_000_000, true), (2000, false)].iter().enumerate()
        {
            let t = SimTime::from_minutes(k as u32 * 10);
            agent.observe(&obs(t.minute, *v, *tether));
            agent.try_upload(&mut rng, t, &mut transport);
            server.ingest_batch(transport.deliver_due(t));
        }
        let records = server.into_records();
        let (ds, stats) =
            clean(meta(1), device_info(1, Os::Android), &records, CleanOptions::default());
        assert_eq!(stats.tethering_removed, 1);
        assert_eq!(ds.bins.len(), 2);
        // The tethered bin's volume must not be folded into the next bin.
        assert_eq!(ds.bins.rx_wifi[1], 2000);
    }

    #[test]
    fn reboot_does_not_create_negative_or_giant_deltas() {
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
        let mut transport = LossyTransport::new(FaultPlan::reliable());
        let server = CollectionServer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        agent.observe(&obs(0, 10_000, false));
        agent.reboot();
        agent.observe(&obs(10, 300, false));
        agent.try_upload(&mut rng, SimTime::from_minutes(10), &mut transport);
        server.ingest_batch(transport.deliver_due(SimTime::from_minutes(10)));
        let records = server.into_records();
        let (ds, stats) =
            clean(meta(1), device_info(1, Os::Android), &records, CleanOptions::default());
        assert_eq!(stats.reboots, 1);
        assert_eq!(ds.bins.rx_wifi[0], 10_000);
        assert_eq!(ds.bins.rx_wifi[1], 300);
    }

    #[test]
    fn update_days_removed() {
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Ios, mobitrace_model::OsVersion::new(8, 1));
        let mut transport = LossyTransport::new(FaultPlan::reliable());
        let server = CollectionServer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        // Day 0: old version; day 1: update lands; day 3: back to normal.
        for day in 0..4u32 {
            if day == 1 {
                agent.set_os_version(mobitrace_model::OsVersion::IOS_8_2);
            }
            for bin in 0..3u32 {
                let t = SimTime::from_day_bin(day, bin);
                agent.observe(&obs(t.minute, 1_000, false));
                agent.try_upload(&mut rng, t, &mut transport);
                server.ingest_batch(transport.deliver_due(t));
            }
        }
        let records = server.into_records();
        let (ds, stats) =
            clean(meta(4), device_info(1, Os::Ios), &records, CleanOptions::default());
        // Days 1 and 2 (update day + next) removed: 6 records.
        assert_eq!(stats.update_days_removed, 6);
        let days: std::collections::HashSet<u32> = ds.bins.time.iter().map(|t| t.day()).collect();
        assert_eq!(days, [0u32, 3].into_iter().collect());

        // With removal disabled, everything stays.
        let server2 = CollectionServer::new();
        let (ds2, _) = clean(
            meta(4),
            device_info(1, Os::Ios),
            &records,
            CleanOptions { remove_update_days: false },
        );
        assert_eq!(ds2.bins.len(), 12);
        drop(server2);
    }

    #[test]
    fn ap_table_interned_once() {
        use mobitrace_model::{AssocInfo, Band, Bssid, Channel, Dbm, Essid};
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
        let mut transport = LossyTransport::new(FaultPlan::reliable());
        let server = CollectionServer::new();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for k in 0..6u32 {
            let mut o = obs(k * 10, 100, false);
            o.wifi = WifiState::Associated(AssocInfo {
                bssid: Bssid::from_u64(u64::from(k % 2)),
                essid: Essid::new(if k % 2 == 0 { "home" } else { "work" }),
                band: Band::Ghz24,
                channel: Channel(6),
                rssi: Dbm::new(-55),
            });
            agent.observe(&o);
        }
        agent.try_upload(&mut rng, SimTime::from_minutes(60), &mut transport);
        server.ingest_batch(transport.deliver_due(SimTime::from_minutes(60)));
        let records = server.into_records();
        let (ds, _) =
            clean(meta(1), device_info(1, Os::Android), &records, CleanOptions::default());
        assert_eq!(ds.aps.len(), 2);
        ds.validate().unwrap();
    }

    /// A silently lost middle record folds its volume into the next bin's
    /// delta: the total is conserved, only the per-bin attribution shifts.
    #[test]
    fn lost_middle_record_folds_into_next_delta() {
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
        let volumes = [1_000u64, 7_777, 2_000];
        let mut frames = Vec::new();
        for (k, &v) in volumes.iter().enumerate() {
            agent.observe(&obs(k as u32 * 10, v, false));
        }
        while agent.pending() > 0 {
            let mut t = LossyTransport::new(FaultPlan::reliable());
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            agent.try_upload(&mut rng, SimTime::ZERO, &mut t);
            frames.extend(t.drain());
        }
        let server = CollectionServer::new();
        server.ingest(&frames[0]).unwrap();
        // frames[1] vanishes in flight.
        server.ingest(&frames[2]).unwrap();
        let records = server.into_records();
        let (ds, stats) =
            clean(meta(1), device_info(1, Os::Android), &records, CleanOptions::default());
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.missing_records, 1);
        assert_eq!(ds.bins.len(), 2);
        assert_eq!(ds.bins.rx_wifi[0], 1_000);
        assert_eq!(ds.bins.rx_wifi[1], 7_777 + 2_000);
    }

    /// Records lost before the first delivered one are still witnessed by
    /// the surviving sequence numbers.
    #[test]
    fn leading_gap_counted_as_missing() {
        let mut agent =
            DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
        let mut frames = Vec::new();
        for k in 0..4u32 {
            agent.observe(&obs(k * 10, 500, false));
        }
        let mut t = LossyTransport::new(FaultPlan::reliable());
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        agent.try_upload(&mut rng, SimTime::ZERO, &mut t);
        frames.extend(t.drain());
        let server = CollectionServer::new();
        // The first two frames (seq 0 and 1) never make it.
        server.ingest(&frames[2]).unwrap();
        server.ingest(&frames[3]).unwrap();
        let records = server.into_records();
        let (_, stats) =
            clean(meta(1), device_info(1, Os::Android), &records, CleanOptions::default());
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.missing_records, 2);
    }

    proptest! {
        /// The pipeline's total volume equals the sent volume no matter how
        /// hostile the channel is, as long as the *final* record of each
        /// device arrives (counters are cumulative) — here we guarantee
        /// arrival by draining the transport and retrying failed sends.
        #[test]
        fn volume_conserved_under_faults(
            seed in any::<u64>(),
            volumes in proptest::collection::vec(0u64..5_000_000, 1..40),
        ) {
            let mut agent = DeviceAgent::new(DeviceId(0), Os::Android, mobitrace_model::OsVersion::new(4, 4));
            let mut transport = LossyTransport::new(FaultPlan {
                // No silent loss: cumulative counters make totals robust
                // to *gaps* (a lost middle record folds into the next
                // delta), but the total only reaches the server if the
                // final record isn't silently dropped or corrupted.
                drop: 0.0,
                corrupt: 0.0,
                ..FaultPlan::hostile()
            });
            let server = CollectionServer::new();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for (k, &v) in volumes.iter().enumerate() {
                let t = SimTime::from_minutes(k as u32 * 10);
                agent.observe(&obs(t.minute, v, false));
                agent.try_upload(&mut rng, t, &mut transport);
                server.ingest_batch(transport.deliver_due(t));
            }
            // End of campaign: retry until the cache is flushed. Time must
            // advance between attempts or the backoff window never closes.
            let end = SimTime::from_minutes(volumes.len() as u32 * 10);
            for k in 0..1000u32 {
                if agent.pending() == 0 { break; }
                agent.try_upload(&mut rng, end.plus_minutes(k * 10), &mut transport);
            }
            prop_assert_eq!(agent.pending(), 0, "cache never drained");
            server.ingest_batch(transport.drain());
            let records = server.into_records();
            let (ds, _) = clean(meta(30), device_info(1, Os::Android), &records, CleanOptions::default());
            ds.validate().unwrap();
            let total_sent: u64 = volumes.iter().sum();
            let total_cleaned: u64 = ds.bins.rx_wifi.iter().copied().sum();
            prop_assert_eq!(total_cleaned, total_sent);
        }
    }
}
