//! The cleaning pipeline: raw records → analysis-ready [`Dataset`].
//!
//! Reconstructs per-bin volumes from cumulative counter deltas (reboot
//! epochs guard against negative deltas), interns (BSSID, ESSID) pairs into
//! the dataset AP table, and applies the paper's two cleaning steps (§2):
//! tethering records are removed, and for devices that installed iOS 8.2
//! during the 2015 campaign, the update day and the following day are
//! dropped from the main analysis dataset.

use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, BinRecord, CampaignMeta, Dataset, DatasetColumns,
    DeviceInfo, Essid, OsVersion, Record, TrafficCounters, WifiAssoc, WifiBinState, WifiState,
};
use std::collections::HashMap;

/// Cleaning options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CleanOptions {
    /// Remove tethering records (the paper always does for its analysis).
    pub remove_tethering: bool,
    /// Remove the iOS-update day and the next day per updated device
    /// (disabled when producing the dataset for the §3.7 update analysis).
    pub remove_update_days: bool,
}

impl Default for CleanOptions {
    fn default() -> CleanOptions {
        CleanOptions { remove_tethering: true, remove_update_days: true }
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

/// Run the pipeline. `records` must be sorted by (device, seq) — the
/// order [`CollectionServer::into_records`](crate::CollectionServer::into_records)
/// produces. Each kept bin is appended straight to the dataset's
/// columns; app deltas go through one reused scratch buffer, so no bin
/// allocates.
pub fn clean(
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
    records: &[Record],
    opts: CleanOptions,
) -> (Dataset, CleanStats) {
    let mut stats = CleanStats { records_in: records.len() as u64, ..CleanStats::default() };
    let mut aps: Vec<ApEntry> = Vec::new();
    // Keyed by the shared `Essid` (an `Arc` bump per lookup, hashed and
    // compared by contents), not an owned copy of the name.
    let mut ap_index: HashMap<(u64, Essid), ApRef> = HashMap::new();
    let mut bins = DatasetColumns::with_capacity(records.len(), 0);
    let mut apps: Vec<AppBin> = Vec::new();

    let mut i = 0;
    while i < records.len() {
        let device = records[i].device;
        let mut j = i;
        while j < records.len() && records[j].device == device {
            j += 1;
        }
        let dev_records = &records[i..j];
        i = j;

        // Pass 1: find the iOS-update day, if any.
        let update_day: Option<u32> = dev_records.windows(2).find_map(|w| {
            (w[0].os_version < OsVersion::IOS_8_2 && w[1].os_version >= OsVersion::IOS_8_2)
                .then(|| w[1].time.day())
        });

        // Pass 2: delta reconstruction. Sequence numbers are monotonic
        // across reboots, so gap widths are exact loss counts whether or
        // not the epoch changed in between.
        if let Some(first) = dev_records.first() {
            if first.seq > 0 {
                stats.gaps += 1;
                stats.missing_records += u64::from(first.seq);
            }
        }
        let mut prev: Option<&Record> = None;
        for r in dev_records {
            if let Some(p) = prev {
                if r.seq > p.seq + 1 {
                    stats.gaps += 1;
                    stats.missing_records += u64::from(r.seq - p.seq - 1);
                }
            }
            // The delta base: the previous record of the same boot epoch.
            // After a reboot the counters restarted from zero, so
            // everything accumulated since boot belongs to this bin.
            let base = prev.filter(|p| p.boot_epoch == r.boot_epoch);
            stats.reboots += u64::from(prev.is_some() && base.is_none());
            let (d3g, dlte, dwifi) = match base {
                Some(p) => (
                    delta(&r.counters.cell3g, &p.counters.cell3g),
                    delta(&r.counters.lte, &p.counters.lte),
                    delta(&r.counters.wifi, &p.counters.wifi),
                ),
                None => (r.counters.cell3g, r.counters.lte, r.counters.wifi),
            };
            prev = Some(r);

            if opts.remove_tethering && r.tethering {
                stats.tethering_removed += 1;
                continue;
            }
            if opts.remove_update_days {
                if let Some(day) = update_day {
                    if r.time.day() == day || r.time.day() == day + 1 {
                        stats.update_days_removed += 1;
                        continue;
                    }
                }
            }

            let wifi = match &r.wifi {
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

            // The scratch buffer moves into the row and back out.
            apps.clear();
            app_deltas(r, base, &mut apps);
            let bin = BinRecord {
                device,
                time: r.time,
                rx_3g: d3g.rx_bytes,
                tx_3g: d3g.tx_bytes,
                rx_lte: dlte.rx_bytes,
                tx_lte: dlte.tx_bytes,
                rx_wifi: dwifi.rx_bytes,
                tx_wifi: dwifi.tx_bytes,
                wifi,
                scan: r.scan,
                apps: std::mem::take(&mut apps),
                geo: r.geo,
                os_version: r.os_version,
            };
            bins.push(&bin);
            apps = bin.apps;
        }
    }

    stats.bins_out = bins.len() as u64;
    (Dataset { meta, devices, aps, bins }, stats)
}

/// Re-apply the iOS-update-day exclusion to an already-cleaned dataset:
/// per device, the first day reporting ≥ iOS 8.2 after an older version —
/// and the following day — are dropped. Returns the filtered dataset (a
/// gather of the kept rows) and the number of removed bins. Lets one
/// simulation serve both the main analyses (update days removed) and the
/// §3.7 update analysis (retained).
pub fn strip_update_days(ds: &Dataset) -> (Dataset, u64) {
    // Bins are sorted by (device, time), so each device is one contiguous
    // run and its first pre-8.2 → ≥ 8.2 step is a window of that run.
    let c = &ds.bins;
    let mut keep: Vec<u32> = Vec::with_capacity(c.len());
    let mut start = 0;
    for run in c.device.chunk_by(|a, b| a == b) {
        let rows = start..start + run.len();
        start = rows.end;
        let update_day = c.os_version[rows.clone()]
            .windows(2)
            .position(|w| w[0] < OsVersion::IOS_8_2 && w[1] >= OsVersion::IOS_8_2)
            .map(|k| c.time[rows.start + k + 1].day());
        keep.extend(
            rows.filter(|&i| update_day.is_none_or(|d| !(d..=d + 1).contains(&c.time[i].day())))
                .map(|i| i as u32),
        );
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

/// Append to `out` the per-app byte deltas of `r` against `prev`, the
/// device's previous record in the same boot epoch (`None` after a reboot
/// or for a first record: everything counted so far belongs to this bin).
/// Apps without new bytes are dropped. When a category repeats in `prev`,
/// its first entry is the base. The live engine folds records with this
/// same function, so batch and streaming app volumes cannot drift apart.
pub fn app_deltas(r: &Record, prev: Option<&Record>, out: &mut Vec<AppBin>) {
    let mut base = [None::<TrafficCounters>; AppCategory::ALL.len()];
    if let Some(p) = prev {
        for app in &p.apps {
            base[app.category.index()].get_or_insert(app.counters);
        }
    }
    out.extend(r.apps.iter().filter_map(|app| {
        let d = delta(&app.counters, &base[app.category.index()].unwrap_or_default());
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
            CleanOptions { remove_update_days: false, ..CleanOptions::default() },
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
