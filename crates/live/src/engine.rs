//! The incremental cleaner: tap batches in, bit-identical dataset out.
//!
//! [`LiveEngine`] consumes [`TapBatch`]es from a
//! [`CollectionServer`](mobitrace_collector::CollectionServer) ingest tap
//! and maintains, online, exactly what the batch pipeline
//! ([`mobitrace_collector::clean()`]) would produce over the same records:
//! counter-delta reconstruction (reboot-safe), tethering removal, the
//! retroactive iOS-update-day exclusion, and the canonical AP table — plus
//! the bin-range index and columnar transpose, via
//! [`LiveTableBuilder`].
//!
//! # Watermarks and lateness
//!
//! The batch cleaner sees each device's records sorted by sequence number;
//! a streaming cleaner sees them in arrival order. The engine buffers each
//! device's arrivals in a per-device *lane* (a seq-ordered map) and only
//! *folds* a record — runs the cleaning rules and appends the bin — once
//! the device's **watermark** passes it: the maximum sample time seen from
//! that device, minus a lateness allowance. Per device, sequence numbers
//! and sample times increase together (the agent stamps both), so folding
//! the seq-ordered prefix up to the watermark replays the batch cleaner's
//! order exactly.
//!
//! A record arriving *behind* the watermark is counted `late_dropped` and
//! remembered in the engine's late-key set. The convergence contract is
//! therefore exact, not approximate: the final snapshot is bit-identical
//! to the batch clean of (server records − late keys) — see
//! [`check_convergence`]. A record that would fold out of sequence order
//! is necessarily behind the watermark (its time is below an already
//! folded, hence watermark-closed, time), so the late set is precisely the
//! set of records the engine *may not* fold, and the fold order invariant
//! holds unconditionally.
//!
//! Duplicates — redelivered frames, and whole-store replays after
//! [`recover`](mobitrace_collector::CollectionServer::recover) — are
//! filtered against the folded/pending/late sets and counted
//! `dup_dropped`, which is what makes crash replay safe: a replayed batch
//! re-offers everything, the engine keeps only what it has never seen.

use mobitrace_collector::{app_deltas, clean, CleanOptions, CleanStats, TapBatch};
use mobitrace_model::{
    CampaignMeta, Carrier, Dataset, DatasetIndex, DeviceId, DeviceInfo, LiveRow, LiveSnapshot,
    LiveTableBuilder, Os, OsVersion, Record, SimTime, TrafficCounters,
};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Live-engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LiveOptions {
    /// Cleaning rules (same options the batch pipeline takes).
    pub clean: CleanOptions,
    /// Watermark allowance: a record may arrive up to this many minutes
    /// behind the newest sample seen from its device and still fold in.
    /// Anything later is counted `late_dropped` and excluded from the
    /// convergence reference too.
    pub lateness_minutes: u32,
    /// Additive floor on the compaction trigger (tail rows before a
    /// compaction is considered); the multiplicative 1/32-of-merged rule
    /// on top keeps total compaction work linear.
    pub compact_min_tail: usize,
}

impl Default for LiveOptions {
    fn default() -> LiveOptions {
        LiveOptions {
            clean: CleanOptions::default(),
            // Three bins of slack: generous against transport reordering,
            // small enough that folds trail the campaign closely.
            lateness_minutes: 30,
            compact_min_tail: 1024,
        }
    }
}

/// Counters the engine maintains while streaming.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Records offered (tap publishes, replays included).
    pub records_seen: u64,
    /// Records folded through the cleaning rules.
    pub folded: u64,
    /// Records dropped for arriving behind their device's watermark.
    pub late_dropped: u64,
    /// Records dropped as duplicates (redeliveries and crash replays).
    pub dup_dropped: u64,
    /// Tap batches consumed.
    pub batches: u64,
    /// Tap batches that were crash-recovery replays.
    pub replay_batches: u64,
    /// Folded records removed for tethering.
    pub tethering_removed: u64,
    /// Folded records removed around iOS updates (including rows removed
    /// retroactively when the update was detected after they landed).
    pub update_days_removed: u64,
    /// Reboots detected (counter resets).
    pub reboots: u64,
    /// Sequence gaps detected.
    pub gaps: u64,
    /// Records the gaps prove were lost.
    pub missing_records: u64,
    /// Bin rows currently live (appended minus retroactively removed).
    pub bins_out: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// Nanoseconds spent offering and folding records (incremental work,
    /// proportional to batch size).
    pub fold_nanos: u64,
    /// Nanoseconds spent compacting (amortised O(1) per appended row).
    pub compact_nanos: u64,
}

impl LiveStats {
    /// The engine's cleaning counters in batch [`CleanStats`] form, for
    /// direct comparison with a batch clean over the same records.
    pub fn as_clean_stats(&self) -> CleanStats {
        CleanStats {
            records_in: self.folded,
            bins_out: self.bins_out,
            tethering_removed: self.tethering_removed,
            update_days_removed: self.update_days_removed,
            reboots: self.reboots,
            gaps: self.gaps,
            missing_records: self.missing_records,
        }
    }
}

/// Per-device streaming state.
#[derive(Debug, Default)]
struct Lane {
    /// Arrived but not yet folded, keyed (= ordered) by sequence number.
    pending: BTreeMap<u32, Record>,
    /// Newest sample time seen (drives the watermark).
    max_time: Option<SimTime>,
    /// Last folded record (delta base), advancing exactly as the batch
    /// cleaner's `prev` does — including over filtered records.
    prev: Option<Record>,
    /// Folded sequence numbers, ascending (duplicate detection).
    folded_seqs: Vec<u32>,
    /// iOS-update day, once the version transition folds past.
    update_day: Option<u32>,
    /// Whether this lane is in the engine's touched scratch list.
    dirty: bool,
}

impl Lane {
    /// Closed watermark minute, once enough time has been seen.
    fn watermark(&self, lateness_minutes: u32) -> Option<u32> {
        self.max_time.and_then(|m| m.minute.checked_sub(lateness_minutes))
    }
}

/// Everything a finished live run hands back.
#[derive(Debug)]
pub struct FinishedLive {
    /// The final snapshot (all records folded, final compaction done).
    pub snapshot: Arc<LiveSnapshot>,
    /// Final counters.
    pub stats: LiveStats,
    /// `(device, seq)` keys the engine refused as late; the convergence
    /// reference excludes exactly these.
    pub late: HashSet<(DeviceId, u32)>,
}

/// The streaming cleaner + dataset builder. See the [module docs](self).
#[derive(Debug)]
pub struct LiveEngine {
    opts: LiveOptions,
    lanes: Vec<Lane>,
    builder: LiveTableBuilder,
    late: HashSet<(DeviceId, u32)>,
    stats: LiveStats,
    snapshot: Arc<LiveSnapshot>,
    /// Lanes offered to since the last fold sweep.
    touched: Vec<u32>,
}

/// A device table of the right shape before the real one exists: the
/// campaign runner only learns survey answers and ground truth after the
/// device loop, so the engine starts from placeholders and the runner
/// calls [`LiveEngine::install_devices`] before finishing.
pub fn placeholder_devices(n: usize) -> Vec<DeviceInfo> {
    (0..n)
        .map(|i| DeviceInfo {
            device: DeviceId(i as u32),
            os: Os::Android,
            carrier: Carrier::A,
            recruited: true,
            survey: None,
            truth: None,
        })
        .collect()
}

impl LiveEngine {
    /// Engine over `n_devices` placeholder devices (see
    /// [`placeholder_devices`]).
    pub fn new(meta: CampaignMeta, n_devices: usize, opts: LiveOptions) -> LiveEngine {
        LiveEngine::with_devices(meta, placeholder_devices(n_devices), opts)
    }

    /// Engine over an explicit device table.
    pub fn with_devices(
        meta: CampaignMeta,
        devices: Vec<DeviceInfo>,
        opts: LiveOptions,
    ) -> LiveEngine {
        let n = devices.len();
        let builder =
            LiveTableBuilder::new(meta, devices).with_compact_min_tail(opts.compact_min_tail);
        LiveEngine {
            opts,
            lanes: (0..n).map(|_| Lane::default()).collect(),
            snapshot: builder.snapshot(),
            builder,
            late: HashSet::new(),
            stats: LiveStats::default(),
            touched: Vec::new(),
        }
    }

    /// Consume one tap batch: offer every record, fold the touched lanes
    /// up to their watermarks, compact if the tails have amortised.
    pub fn ingest_batch(&mut self, batch: &TapBatch) {
        self.stats.batches += 1;
        if batch.replay {
            self.stats.replay_batches += 1;
        }
        let t0 = Instant::now();
        for r in &batch.records {
            self.offer(r);
        }
        while let Some(d) = self.touched.pop() {
            self.lanes[d as usize].dirty = false;
            self.fold_lane(d as usize, false);
        }
        self.stats.fold_nanos += t0.elapsed().as_nanos() as u64;
        if self.builder.should_compact() {
            self.compact();
        }
    }

    /// Replace the placeholder device table (same length) — survey answers
    /// and ground truth only exist once the campaign's device loop is done.
    pub fn install_devices(&mut self, devices: Vec<DeviceInfo>) {
        self.builder.install_devices(devices);
    }

    /// The last published snapshot — an `Arc` clone, O(1). It lags the
    /// fold frontier by the uncompacted tails; [`finish`](Self::finish)
    /// publishes the exact final state.
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.snapshot)
    }

    /// Current counters.
    pub fn stats(&self) -> LiveStats {
        self.stats
    }

    /// End of stream: fold everything still pending (no more arrivals, so
    /// the watermark is moot), run the final compaction, copy the final
    /// snapshot's columns into its dataset's bins, and hand back the
    /// snapshot, the counters and the late-key set.
    pub fn finish(mut self) -> FinishedLive {
        let t0 = Instant::now();
        for d in 0..self.lanes.len() {
            self.fold_lane(d, true);
        }
        self.stats.fold_nanos += t0.elapsed().as_nanos() as u64;
        self.compact();
        let LiveEngine { builder, snapshot, stats, late, .. } = self;
        // The builder holds the other reference to the final snapshot.
        drop(builder);
        let mut snap = Arc::unwrap_or_clone(snapshot);
        snap.ds.bins = snap.cols.clone();
        FinishedLive { snapshot: Arc::new(snap), stats, late }
    }

    /// Classify one arrival: duplicate, late, or pending.
    fn offer(&mut self, r: &Record) {
        self.stats.records_seen += 1;
        let d = r.device.index();
        assert!(d < self.lanes.len(), "record for unknown device {}", r.device);
        let lane = &mut self.lanes[d];
        if lane.max_time.is_none_or(|m| r.time > m) {
            lane.max_time = Some(r.time);
        }
        if !lane.dirty {
            lane.dirty = true;
            self.touched.push(d as u32);
        }
        if lane.folded_seqs.binary_search(&r.seq).is_ok()
            || lane.pending.contains_key(&r.seq)
            || self.late.contains(&(r.device, r.seq))
        {
            self.stats.dup_dropped += 1;
            return;
        }
        if let Some(w) = lane.watermark(self.opts.lateness_minutes) {
            if r.time.minute <= w {
                self.late.insert((r.device, r.seq));
                self.stats.late_dropped += 1;
                return;
            }
        }
        lane.pending.insert(r.seq, r.clone());
    }

    /// Fold a lane's pending prefix: everything at or behind the watermark
    /// (or everything, at end of stream), in sequence order.
    fn fold_lane(&mut self, d: usize, drain_all: bool) {
        let w = match (drain_all, self.lanes[d].watermark(self.opts.lateness_minutes)) {
            (true, _) => u32::MAX,
            (false, Some(w)) => w,
            (false, None) => return,
        };
        loop {
            let lane = &mut self.lanes[d];
            match lane.pending.first_key_value() {
                Some((_, r)) if r.time.minute <= w => {}
                _ => break,
            }
            let (_, r) = lane.pending.pop_first().expect("peeked entry");
            Self::fold_record(lane, &mut self.builder, &mut self.stats, &self.opts, r);
        }
    }

    /// Run one record through the cleaning rules — a faithful streaming
    /// replica of one iteration of the batch cleaner's per-device loop
    /// (`crates/collector/src/clean.rs`), plus the retroactive update-day
    /// tombstone the batch cleaner gets for free from its lookahead pass.
    fn fold_record(
        lane: &mut Lane,
        builder: &mut LiveTableBuilder,
        stats: &mut LiveStats,
        opts: &LiveOptions,
        r: Record,
    ) {
        // Gap accounting: a leading gap on the first fold, exact widths
        // after that (seqs are monotonic across reboots).
        match &lane.prev {
            None => {
                if r.seq > 0 {
                    stats.gaps += 1;
                    stats.missing_records += u64::from(r.seq);
                }
            }
            Some(p) => {
                if r.seq > p.seq + 1 {
                    stats.gaps += 1;
                    stats.missing_records += u64::from(r.seq - p.seq - 1);
                }
            }
        }

        // Delta reconstruction against the previous folded record.
        let base = lane.prev.as_ref().filter(|p| p.boot_epoch == r.boot_epoch);
        stats.reboots += u64::from(lane.prev.is_some() && base.is_none());
        let (d3g, dlte, dwifi) = match base {
            Some(p) => (
                delta(&r.counters.cell3g, &p.counters.cell3g),
                delta(&r.counters.lte, &p.counters.lte),
                delta(&r.counters.wifi, &p.counters.wifi),
            ),
            None => (r.counters.cell3g, r.counters.lte, r.counters.wifi),
        };
        let mut dapps = Vec::new();
        app_deltas(&r, base, &mut dapps);

        // iOS-update detection: the first version transition across
        // consecutive folded records. The batch cleaner finds it with a
        // lookahead pass; online it surfaces only *now*, so rows already
        // appended on the update day (and day + 1) are tombstoned
        // retroactively and recounted as update-day removals.
        if lane.update_day.is_none() {
            if let Some(p) = &lane.prev {
                if p.os_version < OsVersion::IOS_8_2 && r.os_version >= OsVersion::IOS_8_2 {
                    let day = r.time.day();
                    lane.update_day = Some(day);
                    if opts.clean.remove_update_days {
                        let killed = builder.tombstone_update_day(r.device, day);
                        stats.update_days_removed += killed;
                        stats.bins_out -= killed;
                    }
                }
            }
        }

        debug_assert!(
            lane.folded_seqs.last().is_none_or(|&s| s < r.seq),
            "folds must advance in sequence order"
        );
        lane.folded_seqs.push(r.seq);
        stats.folded += 1;
        let update_day = lane.update_day.filter(|_| opts.clean.remove_update_days);
        if opts.clean.remove_tethering && r.tethering {
            stats.tethering_removed += 1;
        } else if update_day.is_some_and(|day| r.time.day() == day || r.time.day() == day + 1) {
            stats.update_days_removed += 1;
        } else {
            builder.append(LiveRow {
                device: r.device,
                time: r.time,
                rx_3g: d3g.rx_bytes,
                tx_3g: d3g.tx_bytes,
                rx_lte: dlte.rx_bytes,
                tx_lte: dlte.tx_bytes,
                rx_wifi: dwifi.rx_bytes,
                tx_wifi: dwifi.tx_bytes,
                wifi: r.wifi.clone(),
                scan: r.scan,
                apps: dapps,
                geo: r.geo,
                os_version: r.os_version,
            });
            stats.bins_out += 1;
        }
        // `prev` advances over *every* folded record, filtered or not,
        // exactly as the batch cleaner's does.
        lane.prev = Some(r);
    }

    fn compact(&mut self) {
        let t0 = Instant::now();
        self.snapshot = self.builder.compact();
        self.stats.compact_nanos += t0.elapsed().as_nanos() as u64;
        self.stats.compactions = self.builder.compactions();
    }
}

/// Counter delta clamped at zero, exactly as the batch cleaner computes it.
fn delta(now: &TrafficCounters, before: &TrafficCounters) -> TrafficCounters {
    now.delta_since(before).unwrap_or_default()
}

/// The convergence reference: a batch clean over `records` minus the late
/// keys the engine refused. The live snapshot must equal this exactly.
pub fn batch_reference(
    meta: CampaignMeta,
    devices: Vec<DeviceInfo>,
    records: &[Record],
    late: &HashSet<(DeviceId, u32)>,
    opts: CleanOptions,
) -> (Dataset, CleanStats) {
    if late.is_empty() {
        return clean(meta, devices, records, opts);
    }
    let filtered: Vec<Record> =
        records.iter().filter(|r| !late.contains(&(r.device, r.seq))).cloned().collect();
    clean(meta, devices, &filtered, opts)
}

/// Assert bit-identity between a finished live run and the batch pipeline
/// over the same records: dataset (bins, AP table, devices, meta), derived
/// index and columns, and the cleaning counters. Returns the batch
/// [`CleanStats`] on success and a description of the first divergence
/// otherwise.
pub fn check_convergence(
    fin: &FinishedLive,
    records: &[Record],
    opts: CleanOptions,
) -> Result<CleanStats, String> {
    let live = &fin.snapshot;
    let (ds, stats) =
        batch_reference(live.ds.meta.clone(), live.ds.devices.clone(), records, &fin.late, opts);
    if live.ds.bins.len() != ds.bins.len() {
        return Err(format!(
            "bin count diverged: live {} vs batch {}",
            live.ds.bins.len(),
            ds.bins.len()
        ));
    }
    if live.ds.bins != ds.bins {
        // Rows only to name the first divergent bin.
        let (live_rows, batch_rows) = (live.ds.bins.to_bins(), ds.bins.to_bins());
        return Err(match (0..batch_rows.len()).find(|&i| live_rows[i] != batch_rows[i]) {
            Some(i) => {
                format!("bin {i} diverged: live {:?} vs batch {:?}", live_rows[i], batch_rows[i])
            }
            None => "bin columns diverged".into(),
        });
    }
    if live.ds.aps != ds.aps {
        return Err(format!(
            "AP table diverged: live {} entries vs batch {}",
            live.ds.aps.len(),
            ds.aps.len()
        ));
    }
    if live.ds != ds {
        return Err("dataset metadata diverged".into());
    }
    let index = DatasetIndex::build(&ds);
    if live.index != index {
        return Err("bin-range index diverged".into());
    }
    if live.cols != ds.bins {
        return Err("columnar view diverged".into());
    }
    let live_stats = fin.stats.as_clean_stats();
    if live_stats != stats {
        return Err(format!("clean stats diverged: live {live_stats:?} vs batch {stats:?}"));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::{CellId, CounterSnapshot, ScanSummary, WifiState, Year};

    fn meta(days: u32) -> CampaignMeta {
        CampaignMeta { year: Year::Y2015, start: Year::Y2015.campaign_start(), days, seed: 0 }
    }

    fn counters(cum: u64) -> CounterSnapshot {
        CounterSnapshot {
            cell3g: TrafficCounters::default(),
            lte: TrafficCounters {
                rx_bytes: cum * 2,
                tx_bytes: cum / 2,
                rx_pkts: cum / 450,
                tx_pkts: cum / 1800,
            },
            wifi: TrafficCounters {
                rx_bytes: cum,
                tx_bytes: cum / 4,
                rx_pkts: cum / 900,
                tx_pkts: cum / 3600,
            },
        }
    }

    /// Sample time derives from `seq`, so seq order and time order agree —
    /// the co-monotonicity the real agent guarantees.
    fn rec(dev: u32, seq: u32, cum: u64) -> Record {
        Record {
            device: DeviceId(dev),
            os: Os::Ios,
            seq,
            time: SimTime::from_day_bin(seq / 144, seq % 144),
            boot_epoch: 0,
            counters: counters(cum),
            wifi: WifiState::OnUnassociated,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(1, 2),
            battery_pct: 77,
            tethering: false,
            os_version: OsVersion::new(8, 1),
        }
    }

    fn batch(records: Vec<Record>) -> TapBatch {
        TapBatch { replay: false, records }
    }

    fn sorted(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by_key(|r| (r.device, r.seq));
        records
    }

    fn finish_and_check(engine: LiveEngine, records: &[Record]) -> (FinishedLive, CleanStats) {
        let opts = engine.opts.clean;
        let fin = engine.finish();
        let stats = match check_convergence(&fin, records, opts) {
            Ok(s) => s,
            Err(why) => panic!("diverged: {why}"),
        };
        (fin, stats)
    }

    #[test]
    fn interleaved_devices_converge() {
        let mut engine = LiveEngine::new(meta(2), 3, LiveOptions::default());
        let mut all = Vec::new();
        for seq in 0..10u32 {
            for dev in [2u32, 0] {
                let r = rec(dev, seq, u64::from(seq) * 1_000 + u64::from(dev));
                engine.ingest_batch(&batch(vec![r.clone()]));
                all.push(r);
            }
        }
        let (fin, stats) = finish_and_check(engine, &sorted(all));
        assert_eq!(stats.records_in, 20);
        assert_eq!(fin.stats.late_dropped, 0);
        assert_eq!(fin.stats.dup_dropped, 0);
        // Device 1 never reported; its range must still resolve.
        assert!(fin.snapshot.index.device_range(DeviceId(1)).is_empty());
    }

    #[test]
    fn duplicates_and_replays_are_dropped() {
        let mut engine = LiveEngine::new(meta(1), 1, LiveOptions::default());
        let records: Vec<Record> = (0..5u32).map(|s| rec(0, s, u64::from(s) * 100)).collect();
        engine.ingest_batch(&batch(records.clone()));
        engine.ingest_batch(&batch(records.clone()));
        // A whole-store replay after a simulated crash re-offers everything.
        engine.ingest_batch(&TapBatch { replay: true, records: records.clone() });
        let (fin, stats) = finish_and_check(engine, &records);
        assert_eq!(fin.stats.dup_dropped, 10);
        assert_eq!(fin.stats.replay_batches, 1);
        assert_eq!(stats.records_in, 5);
    }

    #[test]
    fn late_record_is_excluded_from_both_sides() {
        let mut engine = LiveEngine::new(meta(10), 1, LiveOptions::default());
        // seq 0 (minute 0) and seq 200 (minute 2000) arrive; seq 1
        // (minute 10) then shows up far behind the watermark.
        let r0 = rec(0, 0, 100);
        let r200 = rec(0, 200, 900_000);
        let r1 = rec(0, 1, 500);
        engine.ingest_batch(&batch(vec![r0.clone(), r200.clone()]));
        engine.ingest_batch(&batch(vec![r1.clone()]));
        assert_eq!(engine.stats().late_dropped, 1);
        // The reference gets ALL server records; convergence must hold
        // because the checker excludes the engine's late keys.
        let (fin, stats) = finish_and_check(engine, &sorted(vec![r0, r200, r1]));
        assert!(fin.late.contains(&(DeviceId(0), 1)));
        // Batch over {0, 200}: one gap of width 199 (seq 1 counts as lost).
        assert_eq!(stats.gaps, 1);
        assert_eq!(stats.missing_records, 199);
        assert_eq!(stats.bins_out, 2);
    }

    #[test]
    fn reboots_gaps_and_leading_loss_match_batch() {
        let mut engine = LiveEngine::new(meta(1), 1, LiveOptions::default());
        // First delivered record is seq 3 (leading gap of 3); seq 5 skips
        // seq 4; seq 6 reboots (epoch bump, counters restart).
        let mut r6 = rec(0, 6, 700);
        r6.boot_epoch = 1;
        let records = vec![rec(0, 3, 3_000), rec(0, 5, 5_000), r6];
        engine.ingest_batch(&batch(records.clone()));
        let (fin, stats) = finish_and_check(engine, &records);
        assert_eq!(stats.gaps, 2);
        assert_eq!(stats.missing_records, 4);
        assert_eq!(stats.reboots, 1);
        // Reboot bin carries the whole since-boot volume.
        assert_eq!(fin.snapshot.ds.bins.rx_wifi[2], 700);
        // Gap bin folds the lost record's volume into its delta.
        assert_eq!(fin.snapshot.ds.bins.rx_wifi[1], 2_000);
    }

    #[test]
    fn tethering_and_retroactive_update_day_converge() {
        let mut engine = LiveEngine::new(meta(4), 1, LiveOptions::default());
        let mut records = Vec::new();
        // Day 0 on iOS 8.1 (one bin tethered); the 8.2 transition lands
        // mid-day-1, AFTER earlier day-1 rows were already folded and
        // appended — exercising the retroactive tombstone; day 2 falls in
        // the update shadow; day 3 survives.
        for seq in 0..(4 * 144u32) {
            let mut r = rec(0, seq, u64::from(seq) * 50);
            if seq == 30 {
                r.tethering = true;
            }
            if seq >= 144 + 72 {
                r.os_version = OsVersion::IOS_8_2;
            }
            records.push(r);
        }
        // Feed in small batches so day-1 rows land before the transition.
        for chunk in records.chunks(16) {
            engine.ingest_batch(&batch(chunk.to_vec()));
        }
        let (fin, stats) = finish_and_check(engine, &records);
        assert_eq!(stats.tethering_removed, 1);
        // Days 1 and 2 removed entirely: 288 records.
        assert_eq!(stats.update_days_removed, 288);
        let days: std::collections::HashSet<u32> =
            fin.snapshot.ds.bins.time.iter().map(|t| t.day()).collect();
        assert_eq!(days, [0u32, 3].into_iter().collect());
    }

    #[test]
    fn update_days_kept_when_option_disabled() {
        let opts = LiveOptions {
            clean: CleanOptions { remove_update_days: false, ..CleanOptions::default() },
            ..LiveOptions::default()
        };
        let mut engine = LiveEngine::new(meta(2), 1, opts);
        let records: Vec<Record> = (0..288u32)
            .map(|seq| {
                let mut r = rec(0, seq, u64::from(seq) * 50);
                if seq >= 144 {
                    r.os_version = OsVersion::IOS_8_2;
                }
                r
            })
            .collect();
        engine.ingest_batch(&batch(records.clone()));
        let (fin, stats) = finish_and_check(engine, &records);
        assert_eq!(stats.update_days_removed, 0);
        assert_eq!(fin.snapshot.ds.bins.len(), 288);
    }

    #[test]
    fn snapshots_are_arc_clones_between_compactions() {
        let mut engine = LiveEngine::new(meta(1), 1, LiveOptions::default());
        let before = engine.snapshot();
        engine.ingest_batch(&batch(vec![rec(0, 0, 10)]));
        // No compaction happened (tiny tail): same published snapshot.
        assert!(Arc::ptr_eq(&before, &engine.snapshot()));
        let records = vec![rec(0, 0, 10)];
        let (fin, _) = finish_and_check(engine, &records);
        assert_eq!(fin.snapshot.len(), 1);
    }

    #[test]
    fn app_deltas_replicate_batch_rules() {
        use mobitrace_model::{AppCategory, AppCounter};
        let app = |category: AppCategory, rx_bytes: u64| AppCounter {
            category,
            counters: TrafficCounters { rx_bytes, tx_bytes: rx_bytes / 10, rx_pkts: 0, tx_pkts: 0 },
        };
        let mut engine = LiveEngine::new(meta(1), 1, LiveOptions::default());
        let mut records = Vec::new();
        for seq in 0..4u32 {
            let mut r = rec(0, seq, u64::from(seq) * 1_000);
            r.os = Os::Android;
            r.apps = vec![app(AppCategory::Video, u64::from(seq) * 5_000)];
            records.push(r);
        }
        // Categories listed twice: every entry gets its own delta, and the
        // first entry of a repeated category is the next record's base.
        let mut r4 = rec(0, 4, 4_000);
        r4.os = Os::Android;
        r4.apps = vec![
            app(AppCategory::Video, 20_000),
            app(AppCategory::Video, 99_000),
            app(AppCategory::Social, 1_000),
        ];
        let mut r5 = rec(0, 5, 5_000);
        r5.os = Os::Android;
        r5.apps = vec![
            app(AppCategory::Video, 26_000),
            app(AppCategory::Social, 1_500),
            app(AppCategory::Social, 3_000),
        ];
        records.extend([r4, r5]);
        engine.ingest_batch(&batch(records.clone()));
        let (fin, _) = finish_and_check(engine, &records);
        let bins = &fin.snapshot.ds.bins.to_bins();
        // Seq 0 has zero app delta → no AppBin; the rest carry 5 kB each.
        assert!(bins[0].apps.is_empty());
        assert_eq!(bins[1].apps[0].rx_bytes, 5_000);
        let rx = |i: usize| bins[i].apps.iter().map(|a| a.rx_bytes).collect::<Vec<_>>();
        assert_eq!(rx(4), [5_000, 84_000, 1_000]);
        assert_eq!(rx(5), [6_000, 500, 2_000]);
        assert_eq!(bins[5].apps[0].tx_bytes, 600);
    }
}
