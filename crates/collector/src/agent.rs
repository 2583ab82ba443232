//! The on-device measurement agent.
//!
//! Runs in the background and samples every 10 minutes: it accumulates the
//! bin's interface and per-app volumes into *cumulative* counters (real
//! Android `TrafficStats` semantics — counters reset at reboot), frames a
//! [`Record`], and queues it for upload. "If the upload fails the software
//! caches the data and sends it later" (§2) — implemented here as a
//! *bounded* FIFO of encoded frames with oldest-first eviction, retried
//! under an exponential-backoff-with-jitter policy instead of hammering a
//! dead link on every tick.

use crate::codec::write_frame;
use crate::transport::LossyTransport;
use bytes::{Bytes, BytesMut};
use mobitrace_model::{
    AppBin, AppCategory, ByteCount, CellId, CounterSnapshot, DeviceId, Os, OsVersion, Record,
    ScanSummary, SimTime, TrafficCounters, WifiState,
};
use rand::Rng;
use std::collections::VecDeque;

/// Default upload-cache bound in frames. At one record per 10-minute bin
/// this is ~28 days of backlog — far beyond any campaign, so evictions
/// only happen when a test (or a truly catastrophic outage) asks for them.
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// First backoff step in minutes (one bin).
const BACKOFF_BASE_MIN: u32 = 10;
/// Backoff cap: 10 → 20 → 40 → 80 → 160 minutes.
const BACKOFF_MAX_SHIFT: u32 = 4;

/// What the device experienced during one bin (produced by the simulator,
/// consumed by the agent).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Bin start time.
    pub time: SimTime,
    /// 3G downlink/uplink bytes.
    pub rx_3g: u64,
    /// 3G uplink bytes.
    pub tx_3g: u64,
    /// LTE downlink bytes.
    pub rx_lte: u64,
    /// LTE uplink bytes.
    pub tx_lte: u64,
    /// WiFi downlink bytes.
    pub rx_wifi: u64,
    /// WiFi uplink bytes.
    pub tx_wifi: u64,
    /// WiFi interface state at sample time.
    pub wifi: WifiState,
    /// Scan summary (zeroed for iOS).
    pub scan: ScanSummary,
    /// Per-app volumes this bin (empty for iOS).
    pub apps: Vec<AppBin>,
    /// Coarse location.
    pub geo: CellId,
    /// Device is on a charger.
    pub charging: bool,
    /// Device is tethering.
    pub tethering: bool,
}

/// Agent state machine for one device.
#[derive(Debug)]
pub struct DeviceAgent {
    device: DeviceId,
    os: Os,
    os_version: OsVersion,
    seq: u32,
    boot_epoch: u16,
    counters: CounterSnapshot,
    app_counters: Vec<TrafficCounters>,
    battery_pct: f64,
    queue: VecDeque<Bytes>,
    /// Encode scratch: each frame is written here, then copied out at its
    /// exact size; the buffer keeps its capacity from record to record.
    scratch: Vec<u8>,
    /// Upload-cache bound in frames (oldest evicted first when full).
    cache_cap: usize,
    /// No upload attempts before this instant (backoff window).
    backoff_until: Option<SimTime>,
    /// Consecutive failed attempts since the last success.
    failure_streak: u32,
    /// Records produced (for observability).
    pub records_made: u64,
    /// Upload attempts that failed and were re-queued.
    pub retries: u64,
    /// Frames evicted from the full cache (oldest first), never uploaded.
    pub dropped_records: u64,
    /// Ticks skipped because a backoff window was still open.
    pub backoff_skips: u64,
    /// Upload rounds refused by server backpressure before any send.
    pub server_rejects: u64,
    /// High-water mark of the upload cache.
    pub max_pending: usize,
}

impl DeviceAgent {
    /// New agent with the default cache bound.
    pub fn new(device: DeviceId, os: Os, os_version: OsVersion) -> DeviceAgent {
        DeviceAgent {
            device,
            os,
            os_version,
            seq: 0,
            boot_epoch: 0,
            counters: CounterSnapshot::default(),
            app_counters: vec![TrafficCounters::default(); AppCategory::ALL.len()],
            battery_pct: 90.0,
            queue: VecDeque::new(),
            scratch: Vec::new(),
            cache_cap: DEFAULT_CACHE_CAP,
            backoff_until: None,
            failure_streak: 0,
            records_made: 0,
            retries: 0,
            dropped_records: 0,
            backoff_skips: 0,
            server_rejects: 0,
            max_pending: 0,
        }
    }

    /// Same agent with a custom upload-cache bound (min 1 frame).
    pub fn with_cache_cap(mut self, cap: usize) -> DeviceAgent {
        self.cache_cap = cap.max(1);
        self
    }

    /// The upload-cache bound in frames.
    pub fn cache_cap(&self) -> usize {
        self.cache_cap
    }

    /// Whether the agent is inside a backoff window at `now`.
    pub fn in_backoff(&self, now: SimTime) -> bool {
        self.backoff_until.is_some_and(|until| now < until)
    }

    /// Current OS version.
    pub fn os_version(&self) -> OsVersion {
        self.os_version
    }

    /// Install an OS update (the agent reports the new version from the
    /// next sample on).
    pub fn set_os_version(&mut self, v: OsVersion) {
        self.os_version = v;
    }

    /// Simulate a reboot: cumulative counters reset, epoch increments.
    pub fn reboot(&mut self) {
        self.boot_epoch += 1;
        self.counters = CounterSnapshot::default();
        for c in &mut self.app_counters {
            *c = TrafficCounters::default();
        }
    }

    /// Cached frames waiting for upload.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Ingest one bin's activity and enqueue the sample.
    pub fn observe(&mut self, obs: &Observation) {
        self.counters.cell3g.add(ByteCount::bytes(obs.rx_3g), ByteCount::bytes(obs.tx_3g));
        self.counters.lte.add(ByteCount::bytes(obs.rx_lte), ByteCount::bytes(obs.tx_lte));
        self.counters.wifi.add(ByteCount::bytes(obs.rx_wifi), ByteCount::bytes(obs.tx_wifi));
        for app in &obs.apps {
            self.app_counters[app.category.index()]
                .add(ByteCount::bytes(app.rx_bytes), ByteCount::bytes(app.tx_bytes));
        }
        self.update_battery(obs);

        let apps = if self.os == Os::Android {
            // Report every category with non-zero cumulative counters.
            self.app_counters
                .iter()
                .enumerate()
                .filter(|(_, c)| c.rx_bytes > 0 || c.tx_bytes > 0)
                .map(|(i, c)| mobitrace_model::AppCounter {
                    category: AppCategory::ALL[i],
                    counters: *c,
                })
                .collect()
        } else {
            Vec::new()
        };
        let record = Record {
            device: self.device,
            os: self.os,
            seq: self.seq,
            time: obs.time,
            boot_epoch: self.boot_epoch,
            counters: self.counters,
            wifi: obs.wifi.clone(),
            scan: if self.os == Os::Android { obs.scan } else { ScanSummary::default() },
            apps,
            geo: obs.geo,
            battery_pct: self.battery_pct.round().clamp(0.0, 100.0) as u8,
            tethering: obs.tethering,
            os_version: self.os_version,
        };
        self.seq += 1;
        self.records_made += 1;
        // One exact-size allocation per frame; the queued `Bytes` is
        // refcounted, so frames stay cheap to clone into the transport's
        // in-flight heap.
        self.scratch.clear();
        write_frame(&record, &mut self.scratch, None);
        self.queue.push_back(Bytes::copy_from_slice(&self.scratch));
        // Bounded cache: a real handset cannot buffer forever, so the
        // oldest frames go first — the deterministic policy the cleaner's
        // gap accounting expects (losses are a prefix of the backlog).
        while self.queue.len() > self.cache_cap {
            self.queue.pop_front();
            self.dropped_records += 1;
        }
        self.max_pending = self.max_pending.max(self.queue.len());
    }

    fn update_battery(&mut self, obs: &Observation) {
        if obs.charging {
            self.battery_pct = (self.battery_pct + 6.0).min(100.0);
        } else {
            let mb = (obs.rx_3g + obs.tx_3g + obs.rx_lte + obs.tx_lte + obs.rx_wifi + obs.tx_wifi)
                as f64
                / 1e6;
            // Idle drain plus radio cost; dead batteries get plugged in by
            // their owners eventually, so floor at 1%.
            self.battery_pct = (self.battery_pct - 0.35 - 0.02 * mb).max(1.0);
        }
    }

    /// Try to flush the cache through the transport. Skips the whole tick
    /// while a backoff window is open; stops at the first visible failure
    /// and opens (or widens) the window — exponential in the failure
    /// streak, capped, with uniform jitter so a fleet of agents does not
    /// retry in lockstep. Any success closes the window.
    pub fn try_upload<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        now: SimTime,
        transport: &mut LossyTransport,
    ) {
        if self.queue.is_empty() {
            return;
        }
        if self.in_backoff(now) {
            self.backoff_skips += 1;
            return;
        }
        while let Some(frame) = self.queue.front() {
            if transport.send(rng, now, frame.clone()) {
                self.queue.pop_front();
                self.failure_streak = 0;
                self.backoff_until = None;
            } else {
                self.retries += 1;
                self.enter_backoff(rng, now);
                break;
            }
        }
    }

    /// Drain the whole pending cache into `out` as one contiguous upload
    /// stream (back-to-back frames, the shape
    /// [`CollectionServer::ingest_stream`] consumes), returning the frame
    /// count — `0` when there is nothing to send or a backoff window is
    /// still open (counted in `backoff_skips`, like
    /// [`try_upload`](Self::try_upload)). The caller owns delivery:
    /// fleet producers append into one per-thread scratch block and
    /// `split()` it per agent, so a million agents share a handful of
    /// allocations instead of building one buffer each. Handing the
    /// frames over counts as an accepted upload round, closing any
    /// backoff window; a caller that then cannot deliver must either
    /// account the records itself (shed) or report the refusal via
    /// [`note_server_reject`](Self::note_server_reject) *before* taking
    /// the stream.
    ///
    /// [`CollectionServer::ingest_stream`]: crate::CollectionServer::ingest_stream
    pub fn take_stream_into(&mut self, now: SimTime, out: &mut BytesMut) -> u32 {
        if self.queue.is_empty() {
            return 0;
        }
        if self.in_backoff(now) {
            self.backoff_skips += 1;
            return 0;
        }
        let mut frames = 0u32;
        for frame in self.queue.drain(..) {
            out.extend_from_slice(&frame);
            frames += 1;
        }
        self.failure_streak = 0;
        self.backoff_until = None;
        frames
    }

    /// The server refused the connection before any frame was sent
    /// (backpressure or a known outage). Counts the reject and feeds the
    /// same backoff policy as a visible transport failure.
    pub fn note_server_reject<R: Rng + ?Sized>(&mut self, rng: &mut R, now: SimTime) {
        if self.queue.is_empty() || self.in_backoff(now) {
            return;
        }
        self.server_rejects += 1;
        self.enter_backoff(rng, now);
    }

    fn enter_backoff<R: Rng + ?Sized>(&mut self, rng: &mut R, now: SimTime) {
        self.failure_streak = self.failure_streak.saturating_add(1);
        let shift = (self.failure_streak - 1).min(BACKOFF_MAX_SHIFT);
        let base = BACKOFF_BASE_MIN << shift;
        let jitter = rng.gen_range(0..=base / 2);
        self.backoff_until = Some(now.plus_minutes(base + jitter));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_frame;
    use crate::transport::FaultPlan;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn obs(minute: u32, wifi_rx: u64) -> Observation {
        Observation {
            time: SimTime::from_minutes(minute),
            rx_3g: 0,
            tx_3g: 0,
            rx_lte: 1_000,
            tx_lte: 100,
            rx_wifi: wifi_rx,
            tx_wifi: wifi_rx / 5,
            wifi: WifiState::OnUnassociated,
            scan: ScanSummary::default(),
            apps: vec![AppBin { category: AppCategory::Browser, rx_bytes: wifi_rx, tx_bytes: 0 }],
            geo: CellId::new(1, 1),
            charging: false,
            tethering: false,
        }
    }

    #[test]
    fn counters_are_cumulative() {
        let mut a = DeviceAgent::new(DeviceId(1), Os::Android, OsVersion::new(4, 4));
        a.observe(&obs(0, 500));
        a.observe(&obs(10, 700));
        let frames: Vec<_> = (0..2).map(|_| a.queue.pop_front().unwrap()).collect();
        let r0 = decode_frame(&frames[0]).unwrap();
        let r1 = decode_frame(&frames[1]).unwrap();
        assert_eq!(r0.counters.wifi.rx_bytes, 500);
        assert_eq!(r1.counters.wifi.rx_bytes, 1200);
        assert_eq!(r1.counters.lte.rx_bytes, 2000);
        assert_eq!(r0.seq, 0);
        assert_eq!(r1.seq, 1);
    }

    #[test]
    fn reboot_resets_counters_and_bumps_epoch() {
        let mut a = DeviceAgent::new(DeviceId(2), Os::Android, OsVersion::new(4, 4));
        a.observe(&obs(0, 500));
        a.reboot();
        a.observe(&obs(10, 300));
        let _ = a.queue.pop_front();
        let r = decode_frame(&a.queue.pop_front().unwrap()).unwrap();
        assert_eq!(r.boot_epoch, 1);
        assert_eq!(r.counters.wifi.rx_bytes, 300);
        // Seq keeps increasing across reboots (persisted by the agent).
        assert_eq!(r.seq, 1);
    }

    #[test]
    fn ios_reports_no_apps_or_scans() {
        let mut a = DeviceAgent::new(DeviceId(3), Os::Ios, OsVersion::new(8, 1));
        let mut o = obs(0, 100);
        o.scan = ScanSummary { n24_all: 5, ..ScanSummary::default() };
        a.observe(&o);
        let r = decode_frame(&a.queue.pop_front().unwrap()).unwrap();
        assert!(r.apps.is_empty());
        assert_eq!(r.scan, ScanSummary::default());
    }

    #[test]
    fn failed_uploads_stay_cached() {
        let mut a = DeviceAgent::new(DeviceId(4), Os::Android, OsVersion::new(4, 4));
        let mut t = LossyTransport::new(FaultPlan { fail: 1.0, ..FaultPlan::reliable() });
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for k in 0..5 {
            a.observe(&obs(k * 10, 100));
        }
        a.try_upload(&mut rng, SimTime::from_minutes(50), &mut t);
        assert_eq!(a.pending(), 5, "all frames must stay cached");
        assert!(a.retries >= 1);

        // Link recovers: everything drains in order once the backoff
        // window (at most base+jitter = 15 minutes here) has passed.
        let mut good = LossyTransport::new(FaultPlan::reliable());
        a.try_upload(&mut rng, SimTime::from_minutes(300), &mut good);
        assert_eq!(a.pending(), 0);
        let frames = good.deliver_due(SimTime::from_minutes(300));
        let seqs: Vec<u32> = frames.iter().map(|f| decode_frame(f).unwrap().seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cache_bound_evicts_oldest_first_and_counts() {
        let mut a =
            DeviceAgent::new(DeviceId(7), Os::Android, OsVersion::new(4, 4)).with_cache_cap(3);
        for k in 0..5 {
            a.observe(&obs(k * 10, 100));
        }
        assert_eq!(a.pending(), 3, "cache never exceeds its bound");
        assert_eq!(a.dropped_records, 2);
        assert_eq!(a.max_pending, 3);
        let seqs: Vec<u32> = a.queue.iter().map(|f| decode_frame(f).unwrap().seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest frames evicted first");
    }

    #[test]
    fn backoff_skips_ticks_then_recovers() {
        let mut a = DeviceAgent::new(DeviceId(8), Os::Android, OsVersion::new(4, 4));
        let mut bad = LossyTransport::new(FaultPlan { fail: 1.0, ..FaultPlan::reliable() });
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        a.observe(&obs(0, 100));
        a.try_upload(&mut rng, SimTime::ZERO, &mut bad);
        assert_eq!(a.retries, 1);
        assert!(a.in_backoff(SimTime::from_minutes(9)), "first window is at least 10 min");

        // A tick inside the window must not touch the transport.
        let sent_before = bad.sent;
        a.try_upload(&mut rng, SimTime::from_minutes(5), &mut bad);
        assert_eq!(bad.sent, sent_before, "no send while backing off");
        assert_eq!(a.backoff_skips, 1);

        // After the window a success closes it and resets the streak.
        let mut good = LossyTransport::new(FaultPlan::reliable());
        a.try_upload(&mut rng, SimTime::from_minutes(300), &mut good);
        assert_eq!(a.pending(), 0);
        assert!(!a.in_backoff(SimTime::from_minutes(300)));
    }

    #[test]
    fn backoff_windows_grow_with_the_failure_streak() {
        let mut a = DeviceAgent::new(DeviceId(9), Os::Android, OsVersion::new(4, 4));
        let mut bad = LossyTransport::new(FaultPlan { fail: 1.0, ..FaultPlan::reliable() });
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        a.observe(&obs(0, 100));
        let mut t = SimTime::ZERO;
        let mut widths = Vec::new();
        for _ in 0..6 {
            a.try_upload(&mut rng, t, &mut bad);
            let until = a.backoff_until.expect("failure opens a window");
            widths.push(until.minute - t.minute);
            t = until; // retry the instant the window closes
        }
        // Base doubles 10 → 160 then stays capped; jitter adds ≤ base/2.
        for (k, w) in widths.iter().enumerate() {
            let base = 10u32 << k.min(4);
            assert!((base..=base + base / 2).contains(w), "step {k}: width {w}");
        }
    }

    #[test]
    fn server_reject_feeds_backoff_without_sending() {
        let mut a = DeviceAgent::new(DeviceId(10), Os::Android, OsVersion::new(4, 4));
        let mut t = LossyTransport::new(FaultPlan::reliable());
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        a.observe(&obs(0, 100));
        a.note_server_reject(&mut rng, SimTime::ZERO);
        assert_eq!(a.server_rejects, 1);
        assert!(a.in_backoff(SimTime::from_minutes(5)));
        a.try_upload(&mut rng, SimTime::from_minutes(5), &mut t);
        assert_eq!(t.sent, 0, "reject postpones the whole upload round");
        // A reject while already backing off is not double-counted.
        a.note_server_reject(&mut rng, SimTime::from_minutes(5));
        assert_eq!(a.server_rejects, 1);
        a.try_upload(&mut rng, SimTime::from_minutes(300), &mut t);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn battery_drains_and_charges() {
        let mut a = DeviceAgent::new(DeviceId(5), Os::Android, OsVersion::new(4, 4));
        let start = a.battery_pct;
        for k in 0..20 {
            a.observe(&obs(k * 10, 10_000_000)); // 10 MB per bin
        }
        assert!(a.battery_pct < start - 5.0, "battery should drain");
        let drained = a.battery_pct;
        let mut o = obs(300, 0);
        o.charging = true;
        for k in 0..10 {
            o.time = SimTime::from_minutes(300 + k * 10);
            a.observe(&o);
        }
        assert!(a.battery_pct > drained + 20.0, "battery should charge");
    }

    #[test]
    fn version_update_reflected_in_records() {
        let mut a = DeviceAgent::new(DeviceId(6), Os::Ios, OsVersion::new(8, 1));
        a.observe(&obs(0, 0));
        a.set_os_version(OsVersion::IOS_8_2);
        a.observe(&obs(10, 0));
        let _ = a.queue.pop_front();
        let r = decode_frame(&a.queue.pop_front().unwrap()).unwrap();
        assert_eq!(r.os_version, OsVersion::IOS_8_2);
    }

    fn associated(essid: &str) -> WifiState {
        WifiState::Associated(mobitrace_model::AssocInfo {
            bssid: mobitrace_model::Bssid::from_u64(0xC0FFEE),
            essid: mobitrace_model::Essid::new(essid),
            band: mobitrace_model::Band::Ghz5,
            channel: mobitrace_model::Channel(36),
            rssi: mobitrace_model::Dbm::new(-61),
        })
    }

    #[test]
    fn queued_frames_are_standalone_encodings() {
        let mut a = DeviceAgent::new(DeviceId(11), Os::Android, OsVersion::new(5, 0));
        // A long frame, then a short one: the kept scratch buffer must not
        // leak the longer frame's tail into the next.
        let mut long = obs(0, 900);
        long.wifi = associated(&"n".repeat(600));
        a.observe(&long);
        a.observe(&obs(10, 100));
        let mut off = obs(20, 0);
        off.wifi = WifiState::Off;
        a.observe(&off);
        assert_eq!(a.pending(), 3);
        for frame in &a.queue {
            let r = decode_frame(frame).unwrap();
            assert_eq!(frame, &crate::codec::encode_frame(&r), "seq {}", r.seq);
        }
        assert!(a.queue[0].len() > a.queue[1].len() + 600);
    }

    #[test]
    fn android_reports_only_categories_with_traffic() {
        let mut a = DeviceAgent::new(DeviceId(12), Os::Android, OsVersion::new(4, 4));
        let mut o = obs(0, 0);
        o.apps = vec![
            AppBin { category: AppCategory::Video, rx_bytes: 300, tx_bytes: 0 },
            AppBin { category: AppCategory::Browser, rx_bytes: 0, tx_bytes: 40 },
            AppBin { category: AppCategory::Game, rx_bytes: 0, tx_bytes: 0 },
        ];
        a.observe(&o);
        let mut o = obs(10, 0);
        o.apps = vec![AppBin { category: AppCategory::Video, rx_bytes: 200, tx_bytes: 7 }];
        a.observe(&o);
        let records: Vec<Record> = a.queue.iter().map(|f| decode_frame(f).unwrap()).collect();
        let listed = |r: &Record| -> Vec<(AppCategory, u64, u64)> {
            r.apps.iter().map(|c| (c.category, c.counters.rx_bytes, c.counters.tx_bytes)).collect()
        };
        // Listed in category order, whatever order the bin held them in.
        let expect = vec![(AppCategory::Browser, 0, 40), (AppCategory::Video, 300, 0)];
        assert_eq!(listed(&records[0]), expect, "zero categories are omitted");
        // Counters stay cumulative; a category idle this bin is still listed.
        let expect = vec![(AppCategory::Browser, 0, 40), (AppCategory::Video, 500, 7)];
        assert_eq!(listed(&records[1]), expect);
    }

    #[test]
    fn battery_stays_between_one_and_a_hundred_percent() {
        let mut a = DeviceAgent::new(DeviceId(13), Os::Android, OsVersion::new(4, 4));
        for k in 0..30 {
            a.observe(&obs(k * 10, 500_000_000)); // 0.5 GB per bin
        }
        let mut charging = obs(300, 0);
        charging.charging = true;
        for k in 0..30 {
            charging.time = SimTime::from_minutes(300 + k * 10);
            a.observe(&charging);
        }
        let levels: Vec<u8> =
            a.queue.iter().map(|f| decode_frame(f).unwrap().battery_pct).collect();
        assert_eq!(levels[29], 1, "a drained battery floors at 1%");
        assert_eq!(levels[59], 100, "a charged battery caps at 100%");
        assert!(levels.iter().all(|&p| (1..=100).contains(&p)));
    }

    #[test]
    fn cache_cap_is_at_least_one_frame() {
        let mut a = DeviceAgent::new(DeviceId(14), Os::Android, OsVersion::new(4, 4));
        assert_eq!(a.cache_cap(), DEFAULT_CACHE_CAP);
        a = a.with_cache_cap(0);
        assert_eq!(a.cache_cap(), 1);
        for k in 0..3 {
            a.observe(&obs(k * 10, 100));
        }
        assert_eq!(a.pending(), 1);
        assert_eq!(a.dropped_records, 2);
        assert_eq!(decode_frame(&a.queue[0]).unwrap().seq, 2, "the newest frame is kept");
    }

    #[test]
    fn take_stream_into_appends_the_cache_in_order() {
        let mut a = DeviceAgent::new(DeviceId(15), Os::Android, OsVersion::new(4, 4));
        let mut out = BytesMut::from(b"head".to_vec());
        assert_eq!(a.take_stream_into(SimTime::ZERO, &mut out), 0, "nothing cached");
        for k in 0..4 {
            a.observe(&obs(k * 10, 100));
        }
        let expect: Vec<u8> = a.queue.iter().flat_map(|f| f.iter().copied()).collect();
        assert_eq!(a.take_stream_into(SimTime::from_minutes(40), &mut out), 4);
        assert_eq!(a.pending(), 0);
        assert_eq!(&out[..4], b"head");
        assert_eq!(&out[4..], &expect[..]);
        let mut stream = Bytes::copy_from_slice(&out[4..]);
        let mut back = Vec::new();
        assert_eq!(crate::codec::decode_batch_into(&mut stream, &mut back), Ok(4));
        assert_eq!(back.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn take_stream_into_waits_out_a_backoff_window_then_closes_it() {
        let mut a = DeviceAgent::new(DeviceId(16), Os::Android, OsVersion::new(4, 4));
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        a.observe(&obs(0, 100));
        a.note_server_reject(&mut rng, SimTime::ZERO);
        let mut out = BytesMut::new();
        assert_eq!(a.take_stream_into(SimTime::from_minutes(5), &mut out), 0);
        assert!(out.is_empty());
        assert_eq!(a.backoff_skips, 1);
        assert_eq!(a.pending(), 1);

        assert_eq!(a.take_stream_into(SimTime::from_minutes(300), &mut out), 1);
        assert!(!a.in_backoff(SimTime::from_minutes(300)));
        // The streak was reset: the next reject opens a first-step window
        // (10 minutes plus at most 5 of jitter), not a doubled one.
        a.observe(&obs(310, 100));
        a.note_server_reject(&mut rng, SimTime::from_minutes(310));
        let width = a.backoff_until.unwrap().minute - 310;
        assert!((10..=15).contains(&width), "width {width}");
    }

    #[test]
    fn server_reject_with_an_empty_cache_is_ignored() {
        let mut a = DeviceAgent::new(DeviceId(17), Os::Android, OsVersion::new(4, 4));
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        a.note_server_reject(&mut rng, SimTime::ZERO);
        assert_eq!(a.server_rejects, 0);
        assert!(!a.in_backoff(SimTime::ZERO));
        let mut t = LossyTransport::new(FaultPlan::reliable());
        a.try_upload(&mut rng, SimTime::ZERO, &mut t);
        assert_eq!((t.sent, a.backoff_skips), (0, 0), "an empty cache sends nothing");
    }
}
