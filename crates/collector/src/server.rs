//! The collection server.
//!
//! Ingests frames from the transport, rejects corrupted ones, deduplicates
//! by (device, sequence number), and tolerates arbitrary delivery order.
//!
//! The store sits behind one lock, and the ingest statistics are plain
//! atomic counters. Codec work never happens under the lock:
//! [`ingest_batch`](CollectionServer::ingest_batch) decodes a whole
//! delivery first and then commits it in a single lock acquisition. The
//! store is not striped: every fleet cohort server has exactly one writer,
//! and a 16-way striped store measured no faster than one lock even under
//! 8 contending producers.
//!
//! Each device's records live in one run, a `Vec` kept strictly ascending
//! by sequence number, so a run is already in time order. Agents upload in
//! seq order, so nearly every insert is the fast path: a seq past the
//! run's last one is pushed. Any other seq is binary-searched in the run;
//! a hit is a duplicate, a miss inserts in place and shifts the run's tail.
//! Agent retries land near that tail, and a run holds at most one campaign
//! of one device (about 2.2k records for the paper's 15-day campaigns), so
//! the shift stays short.
//!
//! Because records are keyed by (device, seq), ingest order — and therefore
//! thread scheduling — cannot change the stored contents:
//! [`into_records`](CollectionServer::into_records) always produces the
//! same (device, time)-sorted output by concatenating the runs in device
//! order.
//!
//! The server holds each record once. A simulated
//! [`crash`](CollectionServer::crash) sets the live store aside, so the
//! server comes back up empty; [`recover`](CollectionServer::recover)
//! merges whatever was committed during the outage into the set-aside
//! store (the earlier commit of a (device, seq) wins) and resumes from
//! the merged store.
//! A soft ingest limit ([`set_soft_limit`](CollectionServer::set_soft_limit))
//! adds backpressure: agents consult [`accepting`](CollectionServer::accepting)
//! and treat a refusal as a visible failure feeding their backoff.

use crate::codec::{
    decode_batch_into, decode_frame, decode_frame_with, encode_batch, CodecError, EssidTable,
};
use bytes::Bytes;
use mobitrace_model::{DeviceId, Record};
use mobitrace_pool::{PoolError, PoolReader, PoolWriter};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Ingest statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames received.
    pub frames: u64,
    /// Frames rejected by the codec (corruption, truncation).
    pub rejected: u64,
    /// Frames that duplicated an already-stored record.
    pub duplicates: u64,
    /// Deliveries thrown away because the server was crashed.
    pub lost_down: u64,
    /// Simulated crashes.
    pub crashes: u64,
}

/// Per-device runs, each strictly ascending by `seq`.
type Store = HashMap<DeviceId, Vec<Record>>;

/// Insert `record` into its device's run, keeping the run strictly
/// ascending by `seq`. Returns the stored record, or `None` when the run
/// already holds its seq (a duplicate).
fn insert_run(store: &mut Store, record: Record) -> Option<&Record> {
    insert_in_run(store.entry(record.device).or_default(), record)
}

/// [`insert_run`] on one device's run.
fn insert_in_run(run: &mut Vec<Record>, record: Record) -> Option<&Record> {
    let at = match run.last() {
        Some(last) if record.seq <= last.seq => {
            run.binary_search_by_key(&record.seq, |r| r.seq).err()?
        }
        _ => run.len(),
    };
    run.insert(at, record);
    Some(&run[at])
}

/// Merge `later` into `first`. Where both hold a (device, seq), the
/// record in `first` is kept: it was committed earlier.
fn merge_first_wins(first: &mut Store, later: Store) {
    for (device, run) in later {
        let kept = first.entry(device).or_default();
        if kept.is_empty() {
            *kept = run;
        } else {
            for record in run {
                insert_in_run(kept, record);
            }
        }
    }
}

/// The runs of a store in device-id order.
fn runs_by_device(store: &Store) -> Vec<&[Record]> {
    let mut runs: Vec<_> = store.iter().collect();
    runs.sort_unstable_by_key(|(d, _)| **d);
    runs.into_iter().map(|(_, run)| run.as_slice()).collect()
}

/// Flatten a store into records sorted by (device, time).
fn sorted_records(store: Store) -> Vec<Record> {
    let mut runs: Vec<(DeviceId, Vec<Record>)> = store.into_iter().collect();
    runs.sort_unstable_by_key(|(d, _)| *d);
    let mut out = Vec::with_capacity(runs.iter().map(|(_, run)| run.len()).sum());
    for (_, run) in runs {
        out.extend(run);
    }
    out
}

/// Undrained tap batches past which a publish counts as overflow
/// ([`overflow`](IngestTap::overflow)). The queue itself is unbounded:
/// publishing never blocks ingest.
const TAP_BACKLOG_BOUND: usize = 64;

/// One batch of records published through an [`IngestTap`].
#[derive(Debug, Clone, PartialEq)]
pub struct TapBatch {
    /// True for records re-published by [`CollectionServer::recover`]
    /// (the consumer may already hold some of them).
    pub replay: bool,
    /// The accepted records, in commit order.
    pub records: Vec<Record>,
}

/// A subscription on server ingest: every *accepted* (newly stored) record
/// is re-published into a queue the live analysis engine drains in
/// batches. The server publishes while it still holds its store lock, so
/// batches come out in commit order. Publishing never blocks and never
/// drops, with one deliberate exception: [`CollectionServer::crash`]
/// discards undrained batches (they were "in flight" inside the dead
/// process), and the subsequent
/// [`recover`](CollectionServer::recover) re-publishes the whole rebuilt
/// store as a replay batch, so a consumer that deduplicates replays
/// converges back to exactly the server's contents.
#[derive(Debug)]
pub struct IngestTap {
    /// Undrained batches, in publish order.
    queue: Mutex<Vec<TapBatch>>,
    published: AtomicU64,
    overflow: AtomicU64,
    discarded: AtomicU64,
}

impl IngestTap {
    /// Publish one batch of records already accepted as new.
    fn publish(&self, records: Vec<Record>, replay: bool) {
        if records.is_empty() {
            return;
        }
        self.published.fetch_add(records.len() as u64, Ordering::Relaxed);
        let mut queue = self.queue.lock();
        if queue.len() >= TAP_BACKLOG_BOUND {
            self.overflow.fetch_add(records.len() as u64, Ordering::Relaxed);
        }
        queue.push(TapBatch { replay, records });
    }

    /// Drain every pending batch into `out`, in publish order.
    pub fn drain_into(&self, out: &mut Vec<TapBatch>) {
        out.append(&mut self.queue.lock());
    }

    /// Drop everything not yet drained (simulated crash loss).
    fn discard_pending(&self) {
        let n: usize = self.queue.lock().drain(..).map(|b| b.records.len()).sum();
        self.discarded.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Records published since the tap was attached (replays included).
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Relaxed)
    }

    /// Records published while at least 64 batches were undrained.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Records discarded undrained by a crash.
    pub fn discarded(&self) -> u64 {
        self.discarded.load(Ordering::Relaxed)
    }
}

/// The locked store. `live` takes every commit; `aside` is what crashes
/// set aside, merged back by [`CollectionServer::recover`].
#[derive(Debug, Default)]
struct State {
    live: Store,
    aside: Store,
}

/// The collection server.
#[derive(Debug, Default)]
pub struct CollectionServer {
    state: Mutex<State>,
    /// Attached ingest subscription, if any (set once, before ingest).
    tap: OnceLock<Arc<IngestTap>>,
    /// A simulated crash is in progress (deliveries are lost).
    crashed: AtomicBool,
    /// Soft record limit for backpressure; 0 disables it.
    soft_limit: AtomicUsize,
    /// Records in the live store, updated under the store lock.
    live_records: AtomicUsize,
    frames: AtomicU64,
    rejected: AtomicU64,
    duplicates: AtomicU64,
    lost_down: AtomicU64,
    crashes: AtomicU64,
}

impl CollectionServer {
    /// New empty server.
    pub fn new() -> CollectionServer {
        CollectionServer::default()
    }

    /// Attach (or fetch) the ingest tap: from now on every newly stored
    /// record is also published into the tap's queue for a streaming
    /// consumer. Idempotent — repeated calls return the same tap. Records
    /// stored *before* the first call are not republished (attach before
    /// ingesting, or call [`recover`] to replay).
    ///
    /// [`recover`]: CollectionServer::recover
    pub fn attach_tap(&self) -> Arc<IngestTap> {
        Arc::clone(self.tap.get_or_init(|| {
            Arc::new(IngestTap {
                queue: Mutex::default(),
                published: AtomicU64::default(),
                overflow: AtomicU64::default(),
                discarded: AtomicU64::default(),
            })
        }))
    }

    /// Simulate a mid-campaign crash: the live store is set aside (merged
    /// into whatever an earlier crash set aside), the server reads as
    /// empty, and every delivery until
    /// [`recover`](CollectionServer::recover) is lost (counted in
    /// `lost_down`).
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::SeqCst);
        self.crashes.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock();
        let live = std::mem::take(&mut state.live);
        merge_first_wins(&mut state.aside, live);
        self.live_records.store(0, Ordering::Relaxed);
        // Undrained tap batches were in flight inside the dead process:
        // they are lost too, and only the recovery replay brings their
        // records back.
        if let Some(tap) = self.tap.get() {
            tap.discard_pending();
        }
    }

    /// Heal a crash: merge what was committed during the outage into the
    /// set-aside store (the set-aside record wins a (device, seq) both
    /// hold), make the result the live store, and resume accepting
    /// deliveries.
    pub fn recover(&self) {
        let mut state = self.state.lock();
        let mut live = std::mem::take(&mut state.aside);
        let outage = std::mem::take(&mut state.live);
        merge_first_wins(&mut live, outage);
        self.live_records.store(live.values().map(Vec::len).sum(), Ordering::Relaxed);
        // A tapped consumer lost whatever it had not drained at the crash;
        // replay the full recovered contents (devices in id order, each in
        // seq order) and let it deduplicate.
        if let Some(tap) = self.tap.get() {
            tap.publish(runs_by_device(&live).concat(), true);
        }
        state.live = live;
        self.crashed.store(false, Ordering::SeqCst);
    }

    /// Whether a simulated crash is in progress.
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Soft backpressure limit on stored records; 0 disables it. The
    /// limit is advisory — deliveries already in flight still land — but
    /// [`accepting`](CollectionServer::accepting) turns false so agents
    /// hold new uploads and back off.
    pub fn set_soft_limit(&self, limit: usize) {
        self.soft_limit.store(limit, Ordering::Relaxed);
    }

    /// Whether the store has reached its soft limit.
    pub fn overloaded(&self) -> bool {
        let limit = self.soft_limit.load(Ordering::Relaxed);
        limit > 0 && self.len() >= limit
    }

    /// Whether agents should attempt an upload right now (not crashed,
    /// not overloaded). A `false` here is the backpressure signal agents
    /// feed into their backoff policy.
    pub fn accepting(&self) -> bool {
        !self.is_crashed() && !self.overloaded()
    }

    /// Ingest one frame. Returns `Ok(true)` when a new record was stored,
    /// `Ok(false)` for a duplicate — or for a delivery into a crashed
    /// server, which is lost and counted in `lost_down` — or the codec
    /// error for a bad frame. Every live call counts exactly one frame,
    /// and a bad frame counts exactly one rejection.
    pub fn ingest(&self, frame: &Bytes) -> Result<bool, CodecError> {
        if self.is_crashed() {
            self.lost_down.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
        let record = match decode_frame(frame) {
            Ok(r) => r,
            Err(e) => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        Ok(self.store_batch(vec![record]) == 1)
    }

    /// Ingest a batch of frames, ignoring individual failures (they are
    /// counted). All frames are decoded before the store lock is taken,
    /// and the lock is taken once for the whole batch. Returns the number
    /// of newly stored records.
    pub fn ingest_batch(&self, frames: impl IntoIterator<Item = Bytes>) -> usize {
        if self.is_crashed() {
            let lost = frames.into_iter().count() as u64;
            if lost > 0 {
                self.lost_down.fetch_add(lost, Ordering::Relaxed);
            }
            return 0;
        }
        let mut records = Vec::new();
        let mut n_frames = 0u64;
        let mut n_rejected = 0u64;
        // One ESSID table per delivery: every record of the batch that
        // names the same network shares one interned `Arc<str>`.
        let mut essids = EssidTable::default();
        for frame in frames {
            n_frames += 1;
            match decode_frame_with(&frame, &mut essids) {
                Ok(record) => records.push(record),
                Err(_) => n_rejected += 1,
            }
        }
        if n_frames > 0 {
            self.frames.fetch_add(n_frames, Ordering::Relaxed);
        }
        if n_rejected > 0 {
            self.rejected.fetch_add(n_rejected, Ordering::Relaxed);
        }
        self.store_batch(records)
    }

    /// Ingest a contiguous concatenation of frames (one upload buffer of
    /// back-to-back frames, as produced by
    /// [`encode_batch`](crate::codec::encode_batch)) — decoded in one
    /// streaming pass with no per-frame slicing. A bad frame loses the rest
    /// of the stream (frame lengths live inside the frames) and counts as
    /// one rejection; everything decoded before it is stored. A stream
    /// delivered into a crashed server is lost whole (one `lost_down`).
    /// Returns the number of newly stored records.
    pub fn ingest_stream(&self, mut stream: Bytes) -> usize {
        if self.is_crashed() {
            self.lost_down.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let mut records = Vec::new();
        let failed = decode_batch_into(&mut stream, &mut records).is_err();
        self.frames.fetch_add(records.len() as u64 + u64::from(failed), Ordering::Relaxed);
        if failed {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        self.store_batch(records)
    }

    /// Commit decoded records under one acquisition of the store lock, in
    /// arrival order. This is the commit half of the ingest boundary:
    /// decode happens before this call, so the lock is never held across
    /// codec work. Accepted records are published to the tap before the
    /// lock is released, so tap order is commit order. Returns the number
    /// of newly stored records.
    pub fn store_batch(&self, records: Vec<Record>) -> usize {
        if records.is_empty() {
            return 0;
        }
        let tap = self.tap.get();
        let offered = records.len();
        let mut stored = 0usize;
        let mut accepted = Vec::new();
        let mut state = self.state.lock();
        for record in records {
            if let Some(record) = insert_run(&mut state.live, record) {
                stored += 1;
                if tap.is_some() {
                    accepted.push(record.clone());
                }
            }
        }
        self.live_records.fetch_add(stored, Ordering::Relaxed);
        if let Some(tap) = tap {
            tap.publish(accepted, false);
        }
        drop(state);
        if stored < offered {
            self.duplicates.fetch_add((offered - stored) as u64, Ordering::Relaxed);
        }
        stored
    }

    /// Snapshot the ingest statistics.
    pub fn stats(&self) -> IngestStats {
        IngestStats {
            frames: self.frames.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            duplicates: self.duplicates.load(Ordering::Relaxed),
            lost_down: self.lost_down.load(Ordering::Relaxed),
            crashes: self.crashes.load(Ordering::Relaxed),
        }
    }

    /// Number of stored records.
    pub fn len(&self) -> usize {
        self.live_records.load(Ordering::Relaxed)
    }

    /// True when nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Durable checkpoint: write the live store into a pool file as one
    /// codec-framed [`RAW`](mobitrace_pool::kind::RAW) segment (devices in
    /// id order, records in seq order), atomically published. Unlike the
    /// set-aside store — which only survives a simulated
    /// [`crash`](CollectionServer::crash) — a pool checkpoint survives
    /// real process death:
    /// [`recover_from_pool`](CollectionServer::recover_from_pool)
    /// rebuilds an equivalent server from the file alone. The new
    /// checkpoint is staged in a temp file and atomically renamed over
    /// `path`, so a crash *during* a checkpoint — the whole checkpoint
    /// window — leaves the previous checkpoint at `path` untouched and
    /// recoverable. Returns the published pool epoch.
    pub fn checkpoint_to_pool(&self, path: &std::path::Path) -> Result<u64, PoolError> {
        self.checkpoint_to_pool_with(path, None)
    }

    /// [`checkpoint_to_pool`](Self::checkpoint_to_pool) with an optional
    /// pool I/O fault shim (see [`mobitrace_pool::shim`]), so a fault
    /// harness can fail the checkpoint at an exact write or sync. The
    /// atomic-replace guarantee is unchanged: a failed checkpoint leaves
    /// the previous file at `path` intact.
    pub fn checkpoint_to_pool_with(
        &self,
        path: &std::path::Path,
        shim: Option<std::sync::Arc<dyn mobitrace_pool::PoolIoShim>>,
    ) -> Result<u64, PoolError> {
        let mut w = PoolWriter::replace_with(path, shim)?;
        let mut buf = bytes::BytesMut::new();
        let n = {
            let state = self.state.lock();
            encode_batch(runs_by_device(&state.live).into_iter().flatten(), &mut buf)
        };
        if n > 0 {
            w.append_raw(mobitrace_pool::kind::RAW, 0, n as u64, &buf)?;
        }
        w.finish()
    }

    /// Rebuild a server from a pool checkpoint written by
    /// [`checkpoint_to_pool`](CollectionServer::checkpoint_to_pool).
    /// Every RAW segment is read, so checkpoints written as one segment
    /// per store stripe by older versions still recover.
    /// Frame corruption inside a (checksummed) segment surfaces as
    /// [`PoolError::Corrupt`]; a structurally valid pool that was never
    /// published (no committed directory slot — the signature of a
    /// checkpoint interrupted before publication) is rejected loudly
    /// rather than recovered as an empty server, because every
    /// checkpoint this module writes publishes at least epoch 1 even
    /// when the server holds no records.
    pub fn recover_from_pool(path: &std::path::Path) -> Result<CollectionServer, PoolError> {
        let r = PoolReader::open(path)?;
        if r.epoch() == 0 {
            return Err(PoolError::Corrupt {
                what: "checkpoint pool has no published directory \
                       (checkpoint interrupted before publication?)"
                    .into(),
            });
        }
        let server = CollectionServer::new();
        for stream in r.raw_streams() {
            let (payload, rows) = r.raw_segment(stream)?;
            let mut buf = Bytes::copy_from_slice(payload);
            let mut records = Vec::with_capacity(rows as usize);
            decode_batch_into(&mut buf, &mut records).map_err(|e| PoolError::Corrupt {
                what: format!("checkpoint segment {stream}: {e}"),
            })?;
            if records.len() as u64 != rows {
                return Err(PoolError::Corrupt {
                    what: format!(
                        "checkpoint segment {stream}: {} frames decoded, directory says {rows}",
                        records.len()
                    ),
                });
            }
            server.store_batch(records);
        }
        Ok(server)
    }

    /// Clone all records sorted by (device, time) without consuming the
    /// server — the teardown fallback when another handle still holds a
    /// reference (e.g. a worker that died without dropping its `Arc`),
    /// and [`into_records`](Self::into_records) cannot take ownership.
    pub fn clone_records(&self) -> Vec<Record> {
        runs_by_device(&self.state.lock().live).concat()
    }

    /// Extract all records sorted by (device, time), consuming the server.
    /// Call [`recover`](CollectionServer::recover) first if a crash is in
    /// progress — this reads the live store.
    pub fn into_records(self) -> Vec<Record> {
        sorted_records(self.state.into_inner().live)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_frame;
    use mobitrace_model::{
        CellId, CounterSnapshot, Os, OsVersion, ScanSummary, SimTime, WifiState,
    };

    fn record(device: u32, seq: u32) -> Record {
        Record {
            device: DeviceId(device),
            os: Os::Android,
            seq,
            time: SimTime::from_minutes(seq * 10),
            boot_epoch: 0,
            counters: CounterSnapshot::default(),
            wifi: WifiState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            battery_pct: 50,
            tethering: false,
            os_version: OsVersion::new(4, 4),
        }
    }

    /// A pool checkpoint must survive total process death: rebuild a
    /// server from the file alone and get identical records back.
    /// Re-checkpointing the same path replaces the file wholesale (via
    /// temp + atomic rename), so each checkpoint starts at epoch 1.
    #[test]
    fn pool_checkpoint_survives_process_death() {
        let dir = std::env::temp_dir().join(format!(
            "mobitrace-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.mtpool");

        let server = CollectionServer::new();
        for (d, s) in [(1u32, 2u32), (0, 1), (19, 0), (0, 0), (1, 1), (7, 3)] {
            server.ingest(&encode_frame(&record(d, s))).unwrap();
        }
        server.checkpoint_to_pool(&path).unwrap();
        let expect: Vec<(u32, u32)> =
            server.into_records().iter().map(|r| (r.device.0, r.seq)).collect();

        // "Process death": the server above is gone; only the file remains.
        let revived = CollectionServer::recover_from_pool(&path).unwrap();
        let n = revived.len();
        let got: Vec<(u32, u32)> =
            revived.into_records().iter().map(|r| (r.device.0, r.seq)).collect();
        assert_eq!(got.len(), n);
        assert_eq!(got, expect);

        // Corrupting the checkpoint payload must be loud, not lossy.
        let mut raw = std::fs::read(&path).unwrap();
        let seg = {
            let r = mobitrace_pool::PoolReader::open(&path).unwrap();
            r.segments()[0].offset as usize + 4
        };
        raw[seg] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        match CollectionServer::recover_from_pool(&path) {
            Err(PoolError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Checkpoints written with one RAW segment per store stripe, as
    /// older versions of the server did, still recover: every segment is
    /// read and the records merge into one store.
    #[test]
    fn recover_reads_every_raw_segment() {
        let dir = std::env::temp_dir().join(format!(
            "mobitrace-ckpt-segs-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("striped.mtpool");
        let stripes: [(u16, &[u32]); 3] = [(0, &[4, 9]), (3, &[1]), (11, &[0, 7, 12])];
        let mut w = mobitrace_pool::PoolWriter::replace(&path).unwrap();
        for (stream, devices) in stripes {
            let records: Vec<Record> =
                devices.iter().flat_map(|&d| (0..5u32).map(move |s| record(d, s))).collect();
            let mut buf = bytes::BytesMut::new();
            let n = encode_batch(records.iter(), &mut buf);
            w.append_raw(mobitrace_pool::kind::RAW, stream, n as u64, &buf).unwrap();
        }
        w.finish().unwrap();

        let revived = CollectionServer::recover_from_pool(&path).unwrap();
        assert_eq!(revived.len(), 6 * 5);
        let got: Vec<(u32, u32)> =
            revived.into_records().iter().map(|r| (r.device.0, r.seq)).collect();
        let expect: Vec<(u32, u32)> =
            [0u32, 1, 4, 7, 9, 12].iter().flat_map(|&d| (0..5u32).map(move |s| (d, s))).collect();
        assert_eq!(got, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A crash *during* a checkpoint must leave the previous checkpoint
    /// recoverable, and a checkpoint file that never reached publication
    /// must be rejected loudly — never silently recovered as empty.
    #[test]
    fn interrupted_checkpoint_preserves_previous_and_is_loud() {
        let dir = std::env::temp_dir().join(format!(
            "mobitrace-ckpt-crash-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.mtpool");

        let server = CollectionServer::new();
        for (d, s) in [(0u32, 0u32), (0, 1), (3, 0)] {
            server.ingest(&encode_frame(&record(d, s))).unwrap();
        }
        server.checkpoint_to_pool(&path).unwrap();

        // "Crash" mid-way through the next checkpoint: the staging temp
        // dies before its atomic rename. The published checkpoint at
        // `path` must be byte-for-byte what it was.
        let before = std::fs::read(&path).unwrap();
        {
            let mut w = mobitrace_pool::PoolWriter::replace(&path).unwrap();
            w.append_raw(mobitrace_pool::kind::RAW, 0, 1, b"unfinished").unwrap();
            // Dropped without finish = the process died here.
        }
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let revived = CollectionServer::recover_from_pool(&path).unwrap();
        let got: Vec<(u32, u32)> =
            revived.into_records().iter().map(|r| (r.device.0, r.seq)).collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (3, 0)]);

        // A structurally valid pool with no publication (a checkpoint
        // that died before its first commit under the old in-place
        // scheme) recovers as an error, not as an empty server.
        let unpublished = dir.join("unpublished.mtpool");
        drop(mobitrace_pool::PoolWriter::create(&unpublished).unwrap());
        match CollectionServer::recover_from_pool(&unpublished) {
            Err(PoolError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint written under an older pool format version is refused
    /// with the typed version error, not decoded by this version's codec.
    #[test]
    fn older_version_checkpoint_is_refused() {
        let dir = std::env::temp_dir().join(format!(
            "mobitrace-ckpt-version-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.mtpool");
        let server = CollectionServer::new();
        server.ingest(&encode_frame(&record(1, 0))).unwrap();
        server.checkpoint_to_pool(&path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[8..12].copy_from_slice(&(mobitrace_pool::VERSION - 1).to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        match CollectionServer::recover_from_pool(&path) {
            Err(PoolError::BadVersion { found, supported }) => {
                assert_eq!(
                    (found, supported),
                    (mobitrace_pool::VERSION - 1, mobitrace_pool::VERSION)
                );
            }
            other => panic!("expected BadVersion, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stores_and_sorts() {
        let server = CollectionServer::new();
        // Deliver out of order across two devices.
        for (d, s) in [(1u32, 2u32), (0, 1), (1, 0), (0, 0), (1, 1)] {
            server.ingest(&encode_frame(&record(d, s))).unwrap();
        }
        assert_eq!(server.len(), 5);
        let records = server.into_records();
        let keys: Vec<(u32, u32)> = records.iter().map(|r| (r.device.0, r.seq)).collect();
        assert_eq!(keys, vec![(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn duplicates_counted_once() {
        let server = CollectionServer::new();
        let f = encode_frame(&record(3, 7));
        assert_eq!(server.ingest(&f), Ok(true));
        assert_eq!(server.ingest(&f), Ok(false));
        assert_eq!(server.len(), 1);
        assert_eq!(server.stats().duplicates, 1);
    }

    #[test]
    fn corrupt_frames_rejected() {
        let server = CollectionServer::new();
        let f = encode_frame(&record(1, 1));
        let mut raw = f.to_vec();
        let len = raw.len();
        raw[len - 5] ^= 0xFF;
        assert!(server.ingest(&Bytes::from(raw)).is_err());
        assert_eq!(server.stats().rejected, 1);
        assert!(server.is_empty());
    }

    /// Regression test: the error path must count exactly one frame and
    /// exactly one rejection per call (the old triple-locked version was
    /// easy to get wrong when editing).
    #[test]
    fn error_path_counts_exactly_once() {
        let server = CollectionServer::new();
        let bad = Bytes::from_static(&[0xFF; 7]);
        assert!(server.ingest(&bad).is_err());
        let expect = IngestStats { frames: 1, rejected: 1, ..IngestStats::default() };
        assert_eq!(server.stats(), expect);
        server.ingest(&encode_frame(&record(0, 0))).unwrap();
        let expect = IngestStats { frames: 2, rejected: 1, ..IngestStats::default() };
        assert_eq!(server.stats(), expect);
        // Batch path: same accounting.
        let server = CollectionServer::new();
        server.ingest_batch(vec![bad.clone(), encode_frame(&record(0, 0)), bad]);
        let expect = IngestStats { frames: 3, rejected: 2, ..IngestStats::default() };
        assert_eq!(server.stats(), expect);
    }

    /// The stored contents and statistics must be identical for every
    /// delivery order — records are keyed by (device, seq), so arrival
    /// order is a scheduling detail, not a semantic one.
    #[test]
    fn delivery_order_invariance() {
        let mut sorted = Vec::new();
        for d in 0..23u32 {
            for s in 0..17u32 {
                sorted.push(encode_frame(&record(d, s)));
            }
        }
        sorted.push(encode_frame(&record(3, 3)));
        sorted.push(encode_frame(&record(22, 16)));
        sorted.push(Bytes::from_static(&[0u8; 4]));
        // Shuffle deterministically: duplicates and the bad frame land
        // somewhere in the middle of the stream.
        let mut shuffled = sorted.clone();
        shuffled.sort_by_key(|f| f.len().wrapping_mul(2654435761) ^ f[f.len() / 2] as usize);
        assert_ne!(shuffled, sorted);

        let run = |frames: &[Bytes]| {
            let server = CollectionServer::new();
            for f in frames {
                let _ = server.ingest(f);
            }
            (server.stats(), server.into_records())
        };
        let (stats, records) = run(&sorted);
        assert_eq!(stats.duplicates, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(records.len(), 23 * 17);
        assert_eq!(run(&shuffled), (stats, records));
    }

    /// Batch ingest must agree exactly with frame-at-a-time ingest.
    #[test]
    fn batch_matches_individual() {
        let mut frames = Vec::new();
        for d in 0..9u32 {
            for s in 0..11u32 {
                frames.push(encode_frame(&record(d, s)));
            }
        }
        frames.push(encode_frame(&record(4, 4))); // duplicate
        frames.push(Bytes::from_static(&[1u8, 2, 3])); // bad

        let one_by_one = CollectionServer::new();
        for f in &frames {
            let _ = one_by_one.ingest(f);
        }
        let batched = CollectionServer::new();
        let stored = batched.ingest_batch(frames.clone());
        assert_eq!(stored, 9 * 11);
        assert_eq!(batched.stats(), one_by_one.stats());
        assert_eq!(batched.into_records(), one_by_one.into_records());
    }

    /// One contiguous upload buffer must store the same records as the
    /// same frames ingested one at a time.
    #[test]
    fn stream_matches_individual() {
        use crate::codec::encode_frame_into;
        let mut records = Vec::new();
        for d in 0..7u32 {
            for s in 0..13u32 {
                records.push(record(d, s));
            }
        }
        let one_by_one = CollectionServer::new();
        for r in &records {
            one_by_one.ingest(&encode_frame(r)).unwrap();
        }
        let mut buf = bytes::BytesMut::new();
        for r in &records {
            encode_frame_into(r, &mut buf);
        }
        let streamed = CollectionServer::new();
        assert_eq!(streamed.ingest_stream(buf.freeze()), records.len());
        assert_eq!(streamed.stats(), one_by_one.stats());
        assert_eq!(streamed.into_records(), one_by_one.into_records());
    }

    /// A corrupt frame mid-stream keeps the prefix and counts a rejection.
    #[test]
    fn stream_corruption_keeps_prefix() {
        use crate::codec::encode_frame_into;
        let mut buf = bytes::BytesMut::new();
        encode_frame_into(&record(0, 0), &mut buf);
        encode_frame_into(&record(0, 1), &mut buf);
        let cut = buf.len();
        encode_frame_into(&record(0, 2), &mut buf);
        let mut raw = buf.to_vec();
        raw[cut + 8] ^= 0x10;
        let server = CollectionServer::new();
        assert_eq!(server.ingest_stream(Bytes::from(raw)), 2);
        let expect = IngestStats { frames: 3, rejected: 1, ..IngestStats::default() };
        assert_eq!(server.stats(), expect);
    }

    #[test]
    fn concurrent_ingest() {
        let server = std::sync::Arc::new(CollectionServer::new());
        let mut handles = Vec::new();
        for d in 0..4u32 {
            let server = server.clone();
            handles.push(std::thread::spawn(move || {
                for s in 0..250u32 {
                    server.ingest(&encode_frame(&record(d, s))).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.len(), 1000);
        assert_eq!(server.stats().frames, 1000);
    }

    /// A crash empties the live store; recovery brings back exactly the
    /// pre-crash contents, and deliveries while down are lost and counted — the accounting the convergence proof leans on.
    #[test]
    fn crash_and_recover_replays_journal() {
        let server = CollectionServer::new();
        for d in 0..8u32 {
            for s in 0..20u32 {
                server.ingest(&encode_frame(&record(d, s))).unwrap();
            }
        }
        assert_eq!(server.len(), 160);
        server.crash();
        assert!(server.is_crashed());
        assert!(server.is_empty(), "crash wipes the live store");
        assert_eq!(server.len(), server.clone_records().len());
        // Deliveries while down are lost, not stored, not counted as frames.
        assert_eq!(server.ingest(&encode_frame(&record(0, 99))), Ok(false));
        server.ingest_batch(vec![encode_frame(&record(1, 99))]);
        assert_eq!(server.stats().lost_down, 2);
        assert_eq!(server.stats().frames, 160);

        server.recover();
        assert!(!server.is_crashed());
        assert_eq!(server.len(), 160, "journal replay restores every record");
        assert_eq!(server.len(), server.clone_records().len());
        // Re-delivered duplicates are still detected after recovery.
        assert_eq!(server.ingest(&encode_frame(&record(3, 3))), Ok(false));
        assert_eq!(server.stats().duplicates, 1);
        assert_eq!(server.stats().crashes, 1);

        // The recovered store is identical to a never-crashed reference.
        let reference = CollectionServer::new();
        for d in 0..8u32 {
            for s in 0..20u32 {
                reference.ingest(&encode_frame(&record(d, s))).unwrap();
            }
        }
        let n = server.len();
        let records = server.into_records();
        assert_eq!(records.len(), n);
        assert_eq!(records, reference.into_records());
    }

    /// A crash/recover cycle loses nothing, and neither does a second one.
    #[test]
    fn checkpoint_and_double_crash_keep_consistency() {
        let server = CollectionServer::new();
        for s in 0..4096 + 50 {
            server.ingest(&encode_frame(&record(s % 4, s / 4))).unwrap();
        }
        let before = server.len();
        server.crash();
        server.recover();
        assert_eq!(server.len(), before);
        server.crash();
        server.recover();
        assert_eq!(server.len(), before, "second crash cycle is also clean");
    }

    /// A crash while already down merges the outage's commits into the
    /// set-aside store instead of overwriting it, so one recovery brings
    /// back the records of both crashes.
    #[test]
    fn second_crash_merges_into_set_aside() {
        let server = CollectionServer::new();
        for s in 0..5u32 {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
        }
        server.crash();
        assert_eq!(server.store_batch(vec![record(1, 0), record(1, 1)]), 2);
        assert_eq!(server.len(), 2);
        server.crash();
        assert!(server.is_empty());
        server.recover();
        assert_eq!(server.len(), 7);
        assert_eq!(server.stats().crashes, 2);
        let keys: Vec<(u32, u32)> =
            server.into_records().iter().map(|r| (r.device.0, r.seq)).collect();
        let expect: Vec<(u32, u32)> = (0..5u32).map(|s| (0, s)).chain([(1, 0), (1, 1)]).collect();
        assert_eq!(keys, expect);
    }

    /// Where the set-aside store and the outage's commits hold the same
    /// (device, seq), recovery keeps the set-aside record: it was
    /// committed first. The replay batch carries the kept record.
    #[test]
    fn recover_keeps_the_earlier_commit() {
        let server = CollectionServer::new();
        let tap = server.attach_tap();
        server.ingest(&encode_frame(&record(0, 3))).unwrap();
        server.crash();
        let later = Record { battery_pct: 10, ..record(0, 3) };
        assert_eq!(server.store_batch(vec![later, record(0, 4)]), 2);
        server.recover();
        assert_eq!(server.len(), 2);
        let mut batches = Vec::new();
        tap.drain_into(&mut batches);
        let replay = batches.last().unwrap();
        assert!(replay.replay);
        let replayed: Vec<(u32, u8)> =
            replay.records.iter().map(|r| (r.seq, r.battery_pct)).collect();
        assert_eq!(replayed, vec![(3, 50), (4, 50)]);
        assert_eq!(server.into_records(), vec![record(0, 3), record(0, 4)]);
    }

    /// A drain empties the one queue: later publishes come out on the
    /// next drain, in order, and count as overflow only once the backlog
    /// builds up again.
    #[test]
    fn tap_drain_resets_backlog() {
        let server = CollectionServer::new();
        let tap = server.attach_tap();
        let bound = super::TAP_BACKLOG_BOUND as u32;
        for s in 0..bound + 1 {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
        }
        assert_eq!(tap.overflow(), 1);
        let mut first = Vec::new();
        tap.drain_into(&mut first);
        assert_eq!(first.len(), bound as usize + 1);
        for s in bound + 1..2 * bound + 1 {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
        }
        assert_eq!(tap.overflow(), 1, "a drained queue starts a fresh backlog");
        let mut second = Vec::new();
        tap.drain_into(&mut second);
        let seqs: Vec<u32> = second.iter().flat_map(|b| b.records.iter().map(|r| r.seq)).collect();
        assert_eq!(seqs, (bound + 1..2 * bound + 1).collect::<Vec<_>>());
        assert_eq!(tap.published(), 2 * bound as u64 + 1);
    }

    /// Every accepted record — frame, batch, or stream ingest — comes out
    /// of the tap exactly once; duplicates and corrupt frames never do.
    #[test]
    fn tap_publishes_each_accepted_record_once() {
        use crate::codec::encode_frame_into;
        let server = CollectionServer::new();
        let tap = server.attach_tap();

        server.ingest(&encode_frame(&record(0, 0))).unwrap();
        server.ingest(&encode_frame(&record(0, 0))).unwrap(); // duplicate
        let _ = server.ingest(&Bytes::from_static(&[0xFF; 7])); // corrupt
        server.ingest_batch(vec![
            encode_frame(&record(1, 0)),
            encode_frame(&record(0, 0)), // duplicate again
            encode_frame(&record(1, 1)),
        ]);
        let mut buf = bytes::BytesMut::new();
        encode_frame_into(&record(2, 0), &mut buf);
        encode_frame_into(&record(2, 1), &mut buf);
        server.ingest_stream(buf.freeze());

        let mut batches = Vec::new();
        tap.drain_into(&mut batches);
        let mut keys: Vec<(u32, u32)> =
            batches.iter().flat_map(|b| b.records.iter().map(|r| (r.device.0, r.seq))).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]);
        assert!(batches.iter().all(|b| !b.replay));
        assert_eq!(tap.published(), 5);
        assert_eq!(tap.discarded(), 0);
    }

    /// Past the backlog bound, publishes count as overflow instead of
    /// blocking — and a drain still yields every batch in publish order.
    #[test]
    fn tap_overflow_spills_and_preserves_order() {
        let server = CollectionServer::new();
        let tap = server.attach_tap();
        let n = super::TAP_BACKLOG_BOUND as u32 + 40;
        for s in 0..n {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
        }
        assert!(tap.overflow() > 0, "spill path must have engaged");
        assert_eq!(tap.published(), n as u64);
        let mut batches = Vec::new();
        tap.drain_into(&mut batches);
        let seqs: Vec<u32> = batches.iter().flat_map(|b| b.records.iter().map(|r| r.seq)).collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>(), "publish order survives the spill");
    }

    /// A crash discards what the consumer had not drained; recovery
    /// re-publishes the whole rebuilt store as replay batches, so a
    /// deduplicating consumer converges back to the server's contents.
    #[test]
    fn tap_crash_discards_then_recover_replays() {
        let server = CollectionServer::new();
        let tap = server.attach_tap();
        for s in 0..10u32 {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
        }
        // Consumer drains the first half of the stream...
        let mut drained = Vec::new();
        tap.drain_into(&mut drained);
        assert_eq!(drained.iter().map(|b| b.records.len()).sum::<usize>(), 10);
        // ...then five more land and the server dies before another drain.
        for s in 10..15u32 {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
        }
        server.crash();
        assert_eq!(tap.discarded(), 5, "undrained records die with the process");
        let mut lost = Vec::new();
        tap.drain_into(&mut lost);
        assert!(lost.is_empty());

        server.recover();
        let mut replays = Vec::new();
        tap.drain_into(&mut replays);
        assert!(!replays.is_empty() && replays.iter().all(|b| b.replay));
        // Dedup the replay against what was already held: the union is
        // exactly the server's store.
        let mut seen: std::collections::BTreeSet<u32> =
            drained.iter().flat_map(|b| b.records.iter().map(|r| r.seq)).collect();
        for b in &replays {
            for r in &b.records {
                seen.insert(r.seq);
            }
        }
        assert_eq!(seen.len(), server.len());
        assert_eq!(seen, (0..15u32).collect());
    }

    /// The soft limit flips `accepting` without rejecting in-flight
    /// deliveries — backpressure is advisory, agents do the waiting.
    #[test]
    fn soft_limit_backpressure() {
        let server = CollectionServer::new();
        server.set_soft_limit(5);
        for s in 0..4u32 {
            server.ingest(&encode_frame(&record(0, s))).unwrap();
            assert!(server.accepting());
        }
        for s in 4..10u32 {
            assert_eq!(server.ingest(&encode_frame(&record(0, s))), Ok(true));
        }
        assert!(server.overloaded());
        assert!(!server.accepting());
        assert_eq!(server.len(), 10, "in-flight deliveries still land");
        server.set_soft_limit(0);
        assert!(server.accepting(), "limit 0 disables backpressure");
    }
}
