//! Writer-side fault injection through the `shim` module: injected
//! ENOSPC, short writes, fsync errors and transient blips must surface
//! (or be retried) exactly as specified, and a failed replace must
//! leave the target pool untouched and readable — for raw payloads and
//! for dataset streams written by the column encoder alike.

use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, Os,
    OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
};
use mobitrace_pool::shim::{IoOp, PoolIoShim, Verdict};
use mobitrace_pool::{kind, PoolError, PoolReader, PoolWriter};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtpool-faults-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Fails the `at`-th operation matching `pred` with `make()`, once.
struct FailNth<F, P> {
    ops: AtomicU64,
    at: u64,
    fired: AtomicU64,
    make: F,
    pred: P,
}

impl<F, P> PoolIoShim for FailNth<F, P>
where
    F: Fn() -> Verdict + Send + Sync,
    P: Fn(IoOp) -> bool + Send + Sync,
{
    fn check(&self, op: IoOp) -> Verdict {
        if !(self.pred)(op) {
            return Verdict::Proceed;
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.at {
            self.fired.fetch_add(1, Ordering::SeqCst);
            return (self.make)();
        }
        Verdict::Proceed
    }
}

fn fail_nth(
    at: u64,
    pred: impl Fn(IoOp) -> bool + Send + Sync + 'static,
    make: impl Fn() -> Verdict + Send + Sync + 'static,
) -> Arc<FailNth<impl Fn() -> Verdict + Send + Sync, impl Fn(IoOp) -> bool + Send + Sync>> {
    Arc::new(FailNth { ops: AtomicU64::new(0), at, fired: AtomicU64::new(0), make, pred })
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(28) // ENOSPC
}

/// Build a small committed pool at `path` under `shim`.
fn build(path: &Path, shim: Option<Arc<dyn PoolIoShim>>) -> Result<u64, PoolError> {
    let mut w = PoolWriter::replace_with(path, shim)?;
    w.append_raw(kind::RAW, 0, 3, b"payload-bytes")?;
    w.finish()
}

/// Every op fails with Interrupted on its first attempt; the retry (a
/// fresh `check` call) proceeds.
struct FlakyOnce {
    last: Mutex<Option<IoOp>>,
    injected: AtomicU64,
}

impl PoolIoShim for FlakyOnce {
    fn check(&self, op: IoOp) -> Verdict {
        let mut last = self.last.lock().unwrap();
        if *last == Some(op) {
            *last = None;
            Verdict::Proceed
        } else {
            *last = Some(op);
            self.injected.fetch_add(1, Ordering::SeqCst);
            Verdict::Fail(io::Error::new(io::ErrorKind::Interrupted, "blip"))
        }
    }
}

fn flaky_once() -> Arc<FlakyOnce> {
    Arc::new(FlakyOnce { last: Mutex::new(None), injected: AtomicU64::new(0) })
}

/// A small dataset whose stream fills every encoded segment kind.
fn small_dataset() -> Dataset {
    let mut bins = Vec::new();
    for d in 0..3u32 {
        for i in 0..6u32 {
            bins.push(BinRecord {
                device: DeviceId(d),
                time: SimTime::from_day_bin(i / 3, 11 * i + d),
                rx_3g: u64::from(i) << 20,
                tx_3g: 0,
                rx_lte: u64::from(d),
                tx_lte: 9,
                rx_wifi: 1 << 40,
                tx_wifi: 0,
                wifi: if i % 2 == 0 {
                    WifiBinState::Associated(WifiAssoc {
                        ap: ApRef(d % 2),
                        band: Band::Ghz24,
                        channel: Channel(6),
                        rssi: Dbm::new(-50 - i as i16),
                    })
                } else {
                    WifiBinState::Off
                },
                scan: ScanSummary { n24_all: 40 + i as u16, ..ScanSummary::default() },
                apps: vec![
                    AppBin { category: AppCategory::ALL[1], rx_bytes: 500, tx_bytes: 7 };
                    d as usize
                ],
                geo: CellId::new(-2, i as i16),
                os_version: OsVersion::new(5, 1),
            });
        }
    }
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2014,
            start: Year::Y2014.campaign_start(),
            days: 5,
            seed: 1,
        },
        devices: (0..3)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: Os::Android,
                carrier: Carrier::ALL[0],
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: (0..2)
            .map(|i| ApEntry { bssid: Bssid::from_u64(40 + i), essid: Essid::new("cafe") })
            .collect(),
        bins,
    }
}

/// Replace `path` with a pool holding [`small_dataset`] as stream 0,
/// under `shim`.
fn build_dataset(path: &Path, shim: Option<Arc<dyn PoolIoShim>>) -> Result<u64, PoolError> {
    let ds = small_dataset();
    let mut w = PoolWriter::replace_with(path, shim)?;
    w.append_dataset(0, &ds, &DatasetIndex::build(&ds), &DatasetColumns::build(&ds))?;
    w.finish()
}

/// Number of segments one dataset stream writes.
const DATASET_SEGMENTS: u64 = 8;

#[test]
fn enospc_on_segment_write_fails_and_preserves_target() {
    let dir = scratch("enospc");
    let path = dir.join("p.mtpool");
    build(&path, None).expect("baseline pool");
    let before = std::fs::read(&path).unwrap();

    // Op 2 is the first segment write (op 1 is the header).
    let shim = fail_nth(2, |op| op.is_write(), || Verdict::Fail(enospc()));
    let err = build(&path, Some(shim.clone())).expect_err("injected ENOSPC must surface");
    match err {
        PoolError::Io(e) => assert_eq!(e.raw_os_error(), Some(28)),
        other => panic!("expected Io(ENOSPC), got {other:?}"),
    }
    assert_eq!(shim.fired.load(Ordering::SeqCst), 1);
    // The replace never renamed: target bytes are untouched and readable.
    assert_eq!(std::fs::read(&path).unwrap(), before);
    PoolReader::open(&path).expect("target still a valid pool");
    // The abandoned temp sibling was cleaned up on drop.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp sibling not cleaned: {leftovers:?}");
}

#[test]
fn short_write_on_directory_is_loud_not_silent() {
    let dir = scratch("short");
    let path = dir.join("p.mtpool");
    // Fail the 3rd write (the directory, after header + segment) short.
    let shim = fail_nth(3, |op| op.is_write(), || Verdict::ShortWrite(4));
    let err = build(&path, Some(shim)).expect_err("short write must error");
    match err {
        PoolError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::WriteZero),
        other => panic!("expected Io(WriteZero), got {other:?}"),
    }
    assert!(!path.exists(), "failed replace must not install the target");
}

#[test]
fn fsync_error_propagates_from_every_sync_point() {
    // Sync points in a replace: header SyncData, commit SyncData x2,
    // pre-rename SyncAll, post-rename DirSync. Each must be loud.
    for at in 1..=5u64 {
        let dir = scratch(&format!("fsync{at}"));
        let path = dir.join("p.mtpool");
        let shim = fail_nth(
            at,
            |op| op.is_sync(),
            || Verdict::Fail(io::Error::other("injected fsync failure")),
        );
        let err =
            build(&path, Some(shim.clone())).expect_err("injected fsync failure must propagate");
        assert!(matches!(err, PoolError::Io(_)), "sync point {at}: {err:?}");
        assert_eq!(shim.fired.load(Ordering::SeqCst), 1, "sync point {at} never reached");
    }
}

#[test]
fn dir_fsync_failure_after_rename_surfaces_but_target_is_installed() {
    let dir = scratch("dirsync");
    let path = dir.join("p.mtpool");
    let shim = fail_nth(
        1,
        |op| op == IoOp::DirSync,
        || Verdict::Fail(io::Error::other("injected dir fsync failure")),
    );
    let err = build(&path, Some(shim)).expect_err("dir fsync failure must surface");
    assert!(matches!(err, PoolError::Io(_)));
    // The rename already happened: the new pool is installed and valid,
    // only its directory entry's durability is in question.
    let r = PoolReader::open(&path).expect("renamed pool is readable");
    assert_eq!(r.segments().len(), 1);
}

#[test]
fn transient_errors_are_retried_once_and_succeed() {
    let dir = scratch("transient");
    let path = dir.join("p.mtpool");
    let shim = flaky_once();
    build(&path, Some(shim.clone())).expect("transient blips are absorbed by retry-once");
    assert!(shim.injected.load(Ordering::SeqCst) >= 5, "faults were actually injected");
    let r = PoolReader::open(&path).expect("pool readable after flaky build");
    assert_eq!(r.segments().len(), 1);
}

#[test]
fn persistent_transient_error_still_fails_after_one_retry() {
    let dir = scratch("persistent");
    let path = dir.join("p.mtpool");
    struct AlwaysInterrupted(AtomicU64);
    impl PoolIoShim for AlwaysInterrupted {
        fn check(&self, op: IoOp) -> Verdict {
            if op.is_write() {
                self.0.fetch_add(1, Ordering::SeqCst);
                Verdict::Fail(io::Error::new(io::ErrorKind::Interrupted, "stuck"))
            } else {
                Verdict::Proceed
            }
        }
    }
    let shim = Arc::new(AlwaysInterrupted(AtomicU64::new(0)));
    let err = build(&path, Some(shim.clone())).expect_err("persistent failure surfaces");
    assert!(matches!(err, PoolError::Io(ref e) if e.kind() == io::ErrorKind::Interrupted));
    // Exactly two attempts on the first (header) write: original + retry.
    assert_eq!(shim.0.load(Ordering::SeqCst), 2);
}

/// ENOSPC on any encoded dataset segment's write fails the replace and
/// leaves the previous dataset pool in place, decoding as before.
#[test]
fn enospc_on_any_dataset_segment_preserves_target() {
    let dir = scratch("enospc-dataset");
    let path = dir.join("d.mtpool");
    build_dataset(&path, None).expect("baseline pool");
    let before = std::fs::read(&path).unwrap();
    // Write 1 is the header; the stream's segments are writes 2..=9.
    for at in 2..=DATASET_SEGMENTS + 1 {
        let shim = fail_nth(at, |op| op.is_write(), || Verdict::Fail(enospc()));
        let err = build_dataset(&path, Some(shim.clone())).expect_err("ENOSPC must surface");
        assert!(matches!(err, PoolError::Io(ref e) if e.raw_os_error() == Some(28)), "{err:?}");
        assert_eq!(shim.fired.load(Ordering::SeqCst), 1, "write {at} never reached");
        assert_eq!(std::fs::read(&path).unwrap(), before, "write {at} touched the target");
    }
    let pd = PoolReader::open(&path).unwrap().decode_dataset(0).expect("target decodes");
    assert_eq!(pd.ds, small_dataset());
}

/// A short write inside an encoded segment is loud, and a replace that
/// fails that way never installs its target.
#[test]
fn short_dataset_segment_write_is_loud() {
    let dir = scratch("short-dataset");
    let path = dir.join("d.mtpool");
    let shim = fail_nth(4, |op| op.is_write(), || Verdict::ShortWrite(3));
    let err = build_dataset(&path, Some(shim)).expect_err("short write must error");
    assert!(matches!(err, PoolError::Io(ref e) if e.kind() == io::ErrorKind::WriteZero));
    assert!(!path.exists(), "failed replace must not install the target");
}

/// Transient blips on every op of a dataset build are absorbed by the
/// retry, and the encoded stream decodes to the dataset written.
#[test]
fn transient_blips_during_dataset_build_still_decode() {
    let dir = scratch("transient-dataset");
    let path = dir.join("d.mtpool");
    let shim = flaky_once();
    build_dataset(&path, Some(shim.clone())).expect("blips are retried");
    assert!(shim.injected.load(Ordering::SeqCst) > DATASET_SEGMENTS, "faults were injected");
    let r = PoolReader::open(&path).expect("pool readable after flaky build");
    r.verify().expect("every segment verifies");
    assert_eq!(r.decode_dataset(0).expect("decode").ds, small_dataset());
}
