//! Corruption must fail loudly with a typed [`PoolError`] — never UB,
//! never a panic: truncated files, flipped segment bytes, other format
//! versions, a header without a directory pointer, and (the property
//! tests at the end) any truncation or single-bit flip of the header, the
//! directory or any dataset segment, whether the stored hash catches it
//! or a miswritten pool hashes it as valid.

mod common;

use common::Scratch;
use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, Os,
    OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
};
use mobitrace_pool::format::{
    decode_directory, decode_header, encode_directory, encode_header, pool_hash, DirPtr, SegDesc,
    HEADER_LEN,
};
use mobitrace_pool::{kind, PoolError, PoolReader, PoolWriter};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn tiny_dataset() -> Dataset {
    let bins = (0..6u32)
        .map(|i| BinRecord {
            device: DeviceId(i % 2),
            time: SimTime::from_day_minute(i / 2, 30 * i),
            rx_3g: u64::from(i) * 11,
            tx_3g: 1,
            rx_lte: 2,
            tx_lte: 3,
            rx_wifi: 4,
            tx_wifi: 5,
            wifi: WifiBinState::OnUnassociated,
            scan: ScanSummary::default(),
            apps: vec![AppBin { category: AppCategory::ALL[0], rx_bytes: 9, tx_bytes: 2 }],
            geo: CellId::new(0, 0),
            os_version: OsVersion::new(4, 4),
        })
        .collect::<Vec<_>>();
    let mut bins = bins;
    bins.sort_by_key(|b| (b.device, b.time));
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2013,
            start: Year::Y2013.campaign_start(),
            days: 7,
            seed: 0,
        },
        devices: (0..2)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: Os::Android,
                carrier: Carrier::ALL[0],
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: vec![ApEntry { bssid: Bssid::from_u64(1), essid: Essid::new("ap") }],
        bins: DatasetColumns::build(&bins),
    }
}

fn scratch(tag: &str) -> Scratch {
    Scratch::new("mtpool-corrupt", tag)
}

/// Build a single-stream pool; returns its path.
fn build_pool(dir: &Path) -> PathBuf {
    let path = dir.join("c.mtpool");
    let ds = tiny_dataset();
    let index = DatasetIndex::build(&ds);
    let mut w = PoolWriter::replace(&path).expect("replace");
    w.append_dataset(0, &ds, &index).expect("append");
    w.finish().expect("finish");
    path
}

#[test]
fn truncated_header_is_typed() {
    let dir = scratch("trunc-header");
    let path = build_pool(&dir);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..64]).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::Truncated { what: "header", .. }) => {}
        other => panic!("expected header truncation, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn truncated_segments_are_typed() {
    let dir = scratch("trunc-seg");
    let path = build_pool(&dir);
    let bytes = std::fs::read(&path).unwrap();
    // Cut mid-data: the directory (last in the file) is gone, so the
    // header points past the end of the file.
    std::fs::write(&path, &bytes[..200]).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::Truncated { .. }) => {}
        other => panic!("expected truncation, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn flipped_segment_byte_is_checksum_mismatch() {
    let dir = scratch("bitflip");
    let path = build_pool(&dir);
    // Locate the COUNTERS segment via the intact pool, then flip one
    // byte inside its checksummed payload.
    let target = {
        let r = PoolReader::open(&path).expect("intact open");
        let seg = r
            .segments()
            .iter()
            .find(|s| s.kind == mobitrace_pool::kind::COUNTERS)
            .copied()
            .expect("counters segment present");
        seg.offset as usize + 8
    };
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[target] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let r = PoolReader::open(&path).expect("open still succeeds; payloads are lazy");
    match r.verify() {
        Err(PoolError::ChecksumMismatch { .. }) => {}
        other => panic!("expected checksum mismatch, got {:?}", other.map(|_| ())),
    }
    match r.decode_dataset(0) {
        Err(PoolError::ChecksumMismatch { .. }) => {}
        other => panic!("expected checksum mismatch on decode, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn future_version_is_rejected() {
    let dir = scratch("version");
    let path = build_pool(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&(mobitrace_pool::VERSION + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::BadVersion { found, supported }) => {
            assert_eq!(found, mobitrace_pool::VERSION + 1);
            assert_eq!(supported, mobitrace_pool::VERSION);
        }
        other => panic!("expected version rejection, got {:?}", other.map(|_| ())),
    }
}

/// Every version but the current one is refused: an older pool's
/// segments are encoded differently, so it must never reach this
/// decoder.
#[test]
fn older_version_is_rejected() {
    let dir = scratch("old-version");
    let path = build_pool(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    for old in 0..mobitrace_pool::VERSION {
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        match PoolReader::open(&path) {
            Err(PoolError::BadVersion { found, supported }) => {
                assert_eq!(found, old);
                assert_eq!(supported, mobitrace_pool::VERSION);
            }
            other => panic!("expected version {old} rejection, got {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let dir = scratch("magic");
    let path = build_pool(&dir);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::BadMagic) => {}
        other => panic!("expected bad magic, got {:?}", other.map(|_| ())),
    }
}

/// A pool with no segments (an empty checkpoint) opens cleanly with no
/// streams.
#[test]
fn empty_pool_reads_as_no_streams() {
    let dir = scratch("empty");
    let path = dir.join("e.mtpool");
    PoolWriter::replace(&path).expect("replace").finish().expect("finish");
    let r = PoolReader::open(&path).expect("open empty");
    assert!(r.segments().is_empty());
    assert!(r.dataset_streams().is_empty());
    match r.decode_dataset(0) {
        Err(PoolError::MissingSegment { .. }) => {}
        other => panic!("expected missing segment, got {:?}", other.map(|_| ())),
    }
}

/// A file that holds only a header is never an empty pool: without its
/// checksum it is a `ChecksumMismatch`, and with a valid checksum but no
/// directory pointer it is `Corrupt`.
#[test]
fn header_without_directory_pointer_is_typed() {
    let dir = scratch("bare-header");
    let path = dir.join("h.mtpool");
    let mut unsigned = [0u8; HEADER_LEN as usize];
    unsigned[..8].copy_from_slice(&mobitrace_pool::format::MAGIC);
    unsigned[8..12].copy_from_slice(&mobitrace_pool::VERSION.to_le_bytes());
    std::fs::write(&path, unsigned).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::ChecksumMismatch { .. }) => {}
        other => panic!("expected header checksum mismatch, got {:?}", other.map(|_| ())),
    }
    std::fs::write(&path, encode_header(DirPtr { off: 0, len: 0, hash: 0 })).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::Corrupt { .. }) => {}
        other => panic!("expected a corrupt directory pointer, got {:?}", other.map(|_| ())),
    }
}

/// A dataset that gives every encoded column something to carry:
/// associated rows with AP and RSSI deltas of both signs, busy scans,
/// several apps per row, negative geo cells, an OS change mid-device, an
/// empty device, and counters of every varint length.
fn rich_dataset() -> Dataset {
    let mut bins = Vec::new();
    for d in [0u32, 2, 3] {
        for i in 0..12u32 {
            bins.push(BinRecord {
                device: DeviceId(d),
                time: SimTime::from_day_bin(i / 5 + d, 7 * i % 144),
                rx_3g: u64::from(i) << (5 * i),
                tx_3g: u64::from(d * i),
                rx_lte: 0,
                tx_lte: u64::MAX >> i,
                rx_wifi: 1 << (i % 8 * 7),
                tx_wifi: 3,
                wifi: match (i + d) % 3 {
                    0 => WifiBinState::Off,
                    1 => WifiBinState::OnUnassociated,
                    _ => WifiBinState::Associated(WifiAssoc {
                        ap: ApRef((i * 7 + d) % 4),
                        band: if i % 2 == 0 { Band::Ghz5 } else { Band::Ghz24 },
                        channel: Channel(if i % 2 == 0 { 149 } else { 11 }),
                        rssi: Dbm::from_tenths(-300 - (i as i16 * 97) % 500),
                    }),
                },
                scan: ScanSummary {
                    n24_all: (i * 61 % 400) as u16,
                    n24_strong: i as u16,
                    n5_all: (i * 13 % 90) as u16,
                    n5_public_strong: (d + i) as u16 % 3,
                    ..ScanSummary::default()
                },
                apps: (0..(i + d) % 4)
                    .map(|k| AppBin {
                        category: AppCategory::ALL[(k + i) as usize % AppCategory::ALL.len()],
                        rx_bytes: u64::from(i) << (9 * k),
                        tx_bytes: u64::from(k) * 1000,
                    })
                    .collect(),
                geo: CellId::new(3 - i as i16 * 2, -(d as i16) - 40),
                os_version: OsVersion::new(8, if i < 7 { 4 } else { 9 }),
            });
        }
    }
    bins.sort_by_key(|b| (b.device, b.time));
    Dataset {
        meta: CampaignMeta {
            year: Year::Y2015,
            start: Year::Y2015.campaign_start(),
            days: 15,
            seed: 7,
        },
        devices: (0..4)
            .map(|i| DeviceInfo {
                device: DeviceId(i),
                os: if i == 2 { Os::Ios } else { Os::Android },
                carrier: Carrier::ALL[i as usize % 3],
                recruited: true,
                survey: None,
                truth: None,
            })
            .collect(),
        aps: (0..4)
            .map(|i| ApEntry {
                bssid: Bssid::from_u64(0xA0 + i),
                essid: Essid::new(if i == 3 { "0000docomo" } else { "home-net" }),
            })
            .collect(),
        bins: DatasetColumns::build(&bins),
    }
}

/// The intact image of a one-stream pool of [`rich_dataset`], built once.
fn rich_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let dir = scratch("rich-image");
        let path = dir.join("rich.mtpool");
        let ds = rich_dataset();
        let mut w = PoolWriter::replace(&path).expect("replace");
        w.append_dataset(0, &ds, &DatasetIndex::build(&ds)).expect("append");
        w.finish().expect("finish");
        std::fs::read(&path).expect("read image")
    })
}

/// The dataset segment kinds, each of which the property tests damage.
const DATASET_KINDS: [u16; 8] = [
    kind::META,
    kind::APS,
    kind::COUNTERS,
    kind::ROWMETA,
    kind::WIFI,
    kind::SCAN,
    kind::APPS,
    kind::INDEX,
];

/// The directory pointer and directory of a pool image.
fn published(image: &[u8]) -> (DirPtr, Vec<SegDesc>) {
    let ptr = decode_header(image).expect("intact header");
    let dir = &image[ptr.off as usize..(ptr.off + ptr.len) as usize];
    (ptr, decode_directory(dir).expect("intact directory"))
}

/// Write `image` to a fresh scratch file and return its path.
fn write_case(dir: &Path, image: &[u8]) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let path = dir.join(format!("case-{}.mtpool", CASE.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&path, image).expect("write case");
    path
}

/// Case count: 256 by default, raised through `PROPTEST_CASES` (the CI
/// pool gate runs an elevated-case step).
fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256)
}

/// One damage to one segment payload: keep only its first `at` bytes, or
/// flip bit `bit` of byte `at`.
#[derive(Debug, Clone, Copy)]
enum Damage {
    Truncate { at: usize },
    Flip { at: usize, bit: u8 },
}

fn damage_strategy() -> impl Strategy<Value = (u16, u64, u8, bool)> {
    ((0..DATASET_KINDS.len()).prop_map(|i| DATASET_KINDS[i]), any::<u64>(), 0u8..8, any::<bool>())
}

/// Resolve a sampled damage against segment `seg`.
fn damage_of(seg: &SegDesc, pick: u64, bit: u8, truncate: bool) -> Damage {
    let at = (pick % seg.len.max(1)) as usize;
    if truncate {
        Damage::Truncate { at }
    } else {
        Damage::Flip { at, bit }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(), ..ProptestConfig::default() })]

    /// With the stored hash in place, any damage to any dataset segment
    /// is caught: a cut file is `Truncated` at open (the directory lives
    /// past every segment), a flipped bit is a `ChecksumMismatch` on
    /// decode.
    #[test]
    fn damaged_segment_with_stored_hash_is_typed(
        (k, pick, bit, truncate) in damage_strategy(),
    ) {
        let image = rich_image();
        let (_, segs) = published(image);
        let seg = *segs.iter().find(|s| s.kind == k).expect("segment present");
        let dir = scratch("stored-hash");
        let mut bytes = image.to_vec();
        match damage_of(&seg, pick, bit, truncate) {
            Damage::Truncate { at } => {
                bytes.truncate(seg.offset as usize + at);
                let path = write_case(&dir, &bytes);
                match PoolReader::open(&path) {
                    Err(PoolError::Truncated { .. }) => {}
                    other => panic!("kind {k} cut at {at}: {:?}", other.map(|_| ())),
                }
            }
            Damage::Flip { at, bit } => {
                bytes[seg.offset as usize + at] ^= 1 << bit;
                let path = write_case(&dir, &bytes);
                let r = PoolReader::open(&path).expect("payloads are checked lazily");
                match r.decode_dataset(0) {
                    Err(PoolError::ChecksumMismatch { .. }) => {}
                    other => panic!("kind {k} flip at {at}: {:?}", other.map(|_| ())),
                }
            }
        }
    }

    /// A miswritten pool — the damage hashed as if it were the real
    /// payload — never panics the decoder: it is a typed `Corrupt` or
    /// `Truncated`, or a dataset that validates and whose index and
    /// columns are exactly the ones its rows build.
    #[test]
    fn miswritten_segment_never_panics_the_decoder(
        (k, pick, bit, truncate) in damage_strategy(),
    ) {
        let image = rich_image();
        let (mut ptr, mut segs) = published(image);
        let i = segs.iter().position(|s| s.kind == k).expect("segment present");
        let mut bytes = image.to_vec();
        let seg = &mut segs[i];
        let start = seg.offset as usize;
        match damage_of(seg, pick, bit, truncate) {
            Damage::Truncate { at } => seg.len = at as u64,
            Damage::Flip { at, bit } => bytes[start + at] ^= 1 << bit,
        }
        seg.hash = pool_hash(&bytes[start..start + seg.len as usize]);
        // Re-publish the same directory range with the rewritten hash.
        let dir_bytes = encode_directory(&segs);
        let dir_off = ptr.off as usize;
        bytes[dir_off..dir_off + dir_bytes.len()].copy_from_slice(&dir_bytes);
        ptr.hash = pool_hash(&dir_bytes);
        bytes[..HEADER_LEN as usize].copy_from_slice(&encode_header(ptr));

        let dir = scratch("miswritten");
        let path = write_case(&dir, &bytes);
        let r = PoolReader::open(&path).expect("a miswritten pool opens");
        match r.decode_dataset(0) {
            Err(PoolError::Corrupt { .. } | PoolError::Truncated { .. }) => {}
            Ok(pd) => {
                prop_assert!(pd.ds.validate().is_ok());
                prop_assert_eq!(&pd.ds.bins, &DatasetColumns::build(&pd.ds.bins.to_bins()));
                prop_assert_eq!(&pd.index, &DatasetIndex::build(&pd.ds));
            }
            Err(other) => panic!("kind {k}: untyped failure {other:?}"),
        }
        drop(r);
    }

    /// Any truncation or single-bit flip in the header or the directory
    /// fails the open with a typed error, so nothing is ever decoded
    /// from it: a cut anywhere is `Truncated` (the directory is last in
    /// the file), a flip is `BadMagic` in the magic, `BadVersion` in the
    /// version, and a `ChecksumMismatch` of the header or the directory
    /// anywhere else.
    #[test]
    fn damaged_header_or_directory_is_typed(
        pick in any::<u64>(),
        bit in 0u8..8,
        in_directory in any::<bool>(),
        truncate in any::<bool>(),
    ) {
        let image = rich_image();
        let (ptr, _) = published(image);
        let at = if in_directory {
            (ptr.off + pick % ptr.len) as usize
        } else {
            (pick % HEADER_LEN) as usize
        };
        let mut bytes = image.to_vec();
        let dir = scratch("header-dir");
        if truncate {
            bytes.truncate(at);
        } else {
            bytes[at] ^= 1 << bit;
        }
        let path = write_case(&dir, &bytes);
        match (PoolReader::open(&path), truncate, at) {
            (Err(PoolError::Truncated { .. }), true, _) => {}
            (Err(PoolError::BadMagic), false, 0..8) => {}
            (Err(PoolError::BadVersion { .. }), false, 8..12) => {}
            (Err(PoolError::ChecksumMismatch { .. }), false, 12..) => {}
            (other, _, _) => panic!("damage at {at} (cut {truncate}): {:?}", other.map(|_| ())),
        }
    }
}

/// The damage the property tests draw from exists: the rich pool decodes
/// intact, and every dataset kind is present and non-empty.
#[test]
fn rich_pool_roundtrips_intact() {
    let image = rich_image();
    let (_, segs) = published(image);
    for k in DATASET_KINDS {
        assert!(segs.iter().any(|s| s.kind == k && s.len > 0), "kind {k} missing or empty");
    }
    let dir = scratch("rich-intact");
    let path = write_case(&dir, image);
    let pd = PoolReader::open(&path).unwrap().decode_dataset(0).unwrap();
    let ds = rich_dataset();
    assert_eq!(pd.ds, ds);
    assert_eq!(pd.ds.bins, ds.bins);
    assert_eq!(pd.index, DatasetIndex::build(&ds));
}
