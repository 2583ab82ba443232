//! Corruption must fail loudly with a typed [`PoolError`] — never UB,
//! never a panic: truncated files, flipped segment bytes, other format
//! versions, torn directory publications, and (the property tests at the
//! end) any truncation or single-bit flip of any dataset segment, whether
//! the stored hash catches it or a miswritten pool hashes it as valid.

use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, Os,
    OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
};
use mobitrace_pool::format::{
    decode_directory, decode_slot, encode_directory, encode_slot, pool_hash, SegDesc, SlotState,
    SLOT_LEN, SLOT_OFFSETS,
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
        bins,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtpool-corrupt-{}-{:?}-{tag}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Build a committed single-stream pool; returns its path.
fn build_pool(dir: &Path, commits: u32) -> PathBuf {
    let path = dir.join("c.mtpool");
    let ds = tiny_dataset();
    let index = DatasetIndex::build(&ds);
    let cols = DatasetColumns::build(&ds);
    let mut w = PoolWriter::create(&path).expect("create");
    w.append_dataset(0, &ds, &index, &cols).expect("append");
    w.commit().expect("commit");
    for extra in 1..commits {
        w.append_raw(mobitrace_pool::kind::RAW, extra as u16, 0, b"tail").expect("raw append");
        w.commit().expect("recommit");
    }
    drop(w);
    path
}

#[test]
fn truncated_header_is_typed() {
    let dir = scratch("trunc-header");
    let path = build_pool(&dir, 1);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..64]).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::Truncated { what: "header", .. }) => {}
        other => panic!("expected header truncation, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_segments_are_typed() {
    let dir = scratch("trunc-seg");
    let path = build_pool(&dir, 1);
    let bytes = std::fs::read(&path).unwrap();
    // Cut mid-data: the directory (written last) is gone, so the slot
    // points past the end of the file.
    std::fs::write(&path, &bytes[..200]).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::Truncated { .. }) => {}
        other => panic!("expected truncation, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_segment_byte_is_checksum_mismatch() {
    let dir = scratch("bitflip");
    let path = build_pool(&dir, 1);
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
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn future_version_is_rejected() {
    let dir = scratch("version");
    let path = build_pool(&dir, 1);
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
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every version but the current one is refused: an older pool's
/// segments are encoded differently, so it must never reach this
/// decoder.
#[test]
fn older_version_is_rejected() {
    let dir = scratch("old-version");
    let path = build_pool(&dir, 1);
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
        // The appender adopts a pool through the same header check.
        assert!(matches!(PoolWriter::open_append(&path), Err(PoolError::BadVersion { .. })));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_magic_is_rejected() {
    let dir = scratch("magic");
    let path = build_pool(&dir, 1);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::BadMagic) => {}
        other => panic!("expected bad magic, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn write of the *newest* slot falls back to the previous epoch:
/// the older publication's directory bytes are append-only and intact.
#[test]
fn torn_newest_slot_falls_back_to_previous_epoch() {
    let dir = scratch("torn-fallback");
    let path = build_pool(&dir, 2); // epochs 1 and 2 published
    let mut bytes = std::fs::read(&path).unwrap();
    // Epoch 2 lives in slot B (offset 56): scribble over it mid-write.
    bytes[60] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let r = PoolReader::open(&path).expect("fallback open");
    assert_eq!(r.epoch(), 1, "should adopt the surviving epoch");
    r.decode_dataset(0).expect("epoch-1 contents intact");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Both slots torn: nothing to fall back to — loud typed error.
#[test]
fn torn_both_slots_is_typed() {
    let dir = scratch("torn-both");
    let path = build_pool(&dir, 2);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[20] ^= 0xFF; // slot A body
    bytes[60] ^= 0xFF; // slot B body
    std::fs::write(&path, &bytes).unwrap();
    match PoolReader::open(&path) {
        Err(PoolError::TornDirectory) => {}
        other => panic!("expected torn directory, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An empty (never-published) pool opens cleanly with no streams.
#[test]
fn empty_pool_reads_as_no_streams() {
    let dir = scratch("empty");
    let path = dir.join("e.mtpool");
    drop(PoolWriter::create(&path).expect("create"));
    let r = PoolReader::open(&path).expect("open empty");
    assert_eq!(r.epoch(), 0);
    assert!(r.dataset_streams().is_empty());
    match r.decode_dataset(0) {
        Err(PoolError::MissingSegment { .. }) => {}
        other => panic!("expected missing segment, got {:?}", other.map(|_| ())),
    }
    let _ = std::fs::remove_dir_all(&dir);
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
        bins,
    }
}

/// The intact image of a one-stream pool of [`rich_dataset`], built once.
fn rich_image() -> &'static [u8] {
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let dir = scratch("rich-image");
        let path = dir.join("rich.mtpool");
        let ds = rich_dataset();
        let mut w = PoolWriter::create(&path).expect("create");
        w.append_dataset(0, &ds, &DatasetIndex::build(&ds), &DatasetColumns::build(&ds))
            .expect("append");
        w.commit().expect("commit");
        drop(w);
        let image = std::fs::read(&path).expect("read image");
        let _ = std::fs::remove_dir_all(&dir);
        image
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

/// The published slot offset and directory of a pool image.
fn published(image: &[u8]) -> (usize, Vec<SegDesc>) {
    let (off, slot) = SLOT_OFFSETS
        .iter()
        .filter_map(|&off| match decode_slot(&image[off as usize..off as usize + SLOT_LEN]) {
            SlotState::Valid(s) => Some((off as usize, s)),
            _ => None,
        })
        .max_by_key(|(_, s)| s.epoch)
        .expect("a published slot");
    let dir = &image[slot.dir_off as usize..(slot.dir_off + slot.dir_len) as usize];
    (off, decode_directory(dir).expect("intact directory"))
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
        let _ = std::fs::remove_dir_all(&dir);
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
        let (slot_off, mut segs) = published(image);
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
        let SlotState::Valid(mut slot) = decode_slot(&bytes[slot_off..slot_off + SLOT_LEN]) else {
            unreachable!("published slot is valid")
        };
        let dir_bytes = encode_directory(&segs);
        let dir_off = slot.dir_off as usize;
        bytes[dir_off..dir_off + dir_bytes.len()].copy_from_slice(&dir_bytes);
        slot.dir_hash = pool_hash(&dir_bytes);
        bytes[slot_off..slot_off + SLOT_LEN].copy_from_slice(&encode_slot(&slot));

        let dir = scratch("miswritten");
        let path = write_case(&dir, &bytes);
        let r = PoolReader::open(&path).expect("a miswritten pool opens");
        match r.decode_dataset(0) {
            Err(PoolError::Corrupt { .. } | PoolError::Truncated { .. }) => {}
            Ok(pd) => {
                prop_assert!(pd.ds.validate().is_ok());
                prop_assert_eq!(&pd.cols, &DatasetColumns::build(&pd.ds));
                prop_assert_eq!(&pd.index, &DatasetIndex::build(&pd.ds));
            }
            Err(other) => panic!("kind {k}: untyped failure {other:?}"),
        }
        drop(r);
        let _ = std::fs::remove_dir_all(&dir);
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
    assert_eq!(pd.cols, DatasetColumns::build(&ds));
    assert_eq!(pd.index, DatasetIndex::build(&ds));
    let _ = std::fs::remove_dir_all(&dir);
}
