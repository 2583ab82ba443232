//! The frame writer against the encoder it replaced.
//!
//! `oracle` is a frozen copy of the `BytesMut` encoder (`encode_payload`
//! and `encode_frame_dict_into` with their field pushes, the tail-encode
//! and header shift, and the `String`-keyed dictionary). `encode_frame`,
//! `encode_frame_into` and `encode_batch` must write its bytes exactly:
//! for every WiFi state, for ESSIDs up to the 1024-byte limit, for payloads
//! either side of the 127/128 and 16383/16384 header-varint boundaries,
//! and for batches with more distinct ESSIDs than the dictionary holds.

use bytes::BytesMut;
use mobitrace_collector::{encode_batch, encode_frame, encode_frame_into};
use mobitrace_model::{
    AppCategory, AppCounter, AssocInfo, Band, Bssid, CellId, Channel, CounterSnapshot, Dbm,
    DeviceId, Essid, Os, OsVersion, Record, ScanSummary, SimTime, TrafficCounters, WifiState,
};
use proptest::prelude::*;

/// The replaced encoder, verbatim but for its `pub` entry points.
mod oracle {
    use bytes::{BufMut, BytesMut};
    use mobitrace_collector::codec::{crc32, MAGIC, VERSION};
    use mobitrace_model::{Band, Os, Record, TrafficCounters, WifiState};
    use std::collections::HashMap;

    const ESSID_DICT_CAP: usize = 4096;

    #[derive(Debug, Default)]
    pub struct EssidDict {
        indices: HashMap<String, u32>,
    }

    fn put_varint(buf: &mut BytesMut, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                buf.put_u8(byte);
                return;
            }
            buf.put_u8(byte | 0x80);
        }
    }

    fn put_string(buf: &mut BytesMut, s: &str) {
        put_varint(buf, s.len() as u64);
        buf.put_slice(s.as_bytes());
    }

    fn put_counters(buf: &mut BytesMut, c: &TrafficCounters) {
        put_varint(buf, c.rx_bytes);
        put_varint(buf, c.tx_bytes);
        put_varint(buf, c.rx_pkts);
        put_varint(buf, c.tx_pkts);
    }

    fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    fn encode_payload(r: &Record, payload: &mut BytesMut, mut dict: Option<&mut EssidDict>) {
        put_varint(payload, u64::from(r.device.0));
        payload.put_u8(match r.os {
            Os::Android => 0,
            Os::Ios => 1,
        });
        put_varint(payload, u64::from(r.seq));
        put_varint(payload, u64::from(r.time.minute));
        put_varint(payload, u64::from(r.boot_epoch));
        put_counters(payload, &r.counters.cell3g);
        put_counters(payload, &r.counters.lte);
        put_counters(payload, &r.counters.wifi);
        match &r.wifi {
            WifiState::Off => payload.put_u8(0),
            WifiState::OnUnassociated => payload.put_u8(1),
            WifiState::Associated(a) => {
                payload.put_u8(2);
                payload.put_slice(&a.bssid.0);
                match dict.as_deref_mut().and_then(|d| d.indices.get(a.essid.as_str()).copied()) {
                    Some(idx) => put_varint(payload, u64::from(idx) + 1),
                    None => {
                        put_varint(payload, 0);
                        put_string(payload, a.essid.as_str());
                        if let Some(d) = dict {
                            if d.indices.len() < ESSID_DICT_CAP {
                                let idx = d.indices.len() as u32;
                                d.indices.insert(a.essid.as_str().to_owned(), idx);
                            }
                        }
                    }
                }
                payload.put_u8(match a.band {
                    Band::Ghz24 => 0,
                    Band::Ghz5 => 1,
                });
                payload.put_u8(a.channel.0);
                put_varint(payload, zigzag(i64::from((a.rssi.as_f64() * 10.0) as i32)));
            }
        }
        for n in [
            r.scan.n24_all,
            r.scan.n24_strong,
            r.scan.n5_all,
            r.scan.n5_strong,
            r.scan.n24_public_all,
            r.scan.n24_public_strong,
            r.scan.n5_public_all,
            r.scan.n5_public_strong,
        ] {
            put_varint(payload, u64::from(n));
        }
        put_varint(payload, r.apps.len() as u64);
        for app in &r.apps {
            payload.put_u8(app.category.index() as u8);
            put_counters(payload, &app.counters);
        }
        put_varint(payload, zigzag(i64::from(r.geo.x)));
        put_varint(payload, zigzag(i64::from(r.geo.y)));
        payload.put_u8(r.battery_pct);
        payload.put_u8(u8::from(r.tethering));
        payload.put_u8(r.os_version.major);
        payload.put_u8(r.os_version.minor);
    }

    pub fn encode_frame_dict_into(r: &Record, out: &mut BytesMut, dict: Option<&mut EssidDict>) {
        let mark = out.len();
        encode_payload(r, out, dict);
        let payload_len = out.len() - mark;
        let crc = crc32(&out[mark..]);
        let mut hdr = [0u8; 12];
        hdr[..4].copy_from_slice(&MAGIC);
        hdr[4] = VERSION;
        let mut hdr_len = 5;
        let mut v = payload_len as u64;
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                hdr[hdr_len] = byte;
                hdr_len += 1;
                break;
            }
            hdr[hdr_len] = byte | 0x80;
            hdr_len += 1;
        }
        out.resize(mark + hdr_len + payload_len, 0);
        out.copy_within(mark..mark + payload_len, mark + hdr_len);
        out[mark..mark + hdr_len].copy_from_slice(&hdr[..hdr_len]);
        out.put_u32(crc);
    }

    /// A standalone (always inline) frame.
    pub fn frame(r: &Record) -> Vec<u8> {
        let mut out = BytesMut::new();
        encode_frame_dict_into(r, &mut out, None);
        out.to_vec()
    }

    /// A batch sharing one dictionary.
    pub fn batch(records: &[Record]) -> Vec<u8> {
        let mut out = BytesMut::new();
        let mut dict = EssidDict::default();
        for r in records {
            encode_frame_dict_into(r, &mut out, Some(&mut dict));
        }
        out.to_vec()
    }
}

/// Width of `v` as a varint.
fn varint_width(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The smallest value whose varint is `w` bytes wide.
fn of_width(w: usize) -> u64 {
    if w == 1 {
        0
    } else {
        1 << (7 * (w - 1))
    }
}

/// The payload length in an oracle frame's header.
fn payload_len(frame: &[u8]) -> usize {
    let mut len = 0;
    for (i, &b) in frame[5..].iter().enumerate() {
        len |= usize::from(b & 0x7F) << (7 * i);
        if b & 0x80 == 0 {
            break;
        }
    }
    len
}

/// Replace `r.apps` with entries that make the payload exactly `target`
/// bytes long; `false` (apps cleared) when the rest of the record is
/// already too long. An entry is a category byte and four counters, so it
/// spans 5..=41 bytes as its counters' varints widen.
fn pad_to(r: &mut Record, target: usize) -> bool {
    r.apps.clear();
    // Everything but the one-byte app count of the empty list.
    let base = payload_len(&oracle::frame(r)) - 1;
    for n in 0usize.. {
        let Some(room) = target.checked_sub(base + varint_width(n as u64)) else {
            return false;
        };
        if room < 5 * n {
            return false;
        }
        if room > 41 * n {
            continue;
        }
        // Widen counters one byte at a time, up to 10 bytes each.
        let mut extra = room - 5 * n;
        let mut width = || {
            let w = 1 + extra.min(9);
            extra -= w - 1;
            of_width(w)
        };
        r.apps = (0..n)
            .map(|i| AppCounter {
                category: AppCategory::ALL[i % AppCategory::ALL.len()],
                counters: TrafficCounters {
                    rx_bytes: width(),
                    tx_bytes: width(),
                    rx_pkts: width(),
                    tx_pkts: width(),
                },
            })
            .collect();
        return true;
    }
    unreachable!("the loop returns once n apps can no longer fit")
}

/// An ASCII ESSID of exactly `len` bytes.
fn essid(len: usize, seed: usize) -> Essid {
    Essid::new((0..len).map(|i| char::from(b'a' + ((seed + 7 * i) % 26) as u8)).collect::<String>())
}

/// A value of any varint width: `v` with its top `shift` bits cleared.
fn any_width() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
}

fn counters() -> impl Strategy<Value = TrafficCounters> {
    (any_width(), any_width(), any_width(), any_width()).prop_map(|(a, b, c, d)| TrafficCounters {
        rx_bytes: a,
        tx_bytes: b,
        rx_pkts: c,
        tx_pkts: d,
    })
}

/// ESSIDs of `len` bytes, `len` drawn from `lens`.
fn essids(lens: impl Strategy<Value = usize>) -> impl Strategy<Value = Essid> {
    (lens, 0usize..26).prop_map(|(len, seed)| essid(len, seed))
}

/// Any record; an associated one carries an ESSID drawn from `essids`.
fn record(essids: impl Strategy<Value = Essid>) -> impl Strategy<Value = Record> {
    let head = (any::<u32>(), any::<bool>(), any::<u32>(), any::<u32>(), any::<u16>());
    let traffic = (counters(), counters(), counters());
    let wifi = (0u8..3, any::<u64>(), any::<bool>(), any::<u8>(), -2000i32..200, essids);
    let apps = proptest::collection::vec((0..AppCategory::ALL.len(), counters()), 0..6);
    let tail = (
        proptest::array::uniform8(any::<u16>()),
        (any::<i16>(), any::<i16>()),
        (any::<u8>(), any::<bool>(), any::<u8>(), any::<u8>()),
    );
    (head, traffic, wifi, apps, tail).prop_map(move |(head, traffic, wifi, apps, tail)| {
        let (device, ios, seq, minute, boot_epoch) = head;
        let (tag, mac, five, channel, tenths, essid) = wifi;
        let ([a, b, c, d, e, f, g, h], (x, y), (battery_pct, tethering, major, minor)) = tail;
        Record {
            device: DeviceId(device),
            os: if ios { Os::Ios } else { Os::Android },
            seq,
            time: SimTime::from_minutes(minute),
            boot_epoch,
            counters: CounterSnapshot { cell3g: traffic.0, lte: traffic.1, wifi: traffic.2 },
            wifi: match tag {
                0 => WifiState::Off,
                1 => WifiState::OnUnassociated,
                _ => WifiState::Associated(AssocInfo {
                    bssid: Bssid::from_u64(mac),
                    essid,
                    band: if five { Band::Ghz5 } else { Band::Ghz24 },
                    channel: Channel(channel),
                    rssi: Dbm::from_f64(f64::from(tenths) / 10.0),
                }),
            },
            scan: ScanSummary {
                n24_all: a,
                n24_strong: b,
                n5_all: c,
                n5_strong: d,
                n24_public_all: e,
                n24_public_strong: f,
                n5_public_all: g,
                n5_public_strong: h,
            },
            apps: apps
                .into_iter()
                .map(|(k, counters)| AppCounter { category: AppCategory::ALL[k], counters })
                .collect(),
            geo: CellId::new(x, y),
            battery_pct,
            tethering,
            os_version: OsVersion::new(major, minor),
        }
    })
}

/// `encode_frame` and `encode_frame_into` (appending to a dirty buffer)
/// both write the oracle's standalone frame.
fn assert_frame_matches(r: &Record) {
    let want = oracle::frame(r);
    assert_eq!(encode_frame(r).to_vec(), want, "encode_frame");
    let mut out = BytesMut::from(b"dirty prefix".to_vec());
    encode_frame_into(r, &mut out);
    assert_eq!(&out[..12], b"dirty prefix");
    assert_eq!(out[12..].to_vec(), want, "encode_frame_into");
}

/// `encode_batch` writes the oracle's dictionary stream, after whatever
/// `out` already held.
fn assert_batch_matches(records: &[Record]) {
    let want = oracle::batch(records);
    let mut out = BytesMut::new();
    assert_eq!(encode_batch(records, &mut out), records.len());
    assert!(out[..] == want[..], "encode_batch of {} records", records.len());
    let mut out = BytesMut::from(vec![0xA5; 3]);
    encode_batch(records, &mut out);
    assert!(out[..3] == [0xA5; 3] && out[3..] == want[..], "encode_batch after a prefix");
}

/// A small Android record at `k`, WiFi off.
fn plain(k: u32) -> Record {
    Record {
        device: DeviceId(9),
        os: Os::Android,
        seq: k,
        time: SimTime::from_minutes(10 * k),
        boot_epoch: 0,
        counters: CounterSnapshot::default(),
        wifi: WifiState::Off,
        scan: ScanSummary::default(),
        apps: Vec::new(),
        geo: CellId::new(1, 2),
        battery_pct: 50,
        tethering: false,
        os_version: OsVersion::new(4, 4),
    }
}

/// A payload length to pad to (either side of a header-varint width
/// boundary), or none.
fn pad_target() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (126usize..130).prop_map(Some), (16382usize..16386).prop_map(Some)]
}

#[test]
fn header_varint_boundaries_are_exact() {
    let mut r = plain(3);
    for (target, width) in [(127, 1), (128, 2), (129, 2), (16383, 2), (16384, 3), (16385, 3)] {
        assert!(pad_to(&mut r, target), "payload of {target} B reachable");
        let frame = oracle::frame(&r);
        assert_eq!(payload_len(&frame), target);
        assert_eq!(frame.len(), 5 + width + target + 4, "{target} B payload");
        assert_frame_matches(&r);
        assert_batch_matches(&[r.clone(), r.clone()]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frames_match_the_oracle(
        r in record(essids(prop_oneof![Just(1024usize), 0usize..=1024, 0usize..=16])),
        target in pad_target(),
    ) {
        let mut r = r;
        if let Some(target) = target {
            pad_to(&mut r, target);
        }
        assert_frame_matches(&r);
    }

    #[test]
    fn batches_match_the_oracle(
        records in proptest::collection::vec(record(essids(0usize..4)), 1..12),
        target in pad_target(),
    ) {
        let mut records = records;
        if let Some(target) = target {
            pad_to(&mut records[0], target);
        }
        assert_batch_matches(&records);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Past 4,096 distinct ESSIDs the dictionary stops growing: later new
    /// names stay inline, and revisits reference only indexed names.
    #[test]
    fn batches_past_the_dictionary_cap_match_the_oracle(
        distinct in 4097u32..4400,
        revisits in proptest::collection::vec(0u32..4400, 1..400),
    ) {
        let at = |k: u32| Record {
            wifi: WifiState::Associated(AssocInfo {
                bssid: Bssid::from_u64(u64::from(k)),
                essid: Essid::new(format!("ap-{k}")),
                band: Band::Ghz24,
                channel: Channel(1),
                rssi: Dbm::new(-60),
            }),
            ..plain(k)
        };
        let records: Vec<Record> =
            (0..distinct).chain(revisits.iter().map(|v| v % distinct)).map(at).collect();
        assert_batch_matches(&records);
    }
}
