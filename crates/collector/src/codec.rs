//! Binary wire format for agent uploads.
//!
//! One frame carries one [`Record`]:
//!
//! ```text
//! +------+-----+-------------+---------+-------+
//! | MTRC | ver | payload_len | payload | crc32 |
//! +------+-----+-------------+---------+-------+
//!   4 B    1 B     varint       n B       4 B
//! ```
//!
//! The payload encodes integers as LEB128 varints and strings with a
//! varint length prefix. The CRC-32 (IEEE, slicing-by-16: sixteen
//! 256-entry tables fold sixteen bytes per step) covers the payload; the
//! server rejects frames whose checksum fails (the transport may corrupt
//! bytes in flight).
//!
//! Encoding goes through one private frame writer that pushes each field
//! onto a plain `Vec<u8>`: [`encode_frame`], [`encode_frame_into`] and
//! [`encode_batch`] all call it, a caller's `BytesMut` lending its storage.
//!
//! Decoding parses the borrowed byte slice in place through one private
//! bounds-checked cursor: the payload is a sub-slice of the upload, an
//! ESSID is read as `&str` and allocated only the first time a stream's
//! table sees it, and the caller's [`Bytes`] advances once per frame.
//! Frames are untrusted input, so the decoder never panics and never
//! narrows silently:
//!
//! - a `payload_len` (or string length) larger than the bytes that remain
//!   is [`CodecError::Truncated`] — a length is compared with what remains
//!   before anything is sliced, never added to, so no value can wrap past
//!   the check;
//! - a varint wider than its field (device, seq and minute are `u32`,
//!   boot epoch and scan counts `u16`, geo cells `i16`) is
//!   [`CodecError::Malformed`] rather than a truncated value. The encoder
//!   never emits one, so every valid stream decodes as before;
//! - a 10-byte varint whose last byte sets anything above bit 63 is
//!   `Malformed("varint too long")`, not a value with those bits shifted
//!   out.
//!
//! Version 2 adds a **per-stream ESSID dictionary**: within one contiguous
//! upload buffer ([`encode_batch`] → [`decode_batch_into`]) each distinct
//! ESSID is written inline once and referenced by index afterwards. The
//! reference is a varint tag in front of the string slot — `0` means an
//! inline string follows (and is appended to the stream's table), `n > 0`
//! means entry `n - 1` of the table. Standalone frames always inline
//! (tag 0), so they stay self-contained under lossy frame-at-a-time
//! delivery, and version-1 frames (no tag at all) still decode.

use bytes::{Buf, Bytes, BytesMut};
use mobitrace_model::{
    AppCategory, AppCounter, AssocInfo, Band, Bssid, CellId, Channel, CounterSnapshot, Dbm,
    DeviceId, Essid, Os, OsVersion, Record, ScanSummary, SimTime, TrafficCounters, WifiState,
};
use std::collections::{HashMap, HashSet};

/// Frame magic bytes.
pub const MAGIC: [u8; 4] = *b"MTRC";
/// Wire format version.
pub const VERSION: u8 = 2;
/// Oldest version the decoder still accepts.
pub const MIN_VERSION: u8 = 1;

/// Bound on per-stream dictionary size. Encoder and decoder apply the
/// identical rule (grow only while under the cap), so their tables stay
/// index-for-index aligned; strings past the cap are simply inlined.
const ESSID_DICT_CAP: usize = 4096;

/// Encoder half of the per-stream ESSID dictionary: ESSID → index of its
/// first (inline) occurrence in the stream. A key shares the record's
/// `Arc<str>` (a reference-count bump, never a new string).
#[derive(Debug, Default)]
pub struct EssidDict {
    indices: HashMap<Essid, u32>,
}

/// Decoder half of the per-stream ESSID dictionary. `table` mirrors the
/// encoder's index assignment; `interner` dedups the backing `Arc<str>`
/// across every frame decoded through the same table, so a stream of
/// records at one AP shares a single allocation server-side.
#[derive(Debug, Default)]
pub struct EssidTable {
    table: Vec<Essid>,
    interner: HashSet<Essid>,
}

impl EssidTable {
    fn intern(&mut self, s: &str, inline_in_stream: bool) -> Essid {
        let essid = match self.interner.get(s) {
            Some(e) => e.clone(),
            None => {
                let e = Essid::new(s);
                self.interner.insert(e.clone());
                e
            }
        };
        // Mirror the encoder: every inline occurrence below the cap claims
        // the next index (the encoder never inlines a string it already
        // indexed, so the two tables agree entry for entry).
        if inline_in_stream && self.table.len() < ESSID_DICT_CAP {
            self.table.push(essid.clone());
        }
        essid
    }
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Frame does not start with the magic bytes.
    BadMagic,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Frame shorter than its header claims.
    Truncated,
    /// CRC mismatch (corrupted in flight).
    BadChecksum,
    /// Payload structure invalid (bad enum tag, overlong varint, …).
    Malformed(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::Truncated => write!(f, "truncated frame"),
            CodecError::BadChecksum => write!(f, "checksum mismatch"),
            CodecError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// CRC-32 (IEEE 802.3), slicing-by-16.
///
/// Table `k` holds the CRC of a byte followed by `k` zero bytes, so one
/// step XORs sixteen independent lookups to fold sixteen input bytes; the
/// sub-16-byte tail runs the classic byte-at-a-time loop over table 0.
/// Polynomial, initial value and final XOR are the standard ones.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 16]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *e = c;
        }
        for k in 1..16 {
            let (done, rest) = t.split_at_mut(k);
            for (e, &prev) in rest[0].iter_mut().zip(&done[k - 1]) {
                *e = (prev >> 8) ^ done[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let word = |b: &[u8]| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for b in &mut blocks {
        // Byte `i` of the block is followed by `15 - i` more.
        let (lo, hi) = (u64::from(crc) ^ word(&b[..8]), word(&b[8..]));
        crc = (0..8).fold(0, |acc, j| {
            acc ^ t[15 - j][((lo >> (8 * j)) & 0xFF) as usize]
                ^ t[7 - j][((hi >> (8 * j)) & 0xFF) as usize]
        });
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Bounds-checked read cursor over one borrowed frame or payload: the
/// unread bytes. Every read either lands in range or returns
/// [`CodecError::Truncated`], so untrusted bytes cannot drive it out of
/// bounds.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.0.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let (&b, rest) = self.0.split_first().ok_or(CodecError::Truncated)?;
        self.0 = rest;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for (i, &byte) in self.0.iter().take(10).enumerate() {
            // The 10th byte carries bit 63 only; anything above it would
            // be shifted out, silently narrowing the value.
            if i == 9 && byte > 0x01 {
                return Err(CodecError::Malformed("varint too long"));
            }
            v |= u64::from(byte & 0x7F) << (7 * i);
            if byte & 0x80 == 0 {
                self.0 = &self.0[i + 1..];
                return Ok(v);
            }
        }
        Err(if self.0.len() < 10 {
            CodecError::Truncated
        } else {
            CodecError::Malformed("varint too long")
        })
    }

    /// A varint that must fit the field type `T`; wider values are
    /// `Malformed(what)`, never truncated.
    fn varint_as<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        T::try_from(self.varint()?).map_err(|_| CodecError::Malformed(what))
    }

    /// A zig-zag varint that must fit an `i16` geo cell coordinate.
    fn cell_coord(&mut self) -> Result<i16, CodecError> {
        i16::try_from(unzigzag(self.varint()?))
            .map_err(|_| CodecError::Malformed("geo cell out of range"))
    }

    fn counters(&mut self) -> Result<TrafficCounters, CodecError> {
        Ok(TrafficCounters {
            rx_bytes: self.varint()?,
            tx_bytes: self.varint()?,
            rx_pkts: self.varint()?,
            tx_pkts: self.varint()?,
        })
    }

    fn string(&mut self) -> Result<&'a str, CodecError> {
        let len = self.varint()?;
        if len > 1024 {
            return Err(CodecError::Malformed("string too long"));
        }
        std::str::from_utf8(self.take(len as usize)?)
            .map_err(|_| CodecError::Malformed("invalid utf-8"))
    }
}

/// Zig-zag encode a signed value.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append `v` as a LEB128 varint (seven bits per byte, low group first).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_counters(buf: &mut Vec<u8>, c: &TrafficCounters) {
    for v in [c.rx_bytes, c.tx_bytes, c.rx_pkts, c.tx_pkts] {
        put_varint(buf, v);
    }
}

/// The crate's one encoder: append the frame of `r` to `buf`. The
/// payload-length slot is reserved as two bytes (the varint width of a
/// 128..16384 B payload) and the payload written behind it, so only a
/// shorter or longer payload moves, once, to close or widen the slot.
pub(crate) fn write_frame(r: &Record, buf: &mut Vec<u8>, mut dict: Option<&mut EssidDict>) {
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&[0, 0]);
    let start = buf.len();
    put_varint(buf, u64::from(r.device.0));
    buf.push(match r.os {
        Os::Android => 0,
        Os::Ios => 1,
    });
    put_varint(buf, u64::from(r.seq));
    put_varint(buf, u64::from(r.time.minute));
    put_varint(buf, u64::from(r.boot_epoch));
    put_counters(buf, &r.counters.cell3g);
    put_counters(buf, &r.counters.lte);
    put_counters(buf, &r.counters.wifi);
    match &r.wifi {
        WifiState::Off => buf.push(0),
        WifiState::OnUnassociated => buf.push(1),
        WifiState::Associated(a) => {
            buf.push(2);
            buf.extend_from_slice(&a.bssid.0);
            match dict.as_deref_mut().and_then(|d| d.indices.get(a.essid.as_str()).copied()) {
                Some(idx) => put_varint(buf, u64::from(idx) + 1),
                None => {
                    buf.push(0); // tag 0: the string follows inline
                    put_varint(buf, a.essid.as_str().len() as u64);
                    buf.extend_from_slice(a.essid.as_str().as_bytes());
                    if let Some(d) = dict {
                        if d.indices.len() < ESSID_DICT_CAP {
                            let idx = d.indices.len() as u32;
                            d.indices.insert(a.essid.clone(), idx);
                        }
                    }
                }
            }
            buf.push(match a.band {
                Band::Ghz24 => 0,
                Band::Ghz5 => 1,
            });
            buf.push(a.channel.0);
            put_varint(buf, zigzag(i64::from((a.rssi.as_f64() * 10.0) as i32)));
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
        put_varint(buf, u64::from(n));
    }
    put_varint(buf, r.apps.len() as u64);
    for app in &r.apps {
        buf.push(app.category.index() as u8);
        put_counters(buf, &app.counters);
    }
    put_varint(buf, zigzag(i64::from(r.geo.x)));
    put_varint(buf, zigzag(i64::from(r.geo.y)));
    buf.extend_from_slice(&[
        r.battery_pct,
        u8::from(r.tethering),
        r.os_version.major,
        r.os_version.minor,
    ]);

    let len = buf.len() - start;
    let crc = crc32(&buf[start..]);
    match len {
        0..=0x7F => {
            buf.remove(start - 1);
            buf[start - 2] = len as u8;
        }
        0x80..=0x3FFF => {
            buf[start - 2] = len as u8 | 0x80;
            buf[start - 1] = (len >> 7) as u8;
        }
        _ => {
            let mut slot = Vec::with_capacity(5);
            put_varint(&mut slot, len as u64);
            buf.splice(start - 2..start, slot);
        }
    }
    buf.extend_from_slice(&crc.to_be_bytes());
}

/// Append one framed record to `out`. The frame writer appends straight
/// to `out`'s storage, with no intermediate buffer, so a caller framing
/// many records into one buffer reuses its capacity. Carve a frame out
/// with `Bytes::copy_from_slice` and `clear()`: the vendored
/// `BytesMut::split` hands over the whole allocation.
pub fn encode_frame_into(r: &Record, out: &mut BytesMut) {
    encode_frame_dict_into(r, out, None);
}

/// [`encode_frame_into`] with an optional per-stream ESSID dictionary:
/// with `Some(dict)`, an ESSID already seen through the same dictionary is
/// written as an index instead of the string. Frames encoded this way only
/// decode through a [`decode_batch_into`]-style pass sharing one
/// [`EssidTable`] — use `None` (always inline) for frames delivered
/// individually over a lossy transport.
pub fn encode_frame_dict_into(r: &Record, out: &mut BytesMut, dict: Option<&mut EssidDict>) {
    let mut buf = Vec::from(std::mem::take(out));
    write_frame(r, &mut buf, dict);
    *out = BytesMut::from(buf);
}

/// Encode one record into a framed byte buffer.
pub fn encode_frame(r: &Record) -> Bytes {
    let mut buf = Vec::with_capacity(208);
    write_frame(r, &mut buf, None);
    Bytes::from(buf)
}

/// Encode many records back-to-back into `out`, returning the number of
/// frames appended. The batch shares one ESSID dictionary — repeated
/// ESSIDs are written as indexes — so the concatenation decodes with
/// [`decode_batch_into`] (which replays the table); it is *not* safe to
/// slice the output into individually-delivered frames.
pub fn encode_batch<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    out: &mut BytesMut,
) -> usize {
    let mut dict = EssidDict::default();
    let mut buf = Vec::from(std::mem::take(out));
    let mut n = 0;
    for r in records {
        write_frame(r, &mut buf, Some(&mut dict));
        n += 1;
    }
    *out = BytesMut::from(buf);
    n
}

/// Decode one framed record.
pub fn decode_frame(frame: &Bytes) -> Result<Record, CodecError> {
    read_frame(&mut Cursor(frame), None)
}

/// Decode one framed record, interning ESSIDs through `table` (shared
/// across the frames of one delivery so equal ESSIDs share one `Arc<str>`).
pub fn decode_frame_with(frame: &Bytes, table: &mut EssidTable) -> Result<Record, CodecError> {
    read_frame(&mut Cursor(frame), Some(table))
}

/// Decode one frame from the front of `buf`, consuming exactly that frame
/// and leaving any following bytes in place — the streaming primitive for
/// back-to-back frame concatenations ([`encode_batch`] output). On error
/// `buf` is left partially consumed; the stream cannot be resynchronised
/// past a bad frame because frame lengths live inside the frames.
pub fn decode_frame_from(buf: &mut Bytes) -> Result<Record, CodecError> {
    decode_frame_from_with(buf, None)
}

/// [`decode_frame_from`] with an optional shared ESSID table (the decoder
/// half of the per-stream dictionary; also interns inline strings).
pub fn decode_frame_from_with(
    buf: &mut Bytes,
    table: Option<&mut EssidTable>,
) -> Result<Record, CodecError> {
    let chunk = buf.chunk();
    let mut c = Cursor(chunk);
    let res = read_frame(&mut c, table);
    let consumed = chunk.len() - c.0.len();
    buf.advance(consumed);
    res
}

/// Decode a concatenation of frames, appending the records to `out`
/// (reusing its capacity across batches). Returns the number of records
/// appended, or the first error — `out` then still holds every record
/// decoded before the bad frame, and the rest of the stream is lost.
pub fn decode_batch_into(buf: &mut Bytes, out: &mut Vec<Record>) -> Result<usize, CodecError> {
    let mut table = EssidTable::default();
    let mut n = 0;
    while buf.has_remaining() {
        out.push(decode_frame_from_with(buf, Some(&mut table))?);
        n += 1;
    }
    Ok(n)
}

/// Parse one frame off the front of `c`: header, bounded payload slice,
/// checksum, then the payload fields.
fn read_frame(c: &mut Cursor<'_>, table: Option<&mut EssidTable>) -> Result<Record, CodecError> {
    if c.0.len() < 5 {
        return Err(CodecError::Truncated);
    }
    if c.array::<4>()? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = c.u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CodecError::BadVersion(version));
    }
    // `take` bounds the untrusted length against what remains, so even a
    // length near `u64::MAX` is `Truncated` rather than a wrapped check.
    let len = usize::try_from(c.varint()?).unwrap_or(usize::MAX);
    let payload = c.take(len)?;
    let crc = u32::from_be_bytes(c.array()?);
    if crc != crc32(payload) {
        return Err(CodecError::BadChecksum);
    }
    parse_payload(&mut Cursor(payload), version, table)
}

fn parse_payload(
    p: &mut Cursor<'_>,
    version: u8,
    mut table: Option<&mut EssidTable>,
) -> Result<Record, CodecError> {
    let device = DeviceId(p.varint_as("device id out of range")?);
    let os = match p.u8()? {
        0 => Os::Android,
        1 => Os::Ios,
        _ => return Err(CodecError::Malformed("os tag")),
    };
    let seq = p.varint_as("sequence number out of range")?;
    let time = SimTime::from_minutes(p.varint_as("minute out of range")?);
    let boot_epoch = p.varint_as("boot epoch out of range")?;
    let counters =
        CounterSnapshot { cell3g: p.counters()?, lte: p.counters()?, wifi: p.counters()? };
    let wifi = match p.u8()? {
        0 => WifiState::Off,
        1 => WifiState::OnUnassociated,
        2 => {
            let mac = p.array()?;
            // v1: bare string. v2: varint tag — 0 = inline string (claims
            // the next table index), n > 0 = table entry n − 1.
            let tag = if version < 2 { 0 } else { p.varint()? };
            let essid = match tag {
                0 => match table.as_deref_mut() {
                    Some(t) => t.intern(p.string()?, version >= 2),
                    None => Essid::new(p.string()?),
                },
                n => table
                    .and_then(|t| t.table.get(usize::try_from(n - 1).ok()?).cloned())
                    .ok_or(CodecError::Malformed("essid dictionary reference"))?,
            };
            let band = match p.u8()? {
                0 => Band::Ghz24,
                1 => Band::Ghz5,
                _ => return Err(CodecError::Malformed("band tag")),
            };
            let channel = Channel(p.u8()?);
            let rssi = Dbm::from_f64(unzigzag(p.varint()?) as f64 / 10.0);
            WifiState::Associated(AssocInfo { bssid: Bssid(mac), essid, band, channel, rssi })
        }
        _ => return Err(CodecError::Malformed("wifi tag")),
    };
    let mut scan = ScanSummary::default();
    for slot in [
        &mut scan.n24_all,
        &mut scan.n24_strong,
        &mut scan.n5_all,
        &mut scan.n5_strong,
        &mut scan.n24_public_all,
        &mut scan.n24_public_strong,
        &mut scan.n5_public_all,
        &mut scan.n5_public_strong,
    ] {
        *slot = p.varint_as("scan count out of range")?;
    }
    let n_apps = p.varint()?;
    if n_apps > 64 {
        return Err(CodecError::Malformed("too many app entries"));
    }
    let mut apps = Vec::with_capacity(n_apps as usize);
    for _ in 0..n_apps {
        let cat = AppCategory::from_index(usize::from(p.u8()?))
            .ok_or(CodecError::Malformed("app category"))?;
        apps.push(AppCounter { category: cat, counters: p.counters()? });
    }
    let geo = CellId::new(p.cell_coord()?, p.cell_coord()?);
    let battery_pct = p.u8()?;
    let tethering = p.u8()? != 0;
    let os_version = OsVersion::new(p.u8()?, p.u8()?);

    Ok(Record {
        device,
        os,
        seq,
        time,
        boot_epoch,
        counters,
        wifi,
        scan,
        apps,
        geo,
        battery_pct,
        tethering,
        os_version,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_record(seq: u32) -> Record {
        let mut counters = CounterSnapshot::default();
        counters.lte.add(mobitrace_model::ByteCount::mb(3), mobitrace_model::ByteCount::kb(500));
        Record {
            device: DeviceId(42),
            os: Os::Android,
            seq,
            time: SimTime::from_day_minute(3, 620),
            boot_epoch: 1,
            counters,
            wifi: WifiState::Associated(AssocInfo {
                bssid: Bssid::from_u64(0xBEEF),
                essid: Essid::new("aterm-12ab34"),
                band: Band::Ghz24,
                channel: Channel(6),
                rssi: Dbm::new(-57),
            }),
            scan: ScanSummary {
                n24_all: 9,
                n24_strong: 3,
                n5_all: 2,
                n5_strong: 1,
                n24_public_all: 4,
                n24_public_strong: 1,
                n5_public_all: 1,
                n5_public_strong: 0,
            },
            apps: vec![AppCounter {
                category: AppCategory::Video,
                counters: TrafficCounters {
                    rx_bytes: 2_000_000,
                    tx_bytes: 60_000,
                    rx_pkts: 2000,
                    tx_pkts: 300,
                },
            }],
            geo: CellId::new(14, -2),
            battery_pct: 88,
            tethering: false,
            os_version: OsVersion::new(4, 4),
        }
    }

    #[test]
    fn roundtrip_typical_record() {
        let r = sample_record(7);
        let frame = encode_frame(&r);
        let back = decode_frame(&frame).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn roundtrip_minimal_record() {
        let r = Record {
            device: DeviceId(0),
            os: Os::Ios,
            seq: 0,
            time: SimTime::ZERO,
            boot_epoch: 0,
            counters: CounterSnapshot::default(),
            wifi: WifiState::Off,
            scan: ScanSummary::default(),
            apps: vec![],
            geo: CellId::new(0, 0),
            battery_pct: 0,
            tethering: true,
            os_version: OsVersion::new(8, 1),
        };
        assert_eq!(decode_frame(&encode_frame(&r)).unwrap(), r);
    }

    #[test]
    fn corrupted_payload_detected() {
        let frame = encode_frame(&sample_record(1));
        for pos in [8usize, 15, frame.len() / 2, frame.len() - 6] {
            let mut raw = frame.to_vec();
            raw[pos] ^= 0x40;
            let res = decode_frame(&Bytes::from(raw));
            assert!(res.is_err(), "flip at {pos} went undetected");
        }
    }

    #[test]
    fn corrupted_magic_and_version() {
        let frame = encode_frame(&sample_record(2));
        let mut raw = frame.to_vec();
        raw[0] = b'X';
        assert_eq!(decode_frame(&Bytes::from(raw)), Err(CodecError::BadMagic));
        let mut raw = frame.to_vec();
        raw[4] = 9;
        assert_eq!(decode_frame(&Bytes::from(raw)), Err(CodecError::BadVersion(9)));
    }

    #[test]
    fn truncated_frame_detected() {
        let frame = encode_frame(&sample_record(3));
        for cut in [0usize, 4, 10, frame.len() - 1] {
            let raw = Bytes::copy_from_slice(&frame[..cut]);
            assert!(decode_frame(&raw).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn encode_into_matches_standalone() {
        // Appending to a dirty, non-empty buffer must produce the same
        // bytes as the allocating encoder, at the append position.
        let r = sample_record(9);
        let standalone = encode_frame(&r);
        let mut out = BytesMut::from(b"prefix".to_vec());
        encode_frame_into(&r, &mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &standalone[..]);
    }

    #[test]
    fn batch_roundtrip() {
        let records: Vec<Record> = (0..50).map(sample_record).collect();
        let mut out = BytesMut::new();
        assert_eq!(encode_batch(&records, &mut out), 50);
        let mut stream = out.freeze();
        let mut back = Vec::new();
        assert_eq!(decode_batch_into(&mut stream, &mut back), Ok(50));
        assert!(!stream.has_remaining());
        assert_eq!(back, records);
    }

    #[test]
    fn frame_from_leaves_remainder() {
        let a = sample_record(1);
        let b = sample_record(2);
        let mut out = BytesMut::new();
        encode_frame_into(&a, &mut out);
        let first_len = out.len();
        encode_frame_into(&b, &mut out);
        let mut stream = out.freeze();
        assert_eq!(decode_frame_from(&mut stream).unwrap(), a);
        assert_eq!(stream.remaining(), first_len, "second frame intact");
        assert_eq!(decode_frame_from(&mut stream).unwrap(), b);
        assert!(!stream.has_remaining());
    }

    #[test]
    fn batch_stops_at_corrupt_frame() {
        let records: Vec<Record> = (0..5).map(sample_record).collect();
        let mut out = BytesMut::new();
        let mut third_starts = 0;
        for (i, r) in records.iter().enumerate() {
            if i == 2 {
                third_starts = out.len();
            }
            encode_frame_into(r, &mut out);
        }
        let mut raw = out.to_vec();
        raw[third_starts + 10] ^= 0x20; // corrupt inside frame 2's payload
        let mut stream = Bytes::from(raw);
        let mut back = Vec::new();
        assert!(decode_batch_into(&mut stream, &mut back).is_err());
        assert_eq!(back[..], records[..2], "records before the bad frame survive");
    }

    /// Encode one record as a version-1 frame (no ESSID tag byte) — the
    /// historical format the decoder must keep accepting.
    fn encode_frame_v1(r: &Record) -> Bytes {
        let mut payload = Vec::new();
        put_varint(&mut payload, u64::from(r.device.0));
        payload.push(match r.os {
            Os::Android => 0,
            Os::Ios => 1,
        });
        put_varint(&mut payload, u64::from(r.seq));
        put_varint(&mut payload, u64::from(r.time.minute));
        put_varint(&mut payload, u64::from(r.boot_epoch));
        put_counters(&mut payload, &r.counters.cell3g);
        put_counters(&mut payload, &r.counters.lte);
        put_counters(&mut payload, &r.counters.wifi);
        match &r.wifi {
            WifiState::Off => payload.push(0),
            WifiState::OnUnassociated => payload.push(1),
            WifiState::Associated(a) => {
                payload.push(2);
                payload.extend_from_slice(&a.bssid.0);
                put_varint(&mut payload, a.essid.as_str().len() as u64);
                payload.extend_from_slice(a.essid.as_str().as_bytes());
                payload.push(match a.band {
                    Band::Ghz24 => 0,
                    Band::Ghz5 => 1,
                });
                payload.push(a.channel.0);
                put_varint(&mut payload, zigzag(i64::from((a.rssi.as_f64() * 10.0) as i32)));
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
            put_varint(&mut payload, u64::from(n));
        }
        put_varint(&mut payload, r.apps.len() as u64);
        for app in &r.apps {
            payload.push(app.category.index() as u8);
            put_counters(&mut payload, &app.counters);
        }
        put_varint(&mut payload, zigzag(i64::from(r.geo.x)));
        put_varint(&mut payload, zigzag(i64::from(r.geo.y)));
        payload.extend_from_slice(&[
            r.battery_pct,
            u8::from(r.tethering),
            r.os_version.major,
            r.os_version.minor,
        ]);

        frame_of(1, &payload)
    }

    /// Frame an arbitrary payload under `version` with a correct length
    /// and checksum, so the payload parser itself is what gets tested.
    fn frame_of(version: u8, payload: &[u8]) -> Bytes {
        let mut out = MAGIC.to_vec();
        out.push(version);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_be_bytes());
        Bytes::from(out)
    }

    #[test]
    fn v1_frames_still_decode() {
        for r in [sample_record(5), {
            let mut r = sample_record(6);
            r.wifi = WifiState::Off;
            r
        }] {
            let frame = encode_frame_v1(&r);
            assert_eq!(frame[4], 1, "v1 header version byte");
            assert_eq!(decode_frame(&frame).unwrap(), r);
            // And through a batch pass sharing a table.
            let mut stream = frame.clone();
            let mut out = Vec::new();
            assert_eq!(decode_batch_into(&mut stream, &mut out), Ok(1));
            assert_eq!(out, vec![r]);
        }
    }

    #[test]
    fn dictionary_shrinks_repeated_essids() {
        let records: Vec<Record> = (0..40).map(sample_record).collect();
        let mut dict = BytesMut::new();
        assert_eq!(encode_batch(&records, &mut dict), 40);
        let mut inline = BytesMut::new();
        for r in &records {
            encode_frame_into(r, &mut inline);
        }
        // 39 of the 40 frames replace a 13-byte string slot with a 1-byte
        // index.
        assert!(
            dict.len() + 39 * 12 <= inline.len(),
            "dictionary stream not smaller: {} vs {}",
            dict.len(),
            inline.len()
        );
        let mut stream = dict.freeze();
        let mut back = Vec::new();
        assert_eq!(decode_batch_into(&mut stream, &mut back), Ok(40));
        assert_eq!(back, records);
    }

    #[test]
    fn batch_decode_interns_essids() {
        let records: Vec<Record> = (0..8).map(sample_record).collect();
        let mut out = BytesMut::new();
        encode_batch(&records, &mut out);
        let mut stream = out.freeze();
        let mut back = Vec::new();
        decode_batch_into(&mut stream, &mut back).unwrap();
        let essids: Vec<&Essid> =
            back.iter().filter_map(|r| r.wifi.assoc().map(|a| &a.essid)).collect();
        assert_eq!(essids.len(), 8);
        for e in &essids[1..] {
            assert!(Essid::ptr_eq(essids[0], e), "batch-decoded equal ESSIDs must share one Arc");
        }
    }

    #[test]
    fn dictionary_reference_outside_stream_rejected() {
        // Second frame of a dictionary batch references the table, so it
        // must not decode standalone.
        let records: Vec<Record> = (0..2).map(sample_record).collect();
        let mut out = BytesMut::new();
        let mut dict = EssidDict::default();
        encode_frame_dict_into(&records[0], &mut out, Some(&mut dict));
        let first_len = out.len();
        encode_frame_dict_into(&records[1], &mut out, Some(&mut dict));
        let stream = out.freeze();
        let second = stream.slice(first_len..);
        assert_eq!(decode_frame(&second), Err(CodecError::Malformed("essid dictionary reference")));
    }

    /// A 10-byte varint may set only bit 63 in its last byte; higher bits
    /// would be shifted out, so they must be rejected, not narrowed.
    #[test]
    fn varint_tenth_byte_overflow_rejected() {
        let varint = |last: u8| {
            let mut raw = [0xFFu8; 10];
            raw[9] = last;
            Cursor(&raw).varint()
        };
        assert_eq!(varint(0x01), Ok(u64::MAX));
        for last in [0x02, 0x7F, 0x81] {
            assert_eq!(varint(last), Err(CodecError::Malformed("varint too long")));
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_is_compact() {
        let frame = encode_frame(&sample_record(4));
        assert!(frame.len() < 160, "frame unexpectedly large: {} B", frame.len());
    }

    proptest! {
        #[test]
        fn varint_roundtrip(v in any::<u64>()) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut c = Cursor(&buf);
            prop_assert_eq!(c.varint().unwrap(), v);
            prop_assert!(c.0.is_empty());
        }

        #[test]
        fn zigzag_roundtrip(v in any::<i64>()) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }

        #[test]
        fn record_roundtrip_random(
            seq in any::<u32>(),
            minute in 0u32..40_000,
            rx in any::<u64>(),
            battery in 0u8..=100,
            x in -100i16..100,
            y in -100i16..100,
            essid in "[a-zA-Z0-9_-]{1,32}",
            rssi in -95i16..-20,
        ) {
            let mut r = sample_record(seq);
            r.time = SimTime::from_minutes(minute);
            r.counters.wifi.rx_bytes = rx;
            r.battery_pct = battery;
            r.geo = CellId::new(x, y);
            r.wifi = WifiState::Associated(AssocInfo {
                bssid: Bssid::from_u64(u64::from(seq)),
                essid: Essid::new(essid),
                band: Band::Ghz5,
                channel: Channel(36),
                rssi: Dbm::new(rssi),
            });
            let back = decode_frame(&encode_frame(&r)).unwrap();
            prop_assert_eq!(r, back);
        }

        #[test]
        fn random_garbage_never_panics(
            header in any::<bool>(),
            version in 0u8..4,
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            // With a valid magic + version in front, the random bytes reach
            // the length and checksum paths instead of dying at the magic.
            let mut raw = Vec::new();
            if header {
                raw.extend_from_slice(&MAGIC);
                raw.push(version);
            }
            raw.extend_from_slice(&data);
            let raw = Bytes::from(raw);
            let _ = decode_frame(&raw);
            let _ = decode_batch_into(&mut raw.clone(), &mut Vec::new());
        }

        #[test]
        fn checksummed_garbage_payload_never_panics(
            version in MIN_VERSION..=VERSION,
            payload in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            // A correct length and CRC around random bytes fuzzes the
            // payload parser.
            let _ = decode_frame(&frame_of(version, &payload));
        }

        #[test]
        fn crc32_slicing_matches_bytewise_oracle(
            data in proptest::collection::vec(any::<u8>(), 308),
            start in 0usize..8,
            len in 0usize..=300,
        ) {
            let s = &data[start..start + len];
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }

    /// Textbook CRC-32, one byte and one bit at a time: the oracle for the
    /// slicing-by-16 implementation.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of a standalone frame and of a dictionary batch:
    /// any change to the wire format shows up here.
    #[test]
    fn wire_format_golden_bytes() {
        let frame = concat!(
            "4d545243024c2a0007cc260100000000c08db701a0c21e861aac04000000000202000000",
            "beef000c617465726d2d3132616233340006f3080903020104010100010280897ae0d403",
            "d00fac021c035800040449125559",
        );
        assert_eq!(hex(&encode_frame(&sample_record(7))), frame);

        // Frame 0 inlines the ESSID (tag 0); frames 1-4 reference it (tag 1).
        let inline = concat!(
            "4d545243024c2a0000cc260100000000c08db701a0c21e861aac04000000000202000000",
            "beef000c617465726d2d3132616233340006f3080903020104010100010280897ae0d403",
            "d00fac021c0358000404906ef91b",
        );
        let referenced = |seq: &str, crc: &str| {
            format!(
                "4d545243023f2a00{seq}cc260100000000c08db701a0c21e861aac0400000000020200\
                 0000beef010006f3080903020104010100010280897ae0d403d00fac021c0358000404{crc}"
            )
        };
        let batch = [
            inline.to_string(),
            referenced("01", "834a9a79"),
            referenced("02", "051d4d38"),
            referenced("03", "78d00007"),
            referenced("04", "d2c3e5fb"),
        ]
        .concat();
        let records: Vec<Record> = (0..5).map(sample_record).collect();
        let mut out = BytesMut::new();
        assert_eq!(encode_batch(&records, &mut out), 5);
        assert_eq!(hex(&out), batch);
    }

    /// Five frames covering every WiFi state, an inline and a referenced
    /// ESSID, and a second inline ESSID; returns the stream and the offset
    /// at which each frame ends.
    fn varied_stream() -> (Vec<Record>, Bytes, Vec<usize>) {
        let mut records: Vec<Record> = (0..5).map(sample_record).collect();
        records[1].wifi = WifiState::Off;
        records[2].wifi = WifiState::OnUnassociated;
        if let WifiState::Associated(a) = &mut records[4].wifi {
            a.essid = Essid::new("eduroam");
        }
        let mut out = BytesMut::new();
        let mut dict = EssidDict::default();
        let mut ends = Vec::new();
        for r in &records {
            encode_frame_dict_into(r, &mut out, Some(&mut dict));
            ends.push(out.len());
        }
        (records, out.freeze(), ends)
    }

    #[test]
    fn every_truncation_decodes_a_prefix() {
        let (records, stream, ends) = varied_stream();
        for cut in 0..=stream.len() {
            let mut s = stream.slice(..cut);
            let mut back = Vec::new();
            let res = decode_batch_into(&mut s, &mut back);
            let whole = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(back[..], records[..whole], "cut at {cut}");
            assert_eq!(res.is_ok(), cut == 0 || ends.contains(&cut), "cut at {cut}: {res:?}");
        }
    }

    #[test]
    fn every_byte_corruption_decodes_a_prefix() {
        let (records, stream, ends) = varied_stream();
        for pos in 0..stream.len() {
            let frame = ends.iter().filter(|&&e| e <= pos).count();
            for mask in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut raw = stream.to_vec();
                raw[pos] ^= mask;
                let mut back = Vec::new();
                let res = decode_batch_into(&mut Bytes::from(raw), &mut back);
                assert!(res.is_err(), "xor {mask:#04x} at {pos} undetected");
                assert_eq!(back[..], records[..frame], "xor {mask:#04x} at {pos}");
            }
        }
    }

    /// A payload spelled out field by field from raw varints, so a test
    /// can put a value the encoder would never emit into any field.
    fn raw_payload(head: [u64; 4], scan: [u64; 8], geo: [u64; 2]) -> Vec<u8> {
        let [device, seq, minute, boot_epoch] = head;
        let mut p = Vec::new();
        put_varint(&mut p, device);
        p.push(0); // Android
        for v in [seq, minute, boot_epoch] {
            put_varint(&mut p, v);
        }
        for _ in 0..12 {
            put_varint(&mut p, 0); // three zero counter blocks
        }
        p.push(0); // WiFi off
        for v in scan {
            put_varint(&mut p, v);
        }
        put_varint(&mut p, 0); // no apps
        for v in geo {
            put_varint(&mut p, v);
        }
        p.extend_from_slice(&[50, 0, 4, 4]); // battery, tethering, OS version
        p
    }

    #[test]
    fn out_of_range_varints_rejected() {
        let head = [7, 1, 100, 2];
        let scan = [3; 8];
        let geo = [zigzag(-5), zigzag(9)];
        let ok = decode_frame(&frame_of(VERSION, &raw_payload(head, scan, geo))).unwrap();
        assert_eq!((ok.device, ok.seq, ok.time.minute, ok.boot_epoch), (DeviceId(7), 1, 100, 2));
        assert_eq!(ok.geo, CellId::new(-5, 9));

        let u32_over = (1u64 << 32) + 5;
        let u16_over = 1u64 << 16;
        let i16_over = zigzag(i64::from(i16::MAX) + 1);
        let i16_under = zigzag(i64::from(i16::MIN) - 1);
        let cases = [
            ([u32_over, 1, 100, 2], scan, geo, "device id out of range"),
            ([7, u32_over, 100, 2], scan, geo, "sequence number out of range"),
            ([7, 1, u32_over, 2], scan, geo, "minute out of range"),
            ([7, 1, 100, u16_over], scan, geo, "boot epoch out of range"),
            (head, [3, 3, 3, 3, 3, 3, 3, u16_over], geo, "scan count out of range"),
            (head, scan, [i16_over, zigzag(9)], "geo cell out of range"),
            (head, scan, [zigzag(-5), i16_under], "geo cell out of range"),
        ];
        for (head, scan, geo, what) in cases {
            let frame = frame_of(VERSION, &raw_payload(head, scan, geo));
            assert_eq!(decode_frame(&frame), Err(CodecError::Malformed(what)));
        }
    }

    /// Split one current-version frame into the width of its
    /// payload-length varint and its payload, checking that the declared
    /// length, the payload and the trailing checksum agree.
    fn frame_parts(frame: &[u8]) -> (usize, &[u8]) {
        assert_eq!(frame[..4], MAGIC);
        assert_eq!(frame[4], VERSION);
        let mut c = Cursor(&frame[5..]);
        let len = usize::try_from(c.varint().unwrap()).unwrap();
        let width = frame.len() - 5 - c.0.len();
        let payload = c.take(len).unwrap();
        assert_eq!(c.0, crc32(payload).to_be_bytes(), "the checksum closes the frame");
        (width, payload)
    }

    /// `n` app entries whose counters all take the widest varint.
    fn wide_apps(n: usize) -> Vec<AppCounter> {
        let max = TrafficCounters {
            rx_bytes: u64::MAX,
            tx_bytes: u64::MAX,
            rx_pkts: u64::MAX,
            tx_pkts: u64::MAX,
        };
        (0..n).map(|i| AppCounter { category: AppCategory::ALL[i % 26], counters: max }).collect()
    }

    fn with_essid(mut r: Record, essid: Essid) -> Record {
        if let WifiState::Associated(a) = &mut r.wifi {
            a.essid = essid;
        }
        r
    }

    /// Write `r` behind a three-byte prefix, check the prefix survives,
    /// and return the frame's header width and payload length.
    fn written_behind_prefix(r: &Record) -> (usize, usize, Vec<u8>) {
        let mut buf = vec![0xA5; 3];
        write_frame(r, &mut buf, None);
        assert_eq!(buf[..3], [0xA5; 3], "bytes before the frame are untouched");
        let frame = buf.split_off(3);
        let (width, payload) = frame_parts(&frame);
        (width, payload.len(), frame)
    }

    #[test]
    fn short_payload_closes_the_header_slot() {
        let r = sample_record(1);
        let (width, len, frame) = written_behind_prefix(&r);
        assert!(len < 0x80, "payload {len} B");
        assert_eq!(width, 1);
        assert_eq!(frame.len(), 5 + 1 + len + 4);
        assert_eq!(decode_frame(&Bytes::from(frame)).unwrap(), r);
    }

    #[test]
    fn two_byte_payload_fills_the_header_slot_in_place() {
        let r = with_essid(sample_record(2), Essid::new("x".repeat(300)));
        let (width, len, frame) = written_behind_prefix(&r);
        assert!((0x80..=0x3FFF).contains(&len), "payload {len} B");
        assert_eq!(width, 2);
        assert_eq!(frame.len(), 5 + 2 + len + 4);
        assert_eq!(decode_frame(&Bytes::from(frame)).unwrap(), r);
    }

    #[test]
    fn long_payload_widens_the_header_slot() {
        let mut r = sample_record(3);
        r.apps = wide_apps(400);
        let (width, len, frame) = written_behind_prefix(&r);
        assert!(len > 0x3FFF, "payload {len} B");
        assert_eq!(width, 3);
        assert_eq!(frame.len(), 5 + 3 + len + 4);
        // The encoder frames any app count; the decoder bounds it.
        assert_eq!(
            decode_frame(&Bytes::from(frame)),
            Err(CodecError::Malformed("too many app entries"))
        );
    }

    #[test]
    fn app_entry_count_is_bounded_at_64() {
        let mut r = sample_record(4);
        r.apps = wide_apps(64);
        assert_eq!(decode_frame(&encode_frame(&r)).unwrap(), r);
        r.apps = wide_apps(65);
        assert_eq!(
            decode_frame(&encode_frame(&r)),
            Err(CodecError::Malformed("too many app entries"))
        );
    }

    #[test]
    fn dictionary_stops_growing_at_its_cap() {
        let mut dict = EssidDict::default();
        let mut stream = Vec::new();
        for k in 0..=ESSID_DICT_CAP {
            let r = with_essid(sample_record(0), Essid::new(format!("ap-{k}")));
            write_frame(&r, &mut stream, Some(&mut dict));
        }
        assert_eq!(dict.indices.len(), ESSID_DICT_CAP);

        let frame = |r: &Record, dict: Option<&mut EssidDict>| {
            let mut buf = Vec::new();
            write_frame(r, &mut buf, dict);
            buf
        };
        // An indexed ESSID is referenced, so its frame is shorter than
        // the inline one ...
        let first = with_essid(sample_record(0), Essid::new("ap-0"));
        assert!(frame(&first, Some(&mut dict)).len() < frame(&first, None).len());
        // ... while the one past the cap is inlined every time.
        let past = with_essid(sample_record(0), Essid::new(format!("ap-{ESSID_DICT_CAP}")));
        for _ in 0..2 {
            assert_eq!(frame(&past, Some(&mut dict)), frame(&past, None));
        }
        assert_eq!(dict.indices.len(), ESSID_DICT_CAP);
    }

    #[test]
    fn each_batch_starts_its_own_dictionary() {
        let records: Vec<Record> = (0..3).map(sample_record).collect();
        let mut out = BytesMut::new();
        encode_batch(&records, &mut out);
        let first = out.len();
        encode_batch(&records, &mut out);
        // The second batch inlines the ESSID again rather than referencing
        // the first batch's table, so it decodes on its own.
        assert_eq!(&out[..first], &out[first..]);
        let mut second = Bytes::copy_from_slice(&out[first..]);
        let mut back = Vec::new();
        assert_eq!(decode_batch_into(&mut second, &mut back), Ok(3));
        assert_eq!(back, records);
    }

    #[test]
    fn encode_frame_into_reuses_the_callers_capacity() {
        let r = sample_record(5);
        let mut out = BytesMut::with_capacity(4096);
        let cap = out.capacity();
        for _ in 0..8 {
            out.clear();
            encode_frame_into(&r, &mut out);
            assert_eq!(out.capacity(), cap, "no reallocation for a frame that fits");
            assert_eq!(&out[..], &encode_frame(&r)[..]);
        }
        out.clear();
        encode_batch(&[r.clone(), r], &mut out);
        assert_eq!(out.capacity(), cap);
    }

    #[test]
    fn decode_frame_with_shares_one_essid_allocation() {
        let frames: Vec<Bytes> = (0..3).map(|k| encode_frame(&sample_record(k))).collect();
        let essid = |r: &Record| r.wifi.assoc().unwrap().essid.clone();
        let mut table = EssidTable::default();
        let shared: Vec<Essid> =
            frames.iter().map(|f| essid(&decode_frame_with(f, &mut table).unwrap())).collect();
        assert!(shared[1..].iter().all(|e| Essid::ptr_eq(&shared[0], e)));
        // Without a table every frame allocates its own string.
        let a = essid(&decode_frame(&frames[0]).unwrap());
        let b = essid(&decode_frame(&frames[1]).unwrap());
        assert_eq!(a, b);
        assert!(!Essid::ptr_eq(&a, &b));
    }

    /// The payload of `r`'s standalone frame, to be patched and re-framed.
    fn payload_of(r: &Record) -> Vec<u8> {
        frame_parts(&encode_frame(r)).1.to_vec()
    }

    #[test]
    fn bad_enum_tags_rejected() {
        let r = sample_record(6);
        let payload = payload_of(&r);
        let essid = b"aterm-12ab34";
        let essid_at = payload.windows(essid.len()).position(|w| w == essid).unwrap();
        let mut app = Vec::new();
        put_counters(&mut app, &r.apps[0].counters);
        // Device 42 is one varint byte, so the OS tag is byte 1; the band
        // follows the ESSID; the app category precedes its counters, which
        // precede the two geo bytes and four trailing bytes.
        let os_at = 1;
        let wifi_at = essid_at - 6 - 1 - 1 - 1;
        let band_at = essid_at + essid.len();
        let category_at = payload.len() - 6 - app.len() - 1;
        assert_eq!(payload[wifi_at], 2, "associated WiFi tag");
        assert_eq!(payload[category_at], AppCategory::Video.index() as u8);
        let cases = [
            (os_at, 2, "os tag"),
            (wifi_at, 3, "wifi tag"),
            (band_at, 2, "band tag"),
            (category_at, AppCategory::ALL.len() as u8, "app category"),
        ];
        for (at, value, what) in cases {
            let mut p = payload.clone();
            p[at] = value;
            assert_eq!(decode_frame(&frame_of(VERSION, &p)), Err(CodecError::Malformed(what)));
        }
        assert_eq!(decode_frame(&frame_of(VERSION, &payload)).unwrap(), r);
    }

    #[test]
    fn essid_length_and_encoding_are_checked() {
        let longest = with_essid(sample_record(7), Essid::new("e".repeat(1024)));
        assert_eq!(decode_frame(&encode_frame(&longest)).unwrap(), longest);
        let too_long = with_essid(sample_record(7), Essid::new("e".repeat(1025)));
        assert_eq!(
            decode_frame(&encode_frame(&too_long)),
            Err(CodecError::Malformed("string too long"))
        );
        let mut p = payload_of(&sample_record(7));
        let at = p.windows(5).position(|w| w == b"aterm").unwrap();
        p[at] = 0xFF;
        assert_eq!(
            decode_frame(&frame_of(VERSION, &p)),
            Err(CodecError::Malformed("invalid utf-8"))
        );
    }

    #[test]
    fn rssi_tenths_survive_the_wire() {
        let mut r = sample_record(8);
        for tenths in -1500..=300 {
            if let WifiState::Associated(a) = &mut r.wifi {
                a.rssi = Dbm::from_tenths(tenths);
            }
            let back = decode_frame(&encode_frame(&r)).unwrap();
            assert_eq!(back.wifi.assoc().unwrap().rssi.to_tenths(), tenths);
        }
    }

    #[test]
    fn codec_errors_display_their_cause() {
        let cases = [
            (CodecError::BadMagic, "bad frame magic"),
            (CodecError::BadVersion(9), "unsupported version 9"),
            (CodecError::Truncated, "truncated frame"),
            (CodecError::BadChecksum, "checksum mismatch"),
            (CodecError::Malformed("band tag"), "malformed payload: band tag"),
        ];
        for (err, text) in cases {
            assert_eq!(err.to_string(), text);
        }
    }
}
