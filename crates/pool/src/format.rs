//! The `.mtpool` on-disk structures: header, segment directory, and
//! the checksum.
//!
//! Layout (all integers little-endian; see DESIGN.md §3i):
//!
//! ```text
//! 0    magic "MTPOOL1\0" (8)   version u32   header_len u32
//! 16   dir_off u64   dir_len u64   dir_hash u64     40..120 reserved
//! 120  header_hash u64 (pool_hash of bytes 0..120)
//! 128  8-aligned segments …
//!      … directory, last in the file
//! ```
//!
//! A pool is written whole, once: the writer appends segments to a temp
//! file, then the directory, then the header that points at it, syncs,
//! and renames the file into place (see [`crate::writer`]). The header
//! holds the one directory pointer, under its own checksum, so a header
//! that is damaged or was never written is a typed error, never an
//! empty pool.

use crate::err::PoolError;
use crate::le::{Cursor, Enc};

/// File magic: `MTPOOL1\0`.
pub const MAGIC: [u8; 8] = *b"MTPOOL1\0";
/// Current format version. Version 1 stored the dataset columns
/// fixed-width; version 2 stores them varint/delta-encoded (see
/// [`crate::dscodec`]) under two publication slots; version 3 has one
/// checksummed directory pointer. A reader accepts exactly its own
/// version.
pub const VERSION: u32 = 3;
/// Fixed header size; segment data starts here.
pub const HEADER_LEN: u64 = 128;
/// Segment start alignment (cheap page-fault-friendly layout; decoding
/// never relies on it — see [`crate::le`]).
pub const ALIGN: u64 = 8;
/// Encoded size of one directory entry.
pub const SEGDESC_LEN: usize = 48;
/// Offset of the header's own checksum.
const HEADER_HASH_OFF: usize = HEADER_LEN as usize - 8;

/// Segment kinds. A dataset stream is the fixed set `META..=INDEX`
/// (kind 8, version 1's selection vectors, is no longer written: the
/// decoder rebuilds them from the WiFi tags); `RAW` carries opaque
/// payloads (the collector's checkpoint frames).
pub mod kind {
    /// JSON-encoded campaign metadata + device table (cold data).
    pub const META: u16 = 1;
    /// AP table: BSSIDs + ESSID dictionary.
    pub const APS: u16 = 2;
    /// The six per-bin traffic counter columns (LEB128 each).
    pub const COUNTERS: u16 = 3;
    /// Row columns: per-device delta time, delta geo, OS version runs.
    pub const ROWMETA: u16 = 4;
    /// WiFi state tags + delta-encoded columns of the associated rows.
    pub const WIFI: u16 = 5;
    /// The eight scan-summary columns (zig-zag delta varints).
    pub const SCAN: u16 = 6;
    /// App bins: a count per row + (category, rx, tx) columns.
    pub const APPS: u16 = 7;
    /// Persisted `DatasetIndex` columns.
    pub const INDEX: u16 = 9;
    /// Opaque byte payload (collector checkpoint frames etc.).
    pub const RAW: u16 = 10;

    /// Short lowercase name of a kind, for size reports.
    pub fn name(kind: u16) -> &'static str {
        match kind {
            META => "meta",
            APS => "aps",
            COUNTERS => "counters",
            ROWMETA => "rowmeta",
            WIFI => "wifi",
            SCAN => "scan",
            APPS => "apps",
            INDEX => "index",
            RAW => "raw",
            _ => "unknown",
        }
    }
}

/// The checksum used for the header, the directory, and segments: FNV-1a run
/// over 8-byte little-endian lanes with the input length folded in, so
/// a zero-padded tail is distinguishable from genuine zeros. One
/// multiply per 8 bytes — fast enough to verify every segment on load.
pub fn pool_hash(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

/// Where the directory lives: the one pointer the header publishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirPtr {
    /// Directory byte offset.
    pub off: u64,
    /// Directory byte length.
    pub len: u64,
    /// [`pool_hash`] of the directory bytes.
    pub hash: u64,
}

/// Encode the header publishing `dir`.
pub fn encode_header(dir: DirPtr) -> [u8; HEADER_LEN as usize] {
    let mut e = Enc::with_capacity(40);
    e.bytes(&MAGIC);
    e.u32(VERSION);
    e.u32(HEADER_LEN as u32);
    e.u64(dir.off);
    e.u64(dir.len);
    e.u64(dir.hash);
    let mut out = [0u8; HEADER_LEN as usize];
    out[..40].copy_from_slice(&e.into_bytes());
    let hash = pool_hash(&out[..HEADER_HASH_OFF]);
    out[HEADER_HASH_OFF..].copy_from_slice(&hash.to_le_bytes());
    out
}

/// Check the header at the start of `file` (magic, version, its own
/// checksum) and return its directory pointer.
pub fn decode_header(file: &[u8]) -> Result<DirPtr, PoolError> {
    let have = file.len() as u64;
    if have < HEADER_LEN {
        return Err(PoolError::Truncated { what: "header", need: HEADER_LEN, have });
    }
    if file[..8] != MAGIC {
        return Err(PoolError::BadMagic);
    }
    // Each version has its own layout and segment encodings, so a
    // reader decodes exactly its own: another version is refused, never
    // misread.
    let version = u32::from_le_bytes(file[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(PoolError::BadVersion { found: version, supported: VERSION });
    }
    let word = |at: usize| u64::from_le_bytes(file[at..at + 8].try_into().expect("8 bytes"));
    if pool_hash(&file[..HEADER_HASH_OFF]) != word(HEADER_HASH_OFF) {
        return Err(PoolError::ChecksumMismatch { what: "header".into() });
    }
    Ok(DirPtr { off: word(16), len: word(24), hash: word(32) })
}

/// One directory entry: a checksummed byte range of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegDesc {
    /// Segment kind (see [`kind`]).
    pub kind: u16,
    /// Stream id: dataset slot for columnar kinds, shard/channel id for
    /// [`kind::RAW`].
    pub stream: u16,
    /// Byte offset of the segment payload.
    pub offset: u64,
    /// Payload length in bytes (excluding alignment padding).
    pub len: u64,
    /// Logical row count (bins, records, …) — informational.
    pub rows: u64,
    /// [`pool_hash`] of the payload.
    pub hash: u64,
}

/// Encode a directory: `count u32, reserved u32`, then the entries.
pub fn encode_directory(segs: &[SegDesc]) -> Vec<u8> {
    let mut e = Enc::with_capacity(8 + segs.len() * SEGDESC_LEN);
    e.u32(u32::try_from(segs.len()).expect("segment count fits u32"));
    e.u32(0);
    for s in segs {
        e.u16(s.kind);
        e.u16(s.stream);
        e.u32(0); // reserved
        e.u64(s.offset);
        e.u64(s.len);
        e.u64(s.rows);
        e.u64(s.hash);
        e.u64(0); // reserved
    }
    e.into_bytes()
}

/// Decode a directory previously produced by [`encode_directory`].
pub fn decode_directory(raw: &[u8]) -> Result<Vec<SegDesc>, PoolError> {
    let mut c = Cursor::new(raw, "directory");
    let count = c.u32()? as usize;
    let _reserved = c.u32()?;
    if c.remaining() != count * SEGDESC_LEN {
        return Err(PoolError::Corrupt {
            what: format!(
                "directory claims {count} segments but carries {} entry bytes",
                c.remaining()
            ),
        });
    }
    let mut segs = Vec::with_capacity(count);
    for _ in 0..count {
        let kind = c.u16()?;
        let stream = c.u16()?;
        let _ = c.u32()?;
        let offset = c.u64()?;
        let len = c.u64()?;
        let rows = c.u64()?;
        let hash = c.u64()?;
        let _ = c.u64()?;
        segs.push(SegDesc { kind, stream, offset, len, rows, hash });
    }
    c.finish()?;
    Ok(segs)
}

/// Round `off` up to the next [`ALIGN`] boundary.
pub fn align_up(off: u64) -> u64 {
    off.div_ceil(ALIGN) * ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_damage_detection() {
        let dir = DirPtr { off: 4096, len: 200, hash: 0xABCD };
        let raw = encode_header(dir);
        assert_eq!(decode_header(&raw).unwrap(), dir);
        for (at, bit) in [(17, 0), (60, 3), (127, 7)] {
            let mut torn = raw;
            torn[at] ^= 1 << bit;
            assert!(matches!(decode_header(&torn), Err(PoolError::ChecksumMismatch { .. })));
        }
        assert!(matches!(decode_header(&raw[..127]), Err(PoolError::Truncated { .. })));
    }

    #[test]
    fn directory_roundtrip() {
        let segs = vec![
            SegDesc { kind: kind::META, stream: 0, offset: 128, len: 17, rows: 2, hash: 9 },
            SegDesc { kind: kind::RAW, stream: 7, offset: 152, len: 0, rows: 0, hash: 1 },
        ];
        let raw = encode_directory(&segs);
        assert_eq!(decode_directory(&raw).unwrap(), segs);
        assert!(matches!(decode_directory(&raw[..raw.len() - 1]), Err(PoolError::Corrupt { .. })));
    }

    #[test]
    fn hash_distinguishes_length_from_zero_padding() {
        assert_ne!(pool_hash(&[0u8; 3]), pool_hash(&[0u8; 8]));
        assert_ne!(pool_hash(b"abc"), pool_hash(b"abc\0"));
        assert_eq!(pool_hash(b"abc"), pool_hash(b"abc"));
    }
}
