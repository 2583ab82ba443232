//! The `.mtpool` on-disk structures: header, publication slots, segment
//! directory, and the checksum.
//!
//! Layout (all integers little-endian; see DESIGN.md §3i):
//!
//! ```text
//! 0    magic "MTPOOL1\0" (8)   version u32   header_len u32
//! 16   slot A (40)             56  slot B (40)        96..128 reserved
//! 128  8-aligned segments, append-only …
//!      … directory (also append-only), pointed at by the live slot
//! ```
//!
//! A *slot* is one atomic publication: `{epoch, dir_off, dir_len,
//! dir_hash, slot_hash}`. The writer appends segments and a fresh
//! directory, syncs, then overwrites the *older* slot with epoch+1 and
//! syncs again. Readers take whichever slot has the highest epoch and a
//! valid `slot_hash`; a torn slot write therefore costs nothing — the
//! previous epoch's slot still points at a complete directory whose
//! bytes are never rewritten. Only if no valid slot exists (and the pool
//! is not simply empty) does the reader report
//! [`PoolError::TornDirectory`].

use crate::err::PoolError;
use crate::le::{Cursor, Enc};

/// File magic: `MTPOOL1\0`.
pub const MAGIC: [u8; 8] = *b"MTPOOL1\0";
/// Current format version. Version 1 stored the dataset columns
/// fixed-width; version 2 stores them varint/delta-encoded (see
/// [`crate::dscodec`]). A reader accepts exactly its own version.
pub const VERSION: u32 = 2;
/// Fixed header size; segment data starts here.
pub const HEADER_LEN: u64 = 128;
/// Segment start alignment (cheap page-fault-friendly layout; decoding
/// never relies on it — see [`crate::le`]).
pub const ALIGN: u64 = 8;
/// Encoded size of one directory entry.
pub const SEGDESC_LEN: usize = 48;
/// Encoded size of one publication slot.
pub const SLOT_LEN: usize = 40;
/// Offsets of the two slots within the header.
pub const SLOT_OFFSETS: [u64; 2] = [16, 56];

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

/// The checksum used for slots, directories, and segments: FNV-1a run
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

/// One publication: where the directory of some epoch lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirSlot {
    /// Publication counter; higher wins. Epoch 0 never exists on disk
    /// (an all-zero slot means "nothing published yet").
    pub epoch: u64,
    /// Directory byte offset.
    pub dir_off: u64,
    /// Directory byte length.
    pub dir_len: u64,
    /// [`pool_hash`] of the directory bytes.
    pub dir_hash: u64,
}

/// Decoded state of one slot's bytes.
#[derive(Debug, PartialEq, Eq)]
pub enum SlotState {
    /// All zeros: never published through this slot.
    Empty,
    /// Self-consistent publication.
    Valid(DirSlot),
    /// Nonzero but failing its own checksum — a torn write.
    Torn,
}

/// Encode a slot (with its trailing self-checksum).
pub fn encode_slot(s: &DirSlot) -> [u8; SLOT_LEN] {
    let mut e = Enc::with_capacity(SLOT_LEN);
    e.u64(s.epoch);
    e.u64(s.dir_off);
    e.u64(s.dir_len);
    e.u64(s.dir_hash);
    let body = e.into_bytes();
    let mut out = [0u8; SLOT_LEN];
    out[..32].copy_from_slice(&body);
    out[32..].copy_from_slice(&pool_hash(&body).to_le_bytes());
    out
}

/// Classify one slot's bytes.
pub fn decode_slot(raw: &[u8]) -> SlotState {
    if raw.len() != SLOT_LEN {
        return SlotState::Torn;
    }
    if raw.iter().all(|&b| b == 0) {
        return SlotState::Empty;
    }
    let claimed = u64::from_le_bytes(raw[32..40].try_into().expect("8 bytes"));
    if pool_hash(&raw[..32]) != claimed {
        return SlotState::Torn;
    }
    let mut c = Cursor::new(&raw[..32], "slot");
    let slot = DirSlot {
        epoch: c.u64().expect("32-byte slot body"),
        dir_off: c.u64().expect("32-byte slot body"),
        dir_len: c.u64().expect("32-byte slot body"),
        dir_hash: c.u64().expect("32-byte slot body"),
    };
    if slot.epoch == 0 {
        // Zero epoch with nonzero payload cannot be produced by a
        // correct writer; treat as torn.
        return SlotState::Torn;
    }
    SlotState::Valid(slot)
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
    fn slot_roundtrip_and_torn_detection() {
        let s = DirSlot { epoch: 3, dir_off: 4096, dir_len: 200, dir_hash: 0xABCD };
        let raw = encode_slot(&s);
        assert_eq!(decode_slot(&raw), SlotState::Valid(s));
        assert_eq!(decode_slot(&[0u8; SLOT_LEN]), SlotState::Empty);
        let mut torn = raw;
        torn[5] ^= 0xFF;
        assert_eq!(decode_slot(&torn), SlotState::Torn);
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
