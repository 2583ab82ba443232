//! The mmap-backed pool reader.
//!
//! `open` maps the file, validates the header, and adopts the highest
//! valid publication slot — one `O(1)` header read plus a directory
//! decode; no segment bytes are touched until asked for. Segment
//! accesses are bounds-checked against the map and checksum-verified on
//! first touch, so loading a dataset reads each byte exactly once (the
//! checksum pass is the page-fault pass).

use crate::dscodec;
use crate::err::PoolError;
use crate::format::{
    decode_directory, decode_slot, pool_hash, DirSlot, SegDesc, SlotState, HEADER_LEN, MAGIC,
    SLOT_LEN, SLOT_OFFSETS, VERSION,
};
use crate::mmap::PoolMap;
use mobitrace_model::{Dataset, DatasetColumns, DatasetIndex};
use std::path::Path;

/// A decoded header + directory, shared by the reader and the appender's
/// adoption path.
pub struct ParsedPool {
    /// The adopted publication (None for an empty, never-published pool).
    pub slot: Option<DirSlot>,
    /// Directory entries of the adopted epoch.
    pub segs: Vec<SegDesc>,
}

/// Validate the fixed header and decode the live directory out of
/// `bytes` (the whole file).
pub fn parse_pool(bytes: &[u8]) -> Result<ParsedPool, PoolError> {
    if (bytes.len() as u64) < HEADER_LEN {
        return Err(PoolError::Truncated {
            what: "header",
            need: HEADER_LEN,
            have: bytes.len() as u64,
        });
    }
    if bytes[..8] != MAGIC {
        return Err(PoolError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    // Each version has its own segment encodings, so a reader decodes
    // exactly its own: an older pool is refused, never misread.
    if version != VERSION {
        return Err(PoolError::BadVersion { found: version, supported: VERSION });
    }
    let mut best: Option<DirSlot> = None;
    let mut torn = false;
    for off in SLOT_OFFSETS {
        let raw = &bytes[off as usize..off as usize + SLOT_LEN];
        match decode_slot(raw) {
            SlotState::Empty => {}
            SlotState::Torn => torn = true,
            SlotState::Valid(s) => {
                if best.is_none_or(|b| s.epoch > b.epoch) {
                    best = Some(s);
                }
            }
        }
    }
    let slot = match best {
        Some(s) => s,
        // No valid slot: an all-empty header is a legal empty pool; any
        // torn slot without a fallback is a loud error.
        None if !torn => return Ok(ParsedPool { slot: None, segs: Vec::new() }),
        None => return Err(PoolError::TornDirectory),
    };
    let end = slot
        .dir_off
        .checked_add(slot.dir_len)
        .ok_or(PoolError::Corrupt { what: "directory range overflows".into() })?;
    if end > bytes.len() as u64 || slot.dir_off < HEADER_LEN {
        return Err(PoolError::Truncated {
            what: "directory",
            need: end,
            have: bytes.len() as u64,
        });
    }
    let dir = &bytes[slot.dir_off as usize..end as usize];
    if pool_hash(dir) != slot.dir_hash {
        // The slot itself checksummed fine but its directory does not:
        // the publication was torn between the two syncs.
        return Err(PoolError::TornDirectory);
    }
    let segs = decode_directory(dir)?;
    for s in &segs {
        let seg_end = s.offset.checked_add(s.len).ok_or(PoolError::Corrupt {
            what: format!("segment kind {} stream {} range overflows", s.kind, s.stream),
        })?;
        if s.offset < HEADER_LEN || seg_end > bytes.len() as u64 {
            return Err(PoolError::Truncated {
                what: "segment",
                need: seg_end,
                have: bytes.len() as u64,
            });
        }
    }
    Ok(ParsedPool { slot: Some(slot), segs })
}

/// A dataset decoded from a pool: exactly the parts
/// `AnalysisContext::from_parts` wants, plus the row table the retained
/// row-scan reference passes still read.
pub struct PoolDataset {
    /// Materialized row table (identical to the dataset that was written).
    pub ds: Dataset,
    /// Persisted per-device / per-day index (no rebuild scan).
    pub index: DatasetIndex,
    /// Columnar view, decoded column-at-a-time from the map.
    pub cols: DatasetColumns,
}

/// Report of a full-pool [`PoolReader::verify`].
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Segments whose checksums were verified.
    pub segments: usize,
    /// Dataset streams decoded and re-validated.
    pub datasets: usize,
    /// Total payload bytes checksummed.
    pub bytes: u64,
    /// Publication epoch verified.
    pub epoch: u64,
    /// Whether the bytes came from an actual memory map.
    pub mapped: bool,
}

/// Read-only view of one pool file. Cheap to open; safe to hold in many
/// processes concurrently with one appender.
pub struct PoolReader {
    map: PoolMap,
    slot: Option<DirSlot>,
    segs: Vec<SegDesc>,
}

impl PoolReader {
    /// Map the file and adopt its latest valid publication.
    pub fn open(path: &Path) -> Result<PoolReader, PoolError> {
        let map = PoolMap::open(path)?;
        let parsed = parse_pool(map.bytes())?;
        Ok(PoolReader { map, slot: parsed.slot, segs: parsed.segs })
    }

    /// Publication epoch (0 when nothing was ever published).
    pub fn epoch(&self) -> u64 {
        self.slot.map_or(0, |s| s.epoch)
    }

    /// The adopted directory.
    pub fn segments(&self) -> &[SegDesc] {
        &self.segs
    }

    /// True when served by a real memory map (not the heap fallback).
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Stream ids that carry a dataset (have a META segment), ascending.
    pub fn dataset_streams(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .segs
            .iter()
            .filter(|s| s.kind == crate::format::kind::META)
            .map(|s| s.stream)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Checksum-verified payload bytes of one segment.
    pub fn segment_bytes(&self, kind: u16, stream: u16) -> Result<&[u8], PoolError> {
        let seg = self
            .segs
            .iter()
            .find(|s| s.kind == kind && s.stream == stream)
            .ok_or(PoolError::MissingSegment { kind, stream })?;
        // Ranges were bounds-checked at open; slice cannot fail.
        let payload = &self.map.bytes()[seg.offset as usize..(seg.offset + seg.len) as usize];
        if pool_hash(payload) != seg.hash {
            return Err(PoolError::ChecksumMismatch {
                what: format!("segment kind {kind} stream {stream}"),
            });
        }
        Ok(payload)
    }

    /// Payload and row count of a [`RAW`](crate::format::kind::RAW)
    /// segment (checksum-verified).
    pub fn raw_segment(&self, stream: u16) -> Result<(&[u8], u64), PoolError> {
        let rows = self
            .segs
            .iter()
            .find(|s| s.kind == crate::format::kind::RAW && s.stream == stream)
            .map(|s| s.rows)
            .ok_or(PoolError::MissingSegment { kind: crate::format::kind::RAW, stream })?;
        Ok((self.segment_bytes(crate::format::kind::RAW, stream)?, rows))
    }

    /// Stream ids of all RAW segments, ascending.
    pub fn raw_streams(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self
            .segs
            .iter()
            .filter(|s| s.kind == crate::format::kind::RAW)
            .map(|s| s.stream)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Decode one dataset stream: columns straight off the map, the
    /// persisted index, and the materialized row table — then re-check
    /// the dataset invariants exactly as the JSON load path does.
    pub fn decode_dataset(&self, stream: u16) -> Result<PoolDataset, PoolError> {
        dscodec::decode_dataset(self, stream)
    }

    /// Verify the whole pool: every segment checksum, every dataset
    /// stream decoded and re-validated.
    pub fn verify(&self) -> Result<VerifyReport, PoolError> {
        let mut report = VerifyReport {
            epoch: self.epoch(),
            mapped: self.is_mapped(),
            ..VerifyReport::default()
        };
        for s in &self.segs {
            self.segment_bytes(s.kind, s.stream)?;
            report.segments += 1;
            report.bytes += s.len;
        }
        for stream in self.dataset_streams() {
            self.decode_dataset(stream)?;
            report.datasets += 1;
        }
        Ok(report)
    }
}
