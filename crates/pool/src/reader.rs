//! The mmap-backed pool reader.
//!
//! `open` maps the file, checks the header, and decodes the directory it
//! points at — one `O(1)` header read plus a directory decode; no
//! segment bytes are touched until asked for. Segment accesses are
//! bounds-checked against the map and checksum-verified on first touch,
//! so loading a dataset reads each byte exactly once (the checksum pass
//! is the page-fault pass).

use crate::dscodec;
use crate::err::PoolError;
use crate::format::{decode_directory, decode_header, pool_hash, SegDesc, HEADER_LEN};
use crate::mmap::PoolMap;
use mobitrace_model::{Dataset, DatasetIndex};
use std::path::Path;

/// Check the header of `bytes` (the whole file) and decode the directory
/// it points at, with every segment range inside the file.
fn parse_pool(bytes: &[u8]) -> Result<Vec<SegDesc>, PoolError> {
    let ptr = decode_header(bytes)?;
    let have = bytes.len() as u64;
    if ptr.off < HEADER_LEN {
        return Err(PoolError::Corrupt { what: "directory pointer inside the header".into() });
    }
    let end = ptr
        .off
        .checked_add(ptr.len)
        .ok_or(PoolError::Corrupt { what: "directory range overflows".into() })?;
    if end > have {
        return Err(PoolError::Truncated { what: "directory", need: end, have });
    }
    let dir = &bytes[ptr.off as usize..end as usize];
    if pool_hash(dir) != ptr.hash {
        return Err(PoolError::ChecksumMismatch { what: "directory".into() });
    }
    let segs = decode_directory(dir)?;
    for s in &segs {
        let seg_end = s.offset.checked_add(s.len).ok_or(PoolError::Corrupt {
            what: format!("segment kind {} stream {} range overflows", s.kind, s.stream),
        })?;
        if s.offset < HEADER_LEN || seg_end > have {
            return Err(PoolError::Truncated { what: "segment", need: seg_end, have });
        }
    }
    Ok(segs)
}

/// A dataset decoded from a pool, with its persisted index: what an
/// analysis context is built from without a rebuild scan.
pub struct PoolDataset {
    /// The dataset, identical to the one written; its bins are the
    /// columns decoded column-at-a-time from the map.
    pub ds: Dataset,
    /// Persisted per-device / per-day index (no rebuild scan).
    pub index: DatasetIndex,
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
    /// Whether the bytes came from an actual memory map.
    pub mapped: bool,
}

/// Read-only view of one pool file. Cheap to open; safe to hold in many
/// processes at once, also while a writer replaces the file (the reader
/// keeps the old inode).
pub struct PoolReader {
    map: PoolMap,
    segs: Vec<SegDesc>,
}

impl PoolReader {
    /// Map the file and decode its directory.
    pub fn open(path: &Path) -> Result<PoolReader, PoolError> {
        let map = PoolMap::open(path)?;
        let segs = parse_pool(map.bytes())?;
        Ok(PoolReader { map, segs })
    }

    /// The directory.
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

    /// Decode one dataset stream: its bins straight off the map as
    /// columns and its persisted index — then re-check the dataset
    /// invariants.
    pub fn decode_dataset(&self, stream: u16) -> Result<PoolDataset, PoolError> {
        dscodec::decode_dataset(self, stream)
    }

    /// Verify the whole pool: every segment checksum, every dataset
    /// stream decoded and re-validated.
    pub fn verify(&self) -> Result<VerifyReport, PoolError> {
        let mut report = VerifyReport { mapped: self.is_mapped(), ..VerifyReport::default() };
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
