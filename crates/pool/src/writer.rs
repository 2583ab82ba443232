//! The write-once pool builder.
//!
//! A [`PoolWriter`] builds a whole pool in a temp sibling of its target
//! path and installs it with one atomic `rename` at
//! [`finish`](PoolWriter::finish): segments first, then the directory,
//! then the header that points at it, one `sync_all`, the rename, and a
//! sync of the parent directory. Nothing appears at the target before
//! the full sync, so a crash anywhere before the rename leaves the
//! previous file intact, and readers holding a map of the old file keep
//! a valid view of the old inode. A pool file is never modified after
//! its rename. Dropping a writer without finishing it removes its temp
//! file.

use crate::dscodec::{self, EncodedDataset};
use crate::err::PoolError;
use crate::format::{self, align_up, encode_directory, encode_header, DirPtr, SegDesc, HEADER_LEN};
use crate::shim::{is_transient, IoOp, PoolIoShim, Verdict};
use mobitrace_model::{Dataset, DatasetIndex};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds one `.mtpool` file and atomically installs it over its target.
pub struct PoolWriter {
    file: File,
    /// The temp sibling being written, until `finish` renames it.
    tmp: Option<PathBuf>,
    target: PathBuf,
    /// Directory entries of the segments written so far.
    segs: Vec<SegDesc>,
    /// Append cursor.
    end: u64,
    /// Optional fault shim consulted before every physical I/O op.
    shim: Option<Arc<dyn PoolIoShim>>,
}

impl PoolWriter {
    /// Start a pool that will replace whatever is at `path` when
    /// [`finish`](Self::finish) renames it into place.
    pub fn replace(path: &Path) -> Result<PoolWriter, PoolError> {
        PoolWriter::replace_with(path, None)
    }

    /// [`replace`](Self::replace) with an optional I/O fault shim (see
    /// [`crate::shim`]); fault injection harnesses use this to fail a
    /// checkpoint rewrite at an exact write or sync.
    pub fn replace_with(
        path: &Path,
        shim: Option<Arc<dyn PoolIoShim>>,
    ) -> Result<PoolWriter, PoolError> {
        // The pid and a process-wide counter name the temp file, so no
        // two live writers ever share one.
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_file_name(format!(".{name}.tmp{}-{n}", std::process::id()));
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        Ok(PoolWriter {
            file,
            tmp: Some(tmp),
            target: path.to_path_buf(),
            segs: Vec::new(),
            end: HEADER_LEN,
            shim,
        })
    }

    /// Write the directory and the header that points at it, sync the
    /// file, and atomically rename it over the target path; then sync
    /// the parent directory so the rename itself is durable. A failure
    /// before the rename leaves the target untouched (and `Drop` removes
    /// the temp file); a failed directory sync is surfaced although the
    /// new pool is already installed, readable and whole, because the
    /// caller must not count the replace as durable.
    pub fn finish(mut self) -> Result<(), PoolError> {
        let dir = encode_directory(&self.segs);
        let off = align_up(self.end);
        self.write_at(off, &dir)?;
        let ptr = DirPtr { off, len: dir.len() as u64, hash: format::pool_hash(&dir) };
        self.write_at(0, &encode_header(ptr))?;
        self.with_retry(IoOp::SyncAll, || self.file.sync_all())?;
        let tmp = self.tmp.as_ref().expect("the temp file exists until the rename");
        std::fs::rename(tmp, &self.target)?;
        self.tmp = None;
        // An unopenable directory is tolerated (not every filesystem
        // allows `open` on directories); a failed fsync on an open one is
        // a real durability signal and propagates.
        let parent = self.target.parent().map(Path::to_path_buf).unwrap_or_default();
        let dir = if parent.as_os_str().is_empty() { PathBuf::from(".") } else { parent };
        let Ok(d) = File::open(&dir) else { return Ok(()) };
        self.with_retry(IoOp::DirSync, || d.sync_all())
    }

    /// Append one raw segment.
    pub fn append_raw(
        &mut self,
        kind: u16,
        stream: u16,
        rows: u64,
        payload: &[u8],
    ) -> Result<(), PoolError> {
        self.append_hashed(kind, stream, rows, payload, format::pool_hash(payload))
    }

    /// Append one segment whose [`pool_hash`](format::pool_hash) the
    /// caller already computed.
    fn append_hashed(
        &mut self,
        kind: u16,
        stream: u16,
        rows: u64,
        payload: &[u8],
        hash: u64,
    ) -> Result<(), PoolError> {
        let offset = align_up(self.end);
        self.write_at(offset, payload)?;
        self.segs.push(SegDesc { kind, stream, offset, len: payload.len() as u64, rows, hash });
        self.end = offset + payload.len() as u64;
        Ok(())
    }

    /// Append a full dataset stream (all columnar segments + metadata +
    /// persisted index) under stream id `stream`. The stream must not
    /// already exist in the pool.
    pub fn append_dataset(
        &mut self,
        stream: u16,
        ds: &Dataset,
        index: &DatasetIndex,
    ) -> Result<(), PoolError> {
        self.append_encoded(dscodec::encode_dataset(stream, ds, index)?)
    }

    /// Append a dataset stream encoded beforehand by
    /// [`encode_dataset`](dscodec::encode_dataset) — possibly on another
    /// thread — so this writer only writes its bytes. The stream must not
    /// already exist in the pool.
    pub fn append_encoded(&mut self, enc: EncodedDataset) -> Result<(), PoolError> {
        let stream = enc.stream;
        if self.segs.iter().any(|s| s.stream == stream && s.kind != format::kind::RAW) {
            return Err(PoolError::Corrupt {
                what: format!("dataset stream {stream} already present in pool"),
            });
        }
        for seg in &enc.segs {
            self.append_hashed(seg.kind, stream, seg.rows, &seg.bytes, seg.hash)?;
        }
        Ok(())
    }

    /// Run one shimmed sync, retrying exactly once on a transient error
    /// (`Interrupted`/`WouldBlock`/`TimedOut`). The shim is re-consulted
    /// on the retry, so a schedule can also inject back-to-back failures.
    fn with_retry(
        &self,
        op: IoOp,
        mut f: impl FnMut() -> std::io::Result<()>,
    ) -> Result<(), PoolError> {
        // Sync ops only ever Proceed or Fail; the write path (with its
        // short-write handling) lives in `write_at_once`.
        let mut once = || -> std::io::Result<()> {
            if let Some(s) = &self.shim {
                match s.check(op) {
                    Verdict::Proceed => {}
                    Verdict::Fail(e) => return Err(e),
                    Verdict::ShortWrite(_) => {
                        return Err(std::io::Error::other("injected fault on sync op"))
                    }
                }
            }
            f()
        };
        match once() {
            Err(e) if is_transient(&e) => once().map_err(PoolError::Io),
            r => r.map_err(PoolError::Io),
        }
    }

    fn write_at(&mut self, off: u64, bytes: &[u8]) -> Result<(), PoolError> {
        match self.write_at_once(off, bytes) {
            Err(PoolError::Io(e)) if is_transient(&e) => self.write_at_once(off, bytes),
            r => r,
        }
    }

    /// One positioned-write attempt, routed through the shim. A
    /// [`Verdict::ShortWrite`] persists a prefix then fails — the torn
    /// write a crash between write and sync would leave behind.
    fn write_at_once(&mut self, off: u64, bytes: &[u8]) -> Result<(), PoolError> {
        if let Some(s) = &self.shim {
            match s.check(IoOp::Write { off, len: bytes.len() }) {
                Verdict::Proceed => {}
                Verdict::Fail(e) => return Err(e.into()),
                Verdict::ShortWrite(n) => {
                    let n = n.min(bytes.len());
                    self.file.seek(SeekFrom::Start(off))?;
                    self.file.write_all(&bytes[..n])?;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        format!("injected short write: {n} of {} bytes", bytes.len()),
                    )
                    .into());
                }
            }
        }
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(bytes)?;
        Ok(())
    }
}

impl Drop for PoolWriter {
    fn drop(&mut self) {
        // An unfinished writer (finish never ran, or it failed before the
        // rename) never touched the target: its temp file is garbage.
        if let Some(tmp) = &self.tmp {
            let _ = std::fs::remove_file(tmp);
        }
    }
}
