//! The serialized pool appender.
//!
//! One `PoolWriter` holds the file's exclusive advisory lock for its
//! lifetime, so at most one process appends at a time while any number
//! of [`PoolReader`](crate::PoolReader)s map the same file. Writes are
//! strictly append-only; a publication ([`commit`](PoolWriter::commit))
//! appends the full directory, syncs data, then flips the older header
//! slot to the new epoch and syncs again. A crash at any point leaves
//! the previous epoch intact (unpublished tail bytes are simply
//! overwritten by the next writer).
//!
//! To rewrite a pool from scratch — rather than append to it — use
//! [`PoolWriter::replace`], which stages the new pool in a temp file and
//! installs it with an atomic rename at [`finish`](PoolWriter::finish);
//! the old file survives a crash mid-rewrite and stays mapped-valid for
//! concurrent readers. [`create`](PoolWriter::create) truncates in place
//! and is only safe for paths no reader has open.

use crate::dscodec::{self, EncodedDataset};
use crate::err::PoolError;
use crate::format::{
    self, align_up, encode_directory, encode_slot, DirSlot, SegDesc, HEADER_LEN, MAGIC,
    SLOT_OFFSETS, VERSION,
};
use crate::mmap::try_lock_exclusive;
use crate::reader::parse_pool;
use crate::shim::{is_transient, IoOp, PoolIoShim, Verdict};
use mobitrace_model::{Dataset, DatasetColumns, DatasetIndex};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Append-only writer over one `.mtpool` file.
pub struct PoolWriter {
    file: File,
    path: PathBuf,
    /// Full directory to publish at the next commit (committed entries
    /// plus appended-but-unpublished ones).
    segs: Vec<SegDesc>,
    /// Last published epoch (0 for a fresh pool).
    epoch: u64,
    /// Append cursor.
    end: u64,
    /// Entries in `segs` already covered by a published directory.
    published: usize,
    /// When set, the writer is building a temp file and
    /// [`finish`](Self::finish) atomically renames it over this path.
    replace_target: Option<PathBuf>,
    /// Optional fault shim consulted before every physical I/O op.
    shim: Option<Arc<dyn PoolIoShim>>,
}

impl PoolWriter {
    /// Create (or truncate) a pool at `path` and take the writer lock.
    ///
    /// **Truncates in place.** `path` must not be a pool that live
    /// readers may currently have mapped: truncation shrinks the inode
    /// under their mapping and the next page fault past the new EOF is
    /// fatal (`SIGBUS`). The "readers stay safe alongside one writer"
    /// guarantee only covers appends to an existing pool
    /// ([`open_append`](Self::open_append)). To rewrite a pool other
    /// processes may be reading — or to replace one that must stay
    /// durable if this process dies mid-write — use
    /// [`replace`](Self::replace) instead, which builds the new pool in
    /// a temp file and atomically renames it into place (existing maps
    /// keep referencing the old inode).
    pub fn create(path: &Path) -> Result<PoolWriter, PoolError> {
        PoolWriter::create_with(path, None)
    }

    /// [`create`](Self::create) with an optional I/O fault shim (see
    /// [`crate::shim`]) installed before the first header write, so a
    /// fault schedule can hit every operation the writer performs.
    pub fn create_with(
        path: &Path,
        shim: Option<Arc<dyn PoolIoShim>>,
    ) -> Result<PoolWriter, PoolError> {
        // Truncation is deferred to the set_len below, *after* the writer
        // lock is held, so losing the lock race never clobbers the file.
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        if !try_lock_exclusive(&file)? {
            return Err(PoolError::Locked { path: path.to_path_buf() });
        }
        file.set_len(0)?;
        let mut w = PoolWriter {
            file,
            path: path.to_path_buf(),
            segs: Vec::new(),
            epoch: 0,
            end: HEADER_LEN,
            published: 0,
            replace_target: None,
            shim,
        };
        let mut header = vec![0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&VERSION.to_le_bytes());
        header[12..16].copy_from_slice(&(HEADER_LEN as u32).to_le_bytes());
        w.write_at(0, &header)?;
        w.sync(IoOp::SyncData)?;
        Ok(w)
    }

    /// Open an existing pool for appending: takes the lock, adopts the
    /// published directory, and positions the cursor past all published
    /// bytes (a crashed predecessor's unpublished tail is overwritten).
    pub fn open_append(path: &Path) -> Result<PoolWriter, PoolError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        if !try_lock_exclusive(&file)? {
            return Err(PoolError::Locked { path: path.to_path_buf() });
        }
        let bytes = std::fs::read(path)?;
        let parsed = parse_pool(&bytes)?;
        let mut end = HEADER_LEN;
        for s in &parsed.segs {
            end = end.max(s.offset.saturating_add(s.len));
        }
        if let Some(slot) = parsed.slot {
            end = end.max(slot.dir_off.saturating_add(slot.dir_len));
        }
        let published = parsed.segs.len();
        Ok(PoolWriter {
            file,
            path: path.to_path_buf(),
            epoch: parsed.slot.map_or(0, |s| s.epoch),
            segs: parsed.segs,
            end: align_up(end),
            published,
            replace_target: None,
            shim: None,
        })
    }

    /// Build a pool that will *replace* whatever is at `path`, without
    /// disturbing it until publication: writes go to a hidden temp
    /// sibling, and [`finish`](Self::finish) syncs it and atomically
    /// `rename`s it over `path`. A crash at any point — including while
    /// this writer is mid-write — leaves the previous file at `path`
    /// fully intact, and readers holding a map of the old file keep a
    /// valid view of the old inode. Dropping the writer without calling
    /// `finish` removes the temp file and leaves `path` untouched.
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
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        let tmp = path.with_file_name(format!(".{name}.tmp{}", std::process::id()));
        let mut w = PoolWriter::create_with(&tmp, shim)?;
        w.replace_target = Some(path.to_path_buf());
        Ok(w)
    }

    /// Publish everything appended so far and, for a
    /// [`replace`](Self::replace) writer, atomically install the temp
    /// file over the target path (syncing file and directory first).
    /// For a plain [`create`](Self::create)/[`open_append`](Self::open_append)
    /// writer this is just [`commit`](Self::commit) by value. Returns
    /// the published epoch.
    pub fn finish(mut self) -> Result<u64, PoolError> {
        let epoch = self.commit()?;
        if let Some(target) = self.replace_target.take() {
            // Failing before the rename leaves the target untouched; put
            // the replace marker back so Drop removes the temp file.
            if let Err(e) = self.sync(IoOp::SyncAll) {
                self.replace_target = Some(target);
                return Err(e);
            }
            if let Err(e) = std::fs::rename(&self.path, &target) {
                self.replace_target = Some(target);
                return Err(e.into());
            }
            self.path = target;
            // Make the rename itself durable: fsync the parent directory.
            // The new file is already installed at this point, so a
            // failure here is surfaced — the caller must treat the
            // replace as not-yet-durable — but the target is readable
            // and self-consistent either way.
            self.dir_sync()?;
        }
        Ok(epoch)
    }

    /// Fsync the parent directory of the (post-rename) pool path. An
    /// unopenable directory is tolerated (not every filesystem allows
    /// `open` on directories); a *failed* fsync on an open directory
    /// handle is a real durability signal and propagates.
    fn dir_sync(&mut self) -> Result<(), PoolError> {
        let parent = self.path.parent().map(Path::to_path_buf).unwrap_or_default();
        let dir = if parent.as_os_str().is_empty() { PathBuf::from(".") } else { parent };
        let Ok(d) = File::open(&dir) else { return Ok(()) };
        self.with_retry(IoOp::DirSync, |_| d.sync_all())
    }

    /// The pool file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Last published epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Directory entries (published and pending).
    pub fn segments(&self) -> &[SegDesc] {
        &self.segs
    }

    /// Append one raw segment; visible to readers only after
    /// [`commit`](Self::commit).
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
    /// already exist in the pool. `cols` are the rows: `ds.bins` may be
    /// empty (a columns-only live generation) and otherwise must match.
    pub fn append_dataset(
        &mut self,
        stream: u16,
        ds: &Dataset,
        index: &DatasetIndex,
        cols: &DatasetColumns,
    ) -> Result<(), PoolError> {
        self.append_encoded(dscodec::encode_dataset(stream, ds, index, cols)?)
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

    /// Publish everything appended so far: write the directory, sync,
    /// flip the older slot to epoch+1, sync. Returns the new epoch.
    /// A no-op (returning the current epoch) when nothing is pending.
    pub fn commit(&mut self) -> Result<u64, PoolError> {
        if self.published == self.segs.len() && self.epoch != 0 {
            return Ok(self.epoch);
        }
        let dir = encode_directory(&self.segs);
        let dir_off = align_up(self.end);
        self.write_at(dir_off, &dir)?;
        self.end = dir_off + dir.len() as u64;
        self.sync(IoOp::SyncData)?;

        let slot = DirSlot {
            epoch: self.epoch + 1,
            dir_off,
            dir_len: dir.len() as u64,
            dir_hash: format::pool_hash(&dir),
        };
        // Alternate slots: epoch 1 → slot A, epoch 2 → slot B, … so the
        // slot being overwritten is never the one a reader of the
        // current epoch depends on.
        let slot_off = SLOT_OFFSETS[((slot.epoch + 1) % 2) as usize];
        self.write_at(slot_off, &encode_slot(&slot))?;
        self.sync(IoOp::SyncData)?;
        self.epoch = slot.epoch;
        self.published = self.segs.len();
        Ok(self.epoch)
    }

    /// Run one shimmed I/O attempt, retrying exactly once on a transient
    /// error (`Interrupted`/`WouldBlock`/`TimedOut`). The shim is
    /// re-consulted on the retry, so a schedule can also inject
    /// back-to-back failures.
    fn with_retry(
        &self,
        op: IoOp,
        mut f: impl FnMut(&File) -> std::io::Result<()>,
    ) -> Result<(), PoolError> {
        // Sync ops only ever Proceed or Fail; the write path (with its
        // short-write handling) lives in `write_at_once`.
        let mut once = |file: &File| -> std::io::Result<()> {
            if let Some(s) = &self.shim {
                match s.check(op) {
                    Verdict::Proceed => {}
                    Verdict::Fail(e) => return Err(e),
                    Verdict::ShortWrite(_) => {
                        return Err(std::io::Error::other("injected fault on sync op"))
                    }
                }
            }
            f(file)
        };
        match once(&self.file) {
            Err(e) if is_transient(&e) => once(&self.file).map_err(PoolError::Io),
            r => r.map_err(PoolError::Io),
        }
    }

    /// A shimmed sync barrier on the pool file.
    fn sync(&mut self, op: IoOp) -> Result<(), PoolError> {
        self.with_retry(op, |file| match op {
            IoOp::SyncAll => file.sync_all(),
            _ => file.sync_data(),
        })
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
        // An abandoned replace (finish never ran, or it failed before the
        // rename) leaves its temp sibling behind; the target was never
        // touched, so the temp is pure garbage — remove it.
        if self.replace_target.is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}
