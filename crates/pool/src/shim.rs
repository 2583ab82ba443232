//! Injectable I/O fault shim for the pool writer.
//!
//! Production storage fails in ways unit tests never exercise by
//! accident: the disk fills mid-checkpoint (`ENOSPC`), a write lands
//! short, an `fsync` reports the dirty page it could not retire. The
//! writer consults an optional [`PoolIoShim`] immediately before every
//! physical operation — segment/directory/header writes, the one file
//! sync before the rename, and the parent-directory sync that makes the
//! rename durable — so a deterministic fault schedule can hit any of
//! them at an exact operation ordinal.
//!
//! The shim sees *logical* operations, not file descriptors: it decides
//! [`Verdict::Proceed`], [`Verdict::Fail`] with an injected
//! `io::Error`, or [`Verdict::ShortWrite`] (the writer persists only a
//! prefix, then errors — a torn write, which the temp file confines). Transient injected
//! errors also exercise the writer's retry-once path: an
//! `Interrupted`/`WouldBlock`/`TimedOut` failure is retried exactly
//! once before surfacing.
//!
//! The default (no shim installed) costs one `Option` check per I/O
//! call; the production path is untouched.

use std::io;

/// One physical pool I/O operation, as seen by a [`PoolIoShim`] just
/// before it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A positioned write of `len` bytes at file offset `off` (segment
    /// payload, directory, or header).
    Write {
        /// Absolute file offset.
        off: u64,
        /// Bytes about to be written.
        len: usize,
    },
    /// `sync_all` on the pool file (pre-rename durability barrier).
    SyncAll,
    /// `sync_all` on the parent directory (makes a replace-rename
    /// durable).
    DirSync,
}

impl IoOp {
    /// Whether this operation is a write (as opposed to a sync barrier).
    pub fn is_write(&self) -> bool {
        matches!(self, IoOp::Write { .. })
    }

    /// Whether this operation is a sync barrier of any kind.
    pub fn is_sync(&self) -> bool {
        !self.is_write()
    }
}

/// A shim's decision for one [`IoOp`].
#[derive(Debug)]
pub enum Verdict {
    /// Perform the operation normally.
    Proceed,
    /// Skip the operation and surface this error instead.
    Fail(io::Error),
    /// Writes only: persist the first `n` bytes, then fail with
    /// `WriteZero` — a torn write. For sync ops this degrades to a
    /// plain failure.
    ShortWrite(usize),
}

/// Consulted by [`PoolWriter`](crate::PoolWriter) before each physical
/// I/O operation. Implementations must be cheap and lock-free-ish: the
/// writer calls this on its hot append path.
pub trait PoolIoShim: Send + Sync {
    /// Decide the fate of `op`.
    fn check(&self, op: IoOp) -> Verdict;
}

/// Whether an I/O error is worth one retry (spurious interruption
/// rather than a persistent storage condition).
pub fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}
