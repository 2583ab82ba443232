//! Typed pool errors.
//!
//! Every way a `.mtpool` file can be malformed — truncation, bit rot,
//! version skew, a damaged header or directory — maps to a distinct
//! variant here. The reader's contract is that corrupt input *always*
//! surfaces as one of these, never as a panic or out-of-bounds access,
//! so the corruption tests can assert on variants.

/// Everything that can go wrong opening, reading, or writing a pool.
#[derive(Debug)]
#[non_exhaustive]
pub enum PoolError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the `MTPOOL1\0` magic.
    BadMagic,
    /// The file claims a format version other than the one this reader
    /// decodes (older or newer).
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The file is shorter than a structure it claims to contain.
    Truncated {
        /// What was being read.
        what: &'static str,
        /// Bytes required.
        need: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// A checksum over a segment, the directory, or the header did not
    /// match.
    ChecksumMismatch {
        /// What failed verification.
        what: String,
    },
    /// Structurally invalid contents inside a checksummed segment (e.g.
    /// inconsistent column lengths) — corruption the checksum cannot see
    /// because it was written that way, or a codec bug.
    Corrupt {
        /// Description of the inconsistency.
        what: String,
    },
    /// A segment the decoder needs is absent from the directory.
    MissingSegment {
        /// Segment kind (see [`crate::format`]).
        kind: u16,
        /// Stream id.
        stream: u16,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Io(e) => write!(f, "pool i/o error: {e}"),
            PoolError::BadMagic => write!(f, "not a .mtpool file (bad magic)"),
            PoolError::BadVersion { found, supported } => {
                write!(
                    f,
                    "pool format version {found} not supported (this build reads {supported})"
                )
            }
            PoolError::Truncated { what, need, have } => {
                write!(f, "pool truncated reading {what}: need {need} bytes, have {have}")
            }
            PoolError::ChecksumMismatch { what } => write!(f, "pool checksum mismatch: {what}"),
            PoolError::Corrupt { what } => write!(f, "pool segment corrupt: {what}"),
            PoolError::MissingSegment { kind, stream } => {
                write!(f, "pool missing segment kind {kind} for stream {stream}")
            }
        }
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PoolError {
    fn from(e: std::io::Error) -> PoolError {
        PoolError::Io(e)
    }
}
