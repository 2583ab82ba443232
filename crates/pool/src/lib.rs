//! # mobitrace-pool
//!
//! The memory-mapped single-file columnar pool: `.mtpool`.
//!
//! Re-analysis is the dominant workload of the longitudinal study — the
//! same three campaign years are analyzed many ways — so loading must
//! not pay a parse + transpose every time. A pool stores datasets
//! column by column, each [`DatasetColumns`] column varint- or
//! delta-encoded (see [`dscodec`]), so loading is an mmap plus one
//! bounds-checked varint sweep per column — no serde on the hot
//! columns, no per-record parse, no transpose, and the persisted
//! [`DatasetIndex`] means no re-index either. It is the only persisted
//! form of a campaign set: it beat the JSON dataset files it replaced
//! 14× and full resimulation 5× (see README "Persistence"), and
//! `mtbench`'s `pool_reopen` workload times save and reopen end to end.
//!
//! Format in one breath (details in `format` and DESIGN.md §3i): a
//! 128-byte header with two checksummed publication slots, append-only
//! 8-aligned segments, an append-only segment directory, per-segment
//! checksums, and atomic publication by flipping the older slot —
//! many concurrent mmap readers stay safe while one locked writer
//! appends.
//!
//! ```no_run
//! use mobitrace_pool::{PoolReader, PoolWriter};
//! # fn demo(ds: &mobitrace_model::Dataset) -> Result<(), mobitrace_pool::PoolError> {
//! let index = mobitrace_model::DatasetIndex::build(ds);
//! let cols = mobitrace_model::DatasetColumns::build(ds);
//! let mut w = PoolWriter::create(std::path::Path::new("campaigns.mtpool"))?;
//! w.append_dataset(0, ds, &index, &cols)?;
//! w.commit()?;
//!
//! let r = PoolReader::open(std::path::Path::new("campaigns.mtpool"))?;
//! let pd = r.decode_dataset(0)?; // → AnalysisContext::from_parts(&pd.ds, pd.index, pd.cols)
//! # Ok(()) }
//! ```

#![warn(missing_docs)]

pub mod dscodec;
pub mod err;
pub mod format;
pub mod le;
pub mod mmap;
pub mod reader;
pub mod shim;
pub mod writer;

pub use dscodec::{encode_dataset, EncodedDataset};
pub use err::PoolError;
pub use format::{kind, SegDesc, VERSION};
pub use reader::{PoolDataset, PoolReader, VerifyReport};
pub use shim::{IoOp, PoolIoShim, Verdict};
pub use writer::PoolWriter;

// Doc-link anchors.
#[allow(unused_imports)]
use mobitrace_model::{DatasetColumns, DatasetIndex};
