//! # mobitrace-query
//!
//! The streaming query layer: a small filter language over the columnar
//! dataset layout, a predicate compiler producing row-selection vectors,
//! and a query executor that serves the existing analysis passes over
//! filtered rows of any snapshot — live engine generations, `.mtpool`
//! generations, or batch datasets — read in place, with one body per
//! pass.
//!
//! The pipeline is deliberately three small stages:
//!
//! 1. **Parse** ([`expr`]): `--where "venue=home && day>=180"` →
//!    [`FilterExpr`]. Errors carry the byte offset and an expected-token
//!    hint; malformed user input never panics.
//! 2. **Compile** ([`filter`]): a [`FilterExpr`] is evaluated over
//!    [`DatasetColumns`](mobitrace_model::DatasetColumns) into an
//!    ascending row-selection vector, once per snapshot generation.
//!    [`materialize`] turns a selection into a
//!    self-contained dataset for callers that want one; serving never
//!    does.
//! 3. **Execute** ([`exec`]): the selection is read in place — a
//!    [`Selection`](mobitrace_model::Selection) row set over the
//!    snapshot's own columns — by the columnar passes (offload potential,
//!    RSSI PDFs, venue shares, cap throttling, aggregate WiFi share),
//!    which produce one serializable
//!    [`MetricPayload`] per registered query per
//!    generation — the JSONL records `mobitrace serve` streams. No
//!    gathered view is built on the serve path.
//!
//! The contract the property tests pin: a filtered query is
//! **bit-identical** to eagerly materializing the filtered dataset and
//! running the batch pipeline over it. Filtering is a view, never an
//! approximation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod expr;
pub mod filter;

pub use exec::{evaluate_payload, watermark_minute, MetricPayload, Query, QuerySet, ServeRecord};
pub use expr::{parse, CmpOp, FilterExpr, ParseError, Predicate, WifiClass};
pub use filter::{cohort_of, materialize, select_rows, CompileOptions, FilteredDataset};
