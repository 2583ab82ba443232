//! # mobitrace-query
//!
//! The streaming query layer: a small filter language over the columnar
//! dataset layout, a predicate compiler producing row-selection vectors,
//! and a query executor that serves the existing analysis passes from
//! filtered views of any snapshot — live engine generations, `.mtpool`
//! generations, or batch datasets — without rewriting a single pass.
//!
//! The pipeline is deliberately three small stages:
//!
//! 1. **Parse** ([`expr`]): `--where "venue=home && day>=180"` →
//!    [`FilterExpr`]. Errors carry the byte offset and an expected-token
//!    hint; malformed user input never panics.
//! 2. **Compile** ([`filter`]): a [`FilterExpr`] is evaluated over
//!    [`DatasetColumns`](mobitrace_model::DatasetColumns) into an
//!    ascending row-selection vector, which becomes a columns-only view
//!    once per snapshot generation: columns are gathered
//!    ([`DatasetColumns::gather`](mobitrace_model::DatasetColumns::gather))
//!    and the bin-range index is rebuilt from the gathered device/time
//!    columns ([`filtered_parts`](filter::filtered_parts)). No row is
//!    cloned; [`materialize`](filter::materialize) rebuilds the selected
//!    rows only for callers that want a self-contained dataset.
//! 3. **Execute** ([`exec`]): the filtered view feeds
//!    `AnalysisContext::from_parts` and the unchanged columnar passes
//!    (offload potential, RSSI PDFs, venue shares, cap throttling,
//!    aggregate WiFi share) produce one serializable
//!    [`MetricPayload`](exec::MetricPayload) per registered query per
//!    generation — the JSONL records `mobitrace serve` streams.
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
