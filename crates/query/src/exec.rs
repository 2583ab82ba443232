//! Query executor: registered queries evaluated against snapshot
//! generations, producing serializable JSONL records.
//!
//! A [`QuerySet`] holds the parsed queries from the CLI's repeated
//! `--where` flags (plus the implicit unfiltered query). Each snapshot
//! generation — a live-engine compaction, a `.mtpool` epoch, or a batch
//! dataset — is evaluated without touching a row table and without
//! copying a column, so columns-only live generations (empty `ds.bins`)
//! serve exactly like batch datasets:
//!
//! * every query runs the payload passes over the snapshot's own columns
//!   and a row set ([`RowSet`]): [`AllRows`] for the unfiltered query,
//!   the compiled selection vector ([`Selection`]) for a filtered one.
//!   Each query classifies the APs and aggregates the user-days of its
//!   own row set, so a filtered payload is bit-identical to the batch
//!   pipeline over the filtered rows, and the unfiltered payload to the
//!   batch pipeline over the snapshot — the invariant the serve gate
//!   asserts at end of campaign;
//! * the snapshot's AP classification is computed at most once per
//!   generation and shared by every venue predicate and the unfiltered
//!   query.

use crate::expr::{parse, FilterExpr, ParseError};
use crate::filter::{select_rows_with, CompileOptions};
use mobitrace_core::apclass::{classify_cols, classify_over, ApClassification};
use mobitrace_core::availability::{offload_potential_over, OffloadPotential};
use mobitrace_core::cap::cap_analysis;
use mobitrace_core::daily::{user_days_cols, user_days_over, UserDay};
use mobitrace_core::quality::{rssi_analysis_over, RssiAnalysis};
use mobitrace_core::timeseries::{aggregate_series_over, venue_series_over};
use mobitrace_core::AnalysisContext;
use mobitrace_model::{AllRows, Dataset, DatasetColumns, DatasetIndex, RowSet, Selection};
use serde::Serialize;
use std::time::Instant;

/// One registered query: an id for the output stream plus the parsed
/// filter (`None` = unfiltered, evaluate the whole snapshot).
#[derive(Debug, Clone)]
pub struct Query {
    /// Identifier echoed into every output record (`q1`, `q2`, … or a
    /// user-chosen name).
    pub id: String,
    /// The original `--where` source string (empty for unfiltered);
    /// echoed into output records so a stream is self-describing.
    pub source: String,
    /// Parsed filter; `None` evaluates the unfiltered snapshot.
    pub expr: Option<FilterExpr>,
}

impl Query {
    /// The implicit whole-snapshot query.
    pub fn unfiltered(id: impl Into<String>) -> Query {
        Query { id: id.into(), source: String::new(), expr: None }
    }

    /// Parse a `--where` string into a registered query.
    pub fn parse(id: impl Into<String>, source: &str) -> Result<Query, ParseError> {
        Ok(Query { id: id.into(), source: source.to_string(), expr: Some(parse(source)?) })
    }
}

/// The metric payload of one (query, generation) evaluation: the
/// paper's headline live-watchable figures, computed by the batch passes
/// over the (possibly filtered) rows.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricPayload {
    /// Bins in the evaluated view.
    pub bins: usize,
    /// Devices with at least one bin in the view.
    pub devices: usize,
    /// WiFi share of total volume (Fig. 2 headline).
    pub wifi_share: f64,
    /// §3.5 offload-potential estimate (Fig. 17).
    pub offload: OffloadPotential,
    /// Fig. 15 per-venue RSSI PDFs.
    pub rssi: RssiAnalysis,
    /// WiFi volume shares per venue (home, public, office) — Fig. 12.
    pub venue_shares: (f64, f64, f64),
    /// Share of capped users throttled at month end (Fig. 19).
    pub cap_capped_user_share: f64,
    /// Median capped-vs-uncapped gap (bytes).
    pub cap_median_gap: f64,
}

/// Run the payload passes over a built context. Every pass is the same
/// function the batch pipeline calls, so payload equality against batch
/// output is equality of the underlying figures.
pub fn evaluate_payload(ctx: &AnalysisContext<'_>) -> MetricPayload {
    payload_over(ctx.ds, &ctx.cols, &AllRows, &ctx.aps, &ctx.days)
}

/// The payload of the rows `rows` of `cols`, given their AP
/// classification and user-days (each computed over the same row set).
fn payload_over(
    ds: &Dataset,
    cols: &DatasetColumns,
    rows: &impl RowSet,
    aps: &ApClassification,
    days: &[UserDay],
) -> MetricPayload {
    let series = aggregate_series_over(ds, cols, rows);
    let venues = venue_series_over(ds, cols, rows, aps);
    let cap = cap_analysis(days);
    MetricPayload {
        bins: rows.len(cols),
        // User-days are in device order, one run of days per device.
        devices: days.windows(2).filter(|w| w[0].device != w[1].device).count()
            + usize::from(!days.is_empty()),
        wifi_share: series.wifi_share(),
        offload: offload_potential_over(ds, cols, rows),
        rssi: rssi_analysis_over(cols, rows, aps),
        venue_shares: venues.shares,
        cap_capped_user_share: cap.capped_user_share,
        cap_median_gap: cap.median_gap,
    }
}

/// High-water mark of a snapshot: the largest bin-start minute present,
/// or `None` for an empty snapshot. Streams report it so a consumer can
/// tell how far into the campaign each generation reaches.
pub fn watermark_minute(cols: &DatasetColumns) -> Option<u32> {
    cols.time.iter().map(|t| t.minute).max()
}

/// One JSONL output record: query identity, snapshot provenance, and the
/// metric payload.
///
/// `Serialize` is implemented by hand (not derived) because the JSONL
/// schema names the filter key `where` — a Rust keyword the field cannot
/// be called.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRecord {
    /// Registered query id.
    pub query: String,
    /// The query's `--where` source (empty = unfiltered); serialized
    /// under the key `where`.
    pub filter: String,
    /// Snapshot generation (live compaction count, pool epoch, or 0 for
    /// one-shot batch).
    pub generation: u64,
    /// Snapshot high-water mark in campaign minutes.
    pub watermark: Option<u32>,
    /// Rows selected by the filter (bins in the evaluated view).
    pub rows: usize,
    /// Wall-clock seconds this evaluation took (compile + passes).
    pub elapsed_s: f64,
    /// The metric payload.
    pub metrics: MetricPayload,
}

impl Serialize for ServeRecord {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::Composite;
        let mut state = serializer.serialize_struct("ServeRecord", 7)?;
        state.serialize_field("query", &self.query)?;
        state.serialize_field("where", &self.filter)?;
        state.serialize_field("generation", &self.generation)?;
        state.serialize_field("watermark", &self.watermark)?;
        state.serialize_field("rows", &self.rows)?;
        state.serialize_field("elapsed_s", &self.elapsed_s)?;
        state.serialize_field("metrics", &self.metrics)?;
        state.end()
    }
}

/// A set of registered queries evaluated together against each snapshot
/// generation.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// Registered queries, evaluated in order.
    pub queries: Vec<Query>,
    /// Compiler options (cohort count).
    pub opts: CompileOptions,
}

impl QuerySet {
    /// Evaluate every registered query against one snapshot generation.
    /// The snapshot arrives as (dataset, index, columns) — exactly what a
    /// `LiveSnapshot`, a decoded pool generation, or a batch dataset
    /// provides; `cols` are the rows and `ds.bins` may be empty — and
    /// each query returns one [`ServeRecord`]. The passes read only the
    /// columns; `index` must describe the same rows.
    pub fn evaluate(
        &self,
        ds: &Dataset,
        index: &DatasetIndex,
        cols: &DatasetColumns,
        generation: u64,
        watermark: Option<u32>,
    ) -> Vec<ServeRecord> {
        debug_assert!(ds.bins.is_empty() || ds.bins.len() == cols.len());
        debug_assert_eq!(index.n_bins(), cols.len(), "index and columns disagree");
        // The whole snapshot's classification, shared by the unfiltered
        // query and every venue predicate; built on first use.
        let mut snapshot_aps: Option<ApClassification> = None;
        let mut out = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let start = Instant::now();
            let metrics = match &q.expr {
                None => {
                    let aps = snapshot_aps.get_or_insert_with(|| classify_cols(ds, cols));
                    payload_over(ds, cols, &AllRows, aps, &user_days_cols(cols))
                }
                Some(expr) => {
                    if expr.uses_venue() && snapshot_aps.is_none() {
                        snapshot_aps = Some(classify_cols(ds, cols));
                    }
                    let sel = select_rows_with(expr, ds, cols, snapshot_aps.as_ref(), self.opts);
                    let rows = Selection::new(cols, sel);
                    let aps = classify_over(ds, cols, &rows);
                    payload_over(ds, cols, &rows, &aps, &user_days_over(cols, &rows))
                }
            };
            out.push(ServeRecord {
                query: q.id.clone(),
                filter: q.source.clone(),
                generation,
                watermark,
                rows: metrics.bins,
                elapsed_s: start.elapsed().as_secs_f64(),
                metrics,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parse_propagates_errors() {
        assert!(Query::parse("q1", "venue=home").is_ok());
        let err = Query::parse("q1", "venue=mars").unwrap_err();
        assert_eq!(err.offset, 6);
    }

    #[test]
    fn serve_record_serializes_with_where_key() {
        let q = Query::parse("q1", "day>=1").unwrap();
        assert_eq!(q.source, "day>=1");
        // The JSONL schema promises a "where" key, not "filter".
        let rec = ServeRecord {
            query: "q1".into(),
            filter: "day>=1".into(),
            generation: 3,
            watermark: Some(1440),
            rows: 0,
            elapsed_s: 0.0,
            metrics: MetricPayload {
                bins: 0,
                devices: 0,
                wifi_share: 0.0,
                offload: Default::default(),
                rssi: empty_rssi(),
                venue_shares: (0.0, 0.0, 0.0),
                cap_capped_user_share: 0.0,
                cap_median_gap: 0.0,
            },
        };
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("\"where\":\"day>=1\""), "{json}");
        assert!(json.contains("\"generation\":3"), "{json}");
    }

    fn empty_rssi() -> RssiAnalysis {
        let ds = empty_dataset();
        let cols = DatasetColumns::build(&ds);
        let cls = classify_cols(&ds, &cols);
        mobitrace_core::quality::rssi_analysis(&cols, &cls)
    }

    fn empty_dataset() -> Dataset {
        use mobitrace_model::{CampaignMeta, Year};
        Dataset {
            meta: CampaignMeta {
                year: Year::Y2013,
                start: Year::Y2013.campaign_start(),
                days: 1,
                seed: 0,
            },
            devices: vec![],
            aps: vec![],
            bins: vec![],
        }
    }

    #[test]
    fn unfiltered_query_equals_batch_context() {
        // QuerySet's unfiltered path must produce the same payload as
        // building the context from scratch (the serve-gate invariant).
        let ds = crate::filter::tests::dataset();
        let index = DatasetIndex::build(&ds);
        let cols = DatasetColumns::build(&ds);
        let set = QuerySet {
            queries: vec![Query::unfiltered("all"), Query::parse("q1", "wifi=assoc").unwrap()],
            opts: CompileOptions::default(),
        };
        let recs = set.evaluate(&ds, &index, &cols, 7, watermark_minute(&cols));
        assert_eq!(recs.len(), 2);
        let batch = AnalysisContext::new(&ds);
        assert_eq!(recs[0].metrics, evaluate_payload(&batch));
        assert_eq!(recs[0].generation, 7);
        assert_eq!(recs[0].rows, ds.bins.len());
        // The filtered query saw only associated rows.
        assert_eq!(recs[1].rows, cols.sel_associated.len());
        assert!(recs[1].metrics.bins < recs[0].metrics.bins);
    }
}
