//! The query + serve layer's cross-crate contracts, pinned end to end:
//!
//! 1. `cohort=` predicates select exactly the devices the fleet frontend's
//!    [`CohortRouter`] routes to that cohort — the filter language and the
//!    ingest routing must never disagree about what a cohort is.
//! 2. `mobitrace pool export --where` round-trips: loading a filtered pool
//!    and analyzing it is bit-identical to running the same filter as a
//!    query over the original in-memory campaign set.
//! 3. `mobitrace serve --live` semantics: the observer sees ≥1 snapshot
//!    generation while ingest runs, and the final generation's query
//!    payloads (unfiltered and filtered) equal the batch pipeline over the
//!    same records.

use mobitrace_core::AnalysisContext;
use mobitrace_fleet::CohortRouter;
use mobitrace_model::{Dataset, DatasetIndex, DeviceId, Year};
use mobitrace_query::{
    cohort_of, evaluate_payload, materialize, parse, select_rows, watermark_minute, CompileOptions,
    Query, QuerySet,
};
use mobitrace_report::CampaignSet;
use std::path::PathBuf;

const SCALE: f64 = 0.012;
const SEED: u64 = 77;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mt-query-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The filter compiler's `cohort_of` must agree with the fleet router for
/// every device id and cohort count — a `--where "cohort=2"` query selects
/// exactly the devices cohort worker 2 ingests.
#[test]
fn cohort_predicate_matches_fleet_router() {
    for n_cohorts in [1usize, 2, 4, 7, 64] {
        let router = CohortRouter::new(n_cohorts);
        for raw in (0..20_000u32).step_by(37).chain([u32::MAX, u32::MAX - 1]) {
            let device = DeviceId(raw);
            assert_eq!(
                cohort_of(device, n_cohorts as u32),
                router.cohort_of(device),
                "device {raw} over {n_cohorts} cohorts"
            );
        }
    }
}

/// `pool export --where` round-trip: analyzing the filtered pool equals
/// filtering at query time over the original campaigns — same datasets,
/// same pool-carried views, same metric payloads.
#[test]
fn filtered_pool_export_round_trips() {
    let dir = scratch_dir("export");
    let pool_path = dir.join("filtered.mtpool");
    let set = CampaignSet::simulate(SCALE, SEED);
    let expr = parse("wifi!=off && day>=1").expect("static expression");
    let opts = CompileOptions::default();

    set.save_pool_filtered(&pool_path, &expr, opts).expect("save filtered pool");
    let (loaded, views) = CampaignSet::load_pool(&pool_path).expect("load filtered pool");
    let loaded_ctxs = loaded.contexts_with(views);

    for (i, ds) in set.years.iter().enumerate() {
        let cols = ds.bins.clone();
        let rows = select_rows(&expr, ds, &cols, opts);
        let view = materialize(ds, &cols, &rows);
        // The exported dataset IS the filtered view...
        assert_eq!(loaded.years[i], view.ds, "year index {i}");
        // ...and the pool-served context computes the same figures as the
        // query path over the original.
        assert_eq!(
            evaluate_payload(&loaded_ctxs[i]),
            evaluate_payload(&view.context()),
            "year index {i}"
        );
    }
    // The update-retaining 2015 stream is filtered too.
    let cols = set.update_2015.bins.clone();
    let rows = select_rows(&expr, &set.update_2015, &cols, opts);
    let view = materialize(&set.update_2015, &cols, &rows);
    assert_eq!(loaded.update_2015, view.ds);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve loop's live contract: queries evaluated against published
/// snapshots while ingest runs, and the final generation's payloads are
/// bit-identical to eager batch evaluation over the finished dataset.
#[test]
fn live_serve_final_generation_matches_batch() {
    use mobitrace_live::{run_live_campaign_observed, LiveOptions, SnapshotObserver};
    use mobitrace_sim::CampaignConfig;
    use std::sync::{Arc, Mutex};

    let mut cfg = CampaignConfig::scaled(Year::Y2015, 0.01).with_seed(SEED);
    cfg.days = 2;
    let qset = QuerySet {
        queries: vec![
            Query::unfiltered("all"),
            Query::parse("assoc", "wifi=assoc").expect("static expression"),
        ],
        opts: CompileOptions::default(),
    };
    let seen: Arc<Mutex<Vec<Vec<mobitrace_query::ServeRecord>>>> = Arc::default();
    let observer: SnapshotObserver = {
        let qset = qset.clone();
        let seen = Arc::clone(&seen);
        Box::new(move |snap, stats| {
            let recs = qset.evaluate(
                &snap.ds,
                &snap.index,
                &snap.cols,
                stats.compactions,
                watermark_minute(&snap.cols),
            );
            seen.lock().expect("seen lock").push(recs);
        })
    };
    let report = run_live_campaign_observed(&cfg, LiveOptions::default(), observer);
    assert!(report.divergence.is_none(), "live run diverged: {:?}", report.divergence);

    let seen = seen.lock().expect("seen lock");
    assert!(!seen.is_empty(), "observer saw no snapshot generations");
    let last = seen.last().expect("non-empty");
    assert_eq!(last.len(), 2);

    // The final observed snapshot is the finished campaign: its unfiltered
    // payload equals the batch pipeline's, its filtered payload equals an
    // eagerly filtered batch copy's.
    // The finished snapshot keeps its rows in `cols` alone.
    let snap = &report.finished.snapshot;
    let ds = &Dataset { bins: snap.cols.clone(), ..snap.ds.clone() };
    let batch = AnalysisContext::new(ds);
    assert_eq!(last[0].metrics, evaluate_payload(&batch));
    assert_eq!(last[0].rows, ds.bins.len());

    let expr = parse("wifi=assoc").expect("static expression");
    let rows = select_rows(&expr, ds, &batch.cols, CompileOptions::default());
    let view = materialize(ds, &batch.cols, &rows);
    assert_eq!(last[1].rows, rows.len());
    assert_eq!(last[1].metrics, evaluate_payload(&view.context()));

    // Every generation carried a watermark no later than the final one,
    // in non-decreasing order — the stream is monotone.
    let watermarks: Vec<_> = seen.iter().map(|recs| recs[0].watermark).collect();
    assert!(watermarks.windows(2).all(|w| w[0] <= w[1]), "watermarks regressed: {watermarks:?}");

    // JSONL shape: a serialized record exposes the documented keys.
    let line = serde_json::to_string(&last[1]).expect("serializable");
    for key in
        ["\"query\"", "\"where\"", "\"generation\"", "\"watermark\"", "\"rows\"", "\"metrics\""]
    {
        assert!(line.contains(key), "missing {key} in {line}");
    }

    // The index rebuilt for a rebuilt dataset must match a from-scratch
    // build (the serve layer never hands analysis a stale index).
    assert_eq!(view.index, DatasetIndex::build(&view.ds));
}
