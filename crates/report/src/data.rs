//! Campaign data management for the experiment harness.

use mobitrace_collector::{strip_update_days, CleanOptions};
use mobitrace_core::AnalysisContext;
use mobitrace_model::{Dataset, DatasetIndex, Year};
use mobitrace_pool::{encode_dataset, PoolError, PoolReader, PoolWriter};
use mobitrace_sim::{campaign::run_campaign_opts, CampaignConfig};
use std::borrow::Cow;
use std::path::Path;

/// Pool stream id of each year's cleaned dataset (by year index); the
/// update-retaining 2015 variant lives in stream [`UPDATE_STREAM`].
const YEAR_STREAMS: [u16; 3] = [0, 1, 2];
/// Pool stream id of the update-retaining 2015 dataset.
const UPDATE_STREAM: u16 = 3;

/// The indexes of the three years as decoded from a pool — with the
/// decoded bins, what an [`AnalysisContext`] needs without any rebuild
/// (see [`CampaignSet::contexts_with`]).
pub struct PoolViews {
    indexes: [DatasetIndex; 3],
}

/// The three simulated campaigns plus the 2015 variant that keeps the
/// iOS-update days (needed by the §3.7 analysis).
pub struct CampaignSet {
    /// Cleaned datasets for 2013/2014/2015 (update days removed in 2015,
    /// as in the paper's main analyses).
    pub years: [Dataset; 3],
    /// 2015 dataset with update days retained.
    pub update_2015: Dataset,
}

impl CampaignSet {
    /// Simulate all campaigns at a population scale (1.0 = the paper's
    /// ~1600–1755 users per year).
    ///
    /// The three campaign years are independent (each year re-derives its
    /// RNG streams from the seed), so they simulate concurrently: 2013 and
    /// 2014 on spawned threads, 2015 on the calling thread.
    pub fn simulate(scale: f64, seed: u64) -> CampaignSet {
        let sim_year = |year: Year| -> Dataset {
            let cfg = CampaignConfig::scaled(year, scale).with_seed(seed);
            let keep_updates =
                CleanOptions { remove_update_days: false, ..CleanOptions::default() };
            run_campaign_opts(&cfg, keep_updates).0
        };
        let (y2013, y2014, with_updates) = std::thread::scope(|scope| {
            let h13 = scope.spawn(|| sim_year(Year::Y2013));
            let h14 = scope.spawn(|| sim_year(Year::Y2014));
            let y2015 = sim_year(Year::Y2015);
            (h13.join().expect("2013 campaign"), h14.join().expect("2014 campaign"), y2015)
        });
        let (main_2015, _) = strip_update_days(&with_updates);
        CampaignSet { years: [y2013, y2014, main_2015], update_2015: with_updates }
    }

    /// Dataset of a year (main/cleaned variant).
    pub fn year(&self, year: Year) -> &Dataset {
        &self.years[year.index()]
    }

    /// Analysis contexts for all three years, built concurrently (each
    /// context only reads its own year's dataset).
    pub fn contexts(&self) -> [AnalysisContext<'_>; 3] {
        std::thread::scope(|scope| {
            let h0 = scope.spawn(|| AnalysisContext::new(&self.years[0]));
            let h1 = scope.spawn(|| AnalysisContext::new(&self.years[1]));
            let c2 = AnalysisContext::new(&self.years[2]);
            [h0.join().expect("2013 context"), h1.join().expect("2014 context"), c2]
        })
    }

    /// Persist the campaign set into a single `.mtpool` file: streams
    /// 0–2 carry the cleaned years, stream 3 the update-retaining 2015
    /// variant, each encoded straight from its bin columns, with its
    /// index so a later [`load_pool`](Self::load_pool) skips the re-index
    /// too. The pool is staged in a temp file and atomically
    /// renamed over `path`, so re-exporting over a pool another process
    /// is mmap-analyzing neither corrupts their view nor loses the old
    /// pool if this process dies mid-export.
    pub fn save_pool(&self, path: &Path) -> Result<(), PoolError> {
        // Each stream's index build and its encode run on its own thread
        // (as `load_pool`'s decodes do); the writer only appends the
        // finished segments, in stream order, so the file bytes are the
        // same whichever thread finishes first.
        let encode =
            |stream: u16, ds: &Dataset| encode_dataset(stream, ds, &DatasetIndex::build(ds));
        let [y0, y1, y2] = &self.years;
        std::thread::scope(|scope| {
            let h0 = scope.spawn(|| encode(YEAR_STREAMS[0], y0));
            let h1 = scope.spawn(|| encode(YEAR_STREAMS[1], y1));
            let h3 = scope.spawn(|| encode(UPDATE_STREAM, &self.update_2015));
            // The temp file opens while the other encodes run.
            let mut w = PoolWriter::replace(path)?;
            let e2 = encode(YEAR_STREAMS[2], y2);
            w.append_encoded(h0.join().expect("2013 encode")?)?;
            w.append_encoded(h1.join().expect("2014 encode")?)?;
            w.append_encoded(e2?)?;
            w.append_encoded(h3.join().expect("2015-with-updates encode")?)?;
            w.finish()?;
            Ok(())
        })
    }

    /// [`save_pool`](Self::save_pool) through a filter: every stream
    /// (the three years and the update-retaining variant) is compiled
    /// against the expression and only the selected bins are written,
    /// gathered, with their rebuilt index — the `mobitrace pool
    /// export --where` path. A later [`load_pool`](Self::load_pool) of
    /// the result analyzes exactly as if the filter had been applied at
    /// query time, which the round-trip test pins.
    pub fn save_pool_filtered(
        &self,
        path: &Path,
        expr: &mobitrace_query::FilterExpr,
        opts: mobitrace_query::CompileOptions,
    ) -> Result<(), PoolError> {
        use mobitrace_query::{materialize, select_rows};
        let mut w = PoolWriter::replace(path)?;
        let mut write_filtered = |stream: u16, ds: &Dataset| -> Result<(), PoolError> {
            let rows = select_rows(expr, ds, &ds.bins, opts);
            let view = materialize(ds, &ds.bins, &rows);
            w.append_dataset(stream, &view.ds, &view.index)
        };
        for (i, ds) in self.years.iter().enumerate() {
            write_filtered(YEAR_STREAMS[i], ds)?;
        }
        write_filtered(UPDATE_STREAM, &self.update_2015)?;
        w.finish()?;
        Ok(())
    }

    /// Load a campaign set from a pool written by
    /// [`save_pool`](Self::save_pool): each dataset's bins are the
    /// decoded columns, no row is rebuilt, and the years' decoded indexes
    /// come back alongside so analysis can start via
    /// [`contexts_with`](Self::contexts_with) with no rebuild scans.
    /// The four streams decode concurrently off the shared map.
    pub fn load_pool(path: &Path) -> Result<(CampaignSet, PoolViews), PoolError> {
        let r = PoolReader::open(path)?;
        let ((d0, d1, d2), update) = std::thread::scope(|scope| {
            let h0 = scope.spawn(|| r.decode_dataset(YEAR_STREAMS[0]));
            let h1 = scope.spawn(|| r.decode_dataset(YEAR_STREAMS[1]));
            let h3 = scope.spawn(|| r.decode_dataset(UPDATE_STREAM));
            let d2 = r.decode_dataset(YEAR_STREAMS[2]);
            (
                (h0.join().expect("2013 decode"), h1.join().expect("2014 decode"), d2),
                h3.join().expect("2015-with-updates decode"),
            )
        });
        let (d0, d1, d2, update) = (d0?, d1?, d2?, update?);
        let set = CampaignSet { years: [d0.ds, d1.ds, d2.ds], update_2015: update.ds };
        Ok((set, PoolViews { indexes: [d0.index, d1.index, d2.index] }))
    }

    /// Analysis contexts from pool-decoded views: the
    /// [`contexts`](Self::contexts) twin that skips the index build
    /// because the pool already carried it. The views must come from the
    /// same pool load as `self`.
    pub fn contexts_with(&self, views: PoolViews) -> [AnalysisContext<'_>; 3] {
        let [i0, i1, i2] = views.indexes;
        let ctx = |y: usize, index| {
            let ds = &self.years[y];
            AnalysisContext::from_cow_parts(ds, Cow::Owned(index), Cow::Borrowed(&ds.bins))
        };
        std::thread::scope(|scope| {
            let h0 = scope.spawn(|| ctx(0, i0));
            let h1 = scope.spawn(|| ctx(1, i1));
            let c2 = ctx(2, i2);
            [h0.join().expect("2013 context"), h1.join().expect("2014 context"), c2]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch dir unique to this process + thread, so parallel test
    /// invocations (and concurrent CI jobs on one machine) never
    /// collide on a shared fixed path.
    fn unique_temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mobitrace-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The pool path must round-trip real simulated campaigns — survey
    /// and ground-truth payloads included — and hand back views that
    /// build contexts identical to the from-scratch ones.
    #[test]
    fn pool_save_load_roundtrip() {
        let set = CampaignSet::simulate(0.012, 5);
        let dir = unique_temp_dir("pool-test");
        let path = dir.join("campaigns.mtpool");
        set.save_pool(&path).unwrap();
        let (back, views) = CampaignSet::load_pool(&path).unwrap();
        for y in Year::ALL {
            assert_eq!(set.year(y), back.year(y));
        }
        assert_eq!(set.update_2015, back.update_2015);
        let fresh = set.contexts();
        let pooled = back.contexts_with(views);
        for (a, b) in fresh.iter().zip(&pooled) {
            assert_eq!(a.days, b.days);
            assert_eq!(a.classes, b.classes);
            assert_eq!(a.thresholds, b.thresholds);
            assert_eq!(a.home_cell, b.home_cell);
            assert_eq!(a.cols, b.cols);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The streams encode on racing threads but append in stream order,
    /// so two saves of one set write the same bytes.
    #[test]
    fn two_saves_are_byte_identical() {
        let set = CampaignSet::simulate(0.012, 9);
        let dir = unique_temp_dir("pool-twice");
        let (a, b) = (dir.join("a.mtpool"), dir.join("b.mtpool"));
        set.save_pool(&a).unwrap();
        set.save_pool(&b).unwrap();
        let (a, b) = (std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert!(a.len() > 4096);
        assert!(a == b, "two saves of one campaign set differ");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn simulate_tiny_set() {
        let set = CampaignSet::simulate(0.015, 42);
        for y in Year::ALL {
            assert!(set.year(y).validate().is_ok());
            assert!(!set.year(y).bins.is_empty());
        }
        // The update-retaining 2015 variant has at least as many bins.
        assert!(set.update_2015.bins.len() >= set.year(Year::Y2015).bins.len());
    }
}
