//! Streaming snapshot persistence: the live engine as pool writer.
//!
//! Each compaction publishes a fresh [`LiveSnapshot`]; a
//! [`SnapshotPoolSink`] appends generations to one `.mtpool` file, each as
//! its own dataset stream, and commits, so concurrent readers (other
//! processes mmap-ing the same file) always see the latest *complete*
//! generation — the pool's atomic slot flip is the publication barrier.
//! This is the "one serialized writer, many mmap readers" half of the
//! pool's concurrency story; the sink holds the writer lock for its
//! lifetime.
//!
//! Every persisted generation spools the *full* current dataset (not a
//! delta), and the file keeps all of them. The engine publishes a
//! generation every time its tails reach 1/32 of the merged run, which is
//! too often to persist each one, so [`SnapshotPoolSink::offer`] persists
//! a mid-run generation only once it holds at least
//! [`PERSIST_GROWTH`]× the rows of the last persisted one; the finished
//! snapshot is always persisted ([`SnapshotPoolSink::append`]). That
//! geometric cadence bounds the file at about three times the final
//! generation. Generation stream ids are `u16`, so a sink persists at most
//! 65 536 generations; past that it degrades exactly like a disk error
//! (the error is reported in [`PoolSpoolStats`], earlier generations stay
//! readable).

use mobitrace_model::LiveSnapshot;
use mobitrace_pool::{PoolError, PoolReader, PoolWriter};
use std::path::Path;

/// A mid-run generation is persisted once it holds at least this many
/// times the rows of the last persisted generation.
pub const PERSIST_GROWTH: f64 = 1.5;

/// Appends live snapshot generations to a pool file.
pub struct SnapshotPoolSink {
    writer: PoolWriter,
    /// Rows in the last persisted generation (`None` before the first).
    last_rows: Option<usize>,
    /// Next generation's stream id.
    next: u16,
    /// Generations committed (tracked separately from `next` so the
    /// count stays right when the id space is exhausted).
    generations: u64,
    /// First append failure, if any; later appends are skipped so a
    /// mid-run disk problem degrades persistence, not the analysis run.
    error: Option<String>,
}

/// What a sink did over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolSpoolStats {
    /// Snapshot generations committed.
    pub generations: u64,
    /// Last published pool epoch (0 when nothing was committed).
    pub epoch: u64,
    /// First append error, if persistence degraded mid-run.
    pub error: Option<String>,
}

impl SnapshotPoolSink {
    /// Create (truncate) the pool at `path` and take the writer lock.
    /// `path` must not be an existing pool that readers currently have
    /// mapped (see [`PoolWriter::create`]); the sink's readers are
    /// expected to open the file only after the sink exists.
    pub fn create(path: &Path) -> Result<SnapshotPoolSink, PoolError> {
        Ok(SnapshotPoolSink {
            writer: PoolWriter::create(path)?,
            last_rows: None,
            next: 0,
            generations: 0,
            error: None,
        })
    }

    /// Persist a mid-run generation if it has grown by [`PERSIST_GROWTH`]
    /// since the last persisted one (the first is always persisted).
    pub fn offer(&mut self, snap: &LiveSnapshot) {
        if self.last_rows.is_none_or(|last| snap.len() as f64 >= last as f64 * PERSIST_GROWTH) {
            self.append(snap);
        }
    }

    /// Append one snapshot as the next generation and publish it.
    /// After a failure this becomes a no-op (the error is kept).
    /// Exhausting the `u16` generation id space is treated like any
    /// other persistence failure: the sink stops appending cleanly and
    /// reports it, instead of overflowing the counter.
    pub fn append(&mut self, snap: &LiveSnapshot) {
        if self.error.is_some() {
            return;
        }
        let stream = self.next;
        let result = self
            .writer
            .append_dataset(stream, &snap.ds, &snap.index, &snap.cols)
            .and_then(|()| self.writer.commit());
        match result {
            Ok(_) => {
                self.generations += 1;
                self.last_rows = Some(snap.len());
                match self.next.checked_add(1) {
                    Some(n) => self.next = n,
                    None => {
                        self.error = Some(format!(
                            "generation stream ids exhausted at {stream}; \
                             later snapshots are not persisted"
                        ));
                    }
                }
            }
            Err(e) => self.error = Some(format!("generation {stream}: {e}")),
        }
    }

    /// Commit summary for the run report.
    pub fn stats(&self) -> PoolSpoolStats {
        PoolSpoolStats {
            generations: self.generations,
            epoch: self.writer.epoch(),
            error: self.error.clone(),
        }
    }
}

/// Open `path` and decode its newest committed generation, if any —
/// what a concurrent monitoring process does while the engine appends.
pub fn latest_generation(path: &Path) -> Result<Option<mobitrace_pool::PoolDataset>, PoolError> {
    let r = PoolReader::open(path)?;
    match r.dataset_streams().last() {
        Some(&stream) => Ok(Some(r.decode_dataset(stream)?)),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobitrace_model::{CampaignMeta, Dataset, DatasetColumns, DatasetIndex, Year};

    fn snapshot() -> LiveSnapshot {
        let meta = CampaignMeta {
            year: Year::Y2013,
            start: Year::Y2013.campaign_start(),
            days: 1,
            seed: 0,
        };
        let empty = Dataset { meta, devices: vec![], aps: vec![], bins: vec![] };
        LiveSnapshot {
            index: DatasetIndex::build(&empty),
            cols: DatasetColumns::build(&empty),
            ds: empty,
            compactions: 0,
        }
    }

    /// Exhausting the `u16` generation id space must degrade like a disk
    /// error — error recorded, appends become no-ops, everything already
    /// committed stays readable — never an arithmetic overflow.
    #[test]
    fn generation_id_exhaustion_degrades_cleanly() {
        let dir = std::env::temp_dir().join(format!(
            "mtlive-sink-exhaust-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gen.mtpool");
        let mut sink = SnapshotPoolSink::create(&path).unwrap();
        // Jump straight to the last usable id; actually spooling 65 536
        // full generations is the quadratic-growth caveat in the module
        // docs, not a unit test.
        sink.next = u16::MAX;
        sink.generations = u64::from(u16::MAX);
        let snap = snapshot();
        sink.append(&snap);
        let stats = sink.stats();
        assert_eq!(stats.generations, u64::from(u16::MAX) + 1);
        assert!(
            stats.error.as_deref().unwrap_or("").contains("exhausted"),
            "expected exhaustion error, got {:?}",
            stats.error
        );
        // Further appends are clean no-ops.
        sink.append(&snap);
        assert_eq!(sink.stats().generations, u64::from(u16::MAX) + 1);
        drop(sink);
        // The final generation was committed and is the newest readable one.
        let latest = latest_generation(&path).unwrap().expect("generation present");
        assert_eq!(latest.ds, snap.ds);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
