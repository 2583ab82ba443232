//! # mobitrace-live
//!
//! Streaming analysis engine behind the
//! [`CollectionServer`](mobitrace_collector::CollectionServer): an
//! [ingest-tap](mobitrace_collector::IngestTap) consumer — one tap queue
//! per server, drained in commit order — that cleans
//! records *online* (watermarked lateness, dedup, tethering and
//! iOS-update-day rules) and incrementally maintains the analysis-ready
//! dataset — AP table, bin-range index and columnar rows — behind cheap
//! copy-on-write snapshots. Mid-run snapshots are columns-only; the
//! finished one also carries the row table.
//!
//! The convergence contract is exact: when the stream ends, the live
//! snapshot is **bit-identical** to the batch pipeline's output over the
//! same records (minus the late arrivals the engine refused, which are
//! excluded from the reference too). [`check_convergence`] asserts it;
//! `mobitrace live` runs a whole simulated campaign through the engine
//! and fails loudly if the identity ever breaks.
//!
//! - [`engine`]: the incremental cleaner and dataset builder.
//! - [`campaign`]: a campaign runner that taps the server mid-flight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod engine;
pub mod group;
pub mod pool_sink;

pub use campaign::{
    run_live_campaign, run_live_campaign_observed, run_live_campaign_to_pool, LiveRunReport,
    SnapshotMetric, SnapshotObserver,
};
pub use engine::{
    batch_reference, check_convergence, placeholder_devices, FinishedLive, LiveEngine, LiveOptions,
    LiveStats,
};
pub use group::EngineGroup;
pub use pool_sink::{latest_generation, PoolSpoolStats, SnapshotPoolSink};
