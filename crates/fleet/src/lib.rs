//! # mobitrace-fleet
//!
//! The million-device ingest frontend: what turns the paper-scale
//! measurement pipeline (one campaign, ~1600 devices, one
//! [`CollectionServer`]) into a fleet-scale service without changing a
//! byte of the data path.
//!
//! - [`router`]: stable device → cohort hashing, so many server (and
//!   live-engine) instances run side by side and a device's records
//!   always land in the same domain;
//! - [`admission`]: token-bucket rate limits and the graduated shed
//!   policy (newest cohorts first, every shed record accounted) layered
//!   over the server's own `accepting()` backpressure;
//! - [`ingest`]: the thread-per-core pipeline — pinned workers, bounded
//!   per-worker queues, decode outside the server lock, commit via
//!   `store_batch`;
//! - [`run`]: the stress driver feeding synthetic agents from an
//!   inverted template campaign, with exact end-to-end record
//!   reconciliation;
//! - [`supervisor`]: workers run under `catch_unwind` with budgeted
//!   exponential-backoff respawn; a dead worker's in-flight batch is
//!   accounted (`lost_worker`), never silently dropped;
//! - [`faults`]: seeded deterministic fault schedules — worker kills,
//!   server crashes, pool I/O failures — that the identity is proven
//!   under.
//!
//! The load-bearing invariant, proven in `tests/determinism.rs`: a
//! campaign ingested through the fleet frontend — any worker count, any
//! cohort count — cleans to a dataset bit-identical to the batch
//! pipeline's.
//!
//! [`CollectionServer`]: mobitrace_collector::CollectionServer

#![warn(missing_docs)]

pub mod admission;
pub mod faults;
pub mod ingest;
pub mod router;
pub mod run;
pub mod supervisor;

pub use admission::{is_shed, shed_level, TokenBucket};
pub use faults::{
    FaultInjector, FaultSpec, FaultStats, PoolFault, PoolFaultKind, ServerCrash, WorkerKill,
};
pub use ingest::{Admission, CheckpointConfig, FleetConfig, FleetIngest, FleetStats};
pub use router::CohortRouter;
pub use run::{run_fleet, try_run_fleet, FleetRunConfig, FleetRunReport};
pub use supervisor::RestartPolicy;
