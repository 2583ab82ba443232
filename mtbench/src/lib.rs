//! `mtbench`: an outside-in end-to-end benchmark of the mobitrace
//! pipeline.
//!
//! Set-up simulates the three campaigns once per set-up as the load
//! generator and builds references; four workloads then drive the
//! collector, live engine, pool, query and fleet layers through their
//! public entry points, check every output against the references, and
//! report end-to-end metrics (untraced) or per-layer metrics (traced). See
//! `README.md` next to this crate for the workloads, metrics and bounds.

pub mod bench;
pub mod compare;
pub mod metrics;
pub mod output;
pub mod rss;
pub mod stats;
pub mod trace;
pub mod workloads;
pub mod world;

/// The repository root this benchmark was built in.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}
