//! # mobitrace-collector
//!
//! The measurement substrate: everything between the device's counters and
//! the cleaned [`mobitrace_model::Dataset`].
//!
//! - [`codec`]: a hand-rolled binary wire format (varints, length-prefixed
//!   strings, CRC-32 framing) for agent→server uploads;
//! - [`transport`]: a fault-injected channel (drop / duplicate / delay /
//!   corrupt) in the spirit of smoltcp's example fault options, plus
//!   seeded *chaos schedules* — bursty link-down / congestion /
//!   server-outage episodes layered over the i.i.d. faults;
//! - [`agent`]: the on-device agent state machine — samples every
//!   10 minutes, queues records into a bounded cache, and retries failed
//!   uploads under exponential backoff with jitter, as the paper's
//!   measurement software does;
//! - [`server`]: the collection server — decodes frames, verifies
//!   checksums, deduplicates, tolerates out-of-order delivery, and
//!   survives simulated crashes by setting its store aside until recovery;
//! - [`clean`](mod@clean): the cleaning pipeline — one per-device state
//!   machine, [`DeviceCleaner`], shared with the live engine: counter-delta
//!   reconstruction (reboot-safe), tethering removal, iOS-update-day
//!   exclusion — producing the analysis-ready dataset;
//! - [`chaos`]: the fault-convergence harness proving the cleaned dataset
//!   under any chaos schedule equals the reliable-channel dataset minus
//!   exactly the losses the cleaner accounts for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod chaos;
pub mod clean;
pub mod codec;
pub mod server;
pub mod transport;

pub use agent::{DeviceAgent, Observation, DEFAULT_CACHE_CAP};
pub use chaos::{run_convergence, ChaosRunConfig, ConvergenceReport};
pub use clean::{clean, strip_update_days, CleanOptions, CleanStats, DeviceCleaner};
pub use codec::{
    decode_batch_into, decode_frame, decode_frame_from, decode_frame_from_with, decode_frame_with,
    encode_batch, encode_frame, encode_frame_dict_into, encode_frame_into, CodecError, EssidDict,
    EssidTable,
};
pub use server::{CollectionServer, IngestStats, IngestTap, TapBatch};
pub use transport::{
    ChaosEffect, ChaosProfile, ChaosSchedule, Episode, EpisodeKind, FaultPlan, LossyTransport,
};
