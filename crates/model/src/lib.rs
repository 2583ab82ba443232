//! # mobitrace-model
//!
//! Foundational domain types shared by every crate in the `mobitrace`
//! workspace: simulation time, traffic units, device/network identifiers,
//! application categories, raw measurement records, and the cleaned
//! [`Dataset`] that the analysis library consumes.
//!
//! The types here mirror the data model of the IMC'15 study *"Tracking the
//! Evolution and Diversity in Network Usage of Smartphones"*: a background
//! agent samples per-interface byte/packet counters, the associated WiFi AP
//! (BSSID/ESSID, RSSI, channel, band), WiFi scan results, per-application
//! traffic (Android only), battery state and a coarse (5 km) geolocation
//! every 10 minutes, and uploads the records to a collection server.
//!
//! This crate deliberately has no dependency on any other workspace crate so
//! that the analysis library (`mobitrace-core`) can be used on any dataset
//! expressed in these types, not only on simulated ones.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod columns;
pub mod dataset;
pub mod error;
pub mod ids;
pub mod index;
pub mod lanes;
pub mod live;
pub mod net;
pub mod record;
pub mod time;
pub mod units;
pub mod wellknown;

pub use apps::AppCategory;
pub use columns::{AllRows, DatasetColumns, RowSet, ScanColumns, Selection, WifiTag};
pub use dataset::{
    ApEntry, ApRef, AppBin, BinRecord, CampaignMeta, Carrier, Dataset, DeviceInfo, GroundTruth,
    Occupation, ScanSummary, SurveyLocation, SurveyReason, SurveyResponse, WifiAssoc, WifiBinState,
    YesNoNa,
};
pub use error::ModelError;
pub use ids::{Bssid, CellId, DeviceId, Essid};
pub use index::{DatasetIndex, IndexColumns};
pub use live::{truncate_update_days, ApInterner, BinSink, LiveSnapshot, LiveTableBuilder};
pub use net::{AssocInfo, Band, CellTech, Channel, NetKind, WifiState};
pub use record::{AppCounter, CounterSnapshot, Os, OsVersion, Record, ScanEntry, TrafficCounters};
pub use time::{CivilDate, SimTime, Weekday, Year, BINS_PER_DAY, BIN_MINUTES};
pub use units::{ByteCount, DataRate, Dbm};
pub use wellknown::{is_fon_essid, is_public_essid, PublicProvider};
