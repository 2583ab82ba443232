//! # mobitrace-core
//!
//! The analysis library of the study — every metric, classifier and
//! estimator behind the tables and figures of *"Tracking the Evolution and
//! Diversity in Network Usage of Smartphones"* (IMC'15), operating on any
//! [`mobitrace_model::Dataset`]:
//!
//! | module | paper artefacts |
//! |---|---|
//! | [`overview`] | Table 1 |
//! | [`demographics`] | Table 2 |
//! | [`volume`] | Table 3, Figs. 3–4 |
//! | [`timeseries`] | Figs. 2, 11 |
//! | [`usertype`] | Fig. 5 |
//! | [`ratios`] | Figs. 6–8 |
//! | [`wifistate`] | Fig. 9 |
//! | [`apmap`] | Fig. 10 |
//! | [`apclass`] | Tables 4–5, Fig. 12 |
//! | [`assoc`] | Fig. 13 |
//! | [`bands`] | Fig. 14 |
//! | [`quality`] | Figs. 15–16 |
//! | [`availability`] | Fig. 17, §3.5 offload estimate |
//! | [`apps`] | Tables 6–7 |
//! | [`update`] | Fig. 18 |
//! | [`cap`] | Fig. 19, §3.8 |
//! | [`survey`] | Tables 8–9 |
//! | [`implications`] | §4.1 estimates |
//! | [`context`] | Fig. 1 (national traffic context) |
//! | [`sensitivity`] | home-rule threshold ablation (simulation-only) |
//! | [`carriers`] | §3.3.4 per-carrier iOS comparison |
//! | [`interference`] | §3.4.5 co-channel pressure |
//!
//! Start with [`AnalysisContext::new`], which precomputes the shared
//! products (per-user-day aggregates, AP classification, inferred home
//! locations) every analysis builds on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apclass;
pub mod apmap;
pub mod apps;
pub mod assoc;
pub mod availability;
pub mod bands;
pub mod cap;
pub mod carriers;
pub mod context;
pub mod ctx;
pub mod daily;
pub mod demographics;
pub mod implications;
pub mod interference;
pub mod overview;
pub mod quality;
pub mod ratios;
pub mod sensitivity;
pub mod stats;
pub mod survey;
pub mod timeseries;
pub mod update;
pub mod usertype;
pub mod volume;
pub mod wifistate;

pub use apclass::{ApClass, ApClassification};
pub use ctx::{AnalysisContext, UserDayRun};
pub use daily::UserDay;
pub use stats::{ccdf_points, cdf_points, linear_fit, mean, median, percentile, Histogram};
