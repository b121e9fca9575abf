#![forbid(unsafe_code)]
//! Workload generation for the empirical section (§4.2).
//!
//! The paper's experiments use two client arrival patterns over a horizon of
//! 100 media lengths: **constant rate** (fixed inter-arrival gap λ) and
//! **Poisson** (exponential gaps with mean λ), with λ swept from ~0% to 5%
//! of the media length. [`arrivals`] implements both as seeded, reproducible
//! processes; [`stats`] provides the aggregation used when averaging Poisson
//! runs over seeds. Beyond the paper's patterns, [`bursty`], [`diurnal`],
//! and [`flash_crowd`] stress the arrival *process*, while [`deep_chain`]
//! stresses the merge *structure* (maximal-depth feasible chains, the
//! pathological case for per-client evaluation).

pub mod arrivals;
pub mod bursty;
pub mod deep_chain;
pub mod diurnal;
pub mod flash_crowd;
pub mod stats;

pub use arrivals::{ArrivalProcess, ConstantRate, PoissonProcess};
pub use bursty::BurstyProcess;
pub use deep_chain::deep_chain_forest;
pub use diurnal::DiurnalProcess;
pub use flash_crowd::FlashCrowd;
pub use stats::Summary;
