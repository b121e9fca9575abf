#![forbid(unsafe_code)]
//! # stream-merging
//!
//! A complete implementation of **guaranteed start-up delay Media-on-Demand
//! with stream merging** (Bar-Noy, Goshi, Ladner — SPAA 2003; journal
//! version: *Journal of Discrete Algorithms* 4 (2006) 72–105).
//!
//! This facade crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`fib`] | exact Fibonacci kernel (compile-time table, rank queries, fast doubling) |
//! | [`core`] | merge trees/forests, stream lengths, costs, receiving programs, buffers |
//! | [`offline`] | §3: optimal off-line algorithms (closed forms, O(n)/O(L+n) constructions, bounded buffers, receive-all) |
//! | [`online`] | §4: on-line delay-guaranteed algorithm, dyadic (α,β) merging, batching, patching/ERMT/tapping baselines |
//! | [`broadcast`] | §1's static-allocation baselines: staggered, pyramid, skyscraper, fast, harmonic broadcasting |
//! | [`sim`] | discrete-event Media-on-Demand simulator (correctness oracle) |
//! | [`serve`] | the serving layer: multi-title live ingest with traffic-time delay planning — overload becomes start-up delay, never a rejection |
//! | [`server`] | §5's multi-object server: Zipf catalogs, per-title delay planning, aggregate load |
//! | [`workload`] | constant-rate / Poisson arrival processes |
//! | [`experiments`] | regeneration of every figure and table of the paper |
//!
//! ## Quickstart
//!
//! ```
//! use stream_merging::offline::forest::optimal_forest;
//! use stream_merging::core::{full_cost, consecutive_slots};
//!
//! // A 2-hour movie with a 15-minute guaranteed delay: L = 8 slots.
//! // Serve 8 consecutive slots of arrivals optimally:
//! let plan = optimal_forest(8, 8);
//! let times = consecutive_slots(8);
//! let cost = full_cost(&plan.forest, &times, 8);
//! assert_eq!(cost as u64, plan.cost);
//! ```

pub use sm_broadcast as broadcast;
pub use sm_core as core;
pub use sm_experiments as experiments;
pub use sm_fib as fib;
pub use sm_offline as offline;
pub use sm_online as online;
pub use sm_serve as serve;
pub use sm_server as server;
pub use sm_sim as sim;
pub use sm_workload as workload;
