#![forbid(unsafe_code)]
//! Model layer for delay-guaranteed Media-on-Demand with stream merging
//! (Bar-Noy–Goshi–Ladner, SPAA'03 / JDA'06, §2).
//!
//! # The model in brief
//!
//! Time is slotted; the slot length is the guaranteed start-up delay. A media
//! object is `L` slots long. At the end of slot `t` a stream may start to
//! serve the (imaginary) client aggregating every real request of that slot.
//! Clients can receive **two** streams at once while playing from their
//! buffer, so a later stream can *merge* into an earlier one and terminate —
//! the truncation is where server bandwidth is saved.
//!
//! A solution is a [`MergeForest`] of [`MergeTree`]s over the arrival
//! sequence. Tree structure alone determines every stream's length
//! (Lemma 1: `ℓ(x) = 2z(x) − x − p(x)`, [`cost::lengths`]), each client's
//! [`ReceivingProgram`] (§2, "Receiving programs"), the buffer each client
//! needs (Lemma 15, [`buffer::required_buffer`]) and therefore the total
//! server bandwidth ([`cost::merge_cost`], [`cost::full_cost`]).
//!
//! The crate is deliberately *policy-free*: it defines what a solution is and
//! what it costs. The algorithms that find good solutions live in
//! `sm-offline` (optimal, §3) and `sm-online` (on-line, §4); `sm-sim`
//! executes solutions slot-by-slot and re-derives every quantity defined here
//! by observation, acting as a correctness oracle.
//!
//! # Time axes
//!
//! The delay-guaranteed results use consecutive integer arrivals `0..n`; the
//! dyadic comparison algorithm runs on arbitrary real arrival times. Cost
//! machinery is therefore generic over [`TimeScalar`], implemented for `i64`
//! (exact, slotted) and `f64` (continuous).

pub mod alloc_counter;
pub mod buffer;
pub mod cost;
pub mod diagram;
pub mod error;
pub mod fanin;
pub mod forest;
pub mod parallel;
pub mod receive_all_program;
pub mod receiving;
pub mod time;
pub mod tree;
pub mod validate;

pub use buffer::required_buffer;
pub use cost::{full_cost, lengths, merge_cost, receive_all_lengths, receive_all_merge_cost};
pub use error::ModelError;
pub use fanin::merge_runs;
pub use forest::MergeForest;
pub use parallel::{parallel_map, pipeline};
pub use receive_all_program::ReceiveAllProgram;
pub use receiving::{ReceivingProgram, StageSegment};
pub use time::{consecutive_slots, TimeScalar};
pub use tree::MergeTree;
pub use validate::{validate_forest, validate_tree, ValidationOptions};
