#![forbid(unsafe_code)]
//! Discrete-event Media-on-Demand simulator — the correctness oracle of the
//! reproduction.
//!
//! The paper evaluates schedules analytically; this crate *executes* them.
//! Given a merge forest over slotted arrivals, it derives the concrete
//! broadcast schedule (which stream transmits which part in which slot, as
//! in the paper's Fig. 3), replays every client's receiving program against
//! that schedule, and independently re-measures every quantity the theory
//! predicts:
//!
//! * **uninterrupted playback** — every part arrives no later than its
//!   playback slot;
//! * **receive-two compliance** — no client ever listens to more than two
//!   streams in a slot;
//! * **buffer occupancy** — peak buffer per client (equals Lemma 15's
//!   `min(x−r, L−(x−r))`);
//! * **server bandwidth** — per-slot stream count; the total must equal the
//!   analytic `Fcost` of the forest.
//!
//! A schedule passing [`simulate`] is, by construction, a feasible
//! delay-guaranteed Media-on-Demand service plan.
//!
//! One production engine does the work: the push-based
//! [`IncrementalEngine`], which serves arrivals one at a time. The batch
//! API ([`simulate`], [`simulate_with`], [`simulate_streaming_slice`])
//! replays a known `(forest, times)` pair through it, and the slot-stepped
//! [`engine::dense`] oracle checks it (see [`engine`]).

pub mod channels;
pub mod continuous;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod schedule;

pub use channels::{assign_channels, ChannelPlan};
pub use continuous::{verify_continuous, ContinuousError};
pub use engine::{
    simulate, simulate_incremental, simulate_streaming_slice, simulate_with, Attach, ClientReport,
    IncrementalEngine, IncrementalSummary, IngestError, SimConfig, SimReport, StreamingSummary,
};
pub use error::SimError;
pub use metrics::BandwidthProfile;
pub use schedule::{stream_schedule, ScheduleStream, StreamSpec, TreeSchedule};
