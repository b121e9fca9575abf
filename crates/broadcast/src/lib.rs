#![forbid(unsafe_code)]
//! Static-allocation periodic broadcasting schemes — the pyramid-paradigm
//! baselines the paper positions stream merging against (§1).
//!
//! The paper's introduction contrasts the *dynamic* stream-merging model with
//! the *static* broadcasting protocols that preceded it: staggered/batched
//! broadcasting, pyramid broadcasting (Viswanathan–Imielinski \[38\]),
//! skyscraper broadcasting (Hua–Sheu \[24\]), fast broadcasting
//! (Juhn–Tseng \[27\]) and harmonic broadcasting (Juhn–Tseng \[25\]). All of them
//! pre-allocate a fixed set of channels per media object and broadcast fixed
//! segments periodically, so their server bandwidth is *constant* — it does
//! not adapt to the client arrival intensity, which is exactly the weakness
//! stream merging removes. Reproducing the paper's framing therefore needs
//! these schemes as executable baselines, not just citations.
//!
//! # Model
//!
//! A media object of `L` *units* is cut into ordered segments; segment `i`
//! is broadcast periodically (period, offset) on a logical channel of the
//! playback rate. A client tunes in at its arrival time, starts playback at
//! the next broadcast instance of segment 0 (that instant defines the
//! start-up delay), and must receive every later segment no later than the
//! moment playback reaches it. [`verify`] checks this *slot-exactly for every
//! arrival phase in one hyperperiod* and reports the worst start-up delay,
//! the maximum number of concurrently received channels (the receive-two /
//! receive-all distinction of the paper) and the maximum client buffer.
//!
//! Harmonic broadcasting transmits at fractional channel rates and is
//! analyzed in its exact fluid model instead ([`harmonic`]).
//!
//! # Unit conventions
//!
//! As everywhere in this reproduction, 1 unit = the guaranteed start-up
//! delay, and the media is `L` units long. A scheme built for delay `1` and
//! media `L` is directly comparable with the stream-merging algorithms'
//! per-slot bandwidth: [`SegmentPlan::bandwidth`] is in *channels* (multiples
//! of the playback rate), the same axis as Fig. 1 of the paper.
//!
//! # Example
//!
//! ```
//! use sm_broadcast::{skyscraper_broadcasting, verify_all_phases};
//!
//! // A 100-minute movie, 1-minute guaranteed delay, Hua–Sheu skyscraper.
//! let plan = skyscraper_broadcasting(100, 1, 52).unwrap();
//! // Verify every arrival phase under the receive-two cap.
//! let report = verify_all_phases(&plan, Some(2), 1_000_000).unwrap();
//! assert!(report.worst_delay < 1 + 1);
//! assert_eq!(report.max_concurrent, 2);
//! assert!(report.bandwidth.0 as f64 / (report.bandwidth.1 as f64) < 10.0);
//! ```

pub mod error;
pub mod fast;
pub mod harmonic;
pub mod plan;
pub mod pyramid;
pub mod skyscraper;
pub mod staggered;
pub mod tradeoff;
pub mod verify;

pub use error::BroadcastError;
pub use fast::fast_broadcasting;
pub use harmonic::{harmonic_bandwidth, HarmonicPlan};
pub use plan::{Segment, SegmentPlan};
pub use pyramid::pyramid_broadcasting;
pub use skyscraper::skyscraper_broadcasting;
pub use staggered::staggered_broadcasting;
pub use tradeoff::{static_tradeoff, SchemeRow};
pub use verify::{client_schedule, verify_all_phases, ClientOutcome, PlanReport};
