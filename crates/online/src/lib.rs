#![forbid(unsafe_code)]
//! On-line algorithms (paper §4).
//!
//! * [`delay_guaranteed`] — the paper's on-line algorithm: without knowing
//!   the time horizon, start a full stream every `F_h` slots
//!   (`F_{h+1} < L+2 ≤ F_{h+2}`) and fit arrivals into a *precomputed*
//!   optimal merge tree of `F_h` arrivals. No on-line decisions at all:
//!   receiving programs are table lookups (`O(1)` amortized per arrival),
//!   and Theorems 21/22 bound its cost against the off-line optimum.
//! * [`dyadic`] — the (α,β)-dyadic stream-merging algorithm of Coffman,
//!   Jelenković and Momčilović \[9\], the comparison baseline of §4.2
//!   (stack-based on-line construction over open-tree state only, immediate
//!   or batched service; the batch forest is a fold over the arrivals).
//! * [`batching`] — plain batching (a full stream per non-empty delay
//!   window), the classical baseline of Theorem 14.
//! * [`patching`] — the depth-one merging predecessor (threshold patching,
//!   with the classical optimal-threshold formula) [22, 18, 35].
//! * [`hierarchical`] — the greedy ERMT policy family of
//!   Eager–Vernon–Zahorjan \[16\], benchmarked by the study \[4\] the paper's
//!   §4.2 relies on.
//! * [`incremental`] — the §4 algorithms as explicit arrival-at-a-time
//!   state machines: `push(arrival) -> MergeDecision`, with the batch
//!   reconstruction functions reimplemented as a fold over the decision
//!   stream.
//! * [`analysis`] — the competitive bounds of Theorems 21 and 22.
//! * [`hybrid`] — the §5 hybrid server (DG under load, dyadic when idle).
//! * [`capacity`] — steady-state peak and average bandwidth of the Delay
//!   Guaranteed schedule, the per-title price of §5's fixed-bandwidth
//!   server.

pub mod analysis;
pub mod batching;
pub mod capacity;
mod cast;
pub mod delay_guaranteed;
pub mod dyadic;
pub mod hierarchical;
pub mod hybrid;
pub mod incremental;
pub mod patching;

pub use delay_guaranteed::DelayGuaranteedOnline;
pub use dyadic::{DyadicConfig, DyadicMerger};
pub use hierarchical::{HierarchicalMerger, MergePolicy};
pub use hybrid::{HybridConfig, HybridServer};
pub use incremental::{DecisionError, ForestBuilder, IncrementalPolicy, MergeDecision};
pub use patching::{optimal_threshold, PatchingMerger};
