#![forbid(unsafe_code)]
//! The serving layer: a push-based, never-declining ingest loop over
//! per-title incremental engines behind one shared channel budget.
//!
//! Where `sm-sim` answers "what does this forest cost?" for a workload
//! that already happened, this crate runs the serving side as it would
//! run in production: arrivals are *generated on a separate thread*, flow
//! through the bounded [`sm_core::pipeline`] channel (so workload
//! generation is backpressured by ingest, never the other way around),
//! and hit the server one at a time.
//!
//! # The serving-layer contract
//!
//! ```text
//!  producer thread                        ingest (caller's thread)
//!  ┌──────────────────────────┐           ┌───────────────────────────────┐
//!  │ per-title Poisson batch  │  bounded  │ for each (time, title):       │
//!  │ runs, k-way merged by    │  channel  │   1. join the title's pending │
//!  │ sm_core::merge_runs      ├──────────▶│      group, or                │
//!  │ (time, then title index) │           │   2. plan a service slot      │
//!  └──────────────────────────┘           │      against the shared       │
//!                                         │      budget (delay, never     │
//!                                         │      decline),                │
//!                                         │   3. consult the title's      │
//!                                         │      IncrementalPolicy,       │
//!                                         │   4. push into the title's    │
//!                                         │      IncrementalEngine        │
//!                                         └───────────────────────────────┘
//! ```
//!
//! The paper's §5 server **never declines a request**: under a fixed
//! channel budget it plans a *start-up delay* for each arrival instead.
//! This crate implements exactly that regime — the earlier license-gating
//! loop (admit or decline against a `max_active` gauge) is gone, and
//! overload now shows up as added start-up delay against the guarantee,
//! never as a rejection. Three invariants define the contract:
//!
//! 1. **Zero rejections.** Every generated arrival is served;
//!    [`MultiServeReport::rejected`] is structurally zero and kept in the
//!    report as the observable form of the invariant.
//! 2. **Budget safety.** With [`MultiServeConfig::budget`] set to `b`,
//!    the planner tracks one min-heap of **license chains** — disjoint
//!    timelines of full streams scheduled back to back. A new full
//!    stream either claims a free chain slot or extends the chain that
//!    frees earliest (its start is delayed to that chain's end), so
//!    chains never overlap internally and there are never more than `b`
//!    of them. For a one-title catalog this bounds live full-length
//!    streams by `b` at every instant. Across titles it does not: a
//!    group that the policy merges drops the chain it popped while that
//!    chain's stream may still be live, and another title can then open
//!    a full stream beside it: three titles of `L = 10/1000/50` at
//!    budget 2 can put four full streams on the air at once. As under
//!    the prior gauge, truncated merge streams ride the margin: the
//!    budget prices full-length streams, the dominating cost.
//! 3. **Delay before policy.** The service slot is planned *before* the
//!    title's merge policy decides root-or-merge, so an arrival is
//!    delayed exactly when the old loop would have declined it — the
//!    decision boundary is unchanged, only the verdict differs. At an
//!    unbounded budget every delay is zero and the loop is bit-identical
//!    to the license-gating loop with the gauge disabled (pinned by
//!    property test).
//!
//! Arrival times are continuous (Poisson) and are floored onto the
//! integer slot grid the merge model works in. Arrivals no later than a
//! title's pending service slot join that group as zero-length streams
//! under its head — the paper's batching rule: everyone who shows up
//! while a stream is still pending rides it. Delays are measured in
//! slots, and one slot is the guaranteed start-up delay, so
//! [`DelayStats`] reads directly as "multiples of the guarantee".
//!
//! # Single-title quickstart
//!
//! A single title is a one-title catalog:
//!
//! ```
//! use sm_serve::{serve_multi, MultiServeConfig, TitleConfig};
//!
//! let config = MultiServeConfig::new(vec![TitleConfig::new(64, 2.0)], 400.0);
//! let report = serve_multi(&config).unwrap();
//! assert_eq!(report.rejected, 0);
//! assert_eq!(report.served, report.generated);
//! assert_eq!(report.delay.max_slots, 0, "unbounded budget: no delay");
//! ```
//!
//! # Multi-title quickstart
//!
//! Two titles share a four-channel budget; title 1 swaps its merge policy
//! mid-run through the [`sm_online::IncrementalPolicy`] seam:
//!
//! ```
//! use sm_serve::{serve_multi, MultiServeConfig, PolicyKind, PolicySwap, TitleConfig};
//!
//! let config = MultiServeConfig {
//!     budget: Some(4),
//!     ..MultiServeConfig::new(
//!         vec![
//!             TitleConfig::new(64, 2.0),
//!             TitleConfig {
//!                 policy: PolicyKind::DelayGuaranteed,
//!                 swap: Some(PolicySwap { after_groups: 40, to: PolicyKind::Dyadic }),
//!                 ..TitleConfig::new(32, 3.0)
//!             },
//!         ],
//!         600.0,
//!     )
//! };
//! let report = serve_multi(&config).unwrap();
//! assert_eq!(report.rejected, 0, "delay replaces rejection");
//! assert_eq!(report.served, report.generated);
//! assert_eq!(report.titles.len(), 2);
//! for title in &report.titles {
//!     assert_eq!(title.served, title.generated);
//! }
//! ```

use std::fmt;

use sm_sim::{IngestError, SimError};

mod multi;

pub use multi::{
    serve_multi, serve_multi_with, MultiServeConfig, MultiServeReport, PolicyKind, PolicySwap,
    TitleConfig, TitleReport,
};

/// Largest accepted horizon: keeps `t.floor() as i64` exact (every f64
/// below this is integer-representable in i64) and batch counts sane.
const MAX_HORIZON: f64 = 1e15;

/// Wall-clock cost of sampled engine pushes, in nanoseconds. The serve
/// loop times one push in 64 (always including the first), so these
/// figures describe that sample, not every push.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyStats {
    /// Median sampled push latency.
    pub p50_ns: u64,
    /// 90th-percentile sampled push latency.
    pub p90_ns: u64,
    /// 99th-percentile sampled push latency.
    pub p99_ns: u64,
    /// Worst sampled push (exact).
    pub max_ns: u64,
    /// Mean over the sampled pushes (exact).
    pub mean_ns: u64,
}

/// The bucket of a count tally (`total` samples) holding quantile `q`:
/// the sample at index `round((n − 1)·q)` of the sorted sequence, the rank
/// convention every percentile in this crate uses.
fn rank_bucket(counts: &[u64], total: u64, q: f64) -> Option<usize> {
    let rank = (total.saturating_sub(1) as f64 * q).round() as u64;
    let mut seen = 0u64;
    counts.iter().position(|&count| {
        seen += count;
        seen > rank
    })
}

/// Sub-buckets per power-of-two octave, as a bit count: values below
/// `2 · 2^LATENCY_SUB_BITS` are tallied exactly, larger ones in buckets
/// at most 1/16 of their value wide.
const LATENCY_SUB_BITS: u32 = 4;
const LATENCY_SUB: usize = 1 << LATENCY_SUB_BITS;
/// Enough buckets for every `u64`: the linear head plus one 16-bucket
/// octave per remaining power of two.
const LATENCY_BUCKETS: usize = (64 - LATENCY_SUB_BITS as usize + 1) * LATENCY_SUB;

/// Fixed-size log-linear latency tally: nothing grows with the number of
/// samples and no end-of-run sort is needed. Percentiles come back at
/// bucket resolution (rounded down to the bucket floor); the maximum and
/// the mean are exact.
#[derive(Debug, Clone)]
pub(crate) struct LatencyHistogram {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket holding `ns`.
    fn bucket(ns: u64) -> usize {
        if ns < 2 * LATENCY_SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - LATENCY_SUB_BITS;
        shift as usize * LATENCY_SUB + (ns >> shift) as usize
    }

    /// The smallest value that lands in bucket `i`.
    fn floor(i: usize) -> u64 {
        if i < 2 * LATENCY_SUB {
            return i as u64;
        }
        let shift = i / LATENCY_SUB - 1;
        ((i % LATENCY_SUB + LATENCY_SUB) as u64) << shift
    }

    pub(crate) fn record(&mut self, ns: u64) {
        if let Some(c) = self.counts.get_mut(Self::bucket(ns)) {
            *c += 1;
        }
        self.total += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
    }

    /// The bucket floor at quantile `q`.
    fn quantile(&self, q: f64) -> u64 {
        rank_bucket(&self.counts, self.total, q).map_or(self.max, Self::floor)
    }

    pub(crate) fn stats(&self) -> LatencyStats {
        if self.total == 0 {
            return LatencyStats::default();
        }
        LatencyStats {
            p50_ns: self.quantile(0.50),
            p90_ns: self.quantile(0.90),
            p99_ns: self.quantile(0.99),
            max_ns: self.max,
            mean_ns: self.sum / self.total,
        }
    }
}

/// Planned start-up delay distribution, in slots. One slot *is* the
/// guaranteed start-up delay, so every field reads directly as a multiple
/// of the guarantee; an unbounded budget reports all zeros.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DelayStats {
    /// Median planned delay.
    pub p50_slots: u64,
    /// 99th-percentile planned delay.
    pub p99_slots: u64,
    /// Worst planned delay.
    pub max_slots: u64,
    /// Mean planned delay.
    pub mean_slots: f64,
}

/// Exact delay tally: delays are small integers (bounded by how long a
/// license chain can run ahead), so a dense count vector gives exact
/// percentiles with no per-arrival sample storage and no end-of-run sort
/// — the growth is amortized out by the worst delay seen, not by the
/// arrival count.
#[derive(Debug, Clone, Default)]
pub(crate) struct DelayHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl DelayHistogram {
    pub(crate) fn record(&mut self, delay_slots: u64) {
        let idx = delay_slots as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if let Some(c) = self.counts.get_mut(idx) {
            *c += 1;
        }
        self.total += 1;
        self.sum += delay_slots;
    }

    /// Folds `other` into `self` (used for the all-titles aggregate).
    pub(crate) fn absorb(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// The value at quantile `q`.
    fn quantile(&self, q: f64) -> u64 {
        rank_bucket(&self.counts, self.total, q).map_or(self.max(), |value| value as u64)
    }

    fn max(&self) -> u64 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i as u64)
            .unwrap_or(0)
    }

    pub(crate) fn stats(&self) -> DelayStats {
        if self.total == 0 {
            return DelayStats::default();
        }
        DelayStats {
            p50_slots: self.quantile(0.50),
            p99_slots: self.quantile(0.99),
            max_slots: self.max(),
            mean_slots: self.sum as f64 / self.total as f64,
        }
    }
}

/// A serving run could not start or had to stop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A [`MultiServeConfig`] field is out of range.
    Config {
        /// Which field.
        field: &'static str,
        /// What it must satisfy.
        reason: &'static str,
    },
    /// The merge policy named a parent outside its open tree — a policy
    /// contract violation, never reachable with the built-in policies.
    PolicyDesync {
        /// Group index (re-based across policy swaps) of the arrival being
        /// placed.
        node: usize,
        /// The group index of the parent it named.
        parent: usize,
    },
    /// The engine rejected a push mid-run.
    Ingest(IngestError),
    /// The final drain hit a simulation-model violation.
    Sim(SimError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config { field, reason } => write!(f, "invalid serve config {field}: {reason}"),
            Self::PolicyDesync { node, parent } => {
                write!(f, "policy placed node {node} under unknown parent {parent}")
            }
            Self::Ingest(e) => write!(f, "{e}"),
            Self::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IngestError> for ServeError {
    fn from(e: IngestError) -> Self {
        Self::Ingest(e)
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_online::DelayGuaranteedOnline;

    /// A one-title catalog over `(0, horizon]` with Poisson gaps of mean
    /// `mean` and an unbounded budget.
    fn one_title(media_len: u64, horizon: f64, mean: f64) -> MultiServeConfig {
        MultiServeConfig::new(vec![TitleConfig::new(media_len, mean)], horizon)
    }

    #[test]
    fn unbounded_budget_serves_every_arrival_with_zero_delay() {
        let report = serve_multi(&one_title(64, 500.0, 2.0)).unwrap();
        assert!(report.generated > 0, "a 500-slot horizon produces traffic");
        assert_eq!(report.rejected, 0);
        assert_eq!(report.served, report.generated);
        let summary = &report.titles[0].summary.summary;
        assert_eq!(summary.clients, report.served);
        assert_eq!(report.delay, DelayStats::default());
        assert!(summary.peak_streams >= 1, "served traffic transmits");
        assert!(i64::from(summary.peak_streams) <= summary.total_units);
        let l = report.latency;
        assert!(l.p50_ns <= l.p90_ns && l.p90_ns <= l.p99_ns && l.p99_ns <= l.max_ns);
        assert!(l.max_ns > 0, "pushes take measurable time");
    }

    #[test]
    fn replays_are_deterministic_modulo_latency() {
        let config = one_title(32, 300.0, 1.5);
        let a = serve_multi(&config).unwrap();
        let b = serve_multi(&config).unwrap();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delay, b.delay);
        assert_eq!(a.titles[0].summary, b.titles[0].summary);
    }

    #[test]
    fn seeds_change_the_workload() {
        let base = one_title(32, 400.0, 1.5);
        let other = MultiServeConfig {
            seed: base.seed + 1,
            ..base.clone()
        };
        let a = serve_multi(&base).unwrap();
        let b = serve_multi(&other).unwrap();
        assert_ne!(
            (a.generated, a.titles[0].summary.summary.total_units),
            (b.generated, b.titles[0].summary.summary.total_units),
            "different seeds should draw different traffic"
        );
    }

    #[test]
    fn single_channel_delays_overflow_instead_of_declining() {
        // One channel over dense traffic: the old loop declined most
        // arrivals here; the delay planner serves all of them, pushing
        // start-up back by up to about one media length, and keeps at
        // most the draining tree plus the live one retained.
        let config = MultiServeConfig {
            budget: Some(1),
            ..one_title(40, 600.0, 1.0)
        };
        let report = serve_multi(&config).unwrap();
        let summary = &report.titles[0].summary;
        assert_eq!(report.rejected, 0, "delay replaces rejection");
        assert_eq!(report.served, report.generated);
        assert_eq!(summary.summary.clients, report.generated);
        assert!(
            report.delay.max_slots > 0,
            "dense traffic over one channel must queue"
        );
        assert!(
            report.delay.max_slots <= 2 * 40,
            "one-channel queueing is bounded by chain spacing, got {}",
            report.delay.max_slots
        );
        assert!(report.delay.mean_slots > 0.0);
        assert!(
            summary.max_open_trees <= 2,
            "one channel keeps at most a draining tree plus the live one, got {}",
            summary.max_open_trees
        );
    }

    #[test]
    fn zero_budget_is_rejected_as_infeasible() {
        let config = MultiServeConfig {
            budget: Some(0),
            ..one_title(16, 200.0, 2.0)
        };
        match serve_multi(&config) {
            Err(ServeError::Config { field, .. }) => assert_eq!(field, "budget"),
            other => panic!("expected Config error for budget, got {other:?}"),
        }
    }

    #[test]
    fn reports_stream_out_in_service_order() {
        let mut clients = Vec::new();
        let report = serve_multi_with(
            &one_title(24, 250.0, 1.0),
            &sm_server::PlannerMemo::new(),
            |_, r| clients.push(r.client),
        )
        .unwrap();
        assert_eq!(clients.len(), report.served);
        let in_order: Vec<usize> = (0..report.served).collect();
        assert_eq!(
            clients, in_order,
            "service slots are sorted, so emission order is service order"
        );
    }

    #[test]
    fn pipeline_depth_does_not_change_the_traffic() {
        // Depth only moves the backpressure point between generator and
        // ingest; the drawn process and the served forest are identical.
        let shallow = MultiServeConfig {
            pipeline_depth: 1,
            ..one_title(32, 400.0, 2.0)
        };
        let deep = MultiServeConfig {
            pipeline_depth: 8,
            ..shallow.clone()
        };
        let a = serve_multi(&shallow).unwrap();
        let b = serve_multi(&deep).unwrap();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.titles[0].summary, b.titles[0].summary);
    }

    #[test]
    fn config_validation_names_the_offending_field() {
        let too_long = DelayGuaranteedOnline::MAX_MEDIA_LEN + 1;
        let dg_too_long = MultiServeConfig::new(
            vec![TitleConfig {
                policy: PolicyKind::DelayGuaranteed,
                ..TitleConfig::new(too_long, 1.0)
            }],
            100.0,
        );
        let cases: [(MultiServeConfig, &str); 7] = [
            (one_title(0, 100.0, 1.0), "media_len"),
            (dg_too_long, "media_len"),
            // Dyadic titles too: the planner memo prices every title with
            // a Delay Guaranteed template.
            (one_title(too_long, 100.0, 1.0), "media_len"),
            (one_title(8, 0.0, 1.0), "horizon"),
            (one_title(8, f64::INFINITY, 1.0), "horizon"),
            (one_title(8, 100.0, 0.0), "mean_interarrival"),
            (
                MultiServeConfig {
                    pipeline_depth: 0,
                    ..one_title(8, 100.0, 1.0)
                },
                "pipeline_depth",
            ),
        ];
        for (config, want) in cases {
            match serve_multi(&config) {
                Err(ServeError::Config { field, .. }) => assert_eq!(field, want),
                other => panic!("expected Config error for {want}, got {other:?}"),
            }
        }
    }

    #[test]
    fn buffer_bound_is_forwarded_to_the_engine() {
        // A zero client buffer makes any actual merge infeasible; dense
        // traffic guarantees merges, so the run must fail with the
        // engine's own typed error.
        let config = MultiServeConfig::new(
            vec![TitleConfig {
                buffer_bound: Some(0),
                ..TitleConfig::new(32, 1.0)
            }],
            300.0,
        );
        match serve_multi(&config) {
            Err(ServeError::Ingest(IngestError::Sim(SimError::BufferOverflow { .. })))
            | Err(ServeError::Sim(SimError::BufferOverflow { .. })) => {}
            other => panic!("expected BufferOverflow, got {other:?}"),
        }
    }

    #[test]
    fn display_formats_are_stable() {
        let e = ServeError::Config {
            field: "horizon",
            reason: "must be finite, positive, and at most 1e15",
        };
        assert_eq!(
            e.to_string(),
            "invalid serve config horizon: must be finite, positive, and at most 1e15"
        );
        let d = ServeError::PolicyDesync { node: 4, parent: 9 };
        assert_eq!(d.to_string(), "policy placed node 4 under unknown parent 9");
    }

    #[test]
    fn latency_histogram_buckets_are_contiguous_and_log_linear() {
        // Below 32 every value has its own bucket.
        for ns in 0..32u64 {
            assert_eq!(LatencyHistogram::bucket(ns), ns as usize);
            assert_eq!(LatencyHistogram::floor(ns as usize), ns);
        }
        // Each bucket's floor maps back to it, the next floor to the next
        // bucket, and no bucket is wider than 1/16 of its floor.
        for i in 32..LATENCY_BUCKETS {
            let lo = LatencyHistogram::floor(i);
            assert_eq!(LatencyHistogram::bucket(lo), i);
            if i + 1 < LATENCY_BUCKETS {
                let next = LatencyHistogram::floor(i + 1);
                assert_eq!(LatencyHistogram::bucket(next - 1), i);
                assert!((next - lo) * 16 <= lo, "bucket {i}: [{lo}, {next})");
            }
        }
        assert_eq!(LatencyHistogram::bucket(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn latency_percentiles_are_within_one_bucket_of_the_exact_rank() {
        // A fixed, skewed sample: a fast body with a slow tail, the shape
        // engine pushes have (cheap attaches, costly tree closures).
        let mut sample: Vec<u64> = (0..997u64)
            .map(|i| 40 + (i * 7919) % 200 + if i % 50 == 0 { 3_000 + i * 13 } else { 0 })
            .collect();
        sample.extend([1, 250_000, 1_234_567]);
        let mut h = LatencyHistogram::default();
        for &ns in &sample {
            h.record(ns);
        }
        let stats = h.stats();
        sample.sort_unstable();
        let exact = |q: f64| sample[((sample.len() - 1) as f64 * q).round() as usize];
        for (q, got) in [
            (0.50, stats.p50_ns),
            (0.90, stats.p90_ns),
            (0.99, stats.p99_ns),
        ] {
            let want = exact(q);
            let (gb, wb) = (
                LatencyHistogram::bucket(got),
                LatencyHistogram::bucket(want),
            );
            assert!(
                gb.abs_diff(wb) <= 1,
                "q = {q}: got {got} (bucket {gb}), exact {want} (bucket {wb})"
            );
        }
        assert_eq!(stats.max_ns, 1_234_567, "the maximum is exact");
        let mean = sample.iter().sum::<u64>() / sample.len() as u64;
        assert_eq!(stats.mean_ns, mean, "the mean is exact");
        assert!(stats.p50_ns <= stats.p90_ns && stats.p90_ns <= stats.p99_ns);
        assert!(stats.p99_ns <= stats.max_ns);
        assert_eq!(LatencyHistogram::default().stats(), LatencyStats::default());
    }

    #[test]
    fn delay_histogram_percentiles_are_exact() {
        let mut h = DelayHistogram::default();
        for d in [0u64, 0, 0, 1, 1, 2, 5, 5, 9, 40] {
            h.record(d);
        }
        let s = h.stats();
        // Sorted sample: ranks follow round((n−1)·q), half away from zero.
        assert_eq!(s.p50_slots, 2);
        assert_eq!(s.p99_slots, 40);
        assert_eq!(s.max_slots, 40);
        assert!((s.mean_slots - 6.3).abs() < 1e-12);

        let mut other = DelayHistogram::default();
        other.record(100);
        h.absorb(&other);
        assert_eq!(h.stats().max_slots, 100);
        assert_eq!(DelayHistogram::default().stats(), DelayStats::default());
    }
}
