//! The multi-title delay-planning serve loop.
//!
//! One producer thread draws an independent Poisson run per title for
//! each pipeline batch and fans them into a single time-ordered stream
//! with [`sm_core::merge_runs`] (ties resolve to the lower title index —
//! deterministic, documented). The consumer owns one
//! [`IncrementalEngine`] and one boxed [`IncrementalPolicy`] per title
//! plus a single shared [`DelayPlanner`], and serves every arrival:
//! overload becomes start-up delay, never rejection.
//!
//! # Delay planning
//!
//! The planner keeps a min-heap of **license chains** — back-to-back
//! timelines of full-length streams. Planning a group at arrival slot
//! `a` first drops chains that ended by `a`; if the budget is saturated
//! it pops the chain that frees earliest and schedules the group at
//! `s = max(a, chain end)`, extending that chain; otherwise `s = a`.
//! Chains never overlap internally and never number more than the
//! budget. The plan happens *before* the title's policy decides
//! root-or-merge — the same decision boundary at which the retired
//! license gauge declined — and a merge verdict drops the popped chain.
//!
//! Dropping it is safe within one title: the chain ends by `s`, and the
//! title's next group arrives after `s` (earlier arrivals join the
//! pending group), so none of its later streams overlaps the dropped
//! one. A one-title catalog therefore never has more than `b` live
//! full streams (pinned by the `budget` property test below). Across
//! titles it is not safe: another title can plan a group before the
//! dropped chain's stream ends, find a free chain and start a full
//! stream at once. With `L = 10/1000/50` at budget 2, four full
//! streams can go live together. What holds for every catalog is the
//! chain bound: at most `b` license chains.
//!
//! # Batching
//!
//! Arrivals at slots no later than their title's pending service slot
//! join that group as zero-length streams under its head — everyone who
//! shows up while the stream is still pending rides it, the paper's
//! batching rule. Consequently per-title service slots strictly increase
//! group to group, which is exactly what [`DyadicMerger`] requires of
//! its clock.
//!
//! # The policy-swap seam
//!
//! [`PolicySwap`] replaces a title's policy with a freshly constructed
//! one immediately **before** group number `after_groups` is decided.
//! The fresh policy numbers its decisions from zero; the loop re-bases
//! parent indices by the group count at the swap point, so any policy
//! whose decision stream is a function of its own push history composes
//! transparently. Parents resolve against the group heads of the
//! policy's open tree only (a root decision clears the window), so a
//! parent in a closed tree or not yet pushed is a typed
//! [`ServeError::PolicyDesync`], never an engine error. Swapping Delay Guaranteed → Delay Guaranteed at a
//! tree boundary (a multiple of the template's `tree_size()`) is a
//! no-op: the template restarts per tree, so the decision stream — and
//! therefore the whole run — is bit-identical (pinned by test).
//!
//! # Two time bases
//!
//! The shared planner, the delay distributions, and the join rule all
//! live on **real slotted time**. Each title's *engine*, however, runs on
//! the clock its policy is defined on. The dyadic merger is natively
//! continuous-time, so dyadic groups are pushed at their real service
//! slots. The Delay Guaranteed template is slot-*dense* — its contract is
//! "arrival `k` is slot `k`", and its merge lengths are only feasible on
//! that grid — so a Delay Guaranteed title advances its engine one tick
//! per merge group (joiners ride the group's tick), exactly the §4.1 grid
//! its guarantee is stated on. A policy swap switches the title's engine
//! clock with the policy: dense ticks always continue one past the last
//! push, and real service slots are never behind them (service slots
//! strictly increase per group), so engine time stays nondecreasing
//! across any swap in either direction.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sm_core::{merge_runs, pipeline};
use sm_online::{
    DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy, MergeDecision,
};
use sm_server::PlannerMemo;
use sm_sim::{Attach, ClientReport, IncrementalEngine, IncrementalSummary, SimConfig};
use sm_workload::{ArrivalProcess, PoissonProcess};

use crate::{DelayHistogram, DelayStats, LatencyHistogram, LatencyStats, ServeError, MAX_HORIZON};

/// Per-batch seed mixer (splitmix64's odd constant): batch `i` of every
/// title draws from an RNG that is a pure function of `(seed, i, title)`.
const BATCH_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Per-title seed mixer (xxhash's odd prime). Title 0's salt is zero, so
/// title 0 of any catalog draws the identical traffic a one-title run
/// draws.
const TITLE_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;
/// One engine push in this many has its wall-clock cost sampled, starting
/// with the first; a power of two, so the test is a mask.
const LATENCY_SAMPLE_EVERY: u64 = 64;

/// Which built-in on-line merge policy a title runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The §4.1 delay-guaranteed template policy (slot-indexed; ignores
    /// service times).
    DelayGuaranteed,
    /// The dyadic merger with the golden ratio α and β = ½ — the paper's
    /// recommended configuration for Poisson traffic.
    Dyadic,
}

impl PolicyKind {
    fn build(self, media_len: u64) -> Box<dyn IncrementalPolicy> {
        match self {
            Self::DelayGuaranteed => Box::new(DelayGuaranteedOnline::new(media_len)),
            Self::Dyadic => Box::new(DyadicMerger::new(
                DyadicConfig::golden_poisson(),
                media_len as f64,
            )),
        }
    }

    /// Whether the policy's engine clock is the dense template grid (one
    /// tick per merge group) rather than real service slots.
    fn dense_grid(self) -> bool {
        matches!(self, Self::DelayGuaranteed)
    }
}

/// A mid-run policy replacement, applied immediately before the title
/// decides group number `after_groups` (0-based): that group and all
/// later ones are decided by a freshly constructed `to` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySwap {
    /// Group count at which the swap fires; if the run ends earlier the
    /// swap never happens.
    pub after_groups: usize,
    /// The policy that takes over.
    pub to: PolicyKind,
}

/// One title of a multi-title serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TitleConfig {
    /// Media length in slots (`L`); must be at least 1 and at most
    /// [`DelayGuaranteedOnline::MAX_MEDIA_LEN`].
    pub media_len: u64,
    /// Mean inter-arrival gap of this title's Poisson workload, in slots.
    pub mean_interarrival: f64,
    /// The on-line merge policy deciding this title's forest.
    pub policy: PolicyKind,
    /// Optional mid-run policy swap through the
    /// [`IncrementalPolicy`] seam.
    pub swap: Option<PolicySwap>,
    /// Optional per-client buffer bound, forwarded to the engine.
    pub buffer_bound: Option<u64>,
}

impl TitleConfig {
    /// A title under the default dyadic policy, no swap, no buffer bound.
    pub fn new(media_len: u64, mean_interarrival: f64) -> Self {
        Self {
            media_len,
            mean_interarrival,
            policy: PolicyKind::Dyadic,
            swap: None,
            buffer_bound: None,
        }
    }
}

/// A multi-title serving run: a catalog of titles behind one shared
/// channel budget.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiServeConfig {
    /// The catalog; must be non-empty.
    pub titles: Vec<TitleConfig>,
    /// Traffic horizon in slots: every title generates over `(0, horizon]`.
    pub horizon: f64,
    /// Shared channel budget across all titles: at most this many
    /// full-length streams live at once. Arrivals past the budget are
    /// *delayed*, never declined. `None` plans everything at its arrival
    /// slot (zero delay).
    pub budget: Option<usize>,
    /// Workload RNG seed; identical seeds replay identical traffic.
    pub seed: u64,
    /// Producer batch granularity in slots.
    pub batch_slots: f64,
    /// Backpressure depth of the generator→ingest channel (must be ≥ 1).
    pub pipeline_depth: usize,
}

impl MultiServeConfig {
    /// A run over `(0, horizon]` with an unbounded budget and default
    /// pipeline granularity (256-slot batches, depth 4).
    pub fn new(titles: Vec<TitleConfig>, horizon: f64) -> Self {
        Self {
            titles,
            horizon,
            budget: None,
            seed: 7,
            batch_slots: 256.0,
            pipeline_depth: 4,
        }
    }

    fn validate(&self) -> Result<(), ServeError> {
        let bad = |field, reason| Err(ServeError::Config { field, reason });
        if self.titles.is_empty() {
            return bad("titles", "the catalog needs at least one title");
        }
        for title in &self.titles {
            if title.media_len == 0 {
                return bad("media_len", "every title needs at least 1 slot of media");
            }
            // Every title, whatever its policy, is priced by the planner
            // memo's steady-state Delay Guaranteed analysis, which builds
            // that policy's template.
            if title.media_len > DelayGuaranteedOnline::MAX_MEDIA_LEN {
                return bad("media_len", "must be at most 1e6 slots");
            }
            if !(title.mean_interarrival > 0.0 && title.mean_interarrival.is_finite()) {
                return bad("mean_interarrival", "must be finite and positive");
            }
        }
        if !(self.horizon > 0.0 && self.horizon <= MAX_HORIZON) {
            return bad("horizon", "must be finite, positive, and at most 1e15");
        }
        if self.budget == Some(0) {
            return bad("budget", "a bounded budget needs at least 1 channel");
        }
        if !(self.batch_slots >= 1.0 && self.batch_slots.is_finite()) {
            return bad("batch_slots", "must be finite and at least 1");
        }
        if self.pipeline_depth == 0 {
            return bad("pipeline_depth", "must be at least 1");
        }
        Ok(())
    }
}

/// One title's share of a [`MultiServeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TitleReport {
    /// The title's media length in slots.
    pub media_len: u64,
    /// Arrivals this title's generator produced.
    pub generated: usize,
    /// Arrivals served for this title (`= generated`; never declines).
    pub served: usize,
    /// Merge groups opened (policy decisions made) for this title.
    pub groups: usize,
    /// The planner memo's steady-state bandwidth peak for this media
    /// length — the per-length analysis [`PlannerMemo`] caches, reported
    /// so the operator can read planned peak next to observed delay.
    pub planned_peak: u32,
    /// Planned start-up delay distribution over this title's arrivals.
    pub delay: DelayStats,
    /// The title engine's whole-run aggregates.
    pub summary: IncrementalSummary,
}

/// What a multi-title serving run did.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiServeReport {
    /// Arrivals generated across all titles.
    pub generated: usize,
    /// Arrivals served across all titles (`= generated`).
    pub served: usize,
    /// Always 0 — the zero-rejection invariant of the delay-planning
    /// contract, kept observable.
    pub rejected: usize,
    /// Planned start-up delay distribution across all titles.
    pub delay: DelayStats,
    /// Per-title breakdowns, in catalog order.
    pub titles: Vec<TitleReport>,
    /// Wall-clock percentiles over sampled pushes (1 in 64, the first
    /// push always included) across all titles.
    pub latency: LatencyStats,
    /// Planner-memo lookups served from cache during this run (per-length
    /// analyses shared across titles and with any earlier runs on the
    /// same memo).
    pub memo_hits: u64,
}

/// The shared-budget scheduler: a min-heap of license-chain end slots.
/// See the module docs for the safety argument.
struct DelayPlanner {
    chains: BinaryHeap<Reverse<i64>>,
    budget: Option<usize>,
}

impl DelayPlanner {
    fn new(budget: Option<usize>) -> Self {
        Self {
            chains: BinaryHeap::new(),
            budget,
        }
    }

    /// Plans the service slot for a group arriving at `slot`: the arrival
    /// slot itself while the budget has room, else the end of the chain
    /// that frees earliest.
    fn plan(&mut self, slot: i64) -> i64 {
        let Some(b) = self.budget else {
            return slot;
        };
        while self.chains.peek().is_some_and(|&Reverse(end)| end <= slot) {
            self.chains.pop();
        }
        let mut s = slot;
        while self.chains.len() >= b {
            if let Some(Reverse(end)) = self.chains.pop() {
                s = s.max(end);
            }
        }
        s
    }

    /// Commits a planned full-length stream ending at `end` (a root
    /// decision): opens or extends a license chain.
    fn commit(&mut self, end: i64) {
        if self.budget.is_some() {
            self.chains.push(Reverse(end));
        }
    }
}

/// A title's pending merge group.
#[derive(Clone, Copy)]
struct Group {
    /// Real service slot: the planner's verdict, the join-rule boundary.
    service_slot: i64,
    /// What the title's engine was pushed with: the service slot for a
    /// real-time policy, the dense-grid tick for a template policy.
    engine_time: i64,
    /// Engine-global index of the group's head.
    head: usize,
}

/// The engine heads of the groups in a title policy's open tree — every
/// parent a merge decision may legally name. A root decision clears it, so
/// its size is bounded by the largest tree, not by the run.
#[derive(Default)]
struct OpenTree {
    /// Group index (re-based across swaps) of the open tree's root.
    base: usize,
    /// Group `base + i` → engine-global index of that group's head.
    heads: Vec<usize>,
}

impl OpenTree {
    /// Maps a policy decision onto the engine attachment. Policy-local
    /// indices re-base by `policy_base`; a parent outside the open tree —
    /// in a closed tree, or at or past the group being decided — is a
    /// [`ServeError::PolicyDesync`].
    fn resolve(&self, policy_base: usize, decision: &MergeDecision) -> Result<Attach, ServeError> {
        let Some(p) = decision.parent else {
            return Ok(Attach::Root);
        };
        let parent = policy_base.saturating_add(p);
        parent
            .checked_sub(self.base)
            .and_then(|i| self.heads.get(i))
            .map(|&head| Attach::Under(head))
            .ok_or(ServeError::PolicyDesync {
                node: policy_base.saturating_add(decision.node),
                parent,
            })
    }

    /// Records the head of group `group` once pushed; a root opens a
    /// fresh tree.
    fn record(&mut self, root: bool, group: usize, head: usize) {
        if root {
            self.base = group;
            self.heads.clear();
        }
        self.heads.push(head);
    }
}

/// Sampled push timing: reads the clock around one push in
/// [`LATENCY_SAMPLE_EVERY`] and tallies it; the rest run untimed.
#[derive(Default)]
struct PushClock {
    pushes: u64,
    samples: LatencyHistogram,
}

impl PushClock {
    fn time<T>(&mut self, push: impl FnOnce() -> T) -> T {
        let sampled = self.pushes & (LATENCY_SAMPLE_EVERY - 1) == 0;
        self.pushes += 1;
        if !sampled {
            return push();
        }
        let t0 = Instant::now();
        let out = push();
        self.samples.record(elapsed_ns(t0));
        out
    }
}

/// Per-title consumer state.
struct TitleState {
    media_len: u64,
    media: i64,
    engine: IncrementalEngine,
    policy: Box<dyn IncrementalPolicy>,
    /// `true` while the active policy runs on the dense template grid.
    dense_grid: bool,
    swap: Option<PolicySwap>,
    /// Group count at the last swap: fresh policies number decisions from
    /// zero, so parent indices re-base by this offset.
    policy_base: usize,
    /// Last engine push time; dense ticks continue one past it, and a
    /// post-swap real-time policy starts at or above it.
    last_engine_time: i64,
    /// The policy's open tree, for resolving merge parents.
    open: OpenTree,
    /// Pending group, if any.
    cur: Option<Group>,
    groups: usize,
    generated: usize,
    delays: DelayHistogram,
}

/// Floors a continuous arrival time onto the slot grid. `t` is bounded
/// by the validated horizon, so the saturating `as` cast is exact.
fn slot_of(t: f64) -> i64 {
    t.floor() as i64
}

/// Nanoseconds since `t0`, saturating instead of unwrapping on the
/// (centuries-long) overflow path.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs a multi-title serving session with a private planner memo,
/// discarding per-client reports. See [`serve_multi_with`] for the full
/// form.
///
/// ```
/// use sm_serve::{serve_multi, MultiServeConfig, TitleConfig};
///
/// let config = MultiServeConfig {
///     budget: Some(8),
///     ..MultiServeConfig::new(
///         vec![TitleConfig::new(48, 1.5), TitleConfig::new(96, 3.0)],
///         500.0,
///     )
/// };
/// let report = serve_multi(&config).unwrap();
/// assert_eq!(report.rejected, 0);
/// assert_eq!(report.served, report.generated);
/// ```
pub fn serve_multi(config: &MultiServeConfig) -> Result<MultiServeReport, ServeError> {
    serve_multi_with(config, &PlannerMemo::new(), |_, _| {})
}

/// Runs a multi-title serving session end to end: per-title Poisson runs
/// are drawn on a producer thread, fanned in time-ordered through the
/// bounded pipeline channel, and ingested arrival-at-a-time through the
/// shared delay planner, each title's policy, and each title's engine.
/// `on_report(title, report)` fires for every served client the moment
/// its last part-deadline passes. `memo` supplies (and caches) the
/// per-length planner analyses reported as [`TitleReport::planned_peak`];
/// share one memo across runs to reuse them.
pub fn serve_multi_with<F>(
    config: &MultiServeConfig,
    memo: &PlannerMemo,
    mut on_report: F,
) -> Result<MultiServeReport, ServeError>
where
    F: FnMut(usize, ClientReport),
{
    config.validate()?;
    let hits_before = memo.hits();
    memo.seed_peaks(config.titles.iter().map(|t| t.media_len).collect());

    let mut states = Vec::with_capacity(config.titles.len());
    for title in &config.titles {
        states.push(TitleState {
            media_len: title.media_len,
            media: title.media_len as i64,
            engine: IncrementalEngine::new(
                title.media_len,
                SimConfig {
                    buffer_bound: title.buffer_bound,
                },
            )?,
            policy: title.policy.build(title.media_len),
            dense_grid: title.policy.dense_grid(),
            swap: title.swap,
            policy_base: 0,
            last_engine_time: -1,
            open: OpenTree::default(),
            cur: None,
            groups: 0,
            generated: 0,
            delays: DelayHistogram::default(),
        });
    }

    let mut planner = DelayPlanner::new(config.budget);
    let mut clock = PushClock::default();
    let mut generated = 0usize;
    let n_batches = (config.horizon / config.batch_slots).ceil() as usize;
    let (horizon, batch, seed) = (config.horizon, config.batch_slots, config.seed);
    let means: Vec<f64> = config.titles.iter().map(|t| t.mean_interarrival).collect();

    // Workload generation runs on the pipeline's producer thread, at most
    // `pipeline_depth` batches ahead of ingest. Each (title, batch) run is
    // an independent Poisson segment over its sub-horizon; memoryless
    // increments make the concatenation exactly one Poisson process per
    // title, and per-(title, batch) seeding keeps every run a pure
    // function of (seed, batch index, title index).
    pipeline(
        n_batches,
        config.pipeline_depth,
        move |i| -> Result<Vec<(f64, u32)>, ServeError> {
            let offset = i as f64 * batch;
            let span = (horizon - offset).min(batch);
            let runs: Vec<Vec<(f64, u32)>> = means
                .iter()
                .enumerate()
                .map(|(k, &mean)| {
                    let mixed = seed
                        ^ (i as u64).wrapping_mul(BATCH_SALT)
                        ^ (k as u64).wrapping_mul(TITLE_SALT);
                    let mut proc = PoissonProcess::new(mean, mixed);
                    proc.generate(span)
                        .iter()
                        // sm-lint: allow(narrowing-cast) — k indexes the in-memory title catalog, nowhere near 2^32
                        .map(|t| (offset + t, k as u32))
                        .collect()
                })
                .collect();
            Ok(merge_runs(runs, |a, b| a.0 < b.0))
        },
        |_, arrivals| {
            for (t, k) in arrivals {
                generated += 1;
                let slot = slot_of(t);
                let title = k as usize;
                let state = &mut states[title];
                state.generated += 1;
                // The batching rule: arrivals no later than the pending
                // group's service slot ride it as zero-length streams.
                if let Some(group) = state.cur {
                    if slot <= group.service_slot {
                        state.delays.record((group.service_slot - slot) as u64);
                        clock.time(|| {
                            state.engine.push(
                                group.engine_time,
                                Attach::Under(group.head),
                                &mut |r| on_report(title, r),
                            )
                        })?;
                        continue;
                    }
                }
                // New group: plan its service slot against the shared
                // budget *before* the policy decides — delay is granted
                // exactly where the retired gauge declined.
                let s = planner.plan(slot);
                state.delays.record((s - slot) as u64);
                if let Some(swap) = state.swap.filter(|sw| sw.after_groups == state.groups) {
                    state.policy = swap.to.build(state.media_len);
                    state.dense_grid = swap.to.dense_grid();
                    state.policy_base = state.groups;
                    state.swap = None;
                }
                let engine_time = if state.dense_grid {
                    state.last_engine_time + 1
                } else {
                    s
                };
                let decision = state.policy.push(s as f64);
                let attach = state.open.resolve(state.policy_base, &decision)?;
                if decision.is_root() {
                    planner.commit(s + state.media);
                }
                let global = state.engine.arrivals();
                clock.time(|| {
                    state
                        .engine
                        .push(engine_time, attach, &mut |r| on_report(title, r))
                })?;
                state.last_engine_time = engine_time;
                state.open.record(decision.is_root(), state.groups, global);
                state.cur = Some(Group {
                    service_slot: s,
                    engine_time,
                    head: global,
                });
                state.groups += 1;
            }
            Ok(())
        },
    )?;

    let mut titles = Vec::with_capacity(states.len());
    let mut delay_all = DelayHistogram::default();
    let mut served = 0usize;
    for (title, state) in states.into_iter().enumerate() {
        let summary = state.engine.finish(&mut |r| on_report(title, r))?;
        debug_assert_eq!(summary.summary.clients, state.generated);
        served += state.generated;
        delay_all.absorb(&state.delays);
        titles.push(TitleReport {
            media_len: state.media_len,
            generated: state.generated,
            served: state.generated,
            groups: state.groups,
            planned_peak: memo.peak(state.media_len),
            delay: state.delays.stats(),
            summary,
        });
    }
    debug_assert_eq!(served, generated);
    Ok(MultiServeReport {
        generated,
        served,
        rejected: 0,
        delay: delay_all.stats(),
        titles,
        latency: clock.samples.stats(),
        memo_hits: memo.hits().saturating_sub(hits_before),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn titles3() -> Vec<TitleConfig> {
        vec![
            TitleConfig::new(64, 1.5),
            TitleConfig {
                policy: PolicyKind::DelayGuaranteed,
                ..TitleConfig::new(40, 2.0)
            },
            TitleConfig::new(100, 4.0),
        ]
    }

    #[test]
    fn unbounded_multi_run_serves_everything_with_zero_delay() {
        let report = serve_multi(&MultiServeConfig::new(titles3(), 800.0)).unwrap();
        assert_eq!(report.rejected, 0);
        assert_eq!(report.served, report.generated);
        assert_eq!(report.delay, DelayStats::default());
        assert_eq!(report.titles.len(), 3);
        let sum: usize = report.titles.iter().map(|t| t.generated).sum();
        assert_eq!(sum, report.generated);
        for title in &report.titles {
            assert_eq!(title.served, title.generated);
            assert_eq!(title.summary.summary.clients, title.generated);
            assert!(title.groups > 0 && title.groups <= title.generated);
            assert!(title.planned_peak > 0, "memo analysis must be reported");
        }
        assert_eq!(report.memo_hits, 3, "one cached peak lookup per title");
    }

    #[test]
    fn shared_budget_delays_but_never_declines() {
        let config = MultiServeConfig {
            budget: Some(2),
            ..MultiServeConfig::new(titles3(), 800.0)
        };
        let report = serve_multi(&config).unwrap();
        assert_eq!(report.rejected, 0, "delay replaces rejection");
        assert_eq!(report.served, report.generated);
        assert!(
            report.delay.max_slots > 0,
            "three titles over two channels must queue"
        );
        let per_title_max = report.titles.iter().map(|t| t.delay.max_slots).max();
        assert_eq!(per_title_max, Some(report.delay.max_slots));
    }

    #[test]
    fn multi_replays_are_deterministic() {
        let config = MultiServeConfig {
            budget: Some(3),
            ..MultiServeConfig::new(titles3(), 600.0)
        };
        let a = serve_multi(&config).unwrap();
        let b = serve_multi(&config).unwrap();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delay, b.delay);
        for (ta, tb) in a.titles.iter().zip(&b.titles) {
            assert_eq!(ta.summary, tb.summary);
            assert_eq!(ta.delay, tb.delay);
        }
    }

    #[test]
    fn title_zero_draws_the_single_title_traffic() {
        // Title 0's seed salt is zero and an unbounded budget plans no
        // delay, so title 0 of a catalog draws the same Poisson process
        // and serves the same forest as the one-title run of its config.
        let single = serve_multi(&MultiServeConfig::new(
            vec![TitleConfig::new(64, 2.0)],
            500.0,
        ))
        .unwrap();
        let mut catalog = titles3();
        catalog[0] = TitleConfig::new(64, 2.0);
        let multi = serve_multi(&MultiServeConfig::new(catalog, 500.0)).unwrap();
        assert_eq!(multi.titles[0].generated, single.generated);
        assert_eq!(multi.titles[0].summary, single.titles[0].summary);
    }

    #[test]
    fn per_title_reports_stream_with_their_title_index() {
        let mut seen = [0usize; 3];
        let report = serve_multi_with(
            &MultiServeConfig::new(titles3(), 400.0),
            &PlannerMemo::new(),
            |title, _| seen[title] += 1,
        )
        .unwrap();
        for (title, &count) in seen.iter().enumerate() {
            assert_eq!(count, report.titles[title].served);
        }
    }

    #[test]
    fn shared_memo_reuses_per_length_analyses_across_runs() {
        let memo = PlannerMemo::new();
        let config = MultiServeConfig::new(titles3(), 300.0);
        let first = serve_multi_with(&config, &memo, |_, _| {}).unwrap();
        let misses_after_first = memo.misses();
        let second = serve_multi_with(&config, &memo, |_, _| {}).unwrap();
        assert_eq!(first.memo_hits, 3, "one cached peak lookup per title");
        assert_eq!(second.memo_hits, 3);
        assert_eq!(
            memo.misses(),
            misses_after_first,
            "the second run must re-analyze nothing: every length is cached"
        );
        assert_eq!(memo.distinct_lengths(), 3);
    }

    #[test]
    fn empty_catalog_is_rejected() {
        match serve_multi(&MultiServeConfig::new(vec![], 100.0)) {
            Err(ServeError::Config { field, .. }) => assert_eq!(field, "titles"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    fn attach_under(parent: usize) -> MergeDecision {
        MergeDecision {
            node: 0,
            tree: 0,
            parent: Some(parent),
        }
    }

    /// A window whose open tree is rooted at group 4, with groups 4..7
    /// headed by engine arrivals 10, 12 and 15.
    fn open_tree_at_4() -> OpenTree {
        let mut open = OpenTree::default();
        // A closed tree (groups 0..4) that the root at group 4 evicts.
        for (group, head) in [(0, 0), (1, 3), (2, 5), (3, 8)] {
            open.record(group == 0, group, head);
        }
        for (group, head) in [(4, 10), (5, 12), (6, 15)] {
            open.record(group == 4, group, head);
        }
        open
    }

    #[test]
    fn open_tree_resolves_parents_in_the_open_tree() {
        let open = open_tree_at_4();
        let root = MergeDecision {
            node: 7,
            tree: 1,
            parent: None,
        };
        assert_eq!(open.resolve(0, &root), Ok(Attach::Root));
        assert_eq!(open.resolve(0, &attach_under(4)), Ok(Attach::Under(10)));
        assert_eq!(open.resolve(0, &attach_under(6)), Ok(Attach::Under(15)));
    }

    #[test]
    fn open_tree_rejects_a_parent_in_a_closed_tree() {
        let open = open_tree_at_4();
        for parent in [0, 3] {
            let decision = MergeDecision {
                node: 7,
                ..attach_under(parent)
            };
            assert_eq!(
                open.resolve(0, &decision),
                Err(ServeError::PolicyDesync { node: 7, parent }),
                "group {parent} belongs to the closed tree"
            );
        }
    }

    #[test]
    fn open_tree_rejects_a_parent_at_or_past_the_current_group() {
        let open = open_tree_at_4();
        // Group 7 is the one being decided; 7 and later were never pushed.
        for parent in [7, 8, usize::MAX] {
            let decision = MergeDecision {
                node: 7,
                ..attach_under(parent)
            };
            assert_eq!(
                open.resolve(0, &decision),
                Err(ServeError::PolicyDesync { node: 7, parent }),
            );
        }
    }

    #[test]
    fn open_tree_rebases_parents_after_a_policy_swap() {
        // The swap fired before group 5: the fresh policy numbers group 5
        // as its node 0, which roots a tree at engine arrival 12.
        let mut open = open_tree_at_4();
        let policy_base = 5;
        open.record(true, 5, 12);
        open.record(false, 6, 15);
        assert_eq!(open.base, 5);
        // Policy-local parent 1 is group 6.
        assert_eq!(
            open.resolve(policy_base, &attach_under(1)),
            Ok(Attach::Under(15))
        );
        assert_eq!(
            open.resolve(policy_base, &attach_under(0)),
            Ok(Attach::Under(12))
        );
        // Policy-local 2 is group 7, not yet pushed; indices saturate
        // instead of overflowing.
        assert_eq!(
            open.resolve(policy_base, &attach_under(2)),
            Err(ServeError::PolicyDesync { node: 5, parent: 7 })
        );
        assert_eq!(
            open.resolve(policy_base, &attach_under(usize::MAX)),
            Err(ServeError::PolicyDesync {
                node: 5,
                parent: usize::MAX
            })
        );
    }

    #[test]
    fn sampled_latency_covers_one_push_in_64_starting_with_the_first() {
        let mut clock = PushClock::default();
        let mut ran = 0;
        for _ in 0..130 {
            clock.time(|| ran += 1);
        }
        assert_eq!(ran, 130, "every push runs, timed or not");
        // Pushes 0, 64 and 128 are sampled.
        assert_eq!(clock.samples.total, 3);
    }

    #[test]
    fn any_run_with_an_arrival_reports_a_positive_max_latency() {
        // A horizon this short draws a handful of arrivals at most; the
        // first push is always timed.
        for horizon in [3.0, 50.0, 800.0] {
            let report = serve_multi(&MultiServeConfig::new(titles3(), horizon)).unwrap();
            if report.generated > 0 {
                assert!(report.latency.max_ns > 0, "horizon {horizon}: {report:?}");
            } else {
                assert_eq!(report.latency, LatencyStats::default());
            }
        }
    }

    /// Drives one shared planner through each title's batching rule (an
    /// arrival at or before the title's pending service slot joins, any
    /// later one is planned) with the given root/merge verdicts, and checks
    /// every committed full stream `[s, s + L)` against the budget. Each
    /// step is `(title, gap, verdict)`: arrivals come in slot order across
    /// titles, as the fan-in delivers them.
    fn assert_planner_bounds_live_full_streams(
        budget: usize,
        medias: &[i64],
        steps: &[(usize, i64, u8)],
    ) {
        let mut planner = DelayPlanner::new(Some(budget));
        let mut free = DelayPlanner::new(None);
        let mut streams = Vec::new();
        let mut pending: Vec<Option<i64>> = vec![None; medias.len()];
        let mut slot = 0i64;
        for &(title, gap, verdict) in steps {
            let title = title % medias.len();
            slot += gap;
            if pending[title].is_some_and(|p| slot <= p) {
                continue;
            }
            assert_eq!(free.plan(slot), slot);
            let s = planner.plan(slot);
            assert!(s >= slot, "planned {s} before arrival {slot}");
            // A title's first group always opens a tree.
            if pending[title].is_none() || verdict == 0 {
                planner.commit(s + medias[title]);
                free.commit(s + medias[title]);
                streams.push((s, s + medias[title]));
            }
            pending[title] = Some(s);
        }
        // The live count only rises at a stream start, so checking every
        // start checks every slot.
        for &(s, _) in &streams {
            let live = streams
                .iter()
                .filter(|&&(t, end)| t <= s && s < end)
                .count();
            assert!(live <= budget, "{live} full streams live at slot {s}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn planner_budget_bounds_live_full_streams_of_one_title(
            budget in 1usize..=8,
            media in 1i64..=200,
            steps in proptest::collection::vec((0i64..12, 0u8..2), 1..300),
        ) {
            let steps: Vec<_> = steps.into_iter().map(|(gap, v)| (0, gap, v)).collect();
            assert_planner_bounds_live_full_streams(budget, &[media], &steps);
        }

        /// The same oracle over 2–4 titles, each with its own media length
        /// and pending slot. Fails today: a merge verdict drops the chain
        /// `plan` popped while that chain's stream is still live, so another
        /// title can start a full stream at once. With `L = 10/1000/50` at
        /// budget 2, `serve_multi` reaches 4 live full streams. The smallest
        /// trace: titles with `L = 1000` and `L = 10` open at slots 0 and 1;
        /// the `L = 10` title plans again at slot 5, waits for its own chain
        /// (ends at 11) and merges; the `L = 50` title then opens at slot 6,
        /// the third live stream. Un-ignore with the planner fix.
        #[test]
        #[ignore = "multi-title budget defect: a merge verdict drops a live chain"]
        fn planner_budget_bounds_live_full_streams_across_titles(
            budget in 1usize..=8,
            medias in proptest::collection::vec(1i64..=1000, 2..=4),
            steps in proptest::collection::vec((0usize..4, 0i64..12, 0u8..2), 1..300),
        ) {
            assert_planner_bounds_live_full_streams(budget, &medias, &steps);
        }
    }

    #[test]
    fn planner_extends_the_earliest_freeing_chain() {
        let mut p = DelayPlanner::new(Some(2));
        assert_eq!(p.plan(0), 0);
        p.commit(10);
        assert_eq!(p.plan(1), 1);
        p.commit(14);
        // Budget saturated: the next group waits for the chain ending 10.
        assert_eq!(p.plan(2), 10);
        p.commit(20);
        // Slot 15: the chain ending 14 expired on its own; room is free.
        assert_eq!(p.plan(15), 15);
        p.commit(25);
        // Unbounded planner never waits and tracks nothing.
        let mut free = DelayPlanner::new(None);
        free.commit(9);
        assert_eq!(free.plan(3), 3);
        assert!(free.chains.is_empty());
    }
}
