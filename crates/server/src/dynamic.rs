//! Dynamic re-provisioning — the §5 observation that stream merging, unlike
//! the static broadcasting schemes, "can accommodate scenarios where the
//! server wishes to change the guaranteed start-up delay".
//!
//! The catalog changes over time (titles added/retired, popularity shifts);
//! at each epoch boundary the server re-plans per-title delays against the
//! same bandwidth budget. Nothing is torn down: streams committed under the
//! old plan simply run to completion while the new plan's slot grids start
//! — exactly what dynamic channel allocation means. The simulation here is
//! *stream-exact*: every stream of every epoch is materialized from the
//! Delay Guaranteed template (its Lemma-1 truncated length included) and
//! binned on the minute grid, so the transition overlap is measured, not
//! modeled.
//!
//! # The cross-epoch pipeline
//!
//! [`simulate_dynamic`] processes epochs through a two-stage pipeline built
//! on [`sm_core::pipeline`]: a *planning* stage runs the weighted planner
//! on its own thread while the *materialization* stage turns finished
//! plans into exact stream intervals and bins them — per-title work inside
//! each stage still shards across threads with [`sm_core::parallel_map`].
//! The bounded channel between the stages holds up to two finished plans,
//! so planning runs at most two epochs ahead of materialization and the
//! backlog never grows unboundedly.
//!
//! The planning stage threads one run-local [`PlannerMemo`] through every
//! epoch: overlapping catalogs pay for each distinct media length's
//! steady-state analysis once per run instead of once per epoch, and the
//! report counts the reuse as [`DynamicReport::memo_hits`].
//! [`simulate_dynamic_sequential`] keeps the original memo-free,
//! one-epoch-at-a-time spine as the reference: the two produce
//! **bit-identical** reports (pinned by proptest in
//! `crates/server/tests/proptests.rs`) up to the fields that measure the
//! run itself — the wall-clock latencies of [`EpochBreakdown`] and
//! `memo_hits`.
//!
//! The report separates the steady-state peak (which the planner guarantees
//! under the budget) from the transition peak (old + new streams briefly
//! coexist; the worst case is bounded by the two adjacent plans' peaks
//! combined, and measured far lower in practice), and breaks both down per
//! epoch alongside the plan/materialization latencies so the pipeline's
//! overlap is measurable rather than asserted.
//!
//! ```
//! use sm_server::{simulate_dynamic, simulate_dynamic_sequential, Catalog, Epoch};
//!
//! // Two epochs: the catalog doubles at minute 120 under the same budget.
//! let epochs = [
//!     Epoch { start_minute: 0, catalog: Catalog::zipf(2, 1.0, &[60.0]) },
//!     Epoch { start_minute: 120, catalog: Catalog::zipf(4, 1.0, &[60.0]) },
//! ];
//! let report = simulate_dynamic(&epochs, 40, &[2.0, 5.0, 10.0], 240).unwrap();
//! assert_eq!(report.epoch_plans.len(), 2);
//! assert!(report.steady_peak <= 40);
//! assert_eq!(report.per_epoch.len(), 2);
//!
//! // The pipelined spine is bit-identical to the sequential reference.
//! let seq = simulate_dynamic_sequential(&epochs, 40, &[2.0, 5.0, 10.0], 240).unwrap();
//! assert_eq!(report.per_minute, seq.per_minute);
//! assert_eq!(report.peak, seq.peak);
//! assert_eq!(seq.memo_hits, 0, "the reference plans memo-free");
//! ```

use std::fmt;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::memo::PlannerMemo;
use crate::planner::{plan_weighted_with, DelayPlan};
use sm_core::{consecutive_slots, parallel_map, pipeline};
use sm_online::delay_guaranteed::DelayGuaranteedOnline;
use sm_sim::{BandwidthProfile, ScheduleStream, SimError};

/// How many finished plans the planning stage may hold ahead of
/// materialization.
const PLAN_AHEAD: usize = 2;

/// A catalog snapshot taking effect at `start_minute`.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// First minute this catalog is live.
    pub start_minute: u64,
    /// The catalog served from this minute on.
    pub catalog: Catalog,
}

/// The plan chosen for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPlan {
    /// First minute of the epoch.
    pub start_minute: u64,
    /// First minute after the epoch.
    pub end_minute: u64,
    /// The per-title delay plan.
    pub plan: DelayPlan,
}

/// Per-epoch slice of the report: load peaks over the epoch's live window
/// plus the wall-clock cost of its two pipeline stages.
///
/// The peak fields are deterministic (bit-identical between the pipelined
/// and sequential spines); `plan_ms` and `materialize_ms` measure the run
/// itself and vary between executions.
#[derive(Debug, Clone)]
pub struct EpochBreakdown {
    /// First minute of the epoch.
    pub start_minute: u64,
    /// First minute after the epoch.
    pub end_minute: u64,
    /// Maximum concurrent streams during `[start_minute, end_minute)`.
    pub peak: u64,
    /// Maximum outside transition windows within this epoch.
    pub steady_peak: u64,
    /// Maximum inside transition windows within this epoch (0 for the first
    /// epoch when no earlier switch's window reaches into it).
    pub transition_peak: u64,
    /// Wall-clock milliseconds the planning stage spent on this epoch.
    pub plan_ms: f64,
    /// Wall-clock milliseconds the materialization stage spent (stream
    /// materialization and minute-grid binning).
    pub materialize_ms: f64,
}

/// Stream-exact minute-grid report of a dynamic run.
#[derive(Debug, Clone)]
pub struct DynamicReport {
    /// Concurrent streams per minute over the horizon.
    pub per_minute: Vec<u64>,
    /// Overall maximum.
    pub peak: u64,
    /// Maximum outside transition windows (one longest-media length after
    /// each epoch switch).
    pub steady_peak: u64,
    /// Maximum inside transition windows.
    pub transition_peak: u64,
    /// The plan of each epoch.
    pub epoch_plans: Vec<EpochPlan>,
    /// Per-epoch peaks and stage latencies, aligned with `epoch_plans`.
    pub per_epoch: Vec<EpochBreakdown>,
    /// Planner-memo lookups served from cache during this run (0 for the
    /// memo-free [`simulate_dynamic_sequential`]).
    pub memo_hits: u64,
}

impl DynamicReport {
    /// Compares every **deterministic** field against `other` — everything
    /// except the per-epoch `plan_ms` / `materialize_ms` latencies and
    /// `memo_hits`, which measure the run itself — and returns a description of the first
    /// divergence, or `None` when the reports are bit-identical. This is
    /// the one canonical definition of "the pipelined and sequential spines
    /// agree", shared by the unit tests, the proptest pin, and the
    /// `sm-experiments` cross-check gate.
    pub fn deterministic_diff(&self, other: &Self) -> Option<String> {
        if self.per_minute != other.per_minute {
            return Some("per-minute profiles diverge".into());
        }
        if (self.peak, self.steady_peak, self.transition_peak)
            != (other.peak, other.steady_peak, other.transition_peak)
        {
            return Some(format!(
                "peaks diverge: ({}, {}, {}) vs ({}, {}, {})",
                self.peak,
                self.steady_peak,
                self.transition_peak,
                other.peak,
                other.steady_peak,
                other.transition_peak
            ));
        }
        if self.epoch_plans != other.epoch_plans {
            return Some("epoch plans diverge".into());
        }
        if self.per_epoch.len() != other.per_epoch.len() {
            return Some(format!(
                "per-epoch breakdown lengths diverge: {} vs {}",
                self.per_epoch.len(),
                other.per_epoch.len()
            ));
        }
        for (x, y) in self.per_epoch.iter().zip(&other.per_epoch) {
            if (
                x.start_minute,
                x.end_minute,
                x.peak,
                x.steady_peak,
                x.transition_peak,
            ) != (
                y.start_minute,
                y.end_minute,
                y.peak,
                y.steady_peak,
                y.transition_peak,
            ) {
                return Some(format!(
                    "epoch [{}, {}) breakdown diverges",
                    x.start_minute, x.end_minute
                ));
            }
        }
        None
    }
}

/// Failure modes of the dynamic simulation, surfaced as typed errors
/// instead of panicking deep inside a pipeline worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DynamicError {
    /// Epoch `epoch` has no feasible plan under the budget, even with every
    /// title at the largest candidate delay.
    Infeasible {
        /// Index into the `epochs` slice.
        epoch: usize,
        /// First minute of the infeasible epoch.
        start_minute: u64,
    },
    /// Materializing a title's schedule failed (in practice only reachable
    /// through a media length overflowing the signed slot arithmetic).
    Schedule {
        /// Index into the `epochs` slice.
        epoch: usize,
        /// Name of the title whose schedule failed.
        title: String,
        /// The underlying simulator error.
        source: SimError,
    },
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible {
                epoch,
                start_minute,
            } => write!(
                f,
                "epoch {epoch} (starting at minute {start_minute}) has no feasible plan under the budget"
            ),
            Self::Schedule {
                epoch,
                title,
                source,
            } => write!(f, "epoch {epoch}, title {title}: {source}"),
        }
    }
}

impl std::error::Error for DynamicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Schedule { source, .. } => Some(source),
            Self::Infeasible { .. } => None,
        }
    }
}

/// One live epoch window: `epochs[epoch]` served over `[t0, t1)`.
#[derive(Debug, Clone, Copy)]
struct EpochJob {
    epoch: usize,
    t0: u64,
    t1: u64,
}

/// Validates the inputs (panicking on malformed ones, as documented on the
/// public entry points) and lists the epochs with a non-empty live window.
fn epoch_jobs(epochs: &[Epoch], candidates_minutes: &[f64], horizon_minutes: u64) -> Vec<EpochJob> {
    assert!(!epochs.is_empty(), "need at least one epoch");
    assert_eq!(epochs[0].start_minute, 0, "first epoch must start at 0");
    assert!(
        epochs
            .windows(2)
            .all(|w| w[0].start_minute < w[1].start_minute),
        "epochs must be strictly ordered"
    );
    assert!(
        candidates_minutes
            .iter()
            .all(|d| *d > 0.0 && d.fract() == 0.0),
        "candidate delays must be whole minutes"
    );
    assert!(horizon_minutes > 0);
    epochs
        .iter()
        .enumerate()
        .filter_map(|(i, epoch)| {
            let t0 = epoch.start_minute;
            let t1 = epochs
                .get(i + 1)
                .map(|e| e.start_minute)
                .unwrap_or(horizon_minutes)
                .min(horizon_minutes);
            (t0 < t1).then_some(EpochJob { epoch: i, t0, t1 })
        })
        .collect()
}

/// Materializes the exact stream intervals (in minutes) of one title served
/// with delay `delay_minutes` over `[t0, t1)`. Streams started before `t1`
/// run to their natural end (possibly past `t1`). The per-tree specs are
/// pulled through [`ScheduleStream::next_into`] with one reused scratch
/// buffer, so no flat whole-schedule vector is ever built.
fn title_streams(
    duration_minutes: f64,
    delay_minutes: u64,
    t0: u64,
    t1: u64,
) -> Result<Vec<(u64, u64)>, SimError> {
    let d = delay_minutes;
    let media_len = ((duration_minutes / d as f64).ceil() as u64).max(1);
    let slots = ((t1 - t0) / d) as usize;
    if slots == 0 {
        // The epoch window is shorter than one delay slot: no stream of
        // this title's grid starts inside it.
        return Ok(Vec::new());
    }
    let alg = DelayGuaranteedOnline::new(media_len);
    let forest = alg.forest_after(slots);
    let times = consecutive_slots(slots);
    let mut schedule = ScheduleStream::new(&forest, &times, media_len)?;
    let mut specs = Vec::new();
    // Size the sink from the stream's own contract (`remaining_arrivals`
    // is exact — one spec per arrival) rather than from this call site's
    // knowledge that `forest_after(slots)` covers `slots` arrivals: the
    // pull loop stays allocation-exact even if the forest shape changes.
    let mut out = Vec::with_capacity(schedule.remaining_arrivals());
    while schedule.next_into(&mut specs).is_some() {
        for s in &specs {
            let start = t0 + s.start as u64 * d;
            let end = start + s.length as u64 * d;
            out.push((start, end));
        }
    }
    Ok(out)
}

/// Plans one epoch: the pipeline's producer stage. A memo shared across
/// epochs and a fresh one per epoch choose bit-identical plans.
fn plan_stage(
    epochs: &[Epoch],
    job: EpochJob,
    budget: u64,
    candidates_minutes: &[f64],
    memo: &PlannerMemo,
) -> Result<(DelayPlan, f64), DynamicError> {
    let t = Instant::now();
    let catalog = &epochs[job.epoch].catalog;
    let plan = plan_weighted_with(catalog, budget, candidates_minutes, memo).ok_or(
        DynamicError::Infeasible {
            epoch: job.epoch,
            start_minute: job.t0,
        },
    )?;
    Ok((plan, t.elapsed().as_secs_f64() * 1e3))
}

/// Materializes one planned epoch's streams: the pipeline's consumer stage.
/// Titles are independent objects, so each title's exact intervals are
/// computed on their own thread (`parallel_map` returns results in input
/// order, and the first failing title in catalog order wins, so the outcome
/// is bit-identical to a sequential run).
fn materialize_stage(
    catalog: &Catalog,
    plan: &DelayPlan,
    job: EpochJob,
) -> Result<Vec<Vec<(u64, u64)>>, DynamicError> {
    let jobs: Vec<(f64, u64)> = catalog
        .titles()
        .iter()
        .zip(&plan.delays_minutes)
        .map(|(title, &delay)| (title.duration_minutes, delay as u64))
        .collect();
    let per_title = parallel_map(&jobs, |&(duration, delay)| {
        title_streams(duration, delay, job.t0, job.t1)
    });
    catalog
        .titles()
        .iter()
        .zip(per_title)
        .map(|(title, streams)| {
            streams.map_err(|source| DynamicError::Schedule {
                epoch: job.epoch,
                title: title.name.clone(),
                source,
            })
        })
        .collect()
}

/// Folds the binned horizon into the report: global and per-epoch
/// steady/transition peaks. Transition windows last one longest-media
/// length after each epoch switch (the first epoch has no predecessor,
/// hence no transition of its own — but a short epoch can end inside the
/// window its own switch opened, which then reaches into its successor).
fn assemble_report(
    epochs: &[Epoch],
    per_minute: Vec<u64>,
    epoch_plans: Vec<EpochPlan>,
    latencies: Vec<(f64, f64)>,
    longest_media: u64,
    memo_hits: u64,
) -> DynamicReport {
    let in_transition = |m: u64| {
        epochs[1..]
            .iter()
            .any(|e| m >= e.start_minute && m < e.start_minute + longest_media)
    };
    let per_epoch: Vec<EpochBreakdown> = epoch_plans
        .iter()
        .zip(latencies)
        .map(|(ep, (plan_ms, materialize_ms))| {
            let mut peak = 0u64;
            let mut steady = 0u64;
            let mut transition = 0u64;
            for m in ep.start_minute..ep.end_minute {
                let c = per_minute[m as usize];
                peak = peak.max(c);
                if in_transition(m) {
                    transition = transition.max(c);
                } else {
                    steady = steady.max(c);
                }
            }
            EpochBreakdown {
                start_minute: ep.start_minute,
                end_minute: ep.end_minute,
                peak,
                steady_peak: steady,
                transition_peak: transition,
                plan_ms,
                materialize_ms,
            }
        })
        .collect();
    // The live epoch windows tile [0, horizon) exactly (the first epoch
    // starts at 0, each window ends where the next begins, and the last one
    // ends at the horizon), so the global maxima are folds of the per-epoch
    // breakdown — no second pass over the horizon.
    let fold = |f: fn(&EpochBreakdown) -> u64| per_epoch.iter().map(f).max().unwrap_or(0);
    DynamicReport {
        peak: fold(|e| e.peak),
        steady_peak: fold(|e| e.steady_peak),
        transition_peak: fold(|e| e.transition_peak),
        per_minute,
        epoch_plans,
        per_epoch,
        memo_hits,
    }
}

/// Simulates the epochs against `budget` over `[0, horizon_minutes)`,
/// planning up to two epochs ahead of materialization with one run-local
/// [`PlannerMemo`]. The report is bit-identical to
/// [`simulate_dynamic_sequential`] up to the latency fields and
/// `memo_hits`.
///
/// # Errors
/// [`DynamicError::Infeasible`] if some epoch has no feasible plan;
/// [`DynamicError::Schedule`] if a title's schedule cannot be materialized.
/// Errors are reported in the same deterministic order as the sequential
/// spine (epochs in order; within an epoch, titles in catalog order).
///
/// # Panics
/// Panics if epochs are empty, unsorted, don't start at minute 0, if the
/// horizon is 0, or if any candidate delay is not a whole number of minutes
/// (the minute grid needs integral slots).
pub fn simulate_dynamic(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
) -> Result<DynamicReport, DynamicError> {
    let jobs = epoch_jobs(epochs, candidates_minutes, horizon_minutes);
    // The materialization stage bins each epoch's streams into a
    // difference array as they arrive — O(streams + horizon) with no
    // deferred interval buffer, and count-identical to the sequential
    // spine's sort-based sparse profile.
    let mut diff = vec![0i64; horizon_minutes as usize + 1];
    let mut epoch_plans: Vec<EpochPlan> = Vec::with_capacity(jobs.len());
    let mut latencies: Vec<(f64, f64)> = Vec::with_capacity(jobs.len());
    let mut longest_media = 0u64;
    let memo = PlannerMemo::new();

    pipeline(
        jobs.len(),
        PLAN_AHEAD,
        |k| plan_stage(epochs, jobs[k], budget, candidates_minutes, &memo),
        |k, (plan, plan_ms)| {
            let job = jobs[k];
            let t = Instant::now();
            let catalog = &epochs[job.epoch].catalog;
            let per_title = materialize_stage(catalog, &plan, job)?;
            for (title, streams) in catalog.titles().iter().zip(per_title) {
                longest_media = longest_media.max(title.duration_minutes.ceil() as u64);
                for (s, e) in streams {
                    let lo = s.min(horizon_minutes) as usize;
                    let hi = e.min(horizon_minutes) as usize;
                    if lo < hi {
                        diff[lo] += 1;
                        diff[hi] -= 1;
                    }
                }
            }
            epoch_plans.push(EpochPlan {
                start_minute: job.t0,
                end_minute: job.t1,
                plan,
            });
            latencies.push((plan_ms, t.elapsed().as_secs_f64() * 1e3));
            Ok(())
        },
    )?;

    let mut cur = 0i64;
    let per_minute: Vec<u64> = diff[..horizon_minutes as usize]
        .iter()
        .map(|&d| {
            cur += d;
            cur as u64
        })
        .collect();
    Ok(assemble_report(
        epochs,
        per_minute,
        epoch_plans,
        latencies,
        longest_media,
        memo.hits(),
    ))
}

/// The original sequential spine: plans and materializes one epoch at a
/// time on the calling thread, each epoch against a fresh memo, accounting
/// through the sort-based sparse [`BandwidthProfile`]. Kept as the
/// memo-free reference the pipelined [`simulate_dynamic`] is pinned against
/// (identical report up to the latency fields and `memo_hits`, which is
/// always 0 here), and as the fallback shape for profiling either stage in
/// isolation.
///
/// # Errors
/// Same as [`simulate_dynamic`].
///
/// # Panics
/// Same as [`simulate_dynamic`].
pub fn simulate_dynamic_sequential(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
) -> Result<DynamicReport, DynamicError> {
    let jobs = epoch_jobs(epochs, candidates_minutes, horizon_minutes);
    let mut intervals: Vec<(i64, i64)> = Vec::new();
    let mut epoch_plans: Vec<EpochPlan> = Vec::with_capacity(jobs.len());
    let mut latencies: Vec<(f64, f64)> = Vec::with_capacity(jobs.len());
    let mut longest_media = 0u64;

    for &job in &jobs {
        let (plan, plan_ms) =
            plan_stage(epochs, job, budget, candidates_minutes, &PlannerMemo::new())?;
        let t = Instant::now();
        let catalog = &epochs[job.epoch].catalog;
        let per_title = materialize_stage(catalog, &plan, job)?;
        for (title, streams) in catalog.titles().iter().zip(per_title) {
            longest_media = longest_media.max(title.duration_minutes.ceil() as u64);
            for (s, e) in streams {
                intervals.push((s.min(horizon_minutes) as i64, e.min(horizon_minutes) as i64));
            }
        }
        epoch_plans.push(EpochPlan {
            start_minute: job.t0,
            end_minute: job.t1,
            plan,
        });
        latencies.push((plan_ms, t.elapsed().as_secs_f64() * 1e3));
    }

    let profile = BandwidthProfile::from_intervals(intervals);
    let per_minute: Vec<u64> = profile
        .window(0, horizon_minutes as i64)
        .into_iter()
        .map(u64::from)
        .collect();
    Ok(assemble_report(
        epochs,
        per_minute,
        epoch_plans,
        latencies,
        longest_media,
        0,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Title;
    use crate::planner::plan_weighted;

    fn catalog(n: usize) -> Catalog {
        Catalog::zipf(n, 1.0, &[100.0, 80.0])
    }

    const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

    /// Bit-identical comparison of everything except the latency fields
    /// (which measure the run itself).
    fn assert_reports_identical(a: &DynamicReport, b: &DynamicReport) {
        if let Some(diff) = a.deterministic_diff(b) {
            panic!("reports diverge: {diff}");
        }
    }

    #[test]
    fn single_epoch_respects_budget_and_degenerates_to_sequential() {
        let epochs = [Epoch {
            start_minute: 0,
            catalog: catalog(3),
        }];
        let budget = 30;
        let report = simulate_dynamic(&epochs, budget, &CANDS, 800).unwrap();
        assert!(report.peak <= report.epoch_plans[0].plan.total_peak);
        assert!(report.epoch_plans[0].plan.total_peak <= budget);
        assert_eq!(report.transition_peak, 0, "no switch, no transition");
        assert_eq!(report.peak, report.steady_peak);
        // One epoch: the pipeline runs inline and still matches the spine.
        let seq = simulate_dynamic_sequential(&epochs, budget, &CANDS, 800).unwrap();
        assert_reports_identical(&report, &seq);
        assert_eq!(report.per_epoch.len(), 1);
        assert_eq!(report.per_epoch[0].peak, report.peak);
    }

    #[test]
    fn growing_catalog_keeps_steady_state_under_budget() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 400,
                catalog: catalog(6),
            },
        ];
        let budget = 40;
        let report = simulate_dynamic(&epochs, budget, &CANDS, 1200).unwrap();
        for ep in &report.epoch_plans {
            assert!(ep.plan.total_peak <= budget);
        }
        assert!(report.steady_peak <= budget);
        // The transition may briefly stack old and new streams, but never
        // beyond the two adjacent plans combined.
        let combined =
            report.epoch_plans[0].plan.total_peak + report.epoch_plans[1].plan.total_peak;
        assert!(report.transition_peak <= combined);
        // The global peaks are the maxima of the per-epoch breakdown.
        assert_eq!(
            report.peak,
            report.per_epoch.iter().map(|e| e.peak).max().unwrap()
        );
        assert_eq!(
            report.transition_peak,
            report
                .per_epoch
                .iter()
                .map(|e| e.transition_peak)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn pipelined_matches_sequential_on_multi_epoch_catalogs() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 300,
                catalog: catalog(6),
            },
            Epoch {
                start_minute: 700,
                catalog: catalog(4),
            },
        ];
        for budget in [25u64, 40, 200] {
            let piped = simulate_dynamic(&epochs, budget, &CANDS, 1100);
            let seq = simulate_dynamic_sequential(&epochs, budget, &CANDS, 1100);
            match (piped, seq) {
                (Ok(a), Ok(b)) => assert_reports_identical(&a, &b),
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("spines disagree: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn shrinking_catalog_buys_shorter_delays() {
        let big = catalog(8);
        let small = catalog(2);
        // Tight budget: exactly what the big catalog needs at the largest
        // candidate delay — feasible for it, comfortable for the small one.
        let budget = plan_weighted(&big, u64::MAX, &[10.0]).unwrap().total_peak;
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: big,
            },
            Epoch {
                start_minute: 500,
                catalog: small,
            },
        ];
        let report = simulate_dynamic(&epochs, budget, &CANDS, 1000).unwrap();
        let before = report.epoch_plans[0].plan.expected_delay;
        let after = report.epoch_plans[1].plan.expected_delay;
        assert!(
            after <= before,
            "fewer titles should afford shorter delays: {after} vs {before}"
        );
    }

    #[test]
    fn infeasible_epoch_returns_typed_error() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(1),
            },
            Epoch {
                start_minute: 200,
                catalog: catalog(10),
            },
        ];
        let err = simulate_dynamic(&epochs, 1, &CANDS, 500).unwrap_err();
        assert_eq!(
            err,
            DynamicError::Infeasible {
                epoch: 0,
                start_minute: 0
            }
        );
        assert!(err.to_string().contains("epoch 0"));
        assert_eq!(
            err,
            simulate_dynamic_sequential(&epochs, 1, &CANDS, 500).unwrap_err()
        );
    }

    #[test]
    fn epoch_shorter_than_one_delay_slot_contributes_no_streams() {
        // Epoch 1 lives for 3 minutes but every feasible delay is 5 or 10
        // minutes — no slot of its grid starts inside the window, so only
        // epoch 0's (and epoch 2's) streams exist.
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
            Epoch {
                start_minute: 400,
                catalog: catalog(8),
            },
            Epoch {
                start_minute: 403,
                catalog: catalog(2),
            },
        ];
        let budget = plan_weighted(&catalog(8), u64::MAX, &[10.0])
            .unwrap()
            .total_peak;
        let piped = simulate_dynamic(&epochs, budget, &[5.0, 10.0], 800).unwrap();
        let seq = simulate_dynamic_sequential(&epochs, budget, &[5.0, 10.0], 800).unwrap();
        assert_reports_identical(&piped, &seq);
        // The sliver epoch still got a plan and a breakdown entry.
        assert_eq!(piped.epoch_plans.len(), 3);
        assert_eq!(piped.epoch_plans[1].start_minute, 400);
        assert_eq!(piped.epoch_plans[1].end_minute, 403);
    }

    #[test]
    fn retired_title_streams_straddle_two_transitions() {
        // Epoch 0 serves a long title that is retired at minute 60; its
        // committed streams (up to 200 minutes long) are still draining when
        // the second switch at minute 120 happens — the old streams straddle
        // both transition windows, and both spines must bin them alike.
        let long_title = Catalog::new(vec![
            Title {
                name: "marathon".into(),
                duration_minutes: 200.0,
                weight: 3.0,
            },
            Title {
                name: "short".into(),
                duration_minutes: 40.0,
                weight: 1.0,
            },
        ]);
        let small = Catalog::new(vec![Title {
            name: "short".into(),
            duration_minutes: 40.0,
            weight: 1.0,
        }]);
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: long_title,
            },
            Epoch {
                start_minute: 60,
                catalog: small.clone(),
            },
            Epoch {
                start_minute: 120,
                catalog: small,
            },
        ];
        let piped = simulate_dynamic(&epochs, 100, &CANDS, 400).unwrap();
        let seq = simulate_dynamic_sequential(&epochs, 100, &CANDS, 400).unwrap();
        assert_reports_identical(&piped, &seq);
        // The marathon's root stream runs 200 minutes from minute 0: it is
        // still live after the second switch at 120.
        assert!(
            piped.per_minute[150] > 0,
            "retired title's streams must keep draining"
        );
        // Transition windows last one longest-media length (200 min) after
        // each switch: epoch 1's whole window [60, 120) lies inside the
        // first one, and epoch 2 is in transition until minute 320.
        assert!(piped.transition_peak > 0);
        assert_eq!(piped.per_epoch[1].steady_peak, 0);
        assert!(piped.per_epoch[2].transition_peak > 0);
    }

    #[test]
    fn repeated_catalog_hits_the_run_local_memo() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(3),
            },
            Epoch {
                start_minute: 200,
                catalog: catalog(3),
            },
        ];
        let report = simulate_dynamic(&epochs, 30, &CANDS, 600).unwrap();
        assert!(
            report.memo_hits > 0,
            "the second epoch must reuse the first epoch's analyses"
        );
        let seq = simulate_dynamic_sequential(&epochs, 30, &CANDS, 600).unwrap();
        assert_eq!(seq.memo_hits, 0, "the reference spine is memo-free");
        assert_reports_identical(&report, &seq);
    }

    #[test]
    #[should_panic]
    fn unsorted_epochs_panic() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: catalog(1),
            },
            Epoch {
                start_minute: 0,
                catalog: catalog(2),
            },
        ];
        let _ = simulate_dynamic(&epochs, 100, &CANDS, 100);
    }

    #[test]
    #[should_panic]
    fn fractional_candidate_delays_panic() {
        let epochs = [Epoch {
            start_minute: 0,
            catalog: catalog(1),
        }];
        let _ = simulate_dynamic(&epochs, 100, &[1.5], 100);
    }
}
