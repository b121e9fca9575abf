//! Per-title guaranteed-delay planning under a peak-bandwidth budget.
//!
//! §5 of the paper observes that the Delay Guaranteed algorithm's bandwidth
//! is a deterministic, decreasing function of the delay, so a server with a
//! fixed channel budget can always buy feasibility with delay. With many
//! titles the interesting question is *how to split* the budget: giving
//! every title the same delay (the uniform plan of the `server`
//! experiment) wastes channels on the long tail. The weighted
//! planner here assigns **per-title** delays minimizing the
//! popularity-weighted expected delay `Σ p_i · D_i` subject to
//! `Σ peak_i(D_i) ≤ budget` — a discrete water-filling: repeatedly push out
//! the delay of whichever title buys the most bandwidth per unit of
//! weighted-delay pain. The tests check the greedy against an exhaustive
//! search on small instances.
//!
//! The expensive part — one steady-state Delay Guaranteed analysis per
//! distinct `(title, candidate-delay)` media length — goes through a
//! [`PlannerMemo`]: the bulk seeding stage shards the *unseen* lengths
//! across threads with [`sm_core::parallel_map`] before the (cheap,
//! sequential) greedy runs, so large catalogs plan in parallel with
//! bit-identical results. [`plan_weighted`] uses a fresh memo per call;
//! [`plan_weighted_with`] threads a caller-owned memo through, so repeated
//! plans — the dynamic server re-planning overlapping catalogs every epoch
//! — pay for each distinct media length once per memo lifetime. In the
//! dynamic server this whole planner is additionally the *producer* stage
//! of the cross-epoch pipeline (see [`crate::dynamic`]): epochs plan here
//! up to two epochs ahead of materialization, against one memo per run.
//!
//! ```
//! use sm_server::{plan_weighted, Catalog};
//!
//! let catalog = Catalog::zipf(3, 1.0, &[90.0, 120.0]);
//! let cands = [1.0, 5.0, 20.0];
//! // A generous budget gives every title the smallest delay…
//! let generous = plan_weighted(&catalog, u64::MAX, &cands).unwrap();
//! assert!(generous.delays_minutes.iter().all(|&d| d == 1.0));
//! // …and squeezing the budget trades delay for bandwidth, never breaking
//! // the budget and never improving the expected delay.
//! let squeezed = plan_weighted(&catalog, generous.total_peak / 2, &cands).unwrap();
//! assert!(squeezed.total_peak <= generous.total_peak / 2);
//! assert!(squeezed.expected_delay >= generous.expected_delay);
//! ```

use crate::catalog::Catalog;
use crate::memo::PlannerMemo;

/// A per-title delay assignment and its verified bandwidth demand.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayPlan {
    /// Guaranteed delay per title, in minutes (same order as the catalog).
    pub delays_minutes: Vec<f64>,
    /// Steady-state DG peak per title, in concurrent streams.
    pub peaks: Vec<u32>,
    /// Sum of per-title peaks — the worst-case aggregate demand.
    pub total_peak: u64,
    /// The popularity-weighted expected guaranteed delay `Σ p_i · D_i`.
    pub expected_delay: f64,
}

fn build_plan(
    catalog: &Catalog,
    candidates: &[f64],
    choice: &[usize],
    memo: &PlannerMemo,
) -> DelayPlan {
    let probs = catalog.probabilities();
    let mut delays = Vec::with_capacity(choice.len());
    let mut peaks = Vec::with_capacity(choice.len());
    let mut expected_delay = 0.0;
    for (i, (&c, title)) in choice.iter().zip(catalog.titles()).enumerate() {
        let d = candidates[c];
        delays.push(d);
        peaks.push(memo.peak(title.media_len(d)));
        expected_delay += probs[i] * d;
    }
    let total_peak = peaks.iter().map(|&p| p as u64).sum();
    DelayPlan {
        delays_minutes: delays,
        peaks,
        total_peak,
        expected_delay,
    }
}

/// Greedy weighted planner: starts every title at the smallest candidate
/// delay and repeatedly relaxes the title with the best
/// bandwidth-saved-per-weighted-delay ratio until the budget fits. Returns
/// `None` if even the largest delays exceed the budget.
///
/// `candidates_minutes` must be sorted ascending and non-empty.
pub fn plan_weighted(
    catalog: &Catalog,
    budget_streams: u64,
    candidates_minutes: &[f64],
) -> Option<DelayPlan> {
    plan_weighted_with(
        catalog,
        budget_streams,
        candidates_minutes,
        &PlannerMemo::new(),
    )
}

/// [`plan_weighted`] with a caller-owned [`PlannerMemo`]: every distinct
/// media length the plan needs is analyzed at most once per memo lifetime,
/// so re-planning overlapping catalogs (the dynamic server's epoch loop)
/// reuses earlier analyses instead of re-deriving them. The chosen plan is
/// **bit-identical** to [`plan_weighted`]'s — the memo caches pure
/// functions of the media length.
pub fn plan_weighted_with(
    catalog: &Catalog,
    budget_streams: u64,
    candidates_minutes: &[f64],
    memo: &PlannerMemo,
) -> Option<DelayPlan> {
    assert!(!candidates_minutes.is_empty());
    assert!(
        candidates_minutes.windows(2).all(|w| w[0] < w[1]),
        "candidate delays must be strictly ascending"
    );
    let probs = catalog.probabilities();
    // The per-length steady-state analyses are independent, so the memo's
    // seeding stage shards the distinct *unseen* ones across threads
    // (order-preserving — the chosen plan is identical to a sequential
    // run). Two stages keep the common generous-budget case cheap: only
    // the smallest-delay lengths are analyzed up front; the full
    // |titles| × |candidates| cross product is precomputed just before the
    // greedy starts relaxing, when most of it will be queried anyway.
    memo.seed_peaks(
        catalog
            .titles()
            .iter()
            .map(|t| t.media_len(candidates_minutes[0]))
            .collect(),
    );
    let mut choice = vec![0usize; catalog.len()];
    let mut plan = build_plan(catalog, candidates_minutes, &choice, memo);
    if plan.total_peak > budget_streams {
        memo.seed_peaks(
            catalog
                .titles()
                .iter()
                .flat_map(|t| candidates_minutes.iter().map(|&d| t.media_len(d)))
                .collect(),
        );
    }
    while plan.total_peak > budget_streams {
        // Candidate moves: advance one title to its next larger delay.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..choice.len() {
            if choice[i] + 1 >= candidates_minutes.len() {
                continue;
            }
            let cur_peak = memo.peak(catalog.titles()[i].media_len(candidates_minutes[choice[i]]));
            let next_peak =
                memo.peak(catalog.titles()[i].media_len(candidates_minutes[choice[i] + 1]));
            let saved = cur_peak.saturating_sub(next_peak) as f64;
            let pain =
                probs[i] * (candidates_minutes[choice[i] + 1] - candidates_minutes[choice[i]]);
            let ratio = saved / pain;
            if best.map(|(_, r)| ratio > r).unwrap_or(true) {
                best = Some((i, ratio));
            }
        }
        let (i, _) = best?; // no move left: budget unreachable
        choice[i] += 1;
        plan = build_plan(catalog, candidates_minutes, &choice, memo);
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, Title};
    use sm_online::capacity::steady_state_bandwidth;

    fn small_catalog() -> Catalog {
        Catalog::new(vec![
            Title {
                name: "blockbuster".into(),
                duration_minutes: 120.0,
                weight: 8.0,
            },
            Title {
                name: "classic".into(),
                duration_minutes: 90.0,
                weight: 2.0,
            },
            Title {
                name: "niche".into(),
                duration_minutes: 100.0,
                weight: 1.0,
            },
        ])
    }

    const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

    /// Exhaustive optimal planner for small instances (`candidates^titles`
    /// assignments): minimizes expected delay subject to the budget; panics
    /// if the search space exceeds one million assignments.
    fn brute_force_plan(
        catalog: &Catalog,
        budget_streams: u64,
        candidates_minutes: &[f64],
    ) -> Option<DelayPlan> {
        let k = catalog.len();
        let c = candidates_minutes.len();
        let space = (c as u128).checked_pow(k as u32).expect("space overflow");
        assert!(space <= 1_000_000, "brute force space too large: {space}");
        let memo = PlannerMemo::new();
        let mut best: Option<DelayPlan> = None;
        let mut choice = vec![0usize; k];
        loop {
            let plan = build_plan(catalog, candidates_minutes, &choice, &memo);
            if plan.total_peak <= budget_streams
                && best
                    .as_ref()
                    .map(|b| plan.expected_delay < b.expected_delay)
                    .unwrap_or(true)
            {
                best = Some(plan);
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == k {
                    return best;
                }
                choice[i] += 1;
                if choice[i] < c {
                    break;
                }
                choice[i] = 0;
                i += 1;
            }
        }
    }

    #[test]
    fn generous_budget_gives_everyone_min_delay() {
        let plan = plan_weighted(&small_catalog(), 10_000, &CANDS).unwrap();
        assert_eq!(plan.delays_minutes, vec![1.0, 1.0, 1.0]);
        assert!(plan.total_peak <= 10_000);
    }

    #[test]
    fn impossible_budget_returns_none() {
        assert_eq!(plan_weighted(&small_catalog(), 1, &CANDS), None);
        assert_eq!(brute_force_plan(&small_catalog(), 1, &CANDS), None);
    }

    #[test]
    fn plan_respects_budget_and_popularity() {
        let catalog = small_catalog();
        // Find a budget between all-min and all-max demand.
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        let all_max = plan_weighted(&catalog, u64::MAX, &[10.0])
            .unwrap()
            .total_peak;
        let budget = (all_min + all_max) / 2;
        let plan = plan_weighted(&catalog, budget, &CANDS).unwrap();
        assert!(plan.total_peak <= budget);
        // The blockbuster must not end up with a longer delay than the
        // niche title.
        assert!(plan.delays_minutes[0] <= plan.delays_minutes[2]);
    }

    #[test]
    fn greedy_matches_brute_force_objective() {
        let catalog = small_catalog();
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        for budget in [all_min / 2, all_min * 2 / 3, all_min * 4 / 5] {
            let greedy = plan_weighted(&catalog, budget, &CANDS);
            let exact = brute_force_plan(&catalog, budget, &CANDS);
            match (greedy, exact) {
                (Some(g), Some(e)) => {
                    assert!(g.total_peak <= budget);
                    // Greedy water-filling is near-optimal on these discrete
                    // menus; allow a small slack.
                    assert!(
                        g.expected_delay <= e.expected_delay * 1.25 + 1e-9,
                        "budget {budget}: greedy {} vs exact {}",
                        g.expected_delay,
                        e.expected_delay
                    );
                }
                (None, None) => {}
                (g, e) => panic!("feasibility disagreement: {g:?} vs {e:?}"),
            }
        }
    }

    #[test]
    fn tighter_budget_never_decreases_expected_delay() {
        let catalog = small_catalog();
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        let mut last = 0.0f64;
        for budget in (1..=all_min).rev().step_by(3) {
            if let Some(plan) = plan_weighted(&catalog, budget, &CANDS) {
                assert!(
                    plan.expected_delay + 1e-9 >= last,
                    "budget {budget}: {} < {last}",
                    plan.expected_delay
                );
                last = plan.expected_delay;
            }
        }
    }

    #[test]
    fn shared_memo_plans_are_bit_identical_and_reuse_analyses() {
        let catalog = small_catalog();
        let all_min = plan_weighted(&catalog, u64::MAX, &[1.0])
            .unwrap()
            .total_peak;
        let budget = all_min * 2 / 3;
        let memo = PlannerMemo::new();
        let fresh = plan_weighted(&catalog, budget, &CANDS);
        let memod = plan_weighted_with(&catalog, budget, &CANDS, &memo);
        assert_eq!(fresh, memod, "memo must not change the chosen plan");
        let analyses = memo.misses();
        assert!(analyses > 0);
        let again = plan_weighted_with(&catalog, budget, &CANDS, &memo);
        assert_eq!(fresh, again);
        assert_eq!(
            memo.misses(),
            analyses,
            "re-planning must not re-analyze any length"
        );
        assert!(memo.hits() > 0);
    }

    #[test]
    fn peaks_match_capacity_analysis() {
        let catalog = small_catalog();
        let plan = plan_weighted(&catalog, u64::MAX, &CANDS).unwrap();
        for (i, title) in catalog.titles().iter().enumerate() {
            let l = title.media_len(plan.delays_minutes[i]);
            assert_eq!(plan.peaks[i], steady_state_bandwidth(l).peak);
        }
    }
}
