//! Property-based tests for the multi-object server substrate.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sm_server::{
    plan_weighted, simulate_dynamic, simulate_dynamic_sequential, simulate_requests, Catalog,
    DynamicReport, Epoch, Title, Zipf,
};

fn arb_catalog() -> impl Strategy<Value = Catalog> {
    proptest::collection::vec((30.0f64..=180.0, 0.1f64..=10.0), 1..=4).prop_map(|specs| {
        Catalog::new(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, (dur, w))| Title {
                    name: format!("t{i}"),
                    duration_minutes: dur,
                    weight: w,
                })
                .collect(),
        )
    })
}

/// Multi-epoch scenarios: 1–4 epochs whose catalogs grow, shrink, and flip
/// popularity freely, spaced 40–400 minutes apart. Each epoch either draws
/// an independent (usually disjoint) catalog or re-uses its predecessor's
/// verbatim — the overlapping case a cross-epoch memo exists for. The
/// budget menu spans "mostly infeasible" through "unconstrained", and the
/// horizon can fall short of the last switch so skipped epochs are
/// exercised too.
fn arb_dynamic_scenario() -> impl Strategy<Value = (Vec<Epoch>, u64, u64)> {
    (
        proptest::collection::vec((arb_catalog(), 40u64..=400, 0u8..3), 1..=4),
        0usize..5,
        10u64..=500,
    )
        .prop_map(|(specs, budget_idx, tail)| {
            let budgets = [6u64, 12, 24, 48, u64::MAX];
            let mut epochs: Vec<Epoch> = Vec::new();
            let mut start = 0u64;
            for (catalog, gap, reuse) in specs {
                // One case in three repeats the previous epoch's catalog.
                let catalog = match epochs.last() {
                    Some(prev) if reuse == 0 => prev.catalog.clone(),
                    _ => catalog,
                };
                epochs.push(Epoch {
                    start_minute: start,
                    catalog,
                });
                start += gap;
            }
            let last_start = epochs.last().expect("at least one epoch").start_minute;
            // Sometimes shorter than the last switch (that epoch is skipped),
            // sometimes well past it.
            let horizon = (last_start / 2 + tail).max(1);
            (epochs, budgets[budget_idx], horizon)
        })
}

/// Field-by-field equality of two dynamic reports, excluding only the
/// wall-clock latency fields — delegates to the one canonical definition
/// on `DynamicReport`.
fn assert_dynamic_reports_identical(a: &DynamicReport, b: &DynamicReport) {
    if let Some(diff) = a.deterministic_diff(b) {
        panic!("spines diverge: {diff}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The production dynamic spine — pipelined, carrying its run-local
    /// memo across epochs — is bit-identical to the memo-free sequential
    /// reference on arbitrary multi-epoch catalogs — growing, shrinking,
    /// popularity-flipping, re-used verbatim, under budget squeezes —
    /// including *which* error fires when the budget is infeasible.
    #[test]
    fn pipelined_dynamic_matches_sequential_spine(
        (epochs, budget, horizon) in arb_dynamic_scenario(),
    ) {
        let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
        let piped = simulate_dynamic(&epochs, budget, &cands, horizon);
        let seq = simulate_dynamic_sequential(&epochs, budget, &cands, horizon);
        match (piped, seq) {
            (Ok(a), Ok(b)) => {
                assert_dynamic_reports_identical(&a, &b);
                // The per-epoch breakdown tiles the horizon: global peaks
                // are the maxima over the epoch windows.
                if !a.per_epoch.is_empty() {
                    prop_assert_eq!(
                        a.peak,
                        a.per_epoch.iter().map(|e| e.peak).max().unwrap()
                    );
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "spines disagree: {:?} vs {:?}", a, b),
        }
    }

    /// The Zipf CDF is a proper distribution and sampling stays in range.
    #[test]
    fn zipf_is_a_distribution(n in 1usize..=64, s in 0.0f64..=2.5, seed in 0u64..1000) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|i| z.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// `Title::media_len` rounds up: slots of the guaranteed delay cover
    /// the whole title, and one slot fewer would not (up to the float
    /// rounding of `duration / delay`). Rounding to nearest fails this at
    /// 90 minutes and an 8-minute delay (11 slots cover only 88 minutes).
    #[test]
    fn title_media_len_keeps_the_guarantee(duration in 1.0f64..=600.0, delay in 0.1f64..=120.0) {
        let title = Title {
            name: "t".into(),
            duration_minutes: duration,
            weight: 1.0,
        };
        let slots = title.media_len(delay) as f64;
        let eps = 1e-9 * duration;
        prop_assert!(slots * delay >= duration - eps, "{slots} × {delay} < {duration}");
        if slots > 1.0 {
            prop_assert!((slots - 1.0) * delay < duration + eps, "{slots} − 1 slots suffice");
        }
    }

    /// Plans always fit their budget, and a larger budget never yields a
    /// worse expected delay.
    #[test]
    fn plans_fit_budget_and_are_monotone(catalog in arb_catalog()) {
        let cands = [1.0, 2.0, 4.0, 8.0, 16.0];
        let unconstrained = plan_weighted(&catalog, u64::MAX, &cands).unwrap();
        let tightest = plan_weighted(&catalog, 0, &cands);
        prop_assert!(tightest.is_none() || tightest.unwrap().total_peak == 0);

        let full = unconstrained.total_peak;
        // Iterating budgets downwards: expected delay must be non-decreasing.
        let mut last_delay = 0.0f64;
        for budget in [full, full * 3 / 4, full / 2, full / 4] {
            if let Some(plan) = plan_weighted(&catalog, budget, &cands) {
                prop_assert!(plan.total_peak <= budget);
                prop_assert!(plan.expected_delay + 1e-9 >= last_delay);
                last_delay = plan.expected_delay;
                // Per-title delays come from the candidate menu.
                for d in &plan.delays_minutes {
                    prop_assert!(cands.contains(d));
                }
            }
        }
    }

    /// Request simulation never declines, bounds every wait by that title's
    /// planned delay, and conserves the request count.
    #[test]
    fn requests_never_declined_waits_bounded(
        catalog in arb_catalog(),
        seed in 0u64..1000,
    ) {
        let cands = [2.0, 5.0];
        let plan = plan_weighted(&catalog, u64::MAX, &cands).unwrap();
        let report = simulate_requests(&catalog, &plan, 300.0, 1.0, seed);
        prop_assert_eq!(report.declined, 0);
        prop_assert_eq!(report.per_title.iter().sum::<u64>(), report.served);
        let max_planned = plan.delays_minutes.iter().fold(0.0f64, |a, &b| a.max(b));
        prop_assert!(report.max_wait <= max_planned + 1e-9);
    }
}
