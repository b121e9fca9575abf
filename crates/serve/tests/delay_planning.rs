//! Delay re-planning acceptance tests.
//!
//! * A one-title run at an unbounded budget is **bit-identical** to
//!   the retired PR-6 license-gating loop with its gauge disabled — the
//!   reference loop is replicated inline here (same per-batch Poisson
//!   seeding, same co-slot batching, same dyadic policy, no planning) and
//!   the property test pins the two summaries against each other.
//! * A mid-run Delay Guaranteed → Delay Guaranteed policy swap at a tree
//!   boundary is a no-op: the run is bit-identical to the unswapped one.
//! * Simultaneous arrivals across titles under a one-channel budget are
//!   all served, with the contention showing up as nonzero delay.
//! * Starving the shared budget grows delay but never creates a
//!   rejection — the zero-rejection invariant under pressure.

use proptest::prelude::*;
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{serve_multi, MultiServeConfig, PolicyKind, PolicySwap, TitleConfig};
use sm_sim::{Attach, IncrementalEngine, IncrementalSummary, SimConfig};
use sm_workload::{ArrivalProcess, PoissonProcess};

/// The PR-6 ingest loop with `max_active: None`, replicated verbatim:
/// per-batch Poisson seeding, slot flooring, co-slot batching under the
/// slot head, dyadic policy, no delay planner. What a one-title
/// `serve_multi` run must still compute at an unbounded budget.
fn license_gating_reference(config: &MultiServeConfig) -> IncrementalSummary {
    let title = &config.titles[0];
    let n_batches = (config.horizon / config.batch_slots).ceil() as usize;
    let mut arrivals: Vec<f64> = Vec::new();
    for i in 0..n_batches {
        let offset = i as f64 * config.batch_slots;
        let span = (config.horizon - offset).min(config.batch_slots);
        let mut proc = PoissonProcess::new(
            title.mean_interarrival,
            config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        arrivals.extend(proc.generate(span).iter().map(|t| offset + t));
    }
    let mut engine = IncrementalEngine::new(title.media_len, SimConfig::default()).unwrap();
    let mut policy = DyadicMerger::new(DyadicConfig::golden_poisson(), title.media_len as f64);
    let mut slot_reps: Vec<usize> = Vec::new();
    let mut cur: Option<(i64, usize)> = None;
    for t in arrivals {
        let slot = t.floor() as i64;
        if let Some((s, head)) = cur {
            if s == slot {
                engine.push(slot, Attach::Under(head), &mut |_| {}).unwrap();
                continue;
            }
        }
        let decision = policy.push(slot as f64);
        let attach = match decision.parent {
            None => Attach::Root,
            Some(p) => Attach::Under(slot_reps[p]),
        };
        let global = engine.arrivals();
        engine.push(slot, attach, &mut |_| {}).unwrap();
        slot_reps.push(global);
        cur = Some((slot, global));
    }
    engine.finish(&mut |_| {}).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unbounded_budget_is_bit_identical_to_the_license_gating_loop(
        media_len in 8u64..96,
        horizon in 50.0f64..400.0,
        mean in 0.5f64..4.0,
        seed in 0u64..1000,
    ) {
        let config = MultiServeConfig {
            seed,
            ..MultiServeConfig::new(vec![TitleConfig::new(media_len, mean)], horizon)
        };
        let report = serve_multi(&config).unwrap();
        prop_assert_eq!(report.rejected, 0);
        prop_assert_eq!(report.served, report.generated);
        prop_assert_eq!(report.delay.max_slots, 0);
        prop_assert_eq!(&report.titles[0].summary, &license_gating_reference(&config));
    }

    #[test]
    fn dg_swap_at_a_tree_boundary_is_bit_identical_to_no_swap(
        media_len in 4u64..40,
        trees_before_swap in 1usize..6,
        seed in 0u64..500,
    ) {
        let boundary = DelayGuaranteedOnline::new(media_len).tree_size() as usize;
        let base = MultiServeConfig {
            seed,
            budget: Some(4),
            ..MultiServeConfig::new(
                vec![TitleConfig {
                    policy: PolicyKind::DelayGuaranteed,
                    ..TitleConfig::new(media_len, 1.0)
                }],
                400.0,
            )
        };
        let mut swapped = base.clone();
        swapped.titles[0].swap = Some(PolicySwap {
            after_groups: trees_before_swap * boundary,
            to: PolicyKind::DelayGuaranteed,
        });
        let plain_report = serve_multi(&base).unwrap();
        let swap_report = serve_multi(&swapped).unwrap();
        prop_assert_eq!(&plain_report.titles[0].summary, &swap_report.titles[0].summary);
        prop_assert_eq!(plain_report.titles[0].groups, swap_report.titles[0].groups);
        prop_assert_eq!(plain_report.titles[0].delay, swap_report.titles[0].delay);
        prop_assert_eq!(plain_report.generated, swap_report.generated);
    }
}

#[test]
fn simultaneous_cross_title_arrivals_are_all_served_with_delay() {
    // Two identically-loaded titles competing for one channel: the slot-0
    // collision (and every later one) must be resolved by delay, never by
    // rejection.
    let config = MultiServeConfig {
        budget: Some(1),
        ..MultiServeConfig::new(
            vec![TitleConfig::new(40, 0.5), TitleConfig::new(40, 0.5)],
            120.0,
        )
    };
    let report = serve_multi(&config).unwrap();
    assert_eq!(report.rejected, 0);
    assert_eq!(report.served, report.generated);
    for title in &report.titles {
        assert!(title.generated > 0, "both titles must draw traffic");
        assert_eq!(title.served, title.generated);
    }
    assert!(
        report.delay.max_slots > 0,
        "two titles over one channel must queue"
    );
    // The loser of the first collision waits for the winner's full
    // stream: contention is visible at media-length scale.
    assert!(
        report.delay.max_slots >= 39,
        "cross-title contention should cost about one media length, got {}",
        report.delay.max_slots
    );
}

#[test]
fn starved_budget_grows_delay_but_never_rejects() {
    let titles = || {
        vec![
            TitleConfig::new(60, 0.8),
            TitleConfig::new(60, 0.8),
            TitleConfig::new(60, 0.8),
        ]
    };
    let starved = serve_multi(&MultiServeConfig {
        budget: Some(1),
        ..MultiServeConfig::new(titles(), 900.0)
    })
    .unwrap();
    let generous = serve_multi(&MultiServeConfig {
        budget: Some(12),
        ..MultiServeConfig::new(titles(), 900.0)
    })
    .unwrap();
    // Identical traffic either way; the budget only moves start-up delay.
    assert_eq!(starved.generated, generous.generated);
    assert_eq!(starved.rejected, 0);
    assert_eq!(generous.rejected, 0);
    assert_eq!(starved.served, starved.generated);
    assert_eq!(generous.served, generous.generated);
    assert!(
        starved.delay.p99_slots > generous.delay.p99_slots,
        "starving the budget must grow tail delay: {} vs {}",
        starved.delay.p99_slots,
        generous.delay.p99_slots
    );
    assert!(
        starved.delay.max_slots > 60,
        "three titles on one channel queue past one media length, got {}",
        starved.delay.max_slots
    );
}

#[test]
fn cross_policy_swap_serves_everything() {
    // DG → dyadic and dyadic → DG swaps off the boundary carry no
    // bit-identity claim, but the seam must compose: every arrival is
    // still served and the run stays deterministic.
    for (from, to) in [
        (PolicyKind::DelayGuaranteed, PolicyKind::Dyadic),
        (PolicyKind::Dyadic, PolicyKind::DelayGuaranteed),
    ] {
        let config = MultiServeConfig {
            budget: Some(3),
            ..MultiServeConfig::new(
                vec![TitleConfig {
                    policy: from,
                    swap: Some(PolicySwap {
                        after_groups: 17,
                        to,
                    }),
                    ..TitleConfig::new(24, 1.0)
                }],
                300.0,
            )
        };
        let a = serve_multi(&config).unwrap();
        let b = serve_multi(&config).unwrap();
        assert_eq!(a.rejected, 0);
        assert_eq!(a.served, a.generated);
        assert!(a.titles[0].groups > 17, "the swap point must be reached");
        assert_eq!(a.titles[0].summary, b.titles[0].summary);
    }
}
