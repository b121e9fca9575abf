//! Cross-crate checks for the on-line policy roster: every policy's forest
//! must be a valid receive-two solution, must never beat the off-line
//! optimum, and the structural equivalences between policies must hold.

use stream_merging::core::{full_cost, validate_forest, ValidationOptions};
use stream_merging::offline::forest::optimal_full_cost;
use stream_merging::online::dyadic::{dyadic_forest, dyadic_total_cost, DyadicConfig};
use stream_merging::online::hierarchical::{HierarchicalMerger, MergePolicy};
use stream_merging::online::patching::PatchingMerger;

const MEDIA: u64 = 30;

/// Slotted arrivals 0..n−1 as f64 times (the delay-guaranteed special case,
/// on which the off-line optimum is known exactly).
fn slot_arrivals(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

/// Runs a policy over the arrivals and returns (forest cost, forest, times).
fn run_policy(
    policy: &str,
    arrivals: &[f64],
) -> (f64, stream_merging::core::MergeForest, Vec<f64>) {
    match policy {
        "patching" => {
            let mut m = PatchingMerger::new(MEDIA as f64, 14.0);
            for &t in arrivals {
                m.on_arrival(t);
            }
            let (forest, times) = m.forest();
            (m.total_cost(), forest, times)
        }
        "ermt" => {
            let mut m = HierarchicalMerger::new(MergePolicy::EarliestReachable, MEDIA as f64, 14.0);
            for &t in arrivals {
                m.on_arrival(t);
            }
            let (forest, times) = m.forest();
            (m.total_cost(), forest, times)
        }
        "dyadic" => {
            let cfg = DyadicConfig::golden_poisson();
            let forest = dyadic_forest(cfg, MEDIA as f64, arrivals);
            let cost = dyadic_total_cost(cfg, MEDIA as f64, arrivals);
            (cost, forest, arrivals.to_vec())
        }
        other => panic!("unknown policy {other}"),
    }
}

#[test]
fn every_policy_forest_validates_as_receive_two() {
    let arrivals = slot_arrivals(60);
    for policy in ["patching", "ermt", "dyadic"] {
        let (_, forest, times) = run_policy(policy, &arrivals);
        validate_forest(&forest, &times, MEDIA, ValidationOptions::default())
            .unwrap_or_else(|e| panic!("{policy}: {e}"));
    }
}

#[test]
fn no_policy_beats_the_offline_optimum_on_slotted_arrivals() {
    for n in [5usize, 13, 34, 60, 89] {
        let arrivals = slot_arrivals(n);
        let optimal = optimal_full_cost(MEDIA, n as u64) as f64;
        for policy in ["patching", "ermt", "dyadic"] {
            let (cost, _, _) = run_policy(policy, &arrivals);
            assert!(
                cost + 1e-6 >= optimal,
                "{policy} at n={n}: {cost} < optimal {optimal}"
            );
        }
    }
}

#[test]
fn policy_costs_agree_with_generic_cost_machinery() {
    let arrivals = slot_arrivals(40);
    for policy in ["patching", "ermt", "dyadic"] {
        let (cost, forest, times) = run_policy(policy, &arrivals);
        let generic = full_cost(&forest, &times, MEDIA);
        assert!(
            (cost - generic).abs() < 1e-9,
            "{policy}: direct {cost} vs generic {generic}"
        );
    }
}

#[test]
fn direct_to_root_policy_is_patching_everywhere() {
    // Irregular arrival pattern exercising window resets.
    let arrivals: Vec<f64> = (0..200)
        .map(|i| i as f64 * 0.7 + ((i % 7) as f64) * 0.05)
        .collect();
    let mut p = PatchingMerger::new(MEDIA as f64, 10.0);
    let mut h = HierarchicalMerger::new(MergePolicy::DirectToRoot, MEDIA as f64, 10.0);
    for &t in &arrivals {
        p.on_arrival(t);
        h.on_arrival(t);
    }
    assert_eq!(p.roots(), h.roots());
    assert!((p.total_cost() - h.total_cost()).abs() < 1e-9);
}

#[test]
fn ermt_never_worse_than_patching_at_equal_window() {
    for gap in [0.2f64, 0.5, 1.0, 2.0] {
        let arrivals: Vec<f64> = (0..300).map(|i| i as f64 * gap).collect();
        for window in [5.0f64, 10.0, 14.0] {
            let mut p = PatchingMerger::new(MEDIA as f64, window);
            let mut e =
                HierarchicalMerger::new(MergePolicy::EarliestReachable, MEDIA as f64, window);
            for &t in &arrivals {
                p.on_arrival(t);
                e.on_arrival(t);
            }
            assert!(
                e.total_cost() <= p.total_cost() + 1e-6,
                "gap {gap}, window {window}: ermt {} > patching {}",
                e.total_cost(),
                p.total_cost()
            );
        }
    }
}

#[test]
fn continuous_verifier_accepts_policy_forests_on_real_times() {
    // Non-integer arrival times: the continuous-time §2 receiving-rules
    // verifier must accept every policy's forest (coverage, supply,
    // timeliness).
    use stream_merging::sim::verify_continuous;
    let arrivals: Vec<f64> = (0..150)
        .map(|i| i as f64 * 0.73 + ((i % 5) as f64) * 0.11)
        .collect();
    for policy in ["patching", "ermt", "dyadic"] {
        let (_, forest, times) = run_policy(policy, &arrivals);
        verify_continuous(&forest, &times, MEDIA as f64, 1e-9)
            .unwrap_or_else(|e| panic!("{policy}: {e:?}"));
    }
}

#[test]
fn simulator_oracle_executes_policy_schedules() {
    // Policies produce integer-slot forests here; the discrete-event
    // simulator must execute them without stalls or receive-two violations.
    use stream_merging::sim::simulate;
    let arrivals = slot_arrivals(30);
    for policy in ["patching", "ermt"] {
        let (cost, forest, times) = run_policy(policy, &arrivals);
        let times_i: Vec<i64> = times.iter().map(|&t| t as i64).collect();
        let report = simulate(&forest, &times_i, MEDIA).unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert_eq!(report.clients.len(), times.len());
        // Metered transmission equals the analytic cost.
        assert_eq!(report.total_units as f64, cost, "{policy}");
    }
}
