//! Cross-crate checks for the §5 multi-object server: the planner, the
//! capacity analysis and the aggregate simulation must tell one consistent
//! story.

use stream_merging::experiments::server_exp::plan_uniform;
use stream_merging::online::capacity::steady_state_bandwidth;
use stream_merging::server::{aggregate_profile, plan_weighted, simulate_requests, Catalog, Title};

fn catalog() -> Catalog {
    Catalog::new(vec![
        Title {
            name: "hit".into(),
            duration_minutes: 120.0,
            weight: 6.0,
        },
        Title {
            name: "steady".into(),
            duration_minutes: 90.0,
            weight: 3.0,
        },
        Title {
            name: "tail".into(),
            duration_minutes: 100.0,
            weight: 1.0,
        },
    ])
}

const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

#[test]
fn weighted_planner_beats_uniform_capacity_planning() {
    let c = catalog();
    let full = plan_weighted(&c, u64::MAX, &[1.0]).unwrap().total_peak;
    let budget = full * 2 / 3;
    let uniform = plan_uniform(&c, budget, &CANDS).expect("uniform plan fits at some candidate");
    assert!(uniform.total_peak <= budget);

    let weighted = plan_weighted(&c, budget, &CANDS).expect("weighted plan fits");
    assert!(
        weighted.expected_delay <= uniform.expected_delay + 1e-9,
        "weighted {} vs uniform {}",
        weighted.expected_delay,
        uniform.expected_delay
    );
}

#[test]
fn planner_peaks_are_exactly_capacity_peaks() {
    let c = catalog();
    let plan = plan_weighted(&c, u64::MAX, &CANDS).unwrap();
    for (i, t) in c.titles().iter().enumerate() {
        let l = t.media_len(plan.delays_minutes[i]);
        assert_eq!(plan.peaks[i], steady_state_bandwidth(l).peak);
    }
    // Per-title peaks add up: the uniform plan's total is the sum of the
    // titles' steady-state peaks at the one delay.
    for d in CANDS {
        let uniform = plan_uniform(&c, u64::MAX, &[d]).unwrap();
        let sum: u64 = c
            .titles()
            .iter()
            .map(|t| steady_state_bandwidth(t.media_len(d)).peak as u64)
            .sum();
        assert_eq!(uniform.total_peak, sum, "delay {d} min");
    }
}

#[test]
fn aggregate_never_exceeds_planned_peak_across_budgets() {
    let c = catalog();
    let full = plan_weighted(&c, u64::MAX, &[1.0]).unwrap().total_peak;
    for budget in [full, full * 3 / 4, full / 2] {
        if let Some(plan) = plan_weighted(&c, budget, &CANDS) {
            let agg = aggregate_profile(&c, &plan, 1_000);
            assert!(agg.peak <= plan.total_peak);
            assert!(plan.total_peak <= budget);
        }
    }
}

#[test]
fn requests_respect_per_title_delay_guarantees() {
    let c = catalog();
    let budget = plan_weighted(&c, u64::MAX, &[1.0]).unwrap().total_peak / 2;
    let plan = plan_weighted(&c, budget, &CANDS).expect("feasible");
    let report = simulate_requests(&c, &plan, 2_000.0, 2.0, 99);
    assert_eq!(report.declined, 0);
    assert!(report.served > 1_000);
    let max_planned = plan.delays_minutes.iter().fold(0.0f64, |a, &b| a.max(b));
    assert!(report.max_wait <= max_planned + 1e-9);
    // The measured mean wait is below the weighted *guarantee* (waits are
    // uniform within a slot, so the mean is roughly half the guarantee).
    assert!(report.mean_wait <= plan.expected_delay);
}

#[test]
fn single_title_degenerates_to_capacity_analysis() {
    let one = Catalog::new(vec![Title {
        name: "solo".into(),
        duration_minutes: 100.0,
        weight: 1.0,
    }]);
    let plan = plan_weighted(&one, u64::MAX, &[5.0]).unwrap();
    let s = steady_state_bandwidth(20); // 100 min / 5 min
    assert_eq!(plan.total_peak, s.peak as u64);
    let agg = aggregate_profile(&one, &plan, 600);
    assert_eq!(agg.peak, s.peak as u64);
}
