//! Multi-title server planning (§5 extension): weighted vs uniform delay
//! assignment under a shrinking peak-bandwidth budget.
//!
//! A Zipf catalog is planned two ways for each budget:
//!
//! * **uniform** — one delay for the whole catalog, the smallest candidate
//!   that fits ([`plan_uniform`]);
//! * **weighted** — per-title delays from the greedy water-filling planner
//!   (popular titles keep short delays).
//!
//! The report compares the popularity-weighted expected delay of both plans
//! and the *measured* aggregate peak (phase-aligned sum of the periodic DG
//! profiles), which must respect the budget.

use sm_core::parallel_map;
use sm_server::{aggregate_profile, plan_weighted, Catalog, DelayPlan};

/// One budget point.
#[derive(Debug, Clone)]
pub struct ServerRow {
    /// Peak-bandwidth budget, in concurrent streams.
    pub budget: u64,
    /// Expected delay of the uniform plan (minutes), if feasible.
    pub uniform_delay: Option<f64>,
    /// Expected delay of the weighted plan (minutes), if feasible.
    pub weighted_delay: Option<f64>,
    /// Planned worst-case aggregate peak of the weighted plan.
    pub planned_peak: Option<u64>,
    /// Measured aggregate peak of the weighted plan over the horizon.
    pub measured_peak: Option<u64>,
}

/// Plans the catalog with a single uniform delay: the smallest candidate
/// whose plan fits the budget.
pub fn plan_uniform(catalog: &Catalog, budget: u64, candidates: &[f64]) -> Option<DelayPlan> {
    candidates
        .iter()
        .map(|&d| plan_weighted(catalog, u64::MAX, &[d]).expect("single-delay plan"))
        .find(|plan| plan.total_peak <= budget)
}

/// Computes the budget sweep for `catalog`.
pub fn compute(
    catalog: &Catalog,
    budgets: &[u64],
    candidates: &[f64],
    horizon_minutes: u64,
) -> Vec<ServerRow> {
    parallel_map(budgets, |&budget| {
        let uniform = plan_uniform(catalog, budget, candidates);
        let weighted = plan_weighted(catalog, budget, candidates);
        let (planned_peak, measured_peak) = match &weighted {
            Some(plan) => {
                let agg = aggregate_profile(catalog, plan, horizon_minutes);
                (Some(plan.total_peak), Some(agg.peak))
            }
            None => (None, None),
        };
        ServerRow {
            budget,
            uniform_delay: uniform.map(|p| p.expected_delay),
            weighted_delay: weighted.as_ref().map(|p| p.expected_delay),
            planned_peak,
            measured_peak,
        }
    })
}

fn opt_f(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.2}")).unwrap_or_else(|| "-".into())
}

fn opt_u(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "-".into())
}

/// Table rows for rendering/CSV.
pub fn to_rows(rows: &[ServerRow]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.budget.to_string(),
                opt_f(r.uniform_delay),
                opt_f(r.weighted_delay),
                opt_u(r.planned_peak),
                opt_u(r.measured_peak),
            ]
        })
        .collect()
}

/// Column headers matching [`to_rows`].
pub const HEADERS: [&str; 5] = [
    "budget",
    "uniform_exp_delay",
    "weighted_exp_delay",
    "planned_peak",
    "measured_peak",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::zipf(5, 1.0, &[120.0, 90.0])
    }

    const CANDS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];

    #[test]
    fn weighted_never_worse_than_uniform() {
        let c = catalog();
        let full = plan_weighted(&c, u64::MAX, &[1.0]).unwrap().total_peak;
        let budgets: Vec<u64> = vec![full, full * 3 / 4, full / 2, full / 3];
        for row in compute(&c, &budgets, &CANDS, 500) {
            match (row.uniform_delay, row.weighted_delay) {
                (Some(u), Some(w)) => {
                    assert!(
                        w <= u + 1e-9,
                        "budget {}: weighted {w} > uniform {u}",
                        row.budget
                    )
                }
                // Weighted plans are feasible whenever uniform plans are.
                (Some(_), None) => panic!("weighted infeasible where uniform fits"),
                _ => {}
            }
        }
    }

    #[test]
    fn measured_peak_never_exceeds_planned() {
        let c = catalog();
        let full = plan_weighted(&c, u64::MAX, &[1.0]).unwrap().total_peak;
        for row in compute(&c, &[full, full / 2], &CANDS, 500) {
            if let (Some(p), Some(m)) = (row.planned_peak, row.measured_peak) {
                assert!(m <= p, "budget {}: measured {m} > planned {p}", row.budget);
                assert!(row.planned_peak.unwrap() <= row.budget);
            }
        }
    }

    #[test]
    fn infeasible_budgets_render_as_dashes() {
        let c = catalog();
        let rows = compute(&c, &[1], &CANDS, 100);
        let rendered = to_rows(&rows);
        assert_eq!(rendered[0][1], "-");
        assert_eq!(rendered[0][2], "-");
    }
}
