//! Simulator cross-checks for the figure/table binaries.
//!
//! Every analytic number the experiments print has an executable
//! counterpart: derive the forest the number describes, run it through the
//! simulator's production path ([`sm_sim::simulate`]), and demand the
//! measured bandwidth equals the closed form. The binaries call these
//! before writing their CSVs, so a regression in either the theory code or
//! the engine turns figure regeneration red.

use sm_core::consecutive_slots;
use sm_offline::forest::optimal_forest;
use sm_online::DelayGuaranteedOnline;
use sm_server::{
    simulate_dynamic, simulate_dynamic_sequential, DynamicError, DynamicReport, Epoch,
};
use sm_sim::simulate;

/// Executes the optimal off-line forest for `(L, n)` on the simulator
/// and checks the measured total against the plan's analytic cost.
/// Returns the measured slot-units.
pub fn crosscheck_offline(media_len: u64, n: usize) -> Result<i64, String> {
    let plan = optimal_forest(media_len, n);
    let times = consecutive_slots(n);
    let report = simulate(&plan.forest, &times, media_len)
        .map_err(|e| format!("offline L = {media_len}, n = {n}: {e}"))?;
    if report.total_units != plan.cost as i64 {
        return Err(format!(
            "offline L = {media_len}, n = {n}: simulated {} units, analytic {}",
            report.total_units, plan.cost
        ));
    }
    Ok(report.total_units)
}

/// Executes the Delay Guaranteed on-line forest after `n` slots on the
/// simulator and checks the measured total against `A(L, n)`.
/// Returns the measured slot-units.
pub fn crosscheck_online(media_len: u64, n: usize) -> Result<i64, String> {
    let alg = DelayGuaranteedOnline::new(media_len);
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let report = simulate(&forest, &times, media_len)
        .map_err(|e| format!("online L = {media_len}, n = {n}: {e}"))?;
    let analytic = alg.total_cost_after(n as u64);
    if report.total_units as u64 != analytic {
        return Err(format!(
            "online L = {media_len}, n = {n}: simulated {} units, analytic {analytic}",
            report.total_units
        ));
    }
    Ok(report.total_units)
}

/// Runs the §5 dynamic re-provisioning scenario through **both** server
/// spines — the cross-epoch pipelined `simulate_dynamic` with its
/// run-local memo and the memo-free sequential reference — and demands
/// bit-identical outcomes (per-minute profile, peaks, plans, per-epoch
/// breakdown, or the same typed error; the wall-clock latency fields and
/// `memo_hits` are exempt, they measure the run itself). A stale memo
/// entry would therefore fail the check, not silently agree with itself.
///
/// The outer `Result` is the cross-check: `Err(String)` means the spines
/// diverged. The inner `Result` is the agreed domain outcome — the
/// pipelined report, or the `DynamicError` both spines returned (an
/// infeasible budget is a legitimate agreed answer, not a check failure).
pub fn crosscheck_dynamic(
    epochs: &[Epoch],
    budget: u64,
    candidates_minutes: &[f64],
    horizon_minutes: u64,
) -> Result<Result<DynamicReport, DynamicError>, String> {
    let piped = simulate_dynamic(epochs, budget, candidates_minutes, horizon_minutes);
    let seq = simulate_dynamic_sequential(epochs, budget, candidates_minutes, horizon_minutes);
    match (piped, seq) {
        (Ok(a), Ok(b)) => match a.deterministic_diff(&b) {
            None => Ok(Ok(a)),
            Some(diff) => Err(format!("dynamic: {diff}")),
        },
        (Err(a), Err(b)) if a == b => Ok(Err(a)),
        (a, b) => Err(format!("dynamic: spines disagree: {a:?} vs {b:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_server::Catalog;

    #[test]
    fn offline_crosschecks_paper_examples() {
        // The §2/§3.2 worked examples: Fcost(15, 8) = 36, Fcost(15, 14) = 64.
        assert_eq!(crosscheck_offline(15, 8).unwrap(), 36);
        assert_eq!(crosscheck_offline(15, 14).unwrap(), 64);
    }

    #[test]
    fn online_crosschecks_across_sizes() {
        for (l, n) in [(7u64, 40usize), (15, 100), (100, 250)] {
            crosscheck_online(l, n).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn dynamic_crosscheck_passes_on_the_demo_scenario() {
        let epochs = [
            Epoch {
                start_minute: 0,
                catalog: Catalog::zipf(3, 1.0, &[120.0, 90.0]),
            },
            Epoch {
                start_minute: 400,
                catalog: Catalog::zipf(6, 1.0, &[120.0, 90.0, 100.0]),
            },
        ];
        let report = crosscheck_dynamic(&epochs, 40, &[1.0, 2.0, 5.0, 10.0], 900)
            .unwrap_or_else(|e| panic!("{e}"))
            .expect("scenario is plannable under the budget");
        assert_eq!(report.epoch_plans.len(), 2);
        assert!(report.steady_peak <= 40);
        assert!(
            report.memo_hits > 0,
            "the pipelined spine's report is returned"
        );
    }

    #[test]
    fn dynamic_crosscheck_agrees_on_infeasibility() {
        let epochs = [Epoch {
            start_minute: 0,
            catalog: Catalog::zipf(8, 1.0, &[120.0]),
        }];
        // Both spines agree the budget is infeasible: the cross-check
        // passes and surfaces the agreed typed error.
        let outcome = crosscheck_dynamic(&epochs, 1, &[1.0, 2.0], 200)
            .expect("agreeing spines are not a check failure");
        assert_eq!(
            outcome.unwrap_err(),
            DynamicError::Infeasible {
                epoch: 0,
                start_minute: 0
            }
        );
    }
}
