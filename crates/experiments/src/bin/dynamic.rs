//! Dynamic re-provisioning demo (§5): a flash-crowd catalog change at
//! minute 600 doubles the catalog; the server re-plans per-title delays
//! under the same 48-stream license, and the stream-exact simulation shows
//! the steady state never violates it while the transition overlap is
//! measured explicitly. The run goes through
//! [`sm_experiments::simcheck::crosscheck_dynamic`], so the pipelined,
//! memo-carrying spine is verified bit-identical to the memo-free
//! sequential reference before any number is printed.

use sm_experiments::output::{render_table, results_dir, write_csv};
use sm_experiments::simcheck::crosscheck_dynamic;
use sm_server::{Catalog, Epoch};

fn main() {
    let epochs = [
        Epoch {
            start_minute: 0,
            catalog: Catalog::zipf(4, 1.0, &[120.0, 90.0]),
        },
        Epoch {
            start_minute: 600,
            catalog: Catalog::zipf(10, 1.0, &[120.0, 90.0, 100.0]),
        },
    ];
    let budget = 48u64;
    let candidates = [1.0, 2.0, 5.0, 10.0, 20.0];
    let horizon = 1440u64;
    let report = crosscheck_dynamic(&epochs, budget, &candidates, horizon)
        .unwrap_or_else(|e| panic!("pipelined/sequential cross-check failed: {e}"))
        .expect("both epochs must be plannable under the license");

    println!("Dynamic re-provisioning — catalog 4 -> 10 titles at minute 600, license {budget} streams\n");
    let headers = [
        "epoch",
        "start",
        "end",
        "titles",
        "expected_delay",
        "planned_peak",
        "steady_peak",
        "transition_peak",
        "plan_ms",
        "materialize_ms",
    ];
    let rows: Vec<Vec<String>> = report
        .epoch_plans
        .iter()
        .zip(&report.per_epoch)
        .enumerate()
        .map(|(i, (ep, br))| {
            vec![
                i.to_string(),
                ep.start_minute.to_string(),
                ep.end_minute.to_string(),
                ep.plan.delays_minutes.len().to_string(),
                format!("{:.2}", ep.plan.expected_delay),
                ep.plan.total_peak.to_string(),
                br.steady_peak.to_string(),
                br.transition_peak.to_string(),
                format!("{:.2}", br.plan_ms),
                format!("{:.2}", br.materialize_ms),
            ]
        })
        .collect();
    println!("{}", render_table(&headers, &rows));
    println!(
        "measured: steady peak {} / {budget}, transition peak {}, overall {}",
        report.steady_peak, report.transition_peak, report.peak
    );
    println!("pipeline: planner memo {} hits", report.memo_hits);
    assert!(report.steady_peak <= budget);

    let minute_headers = ["minute", "streams"];
    let minute_rows: Vec<Vec<String>> = report
        .per_minute
        .iter()
        .enumerate()
        .step_by(10)
        .map(|(m, &c)| vec![m.to_string(), c.to_string()])
        .collect();
    let path = results_dir().join("dynamic.csv");
    write_csv(&path, &minute_headers, &minute_rows).expect("write CSV");
    println!("wrote {}", path.display());
}
