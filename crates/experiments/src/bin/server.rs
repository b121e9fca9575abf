//! Multi-title server planning (§5): weighted vs uniform delay assignment
//! under a shrinking peak-bandwidth budget.

use sm_experiments::output::{render_table, results_dir, write_csv};
use sm_experiments::{server_exp, simcheck};
use sm_server::{plan_weighted, Catalog};

fn main() {
    let catalog = Catalog::zipf(8, 1.0, &[120.0, 90.0, 100.0]);
    let candidates = [1.0, 2.0, 5.0, 10.0, 20.0];
    // The per-title periodic profiles below are DG schedules; make sure the
    // simulator agrees with the DG cost at each distinct slot scale.
    let media_lens: std::collections::BTreeSet<u64> = catalog
        .titles()
        .iter()
        .map(|t| t.media_len(candidates[0]))
        .collect();
    for media_len in media_lens {
        simcheck::crosscheck_online(media_len, 4 * media_len as usize)
            .expect("simulator must match the DG schedule");
    }
    let full = plan_weighted(&catalog, u64::MAX, &[1.0])
        .expect("unconstrained plan")
        .total_peak;
    let budgets: Vec<u64> = [100, 90, 75, 60, 50, 40, 30, 25, 20, 15]
        .iter()
        .map(|&pct| full * pct / 100)
        .collect();
    let rows = server_exp::compute(&catalog, &budgets, &candidates, 2_000);
    println!(
        "Multi-title planning — {} Zipf titles, unconstrained peak = {full} streams\n",
        catalog.len()
    );
    println!(
        "{}",
        render_table(&server_exp::HEADERS, &server_exp::to_rows(&rows))
    );
    let path = results_dir().join("server.csv");
    write_csv(&path, &server_exp::HEADERS, &server_exp::to_rows(&rows)).expect("write CSV");
    println!("wrote {}", path.display());
}
