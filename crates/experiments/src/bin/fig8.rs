//! Regenerates Fig. 8: the table of last-merge intervals I(n), 2 <= n <= 55,
//! verified against the O(n^2) DP.

use sm_experiments::output::{render_table, results_dir, write_csv};
use sm_experiments::{fig8, simcheck};

fn main() {
    let rows = fig8::compute(55);
    fig8::verify_against_dp(&rows).expect("closed form must match DP");
    // The intervals describe optimal trees; execute a few of those plans on
    // the event-driven simulator before trusting the table.
    for n in [2usize, 8, 21, 55] {
        simcheck::crosscheck_offline(2 * n as u64, n).expect("simulator must match Fcost");
    }
    let table = fig8::to_rows(&rows);
    println!("Figure 8 — last-merge intervals I(n) (verified against DP)\n");
    println!("{}", render_table(&fig8::HEADERS, &table));
    let path = results_dir().join("fig8.csv");
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.lo.to_string(),
                r.hi.to_string(),
                r.regime.to_string(),
            ]
        })
        .collect();
    write_csv(&path, &["n", "lo", "hi", "regime"], &csv_rows).expect("write CSV");
    println!("wrote {}", path.display());
}
