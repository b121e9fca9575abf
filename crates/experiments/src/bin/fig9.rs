//! Regenerates Fig. 9: on-line/off-line bandwidth ratio vs time horizon.

use sm_experiments::output::{render_table, results_dir, write_csv};
use sm_experiments::{fig9, simcheck};

fn main() {
    // Both sides of the ratio are analytic; pin them to the
    // simulator at the small end of the sweep before computing the figure.
    for (l, n) in [(50u64, 50usize), (50, 450), (100, 300), (200, 200)] {
        simcheck::crosscheck_online(l, n).expect("simulator must match A(L, n)");
        simcheck::crosscheck_offline(l, n).expect("simulator must match F(L, n)");
    }
    let rows = fig9::compute(&fig9::default_configs());
    let table = fig9::to_rows(&rows);
    println!("Figure 9 — on-line vs optimal off-line bandwidth ratio\n");
    println!("{}", render_table(&fig9::HEADERS, &table));
    let path = results_dir().join("fig9.csv");
    write_csv(&path, &fig9::HEADERS, &table).expect("write CSV");
    println!("wrote {}", path.display());
}
