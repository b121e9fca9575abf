//! §3.3 ablation: how the optimal full cost inflates as the client buffer
//! bound B shrinks below L/2 (Theorem 16's regime).

use sm_experiments::output::{render_table, results_dir, write_csv};
use sm_offline::forest::{optimal_full_cost, optimal_s_bounded_buffer};

fn main() {
    let media_len = 100u64;
    let n = 10_000u64;
    let unbounded = optimal_full_cost(media_len, n);
    println!(
        "Bounded-buffer cost inflation (L = {media_len}, n = {n}; unbounded Fcost = {unbounded})\n"
    );
    let buffers = [1u64, 2, 3, 5, 8, 13, 21, 34, 49, 50];
    let mut rows = Vec::new();
    for &b in &buffers {
        let (s, cost) = optimal_s_bounded_buffer(media_len, n, b);
        rows.push(vec![
            b.to_string(),
            s.to_string(),
            cost.to_string(),
            format!("{:.3}", cost as f64 / unbounded as f64),
        ]);
    }
    let headers = ["B", "streams", "cost", "vs_unbounded"];
    println!("{}", render_table(&headers, &rows));
    write_csv(&results_dir().join("buffers.csv"), &headers, &rows).expect("write CSV");
    println!("wrote {}", results_dir().join("buffers.csv").display());
}
