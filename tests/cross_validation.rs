//! Cross-crate consistency: the same quantity computed along independent
//! paths must agree (closed form ↔ DP ↔ tree evaluation ↔ simulation ↔
//! general-arrivals DP).

use stream_merging::core::{consecutive_slots, full_cost, merge_cost};
use stream_merging::offline::closed_form;
use stream_merging::offline::dp;
use stream_merging::offline::forest::{optimal_forest, optimal_full_cost};
use stream_merging::offline::general;
use stream_merging::offline::tree_builder::optimal_merge_tree;
use stream_merging::online::delay_guaranteed::online_full_cost;
use stream_merging::sim::simulate;

#[test]
#[allow(clippy::needless_range_loop)] // index parallels the math
fn five_ways_to_compute_mn() {
    let dp_table = dp::merge_cost_table(120);
    for n in 1usize..=120 {
        let closed = closed_form::merge_cost(n as u64);
        let via_dp = dp_table[n];
        let via_tree = merge_cost(&optimal_merge_tree(n), &consecutive_slots(n)) as u64;
        let via_dp_tree = merge_cost(&dp::optimal_tree_dp(n), &consecutive_slots(n)) as u64;
        let via_general = general::optimal_tree(&consecutive_slots(n)).cost as u64;
        assert_eq!(closed, via_dp, "n = {n}");
        assert_eq!(closed, via_tree, "n = {n}");
        assert_eq!(closed, via_dp_tree, "n = {n}");
        assert_eq!(closed, via_general, "n = {n}");
    }
}

#[test]
fn four_ways_to_compute_full_cost() {
    for (media_len, n) in [(4u64, 16usize), (15, 8), (15, 14), (10, 60), (21, 100)] {
        let analytic = optimal_full_cost(media_len, n as u64);
        let plan = optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        let via_model = full_cost(&plan.forest, &times, media_len) as u64;
        let via_sim = simulate(&plan.forest, &times, media_len)
            .unwrap()
            .total_units as u64;
        let (_, via_general) = general::optimal_forest(&times, media_len);
        assert_eq!(analytic, via_model, "L = {media_len}, n = {n}");
        assert_eq!(analytic, via_sim, "L = {media_len}, n = {n}");
        assert_eq!(analytic, via_general as u64, "L = {media_len}, n = {n}");
    }
}

#[test]
fn online_cost_closed_form_vs_forest_vs_sim() {
    use stream_merging::online::DelayGuaranteedOnline;
    for (media_len, n) in [(15u64, 50usize), (7, 23), (100, 170)] {
        let alg = DelayGuaranteedOnline::new(media_len);
        let closed = online_full_cost(media_len, n as u64);
        let forest = alg.forest_after(n);
        let times = consecutive_slots(n);
        let via_model = full_cost(&forest, &times, media_len) as u64;
        let via_sim = simulate(&forest, &times, media_len).unwrap().total_units as u64;
        assert_eq!(closed, via_model);
        assert_eq!(closed, via_sim);
    }
}

#[test]
fn dyadic_cost_equals_model_cost_on_integer_grid() {
    use stream_merging::online::dyadic::{dyadic_forest, dyadic_total_cost, DyadicConfig};
    // Feed integer times; compare f64 dyadic accounting against the exact
    // i64 model on the same forest shape.
    let cfg = DyadicConfig::golden_poisson();
    let times_i: Vec<i64> = (0..40).map(|i| i * 2).collect();
    let times: Vec<f64> = times_i.iter().map(|&t| t as f64).collect();
    let forest = dyadic_forest(cfg, 30.0, &times);
    let f64_cost = dyadic_total_cost(cfg, 30.0, &times);
    let exact = full_cost(&forest, &times_i, 30);
    assert!((f64_cost - exact as f64).abs() < 1e-6);
}

#[test]
fn fib_table_vs_fast_doubling_vs_binet() {
    use stream_merging::fib::{binet_approx, fib_fast_doubling, FIB};
    for (k, &fk) in FIB.iter().enumerate().take(71) {
        assert_eq!(fk, fib_fast_doubling(k).0);
        assert_eq!(fk, binet_approx(k));
    }
}
