//! Property-based tests over the core invariants, using proptest.

use proptest::prelude::*;
use stream_merging::core::{
    consecutive_slots, merge_cost, validate_tree, MergeTree, ValidationOptions,
};
use stream_merging::offline::closed_form;
use stream_merging::offline::forest as off_forest;
use stream_merging::offline::general;
use stream_merging::offline::receive_all;
use stream_merging::offline::tree_builder::optimal_merge_tree;
use stream_merging::online::delay_guaranteed::online_full_cost;
use stream_merging::online::dyadic::{
    dyadic_forest, dyadic_total_cost, DyadicConfig, DyadicMerger,
};
use stream_merging::sim::simulate;

/// Random merge tree over n arrivals: each node picks an earlier parent.
fn arb_tree(max_n: usize) -> impl Strategy<Value = MergeTree> {
    (1..=max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        parents.prop_map(move |ps| {
            let mut v: Vec<Option<usize>> = vec![None];
            v.extend(ps.into_iter().map(Some));
            MergeTree::from_parents(&v).expect("parent < child by construction")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_tree_beats_the_closed_form(tree in arb_tree(40)) {
        let n = tree.len();
        let cost = merge_cost(&tree, &consecutive_slots(n)) as u64;
        prop_assert!(cost >= closed_form::merge_cost(n as u64),
            "tree {} costs {cost} < M({n})", tree.to_sexpr());
    }

    #[test]
    fn receive_all_cost_le_receive_two(tree in arb_tree(40)) {
        let n = tree.len();
        let times = consecutive_slots(n);
        let two = merge_cost(&tree, &times);
        let all = stream_merging::core::receive_all_merge_cost(&tree, &times);
        prop_assert!(all <= two);
    }

    #[test]
    fn optimal_tree_simulates_when_l_allows(n in 1usize..=60) {
        // Use the forest machinery (which sizes trees feasibly) rather than
        // a bare n-tree.
        let media_len = (n as u64).max(4);
        let plan = off_forest::optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        let report = simulate(&plan.forest, &times, media_len).unwrap();
        prop_assert_eq!(report.total_units as u64, plan.cost);
    }

    #[test]
    fn theorem12_equals_brute_force(media_len in 1u64..=30, n in 1u64..=100) {
        let s = off_forest::optimal_s(media_len, n);
        let fast = off_forest::full_cost_given_s(media_len, n, s);
        let (_, slow) = off_forest::brute_force_optimal_s(media_len, n);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn online_at_least_offline_at_most_bound(media_len in 7u64..=25, mult in 1u64..=20) {
        let n = media_len * media_len + 2 + mult * media_len;
        let a = online_full_cost(media_len, n);
        let f = off_forest::optimal_full_cost(media_len, n);
        prop_assert!(a >= f);
        let bound = 1.0 + 2.0 * media_len as f64 / n as f64;
        prop_assert!(a as f64 / f as f64 <= bound + 1e-12);
    }

    #[test]
    fn general_dp_matches_naive(times in proptest::collection::vec(1i64..=8, 1..=14)) {
        // Random positive gaps -> strictly increasing times.
        let mut acc = 0i64;
        let times: Vec<i64> = times.into_iter().map(|g| { acc += g; acc }).collect();
        let fast = general::optimal_tree(&times);
        let slow = general::optimal_tree_naive(&times);
        prop_assert_eq!(fast.cost, slow.cost, "times {:?}", times);
        prop_assert_eq!(merge_cost(&fast.tree, &times), fast.cost);
    }

    #[test]
    fn general_dp_on_consecutive_equals_closed_form(n in 1usize..=60) {
        let sol = general::optimal_tree(&consecutive_slots(n));
        prop_assert_eq!(sol.cost as u64, closed_form::merge_cost(n as u64));
    }

    #[test]
    fn dyadic_forest_always_valid(
        gaps in proptest::collection::vec(0.01f64..=3.0, 1..=80),
        beta_case in 0usize..3,
    ) {
        let media = 20.0f64;
        let cfg = match beta_case {
            0 => DyadicConfig::classic(),
            1 => DyadicConfig::golden_poisson(),
            _ => DyadicConfig::golden_constant_rate(20),
        };
        let mut m = DyadicMerger::new(cfg, media);
        let mut t = 0.0;
        let times: Vec<f64> = gaps
            .iter()
            .map(|g| {
                t += g;
                m.on_arrival(t);
                t
            })
            .collect();
        let forest = dyadic_forest(cfg, media, &times);
        for (range, tree) in forest.iter_with_ranges() {
            prop_assert!(tree.has_preorder_property());
            // Spans stay within the merge window.
            let slice = &times[range];
            let span = slice[tree.last_arrival()] - slice[0];
            prop_assert!(span <= cfg.beta * media + 1e-9);
        }
        prop_assert_eq!(forest.num_trees(), m.roots());
        prop_assert!(dyadic_total_cost(cfg, media, &times) >= media * m.roots() as f64 - 1e-9);
    }

    #[test]
    fn momega_closed_form_vs_dp(n in 1usize..=200) {
        let dp = receive_all::merge_cost_table_dp(n);
        prop_assert_eq!(receive_all::merge_cost(n as u64), dp[n]);
    }

    #[test]
    fn optimal_trees_validate(n in 1usize..=80) {
        let t = optimal_merge_tree(n);
        let times = consecutive_slots(n);
        // 2n always dominates every stream length.
        validate_tree(&t, &times, 2 * n as u64, ValidationOptions {
            require_preorder: true,
            buffer_bound: None,
        }).unwrap();
    }

    #[test]
    fn merge_cost_superadditive_concatenation(a in 1u64..=150, b in 1u64..=150) {
        // Splitting arrivals into two independent trees loses the cross
        // merges but avoids the connector cost; the closed form must obey
        // M(a+b) <= M(a) + M(b) + (2(a+b) - a - 2)  (Eq. (5) with h = a).
        let lhs = closed_form::merge_cost(a + b);
        let rhs = closed_form::merge_cost(a) + closed_form::merge_cost(b) + 2 * (a + b) - a - 2;
        prop_assert!(lhs <= rhs);
        // And monotonicity.
        prop_assert!(closed_form::merge_cost(a + b) >= closed_form::merge_cost(a));
    }
}
