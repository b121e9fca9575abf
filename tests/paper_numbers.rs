//! E12: every concrete number stated in the paper's text, checked end to
//! end through the public API (the facade crate).

use stream_merging::core::{consecutive_slots, full_cost, merge_cost};
use stream_merging::offline::closed_form;
use stream_merging::offline::forest::{full_cost_given_s, optimal_forest, optimal_full_cost};
use stream_merging::offline::receive_all;
use stream_merging::offline::tree_builder::optimal_merge_tree;

#[test]
fn section2_l15_n8_example() {
    // "for L = 15 and n = 8 ... the full cost is Fcost(F) = 1·L + Mcost(T)
    //  = 15 + 21 = 36. This turns out to be the optimal solution."
    let plan = optimal_forest(15, 8);
    assert_eq!(plan.s, 1);
    assert_eq!(plan.cost, 36);
    let times = consecutive_slots(8);
    assert_eq!(full_cost(&plan.forest, &times, 15), 36);
}

#[test]
fn section2_l15_n14_example() {
    // "if we keep L = 15 but choose n = 14, then the optimal number of full
    //  streams is s = 2, and the full cost is 30 + 17 + 17 = 64."
    let plan = optimal_forest(15, 14);
    assert_eq!(plan.s, 2);
    assert_eq!(plan.cost, 64);
    assert_eq!(plan.forest.sizes(), vec![7, 7]);
}

#[test]
fn section31_mn_sequence() {
    let expect = [0u64, 1, 3, 6, 9, 13, 17, 21, 26, 31, 36, 41, 46, 52, 58, 64];
    for (i, &m) in expect.iter().enumerate() {
        assert_eq!(closed_form::merge_cost(i as u64 + 1), m, "M({})", i + 1);
    }
}

#[test]
fn section31_fig7_unique_trees() {
    // "Four optimal trees for n = 3, 5, 8, 13. The merge costs of these
    //  trees are M(n) = 3, 9, 21, 46, respectively."
    for (n, want) in [(3usize, 3i64), (5, 9), (8, 21), (13, 46)] {
        let t = optimal_merge_tree(n);
        assert_eq!(merge_cost(&t, &consecutive_slots(n)), want, "n = {n}");
    }
}

#[test]
fn section32_theorem12_worked_example() {
    // "assume L = 4 which implies that h = 4 and F_h = 3. When n = 16 then
    //  s0 = 4 and s1 = 5. It follows that F(L,n,s0) = 40, F(L,n,s1) = 38,
    //  and F(L,n,s1+1) = 38."
    assert_eq!(stream_merging::fib::theorem12_h(4), 4);
    assert_eq!(stream_merging::fib::fib(4), 3);
    assert_eq!(full_cost_given_s(4, 16, 4), 40);
    assert_eq!(full_cost_given_s(4, 16, 5), 38);
    assert_eq!(full_cost_given_s(4, 16, 6), 38);
    assert_eq!(optimal_full_cost(4, 16), 38);
}

#[test]
fn section34_momega_sequence() {
    let expect = [0u64, 1, 3, 5, 8, 11, 14, 17, 21, 25, 29, 33, 37, 41, 45, 49];
    for (i, &m) in expect.iter().enumerate() {
        assert_eq!(receive_all::merge_cost(i as u64 + 1), m, "Mω({})", i + 1);
    }
}

#[test]
fn section2_stream_lengths_of_fig3() {
    // "the length of node H is ℓ(H) = H − p(H) = 2 and the length of node F
    //  is ℓ(F) = 2z(F) − F − p(F) = 9."
    let t = optimal_merge_tree(8);
    let lens = stream_merging::core::lengths(&t, &consecutive_slots(8));
    assert_eq!(lens[7], 2); // H
    assert_eq!(lens[5], 9); // F
}

#[test]
fn section2_lemma2_decomposition_numbers() {
    // "the merge cost of the left subtree is Mcost(T') = 9, the cost of the
    //  right subtree is Mcost(T'') = 3, and the length of F is 9. Therefore,
    //  the merge cost for the tree is 21."
    assert_eq!(closed_form::merge_cost(5), 9);
    assert_eq!(closed_form::merge_cost(3), 3);
    assert_eq!(closed_form::merge_cost(8), 9 + 3 + 9);
}

#[test]
fn intro_l8_units_example() {
    // "a guaranteed delay of 15 minutes to watch a 2 hour movie implies that
    //  the movie is L = 8 units long."
    let two_hours_minutes = 120.0f64;
    let delay_minutes = 15.0f64;
    assert_eq!((two_hours_minutes / delay_minutes) as u64, 8);
    // And the optimal schedule for one delay-period of arrivals exists:
    let plan = optimal_forest(8, 8);
    assert!(plan.cost > 0);
}

#[test]
fn theorem19_limit_constant() {
    // log_φ 2 ≈ 1.44 (the "at most 1.44 times" of §1.1).
    let limit = stream_merging::fib::golden::receive_two_over_receive_all_limit();
    assert!((limit - 1.44).abs() < 0.001);
}
