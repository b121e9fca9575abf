//! `O(n)` construction of an optimal merge tree (Theorem 7).
//!
//! The procedure: with `r(i) = max I(i)` precomputed by the linear
//! recurrence, an optimal tree for the interval `[i, j]` is the optimal tree
//! for `[i, i + r − 1]` (which contains the root) with the optimal tree for
//! `[i + r, j]` attached as an extra last child of the root, where
//! `r = r(j − i + 1)`.

use crate::closed_form::max_last_merge_table;
use sm_core::MergeTree;

/// Builds an optimal merge tree for `n` consecutive arrivals in `O(n)`.
///
/// For Fibonacci `n` this is *the* unique optimal tree (the Fibonacci merge
/// tree of Fig. 7); otherwise it is the optimal tree selecting the largest
/// optimal split at every level.
///
/// # Panics
/// Panics if `n == 0`.
pub fn optimal_merge_tree(n: usize) -> MergeTree {
    assert!(n >= 1, "a merge tree needs at least one arrival");
    let r = max_last_merge_table(n);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    fill(&mut parents, 0, n, &r);
    MergeTree::from_parents(&parents).expect("construction is structurally valid")
}

/// The unique optimal tree for `n = F_k` arrivals — the *Fibonacci merge
/// tree* (Fig. 7): its last root child splits the arrivals `F_{k−1}` /
/// `F_{k−2}`.
///
/// # Panics
/// Panics if `n` is not a Fibonacci number ≥ 1.
pub fn fibonacci_merge_tree(n: usize) -> MergeTree {
    assert!(
        sm_fib::is_fibonacci(n as u64) && n >= 1,
        "{n} is not a positive Fibonacci number"
    );
    optimal_merge_tree(n)
}

fn fill(parents: &mut [Option<usize>], start: usize, n: usize, r: &[u64]) {
    if n <= 1 {
        return;
    }
    let split = r[n] as usize;
    debug_assert!((1..n).contains(&split), "r({n}) = {split} out of range");
    fill(parents, start, split, r);
    fill(parents, start + split, n - split, r);
    parents[start + split] = Some(start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::merge_cost as m_closed;
    use crate::dp;
    use sm_core::{consecutive_slots, merge_cost, validate_tree, ValidationOptions};

    #[test]
    fn costs_match_closed_form_up_to_400() {
        for n in 1..=400usize {
            let t = optimal_merge_tree(n);
            assert_eq!(t.len(), n);
            let times = consecutive_slots(n);
            assert_eq!(merge_cost(&t, &times) as u64, m_closed(n as u64), "n = {n}");
        }
    }

    #[test]
    fn trees_match_dp_construction() {
        // Both constructions take the max optimal split, so they agree
        // node for node.
        for n in 1..=80usize {
            let fast = optimal_merge_tree(n);
            let slow = dp::optimal_tree_dp(n);
            assert_eq!(fast, slow, "n = {n}");
        }
    }

    #[test]
    fn preorder_property_always_holds() {
        for n in 1..=200usize {
            assert!(optimal_merge_tree(n).has_preorder_property(), "n = {n}");
        }
    }

    #[test]
    fn fig7_fibonacci_trees() {
        assert_eq!(fibonacci_merge_tree(3).to_sexpr(), "(0 (1) (2))");
        assert_eq!(fibonacci_merge_tree(5).to_sexpr(), "(0 (1) (2) (3 (4)))");
        assert_eq!(
            fibonacci_merge_tree(8).to_sexpr(),
            "(0 (1) (2) (3 (4)) (5 (6) (7)))"
        );
        // Costs from the figure caption: 3, 9, 21, 46.
        for (n, c) in [(3usize, 3u64), (5, 9), (8, 21), (13, 46)] {
            let t = fibonacci_merge_tree(n);
            let times = consecutive_slots(n);
            assert_eq!(merge_cost(&t, &times) as u64, c, "n = {n}");
        }
    }

    #[test]
    fn fibonacci_tree_recursive_structure() {
        // The right-most subtree of the F_k tree is the F_{k−2} tree; the
        // rest is the F_{k−1} tree (paper, after Fig. 7).
        let t13 = fibonacci_merge_tree(13);
        let last_child = t13.children(0).last().unwrap();
        assert_eq!(last_child, 8); // split at F_6 = 8
        let t8 = fibonacci_merge_tree(8);
        // Nodes 0..8 of t13 form t8 (same parents).
        for i in 0..8 {
            assert_eq!(t13.parent(i), t8.parent(i), "node {i}");
        }
    }

    #[test]
    #[should_panic]
    fn fibonacci_tree_rejects_non_fibonacci() {
        let _ = fibonacci_merge_tree(6);
    }

    #[test]
    fn trees_are_feasible_when_l_large_enough() {
        // A non-root length is at most 2(n−1)−1, so L = 2n always validates.
        // (L = n does NOT suffice for a single tree — e.g. ℓ(F) = 9 > 8 in
        // Fig. 3 — which is exactly why Theorem 12 uses trees of ~F_h < L
        // arrivals; forest::tests checks that tighter property.)
        for n in 1..=100usize {
            let t = optimal_merge_tree(n);
            let times = consecutive_slots(n);
            validate_tree(&t, &times, 2 * n as u64, ValidationOptions::default())
                .unwrap_or_else(|e| panic!("n = {n}: {e}"));
        }
    }

    #[test]
    fn large_tree_builds_quickly_and_costs_right() {
        let n = 1_000_000usize;
        let t = optimal_merge_tree(n);
        let times = consecutive_slots(n);
        assert_eq!(merge_cost(&t, &times) as u64, m_closed(n as u64));
    }
}
