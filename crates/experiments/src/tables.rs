//! The paper's in-text tables: `M(n)` (§3.1), `Mω(n)` (§3.4), the optimal
//! trees of Figs. 6/7, and the worked numeric examples of §2/§3.2.

use sm_core::{consecutive_slots, merge_cost as model_merge_cost};
use sm_offline::dp;
use sm_offline::receive_all;
use sm_offline::tree_builder::{fibonacci_merge_tree, optimal_merge_tree};

/// `M(n)` for `1..=max_n`, closed form + DP (they must agree).
pub fn mn_table(max_n: usize) -> Vec<(u64, u64, u64)> {
    let dp_table = dp::merge_cost_table(max_n);
    (1..=max_n)
        .map(|n| (n as u64, sm_offline::merge_cost(n as u64), dp_table[n]))
        .collect()
}

/// The paper's §3.1 values for `n = 1..=16`.
pub const PAPER_MN: [u64; 16] = [0, 1, 3, 6, 9, 13, 17, 21, 26, 31, 36, 41, 46, 52, 58, 64];

/// `Mω(n)` for `1..=max_n`, closed form + DP.
pub fn momega_table(max_n: usize) -> Vec<(u64, u64, u64)> {
    let dp_table = receive_all::merge_cost_table_dp(max_n);
    (1..=max_n)
        .map(|n| (n as u64, receive_all::merge_cost(n as u64), dp_table[n]))
        .collect()
}

/// The paper's §3.4 values for `n = 1..=16`.
pub const PAPER_MOMEGA: [u64; 16] = [0, 1, 3, 5, 8, 11, 14, 17, 21, 25, 29, 33, 37, 41, 45, 49];

/// The Fibonacci merge trees of Fig. 7 with their merge costs.
pub fn fig7_trees() -> Vec<(usize, String, u64)> {
    [3usize, 5, 8, 13]
        .iter()
        .map(|&n| {
            let t = fibonacci_merge_tree(n);
            let cost = model_merge_cost(&t, &consecutive_slots(n)) as u64;
            (n, t.to_sexpr(), cost)
        })
        .collect()
}

/// The two optimal trees of Fig. 6 (n = 4, both cost 6): the DP's interval
/// `I(4) = [2, 3]` generates one tree per split choice.
pub fn fig6_trees() -> Vec<(String, u64)> {
    let times = consecutive_slots(4);
    // Split at h = 2: T' over {0,1}, T'' over {2,3}.
    let a = sm_core::MergeTree::from_parents(&[None, Some(0), Some(0), Some(2)]).unwrap();
    // Split at h = 3: T' over {0,1,2} (star), T'' = {3}.
    let b = sm_core::MergeTree::from_parents(&[None, Some(0), Some(0), Some(0)]).unwrap();
    vec![a, b]
        .into_iter()
        .map(|t| {
            let c = model_merge_cost(&t, &times) as u64;
            (t.to_sexpr(), c)
        })
        .collect()
}

/// Worked numeric examples from the text, as `(label, got, expected)`.
pub fn text_examples() -> Vec<(&'static str, u64, u64)> {
    use sm_offline::forest::{full_cost_given_s, optimal_full_cost};
    use sm_offline::merge_cost;
    vec![
        ("Fcost(L=15, n=8)", optimal_full_cost(15, 8), 36),
        ("Fcost(L=15, n=14)", optimal_full_cost(15, 14), 64),
        ("F(4,16,s=4)", full_cost_given_s(4, 16, 4), 40),
        ("F(4,16,s=5)", full_cost_given_s(4, 16, 5), 38),
        ("F(4,16,s=6)", full_cost_given_s(4, 16, 6), 38),
        ("M(8) (Fig. 4)", merge_cost(8), 21),
        ("Mcost left subtree of Fig. 4", merge_cost(5), 9),
        ("Mcost right subtree of Fig. 4", merge_cost(3), 3),
    ]
}

/// The n = 8 optimal tree (Fig. 4) as an s-expression.
pub fn fig4_tree_sexpr() -> String {
    optimal_merge_tree(8).to_sexpr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mn_matches_paper() {
        for (i, (n, closed, dp)) in mn_table(16).into_iter().enumerate() {
            assert_eq!(n, i as u64 + 1);
            assert_eq!(closed, PAPER_MN[i], "M({n})");
            assert_eq!(dp, PAPER_MN[i], "M({n}) via DP");
        }
    }

    #[test]
    fn momega_matches_paper() {
        for (i, (n, closed, dp)) in momega_table(16).into_iter().enumerate() {
            assert_eq!(closed, PAPER_MOMEGA[i], "Mω({n})");
            assert_eq!(dp, PAPER_MOMEGA[i], "Mω({n}) via DP");
        }
    }

    #[test]
    fn fig7_costs() {
        let trees = fig7_trees();
        let expected = [(3usize, 3u64), (5, 9), (8, 21), (13, 46)];
        for ((n, _, cost), (en, ecost)) in trees.iter().zip(expected.iter()) {
            assert_eq!(n, en);
            assert_eq!(cost, ecost);
        }
    }

    #[test]
    fn fig6_both_trees_cost_6() {
        let trees = fig6_trees();
        assert_eq!(trees.len(), 2);
        for (sexpr, cost) in &trees {
            assert_eq!(*cost, 6, "{sexpr}");
        }
        assert_ne!(trees[0].0, trees[1].0);
    }

    #[test]
    fn all_text_examples_hold() {
        for (label, got, expected) in text_examples() {
            assert_eq!(got, expected, "{label}");
        }
    }

    #[test]
    fn fig4_shape() {
        assert_eq!(fig4_tree_sexpr(), "(0 (1) (2) (3 (4)) (5 (6) (7)))");
    }
}
