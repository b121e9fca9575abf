//! The receive-all model (§3.4): clients may receive *any* number of streams
//! simultaneously.
//!
//! Stream lengths shrink to `ω(x) = z(x) − p(x)` (Lemma 17) and the optimal
//! merge cost obeys a powers-of-two closed form (Eq. (20)):
//!
//! ```text
//! Mω(n) = (k+1)·n − 2^{k+1} + 1    for 2^k ≤ n ≤ 2^{k+1},
//! ```
//!
//! achieved by balanced binary splits (`h = ⌊n/2⌋` or `⌈n/2⌉`). The
//! surprising punchline (Theorems 19/20): receive-all saves only a factor
//! `log_φ 2 ≈ 1.44` over receive-two.

use sm_core::{MergeForest, MergeTree};

/// `Mω(n)` by the closed form of Eq. (20). `Mω(0) = Mω(1) = 0`.
pub fn merge_cost(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let k = 63 - n.leading_zeros() as u64; // floor(log2 n)
    (k + 1) * n - (1u64 << (k + 1)) + 1
}

/// `Mω(1..=n)` by the DP recurrence (Eq. (19)):
/// `Mω(n) = min_h {Mω(h) + Mω(n−h)} + n − 1` — the `O(n²)` baseline.
pub fn merge_cost_table_dp(n: usize) -> Vec<u64> {
    let mut m = vec![0u64; n + 1];
    for i in 2..=n {
        m[i] = (1..i)
            .map(|h| m[h] + m[i - h])
            .min()
            .expect("i >= 2 has a split")
            + (i - 1) as u64;
    }
    m
}

/// The optimal last-merge splits in the receive-all model.
///
/// The paper states the split is optimal "if and only if `h = ⌊n/2⌋` or
/// `⌈n/2⌉`"; the *if* direction (all their induction needs) holds, but the
/// *only-if* does not — e.g. `n = 6` admits the optimal splits `{2, 3, 4}`
/// since `Mω(2)+Mω(4) = Mω(3)+Mω(3) = 6`. Tests pin down both facts.
pub fn optimal_splits_dp(n: usize) -> Vec<usize> {
    assert!(n >= 2);
    let m = merge_cost_table_dp(n);
    let best = m[n];
    (1..n)
        .filter(|&h| m[h] + m[n - h] + (n - 1) as u64 == best)
        .collect()
}

/// An optimal receive-all merge tree: balanced binary splits at `⌈n/2⌉`
/// (taking the larger split mirrors `r(i) = max I(i)` in the receive-two
/// builder).
pub fn optimal_merge_tree(n: usize) -> MergeTree {
    assert!(n >= 1);
    let mut parents: Vec<Option<usize>> = vec![None; n];
    fill(&mut parents, 0, n);
    MergeTree::from_parents(&parents).expect("balanced construction is valid")
}

fn fill(parents: &mut [Option<usize>], start: usize, n: usize) {
    if n <= 1 {
        return;
    }
    let split = n.div_ceil(2);
    fill(parents, start, split);
    fill(parents, start + split, n - split);
    parents[start + split] = Some(start);
}

/// `Fω(L, n, s)` (Eq. (22)): `s·L + r·Mω(p+1) + (s−r)·Mω(p)`.
///
/// # Panics
/// Panics unless `1 ≤ s ≤ n`, and if the cost overflows a `u64`.
pub fn full_cost_given_s(media_len: u64, n: u64, s: u64) -> u64 {
    assert!(s >= 1 && s <= n);
    let p = n / s;
    let r = n - p * s;
    s.checked_mul(media_len)
        .and_then(|full| full.checked_add(r.checked_mul(merge_cost(p + 1))?))
        .and_then(|cost| cost.checked_add((s - r).checked_mul(merge_cost(p))?))
        .unwrap_or_else(|| panic!("Fω(L, n, s) overflows u64 (L = {media_len}, n = {n}, s = {s})"))
}

/// `Fω(L, n)`: exact optimal receive-all full cost.
///
/// Within a run of constant `p = ⌊n/s⌋` the cost is linear in `s`, so the
/// minimum over each run is at an endpoint; enumerating the `O(√n)` distinct
/// runs gives the exact optimum quickly (no Theorem-12 analogue is stated in
/// the paper for this model).
pub fn optimal_full_cost(media_len: u64, n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let s0 = n.div_ceil(media_len);
    let mut best = u64::MAX;
    let mut s = s0.max(1);
    while s <= n {
        let p = n / s;
        // Largest s' with ⌊n/s'⌋ == p.
        let run_end = (n / p).min(n);
        for cand in [s, run_end] {
            if cand >= s0 && cand <= n && feasible(media_len, n, cand) {
                best = best.min(full_cost_given_s(media_len, n, cand));
            }
        }
        s = run_end + 1;
    }
    best
}

fn feasible(media_len: u64, n: u64, s: u64) -> bool {
    let p = n / s;
    let r = n - p * s;
    let max_size = if r > 0 { p + 1 } else { p };
    max_size <= media_len
}

/// Builds an optimal receive-all forest: balanced sizes, balanced trees.
pub fn optimal_forest(media_len: u64, n: usize) -> (MergeForest, u64) {
    assert!(n >= 1);
    let s0 = (n as u64).div_ceil(media_len);
    // Recover an optimal s by the same run enumeration as optimal_full_cost.
    let best_cost = optimal_full_cost(media_len, n as u64);
    let mut s_opt = None;
    let mut s = s0.max(1);
    while s <= n as u64 {
        let p = n as u64 / s;
        let run_end = (n as u64 / p).min(n as u64);
        for cand in [s, run_end] {
            if cand >= s0
                && feasible(media_len, n as u64, cand)
                && full_cost_given_s(media_len, n as u64, cand) == best_cost
            {
                s_opt = Some(cand);
            }
        }
        if s_opt.is_some() {
            break;
        }
        s = run_end + 1;
    }
    let s = s_opt.expect("optimal s exists");
    let p = n as u64 / s;
    let r = n as u64 - p * s;
    let mut trees = Vec::with_capacity(s as usize);
    for _ in 0..r {
        trees.push(optimal_merge_tree((p + 1) as usize));
    }
    for _ in 0..(s - r) {
        trees.push(optimal_merge_tree(p as usize));
    }
    (MergeForest::from_trees(trees).expect("s >= 1"), best_cost)
}

/// The merge-cost ratio `M(n)/Mω(n)` of Theorem 19 (→ `log_φ 2 ≈ 1.44`).
pub fn merge_cost_ratio(n: u64) -> f64 {
    crate::closed_form::merge_cost(n) as f64 / merge_cost(n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, receive_all_merge_cost};

    #[test]
    #[should_panic(expected = "Fω(L, n, s) overflows u64")]
    fn full_cost_given_s_panics_instead_of_wrapping() {
        // s·L = 2·(2⁶³) wraps to 0 in unchecked release arithmetic.
        full_cost_given_s(1 << 63, 2, 2);
    }

    #[test]
    fn paper_table_of_momega() {
        // §3.4: n = 1..16 -> 0 1 3 5 8 11 14 17 21 25 29 33 37 41 45 49.
        let expect = [0u64, 1, 3, 5, 8, 11, 14, 17, 21, 25, 29, 33, 37, 41, 45, 49];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(merge_cost(i as u64 + 1), e, "Mω({})", i + 1);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index parallels the math
    fn closed_form_matches_dp() {
        let dp = merge_cost_table_dp(400);
        for n in 1..=400usize {
            assert_eq!(merge_cost(n as u64), dp[n], "Mω({n})");
        }
    }

    #[test]
    fn redundancy_at_powers_of_two() {
        // At n = 2^k both bracket choices agree.
        for k in 1..30u64 {
            let n = 1u64 << k;
            let a = (k + 1) * n - (1 << (k + 1)) + 1;
            let b = k * n - (1 << k) + 1;
            assert_eq!(a, b);
            assert_eq!(merge_cost(n), a);
        }
    }

    #[test]
    fn halves_are_always_optimal_splits() {
        // The "if" direction of the paper's claim: ⌊n/2⌋ and ⌈n/2⌉ always
        // achieve the optimum (this is what the balanced builder relies on).
        for n in 2..=120usize {
            let splits = optimal_splits_dp(n);
            assert!(splits.contains(&(n / 2)), "n = {n}: {splits:?}");
            assert!(splits.contains(&n.div_ceil(2)), "n = {n}: {splits:?}");
        }
    }

    #[test]
    fn paper_only_if_claim_is_an_overclaim() {
        // Documented deviation: at n = 6 the optimal split set is {2,3,4},
        // not just {3} — Mω(2)+Mω(4) = Mω(3)+Mω(3) = 6.
        assert_eq!(optimal_splits_dp(6), vec![2, 3, 4]);
    }

    #[test]
    fn balanced_tree_achieves_closed_form() {
        for n in 1..=200usize {
            let t = optimal_merge_tree(n);
            let times = consecutive_slots(n);
            assert_eq!(
                receive_all_merge_cost(&t, &times) as u64,
                merge_cost(n as u64),
                "n = {n}"
            );
            assert!(t.has_preorder_property());
        }
    }

    #[test]
    fn theorem19_ratio_converges() {
        let limit = sm_fib::golden::receive_two_over_receive_all_limit();
        let r = merge_cost_ratio(100_000_000);
        assert!((r - limit).abs() < 0.05, "ratio {r}, limit {limit}");
        // And the asymptotic envelope of Eq. (21): Mω(n) = n·log2(n) + O(n).
        let n = 1u64 << 26;
        let m = merge_cost(n) as f64;
        let nlog = n as f64 * (n as f64).log2();
        assert!((m - nlog).abs() <= 2.0 * n as f64);
    }

    #[test]
    fn full_cost_never_exceeds_receive_two() {
        for media_len in [4u64, 10, 15, 30] {
            for n in 1..=120u64 {
                let two = crate::forest::optimal_full_cost(media_len, n);
                let all = optimal_full_cost(media_len, n);
                assert!(all <= two, "L = {media_len}, n = {n}: {all} > {two}");
            }
        }
    }

    #[test]
    fn optimal_full_cost_matches_linear_scan() {
        for media_len in [2u64, 5, 13, 27] {
            for n in 1..=150u64 {
                let s0 = n.div_ceil(media_len);
                let brute = (s0.max(1)..=n)
                    .filter(|&s| feasible(media_len, n, s))
                    .map(|s| full_cost_given_s(media_len, n, s))
                    .min()
                    .unwrap();
                assert_eq!(
                    optimal_full_cost(media_len, n),
                    brute,
                    "L = {media_len}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn forest_costs_match_model() {
        for (media_len, n) in [(15u64, 8usize), (10, 64), (6, 40)] {
            let (forest, cost) = optimal_forest(media_len, n);
            let times = consecutive_slots(n);
            let model: i64 = sm_core::cost::receive_all_full_cost(&forest, &times, media_len);
            assert_eq!(model as u64, cost, "L = {media_len}, n = {n}");
        }
    }

    #[test]
    fn theorem20_full_cost_ratio() {
        // F(L,n)/Fω(L,n) approaches log_φ 2 from below as L → ∞ (with
        // n ≫ L). The Θ(n) terms make convergence O(1/log L): assert the
        // ratio climbs monotonically toward the limit and lands within 0.15
        // at L = 10⁵.
        let limit = sm_fib::golden::receive_two_over_receive_all_limit();
        let mut prev = 0.0f64;
        for media_len in [100u64, 1_000, 10_000, 100_000] {
            let n = media_len * 300;
            let two = crate::forest::optimal_full_cost(media_len, n) as f64;
            let all = optimal_full_cost(media_len, n) as f64;
            let ratio = two / all;
            assert!(
                ratio > prev,
                "L = {media_len}: ratio {ratio} not increasing"
            );
            assert!(ratio < limit + 0.01, "L = {media_len}: ratio {ratio}");
            prev = ratio;
        }
        assert!(
            (prev - limit).abs() < 0.15,
            "final ratio {prev}, limit {limit}"
        );
    }
}
