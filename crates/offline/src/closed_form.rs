//! Closed forms of Theorem 3: the Fibonacci merge-cost formula and the
//! last-merge intervals `I(n)`.
//!
//! With `n = F_k + m` (canonical `k`: the largest with `F_k ≤ n`, so
//! `0 ≤ m < F_{k−1}`):
//!
//! ```text
//! M(n) = (k−1)·n − F_{k+2} + 2
//!
//!          ⎧ [F_{k−1},     F_{k−1} + m]   if 0       ≤ m ≤ F_{k−3}
//! I(n) =   ⎨ [F_{k−2} + m, F_{k−1} + m]   if F_{k−3} ≤ m ≤ F_{k−2}
//!          ⎩ [F_{k−2} + m, F_k        ]   if F_{k−2} ≤ m ≤ F_{k−1}
//! ```
//!
//! The interval cases overlap at their boundaries (the paper's "redundancy");
//! any representation yields the same interval, which the tests confirm
//! against the `O(n²)` DP.

use sm_fib::{decompose, fib, largest_index_le};

/// `M(n)`: the optimal merge cost for `n` consecutive arrivals
/// (Eq. (6)). `M(0) = M(1) = 0`.
///
/// # Panics
/// Panics if `n ≥ F_92` (the formula needs `F_{k+2}` beyond `F_93`).
pub fn merge_cost(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    let k = largest_index_le(n);
    let val = (k as i128 - 1) * n as i128 - fib(k + 2) as i128 + 2;
    debug_assert!(val >= 0, "M({n}) must be nonnegative");
    val as u64
}

/// The marginal cost `M(n+1) − M(n)` (Observation 5): equals `k − 1`
/// for `F_k ≤ n < F_{k+1}`.
pub fn merge_cost_increment(n: u64) -> u64 {
    assert!(n >= 1);
    // The canonical (largest) k satisfies F_k <= n < F_{k+1}, exactly
    // the bracket Observation 5 needs.
    (largest_index_le(n) - 1) as u64
}

/// `I(n)`: the inclusive interval `[lo, hi]` of arrivals that can merge
/// last into the root of an optimal merge tree (Theorem 3).
///
/// # Panics
/// Panics if `n < 2`.
pub fn last_merge_interval(n: u64) -> (u64, u64) {
    assert!(n >= 2, "I(n) is defined for n >= 2");
    let (k, m) = decompose(n);
    debug_assert!(k >= 3);
    if m <= fib(k - 3) {
        (fib(k - 1), fib(k - 1) + m)
    } else if m <= fib(k - 2) {
        (fib(k - 2) + m, fib(k - 1) + m)
    } else {
        (fib(k - 2) + m, fib(k))
    }
}

/// `r(n) = max I(n)`: the split used by the `O(n)` tree construction
/// (Theorem 7). `r(1) = 0` by convention.
pub fn max_last_merge(n: u64) -> u64 {
    if n <= 1 {
        return 0;
    }
    last_merge_interval(n).1
}

/// The table `r(1), …, r(n)` via the paper's O(n) recurrence
/// (proof of Theorem 7):
///
/// ```text
/// r(1) = 0, r(2) = 1,
/// r(i) = r(i−1) + 1   if F_k < i ≤ F_k + F_{k−2}
///      = r(i−1)       if F_k + F_{k−2} < i ≤ F_{k+1}
/// ```
pub fn max_last_merge_table(n: usize) -> Vec<u64> {
    let mut r = vec![0u64; n + 1];
    if n >= 2 {
        r[2] = 1;
    }
    // Maintain k with F_k < i <= F_{k+1}.
    let mut k = 3usize; // for i = 3: F_3 = 2 < 3 <= F_4 = 3
    for i in 3..=n {
        while (i as u64) > fib(k + 1) {
            k += 1;
        }
        let bump = (i as u64) <= fib(k) + fib(k - 2);
        r[i] = r[i - 1] + u64::from(bump);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp;

    #[test]
    fn matches_paper_table() {
        let expect = [0u64, 1, 3, 6, 9, 13, 17, 21, 26, 31, 36, 41, 46, 52, 58, 64];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(merge_cost(i as u64 + 1), e, "M({})", i + 1);
        }
    }

    #[test]
    fn matches_dp_up_to_500() {
        let table = dp::merge_cost_table(500);
        for n in 1..=500u64 {
            assert_eq!(merge_cost(n), table[n as usize], "M({n})");
        }
    }

    #[test]
    fn redundant_at_fibonacci_boundaries() {
        // If n = F_k then (k−1)n − F_{k+2} + 2 = (k−2)n − F_{k+1} + 2.
        for k in 3..40usize {
            let n = fib(k);
            let a = (k as i128 - 1) * n as i128 - fib(k + 2) as i128 + 2;
            let b = (k as i128 - 2) * n as i128 - fib(k + 1) as i128 + 2;
            assert_eq!(a, b, "k = {k}");
            assert_eq!(merge_cost(n) as i128, a);
        }
    }

    #[test]
    fn interval_matches_dp_up_to_300() {
        for n in 2..=300usize {
            let set = dp::last_merge_set(n);
            let (lo, hi) = last_merge_interval(n as u64);
            assert_eq!(lo, set[0] as u64, "I({n}) lo");
            assert_eq!(hi, *set.last().unwrap() as u64, "I({n}) hi");
            assert_eq!(hi - lo + 1, set.len() as u64, "I({n}) size");
        }
    }

    #[test]
    fn fig8_representative_rows() {
        // Fig. 8 shows I(n) for 2..=55; spot-check rows across all three
        // interval regimes (I1 at m small, I2 mid, I3 large) around F_9=34:
        // n=34=F_9, m=0: I = {F_8} = {21}.
        assert_eq!(last_merge_interval(34), (21, 21));
        // n=36, m=2 <= F_6=8: I1 = [21, 23].
        assert_eq!(last_merge_interval(36), (21, 23));
        // n=42=F_9+8, m=8=F_6 boundary of I1/I2: [21, 29].
        assert_eq!(last_merge_interval(42), (21, 29));
        // n=45, m=11, F_6=8 < 11 <= F_7=13: I2 = [13+11, 21+11] = [24, 32].
        assert_eq!(last_merge_interval(45), (24, 32));
        // n=50, m=16, F_7=13 < 16 <= F_8=21: I3 = [13+16, F_9] = [29, 34].
        assert_eq!(last_merge_interval(50), (29, 34));
        // n=55=F_10, m=0: {F_9} = {34}.
        assert_eq!(last_merge_interval(55), (34, 34));
    }

    #[test]
    fn unique_last_merge_exactly_at_fibonacci_n() {
        for n in 2..=1000u64 {
            let (lo, hi) = last_merge_interval(n);
            if sm_fib::is_fibonacci(n) {
                assert_eq!(lo, hi, "I({n}) should be a single point");
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index parallels the math
    fn r_table_matches_interval_maximum() {
        let r = max_last_merge_table(2000);
        assert_eq!(r[1], 0);
        for n in 2..=2000usize {
            assert_eq!(r[n], max_last_merge(n as u64), "r({n})");
        }
    }

    #[test]
    fn increments_match_observation5() {
        for n in 1..=2000u64 {
            assert_eq!(
                merge_cost(n + 1) - merge_cost(n),
                merge_cost_increment(n),
                "n = {n}"
            );
        }
    }

    #[test]
    fn increments_are_nondecreasing() {
        // Convexity-ish property behind inequality (12) of Lemma 9.
        let mut prev = 0;
        for n in 1..=5000u64 {
            let inc = merge_cost_increment(n);
            assert!(inc >= prev);
            prev = inc;
        }
    }

    #[test]
    fn large_n_agrees_with_theorem8_envelope() {
        // n·log_φ(n) − c·n ≤ M(n) ≤ n·log_φ(n) with c = φ² + 1 (Thm 8).
        let c = sm_fib::PHI * sm_fib::PHI + 1.0;
        for &n in &[100u64, 1_000, 10_000, 1_000_000, 100_000_000] {
            let m = merge_cost(n) as f64;
            let nlog = n as f64 * sm_fib::log_phi(n as f64);
            assert!(m <= nlog + 1e-6, "upper bound at n = {n}");
            assert!(m >= nlog - c * n as f64 - 1e-6, "lower bound at n = {n}");
        }
    }
}
