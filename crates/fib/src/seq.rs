//! Exact Fibonacci sequences and rank queries.
//!
//! Indexing follows the paper: `F_0 = 0, F_1 = 1, F_k = F_{k−1} + F_{k−2}`.

/// Largest `k` such that `F_k` fits in a `u64` (`F_94` overflows).
pub const MAX_FIB_INDEX_U64: usize = 93;

/// Every Fibonacci number that fits in a `u64`: `FIB[k] = F_k` for
/// `k = 0 ..= 93`.
pub const FIB: [u64; MAX_FIB_INDEX_U64 + 1] = fib_table();

const fn fib_table() -> [u64; MAX_FIB_INDEX_U64 + 1] {
    let mut table = [0u64; MAX_FIB_INDEX_U64 + 1];
    table[1] = 1;
    let mut k = 2;
    while k <= MAX_FIB_INDEX_U64 {
        table[k] = table[k - 1] + table[k - 2];
        k += 1;
    }
    table
}

/// `F_k` as `u64`.
///
/// # Panics
/// Panics if `k > MAX_FIB_INDEX_U64` (the value would overflow `u64`).
#[inline]
pub fn fib(k: usize) -> u64 {
    assert!(
        k <= MAX_FIB_INDEX_U64,
        "F_{k} does not fit in u64 (max index {MAX_FIB_INDEX_U64})"
    );
    FIB[k]
}

/// `(F_k, F_{k+1})` by fast doubling in `O(log k)` multiplications.
///
/// Uses the identities `F_{2m} = F_m (2 F_{m+1} − F_m)` and
/// `F_{2m+1} = F_m² + F_{m+1}²`.
///
/// # Panics
/// Panics if `k + 1 > MAX_FIB_INDEX_U64`.
pub fn fib_fast_doubling(k: usize) -> (u64, u64) {
    assert!(
        k < MAX_FIB_INDEX_U64,
        "fast doubling computes F_{{k+1}}; need k < {MAX_FIB_INDEX_U64}"
    );
    fn go(k: usize) -> (u128, u128) {
        if k == 0 {
            return (0, 1);
        }
        let (a, b) = go(k >> 1);
        let c = a * (2 * b - a);
        let d = a * a + b * b;
        if k & 1 == 0 {
            (c, d)
        } else {
            (d, c + d)
        }
    }
    let (a, b) = go(k);
    (a as u64, b as u64)
}

/// `true` iff `n` is a Fibonacci number (0, 1, 2, 3, 5, 8, …).
pub fn is_fibonacci(n: u64) -> bool {
    FIB.binary_search(&n).is_ok()
}

/// The largest `k` with `F_k ≤ n`, for `n ≥ 1`.
///
/// Because `F_1 = F_2 = 1`, the returned index is the *larger* of the two
/// candidates at `n = 1` (i.e. 2), matching the paper's canonical choice
/// of `k` with `F_k ≤ n ≤ F_{k+1}`; the paper's formulas are redundant at
/// Fibonacci boundaries so either choice evaluates identically.
///
/// # Panics
/// Panics if `n == 0`.
#[inline]
pub fn largest_index_le(n: u64) -> usize {
    assert!(n >= 1, "largest_index_le requires n >= 1");
    // partition_point returns the first k with F_k > n; values are
    // strictly increasing from index 2 onward and F_2 = 1 <= n.
    FIB.partition_point(|&f| f <= n) - 1
}

/// The paper's canonical decomposition `n = F_k + m` with
/// `F_k ≤ n ≤ F_{k+1}` (largest such `k`) and `0 ≤ m < F_{k−1}`.
///
/// Returns `(k, m)`.
///
/// # Panics
/// Panics if `n == 0`.
#[inline]
pub fn decompose(n: u64) -> (usize, u64) {
    let k = largest_index_le(n);
    (k, n - FIB[k])
}

/// The `h` of the paper's Theorem 12: `F_{h+1} < L + 2 ≤ F_{h+2}`.
///
/// # Panics
/// Panics if `L == 0` or `L + 2` exceeds `F_93` (the largest `u64`
/// Fibonacci number, so `F_{h+2}` would not exist).
#[inline]
pub fn theorem12_h(media_len: u64) -> usize {
    assert!(media_len >= 1, "stream length must be at least 1 slot");
    let target = media_len
        .checked_add(2)
        .filter(|&t| t <= FIB[MAX_FIB_INDEX_U64])
        .unwrap_or_else(|| panic!("L + 2 exceeds F_{MAX_FIB_INDEX_U64} (L = {media_len})"));
    // The first j with F_j >= L + 2 is h + 2, since then F_{j-1} < L + 2.
    FIB.partition_point(|&f| f < target) - 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_values_match_definition() {
        let expect = [0u64, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144];
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(fib(k), e, "F_{k}");
        }
    }

    #[test]
    fn u64_bound_is_tight() {
        // F_93 fits in u64; F_94 = F_92 + F_93 does not.
        let f93 = fib(MAX_FIB_INDEX_U64);
        assert_eq!(f93, 12_200_160_415_121_876_738);
        assert!(fib(92).checked_add(f93).is_none());
    }

    #[test]
    #[should_panic(expected = "does not fit in u64")]
    fn fib_overflow_panics() {
        let _ = fib(MAX_FIB_INDEX_U64 + 1);
    }

    #[test]
    fn fast_doubling_matches_table() {
        for k in 0..MAX_FIB_INDEX_U64 {
            let (fk, fk1) = fib_fast_doubling(k);
            assert_eq!(fk, fib(k), "F_{k}");
            assert_eq!(fk1, fib(k + 1), "F_{}", k + 1);
        }
    }

    #[test]
    fn is_fibonacci_small_and_at_the_u64_edge() {
        let fibs = [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55];
        for n in 0..=60u64 {
            assert_eq!(is_fibonacci(n), fibs.contains(&n), "n = {n}");
        }
        let f93 = fib(MAX_FIB_INDEX_U64);
        assert!(is_fibonacci(f93));
        assert!(!is_fibonacci(f93 - 1));
        assert!(!is_fibonacci(f93 + 1));
        assert!(!is_fibonacci(u64::MAX));
    }

    #[test]
    fn largest_index_le_canonical() {
        assert_eq!(largest_index_le(1), 2); // F_2 = 1 (canonical larger k)
        assert_eq!(largest_index_le(2), 3);
        assert_eq!(largest_index_le(3), 4);
        assert_eq!(largest_index_le(4), 4);
        assert_eq!(largest_index_le(5), 5);
        assert_eq!(largest_index_le(12), 6);
        assert_eq!(largest_index_le(13), 7);
        assert_eq!(largest_index_le(u64::MAX), MAX_FIB_INDEX_U64);
    }

    #[test]
    fn largest_index_le_brackets_everywhere() {
        for n in 1..=10_000u64 {
            let k = largest_index_le(n);
            assert!(fib(k) <= n && n <= fib(k + 1), "n = {n}, k = {k}");
        }
    }

    #[test]
    fn decompose_invariants() {
        for n in 1..=10_000u64 {
            let (k, m) = decompose(n);
            assert_eq!(fib(k) + m, n);
            // With the largest k, the remainder is strictly below F_{k-1}.
            assert!(m < fib(k - 1).max(1), "n = {n}: m = {m}, k = {k}");
        }
    }

    #[test]
    fn theorem12_h_examples_from_paper() {
        // L = 1: F_3 = 2 < 3 <= F_4 = 3, so h = 2 and F_h = 1 (paper: s = n).
        assert_eq!(theorem12_h(1), 2);
        // L = 2: F_4 = 3 < 4 <= F_5 = 5, so h = 3, F_h = 2.
        assert_eq!(theorem12_h(2), 3);
        // L = 4: paper says h = 4 and F_h = 3.
        assert_eq!(theorem12_h(4), 4);
        // L = 15: F_7 = 13 < 17 <= F_8 = 21, so h = 6, F_h = 8.
        assert_eq!(theorem12_h(15), 6);
        // L = 100: F_11 = 89 < 102 <= F_12 = 144, so h = 10, F_h = 55.
        assert_eq!(theorem12_h(100), 10);
        // The largest admissible L: L + 2 = F_93, so h + 2 = 93.
        assert_eq!(theorem12_h(fib(MAX_FIB_INDEX_U64) - 2), 91);
    }

    #[test]
    fn theorem12_h_bracket_property() {
        for media_len in 1..=100_000u64 {
            let h = theorem12_h(media_len);
            assert!(fib(h + 1) < media_len + 2, "L = {media_len}");
            assert!(media_len + 2 <= fib(h + 2), "L = {media_len}");
        }
    }

    #[test]
    #[should_panic(expected = "L + 2 exceeds F_93")]
    fn theorem12_h_rejects_l_past_f93() {
        let _ = theorem12_h(fib(MAX_FIB_INDEX_U64) - 1);
    }

    #[test]
    #[should_panic(expected = "L + 2 exceeds F_93")]
    fn theorem12_h_rejects_wrapping_l() {
        let _ = theorem12_h(u64::MAX - 1);
    }
}
