//! Figure 8: the table of last-merge intervals `I(n)` for `2 ≤ n ≤ 55`,
//! regenerated from the Theorem-3 closed form and cross-checked against the
//! `O(n²)` DP.

use sm_fib::{decompose, fib};
use sm_offline::closed_form::last_merge_interval;
use sm_offline::dp;

/// One row of the Fig. 8 table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig8Row {
    /// Number of arrivals.
    pub n: u64,
    /// Interval lower end (inclusive).
    pub lo: u64,
    /// Interval upper end (inclusive).
    pub hi: u64,
    /// Which interval regime applied (1, 2 or 3 per Theorem 3).
    pub regime: u8,
}

/// Computes the table for `2..=max_n` (the paper shows 55).
pub fn compute(max_n: u64) -> Vec<Fig8Row> {
    (2..=max_n)
        .map(|n| {
            let (lo, hi) = last_merge_interval(n);
            let (k, m) = decompose(n);
            let regime = if m <= fib(k - 3) {
                1
            } else if m <= fib(k - 2) {
                2
            } else {
                3
            };
            Fig8Row { n, lo, hi, regime }
        })
        .collect()
}

/// Verifies every row against the brute-force DP (used by the binary to
/// print a checked table, and by tests).
pub fn verify_against_dp(rows: &[Fig8Row]) -> Result<(), String> {
    for r in rows {
        let set = dp::last_merge_set(r.n as usize);
        let lo = set[0] as u64;
        let hi = *set.last().unwrap() as u64;
        if (lo, hi) != (r.lo, r.hi) {
            return Err(format!(
                "I({}) mismatch: closed form [{}, {}], DP [{lo}, {hi}]",
                r.n, r.lo, r.hi
            ));
        }
    }
    Ok(())
}

/// Render rows in the paper's `I(n) = [lo, hi]` style.
pub fn to_rows(rows: &[Fig8Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                if r.lo == r.hi {
                    format!("{{{}}}", r.lo)
                } else {
                    format!("[{}, {}]", r.lo, r.hi)
                },
                format!("I{}", r.regime),
            ]
        })
        .collect()
}

/// Column headers matching [`to_rows`].
pub const HEADERS: [&str; 3] = ["n", "I(n)", "regime"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_table_matches_dp() {
        let rows = compute(55);
        assert_eq!(rows.len(), 54);
        verify_against_dp(&rows).unwrap();
    }

    #[test]
    fn regimes_cycle_with_fibonacci_blocks() {
        // Within a block [F_k, F_{k+1}) the regime goes 1 -> 2 -> 3.
        let rows = compute(55);
        for w in rows.windows(2) {
            if w[1].regime < w[0].regime {
                // A regime reset only happens entering a new block, i.e.
                // when n is a Fibonacci number.
                assert!(sm_fib::is_fibonacci(w[1].n), "reset at n = {}", w[1].n);
            }
        }
    }

    #[test]
    fn singleton_rows_are_exactly_the_fibonacci_ns() {
        for r in compute(200) {
            assert_eq!(r.lo == r.hi, sm_fib::is_fibonacci(r.n), "n = {}", r.n);
        }
    }
}
