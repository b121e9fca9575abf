//! The paper's asymptotic theorems as direct numeric checks across decades
//! of `n` — the workspace-level counterpart of the per-crate bounds tests.

use stream_merging::fib::{fib, log_phi, PHI, SQRT5};
use stream_merging::offline::closed_form;
use stream_merging::offline::receive_all;

/// Theorem 8's explicit sandwich (Eqs. 9/10):
/// `(log_φ n − 1)·n − φ²·n + 2 ≤ M(n) ≤ (log_φ n + 1)·n − φ·n + 2`.
#[test]
fn theorem8_sandwich_holds_across_decades() {
    for exp in 1..=9u32 {
        let n = 10u64.pow(exp);
        let m = closed_form::merge_cost(n) as f64;
        let nf = n as f64;
        let upper = (log_phi(nf) + 1.0) * nf - PHI * nf + 2.0;
        let lower = (log_phi(nf) - 1.0) * nf - PHI * PHI * nf + 2.0;
        assert!(m <= upper + 1.0, "n = {n}: M = {m} > upper {upper}");
        assert!(m >= lower - 1.0, "n = {n}: M = {m} < lower {lower}");
    }
}

/// `M(n)/n − log_φ n` stays within the `Θ(1)` corridor and the normalized
/// cost is monotone in the sense Theorem 8 implies.
#[test]
fn theorem8_normalized_cost_corridor() {
    for exp in 2..=9u32 {
        let n = 10u64.pow(exp);
        let excess = closed_form::merge_cost(n) as f64 / n as f64 - log_phi(n as f64);
        assert!(
            (-(PHI * PHI + 1.0)..=1.0).contains(&excess),
            "n = {n}: excess {excess}"
        );
    }
}

/// Eq. 21: `Mω(n) = n·log₂ n + O(n)` — check the explicit closed form
/// `(k+1)n − 2^{k+1} + 1` against the log₂ law.
#[test]
fn receive_all_log2_law() {
    for exp in 2..=9u32 {
        let n = 10u64.pow(exp);
        let m = receive_all::merge_cost(n) as f64;
        let nf = n as f64;
        let excess = m / nf - nf.log2();
        // (k+1) − log2 n ∈ [1 − 2^{k+1}/n/… ]: the O(n) constant is small.
        assert!((-2.0..=2.0).contains(&excess), "n = {n}: excess {excess}");
    }
}

/// Binet: `F_k = round(φ^k / √5)` for every index with `F_k` in `u64` range.
///
/// The library evaluates the power in compensated (double-double) arithmetic,
/// so the identity holds all the way to `F_93`. A direct `f64` evaluation is
/// only a sound oracle while `powi`'s accumulated rounding error stays below
/// the distance from `φ^k/√5` to the nearest integer, which fails from
/// `k ≈ 71`; the plain-f64 leg of the check therefore stops at 70.
#[test]
fn binet_rounding_identity() {
    use stream_merging::fib::{binet_approx, MAX_FIB_INDEX_U64};
    for k in 0..=MAX_FIB_INDEX_U64 {
        assert_eq!(fib(k), binet_approx(k), "k = {k}");
    }
    for k in 1..=70u32 {
        let exact = fib(k as usize);
        let approx = (PHI.powi(k as i32) / SQRT5).round();
        assert_eq!(exact as f64, approx, "k = {k}");
    }
}

/// Theorem 19's limit from below: the M/Mω ratio increases towards
/// `log_φ 2 ≈ 1.4404` and never exceeds it (at Fibonacci-friendly points).
#[test]
fn theorem19_ratio_monotone_to_limit() {
    let limit = 2.0f64.ln() / PHI.ln();
    let mut last = 0.0f64;
    for exp in 2..=9u32 {
        let n = 10u64.pow(exp);
        let ratio = closed_form::merge_cost(n) as f64 / receive_all::merge_cost(n) as f64;
        assert!(ratio <= limit + 0.01, "n = {n}: ratio {ratio}");
        assert!(
            ratio + 0.02 >= last,
            "n = {n}: ratio dropped {last} -> {ratio}"
        );
        last = ratio;
    }
    assert!(last > 1.40, "ratio should approach 1.4404, got {last}");
}

/// Theorem 13 at scale: `F(L,n)/n → log_φ L + Θ(1)` for n ≫ L.
#[test]
fn theorem13_full_cost_rate() {
    use stream_merging::offline::forest::optimal_full_cost;
    for l in [100u64, 1000, 10_000] {
        let n = 200 * l;
        let rate = optimal_full_cost(l, n) as f64 / n as f64;
        let target = log_phi(l as f64);
        assert!(
            (rate - target).abs() < 3.0,
            "L = {l}: rate {rate} vs log_φ L {target}"
        );
    }
}
