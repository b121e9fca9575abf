//! Ratio tables behind Theorems 14, 19, 20 and 22 — the paper's analytic
//! comparisons rendered as data.

use sm_core::parallel_map;
use sm_offline::bounds;
use sm_offline::receive_all;
use sm_online::analysis;

/// Theorem 19: `M(n)/Mω(n)` vs `n`, with the `log_φ 2` limit.
#[derive(Debug, Clone, Copy)]
pub struct ModelRatioRow {
    /// Number of arrivals.
    pub n: u64,
    /// Receive-two optimal merge cost.
    pub m_two: u64,
    /// Receive-all optimal merge cost.
    pub m_all: u64,
    /// The ratio.
    pub ratio: f64,
}

/// Computes Theorem 19 rows over a geometric `n` grid.
pub fn theorem19_rows() -> Vec<ModelRatioRow> {
    let mut n = 16u64;
    let mut rows = Vec::new();
    while n <= 1u64 << 34 {
        let m_two = sm_offline::merge_cost(n);
        let m_all = receive_all::merge_cost(n);
        rows.push(ModelRatioRow {
            n,
            m_two,
            m_all,
            ratio: m_two as f64 / m_all as f64,
        });
        n *= 16;
    }
    rows
}

/// Theorem 20: `F(L,n)/Fω(L,n)` for growing `L` (with `n = 300·L`).
pub fn theorem20_rows() -> Vec<(u64, f64)> {
    let ls = [10u64, 100, 1_000, 10_000, 100_000];
    parallel_map(&ls, |&media_len| {
        let n = media_len * 300;
        let two = sm_offline::optimal_full_cost(media_len, n) as f64;
        let all = receive_all::optimal_full_cost(media_len, n) as f64;
        (media_len, two / all)
    })
}

/// Theorem 14: merging's advantage over plain batching, measured vs the
/// predicted `Θ(L/log L)`.
pub fn theorem14_rows() -> Vec<(u64, f64, f64)> {
    let ls = [10u64, 30, 100, 300, 1_000, 3_000, 10_000];
    parallel_map(&ls, |&media_len| {
        let n = media_len * 100;
        (
            media_len,
            bounds::batching_gain(media_len, n),
            bounds::batching_gain_predicted(media_len),
        )
    })
}

/// Theorem 22: competitive ratio against its `1 + 2L/n` bound.
pub fn theorem22_rows(media_len: u64) -> Vec<(u64, f64, f64)> {
    let mut ns = Vec::new();
    let mut n = media_len * media_len + 3;
    for _ in 0..8 {
        ns.push(n);
        n *= 2;
    }
    parallel_map(&ns, |&n| {
        (
            n,
            analysis::competitive_ratio(media_len, n),
            analysis::theorem22_bound(media_len, n),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem19_ratio_monotone_toward_limit() {
        let rows = theorem19_rows();
        let limit = sm_fib::golden::receive_two_over_receive_all_limit();
        let last = rows.last().unwrap();
        assert!((last.ratio - limit).abs() < 0.03, "{}", last.ratio);
    }

    #[test]
    fn theorem20_increasing_in_l() {
        let rows = theorem20_rows();
        for w in rows.windows(2) {
            assert!(w[1].1 > w[0].1, "{:?}", rows);
        }
    }

    #[test]
    fn theorem14_gain_grows() {
        let rows = theorem14_rows();
        for w in rows.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // The measured/predicted quotient stays bounded (constants hidden
        // in Θ).
        for (l, gain, pred) in rows {
            let q = gain / pred;
            assert!((0.2..5.0).contains(&q), "L = {l}: {q}");
        }
    }

    #[test]
    fn theorem22_bound_always_respected() {
        for (n, ratio, bound) in theorem22_rows(15) {
            assert!(ratio <= bound + 1e-12, "n = {n}");
        }
    }
}
