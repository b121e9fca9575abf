//! Batching baselines.
//!
//! * **Plain batching** (the classical solution, §1): one *full* stream at
//!   the end of every delay window that saw at least one arrival. Delay is
//!   guaranteed, nothing merges; cost = `L` per non-empty window. Theorem 14
//!   says stream merging beats this by `Θ(L / log L)`.
//! * **Batched dyadic** (§4.2's middle contender): arrivals are batched to
//!   their window end, and the resulting batch times are stream-merged with
//!   the (α,β)-dyadic algorithm. Unlike the Delay Guaranteed algorithm it
//!   starts streams only for non-empty windows; unlike plain batching those
//!   streams merge.

use crate::dyadic::{dyadic_total_cost, DyadicConfig};

/// Quantizes raw arrival times to their guaranteed-delay window ends and
/// deduplicates: window `k` covers `((k−1)·delay, k·delay]` and is served at
/// time `k·delay`.
///
/// Times must be fed in nondecreasing order.
pub fn batch_arrivals(arrivals: &[f64], delay: f64) -> Vec<f64> {
    assert!(delay > 0.0);
    let mut out: Vec<f64> = Vec::new();
    for &t in arrivals {
        let k = (t / delay).ceil().max(0.0);
        // Arrivals exactly at a window boundary are served by that window.
        let slot_end = k * delay;
        match out.last() {
            Some(&last) if (slot_end - last).abs() < delay * 1e-9 => {}
            Some(&last) => {
                assert!(slot_end > last, "arrivals must be fed in order");
                out.push(slot_end);
            }
            None => out.push(slot_end),
        }
    }
    out
}

/// Plain batching: total bandwidth = `L` × number of non-empty windows.
pub fn plain_batching_cost(arrivals: &[f64], delay: f64, media_len: f64) -> f64 {
    batch_arrivals(arrivals, delay).len() as f64 * media_len
}

/// Batched dyadic: dyadic stream merging over the batch times. Returns
/// total bandwidth in the same time units as `media_len`.
pub fn batched_dyadic_cost(cfg: DyadicConfig, arrivals: &[f64], delay: f64, media_len: f64) -> f64 {
    dyadic_total_cost(cfg, media_len, &batch_arrivals(arrivals, delay))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_quantizes_and_dedupes() {
        // delay = 1: arrivals 0.2, 0.9 -> window end 1; 1.5 -> 2; 3.0 -> 3.
        let batches = batch_arrivals(&[0.2, 0.9, 1.5, 3.0], 1.0);
        assert_eq!(batches, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn boundary_arrival_belongs_to_its_window() {
        // An arrival exactly at t = 2.0 is served at 2.0, not 3.0.
        let batches = batch_arrivals(&[2.0], 1.0);
        assert_eq!(batches, vec![2.0]);
    }

    #[test]
    fn empty_windows_cost_nothing() {
        assert_eq!(plain_batching_cost(&[], 1.0, 10.0), 0.0);
        // 3 arrivals in one window: one stream.
        assert_eq!(plain_batching_cost(&[0.1, 0.2, 0.3], 1.0, 10.0), 10.0);
    }

    #[test]
    fn plain_batching_counts_windows() {
        let arrivals: Vec<f64> = (0..100).map(|i| i as f64 * 0.25 + 0.01).collect();
        // 100 arrivals spread over (0, 24.76]: windows 1..=25, all non-empty.
        let c = plain_batching_cost(&arrivals, 1.0, 8.0);
        assert_eq!(c, 25.0 * 8.0);
    }

    #[test]
    fn batched_dyadic_never_exceeds_plain_batching() {
        let arrivals: Vec<f64> = (0..400).map(|i| i as f64 * 0.13).collect();
        let delay = 1.0;
        let media = 20.0;
        let merged = batched_dyadic_cost(DyadicConfig::golden_poisson(), &arrivals, delay, media);
        let plain = plain_batching_cost(&arrivals, delay, media);
        assert!(merged <= plain + 1e-9, "{merged} > {plain}");
    }

    #[test]
    fn sparse_arrivals_make_batched_dyadic_degenerate_to_batching() {
        // Arrivals farther apart than β·L never merge.
        let arrivals = [0.5, 30.0, 61.0];
        let merged = batched_dyadic_cost(DyadicConfig::golden_poisson(), &arrivals, 1.0, 20.0);
        assert_eq!(merged, 60.0);
    }
}
