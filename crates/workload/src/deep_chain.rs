//! Deep-chain merge workloads — the adversarial shape for per-client
//! evaluation cost.
//!
//! Balanced (Delay Guaranteed / dyadic) merge trees give every client a
//! *logarithmic* root path, so per-client receiving programs are short. A
//! **chain** is the opposite extreme: client `k` merges through all `k` of
//! its predecessors, its receiving program has `k + 1` segments, and any
//! evaluator that is quadratic in segments blows up — the workload that
//! motivated the simulator's `O(segments log segments)` endpoint sweep.
//!
//! Chains are not just adversarial, they are *feasible*: with consecutive
//! arrivals, Lemma 1 gives chain node `x` (0-based, chain length `c`) the
//! stream length `2(c − 1 − x) + 1`, and client `k`'s program takes parts
//! `[2(k − j), 2(k − j) + 1]` from ancestor `j ≥ 1` and parts `2k..=L` from
//! the root — every deadline is met exactly (zero slack) as long as
//! `L ≥ 2(c − 1)`, so the longest feasible chain is `c = L/2 + 1`; the
//! generator tiles arrivals with chains of exactly that length.

use sm_core::{consecutive_slots, MergeForest, MergeTree};

/// Longest chain feasible for media length `media_len` under consecutive
/// arrivals: `c = L/2 + 1`, from the root-segment condition `L ≥ 2(c − 1)`.
fn max_feasible_chain(media_len: u64) -> usize {
    (media_len / 2) as usize + 1
}

/// A forest of maximal-depth feasible merge chains over `n` consecutive
/// arrivals: every tree is a chain of `L/2 + 1`
/// arrivals (the last tree takes the remainder), paired with the matching
/// `consecutive_slots` arrival times.
///
/// The result always simulates cleanly, making it a drop-in stress shape
/// (the allocation-budget harness replays it).
///
/// # Panics
/// Panics if `n == 0`.
pub fn deep_chain_forest(n: usize, media_len: u64) -> (MergeForest, Vec<i64>) {
    assert!(n > 0, "need at least one arrival");
    let chain = max_feasible_chain(media_len);
    let mut trees = Vec::with_capacity(n.div_ceil(chain));
    let mut left = n;
    while left > 0 {
        let k = left.min(chain);
        trees.push(MergeTree::chain(k));
        left -= k;
    }
    let forest = MergeForest::from_trees(trees).expect("n > 0 arrivals");
    (forest, consecutive_slots(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiles_arrivals_into_maximal_chains() {
        let (forest, times) = deep_chain_forest(130, 100);
        // L = 100 → chains of 51: two full chains plus a 28-node remainder.
        assert_eq!(forest.sizes(), vec![51, 51, 28]);
        assert_eq!(times.len(), 130);
        assert_eq!(times, consecutive_slots(130));
    }

    #[test]
    fn max_feasible_chain_bound() {
        assert_eq!(max_feasible_chain(0), 1);
        assert_eq!(max_feasible_chain(1), 1);
        assert_eq!(max_feasible_chain(2), 2);
        assert_eq!(max_feasible_chain(100), 51);
        assert_eq!(max_feasible_chain(101), 51);
    }

    #[test]
    fn deep_chains_simulate_cleanly_with_zero_slack() {
        for media in [2u64, 9, 40, 101] {
            let n = 3 * max_feasible_chain(media) + 1;
            let (forest, times) = deep_chain_forest(n, media);
            let report = sm_sim::simulate(&forest, &times, media)
                .unwrap_or_else(|e| panic!("L = {media}: {e}"));
            assert_eq!(report.clients.len(), n);
            for cr in &report.clients {
                assert!(cr.max_concurrent <= 2);
                // Chain programs are exactly tight: every non-root client's
                // first part from each ancestor arrives just in time.
                assert_eq!(cr.min_slack, 0, "client {} (L = {media})", cr.client);
            }
        }
    }

    #[test]
    fn one_longer_chain_is_infeasible() {
        // The L ≥ 2(c − 1) bound is exact: one more node and the root
        // segment of the last client starts past the media end.
        let media = 40u64;
        let c = max_feasible_chain(media) + 1;
        let forest = MergeForest::single(MergeTree::chain(c));
        let times = consecutive_slots(c);
        assert!(sm_sim::simulate(&forest, &times, media).is_err());
    }
}
