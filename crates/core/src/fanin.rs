//! Pipeline fan-in: stable k-way merge of per-source batches.
//!
//! The serving layer generates one sorted arrival run *per title* for each
//! pipeline batch and needs them interleaved into a single globally sorted
//! run before ingest. [`merge_runs`] does exactly that: a stable k-way
//! merge over individually sorted runs, where ties keep the earlier run's
//! element first — so "title 0 before title 1 at equal times" is a
//! deterministic, documented property rather than an accident of the sort.
//!
//! `k` is the number of sources feeding the pipeline — one per title, so it
//! grows with the catalog. The merge keeps a loser tree (tournament tree)
//! over the `k` run heads: building it costs `k − 1` comparisons, and each
//! emitted element replays one leaf-to-root path of at most `⌈log₂ k⌉`
//! comparisons, so `n` elements cost `O(k + n log k)` with a single output
//! allocation and one `k`-entry index table.

/// Stable k-way merge of individually sorted runs into one sorted vector.
///
/// `before(a, b)` is the strict ordering predicate ("a sorts ahead of b").
/// Within one run the caller guarantees elements are already in order;
/// across runs, ties (`!before(a, b) && !before(b, a)`) resolve to the
/// run with the smaller index, making the merge stable.
///
/// ```
/// use sm_core::merge_runs;
///
/// let runs = vec![vec![(1.0, 'a'), (4.0, 'a')], vec![(1.0, 'b'), (2.0, 'b')]];
/// let merged = merge_runs(runs, |x, y| x.0 < y.0);
/// assert_eq!(merged, vec![(1.0, 'a'), (1.0, 'b'), (2.0, 'b'), (4.0, 'a')]);
/// ```
pub fn merge_runs<T, F>(mut runs: Vec<Vec<T>>, mut before: F) -> Vec<T>
where
    F: FnMut(&T, &T) -> bool,
{
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Also covers `k = 0`, where the tree below has no root.
    if total == 0 {
        return out;
    }
    // Each run is reversed once so its head is the cheap-to-pop tail.
    for run in &mut runs {
        run.reverse();
    }
    // Whether run `a`'s head sorts ahead of run `b`'s. An exhausted run
    // loses every match; equal heads go to the lower run index (stability),
    // so one strict `before` call settles each match.
    let mut beats = |runs: &[Vec<T>], a: usize, b: usize| match (runs[a].last(), runs[b].last()) {
        (Some(x), Some(y)) if a < b => !before(y, x),
        (Some(x), Some(y)) => before(x, y),
        (x, _) => x.is_some(),
    };
    // Implicit tree: node `n` has children `2n` and `2n + 1`, and position
    // `k + i` is leaf `i` (not stored). Bottom-up, every internal node
    // first takes the winner of its subtree; top-down, it then keeps the
    // loser of its own match (children still hold their winners when their
    // parent is visited).
    let k = runs.len();
    let mut tree = vec![0; k];
    let at = |tree: &[usize], c: usize| if c >= k { c - k } else { tree[c] };
    for n in (1..k).rev() {
        let (a, b) = (at(&tree, 2 * n), at(&tree, 2 * n + 1));
        tree[n] = if beats(&runs, a, b) { a } else { b };
    }
    let mut winner = at(&tree, 1);
    for n in 1..k {
        let (a, b) = (at(&tree, 2 * n), at(&tree, 2 * n + 1));
        tree[n] = if a == tree[n] { b } else { a };
    }
    // The winner's run always holds the smallest head, and it is empty
    // only once every run is: then all `total` elements are out.
    while let Some(x) = runs[winner].pop() {
        out.push(x);
        // Replay the winner's path: its new head meets each stored loser.
        let mut node = (k + winner) / 2;
        while node > 0 {
            if beats(&runs, tree[node], winner) {
                std::mem::swap(&mut tree[node], &mut winner);
            }
            node /= 2;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::merge_runs;
    use proptest::prelude::*;

    #[test]
    fn merges_disjoint_runs_in_order() {
        let merged = merge_runs(vec![vec![1, 4, 9], vec![2, 3, 10], vec![0, 7]], |a, b| {
            a < b
        });
        assert_eq!(merged, vec![0, 1, 2, 3, 4, 7, 9, 10]);
    }

    #[test]
    fn ties_keep_the_earlier_run_first() {
        let merged = merge_runs(
            vec![
                vec![(1, 'a'), (2, 'a')],
                vec![(1, 'b')],
                vec![(1, 'c'), (3, 'c')],
            ],
            |a, b| a.0 < b.0,
        );
        assert_eq!(
            merged,
            vec![(1, 'a'), (1, 'b'), (1, 'c'), (2, 'a'), (3, 'c')]
        );
    }

    #[test]
    fn handles_empty_inputs() {
        assert_eq!(merge_runs(Vec::<Vec<u8>>::new(), |a, b| a < b), vec![]);
        assert_eq!(
            merge_runs(vec![vec![], vec![5u8], vec![]], |a, b| a < b),
            vec![5]
        );
    }

    #[test]
    fn preserves_within_run_order_of_equal_elements() {
        // One run with internal ties: pop order must equal input order.
        let merged = merge_runs(vec![vec![(2, 0), (2, 1), (2, 2)]], |a, b| a.0 < b.0);
        assert_eq!(merged, vec![(2, 0), (2, 1), (2, 2)]);
    }

    /// `k` runs of `len` elements, every key equal, tagged `(key, run, index)`.
    fn all_equal(k: usize, len: usize) -> Vec<Vec<(u8, usize, usize)>> {
        (0..k)
            .map(|r| (0..len).map(|i| (7, r, i)).collect())
            .collect()
    }

    #[test]
    fn all_equal_keys_come_out_run_by_run() {
        // k = 1 (the root is the only leaf), k = 2, and k = 5 (leaves at
        // two depths): with every key tied the merge is the concatenation.
        for k in [1, 2, 5] {
            let runs = all_equal(k, 3);
            let expected = runs.concat();
            assert_eq!(merge_runs(runs, |a, b| a.0 < b.0), expected, "k = {k}");
        }
    }

    #[test]
    fn each_element_costs_at_most_ceil_log2_k_comparisons() {
        let k = 32usize;
        let runs: Vec<Vec<u32>> = (0..k as u32)
            .map(|r| (0..10).map(|i| i * k as u32 + (r * 7) % 32).collect())
            .collect();
        let n = k * 10;
        let mut calls = 0usize;
        let merged = merge_runs(runs, |a, b| {
            calls += 1;
            a < b
        });
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        // Build: k − 1 matches; each emitted element: log₂ 32 = 5.
        assert!(calls <= (k - 1) + n * 5, "{calls} comparisons for n = {n}");
    }

    /// Up to 40 runs of up to 12 keys from a small range (so ties across
    /// runs are common), tagged `(key, run, index)` after sorting.
    fn arb_runs() -> impl Strategy<Value = Vec<Vec<(u8, usize, usize)>>> {
        proptest::collection::vec(proptest::collection::vec(0u8..4, 0..=12), 0..=40).prop_map(
            |runs| {
                runs.into_iter()
                    .enumerate()
                    .map(|(r, mut keys)| {
                        keys.sort_unstable();
                        keys.into_iter()
                            .enumerate()
                            .map(|(i, key)| (key, r, i))
                            .collect()
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_stable_sort_of_concatenation(runs in arb_runs()) {
            let mut oracle = runs.concat();
            oracle.sort_by_key(|e| e.0);
            prop_assert_eq!(merge_runs(runs, |a, b| a.0 < b.0), oracle);
        }
    }
}
