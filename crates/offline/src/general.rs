//! Optimal stream merging for *general* arrival sequences — the machinery of
//! Bar-Noy & Ladner \[6\] that this paper's delay-guaranteed `O(n)` result
//! improves upon, and the strongest available baseline for the on-line
//! comparisons: given the actual (possibly irregular) arrivals, what would a
//! clairvoyant server have paid?
//!
//! The interval DP: `cost(i, j)` = optimal merge cost of a tree over
//! arrivals `i..=j` rooted at `i`; conditioning on the last child `h` of the
//! root (Lemma 2):
//!
//! ```text
//! cost(i, j) = min_{i < h ≤ j} cost(i, h−1) + cost(h, j) + (2·t_j − t_h − t_i)
//! ```
//!
//! Naively `O(n³)`; with the Knuth-style monotonicity of the optimal split
//! (the quadrangle-inequality argument underlying \[6\]'s `O(n²)` bound) the
//! tables fill in `O(n²)`. Both are implemented; tests cross-check them.

use sm_core::{MergeForest, MergeTree, TimeScalar};

/// Result of the general-arrivals tree DP.
#[derive(Debug, Clone)]
pub struct GeneralTreeSolution<T> {
    /// Optimal merge cost over all arrivals as one tree rooted at the first.
    pub cost: T,
    /// The optimal tree.
    pub tree: MergeTree,
}

/// Optimal merge tree over arbitrary arrival times, `O(n³)` reference
/// implementation.
///
/// # Panics
/// Panics if `times` is empty or not strictly increasing.
pub fn optimal_tree_naive<T: TimeScalar>(times: &[T]) -> GeneralTreeSolution<T> {
    solve(times, false)
}

/// Optimal merge tree over arbitrary arrival times with Knuth-style split
/// monotonicity, `O(n²)`.
///
/// # Panics
/// Panics if `times` is empty or not strictly increasing.
pub fn optimal_tree<T: TimeScalar>(times: &[T]) -> GeneralTreeSolution<T> {
    solve(times, true)
}

fn solve<T: TimeScalar>(times: &[T], knuth: bool) -> GeneralTreeSolution<T> {
    let n = times.len();
    assert!(n >= 1, "need at least one arrival");
    assert!(
        sm_core::time::is_strictly_increasing(times),
        "arrival times must be strictly increasing"
    );
    // cost[i][j] and split[i][j] for 0 <= i <= j < n, stored row-major in
    // flattened vecs indexed by i*n + j.
    let idx = |i: usize, j: usize| i * n + j;
    let mut cost: Vec<Option<T>> = vec![None; n * n];
    let mut split: Vec<usize> = vec![0; n * n];
    for i in 0..n {
        cost[idx(i, i)] = Some(T::zero());
    }
    // Fill by increasing interval length.
    for len in 2..=n {
        for i in 0..=(n - len) {
            let j = i + len - 1;
            // Knuth bounds: split is monotone in both interval endpoints.
            let (lo, hi) = if knuth && len > 2 {
                let lo = split[idx(i, j - 1)].max(i + 1);
                let hi = if i < n - 1 && i < j {
                    split[idx(i + 1, j)].min(j).max(lo)
                } else {
                    j
                };
                (lo, hi)
            } else {
                (i + 1, j)
            };
            let mut best: Option<T> = None;
            let mut best_h = lo;
            for h in lo..=hi {
                let c = cost[idx(i, h - 1)].expect("subproblem filled")
                    + cost[idx(h, j)].expect("subproblem filled")
                    + (times[j] - times[h])
                    + (times[j] - times[i]);
                // Ties go to the larger split, mirroring r(i) = max I(i).
                if best.is_none_or(|b| c <= b) {
                    best = Some(c);
                    best_h = h;
                }
            }
            cost[idx(i, j)] = best;
            split[idx(i, j)] = best_h;
        }
    }
    let mut parents: Vec<Option<usize>> = vec![None; n];
    build(&mut parents, &split, n, 0, n - 1);
    GeneralTreeSolution {
        cost: cost[idx(0, n - 1)].expect("root problem solved"),
        tree: MergeTree::from_parents(&parents).expect("DP tree is valid"),
    }
}

fn build(parents: &mut [Option<usize>], split: &[usize], n: usize, i: usize, j: usize) {
    if i == j {
        return;
    }
    let h = split[i * n + j];
    parents[h] = Some(i);
    build(parents, split, n, i, h - 1);
    build(parents, split, n, h, j);
}

/// Optimal *forest* (full cost) for general arrivals: a prefix DP over the
/// interval-tree DP, honouring the feasibility constraint
/// `t_j − t_i ≤ L − 1` per tree.
///
/// The feasibility constraint makes the interval DP **banded**: `cost(i, j)`
/// is only ever needed when arrivals `i..=j` fit one tree, i.e.
/// `t_j − t_i ≤ L − 1`, and every sub-interval of a feasible interval is
/// feasible. The tables are therefore stored ragged per row
/// (`O(Σ band_i)` memory instead of `O(n²)`), which keeps dense workloads —
/// e.g. ten thousand occupied slots with `L = 100` — at about `n·L` table
/// entries. The Knuth split window survives banding unchanged because both
/// of its source cells `(i, j−1)` and `(i+1, j)` lie within their rows'
/// bands whenever `(i, j)` does.
///
/// Returns `(forest, total_cost)`.
///
/// # Panics
/// Panics if `times` is empty, unsorted, or some suffix cannot be covered
/// (cannot happen: a singleton tree is always feasible).
pub fn optimal_forest<T: TimeScalar>(times: &[T], media_len: u64) -> (MergeForest, T) {
    let n = times.len();
    assert!(n >= 1);
    let media = T::from_slots(media_len);
    let one = T::from_slots(1);
    // jmax[i]: last arrival that fits in one tree with root i.
    let mut jmax = vec![0usize; n];
    {
        let mut j = 0usize;
        for i in 0..n {
            if j < i {
                j = i;
            }
            while j + 1 < n && (times[j + 1] - times[i]) + one <= media {
                j += 1;
            }
            jmax[i] = j;
        }
    }
    // Ragged banded tables: row i holds columns i..=jmax[i].
    let mut row_offset = vec![0usize; n + 1];
    for i in 0..n {
        row_offset[i + 1] = row_offset[i] + (jmax[i] - i + 1);
    }
    let total = row_offset[n];
    let mut cost: Vec<T> = vec![T::zero(); total]; // diagonal cost(i,i) = 0
    let mut split: Vec<usize> = vec![0; total];
    let at = |i: usize, j: usize| row_offset[i] + (j - i);
    let max_band = (0..n).map(|i| jmax[i] - i + 1).max().unwrap_or(1);
    for len in 2..=max_band {
        for i in 0..n {
            let j = i + len - 1;
            if j >= n || j > jmax[i] {
                continue;
            }
            let lo = if len > 2 {
                split[at(i, j - 1)].max(i + 1)
            } else {
                i + 1
            };
            let hi = if len > 2 {
                split[at(i + 1, j)].min(j).max(lo)
            } else {
                j
            };
            let mut best: Option<T> = None;
            let mut best_h = lo;
            for h in lo..=hi {
                let c = cost[at(i, h - 1)]
                    + cost[at(h, j)]
                    + (times[j] - times[h])
                    + (times[j] - times[i]);
                if best.is_none_or(|b| c <= b) {
                    best = Some(c);
                    best_h = h;
                }
            }
            cost[at(i, j)] = best.expect("non-empty split window");
            split[at(i, j)] = best_h;
        }
    }
    // Prefix DP: g[j] = optimal cost of serving arrivals 0..j (exclusive).
    let mut g: Vec<Option<T>> = vec![None; n + 1];
    let mut choice: Vec<usize> = vec![0; n + 1];
    g[0] = Some(T::zero());
    for j in 1..=n {
        let mut best: Option<T> = None;
        let mut best_i = j - 1;
        for i in (0..j).rev() {
            // Tree over arrivals i..=j−1 rooted at i; feasible iff
            // span ≤ L − 1.
            #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must be infeasible
            if !((times[j - 1] - times[i]) + one <= media) {
                break; // earlier i only increases the span
            }
            if let Some(gprev) = g[i] {
                let total = gprev + media + cost[at(i, j - 1)];
                if best.is_none_or(|b| total < b) {
                    best = Some(total);
                    best_i = i;
                }
            }
        }
        g[j] = best;
        choice[j] = best_i;
    }
    // Reconstruct tree boundaries right to left.
    let mut bounds = Vec::new();
    let mut j = n;
    while j > 0 {
        let i = choice[j];
        bounds.push((i, j));
        j = i;
    }
    bounds.reverse();
    let mut trees = Vec::with_capacity(bounds.len());
    for &(i, j) in &bounds {
        let m = j - i;
        let mut parents: Vec<Option<usize>> = vec![None; m];
        build_offset(&mut parents, &split, &row_offset, i, i, j - 1);
        trees.push(MergeTree::from_parents(&parents).expect("valid tree"));
    }
    (
        MergeForest::from_trees(trees).expect("at least one tree"),
        g[n].expect("full sequence coverable"),
    )
}

fn build_offset(
    parents: &mut [Option<usize>],
    split: &[usize],
    row_offset: &[usize],
    base: usize,
    i: usize,
    j: usize,
) {
    if i == j {
        return;
    }
    let h = split[row_offset[i] + (j - i)];
    parents[h - base] = Some(i - base);
    build_offset(parents, split, row_offset, base, i, h - 1);
    build_offset(parents, split, row_offset, base, h, j);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, full_cost, merge_cost as model_merge_cost};

    #[test]
    fn degenerates_to_delay_guaranteed_closed_form() {
        for n in 1..=80usize {
            let times = consecutive_slots(n);
            let sol = optimal_tree(&times);
            assert_eq!(
                sol.cost as u64,
                crate::closed_form::merge_cost(n as u64),
                "n = {n}"
            );
        }
    }

    #[test]
    fn knuth_matches_naive_on_consecutive() {
        for n in 1..=40usize {
            let times = consecutive_slots(n);
            let fast = optimal_tree(&times);
            let slow = optimal_tree_naive(&times);
            assert_eq!(fast.cost, slow.cost, "n = {n}");
        }
    }

    #[test]
    fn knuth_matches_naive_on_irregular_times() {
        // Deterministic pseudo-random gaps (LCG) — no rand dependency here.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 7 + 1
        };
        for trial in 0..30 {
            let n = 2 + (trial % 17);
            let mut t = 0i64;
            let times: Vec<i64> = (0..n)
                .map(|_| {
                    t += next() as i64;
                    t
                })
                .collect();
            let fast = optimal_tree(&times);
            let slow = optimal_tree_naive(&times);
            assert_eq!(fast.cost, slow.cost, "times = {times:?}");
            assert_eq!(
                model_merge_cost(&fast.tree, &times),
                fast.cost,
                "tree cost mismatch for {times:?}"
            );
        }
    }

    #[test]
    fn tree_cost_equals_model_evaluation() {
        let times: Vec<i64> = vec![0, 1, 4, 6, 7, 10, 15];
        let sol = optimal_tree(&times);
        assert_eq!(model_merge_cost(&sol.tree, &times), sol.cost);
        assert!(sol.tree.has_preorder_property());
    }

    #[test]
    fn forest_matches_theorem12_on_consecutive_arrivals() {
        // The general forest DP must agree with the delay-guaranteed
        // optimum on consecutive arrivals.
        for (media_len, n) in [(4u64, 16usize), (15, 8), (15, 14), (7, 30)] {
            let times = consecutive_slots(n);
            let (forest, cost) = optimal_forest(&times, media_len);
            let expected = crate::forest::optimal_full_cost(media_len, n as u64);
            assert_eq!(cost as u64, expected, "L = {media_len}, n = {n}");
            assert_eq!(full_cost(&forest, &times, media_len), cost);
        }
    }

    #[test]
    fn forest_respects_span_feasibility() {
        let times: Vec<i64> = vec![0, 1, 2, 50, 51, 120];
        let (forest, _) = optimal_forest(&times, 10);
        for (range, tree) in forest.iter_with_ranges() {
            let slice = &times[range];
            let span = slice[tree.last_arrival()] - slice[0];
            assert!(span <= 9);
        }
    }

    #[test]
    fn sparse_arrivals_prefer_separate_streams() {
        // Arrivals farther apart than the media never merge.
        let times: Vec<i64> = vec![0, 100, 200];
        let (forest, cost) = optimal_forest(&times, 10);
        assert_eq!(forest.num_trees(), 3);
        assert_eq!(cost, 30);
    }

    #[test]
    fn continuous_times_work() {
        let times: Vec<f64> = vec![0.0, 0.7, 1.1, 2.4, 3.9];
        let sol = optimal_tree(&times);
        let model = model_merge_cost(&sol.tree, &times);
        assert!((sol.cost - model).abs() < 1e-9);
        let (_, fcost) = optimal_forest(&times, 6);
        assert!(fcost > 0.0);
    }

    #[test]
    fn banded_forest_matches_unbanded_reference() {
        // Brute-force reference: prefix DP over `optimal_tree_naive` on
        // every feasible sub-interval.
        fn reference(times: &[i64], media_len: u64) -> i64 {
            let n = times.len();
            let media = media_len as i64;
            let mut g = vec![i64::MAX; n + 1];
            g[0] = 0;
            for j in 1..=n {
                for i in 0..j {
                    if times[j - 1] - times[i] + 1 > media || g[i] == i64::MAX {
                        continue;
                    }
                    let tree = optimal_tree_naive(&times[i..j]);
                    g[j] = g[j].min(g[i] + media + tree.cost);
                }
            }
            g[n]
        }
        let mut state = 0xDEADBEEFu64;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        for trial in 0..25 {
            let n = 2 + (trial % 12) as usize;
            let mut t = 0i64;
            let times: Vec<i64> = (0..n)
                .map(|_| {
                    t += next(9) as i64 + 1;
                    t
                })
                .collect();
            let media = 4 + next(20);
            let (forest, cost) = optimal_forest(&times, media);
            assert_eq!(cost, reference(&times, media), "times {times:?}, L {media}");
            assert_eq!(full_cost(&forest, &times, media), cost);
        }
    }

    #[test]
    fn banded_forest_scales_to_dense_horizons() {
        // The banded DP on 5000 occupied slots with L = 100: feasible memory
        // (≈ n·L entries) and agreement with the closed form.
        let n = 5000usize;
        let times = consecutive_slots(n);
        let (_, cost) = optimal_forest(&times, 100);
        assert_eq!(cost as u64, crate::forest::optimal_full_cost(100, n as u64));
    }

    #[test]
    fn single_arrival_trivial() {
        let sol = optimal_tree(&[42i64]);
        assert_eq!(sol.cost, 0);
        assert_eq!(sol.tree.len(), 1);
        let (forest, cost) = optimal_forest(&[42i64], 5);
        assert_eq!(forest.num_trees(), 1);
        assert_eq!(cost, 5);
    }
}
