//! The on-line delay-guaranteed algorithm (§4.1).
//!
//! The algorithm never makes an on-line decision: it statically picks the
//! tree size `F_h` (the same size Theorem 12 shows the off-line optimum
//! gravitates to), precomputes the optimal merge tree for `F_h` arrivals
//! once (`O(L)` work), and then serves slot `t` from position `t mod F_h`
//! of tree number `t div F_h` — a table lookup.
//!
//! Its total cost after `n` slots, `A(L, n)`, is `⌊n/F_h⌋` full trees plus
//! one truncated tree over the remaining arrivals; Theorem 22 shows
//! `A(L,n)/F(L,n) ≤ 1 + 2L/n` for `L ≥ 7`, `n > L² + 2`.

use sm_core::{consecutive_slots, merge_cost, MergeForest, MergeTree, ReceivingProgram};
use sm_fib::{fib, theorem12_h};
use sm_offline::tree_builder::optimal_merge_tree;

use crate::cast::{index_to_usize, nonneg_cost};
use crate::incremental::MergeDecision;

/// The on-line delay-guaranteed server.
///
/// Feed it slots (one per guaranteed-delay interval); query costs, receiving
/// programs and the materialized forest at any point. All per-slot work is
/// `O(1)` except the one-time `O(L)` setup — the simplicity the paper
/// contrasts against the dyadic algorithm's per-arrival decisions.
#[derive(Debug, Clone)]
pub struct DelayGuaranteedOnline {
    media_len: u64,
    tree_size: u64,
    /// The precomputed optimal merge tree on `F_h` arrivals.
    template: MergeTree,
    /// `Mcost` of the template.
    template_cost: u64,
    /// `Mcost` of the template truncated to its first `i` arrivals, for
    /// `i = 0..=F_h` — so the cost of the trailing partial tree is O(1).
    prefix_costs: Vec<u64>,
    /// Precomputed receiving programs for each position in the template.
    programs: Vec<ReceivingProgram>,
    /// Slots processed so far.
    slots: u64,
}

impl DelayGuaranteedOnline {
    /// The largest media length callers hand to [`Self::new`]. The policy
    /// materializes an optimal template of `F_h` nodes (Theorem 12:
    /// `F_{h+1} < L+2`), a few hundred bytes each, and `F_h` grows like
    /// `L`: at `L = 10⁶` the template is `F_29 = 514 229` nodes (about
    /// 220 MB, under a second), while `10⁸` would need tens of GB.
    pub const MAX_MEDIA_LEN: u64 = 1_000_000;

    /// Sets up the algorithm for media length `media_len` slots.
    ///
    /// # Panics
    /// Panics if `media_len == 0`.
    pub fn new(media_len: u64) -> Self {
        assert!(media_len >= 1, "media length must be at least one slot");
        let tree_size = fib(theorem12_h(media_len)).max(1);
        Self::with_tree_size(media_len, tree_size)
    }

    /// The §3.3 bounded-buffer variant: clients can store at most `buffer`
    /// parts, so trees are capped at `B+1` consecutive arrivals (Lemma 15;
    /// see `sm_offline::forest::max_tree_size_for_buffer`) — the on-line
    /// mirror of Theorem 16. With `buffer ≥ ⌊L/2⌋` this coincides with
    /// [`Self::new`]; with `buffer = 0` it degenerates to plain batching
    /// (singleton trees, one full stream per slot).
    pub fn with_buffer_bound(media_len: u64, buffer: u64) -> Self {
        assert!(media_len >= 1, "media length must be at least one slot");
        let unbounded = fib(theorem12_h(media_len)).max(1);
        let cap = sm_offline::forest::max_tree_size_for_buffer(media_len, buffer);
        Self::with_tree_size(media_len, unbounded.min(cap).max(1))
    }

    /// Core constructor: precomputes the optimal template of `tree_size`
    /// arrivals and every derived table.
    fn with_tree_size(media_len: u64, tree_size: u64) -> Self {
        let size = index_to_usize(tree_size);
        let template = optimal_merge_tree(size);
        let times = consecutive_slots(size);
        let template_cost = nonneg_cost(merge_cost(&template, &times));
        let prefix_costs = prefix_merge_costs(&template);
        let programs = (0..size)
            .map(|c| ReceivingProgram::build(&template, &times, media_len, c))
            .collect();
        Self {
            media_len,
            tree_size,
            template,
            template_cost,
            prefix_costs,
            programs,
            slots: 0,
        }
    }

    /// The statically chosen tree size `F_h`.
    pub fn tree_size(&self) -> u64 {
        self.tree_size
    }

    /// The media length `L` in slots.
    pub fn media_len(&self) -> u64 {
        self.media_len
    }

    /// The precomputed template tree.
    pub fn template(&self) -> &MergeTree {
        &self.template
    }

    /// Processes the next slot; returns its placement.
    pub fn on_slot(&mut self) -> SlotPlacement<'_> {
        let t = self.slots;
        self.slots += 1;
        self.placement(t)
    }

    /// Placement of slot `t` (independent of how many slots were fed).
    fn placement(&self, slot: u64) -> SlotPlacement<'_> {
        let tree_index = slot / self.tree_size;
        let position = index_to_usize(slot % self.tree_size);
        SlotPlacement {
            tree_index,
            position,
            is_full_stream: position == 0,
            program: &self.programs[position],
        }
    }

    /// The [`MergeDecision`] the on-line algorithm commits to for slot `t`:
    /// position 0 opens a fresh template instance, every other position
    /// merges under the template parent shifted into instance `t / F_h`.
    /// Pure (`&self`) — the stateful form is the crate's
    /// [`IncrementalPolicy`](crate::incremental::IncrementalPolicy) `push`.
    pub fn decision_at(&self, slot: u64) -> MergeDecision {
        let p = self.placement(slot);
        let base = index_to_usize(p.tree_index * self.tree_size);
        MergeDecision {
            node: index_to_usize(slot),
            tree: index_to_usize(p.tree_index),
            parent: self.template.parent(p.position).map(|lp| base + lp),
        }
    }

    /// Number of slots processed so far.
    pub fn slots_seen(&self) -> u64 {
        self.slots
    }

    /// `A(L, n)`: total server bandwidth (slot-units) after `n` slots —
    /// `⌊n/F_h⌋` complete trees plus one truncated tree for the remainder.
    /// `O(1)`.
    pub fn total_cost_after(&self, n: u64) -> u64 {
        let full = n / self.tree_size;
        let rem = index_to_usize(n % self.tree_size);
        let mut cost = full * (self.media_len + self.template_cost);
        if rem > 0 {
            cost += self.media_len + self.prefix_costs[rem];
        }
        cost
    }

    /// `A(L, n)` for the slots fed so far.
    pub fn total_cost(&self) -> u64 {
        self.total_cost_after(self.slots)
    }

    /// Materializes the forest the algorithm has committed to after `n`
    /// slots: `⌊n/F_h⌋` clones of the template plus, for the last
    /// `n mod F_h` slots, the template cut to its first arrivals. The
    /// `dg_forest_after_matches_the_decision_fold` proptest (crate module
    /// `incremental`) pins it to the fold of [`Self::decision_at`] through a
    /// [`ForestBuilder`](crate::incremental::ForestBuilder), the forest the
    /// arrival-at-a-time decision stream builds.
    pub fn forest_after(&self, n: usize) -> MergeForest {
        assert!(n >= 1);
        let size = self.template.len();
        let mut trees = Vec::with_capacity(n.div_ceil(size));
        trees.extend(std::iter::repeat_n(&self.template, n / size).cloned());
        let rem = n % size;
        if rem > 0 {
            let parents: Vec<_> = (0..rem).map(|i| self.template.parent(i)).collect();
            let prefix = MergeTree::from_parents(&parents).expect("a template prefix is a tree");
            trees.push(prefix);
        }
        MergeForest::from_trees(trees).expect("n >= 1 opens a tree")
    }
}

/// Where a slot's clients land in the on-line algorithm's static structure.
#[derive(Debug, Clone, Copy)]
pub struct SlotPlacement<'a> {
    /// Which template instance (0-based).
    pub tree_index: u64,
    /// Position within the template (0 = the full stream).
    pub position: usize,
    /// Whether this slot starts a full stream.
    pub is_full_stream: bool,
    /// The precomputed receiving program for this position.
    pub program: &'a ReceivingProgram,
}

/// `Mcost` of `tree` truncated to its first `i` arrivals, for `i = 0..=n`,
/// with arrivals at consecutive slots, in `O(n)`.
///
/// Appending arrival `x` (the last in preorder) below parent `p(x)` adds
/// its own stream of length `x − p(x)` and extends the stream of each of
/// its `depth(x) − 1` non-root proper ancestors by 2 (Lemma 1: `x` becomes
/// their last descendant, one slot later than the previous one).
fn prefix_merge_costs(tree: &MergeTree) -> Vec<u64> {
    let mut depth = vec![0u64; tree.len()];
    let mut costs = Vec::with_capacity(tree.len() + 1);
    let mut cost = 0u64;
    costs.push(cost);
    for x in 0..tree.len() {
        if let Some(p) = tree.parent(x) {
            depth[x] = depth[p] + 1;
            cost += (x - p) as u64 + 2 * (depth[x] - 1);
        }
        costs.push(cost);
    }
    costs
}

/// Convenience: `A(L, n)` without retaining the server.
pub fn online_full_cost(media_len: u64, n: u64) -> u64 {
    DelayGuaranteedOnline::new(media_len).total_cost_after(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{full_cost, validate_forest, ValidationOptions};
    use sm_offline::forest::optimal_full_cost;

    #[test]
    fn tree_size_is_fh() {
        // L = 100 -> F_h = 55 (h = 10); L = 15 -> F_h = 8; L = 1 -> F_h = 1.
        assert_eq!(DelayGuaranteedOnline::new(100).tree_size(), 55);
        assert_eq!(DelayGuaranteedOnline::new(15).tree_size(), 8);
        assert_eq!(DelayGuaranteedOnline::new(1).tree_size(), 1);
    }

    #[test]
    fn cost_matches_materialized_forest() {
        for (l, n) in [(15u64, 30usize), (15, 8), (15, 21), (4, 16), (100, 300)] {
            let alg = DelayGuaranteedOnline::new(l);
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            assert_eq!(
                full_cost(&forest, &times, l) as u64,
                alg.total_cost_after(n as u64),
                "L = {l}, n = {n}"
            );
        }
    }

    #[test]
    fn online_never_beats_offline_optimum() {
        for l in [3u64, 7, 15, 40, 100] {
            let alg = DelayGuaranteedOnline::new(l);
            for n in 1..=300u64 {
                let online = alg.total_cost_after(n);
                let offline = optimal_full_cost(l, n);
                assert!(online >= offline, "L = {l}, n = {n}: {online} < {offline}");
            }
        }
    }

    #[test]
    fn online_matches_offline_at_multiples_of_fh_when_offline_picks_fh() {
        // When n is a multiple of F_h and the off-line optimum uses
        // trees of exactly F_h arrivals, the two coincide.
        let l = 15u64;
        let alg = DelayGuaranteedOnline::new(l); // F_h = 8
        let n = 8u64 * 6;
        let online = alg.total_cost_after(n);
        let offline = optimal_full_cost(l, n);
        assert_eq!(online, offline);
    }

    #[test]
    fn incremental_feed_matches_closed_form() {
        let mut alg = DelayGuaranteedOnline::new(15);
        for t in 0..100u64 {
            let p = alg.on_slot();
            assert_eq!(p.tree_index, t / 8);
            assert_eq!(p.position as u64, t % 8);
            assert_eq!(p.is_full_stream, t % 8 == 0);
        }
        assert_eq!(alg.slots_seen(), 100);
        assert_eq!(alg.total_cost(), alg.total_cost_after(100));
    }

    #[test]
    fn receiving_programs_valid_for_all_positions() {
        let alg = DelayGuaranteedOnline::new(15);
        let times = consecutive_slots(8);
        for pos in 0..8 {
            let prog = &alg.placement(pos as u64).program;
            prog.verify(&times, 15).unwrap();
            prog.check_receive_two(&times).unwrap();
        }
    }

    #[test]
    fn forests_are_feasible() {
        for (l, n) in [(15u64, 100usize), (7, 50), (100, 500)] {
            let alg = DelayGuaranteedOnline::new(l);
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            validate_forest(
                &forest,
                &times,
                l,
                ValidationOptions {
                    require_preorder: true,
                    buffer_bound: None,
                },
            )
            .unwrap_or_else(|e| panic!("L = {l}, n = {n}: {e}"));
        }
    }

    #[test]
    fn theorem21_upper_bound() {
        // A(L,n) ≤ (s1+1)(L + M(F_h)).
        for l in [7u64, 15, 100] {
            let alg = DelayGuaranteedOnline::new(l);
            let fh = alg.tree_size();
            for n in [fh, 3 * fh + 1, 10 * fh + fh / 2] {
                let s1 = n / fh;
                let bound = (s1 + 1) * (l + sm_offline::merge_cost(fh));
                assert!(alg.total_cost_after(n) <= bound, "L = {l}, n = {n}");
            }
        }
    }

    #[test]
    fn prefix_costs_monotone_and_bounded() {
        let alg = DelayGuaranteedOnline::new(100);
        for w in alg.prefix_costs.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(*alg.prefix_costs.last().unwrap(), alg.template_cost);
    }

    #[test]
    fn prefix_costs_match_truncated_tree_rebuild() {
        for size in 1..=400usize {
            let tree = optimal_merge_tree(size);
            let parents = tree.to_parents();
            let rebuilt: Vec<u64> = (0..=size)
                .map(|i| match i {
                    0 => 0,
                    _ => {
                        let truncated = MergeTree::from_parents(&parents[..i])
                            .expect("prefix of a merge tree is a merge tree");
                        nonneg_cost(merge_cost(&truncated, &consecutive_slots(i)))
                    }
                })
                .collect();
            assert_eq!(prefix_merge_costs(&tree), rebuilt, "size = {size}");
        }
    }

    #[test]
    fn buffer_bound_caps_tree_size() {
        // L = 100: unbounded F_h = 55; B = 10 caps trees at 11.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 10).tree_size(),
            11
        );
        // B ≥ ⌊L/2⌋ never binds.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 50).tree_size(),
            55
        );
        // B = 0 degenerates to batching: singleton trees.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 0).tree_size(),
            1
        );
    }

    #[test]
    fn bounded_buffer_forests_respect_the_bound() {
        for buffer in [0u64, 1, 3, 10, 25] {
            let alg = DelayGuaranteedOnline::with_buffer_bound(100, buffer);
            let n = (3 * alg.tree_size() + 1) as usize;
            let forest = alg.forest_after(n);
            let times = consecutive_slots(n);
            validate_forest(
                &forest,
                &times,
                100,
                ValidationOptions {
                    require_preorder: true,
                    buffer_bound: Some(buffer),
                },
            )
            .unwrap_or_else(|e| panic!("B = {buffer}: {e}"));
        }
    }

    #[test]
    fn bounded_buffer_cost_decreases_as_buffer_grows() {
        let n = 1000u64;
        let mut last = u64::MAX;
        for buffer in [0u64, 1, 2, 5, 10, 20, 50] {
            let cost = DelayGuaranteedOnline::with_buffer_bound(100, buffer).total_cost_after(n);
            assert!(cost <= last, "B = {buffer}: {cost} > {last}");
            last = cost;
        }
        // B = 0 is batching; a generous buffer matches the unbounded server.
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 0).total_cost_after(n),
            n * 100
        );
        assert_eq!(
            DelayGuaranteedOnline::with_buffer_bound(100, 50).total_cost_after(n),
            DelayGuaranteedOnline::new(100).total_cost_after(n)
        );
    }

    #[test]
    fn bounded_buffer_online_never_beats_theorem16_offline() {
        for buffer in [2u64, 5, 12] {
            let alg = DelayGuaranteedOnline::with_buffer_bound(40, buffer);
            for n in [10u64, 55, 160] {
                let online = alg.total_cost_after(n);
                let (_, offline) = sm_offline::forest::optimal_s_bounded_buffer(40, n, buffer);
                assert!(
                    online >= offline,
                    "B = {buffer}, n = {n}: {online} < {offline}"
                );
            }
        }
    }
}
