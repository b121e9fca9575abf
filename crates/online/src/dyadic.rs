//! The (α,β)-dyadic stream-merging algorithm of Coffman, Jelenković and
//! Momčilović \[9\] — the representative on-line comparison algorithm of §4.2.
//!
//! A root stream started at time `x` accepts merges from arrivals in
//! `(x, x + β·L]`. That window is split into geometrically shrinking
//! sub-intervals accumulating towards its right end: sub-interval `i ≥ 1` is
//!
//! ```text
//! I_i = ( x + w·(1 − α^{1−i}),  x + w·(1 − α^{−i}) ]      w = window width
//! ```
//!
//! (for α = 2 these are the dyadic halves `(x, x+w/2], (x+w/2, x+3w/4], …`).
//! The earliest arrival inside a sub-interval becomes a child of the root
//! and the procedure recurses inside that sub-interval. Processing arrivals
//! in time order makes this a stack algorithm: each arrival pops expired
//! frames, attaches under the surviving top, and pushes its own frame.
//!
//! The paper's §4.2 variant uses α = φ, with β = 0.5 for Poisson arrivals
//! and `β = F_h / L` for constant-rate arrivals.
//!
//! [`DyadicMerger`] keeps open-tree state only: the frame stack (at most
//! ~60 levels deep) plus arrival and root counters. Nothing grows with the
//! arrival count, so a long-running server can drive it indefinitely. The
//! batch view is a fold: [`dyadic_forest`] replays the decision stream
//! over an arrival slice the caller holds, and [`dyadic_total_cost`]
//! prices that forest.

use sm_core::{merge_cost, MergeForest};

use crate::incremental::{ForestBuilder, MergeDecision};

/// Parameters of the (α,β)-dyadic algorithm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DyadicConfig {
    /// Geometric interval ratio (`> 1`). \[9\] uses 2; §4.2 uses φ.
    pub alpha: f64,
    /// Merge-window size as a fraction of the stream length (`0 < β ≤ 1`).
    pub beta: f64,
}

impl DyadicConfig {
    /// The original parameters of \[9\]: α = 2, β = 0.5.
    pub fn classic() -> Self {
        Self {
            alpha: 2.0,
            beta: 0.5,
        }
    }

    /// The paper's golden-ratio variant for Poisson arrivals: α = φ, β = 0.5.
    pub fn golden_poisson() -> Self {
        Self {
            alpha: sm_fib::PHI,
            beta: 0.5,
        }
    }

    /// The paper's constant-rate variant: α = φ, β = F_h/L.
    pub fn golden_constant_rate(media_len: u64) -> Self {
        let fh = sm_fib::fib(sm_fib::theorem12_h(media_len));
        Self {
            alpha: sm_fib::PHI,
            beta: fh as f64 / media_len as f64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    node: usize,
    start: f64,
    end: f64,
}

/// On-line (α,β)-dyadic merger over continuous arrival times.
///
/// Feed arrivals in strictly increasing time order with
/// [`DyadicMerger::on_arrival`]; each returns its [`MergeDecision`] at
/// once. The merger keeps only the open tree's frame stack and O(1)
/// counters, so its memory is bounded by the tree depth, not by the
/// arrival count. The batch views — [`dyadic_forest`] and
/// [`dyadic_total_cost`] — are folds of the same decision stream over an
/// arrival slice the caller holds.
#[derive(Debug, Clone)]
pub struct DyadicMerger {
    cfg: DyadicConfig,
    media_len: f64,
    /// The open tree's live frames, root first.
    stack: Vec<Frame>,
    arrivals: usize,
    roots: usize,
    last_time: f64,
}

impl DyadicMerger {
    /// Creates a merger for media length `media_len` (in slots / time units).
    ///
    /// # Panics
    /// Panics unless `alpha > 1`, `0 < beta ≤ 1` and `media_len > 0`.
    pub fn new(cfg: DyadicConfig, media_len: f64) -> Self {
        assert!(cfg.alpha > 1.0, "alpha must exceed 1");
        assert!(
            cfg.beta > 0.0 && cfg.beta <= 1.0,
            "beta must lie in (0, 1], got {}",
            cfg.beta
        );
        assert!(media_len > 0.0);
        Self {
            cfg,
            media_len,
            stack: Vec::new(),
            arrivals: 0,
            roots: 0,
            last_time: f64::NEG_INFINITY,
        }
    }

    /// Number of arrivals processed.
    pub fn len(&self) -> usize {
        self.arrivals
    }

    /// `true` before any arrival.
    pub fn is_empty(&self) -> bool {
        self.arrivals == 0
    }

    /// Processes an arrival at time `t` and returns its merge decision
    /// (global node index, tree index, parent).
    ///
    /// # Panics
    /// Panics if `t` precedes an earlier arrival (feed in order; ties are
    /// allowed only logically — use strictly increasing times, e.g. batch
    /// co-arrivals first).
    pub fn on_arrival(&mut self, t: f64) -> MergeDecision {
        assert!(
            t > self.last_time,
            "arrivals must be fed in strictly increasing order ({t} after {})",
            self.last_time
        );
        self.last_time = t;
        let node = self.arrivals;
        self.arrivals += 1;
        // Expire frames whose merge window closed before t. The root frame
        // expiring means t starts a new tree.
        while let Some(top) = self.stack.last() {
            if t > top.end {
                self.stack.pop();
            } else {
                break;
            }
        }
        let (parent, end) = match self.stack.last().copied() {
            None => {
                self.roots += 1;
                (None, t + self.cfg.beta * self.media_len)
            }
            Some(parent) => (
                Some(parent.node),
                self.sub_interval_end(parent.start, parent.end, t),
            ),
        };
        self.stack.push(Frame {
            node,
            start: t,
            end,
        });
        MergeDecision {
            node,
            tree: self.roots - 1,
            parent,
        }
    }

    /// Right endpoint of the geometric sub-interval of `(start, end]`
    /// containing `t`.
    fn sub_interval_end(&self, start: f64, end: f64, t: f64) -> f64 {
        let w = end - start;
        debug_assert!(w > 0.0 && t > start && t <= end);
        let frac = (t - start) / w;
        // Need the smallest i >= 1 with frac <= 1 - alpha^{-i}, i.e.
        // alpha^{-i} <= 1 - frac  =>  i >= log_alpha(1/(1-frac)).
        let i = if frac >= 1.0 {
            f64::INFINITY
        } else {
            ((1.0 / (1.0 - frac)).ln() / self.cfg.alpha.ln())
                .ceil()
                .max(1.0)
        };
        // Clamp: beyond ~60 levels the sub-interval is numerically empty;
        // treat t as sitting at its own point interval.
        if i > 60.0 {
            return t.max(start);
        }
        let sub_end = start + w * (1.0 - self.cfg.alpha.powf(-i));
        sub_end.max(t)
    }

    /// Number of full (root) streams started.
    pub fn roots(&self) -> usize {
        self.roots
    }
}

/// The dyadic merge forest over a whole arrival sequence — a fold of the
/// merger's decision stream through a [`ForestBuilder`], so the batch view
/// is exactly what the arrival-at-a-time decisions built. `times` index
/// the forest's nodes.
///
/// # Panics
/// Panics if `times` is empty or not strictly increasing.
pub fn dyadic_forest(cfg: DyadicConfig, media_len: f64, times: &[f64]) -> MergeForest {
    assert!(!times.is_empty(), "no arrivals processed");
    let mut merger = DyadicMerger::new(cfg, media_len);
    let mut builder = ForestBuilder::new();
    for &t in times {
        builder
            .apply(&merger.on_arrival(t))
            .expect("dyadic decisions are structurally valid");
    }
    builder.finish().expect("at least one tree")
}

/// Runs the dyadic algorithm over a whole arrival sequence (immediate
/// service: one stream per arrival time). Returns total cost in slot-units:
/// `L` per root plus receive-two merge costs; 0 for no arrivals.
pub fn dyadic_total_cost(cfg: DyadicConfig, media_len: f64, arrivals: &[f64]) -> f64 {
    if arrivals.is_empty() {
        return 0.0;
    }
    let forest = dyadic_forest(cfg, media_len, arrivals);
    let mut total = 0.0;
    for (range, tree) in forest.iter_with_ranges() {
        total += media_len + merge_cost(tree, &arrivals[range]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{validate_forest, ValidationOptions};

    fn feed(cfg: DyadicConfig, media: f64, ts: &[f64]) -> DyadicMerger {
        let mut m = DyadicMerger::new(cfg, media);
        for &t in ts {
            m.on_arrival(t);
        }
        m
    }

    #[test]
    fn single_arrival_is_one_root() {
        let m = feed(DyadicConfig::classic(), 10.0, &[0.0]);
        assert_eq!(m.roots(), 1);
        assert_eq!(
            dyadic_total_cost(DyadicConfig::classic(), 10.0, &[0.0]),
            10.0
        );
    }

    #[test]
    fn arrival_past_window_starts_new_root() {
        // beta*L = 5: arrival at 6 is outside (0, 5].
        let ts = [0.0, 6.0];
        let m = feed(DyadicConfig::classic(), 10.0, &ts);
        assert_eq!(m.roots(), 2);
        assert_eq!(dyadic_total_cost(DyadicConfig::classic(), 10.0, &ts), 20.0);
    }

    #[test]
    fn classic_dyadic_halving_structure() {
        // Window (0, 5]: I_1 = (0, 2.5], I_2 = (2.5, 3.75], ...
        // Arrivals 1.0 and 2.0 share I_1: 2.0 merges under 1.0.
        let forest = dyadic_forest(DyadicConfig::classic(), 10.0, &[0.0, 1.0, 2.0]);
        assert_eq!(forest.num_trees(), 1);
        let tree = &forest.trees()[0];
        assert_eq!(tree.parent(1), Some(0));
        assert_eq!(tree.parent(2), Some(1));
        // 3.0 falls in I_2 of the root: child of the root, not of 1.0.
        let forest = dyadic_forest(DyadicConfig::classic(), 10.0, &[0.0, 1.0, 3.0]);
        assert_eq!(forest.trees()[0].parent(2), Some(0));
    }

    #[test]
    fn recursion_applies_inside_subintervals() {
        // Inside I_1 = (0, 2.5] of the root, the child at 0.5 re-splits
        // (0.5, 2.5]: its I_1 is (0.5, 1.5]. Arrival 1.2 goes under 0.5;
        // arrival 2.0 (in (1.5, 2.5]) also under 0.5; arrival 2.6 under root.
        let ts = [0.0, 0.5, 1.2, 2.0, 2.6];
        let forest = dyadic_forest(DyadicConfig::classic(), 10.0, &ts);
        let t = &forest.trees()[0];
        assert_eq!(t.parent(1), Some(0)); // 0.5 under root
        assert_eq!(t.parent(2), Some(1)); // 1.2 under 0.5
        assert_eq!(t.parent(3), Some(1)); // 2.0 under 0.5 (its I_2)
        assert_eq!(t.parent(4), Some(0)); // 2.6 under root (root's I_2)
    }

    #[test]
    fn trees_always_have_preorder_property() {
        let ts: Vec<f64> = (0..200).map(|i| i as f64 * 0.37).collect();
        for cfg in [
            DyadicConfig::classic(),
            DyadicConfig::golden_poisson(),
            DyadicConfig::golden_constant_rate(100),
        ] {
            let forest = dyadic_forest(cfg, 100.0, &ts);
            for tree in forest.trees() {
                assert!(tree.has_preorder_property());
            }
        }
    }

    #[test]
    fn forests_are_feasible_for_beta_half() {
        // β ≤ 1/2 keeps every stream within the media:
        // ℓ(x) ≤ 2·span ≤ 2βL ≤ L.
        let ts: Vec<f64> = (0..300).map(|i| i as f64 * 0.23).collect();
        let forest = dyadic_forest(DyadicConfig::golden_poisson(), 20.0, &ts);
        validate_forest(&forest, &ts, 20, ValidationOptions::default()).unwrap();
    }

    #[test]
    fn cost_decomposes_over_trees() {
        let ts = [0.0, 1.0, 2.0, 30.0, 31.5];
        let m = feed(DyadicConfig::classic(), 20.0, &ts);
        assert_eq!(m.roots(), 2);
        let direct = dyadic_total_cost(DyadicConfig::classic(), 20.0, &ts);
        let forest = dyadic_forest(DyadicConfig::classic(), 20.0, &ts);
        assert_eq!(forest.num_trees(), m.roots());
        let mut sum = 0.0;
        for (range, tree) in forest.iter_with_ranges() {
            sum += 20.0 + merge_cost(tree, &ts[range]);
        }
        assert!((direct - sum).abs() < 1e-9);
    }

    #[test]
    fn denser_arrivals_cost_more_total_but_less_per_client() {
        let cfg = DyadicConfig::golden_poisson();
        let sparse: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let dense: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let c_sparse = dyadic_total_cost(cfg, 25.0, &sparse);
        let c_dense = dyadic_total_cost(cfg, 25.0, &dense);
        assert!(c_dense > c_sparse);
        assert!(c_dense / 500.0 < c_sparse / 50.0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_arrivals_panic() {
        let mut m = DyadicMerger::new(DyadicConfig::classic(), 10.0);
        m.on_arrival(1.0);
        m.on_arrival(0.5);
    }

    #[test]
    #[should_panic]
    fn bad_alpha_rejected() {
        let _ = DyadicMerger::new(
            DyadicConfig {
                alpha: 1.0,
                beta: 0.5,
            },
            10.0,
        );
    }
}
