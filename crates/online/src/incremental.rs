//! Arrival-at-a-time policy state machines.
//!
//! The §4 algorithms are *defined* one arrival at a time — the
//! delay-guaranteed policy commits a merge decision the moment a client
//! shows up — but the crate's original API only exposed batch reconstruction
//! (`forest_after`, `forest()`), re-deriving structure from the full prefix.
//! [`IncrementalPolicy`] makes the state machine explicit: `push(arrival)`
//! returns the [`MergeDecision`] for that single arrival in `O(1)` amortized
//! (a table lookup for the delay-guaranteed policy, a stack operation for
//! the dyadic baseline — both trivially within the `O(log open-trees)`
//! budget, since at most one tree is ever open).
//!
//! The dyadic batch function is a *fold* over the decision stream through
//! [`ForestBuilder`]; the delay-guaranteed `forest_after` clones its
//! template instead and is pinned to that fold by proptest. Either way what
//! the batch view builds is what the push-based serving engine (`sm-sim`'s
//! `engine::incremental`, `sm-serve`'s ingest loop) executes.

use sm_core::{MergeForest, MergeTree, ModelError};

use crate::delay_guaranteed::DelayGuaranteedOnline;
use crate::dyadic::DyadicMerger;

/// The structural commitment an on-line policy makes for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeDecision {
    /// Global arrival index assigned to this arrival (push order).
    pub node: usize,
    /// Index of the tree the arrival joins (trees are opened in order; only
    /// the most recently opened tree is ever open).
    pub tree: usize,
    /// Global arrival index merged under, or `None` to open a new tree with
    /// this arrival as its root (a full stream).
    pub parent: Option<usize>,
}

impl MergeDecision {
    /// `true` iff the arrival starts a full (root) stream.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}

/// An on-line merge policy as an explicit push-based state machine.
///
/// Implementations must emit decisions whose `node` fields count up from 0
/// and whose parents always lie in the currently open tree — the contract
/// [`ForestBuilder::apply`] enforces.
///
/// One push per arrival, one [`MergeDecision`] back — here the dyadic
/// merger watching a root stream absorb a close follower and decline a
/// distant one:
///
/// ```
/// use sm_online::{DyadicConfig, DyadicMerger, IncrementalPolicy, MergeDecision};
///
/// let mut policy: Box<dyn IncrementalPolicy> =
///     Box::new(DyadicMerger::new(DyadicConfig::classic(), 10.0));
///
/// // First arrival: nothing to merge into, so it roots tree 0.
/// let first = policy.push(0.0);
/// assert_eq!(first, MergeDecision { node: 0, tree: 0, parent: None });
/// assert!(first.is_root());
///
/// // A close follower merges under the root: its stream is truncated.
/// let follower = policy.push(1.0);
/// assert_eq!(follower.parent, Some(0));
/// assert_eq!(follower.tree, 0);
///
/// // Too far behind to catch tree 0: a fresh full stream roots tree 1.
/// let late = policy.push(6.0);
/// assert_eq!(late, MergeDecision { node: 2, tree: 1, parent: None });
/// assert_eq!(policy.arrivals(), 3);
/// ```
pub trait IncrementalPolicy {
    /// Processes the next arrival at time `time` and returns its merge
    /// decision. `O(1)` amortized per arrival for both built-in policies.
    fn push(&mut self, time: f64) -> MergeDecision;

    /// Number of arrivals decided so far.
    fn arrivals(&self) -> usize;
}

/// The delay-guaranteed policy is slot-indexed: arrival `k` *is* slot `k`
/// of the static template tiling, so the arrival time is ignored (the
/// guarantee is what fixes the slot grid).
impl IncrementalPolicy for DelayGuaranteedOnline {
    fn push(&mut self, _time: f64) -> MergeDecision {
        let slot = self.slots_seen();
        self.on_slot();
        self.decision_at(slot)
    }

    fn arrivals(&self) -> usize {
        crate::cast::index_to_usize(self.slots_seen())
    }
}

/// The dyadic baseline is natively arrival-at-a-time: `push` is
/// [`DyadicMerger::on_arrival`].
///
/// # Panics
/// Panics if `time` does not strictly increase, as `on_arrival` does.
impl IncrementalPolicy for DyadicMerger {
    fn push(&mut self, time: f64) -> MergeDecision {
        self.on_arrival(time)
    }

    fn arrivals(&self) -> usize {
        self.len()
    }
}

/// A decision stream violated the open-tree contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecisionError {
    /// An attach decision named a parent outside the currently open tree
    /// (or arrived before any tree was opened).
    ParentNotOpen {
        /// Global index of the arrival being applied.
        node: usize,
        /// The out-of-range parent it named.
        parent: usize,
    },
    /// A structural violation inside the open tree.
    Model(ModelError),
}

impl std::fmt::Display for DecisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParentNotOpen { node, parent } => write!(
                f,
                "arrival {node} merges under {parent}, which is not in the open tree"
            ),
            Self::Model(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DecisionError {}

impl From<ModelError> for DecisionError {
    fn from(e: ModelError) -> Self {
        Self::Model(e)
    }
}

/// Folds a [`MergeDecision`] stream back into the committed
/// [`MergeForest`] — the dyadic batch path, and the reference the
/// delay-guaranteed `forest_after` is pinned to. Each decision is
/// `O(depth)` via [`MergeTree::push_arrival`]; nothing is re-derived from
/// the prefix.
#[derive(Debug, Default)]
pub struct ForestBuilder {
    trees: Vec<MergeTree>,
    /// Global index of the open tree's root.
    open_base: usize,
    /// Arrivals applied so far.
    n: usize,
}

impl ForestBuilder {
    /// An empty builder (no tree open yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arrivals applied so far.
    pub fn arrivals(&self) -> usize {
        self.n
    }

    /// Trees opened so far.
    pub fn trees(&self) -> usize {
        self.trees.len()
    }

    /// Applies the next decision: opens a tree or grows the open one.
    pub fn apply(&mut self, decision: &MergeDecision) -> Result<(), DecisionError> {
        match decision.parent {
            None => {
                self.open_base = self.n;
                self.trees.push(MergeTree::singleton());
            }
            Some(parent) => {
                let not_open = || DecisionError::ParentNotOpen {
                    node: self.n,
                    parent,
                };
                let local = parent.checked_sub(self.open_base).ok_or_else(not_open)?;
                let open = self.trees.last_mut().ok_or_else(not_open)?;
                open.push_arrival(local)?;
            }
        }
        self.n += 1;
        Ok(())
    }

    /// The committed forest. Fails only on an empty decision stream
    /// (a forest needs at least one tree).
    pub fn finish(self) -> Result<MergeForest, DecisionError> {
        MergeForest::from_trees(self.trees).map_err(DecisionError::Model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyadic::DyadicConfig;
    use proptest::prelude::*;

    /// Folding a policy's decision stream through the builder.
    fn fold<P: IncrementalPolicy>(policy: &mut P, times: &[f64]) -> MergeForest {
        let mut b = ForestBuilder::new();
        for &t in times {
            b.apply(&policy.push(t)).unwrap();
        }
        b.finish().unwrap()
    }

    proptest! {
        /// The clone-built `forest_after` equals the fold of the policy's
        /// decision stream, on unbounded and buffer-bounded templates, at
        /// `n = F_h`, `F_h + 1`, below `F_h` and anywhere up to `4·F_h`.
        #[test]
        fn dg_forest_after_matches_the_decision_fold(
            l in 1u64..=300,
            buffer in 0u64..=160,
            bounded in 0u8..2,
            pick in 0u8..4,
            frac in 0.0f64..1.0,
        ) {
            let mut alg = if bounded == 1 {
                DelayGuaranteedOnline::with_buffer_bound(l, buffer)
            } else {
                DelayGuaranteedOnline::new(l)
            };
            let fh = alg.tree_size() as usize;
            let n = match pick {
                0 => fh,
                1 => fh + 1,
                2 => 1 + (frac * (fh - 1) as f64) as usize,
                _ => 1 + (frac * (4 * fh) as f64) as usize,
            };
            let batch = alg.forest_after(n);
            let times: Vec<f64> = (0..n).map(|k| k as f64).collect();
            prop_assert_eq!(fold(&mut alg, &times), batch, "L = {}, n = {}", l, n);
            prop_assert_eq!(alg.arrivals(), n);
        }
    }

    #[test]
    fn dg_decisions_are_template_lookups() {
        let alg = DelayGuaranteedOnline::new(15); // F_h = 8
        let d0 = alg.decision_at(0);
        assert_eq!((d0.node, d0.tree, d0.parent), (0, 0, None));
        let d8 = alg.decision_at(8);
        assert_eq!((d8.node, d8.tree, d8.parent), (8, 1, None));
        // Position p of tree k merges under base + template-parent(p).
        let template = alg.template().clone();
        for slot in 0..24u64 {
            let d = alg.decision_at(slot);
            let pos = (slot % 8) as usize;
            assert_eq!(d.node as u64, slot);
            assert_eq!(d.tree as u64, slot / 8);
            assert_eq!(
                d.parent,
                template.parent(pos).map(|p| (slot / 8 * 8) as usize + p)
            );
        }
    }

    #[test]
    fn dyadic_fold_matches_forest() {
        let ts: Vec<f64> = (0..200).map(|i| i as f64 * 0.37).collect();
        let reference = crate::dyadic::dyadic_forest(DyadicConfig::golden_poisson(), 100.0, &ts);
        let mut incremental = DyadicMerger::new(DyadicConfig::golden_poisson(), 100.0);
        let folded = fold(&mut incremental, &ts);
        assert_eq!(folded.trees(), reference.trees());
        assert_eq!(incremental.arrivals(), ts.len());
    }

    #[test]
    fn dyadic_decisions_expose_the_stack() {
        let mut m = DyadicMerger::new(DyadicConfig::classic(), 10.0);
        // Window (0, 5]: 1.0 under root, 2.0 under 1.0, 6.0 a new root.
        let d = m.push(0.0);
        assert_eq!((d.node, d.tree, d.parent), (0, 0, None));
        let d = m.push(1.0);
        assert_eq!((d.node, d.tree, d.parent), (1, 0, Some(0)));
        let d = m.push(2.0);
        assert_eq!((d.node, d.tree, d.parent), (2, 0, Some(1)));
        let d = m.push(6.0);
        assert_eq!((d.node, d.tree, d.parent), (3, 1, None));
    }

    #[test]
    fn builder_rejects_parents_outside_the_open_tree() {
        let mut b = ForestBuilder::new();
        // Attach before any root.
        assert_eq!(
            b.apply(&MergeDecision {
                node: 0,
                tree: 0,
                parent: Some(0)
            })
            .unwrap_err(),
            DecisionError::ParentNotOpen { node: 0, parent: 0 }
        );
        b.apply(&MergeDecision {
            node: 0,
            tree: 0,
            parent: None,
        })
        .unwrap();
        b.apply(&MergeDecision {
            node: 1,
            tree: 1,
            parent: None,
        })
        .unwrap();
        // Arrival 2 may not merge under the closed tree's root 0.
        assert_eq!(
            b.apply(&MergeDecision {
                node: 2,
                tree: 1,
                parent: Some(0)
            })
            .unwrap_err(),
            DecisionError::ParentNotOpen { node: 2, parent: 0 }
        );
    }

    #[test]
    fn empty_builder_finishes_to_an_error() {
        assert!(ForestBuilder::new().finish().is_err());
    }
}
