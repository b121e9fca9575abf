//! Merge forests: a solution for an arrival sequence is a sequence of merge
//! trees tiling the arrivals left to right (§2, "Merge trees": all arrival
//! times in one tree precede all arrival times in the successive tree).

use std::ops::Range;

use crate::error::ModelError;
use crate::tree::MergeTree;

/// An ordered sequence of [`MergeTree`]s partitioning the arrival sequence
/// into contiguous blocks. Tree `i` covers global arrivals
/// `starts[i] .. starts[i] + trees[i].len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeForest {
    trees: Vec<MergeTree>,
    starts: Vec<usize>,
    total: usize,
}

impl MergeForest {
    /// Builds a forest from trees laid out consecutively.
    ///
    /// Returns an error if `trees` is empty (a forest serves at least one
    /// arrival).
    pub fn from_trees(trees: Vec<MergeTree>) -> Result<Self, ModelError> {
        if trees.is_empty() {
            return Err(ModelError::EmptyTree);
        }
        let mut starts = Vec::with_capacity(trees.len());
        let mut total = 0usize;
        for t in &trees {
            starts.push(total);
            total += t.len();
        }
        Ok(Self {
            trees,
            starts,
            total,
        })
    }

    /// A forest consisting of a single tree.
    pub fn single(tree: MergeTree) -> Self {
        Self::from_trees(vec![tree]).expect("single tree is a valid forest")
    }

    /// The forest over zero arrivals: no trees, no clients, no streams.
    ///
    /// [`from_trees`](Self::from_trees) deliberately rejects an empty tree
    /// list (forgetting the trees is almost always a bug); the zero-arrival
    /// service plan — e.g. simulating an idle horizon — must be requested
    /// explicitly through this constructor.
    pub fn empty() -> Self {
        Self {
            trees: Vec::new(),
            starts: Vec::new(),
            total: 0,
        }
    }

    /// `true` iff the forest covers no arrivals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of trees (`s`, the number of full streams).
    #[inline]
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Total number of arrivals covered.
    #[inline]
    pub fn total_arrivals(&self) -> usize {
        self.total
    }

    /// The trees in order.
    #[inline]
    pub fn trees(&self) -> &[MergeTree] {
        &self.trees
    }

    /// Global index of the first arrival of tree `i`.
    #[inline]
    pub fn tree_start(&self, i: usize) -> usize {
        self.starts[i]
    }

    /// Tree sizes in order (the paper's `p`/`p+1` balance shows up here).
    pub fn sizes(&self) -> Vec<usize> {
        self.trees.iter().map(|t| t.len()).collect()
    }

    /// Iterates `(global_range, tree)` pairs.
    pub fn iter_with_ranges(&self) -> impl Iterator<Item = (Range<usize>, &MergeTree)> {
        self.trees
            .iter()
            .zip(self.starts.iter())
            .map(|(t, &s)| (s..s + t.len(), t))
    }

    /// Locates the tree serving global arrival `g`; returns
    /// `(tree_index, local_index)`.
    ///
    /// # Panics
    /// Panics if `g >= total_arrivals()`.
    pub fn locate(&self, g: usize) -> (usize, usize) {
        assert!(g < self.total, "arrival {g} outside forest");
        let ti = match self.starts.binary_search(&g) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        (ti, g - self.starts[ti])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tree_forest() -> MergeForest {
        let t1 = MergeTree::chain(3);
        let t2 = MergeTree::star(4);
        MergeForest::from_trees(vec![t1, t2]).unwrap()
    }

    #[test]
    fn empty_forest_rejected() {
        assert_eq!(
            MergeForest::from_trees(vec![]).unwrap_err(),
            ModelError::EmptyTree
        );
    }

    #[test]
    fn layout() {
        let f = two_tree_forest();
        assert_eq!(f.num_trees(), 2);
        assert_eq!(f.total_arrivals(), 7);
        assert_eq!(f.sizes(), vec![3, 4]);
        let ranges: Vec<_> = f.iter_with_ranges().map(|(r, _)| r).collect();
        assert_eq!(ranges, vec![0..3, 3..7]);
    }

    #[test]
    fn locate_maps_global_to_local() {
        let f = two_tree_forest();
        assert_eq!(f.locate(0), (0, 0));
        assert_eq!(f.locate(2), (0, 2));
        assert_eq!(f.locate(3), (1, 0));
        assert_eq!(f.locate(6), (1, 3));
    }

    #[test]
    #[should_panic]
    fn locate_out_of_range_panics() {
        let f = two_tree_forest();
        let _ = f.locate(7);
    }

    #[test]
    fn single_is_one_tree() {
        let f = MergeForest::single(MergeTree::singleton());
        assert_eq!(f.num_trees(), 1);
        assert_eq!(f.total_arrivals(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn explicit_empty_forest() {
        let f = MergeForest::empty();
        assert!(f.is_empty());
        assert_eq!(f.num_trees(), 0);
        assert_eq!(f.total_arrivals(), 0);
        assert_eq!(f.sizes(), Vec::<usize>::new());
        assert_eq!(f.iter_with_ranges().count(), 0);
    }
}
