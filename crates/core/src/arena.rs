//! Index-based arena representation of a merge tree (struct-of-arrays).
//!
//! [`MergeTree`] stores one `Vec<u32>` *per node* for the children lists,
//! which is the right shape for validation and construction but scatters the
//! hot simulation loops across the heap. [`TreeArena`] flattens the same
//! tree into four parallel `u32` columns:
//!
//! ```text
//! node            0    1    2    3   …        (local preorder labels)
//! parent        [ –  | 0  | 1  | 0  | … ]     (entry 0 unused)
//! first_child   [ 1  | 2  | ∅  | ∅  | … ]     ∅ = u32::MAX sentinel
//! next_sibling  [ ∅  | 3  | ∅  | ∅  | … ]
//! last_descendant[3  | 2  | 2  | 3  | … ]     z(x), Lemma 1
//! ```
//!
//! (a fifth internal `last_child` column makes appends O(1)). A whole tree
//! is therefore five contiguous slices with **no per-node allocation**, and
//! `clear`/`lower_into`/`reset_singleton` reuse the storage so a pooled
//! arena is allocation-free in steady state.
//!
//! `MergeTree` stays the validated constructor: build or validate there,
//! then [`TreeArena::lower_into`] the result. [`TreeArena::raise`] converts
//! back (used by tests to pin the round-trip). Trees larger than the `u32`
//! index space — one label is reserved for the sentinel — are rejected with
//! [`ModelError::NodeLimitExceeded`] rather than a panic.

use crate::error::ModelError;
use crate::tree::MergeTree;

/// "No node" sentinel for the child/sibling columns.
const NONE: u32 = u32::MAX;

/// Converts a node index into its `u32` column label, rejecting indices that
/// collide with the sentinel or do not fit.
fn label(i: usize) -> Result<u32, ModelError> {
    match u32::try_from(i) {
        Ok(v) if v != NONE => Ok(v),
        _ => Err(ModelError::NodeLimitExceeded {
            nodes: i.saturating_add(1),
        }),
    }
}

/// A merge tree flattened into parallel `u32` columns (see module docs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TreeArena {
    parent: Vec<u32>,
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    last_child: Vec<u32>,
    last_descendant: Vec<u32>,
}

impl TreeArena {
    /// Largest node count the columns can label: one `u32` value is the
    /// sentinel, every other one is a valid label.
    pub const MAX_NODES: usize = u32::MAX as usize;

    /// An empty arena holding no tree (and no heap storage).
    pub fn new() -> Self {
        Self::default()
    }

    /// Rejects node counts beyond [`Self::MAX_NODES`] with a typed error.
    pub fn check_capacity(nodes: usize) -> Result<(), ModelError> {
        if nodes > Self::MAX_NODES {
            Err(ModelError::NodeLimitExceeded { nodes })
        } else {
            Ok(())
        }
    }

    /// Number of nodes currently in the arena.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the arena currently holds no tree.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Removes every node but keeps the column storage for reuse.
    pub fn clear(&mut self) {
        self.parent.clear();
        self.first_child.clear();
        self.next_sibling.clear();
        self.last_child.clear();
        self.last_descendant.clear();
    }

    /// Resets the arena to the single-root tree, reusing storage.
    pub fn reset_singleton(&mut self) {
        self.clear();
        self.parent.push(0);
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.last_child.push(NONE);
        self.last_descendant.push(0);
    }

    /// Appends arrival `len()` as the new *last* child of `parent`, exactly
    /// like [`MergeTree::push_arrival`]: the preorder property is preserved
    /// by construction and every ancestor's last descendant becomes the new
    /// node. O(depth), allocation-free once the columns have capacity.
    pub fn push_arrival(&mut self, parent: usize) -> Result<usize, ModelError> {
        self.push_arrival_with(parent, |_, _| {})
    }

    /// [`Self::push_arrival`] that also calls `visit(a, parent_of_a)` for
    /// every ancestor `a` of the new node, from `parent` up to the root
    /// (whose parent is `None`), during the same root-path walk that
    /// updates the last descendants. Callers that keep per-node state
    /// depending on `z(a)` (the Lemma-1 stream lengths) update it here
    /// instead of walking the path a second time. `visit` is not called
    /// when the push is rejected.
    pub fn push_arrival_with<F: FnMut(usize, Option<usize>)>(
        &mut self,
        parent: usize,
        mut visit: F,
    ) -> Result<usize, ModelError> {
        let node = self.len();
        if parent >= node {
            return Err(ModelError::ParentNotEarlier { node, parent });
        }
        let new_label = label(node)?;
        self.parent.push(label(parent)?);
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.last_child.push(NONE);
        self.last_descendant.push(new_label);
        let prev = self.last_child[parent];
        if prev == NONE {
            self.first_child[parent] = new_label;
        } else {
            self.next_sibling[prev as usize] = new_label;
        }
        self.last_child[parent] = new_label;
        let mut cur = parent;
        loop {
            self.last_descendant[cur] = new_label;
            let up = self.parent(cur);
            visit(cur, up);
            match up {
                Some(p) => cur = p,
                None => break,
            }
        }
        Ok(node)
    }

    /// Lowers a validated [`MergeTree`] into a fresh arena.
    pub fn lower(tree: &MergeTree) -> Result<Self, ModelError> {
        let mut arena = Self::new();
        arena.lower_into(tree)?;
        Ok(arena)
    }

    /// Lowers `tree` into this arena, reusing the column storage. The only
    /// failure mode is a tree outside the `u32` index space.
    pub fn lower_into(&mut self, tree: &MergeTree) -> Result<(), ModelError> {
        let n = tree.len();
        Self::check_capacity(n)?;
        self.clear();
        self.parent.resize(n, 0);
        self.first_child.resize(n, NONE);
        self.next_sibling.resize(n, NONE);
        self.last_child.resize(n, NONE);
        self.last_descendant.resize(n, 0);
        for i in 0..n {
            let li = label(i)?;
            let kids = tree.children(i);
            self.first_child[i] = kids.first().copied().unwrap_or(NONE);
            self.last_child[i] = kids.last().copied().unwrap_or(NONE);
            for &c in kids {
                self.parent[c as usize] = li;
            }
            for pair in kids.windows(2) {
                self.next_sibling[pair[0] as usize] = pair[1];
            }
            self.last_descendant[i] = label(tree.last_descendant(i))?;
        }
        Ok(())
    }

    /// Raises the arena back into the pointer-based, validated form.
    pub fn raise(&self) -> Result<MergeTree, ModelError> {
        MergeTree::from_parents(&self.to_parents())
    }

    /// Parent list in [`MergeTree::from_parents`] form.
    pub fn to_parents(&self) -> Vec<Option<usize>> {
        (0..self.len()).map(|i| self.parent(i)).collect()
    }

    /// The parent of `node`, or `None` for the root.
    pub fn parent(&self, node: usize) -> Option<usize> {
        (node != 0).then(|| self.parent[node] as usize)
    }

    /// The earliest child of `node`, if any.
    pub fn first_child(&self, node: usize) -> Option<usize> {
        match self.first_child[node] {
            NONE => None,
            c => Some(c as usize),
        }
    }

    /// The next-later sibling of `node`, if any.
    pub fn next_sibling(&self, node: usize) -> Option<usize> {
        match self.next_sibling[node] {
            NONE => None,
            s => Some(s as usize),
        }
    }

    /// Children of `node` in arrival (= label) order.
    pub fn children(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.first_child(node), move |&c| self.next_sibling(c))
    }

    /// `z(node)`: the largest label in `node`'s subtree (Lemma 1).
    pub fn last_descendant(&self, node: usize) -> usize {
        self.last_descendant[node] as usize
    }

    /// Root-to-`node` path written into `out` (cleared first), mirroring
    /// [`MergeTree::path_from_root_into`].
    pub fn path_from_root_into(&self, node: usize, out: &mut Vec<usize>) {
        out.clear();
        let mut cur = node;
        out.push(cur);
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out.reverse();
    }

    /// Root-to-`node` path as a fresh vector.
    pub fn path_from_root(&self, node: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.path_from_root_into(node, &mut out);
        out
    }

    /// Preorder traversal (children in arrival order). For any tree built
    /// through [`MergeTree`] or [`Self::push_arrival`] this is `0..len`.
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = Vec::new();
        if !self.is_empty() {
            stack.push(0);
        }
        while let Some(node) = stack.pop() {
            out.push(node);
            // Push children in reverse arrival order so the earliest child
            // is visited first.
            let mut kids: Vec<usize> = self.children(node).collect();
            while let Some(c) = kids.pop() {
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_reset_matches_lowered_singleton() {
        let mut arena = TreeArena::new();
        arena.reset_singleton();
        assert_eq!(arena, TreeArena::lower(&MergeTree::singleton()).unwrap());
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.parent(0), None);
        assert_eq!(arena.last_descendant(0), 0);
    }

    #[test]
    fn push_arrival_rejects_out_of_range_parent() {
        let mut arena = TreeArena::new();
        arena.reset_singleton();
        assert_eq!(
            arena.push_arrival(1),
            Err(ModelError::ParentNotEarlier { node: 1, parent: 1 })
        );
    }

    #[test]
    fn push_arrival_with_visits_the_root_path_once_bottom_up() {
        let mut arena =
            TreeArena::lower(&MergeTree::from_parents(&[None, Some(0), Some(1)]).unwrap()).unwrap();
        let mut seen = Vec::new();
        let node = arena
            .push_arrival_with(2, |a, p| seen.push((a, p)))
            .unwrap();
        assert_eq!(node, 3);
        assert_eq!(seen, vec![(2, Some(1)), (1, Some(0)), (0, None)]);
        assert_eq!(arena.last_descendant(0), 3);
        assert_eq!(arena.last_descendant(1), 3);
        seen.clear();
        assert!(arena
            .push_arrival_with(9, |a, p| seen.push((a, p)))
            .is_err());
        assert!(seen.is_empty(), "a rejected push visits nothing");
    }

    #[test]
    fn capacity_check_is_a_typed_error() {
        assert_eq!(TreeArena::check_capacity(TreeArena::MAX_NODES), Ok(()));
        assert_eq!(
            TreeArena::check_capacity(TreeArena::MAX_NODES + 1),
            Err(ModelError::NodeLimitExceeded {
                nodes: TreeArena::MAX_NODES + 1
            })
        );
    }

    #[test]
    fn chain_and_star_round_trip() {
        for tree in [MergeTree::chain(5), MergeTree::star(5)] {
            let arena = TreeArena::lower(&tree).unwrap();
            assert_eq!(arena.raise().unwrap(), tree);
            assert_eq!(arena.preorder(), tree.preorder());
        }
    }
}
