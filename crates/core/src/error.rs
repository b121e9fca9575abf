//! Error types for model construction and validation.

use std::fmt;

/// Everything that can go wrong constructing or validating a merge
/// tree/forest or a receiving program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A tree must contain at least one node.
    EmptyTree,
    /// The root (local index 0) must not have a parent.
    RootHasParent,
    /// Non-root node `node` is missing a parent.
    MissingParent { node: usize },
    /// A stream can only merge to an *earlier* stream (paper §2: parent
    /// label < child label).
    ParentNotEarlier { node: usize, parent: usize },
    /// The tree does not satisfy the preorder-traversal property (required
    /// of *optimal* trees, Lemma from \[6\] quoted in §2).
    PreorderViolation { expected: usize, found: usize },
    /// Arrival times are not strictly increasing.
    TimesNotSorted,
    /// Tree/forest shape disagrees with the arrival-time slice it indexes.
    TimesLengthMismatch { nodes: usize, times: usize },
    /// The last arrival of a tree is too far from its root: the paper
    /// requires `z − r ≤ L − 1` so the root stream can serve everyone.
    SpanExceedsStream { root: usize, last: usize },
    /// A non-root stream's mandated length `ℓ(x)` exceeds the media length,
    /// i.e. the schedule would have to broadcast past the end of the media.
    LengthExceedsMedia { node: usize },
    /// A client would need more buffer than the stated bound `B`.
    BufferExceeded {
        node: usize,
        needed: u64,
        bound: u64,
    },
    /// A receiving program asked for a part outside `1..=L`.
    PartOutOfRange { part: i64 },
    /// A receiving program does not deliver the media contiguously.
    CoverageGap { expected_part: i64, found_part: i64 },
    /// More than two streams would have to be received simultaneously in the
    /// receive-two model.
    TooManyConcurrentStreams { time: i64, count: usize },
    /// Forests must tile the arrival sequence left to right.
    ForestNotContiguous { tree: usize },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyTree => write!(f, "merge tree must contain at least one arrival"),
            Self::RootHasParent => write!(f, "root node must not have a parent"),
            Self::MissingParent { node } => {
                write!(f, "non-root node {node} has no parent")
            }
            Self::ParentNotEarlier { node, parent } => write!(
                f,
                "node {node} merges to {parent}, but streams may only merge to earlier streams"
            ),
            Self::PreorderViolation { expected, found } => write!(
                f,
                "preorder traversal produced arrival {found} where {expected} was expected"
            ),
            Self::TimesNotSorted => write!(f, "arrival times must be strictly increasing"),
            Self::TimesLengthMismatch { nodes, times } => write!(
                f,
                "tree has {nodes} nodes but was given {times} arrival times"
            ),
            Self::SpanExceedsStream { root, last } => write!(
                f,
                "arrival {last} is too far from root {root}: span must be at most L-1"
            ),
            Self::LengthExceedsMedia { node } => write!(
                f,
                "stream {node} would need to broadcast past the end of the media"
            ),
            Self::BufferExceeded {
                node,
                needed,
                bound,
            } => write!(
                f,
                "client {node} needs a buffer of {needed} slots, exceeding the bound {bound}"
            ),
            Self::PartOutOfRange { part } => {
                write!(
                    f,
                    "receiving program references part {part}, outside the media"
                )
            }
            Self::CoverageGap {
                expected_part,
                found_part,
            } => write!(
                f,
                "receiving program skips from part {expected_part} to {found_part}"
            ),
            Self::TooManyConcurrentStreams { time, count } => write!(
                f,
                "client must receive {count} streams at slot {time}, but receive-two allows 2"
            ),
            Self::ForestNotContiguous { tree } => write!(
                f,
                "forest tree {tree} does not start where the previous tree ended"
            ),
        }
    }
}

impl std::error::Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable() {
        let msgs = [
            ModelError::EmptyTree.to_string(),
            ModelError::RootHasParent.to_string(),
            ModelError::ParentNotEarlier { node: 3, parent: 5 }.to_string(),
            ModelError::BufferExceeded {
                node: 1,
                needed: 9,
                bound: 4,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&ModelError::EmptyTree);
    }
}
