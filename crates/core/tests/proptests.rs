//! Property tests for the model layer: invariants that must hold for *any*
//! structurally valid merge tree over any strictly increasing time axis.

use proptest::prelude::*;
use sm_core::{
    buffer, consecutive_slots, lengths, merge_cost, receive_all_lengths, MergeTree, ModelError,
    ReceiveAllProgram, ReceivingProgram,
};

/// Strategy: a random merge tree (every node picks an earlier parent).
fn arb_tree(max_n: usize) -> impl Strategy<Value = MergeTree> {
    (1..=max_n).prop_flat_map(|n| {
        let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
        parents.prop_map(move |ps| {
            let mut v: Vec<Option<usize>> = vec![None];
            v.extend(ps.into_iter().map(Some));
            MergeTree::from_parents(&v).expect("parent < child by construction")
        })
    })
}

/// Strategy: a tree grown one [`MergeTree::push_arrival`] at a time. Most
/// arrivals merge into a node on the latest arrival's root path, which keeps
/// the preorder-traversal property; about one in four picks any earlier node
/// instead, which usually breaks it.
fn arb_grown_tree(max_n: usize) -> impl Strategy<Value = MergeTree> {
    proptest::collection::vec((0usize..4, 0usize..1 << 20), 0..max_n).prop_map(|picks| {
        let mut tree = MergeTree::singleton();
        for (kind, pick) in picks {
            let node = tree.len();
            let parent = if kind == 0 {
                pick % node
            } else {
                let path = tree.path_from_root(node - 1);
                path[pick % path.len()]
            };
            tree.push_arrival(parent)
                .expect("parent < node by construction");
        }
        tree
    })
}

/// Explicit child lists built from the parent array, each in increasing
/// label order — the stored representation the derived traversals replace,
/// kept here only as their test oracle.
fn reference_children(tree: &MergeTree) -> Vec<Vec<usize>> {
    let mut children = vec![Vec::new(); tree.len()];
    for (c, p) in tree.to_parents().into_iter().enumerate() {
        if let Some(p) = p {
            children[p].push(c);
        }
    }
    children
}

/// Preorder over explicit child lists, by an explicit stack.
fn reference_preorder(children: &[Vec<usize>]) -> Vec<usize> {
    let mut out = Vec::with_capacity(children.len());
    let mut stack = vec![0usize];
    while let Some(node) = stack.pop() {
        out.push(node);
        stack.extend(children[node].iter().rev());
    }
    out
}

/// S-expression over explicit child lists, by recursion.
fn reference_sexpr(children: &[Vec<usize>], node: usize) -> String {
    let mut s = format!("({node}");
    for &c in &children[node] {
        s.push(' ');
        s.push_str(&reference_sexpr(children, c));
    }
    s.push(')');
    s
}

/// Checks every derived traversal of `tree` against the child-list oracle.
fn assert_traversals_match_reference(tree: &MergeTree) {
    let children = reference_children(tree);
    for (x, kids) in children.iter().enumerate() {
        assert_eq!(&tree.children(x).collect::<Vec<_>>(), kids, "children({x})");
    }
    let preorder = reference_preorder(&children);
    assert_eq!(&tree.preorder(), &preorder);
    assert_eq!(tree.to_sexpr(), reference_sexpr(&children, 0));
    let first_violation = preorder
        .iter()
        .enumerate()
        .find(|&(expected, &found)| expected != found)
        .map(|(expected, &found)| ModelError::PreorderViolation { expected, found });
    assert_eq!(tree.check_preorder_property().err(), first_violation);
    assert_eq!(tree.has_preorder_property(), first_violation.is_none());
    let max_depth = (0..tree.len()).map(|i| tree.depth(i)).max().unwrap_or(0);
    assert_eq!(tree.height(), max_depth);
}

/// Strategy: strictly increasing i64 times of the given length.
fn arb_times(n: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(1i64..=9, n).prop_map(|gaps| {
        let mut t = 0i64;
        gaps.into_iter()
            .map(|g| {
                t += g;
                t
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn preorder_roundtrip((tree, _) in arb_tree(30).prop_map(|t| (t.clone(), t))) {
        // to_parents/from_parents is the identity.
        let back = MergeTree::from_parents(&tree.to_parents()).unwrap();
        prop_assert_eq!(&tree, &back);
        // Preorder visits every node exactly once.
        let mut seen = tree.preorder();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..tree.len()).collect::<Vec<_>>());
    }

    #[test]
    fn derived_traversals_match_child_lists(tree in arb_tree(30)) {
        assert_traversals_match_reference(&tree);
    }

    #[test]
    fn derived_traversals_match_child_lists_on_grown_trees(tree in arb_grown_tree(40)) {
        assert_traversals_match_reference(&tree);
        // Growing is the arrival-at-a-time mirror of the batch constructor.
        prop_assert_eq!(&MergeTree::from_parents(&tree.to_parents()).unwrap(), &tree);
    }

    #[test]
    fn last_descendant_is_subtree_max(tree in arb_tree(30)) {
        for x in 0..tree.len() {
            let z = tree.last_descendant(x);
            prop_assert!(z >= x);
            // z's path to the root passes through x.
            let path = tree.path_from_root(z);
            prop_assert!(path.contains(&x), "z({x}) = {z}, path {path:?}");
        }
    }

    #[test]
    fn lengths_lemma1_identities(tree in arb_tree(25)) {
        let n = tree.len();
        let times = consecutive_slots(n);
        let l = lengths(&tree, &times);
        let w = receive_all_lengths(&tree, &times);
        for x in 1..n {
            let p = tree.parent(x).unwrap() as i64;
            let z = tree.last_descendant(x) as i64;
            // ℓ(x) = 2z − x − p and ω(x) = z − p, on consecutive slots.
            prop_assert_eq!(l[x], 2 * z - x as i64 - p);
            prop_assert_eq!(w[x], z - p);
            // Leaves: ℓ = x − p.
            if tree.children(x).next().is_none() {
                prop_assert_eq!(l[x], x as i64 - p);
            }
            // Receive-all never longer than receive-two.
            prop_assert!(w[x] <= l[x]);
        }
    }

    #[test]
    fn merge_cost_translation_invariant(
        tree in arb_tree(20),
        offset in 0i64..1000,
    ) {
        let n = tree.len();
        let base = consecutive_slots(n);
        let shifted: Vec<i64> = base.iter().map(|t| t + offset).collect();
        prop_assert_eq!(merge_cost(&tree, &base), merge_cost(&tree, &shifted));
    }

    #[test]
    fn receiving_programs_cover_when_media_large(tree in arb_tree(18)) {
        // With L ≥ 2n the program always covers 1..=L and obeys receive-two.
        let n = tree.len();
        let times = consecutive_slots(n);
        let media = 2 * n as u64 + 2;
        for c in 0..n {
            let prog = ReceivingProgram::build(&tree, &times, media, c);
            prog.verify(&times, media).unwrap();
            prog.check_receive_two(&times).unwrap();
            prop_assert_eq!(prog.total_parts(), media as i64);
        }
    }

    #[test]
    fn observed_buffer_matches_lemma15(tree in arb_tree(15)) {
        let n = tree.len();
        let times = consecutive_slots(n);
        let media = 2 * n as u64 + 2;
        for c in 0..n {
            prop_assert_eq!(
                buffer::max_buffer_observed(&tree, &times, media, c),
                buffer::required_buffer(&tree, &times, media, c),
                "client {} of {}", c, tree.to_sexpr()
            );
        }
    }

    #[test]
    fn receive_all_programs_cover_and_stay_within_omega(tree in arb_tree(18)) {
        // Lemma 17: the receive-all program covers 1..=L, pulls at most
        // ω(x) parts from each non-root stream, and listens to exactly its
        // path depth + 1 streams.
        let n = tree.len();
        let times = consecutive_slots(n);
        let media = 2 * n as u64 + 2;
        let omega = receive_all_lengths(&tree, &times);
        let mut max_part = vec![0i64; n];
        for c in 0..n {
            let prog = ReceiveAllProgram::build(&tree, &times, media, c);
            prog.verify(&times, media, &tree).unwrap();
            prop_assert_eq!(prog.total_parts(), media as i64);
            prop_assert!(prog.max_concurrent() <= tree.depth(c) + 1);
            for seg in &prog.segments {
                if !seg.is_empty() && seg.stream != 0 {
                    max_part[seg.stream] = max_part[seg.stream].max(seg.last_part);
                }
            }
        }
        // The deepest demand on each stream is exactly its ω length —
        // receive-all streams are as short as Lemma 17 allows.
        for x in 1..n {
            prop_assert_eq!(max_part[x], omega[x], "stream {}", x);
        }
    }

    #[test]
    fn receive_all_buffer_never_negative_and_bounded_by_media(tree in arb_tree(15)) {
        let n = tree.len();
        let times = consecutive_slots(n);
        let media = 2 * n as u64 + 2;
        for c in 0..n {
            let prog = ReceiveAllProgram::build(&tree, &times, media, c);
            let b = prog.required_buffer(&times, media);
            prop_assert!(b >= 0);
            prop_assert!(b <= media as i64);
        }
    }

    #[test]
    fn general_times_respect_parts_accounting(
        (tree, times) in arb_tree(12).prop_flat_map(|t| {
            let n = t.len();
            (Just(t), arb_times(n))
        })
    ) {
        // Max part pulled from each stream equals its Lemma-1 length, for
        // arbitrary (not just consecutive) times — if the media is long
        // enough for the program to be feasible.
        let n = tree.len();
        let span = times[n - 1] - times[0];
        let media = (4 * span + 4) as u64;
        let l = lengths(&tree, &times);
        let mut max_part = vec![0i64; n];
        for c in 0..n {
            let prog = ReceivingProgram::build(&tree, &times, media, c);
            prog.verify(&times, media).unwrap();
            for seg in &prog.segments {
                if !seg.is_empty() && seg.stream != 0 {
                    max_part[seg.stream] = max_part[seg.stream].max(seg.last_part);
                }
            }
        }
        for x in 1..n {
            prop_assert_eq!(max_part[x], l[x], "stream {}", x);
        }
    }
}
