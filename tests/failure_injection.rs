//! Failure injection: the verifiers must *reject* corrupted artifacts, not
//! just accept correct ones. Each test takes a known-good object, applies a
//! specific corruption, and asserts the referee catches it.

use stream_merging::broadcast::plan::{Segment, SegmentPlan};
use stream_merging::broadcast::verify::{check_deadlines, verify_all_phases};
use stream_merging::core::{
    consecutive_slots, validate_forest, MergeForest, MergeTree, ModelError, ReceivingProgram,
    ValidationOptions,
};
use stream_merging::offline::forest::optimal_forest;
use stream_merging::sim::{simulate_with, SimConfig};

#[test]
fn stretched_tree_span_is_rejected() {
    // A tree whose last arrival sits L slots after its root cannot be
    // served by the root stream (the paper: z − r ≤ L − 1).
    let tree = MergeTree::star(3);
    let times: Vec<i64> = vec![0, 1, 10];
    let forest = MergeForest::single(tree);
    let err = validate_forest(&forest, &times, 10, ValidationOptions::default()).unwrap_err();
    assert_eq!(err, ModelError::SpanExceedsStream { root: 0, last: 2 });
}

#[test]
fn stream_past_media_end_is_rejected() {
    // ℓ(x) = 2z − x − p: an inner node whose subtree stretches far needs a
    // stream longer than the media.
    let tree = MergeTree::from_parents(&[None, Some(0), Some(1)]).unwrap();
    let times: Vec<i64> = vec![0, 1, 6];
    // ℓ(node 1) = 2·6 − 1 − 0 = 11 > L = 8, though the span 6 ≤ 7 is fine.
    let forest = MergeForest::single(tree);
    let err = validate_forest(&forest, &times, 8, ValidationOptions::default()).unwrap_err();
    assert_eq!(err, ModelError::LengthExceedsMedia { node: 1 });
}

#[test]
fn buffer_bound_violations_are_caught_by_the_simulator() {
    // The optimal L=15, n=8 plan needs buffers up to min(d, L−d); a bound
    // of 1 must fail in the simulator (and in validation).
    let plan = optimal_forest(15, 8);
    let times = consecutive_slots(8);
    let err = simulate_with(
        &plan.forest,
        &times,
        15,
        SimConfig {
            buffer_bound: Some(1),
        },
    );
    assert!(err.is_err(), "buffer bound 1 must be violated");
    // A generous bound passes.
    simulate_with(
        &plan.forest,
        &times,
        15,
        SimConfig {
            buffer_bound: Some(7),
        },
    )
    .unwrap();
}

#[test]
fn receiving_program_with_wrong_media_is_rejected() {
    let tree = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
    let times = consecutive_slots(3);
    let prog = ReceivingProgram::build(&tree, &times, 10, 2);
    prog.verify(&times, 10).unwrap();
    // Claiming a different media length breaks coverage.
    assert!(prog.verify(&times, 9).is_err());
}

#[test]
fn broadcast_stretched_period_is_caught() {
    // Fast-broadcasting shape is feasible; stretching a mid segment's
    // period (same length, sparser instances) starves some phase.
    let good = SegmentPlan::new(vec![
        Segment::back_to_back(1),
        Segment::back_to_back(2),
        Segment::back_to_back(4),
    ])
    .unwrap();
    verify_all_phases(&good, None, 10_000).unwrap();
    let bad = SegmentPlan::new(vec![
        Segment::back_to_back(1),
        Segment {
            length: 2,
            period: 7,
            offset: 0,
        },
        Segment::back_to_back(4),
    ])
    .unwrap();
    assert!(verify_all_phases(&bad, None, 10_000).is_err());
    // The analytic check agrees.
    assert!(check_deadlines(&good).is_ok());
    assert!(check_deadlines(&bad).is_err());
}

#[test]
fn broadcast_shifted_offset_agreement() {
    // Shifting a segment's phase may or may not break feasibility; whatever
    // happens, the analytic check and the sweep must agree.
    for offset in 0..6u64 {
        let plan = SegmentPlan::new(vec![
            Segment::back_to_back(2),
            Segment {
                length: 6,
                period: 6,
                offset,
            },
        ])
        .unwrap();
        let analytic = check_deadlines(&plan).is_ok();
        let swept = verify_all_phases(&plan, None, 10_000).is_ok();
        assert_eq!(analytic, swept, "offset {offset}");
    }
}

#[test]
fn broadcast_swapped_segments_are_caught() {
    // Playing the big segment first inverts the deadline structure: the
    // small late segment is fine, but the big first segment forces a huge
    // start-up period — callers relying on `delay_bound` would mis-provision,
    // and deadline feasibility breaks for the late small segment.
    let swapped =
        SegmentPlan::new(vec![Segment::back_to_back(8), Segment::back_to_back(1)]).unwrap();
    // Segment 1 has period 1 so it is always catchable — but its deadline
    // is 8 units out while the *first* segment dictates an 8-unit delay
    // bound: the report must expose the bad delay.
    let report = verify_all_phases(&swapped, None, 10_000).unwrap();
    assert_eq!(report.worst_delay, 7);
    // The properly ordered plan has delay 0 at integer phases.
    let proper =
        SegmentPlan::new(vec![Segment::back_to_back(1), Segment::back_to_back(8)]).unwrap();
    // 8 > 1 + prefix(=1): the doubling limit is violated — infeasible.
    assert!(verify_all_phases(&proper, None, 10_000).is_err());
}
