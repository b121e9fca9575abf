//! Oracle equivalence: the production path must reproduce the dense
//! slot-stepped oracle (`engine::dense::simulate`) *bit for bit* — the engine's running bandwidth peak
//! and total against the peak and total of the oracle's schedule-swept
//! profile, same per-client `max_buffer`/`max_concurrent`/`min_slack`,
//! and the same first error on infeasible inputs — across randomized
//! forests, arrival sequences, media lengths, and buffer bounds. On sorted
//! times every batch entry point replays through the push-based
//! incremental engine, so each case holds three surfaces of that engine
//! against the dense oracle: the collected `simulate_with` report, the
//! streaming API (`simulate_streaming_slice`: summary, reports, emission
//! order, first error), and
//! `simulate_incremental` itself (the same, plus its retention bound).

use proptest::prelude::*;
use sm_core::{consecutive_slots, MergeForest, MergeTree};
use sm_sim::engine::dense;
use sm_sim::{
    simulate_incremental, simulate_streaming_slice, simulate_with, ClientReport, IngestError,
    SimConfig, SimError, SimReport,
};

/// The dense oracle and the collected production path over one input.
fn run_both(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
) -> (
    Result<SimReport, sm_sim::SimError>,
    Result<SimReport, sm_sim::SimError>,
) {
    let config = SimConfig { buffer_bound };
    let dense = dense::simulate(forest, times, media_len, config);
    let events = simulate_with(forest, times, media_len, config);
    (dense, events)
}

/// Runs the streaming API, collecting emitted reports in emission order.
fn run_streaming(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
) -> (
    Result<sm_sim::StreamingSummary, SimError>,
    Vec<ClientReport>,
) {
    let mut emitted = Vec::new();
    let summary =
        simulate_streaming_slice(forest, times, media_len, SimConfig { buffer_bound }, |r| {
            emitted.push(r)
        });
    (summary, emitted)
}

/// The dense report's clients in part-deadline order (`t_c + L`, ties by
/// arrival index) — the order the streaming API emits in. For sorted times
/// that is arrival order.
fn deadline_order(report: &SimReport, times: &[i64]) -> Vec<ClientReport> {
    let mut clients = report.clients.clone();
    clients.sort_by_key(|r| times[r.client]);
    clients
}

/// The streaming API must agree with the collected dense report: the peak
/// and total of the dense oracle's schedule-swept bandwidth profile, same
/// per-client measurements, and the same first error — with emissions
/// arriving in part-deadline order.
fn assert_streaming_matches(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
    dense: &Result<SimReport, SimError>,
) {
    let (summary, emitted) = run_streaming(forest, times, media_len, buffer_bound);
    match (dense, summary) {
        (Ok(report), Ok(summary)) => {
            assert_eq!(summary.peak_streams, report.bandwidth.peak());
            assert_eq!(summary.total_units, report.bandwidth.total_units());
            assert_eq!(summary.clients, report.clients.len());
            assert_eq!(emitted, deadline_order(report, times), "emission order");
        }
        (Err(report_err), Err(stream_err)) => {
            // On sorted times the stream fails at the first part-deadline
            // violation, which is the lowest-index one; unsorted times run
            // the dense oracle itself.
            assert_eq!(*report_err, stream_err, "first error must pin");
        }
        (report, summary) => {
            panic!("streaming/collected feasibility disagreement: {report:?} vs {summary:?}")
        }
    }
}

/// The push-based incremental engine replayed over the same arrivals must
/// be bit-identical to the dense report on every *sorted* input (the push
/// interface's clock contract): the running peak and total match the dense
/// oracle's schedule-swept profile, and the reports, their emission order
/// and the first error are the same.
fn assert_incremental_matches(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
    dense: &Result<SimReport, SimError>,
) {
    if !times.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    let mut emitted = Vec::new();
    let got = simulate_incremental(forest, times, media_len, SimConfig { buffer_bound }, |r| {
        emitted.push(r)
    });
    match (dense, got) {
        (Ok(report), Ok(inc)) => {
            assert_eq!(inc.summary.peak_streams, report.bandwidth.peak());
            assert_eq!(inc.summary.total_units, report.bandwidth.total_units());
            assert_eq!(inc.summary.clients, report.clients.len());
            assert_eq!(emitted, report.clients, "incremental emission order");
            assert!(
                inc.max_open_trees <= forest.num_trees().max(1),
                "retention may never exceed the tree count"
            );
        }
        (Err(batch_err), Err(IngestError::Sim(ingest_err))) => {
            assert_eq!(ingest_err, *batch_err, "first error must pin");
        }
        (batch, ingest) => {
            panic!("incremental/dense feasibility disagreement: {batch:?} vs {ingest:?}")
        }
    }
}

/// Full bit-for-bit comparison, plus internal-consistency checks on success.
fn assert_engines_agree(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    buffer_bound: Option<u64>,
) {
    let (dense, events) = run_both(forest, times, media_len, buffer_bound);
    assert_eq!(dense, events, "L = {media_len}, n = {}", times.len());
    assert_streaming_matches(forest, times, media_len, buffer_bound, &dense);
    assert_incremental_matches(forest, times, media_len, buffer_bound, &dense);
    if let Ok(report) = events {
        assert_eq!(report.bandwidth.total_units(), report.total_units);
        // Per-slot bandwidth agreement at every change-point (and just
        // before it, exercising the piecewise-constant lookup).
        let dense_bw = dense.as_ref().unwrap().bandwidth.clone();
        for &(slot, count) in report.bandwidth.change_points() {
            assert_eq!(dense_bw.at(slot), count);
            assert_eq!(report.bandwidth.at(slot), count);
            assert_eq!(dense_bw.at(slot - 1), report.bandwidth.at(slot - 1));
        }
        assert_eq!(report.clients.len(), times.len());
        for (i, cr) in report.clients.iter().enumerate() {
            assert_eq!(cr.client, i, "reports must be in arrival order");
        }
    }
}

/// Strictly increasing, irregular arrival times from positive gaps.
fn cumulate(gaps: &[i64]) -> Vec<i64> {
    let mut t = 0i64;
    gaps.iter()
        .map(|&g| {
            let at = t;
            t += g;
            at
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimal_forests_agree(media_len in 2u64..64, n in 1usize..60) {
        let plan = sm_offline::forest::optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        assert_engines_agree(&plan.forest, &times, media_len, None);
    }

    #[test]
    fn optimal_forests_agree_under_buffer_bounds(
        media_len in 4u64..40,
        n in 1usize..40,
        bound in 0u64..6,
    ) {
        // Bounds small enough to trip BufferOverflow on many cases: the
        // engines must agree on the Ok reports *and* on the exact error.
        let plan = sm_offline::forest::optimal_forest(media_len, n);
        let times = consecutive_slots(n);
        assert_engines_agree(&plan.forest, &times, media_len, Some(bound));
    }

    #[test]
    fn delay_guaranteed_forests_agree(media_len in 2u64..48, n in 1usize..130) {
        let alg = sm_online::DelayGuaranteedOnline::new(media_len);
        let forest = alg.forest_after(n);
        let times = consecutive_slots(n);
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn general_dp_forests_agree_on_irregular_arrivals(
        gaps in proptest::collection::vec(1i64..5, 1..24),
        media_len in 4u64..24,
    ) {
        let times = cumulate(&gaps);
        let (forest, cost) = sm_offline::general::optimal_forest(&times, media_len);
        assert_engines_agree(&forest, &times, media_len, None);
        let (_, events) = run_both(&forest, &times, media_len, None);
        prop_assert_eq!(events.unwrap().total_units, cost);
    }

    #[test]
    fn deep_chain_forests_agree(
        media_len in 8u64..64,
        n in 1usize..120,
    ) {
        // The pathological many-segment case the endpoint sweep exists for:
        // maximal feasible chains (length L/2 + 1) tiled over the arrivals.
        let chain = (media_len / 2 + 1) as usize;
        let mut trees = Vec::new();
        let mut left = n;
        while left > 0 {
            let k = left.min(chain);
            trees.push(MergeTree::chain(k));
            left -= k;
        }
        let forest = MergeForest::from_trees(trees).unwrap();
        let times = consecutive_slots(n);
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn arbitrary_trees_agree_including_errors(
        seeds in proptest::collection::vec(0u64..1_000_000, 1..12),
        media_len in 1u64..18,
    ) {
        // Random (frequently infeasible) parent structures: the engines
        // must return identical errors, not just identical successes.
        let parents: Vec<Option<usize>> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| if i == 0 { None } else { Some((s as usize) % i) })
            .collect();
        let tree = MergeTree::from_parents(&parents).unwrap();
        let n = parents.len();
        let forest = MergeForest::single(tree);
        let times = consecutive_slots(n);
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn simultaneous_arrivals_pin_both_engines(
        seeds in proptest::collection::vec(0u64..1_000_000_000, 2..40),
        media_len in 2u64..20,
    ) {
        // A flash-crowd generator: each seed decides a gap (0 with high
        // probability, so duplicate timestamps pile up both *within* a
        // title's tree and *across* tree boundaries), whether the arrival
        // opens a new title's tree, and where it merges. Tie-breaking —
        // deadline ties resolve in arrival-index order, co-arrival streams
        // start at the same slot — must pin identically across the dense
        // and incremental engines.
        let mut times = Vec::with_capacity(seeds.len());
        let mut parents_by_tree: Vec<Vec<Option<usize>>> = Vec::new();
        let mut t = 0i64;
        for (i, &s) in seeds.iter().enumerate() {
            t += match s % 5 { 0..=2 => 0, 3 => 1, _ => 2 };
            times.push(t);
            if i == 0 || (s / 5) % 4 == 0 {
                parents_by_tree.push(vec![None]);
            } else {
                let open = parents_by_tree.last_mut().unwrap();
                let parent = (s / 20) as usize % open.len();
                open.push(Some(parent));
            }
        }
        let trees: Vec<MergeTree> = parents_by_tree
            .iter()
            .map(|p| MergeTree::from_parents(p).unwrap())
            .collect();
        let forest = MergeForest::from_trees(trees).unwrap();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "generator premise");
        assert_engines_agree(&forest, &times, media_len, None);
    }

    #[test]
    fn joiner_groups_pin_both_engines_under_buffer_bounds(
        seeds in proptest::collection::vec(0u64..1_000_000_000, 1..24),
        media_len in 2u64..24,
        bound in 0u64..12,
    ) {
        // The serving loop's batching shape: each seed is a group head that
        // either opens a new tree or merges under an arbitrary earlier head
        // of the open tree, followed by 0–3 joiners merged at its slot
        // under a head of that slot — its own, or an earlier tied head's,
        // so groups interleave. The incremental engine re-emits a head's
        // report for its joiners, so under a buffer bound the head's own
        // error must still fire first, at the head's index.
        let mut parents_by_tree: Vec<Vec<Option<usize>>> = Vec::new();
        let mut heads: Vec<usize> = Vec::new();
        let mut tied_heads: Vec<usize> = Vec::new();
        let mut times = Vec::new();
        let mut t = 0i64;
        for (i, &s) in seeds.iter().enumerate() {
            let gap = if i == 0 { 0 } else { (s % 3) as i64 };
            t += gap;
            if i == 0 || (s / 3) % 4 == 0 {
                parents_by_tree.push(vec![None]);
                heads.clear();
                tied_heads.clear();
            } else {
                let up = heads[(s / 12) as usize % heads.len()];
                parents_by_tree.last_mut().unwrap().push(Some(up));
            }
            if gap > 0 {
                tied_heads.clear();
            }
            let open = parents_by_tree.last_mut().unwrap();
            heads.push(open.len() - 1);
            tied_heads.push(open.len() - 1);
            times.push(t);
            let mut pick = s / 12_000;
            for _ in 0..pick % 4 {
                pick /= 4;
                // This slot's newest head, or the one before it.
                let back = ((pick % 2) as usize).min(tied_heads.len() - 1);
                let up = tied_heads[tied_heads.len() - 1 - back];
                open.push(Some(up));
                times.push(t);
            }
        }
        let trees: Vec<MergeTree> = parents_by_tree
            .iter()
            .map(|p| MergeTree::from_parents(p).unwrap())
            .collect();
        let forest = MergeForest::from_trees(trees).unwrap();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "generator premise");
        assert_engines_agree(&forest, &times, media_len, None);
        assert_engines_agree(&forest, &times, media_len, Some(bound));
    }

    #[test]
    fn adversarial_mixed_forests_pin_both_engines(
        seeds in proptest::collection::vec(0u64..1_000_000_000, 1..36),
        media_len in 0u64..12,
    ) {
        // One forest deliberately mixing the degenerate shapes: media_len
        // can be 0 (every part-deadline fires at the arrival slot itself,
        // and the only feasible merge chain is the trivial one),
        // single-arrival trees, maximum-depth chains (L/2 + 1, the longest
        // feasible chain), overlong chains that *exceed* that depth, and
        // zero-gap arrival ties within and across tree boundaries. Many
        // cases are infeasible by construction — the dense and incremental
        // engines must agree bit for bit on the Ok runs and pin the exact
        // same first error everywhere else.
        let max_chain = (media_len / 2 + 1) as usize;
        let mut trees = Vec::new();
        let mut times = Vec::with_capacity(seeds.len());
        let mut t = 0i64;
        let mut i = 0usize;
        while i < seeds.len() {
            let s = seeds[i];
            let remaining = seeds.len() - i;
            let k = match s % 3 {
                0 => 1,                        // single-arrival tree
                1 => max_chain.min(remaining), // deepest feasible chain
                // Short chains that may exceed the feasible depth when
                // media_len is tiny: the infeasibility generator.
                _ => (1 + (s / 3) as usize % 4).min(remaining),
            };
            trees.push(MergeTree::chain(k));
            for j in 0..k {
                if i + j > 0 {
                    t += match (s / 12 + j as u64) % 4 {
                        0 | 1 => 0, // pile up ties
                        2 => 1,
                        _ => 2,
                    };
                }
                times.push(t);
            }
            i += k;
        }
        let forest = MergeForest::from_trees(trees).unwrap();
        prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "generator premise");
        assert_engines_agree(&forest, &times, media_len, None);
    }
}

#[test]
fn unsorted_times_stream_from_the_dense_oracle_in_deadline_order() {
    // Sibling order need not follow time order; globally unsorted times
    // route the streaming API through the dense oracle. Feasible: reports
    // come out in part-deadline order, client 2 (t = 2) before client 1
    // (t = 5). Infeasible: client 2's deadline fires first, but the error
    // is the oracle's lowest-index one (client 1) and nothing is emitted.
    let tree = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
    let forest = MergeForest::single(tree);
    let times = [0i64, 5, 2];
    assert!(times.windows(2).any(|w| w[0] > w[1]), "premise: unsorted");

    let (summary, emitted) = run_streaming(&forest, &times, 40, None);
    let order: Vec<usize> = emitted.iter().map(|r| r.client).collect();
    assert_eq!(order, [0, 2, 1]);
    let dense = dense::simulate(&forest, &times, 40, SimConfig::default());
    assert_eq!(
        summary.unwrap().total_units,
        dense.as_ref().unwrap().total_units
    );
    assert_streaming_matches(&forest, &times, 40, None, &dense);

    let (summary, emitted) = run_streaming(&forest, &times, 40, Some(0));
    assert!(emitted.is_empty(), "a failed oracle run emits nothing");
    let err = summary.unwrap_err();
    assert!(
        matches!(err, SimError::BufferOverflow { client: 1, .. }),
        "{err:?}"
    );
    let dense_err = dense::simulate(
        &forest,
        &times,
        40,
        SimConfig {
            buffer_bound: Some(0),
        },
    )
    .unwrap_err();
    assert_eq!(err, dense_err);
}
