//! The execution engines.
//!
//! Two engines replay every client's receiving program against the
//! concrete broadcast schedule and fail with the *first* violation —
//! stall, receive-two breach, buffer overflow, or a program/schedule
//! mismatch:
//!
//! * [`incremental`] — the production engine: arrivals push in one at a
//!   time ([`IncrementalEngine::push`]), the open merge tree and its
//!   tentative Lemma-1 specs grow in place, and reports stream out as
//!   deadlines fire during ingest — no forest, no horizon, no times slice
//!   up front, memory proportional to the *open* trees and active streams.
//! * [`dense`] — the original slot-stepped oracle: every client is swept
//!   over every slot of its playback window (`O(clients · L²)` time,
//!   `O(L)` scratch per client). Simple, and kept as the reference.
//!
//! The batch API in this module is a thin layer over the two: on
//! nondecreasing arrival times (every real workload) [`simulate_with`]
//! and [`simulate_streaming_slice`] replay the `(forest, times)` pair
//! through [`simulate_incremental`]; globally unsorted times, which only
//! tests build, run the dense oracle. The oracle's own entry point is
//! [`dense::simulate`]. Both engines produce bit-identical reports and
//! first errors (pinned by the `engine_equivalence` proptest suite).

pub mod dense;
pub mod incremental;

use crate::error::SimError;
use crate::metrics::BandwidthProfile;
use crate::schedule::{checked_media_len, stream_schedule, StreamSpec};
use sm_core::MergeForest;

pub use incremental::{
    simulate_incremental, Attach, IncrementalEngine, IncrementalSummary, IngestError,
    StreamingSummary,
};

/// Execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimConfig {
    /// Fail if a client would need more than this many buffered parts.
    pub buffer_bound: Option<u64>,
}

impl SimConfig {
    /// The default configuration; equal to [`SimConfig::default`].
    pub fn events() -> Self {
        Self::default()
    }
}

/// Per-client measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReport {
    /// Global arrival index.
    pub client: usize,
    /// Peak number of parts held in the buffer.
    pub max_buffer: i64,
    /// Peak number of simultaneously received streams.
    pub max_concurrent: usize,
    /// Slack (in slots) between each part's arrival and its playback,
    /// minimised over parts: 0 means some part arrives just in time.
    pub min_slack: i64,
}

/// Whole-run measurements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Server bandwidth at its change-points (sparse), swept from the
    /// forest's broadcast schedule.
    pub bandwidth: BandwidthProfile,
    /// Total transmitted slot-units (must equal the analytic `Fcost`).
    pub total_units: i64,
    /// Per-client reports, by global arrival index.
    pub clients: Vec<ClientReport>,
}

/// Simulates with default configuration (the production path).
pub fn simulate(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
) -> Result<SimReport, SimError> {
    simulate_with(forest, times, media_len, SimConfig::default())
}

/// Simulates a merge forest over slotted arrivals.
///
/// Every client of every tree is executed: its receiving program is built
/// from the tree structure, then *checked against the broadcast schedule*
/// (the schedule knows only stream lengths; the program knows only the
/// tree path — agreement is the Lemma 1 ↔ §2 consistency the paper relies
/// on).
///
/// Nondecreasing times replay through the [`IncrementalEngine`]; globally
/// unsorted times run the [`dense`] oracle. An empty forest over zero
/// arrivals yields an empty report. Reports are in arrival-index order;
/// the error is the lowest-index client's.
pub fn simulate_with(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    if !times.is_sorted() {
        return dense::simulate(forest, times, media_len, config);
    }
    let specs = checked_schedule(forest, times, media_len)?;
    // Sorted times: deadline order is index order, so the emitted reports
    // arrive already in report order.
    let mut clients = Vec::with_capacity(times.len());
    let summary = replay_sorted(forest, times, media_len, config, |r| clients.push(r))?;
    Ok(SimReport {
        bandwidth: BandwidthProfile::from_streams(&specs),
        total_units: summary.total_units,
        clients,
    })
}

/// The input checks both engines' batch runs start with, in order: one
/// arrival time per node, a media length that fits the signed slot
/// arithmetic, and a derivable broadcast schedule, which is returned.
fn checked_schedule(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
) -> Result<Vec<StreamSpec>, SimError> {
    if times.len() != forest.total_arrivals() {
        return Err(SimError::Model(sm_core::ModelError::TimesLengthMismatch {
            nodes: forest.total_arrivals(),
            times: times.len(),
        }));
    }
    checked_media_len(media_len)?;
    stream_schedule(forest, times, media_len)
}

/// [`simulate_incremental`] as the batch API sees it: the summary without
/// the retention gauge, and ingest errors as [`SimError`]s.
fn replay_sorted<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    emit: F,
) -> Result<StreamingSummary, SimError> {
    simulate_incremental(forest, times, media_len, config, emit)
        .map(|run| run.summary)
        .map_err(SimError::from)
}

/// Simulation with streaming per-client reports over an arrival-times
/// slice.
///
/// `emit` is called once per client, in part-deadline order (`t_c + L`,
/// ties by arrival index). On nondecreasing arrival times (the model's
/// canonical form) the arrivals are replayed through the
/// [`IncrementalEngine`], so each report is emitted as soon as the
/// client's program completes and retention tracks the *open* trees, and
/// the run fails at the first violating part-deadline — which on sorted
/// times is also the lowest-index violation. Globally unsorted times run
/// the [`dense`] oracle instead: reports are emitted in the same
/// part-deadline order after the whole run succeeds, and the error is the
/// oracle's lowest-index one, exactly what [`simulate_with`] returns.
///
/// Returns the whole-run aggregates.
pub fn simulate_streaming_slice<F: FnMut(ClientReport)>(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
    mut emit: F,
) -> Result<StreamingSummary, SimError> {
    if times.is_sorted() {
        return replay_sorted(forest, times, media_len, config, emit);
    }
    let report = dense::simulate(forest, times, media_len, config)?;
    let mut clients = report.clients;
    // Stable: deadline ties keep arrival-index order.
    clients.sort_by_key(|r| times[r.client]);
    clients.into_iter().for_each(&mut emit);
    Ok(StreamingSummary {
        peak_streams: report.bandwidth.peak(),
        total_units: report.total_units,
        clients: times.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, full_cost, required_buffer, MergeTree};

    type Run = fn(&MergeForest, &[i64], u64, SimConfig) -> Result<SimReport, SimError>;

    /// The oracle and the production batch path, by name.
    const ENGINES: [(&str, Run); 2] = [("dense", dense::simulate), ("events", simulate_with)];

    fn fig4_forest() -> MergeForest {
        MergeForest::single(
            MergeTree::from_parents(&[
                None,
                Some(0),
                Some(0),
                Some(0),
                Some(3),
                Some(0),
                Some(5),
                Some(5),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn fig3_executes_cleanly() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (_, run) in ENGINES {
            let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
            assert_eq!(report.total_units, 36);
            assert_eq!(report.total_units, full_cost(&forest, &times, 15));
            assert_eq!(report.clients.len(), 8);
        }
    }

    #[test]
    fn measured_buffers_match_lemma15() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (engine, run) in ENGINES {
            let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
            let tree = &forest.trees()[0];
            for cr in &report.clients {
                assert_eq!(
                    cr.max_buffer,
                    required_buffer(tree, &times, 15, cr.client),
                    "client {} ({engine})",
                    cr.client
                );
            }
        }
    }

    #[test]
    fn no_client_exceeds_two_streams() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (_, run) in ENGINES {
            let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
            for cr in &report.clients {
                assert!(cr.max_concurrent <= 2);
            }
        }
    }

    #[test]
    fn stall_detected_when_media_too_short() {
        // The Fig. 4 shape with L = 8: client 7's program needs parts past
        // what the root can deliver in time.
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (engine, run) in ENGINES {
            let err = run(&forest, &times, 8, SimConfig::default()).unwrap_err();
            // Either a coverage failure or a stall, depending on which
            // client trips first — both are model-consistency failures.
            match err {
                SimError::Model(_) | SimError::Stall { .. } | SimError::StreamTooShort { .. } => {}
                other => panic!("unexpected error {other:?} ({engine})"),
            }
        }
    }

    #[test]
    fn buffer_bound_enforced() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (engine, run) in ENGINES {
            let err = run(
                &forest,
                &times,
                15,
                SimConfig {
                    buffer_bound: Some(3),
                },
            )
            .unwrap_err();
            assert!(matches!(err, SimError::BufferOverflow { .. }), "{engine}");
        }
    }

    #[test]
    fn slack_is_zero_for_just_in_time_parts() {
        // Clients receive their first parts exactly as they play them.
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (engine, run) in ENGINES {
            let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
            for cr in &report.clients {
                assert_eq!(cr.min_slack, 0, "client {} ({engine})", cr.client);
            }
        }
    }

    #[test]
    fn bandwidth_profile_peaks_match_fig3() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        for (_, run) in ENGINES {
            let report = run(&forest, &times, 15, SimConfig::default()).unwrap();
            // At slot 7 streams A, D(3..8), F(5..14), H(7..9) are live -> 4
            // concurrent; G lives only in slot 6..7.
            assert!(report.bandwidth.peak() >= 4);
            assert_eq!(report.bandwidth.total_units(), 36);
        }
    }

    #[test]
    fn multi_tree_forest_simulates() {
        let t = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let forest = MergeForest::from_trees(vec![t.clone(), t]).unwrap();
        let times = consecutive_slots(6);
        for (_, run) in ENGINES {
            let report = run(&forest, &times, 10, SimConfig::default()).unwrap();
            assert_eq!(report.total_units, 2 * 10 + 3 + 3);
        }
    }

    #[test]
    fn empty_forest_yields_empty_report() {
        // Regression: zero arrivals used to be unconstructible/panicky; it
        // must now produce an empty report on both engines.
        let forest = MergeForest::empty();
        for (_, run) in ENGINES {
            let report = run(&forest, &[], 15, SimConfig::default()).unwrap();
            assert_eq!(report.total_units, 0);
            assert!(report.clients.is_empty());
            assert!(report.bandwidth.is_empty());
            assert_eq!(report.bandwidth.peak(), 0);
        }
    }

    #[test]
    fn single_arrival_forest_simulates() {
        let forest = MergeForest::single(MergeTree::singleton());
        let times = [5i64];
        for (_, run) in ENGINES {
            let report = run(&forest, &times, 12, SimConfig::default()).unwrap();
            assert_eq!(report.total_units, 12);
            assert_eq!(report.clients.len(), 1);
            let cr = &report.clients[0];
            assert_eq!(cr.max_buffer, 0);
            assert_eq!(cr.max_concurrent, 1);
            assert_eq!(cr.min_slack, 0);
            assert_eq!(report.bandwidth.peak(), 1);
        }
    }

    #[test]
    fn zero_media_len_simulates_to_nothing() {
        // Regression: L = 0 exercised the per-slot vectors' edge cases. A
        // forest of singleton trees is the only feasible shape (no parts to
        // deliver, so every receiving program is empty).
        let trees = vec![MergeTree::singleton(); 3];
        let forest = MergeForest::from_trees(trees).unwrap();
        let times = [0i64, 4, 9];
        for (_, run) in ENGINES {
            let report = run(&forest, &times, 0, SimConfig::default()).unwrap();
            assert_eq!(report.total_units, 0);
            assert_eq!(report.clients.len(), 3);
            for cr in &report.clients {
                assert_eq!(cr.max_buffer, 0);
                assert_eq!(cr.max_concurrent, 0);
                assert_eq!(cr.min_slack, i64::MAX, "no parts -> vacuous slack");
            }
        }
    }

    #[test]
    fn unsorted_sibling_times_agree_with_dense_on_reports_and_first_error() {
        // Sibling order need not follow time order (`from_parents` only
        // constrains indices): with times [0, 5, 2] client 2's part-deadline
        // fires before client 1's, but the reported error must still be
        // client 1's, the dense index-order scan's. Globally unsorted times
        // take the dense oracle from the production entry point too.
        let tree = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let forest = MergeForest::single(tree);
        let times = [0i64, 5, 2];
        let ok_dense = dense::simulate(&forest, &times, 40, SimConfig::default());
        let ok_events = simulate_with(&forest, &times, 40, SimConfig::default());
        assert!(ok_dense.is_ok());
        assert_eq!(ok_dense, ok_events);
        let bounded = SimConfig {
            buffer_bound: Some(0),
        };
        let err_dense = dense::simulate(&forest, &times, 40, bounded).unwrap_err();
        let err_events = simulate_with(&forest, &times, 40, bounded).unwrap_err();
        assert_eq!(err_dense, err_events);
        assert!(matches!(
            err_dense,
            SimError::BufferOverflow { client: 1, .. }
        ));
    }

    #[test]
    fn spaced_singleton_trees_stream_in_arrival_order() {
        // Singleton trees at widely spaced times: every client's deadline
        // passes before the next tree opens, so reports stream out one per
        // tree, in arrival order.
        let n = 64usize;
        let media = 5u64;
        let trees = vec![MergeTree::singleton(); n];
        let forest = MergeForest::from_trees(trees).unwrap();
        let times: Vec<i64> = (0..n as i64).map(|i| i * 100).collect();
        let mut served = 0usize;
        let summary = simulate_streaming_slice(&forest, &times, media, SimConfig::default(), |r| {
            assert_eq!(r.client, served, "deadline order is arrival order");
            served += 1;
        })
        .unwrap();
        assert_eq!(served, n);
        assert_eq!(summary.total_units, n as i64 * media as i64);
        assert_eq!(summary.peak_streams, 1);
    }

    #[test]
    fn deep_chain_tree_streams_cleanly() {
        // One maximal-depth feasible chain: L ≥ 2(c − 1) with consecutive
        // arrivals. Exercises the sweep on many-segment programs.
        let media = 60u64;
        let c = (media / 2 + 1) as usize;
        let forest = MergeForest::single(MergeTree::chain(c));
        let times = consecutive_slots(c);
        let mut reports = Vec::new();
        let summary = simulate_streaming_slice(&forest, &times, media, SimConfig::default(), |r| {
            reports.push(r)
        })
        .unwrap();
        assert_eq!(reports.len(), c);
        assert_eq!(summary.total_units, full_cost(&forest, &times, media));
        for r in &reports {
            assert!(r.max_concurrent <= 2);
        }
    }

    #[test]
    fn media_len_overflow_is_rejected_up_front() {
        let forest = MergeForest::single(MergeTree::singleton());
        for (_, run) in ENGINES {
            let err = run(&forest, &[0], u64::MAX, SimConfig::default()).unwrap_err();
            assert!(matches!(err, SimError::MediaLenOverflow { .. }));
        }
    }
}
