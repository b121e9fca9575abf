//! Continuous-time verification for forests over real arrival times (the
//! dyadic algorithm's native domain).
//!
//! The slotted engine replays integer parts; in continuous time a "part"
//! becomes a media *position* and every §2 quantity carries over with real
//! arithmetic. For a client at `x_k` on root path `x_0 < … < x_k`, the
//! receive-two rules say it takes positions
//!
//! ```text
//! (2t_k − t_{j+1} − t_j ,  2t_k − t_j − t_{j−1} ]   from stream x_j
//! ```
//!
//! (conventions as in `sm-core::receiving`). This module checks, for every
//! client of a continuous forest:
//!
//! * coverage: the position intervals tile `(0, L]`;
//! * timeliness: position `q` from stream `y` is broadcast at `t_y + q`,
//!   no later than its playback instant `t_c + q`;
//! * supply: no stream is asked for positions beyond its Lemma-1 length;
//! * receive-two: at any instant at most two streams are being received.

use sm_core::{cost, MergeForest};

/// One client's continuous receiving interval from one stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PositionInterval {
    /// Local index of the source stream.
    pub stream: usize,
    /// Exclusive lower media position.
    pub from: f64,
    /// Inclusive upper media position.
    pub to: f64,
}

/// Violations detectable in the continuous model.
#[derive(Debug, Clone, PartialEq)]
pub enum ContinuousError {
    /// Intervals do not tile `(0, L]` for `client` (gap at `position`).
    CoverageGap { client: usize, position: f64 },
    /// Stream `stream` would need length `needed`, beyond its Lemma-1
    /// truncation `available`.
    SupplyExceeded {
        client: usize,
        stream: usize,
        needed: f64,
        available: f64,
    },
    /// A position would arrive after its playback instant.
    Late {
        client: usize,
        position: f64,
        slack: f64,
    },
    /// More than two simultaneous source streams.
    ReceiveTwoViolation { client: usize, instant: f64 },
}

/// Builds the position intervals of one client (tree-local index).
fn position_intervals(
    tree: &sm_core::MergeTree,
    times: &[f64],
    media_len: f64,
    client: usize,
) -> Vec<PositionInterval> {
    let path = tree.path_from_root(client);
    let k = path.len() - 1;
    let tk = times[path[k]];
    let mut out = Vec::with_capacity(path.len());
    for j in (0..=k).rev() {
        let tj = times[path[j]];
        let t_above = if j == k { tk } else { times[path[j + 1]] };
        let from = 2.0 * tk - t_above - tj;
        let to = if j == 0 {
            media_len
        } else {
            2.0 * tk - tj - times[path[j - 1]]
        };
        out.push(PositionInterval {
            stream: path[j],
            from,
            to,
        });
    }
    out
}

/// Verifies every client of a continuous forest. `eps` absorbs f64 noise.
pub fn verify_continuous(
    forest: &MergeForest,
    times: &[f64],
    media_len: f64,
    eps: f64,
) -> Result<(), ContinuousError> {
    for (range, tree) in forest.iter_with_ranges() {
        let base = range.start;
        let local = &times[range];
        let lengths = cost::lengths(tree, local);
        for c in 0..tree.len() {
            let t_c = local[c];
            let ivs = position_intervals(tree, local, media_len, c);
            // Coverage: contiguous from 0 to L.
            let mut expected = 0.0f64;
            for iv in &ivs {
                if iv.to < iv.from - eps {
                    continue; // empty interval
                }
                if (iv.from - expected).abs() > eps {
                    return Err(ContinuousError::CoverageGap {
                        client: base + c,
                        position: expected,
                    });
                }
                // Supply: the stream must actually run this long.
                let available = if iv.stream == 0 {
                    media_len
                } else {
                    lengths[iv.stream]
                };
                if iv.to > available + eps {
                    return Err(ContinuousError::SupplyExceeded {
                        client: base + c,
                        stream: base + iv.stream,
                        needed: iv.to,
                        available,
                    });
                }
                // Timeliness: position q arrives at t_stream + q, plays at
                // t_c + q; sources are earlier, so slack = t_c − t_stream.
                let slack = t_c - local[iv.stream];
                if slack < -eps {
                    return Err(ContinuousError::Late {
                        client: base + c,
                        position: iv.from,
                        slack,
                    });
                }
                expected = iv.to;
            }
            if (expected - media_len).abs() > eps {
                return Err(ContinuousError::CoverageGap {
                    client: base + c,
                    position: expected,
                });
            }
            // Receive-two: the client listens to stream x_j during the
            // real-time window (2t_k − t_{j+1}, 2t_k − t_{j−1}]. The
            // windows of x_{j+1} and x_{j−1} meet only at the single
            // instant 2t_k − t_j, so with *strictly increasing* path times
            // at most two windows overlap — structural, provided the path
            // really is increasing; verify that explicitly.
            let path = tree.path_from_root(c);
            for w in path.windows(2) {
                if local[w[1]] <= local[w[0]] + 0.0 {
                    return Err(ContinuousError::ReceiveTwoViolation {
                        client: base + c,
                        instant: local[w[1]],
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::MergeTree;
    use sm_online::dyadic::{dyadic_forest, DyadicConfig};

    #[test]
    fn integer_case_matches_slotted_model() {
        // Fig. 4 tree on real times must verify for L = 15.
        let tree = MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap();
        let times: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let forest = MergeForest::single(tree);
        verify_continuous(&forest, &times, 15.0, 1e-9).unwrap();
    }

    #[test]
    fn dyadic_output_verifies() {
        for cfg in [DyadicConfig::classic(), DyadicConfig::golden_poisson()] {
            let mut t = 0.0;
            let times: Vec<f64> = (0..120)
                .map(|i| {
                    t += 0.13 + (i % 7) as f64 * 0.05;
                    t
                })
                .collect();
            let forest = dyadic_forest(cfg, 25.0, &times);
            verify_continuous(&forest, &times, 25.0, 1e-9)
                .unwrap_or_else(|e| panic!("{cfg:?}: {e:?}"));
        }
    }

    #[test]
    fn position_intervals_match_integer_programs() {
        // Against the slotted receiving program for client H of Fig. 4:
        // parts {1,2} ↔ positions (0,2], {3..9} ↔ (2,9], {10..15} ↔ (9,15].
        let tree = MergeTree::from_parents(&[
            None,
            Some(0),
            Some(0),
            Some(0),
            Some(3),
            Some(0),
            Some(5),
            Some(5),
        ])
        .unwrap();
        let times: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let ivs = position_intervals(&tree, &times, 15.0, 7);
        assert_eq!(ivs.len(), 3);
        assert_eq!((ivs[0].from, ivs[0].to), (0.0, 2.0));
        assert_eq!((ivs[1].from, ivs[1].to), (2.0, 9.0));
        assert_eq!((ivs[2].from, ivs[2].to), (9.0, 15.0));
    }

    #[test]
    fn too_short_media_detected() {
        let tree = MergeTree::chain(4);
        let times: Vec<f64> = vec![0.0, 1.0, 2.0, 3.0];
        let forest = MergeForest::single(tree);
        // L = 4: chain needs ℓ(1) = 2·3 − 1 = 5 > 4.
        let err = verify_continuous(&forest, &times, 4.0, 1e-9).unwrap_err();
        assert!(matches!(
            err,
            ContinuousError::SupplyExceeded { .. } | ContinuousError::CoverageGap { .. }
        ));
    }
}
