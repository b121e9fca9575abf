//! Client buffer requirements (§3.3, Lemma 15).
//!
//! A client arriving at `x` in a tree rooted at `r` needs a buffer of
//! exactly `b(x) = min(x − r, L − (x − r))` parts: while it receives two
//! streams it accumulates one extra part per slot, peaking when it merges to
//! the root (or when the root stream ends, whichever binds first).
//!
//! [`max_buffer_observed`] recomputes occupancy slot-by-slot from the
//! receiving program — an independent check of the closed form used by
//! tests and the simulator.

use crate::receiving::ReceivingProgram;
use crate::tree::MergeTree;

/// Lemma 15: the closed-form buffer requirement, in parts, for the client at
/// local arrival `client`.
///
/// # Panics
/// Panics if `times.len() != tree.len()`.
pub fn required_buffer(tree: &MergeTree, times: &[i64], media_len: u64, client: usize) -> i64 {
    assert_eq!(times.len(), tree.len());
    let span = times[client] - times[0];
    span.min(media_len as i64 - span)
}

/// Buffer occupancy of `client` at each instant, derived by replaying its
/// receiving program: a part occupies the buffer from the end of the slot in
/// which it is received until the end of the slot in which it is played.
///
/// Returns `(instant, occupancy)` pairs for every integer instant from the
/// client's arrival to the end of its playback.
fn buffer_profile(
    tree: &MergeTree,
    times: &[i64],
    media_len: u64,
    client: usize,
) -> Vec<(i64, i64)> {
    let prog = ReceivingProgram::build(tree, times, media_len, client);
    let t_c = times[client];
    let media = media_len as i64;
    // receive_end[q] = instant the part q is fully received.
    let mut receive_end = vec![i64::MAX; (media + 1) as usize];
    for seg in &prog.segments {
        if seg.is_empty() {
            continue;
        }
        for part in seg.first_part..=seg.last_part {
            if (1..=media).contains(&part) {
                let end = ReceivingProgram::receive_slot(times, seg, part) + 1;
                receive_end[part as usize] = receive_end[part as usize].min(end);
            }
        }
    }
    let horizon = t_c + media; // playback ends at t_c + L
    let mut profile = Vec::with_capacity((horizon - t_c + 1) as usize);
    for tau in t_c..=horizon {
        let received = (1..=media)
            .filter(|&q| receive_end[q as usize] <= tau)
            .count() as i64;
        let played = (tau - t_c).clamp(0, media);
        profile.push((tau, received - played));
    }
    profile
}

/// The observed buffer requirement: the peak of the client's occupancy
/// replayed slot by slot from its receiving program.
pub fn max_buffer_observed(tree: &MergeTree, times: &[i64], media_len: u64, client: usize) -> i64 {
    buffer_profile(tree, times, media_len, client)
        .into_iter()
        .map(|(_, b)| b)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::consecutive_slots;

    fn fig4() -> MergeTree {
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
        .unwrap()
    }

    #[test]
    fn lemma15_closed_form_examples() {
        let t = fig4();
        let times = consecutive_slots(8);
        // L = 15: x - r <= 7 < L/2, so b(x) = x - r everywhere here.
        for c in 0..8 {
            assert_eq!(required_buffer(&t, &times, 15, c), c as i64);
        }
        // Small L flips the min: with L = 10, client 7 buffers 10-7 = 3.
        assert_eq!(required_buffer(&t, &times, 10, 7), 3);
    }

    #[test]
    fn observed_buffer_matches_lemma15_on_fig4() {
        let t = fig4();
        let times = consecutive_slots(8);
        for c in 0..8 {
            let closed = required_buffer(&t, &times, 15, c);
            let observed = max_buffer_observed(&t, &times, 15, c);
            assert_eq!(observed, closed, "client {c}");
        }
    }

    #[test]
    fn observed_buffer_matches_lemma15_on_chain_and_star() {
        for n in [2usize, 3, 5, 7] {
            let times = consecutive_slots(n);
            let media = 2 * n as u64 + 3;
            for tree in [MergeTree::chain(n), MergeTree::star(n)] {
                for c in 0..n {
                    assert_eq!(
                        max_buffer_observed(&tree, &times, media, c),
                        required_buffer(&tree, &times, media, c),
                        "n = {n}, client {c}, tree = {}",
                        tree.to_sexpr()
                    );
                }
            }
        }
    }

    #[test]
    fn root_needs_no_buffer() {
        let t = fig4();
        let times = consecutive_slots(8);
        assert_eq!(required_buffer(&t, &times, 15, 0), 0);
        assert_eq!(max_buffer_observed(&t, &times, 15, 0), 0);
    }

    #[test]
    fn profile_starts_and_ends_empty() {
        let t = fig4();
        let times = consecutive_slots(8);
        let profile = buffer_profile(&t, &times, 15, 7);
        assert_eq!(profile.first().unwrap().1, 0);
        assert_eq!(profile.last().unwrap().1, 0);
    }
}
