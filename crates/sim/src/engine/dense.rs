//! The slot-stepped reference engine.
//!
//! Replays every client over every slot of its playback window with dense
//! per-slot scratch vectors. Cost is `O(span × clients)` time and `O(L)`
//! memory per client, which is fine for the paper-scale figures and makes
//! it the easy-to-audit oracle the incremental engine is pinned against.

use super::{checked_schedule, ClientReport, SimConfig, SimReport};
use crate::error::SimError;
use crate::metrics::BandwidthProfile;
use crate::schedule::StreamSpec;
use sm_core::{MergeForest, ReceivingProgram};

/// Simulates a merge forest over slotted arrivals on the slot-stepped
/// oracle, whatever the order of `times`.
///
/// Runs the same input checks as [`super::simulate_with`], then sweeps
/// every client over its playback window. Reports are in arrival-index
/// order; the error is the lowest-index client's.
pub fn simulate(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    let specs = checked_schedule(forest, times, media_len)?;
    let clients = run(forest, times, &specs, media_len, config)?;
    Ok(SimReport {
        bandwidth: BandwidthProfile::from_streams(&specs),
        total_units: specs.iter().map(|s| s.length).sum(),
        clients,
    })
}

/// Runs the dense engine over the forest's broadcast schedule `specs`,
/// returning the reports in arrival-index order.
fn run(
    forest: &MergeForest,
    times: &[i64],
    specs: &[StreamSpec],
    media_len: u64,
    config: SimConfig,
) -> Result<Vec<ClientReport>, SimError> {
    let mut clients = Vec::with_capacity(times.len());
    for (range, tree) in forest.iter_with_ranges() {
        let base = range.start;
        let local_times = &times[range.clone()];
        let local_specs = &specs[range.clone()];
        for c in 0..tree.len() {
            let report = run_client(tree, local_times, local_specs, media_len, base, c, config)?;
            clients.push(report);
        }
    }
    Ok(clients)
}

fn run_client(
    tree: &sm_core::MergeTree,
    local_times: &[i64],
    local_specs: &[StreamSpec],
    media_len: u64,
    base: usize,
    c: usize,
    config: SimConfig,
) -> Result<ClientReport, SimError> {
    let media = media_len as i64;
    let t_c = local_times[c];
    let global = base + c;
    let prog = ReceivingProgram::build(tree, local_times, media_len, c);
    prog.verify(local_times, media_len)
        .map_err(SimError::Model)?;

    // receive_end[q]: instant part q is fully received (from the schedule).
    let mut receive_end = vec![i64::MAX; (media + 1) as usize];
    // Reception concurrency per slot offset (program spans [t_c, t_c+media)).
    let mut concurrency = vec![0usize; media as usize + 1];
    for seg in &prog.segments {
        if seg.is_empty() {
            continue;
        }
        let spec = &local_specs[seg.stream];
        for part in seg.first_part..=seg.last_part {
            // The stream must actually broadcast the part.
            let Some(slot) = spec.broadcast_slot(part) else {
                return Err(SimError::StreamTooShort {
                    client: global,
                    stream: base + seg.stream,
                    part,
                    length: spec.length,
                });
            };
            // Playback deadline: part q plays during [t_c+q−1, t_c+q); it
            // must be broadcast no later than that same slot.
            let deadline = t_c + part - 1;
            if slot > deadline {
                return Err(SimError::Stall {
                    client: global,
                    part,
                    received: slot,
                    deadline,
                });
            }
            receive_end[part as usize] = slot + 1;
            let off = (slot - t_c).clamp(0, media) as usize;
            concurrency[off] += 1;
        }
    }

    // Receive-two: in any slot, parts arrive from at most two distinct
    // streams; because each stream contributes at most one part per slot,
    // per-slot part count == per-slot stream count.
    let mut max_concurrent = 0usize;
    for (off, &cnt) in concurrency.iter().enumerate() {
        if cnt > 2 {
            return Err(SimError::ReceiveTwoViolation {
                client: global,
                slot: t_c + off as i64,
                count: cnt,
            });
        }
        max_concurrent = max_concurrent.max(cnt);
    }

    // Buffer occupancy sweep and minimum slack.
    let mut max_buffer = 0i64;
    let mut min_slack = i64::MAX;
    for q in 1..=media {
        let deadline_end = t_c + q; // playback slot ends here
        let slack = deadline_end - receive_end[q as usize];
        min_slack = min_slack.min(slack);
    }
    for tau in t_c..=(t_c + media) {
        let received = (1..=media)
            .filter(|&q| receive_end[q as usize] <= tau)
            .count() as i64;
        let played = (tau - t_c).clamp(0, media);
        max_buffer = max_buffer.max(received - played);
    }
    if let Some(bound) = config.buffer_bound {
        if max_buffer > bound as i64 {
            return Err(SimError::BufferOverflow {
                client: global,
                needed: max_buffer,
                bound,
            });
        }
    }
    Ok(ClientReport {
        client: global,
        max_buffer,
        max_concurrent,
        min_slack,
    })
}
