//! Multicast channel assignment.
//!
//! The paper's system model (§1) has three components: clients, a server —
//! and *channels* "on which the transmissions are broadcast". A schedule's
//! streams are time intervals; mapping them onto physical multicast
//! channels is interval-graph coloring, which the classic greedy sweep
//! solves optimally: the number of channels needed equals the peak number
//! of concurrently live streams (the clique number).
//!
//! This gives the reproduction a concrete server front-end: after planning
//! a forest, [`assign_channels`] places every stream on the channel a real
//! multicast head-end would broadcast it on, and proves the plan fits a
//! channel budget iff the budget covers the measured peak.

use crate::schedule::StreamSpec;

/// A stream's placement on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelSlot {
    /// Index into the input stream list.
    pub stream_index: usize,
    /// Assigned channel (0-based).
    pub channel: u32,
}

/// The complete channel plan.
#[derive(Debug, Clone)]
pub struct ChannelPlan {
    /// One entry per input stream, in input order.
    pub assignments: Vec<ChannelSlot>,
    /// Number of channels used (optimal: equals peak concurrency).
    pub channels_used: u32,
}

/// Assigns streams to channels with the greedy sweep (optimal for interval
/// graphs): process streams by start time, reuse the channel freed
/// earliest, open a new one only when every channel is busy.
///
/// Zero-length streams consume no channel time and are assigned channel 0.
pub fn assign_channels(specs: &[StreamSpec]) -> ChannelPlan {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| (specs[i].start, specs[i].end()));

    // Min-heap of (end_time, channel) for busy channels; free list of
    // channels available for reuse.
    let mut busy: BinaryHeap<Reverse<(i64, u32)>> = BinaryHeap::new();
    let mut free: Vec<u32> = Vec::new();
    let mut next_channel = 0u32;
    let mut assignments = vec![
        ChannelSlot {
            stream_index: 0,
            channel: 0
        };
        specs.len()
    ];

    for &i in &order {
        let s = &specs[i];
        if s.length <= 0 {
            assignments[i] = ChannelSlot {
                stream_index: i,
                channel: 0,
            };
            continue;
        }
        // Release channels whose stream ended by this start.
        while let Some(&Reverse((end, ch))) = busy.peek() {
            if end <= s.start {
                busy.pop();
                free.push(ch);
            } else {
                break;
            }
        }
        let ch = free.pop().unwrap_or_else(|| {
            let c = next_channel;
            next_channel += 1;
            c
        });
        busy.push(Reverse((s.end(), ch)));
        assignments[i] = ChannelSlot {
            stream_index: i,
            channel: ch,
        };
    }
    ChannelPlan {
        assignments,
        channels_used: next_channel,
    }
}

/// Checks a plan: no two streams on one channel may overlap in time.
pub fn verify_plan(specs: &[StreamSpec], plan: &ChannelPlan) -> Result<(), (usize, usize)> {
    let mut by_channel: std::collections::HashMap<u32, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, a) in plan.assignments.iter().enumerate() {
        if specs[i].length > 0 {
            by_channel.entry(a.channel).or_default().push(i);
        }
    }
    for streams in by_channel.values() {
        let mut sorted: Vec<usize> = streams.clone();
        sorted.sort_by_key(|&i| specs[i].start);
        for w in sorted.windows(2) {
            if specs[w[0]].end() > specs[w[1]].start {
                return Err((w[0], w[1]));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BandwidthProfile;
    use crate::schedule::stream_schedule;
    use sm_core::consecutive_slots;

    fn spec(node: usize, start: i64, length: i64) -> StreamSpec {
        StreamSpec {
            node,
            start,
            length,
        }
    }

    #[test]
    fn disjoint_streams_share_one_channel() {
        let specs = [spec(0, 0, 3), spec(1, 3, 3), spec(2, 6, 1)];
        let plan = assign_channels(&specs);
        assert_eq!(plan.channels_used, 1);
        verify_plan(&specs, &plan).unwrap();
    }

    #[test]
    fn overlapping_streams_need_distinct_channels() {
        let specs = [spec(0, 0, 10), spec(1, 1, 5), spec(2, 2, 2)];
        let plan = assign_channels(&specs);
        assert_eq!(plan.channels_used, 3);
        verify_plan(&specs, &plan).unwrap();
    }

    #[test]
    fn channel_count_equals_peak_bandwidth() {
        // Greedy interval coloring is optimal: channels == peak concurrency.
        for (media_len, n) in [(15u64, 8usize), (100, 300), (30, 77)] {
            let plan = sm_offline_forest(media_len, n);
            let times = consecutive_slots(n);
            let specs = stream_schedule(&plan, &times, media_len).unwrap();
            let channels = assign_channels(&specs);
            verify_plan(&specs, &channels).unwrap();
            let peak = BandwidthProfile::from_streams(&specs).peak();
            assert_eq!(channels.channels_used, peak, "L = {media_len}, n = {n}");
        }
    }

    // Local helper: build an optimal forest without depending on sm-offline
    // in the main [dependencies] (it is a dev-dependency).
    fn sm_offline_forest(media_len: u64, n: usize) -> sm_core::MergeForest {
        sm_offline::forest::optimal_forest(media_len, n).forest
    }

    #[test]
    fn same_channel_streams_never_overlap() {
        let specs = [spec(0, 0, 4), spec(1, 1, 2), spec(2, 4, 3), spec(3, 5, 1)];
        let mut plan = assign_channels(&specs);
        verify_plan(&specs, &plan).unwrap();
        // Stream 1 overlaps stream 0: moving it onto 0's channel is caught.
        plan.assignments[1].channel = plan.assignments[0].channel;
        assert_eq!(verify_plan(&specs, &plan), Err((0, 1)));
    }

    #[test]
    fn zero_length_streams_are_harmless() {
        let specs = [spec(0, 0, 3), spec(1, 1, 0), spec(2, 1, 1)];
        let plan = assign_channels(&specs);
        verify_plan(&specs, &plan).unwrap();
        assert_eq!(plan.channels_used, 2);
    }
}
