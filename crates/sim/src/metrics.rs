//! Server bandwidth metering with sparse (difference-array) accounting.
//!
//! A schedule over a long horizon is mostly *quiet*: the number of
//! concurrently transmitting streams changes only when a stream starts or
//! ends, so a profile over `span` slots carrying `m` streams has at most
//! `2m` distinct values. [`BandwidthProfile`] therefore stores only the
//! change-points `(slot, count)` instead of one counter per slot — memory is
//! `O(streams)`, independent of the schedule span. It is the batch view:
//! [`SimReport`](crate::SimReport) carries one for `average()`, `window()`
//! and the capacity planners, while the serving engine keeps only the
//! running peak and total ([`StreamingSummary`](crate::StreamingSummary)),
//! so its memory does not grow with the arrivals.

use crate::schedule::StreamSpec;

/// Piecewise-constant count of concurrently transmitting streams.
///
/// Stored sparsely as change-points: `changes[i] = (slot, count)` means
/// `count` streams are live from `slot` (inclusive) until the next
/// change-point. Slots are strictly increasing, consecutive counts always
/// differ, and the final entry has count 0 (every stream ends), so the
/// covered extent is `[origin(), end())`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BandwidthProfile {
    changes: Vec<(i64, u32)>,
}

impl BandwidthProfile {
    /// Sweeps the schedule into a sparse profile. Zero-length streams carry
    /// no bandwidth and are ignored entirely (they do not extend the span).
    pub fn from_streams(specs: &[StreamSpec]) -> Self {
        Self::from_intervals(
            specs
                .iter()
                .filter(|s| s.length > 0)
                .map(|s| (s.start, s.end())),
        )
    }

    /// Builds the profile of arbitrary half-open `[start, end)` intervals
    /// (one unit of bandwidth each). Empty intervals (`end <= start`) are
    /// ignored.
    pub fn from_intervals(intervals: impl IntoIterator<Item = (i64, i64)>) -> Self {
        let mut deltas: Vec<(i64, i32)> = Vec::new();
        for (start, end) in intervals {
            if end > start {
                deltas.push((start, 1));
                deltas.push((end, -1));
            }
        }
        deltas.sort_unstable();
        let mut changes: Vec<(i64, u32)> = Vec::new();
        let mut cur = 0i64;
        let mut i = 0usize;
        while i < deltas.len() {
            let slot = deltas[i].0;
            let before = cur;
            while i < deltas.len() && deltas[i].0 == slot {
                cur += deltas[i].1 as i64;
                i += 1;
            }
            if cur != before {
                // sm-lint: allow(narrowing-cast) — cur counts concurrently transmitting streams, one per schedule entry, and never goes negative on valid schedules
                changes.push((slot, cur as u32));
            }
        }
        Self { changes }
    }

    /// `true` iff no stream ever transmits.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// First covered slot (0 for an empty profile).
    pub fn origin(&self) -> i64 {
        self.changes.first().map_or(0, |&(s, _)| s)
    }

    /// One past the last covered slot (0 for an empty profile).
    pub fn end(&self) -> i64 {
        self.changes.last().map_or(0, |&(s, _)| s)
    }

    /// Number of slots in the covered extent `[origin(), end())`.
    pub fn span(&self) -> u64 {
        (self.end() - self.origin()) as u64
    }

    /// The change-points `(slot, count)`: strictly increasing slots, each
    /// count holding until the next entry, final count always 0.
    pub fn change_points(&self) -> &[(i64, u32)] {
        &self.changes
    }

    /// Peak concurrent streams (the "maximum bandwidth" of §5's discussion).
    pub fn peak(&self) -> u32 {
        self.changes.iter().map(|&(_, c)| c).max().unwrap_or(0)
    }

    /// Total transmitted slot-units (`= Fcost`).
    pub fn total_units(&self) -> i64 {
        self.changes
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) * w[0].1 as i64)
            .sum()
    }

    /// Average bandwidth over the active extent, in streams.
    pub fn average(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.total_units() as f64 / self.span() as f64
    }

    /// Bandwidth during a specific slot (0 outside the covered extent).
    pub fn at(&self, slot: i64) -> u32 {
        let idx = self.changes.partition_point(|&(s, _)| s <= slot);
        if idx == 0 {
            return 0;
        }
        self.changes[idx - 1].1
    }

    /// Materializes the dense per-slot counts of `[lo, hi)` — the window
    /// view legacy callers (steady-state metering, periodic profiles) need.
    /// Slots outside the covered extent read as 0.
    ///
    /// # Panics
    /// Panics if `hi < lo`.
    pub fn window(&self, lo: i64, hi: i64) -> Vec<u32> {
        assert!(hi >= lo, "window bounds out of order: [{lo}, {hi})");
        let mut out = Vec::with_capacity((hi - lo) as usize);
        let mut idx = self.changes.partition_point(|&(s, _)| s <= lo);
        let mut cur = if idx == 0 { 0 } else { self.changes[idx - 1].1 };
        for slot in lo..hi {
            while idx < self.changes.len() && self.changes[idx].0 <= slot {
                cur = self.changes[idx].1;
                idx += 1;
            }
            out.push(cur);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(node: usize, start: i64, length: i64) -> StreamSpec {
        StreamSpec {
            node,
            start,
            length,
        }
    }

    #[test]
    fn empty_profile() {
        let p = BandwidthProfile::from_streams(&[]);
        assert!(p.is_empty());
        assert_eq!(p.peak(), 0);
        assert_eq!(p.total_units(), 0);
        assert_eq!(p.average(), 0.0);
        assert_eq!(p.span(), 0);
        assert_eq!(p.change_points(), &[]);
    }

    #[test]
    fn single_stream() {
        let p = BandwidthProfile::from_streams(&[spec(0, 3, 4)]);
        assert_eq!(p.origin(), 3);
        assert_eq!(p.end(), 7);
        assert_eq!(p.span(), 4);
        assert_eq!(p.change_points(), &[(3, 1), (7, 0)]);
        assert_eq!(p.window(3, 7), vec![1, 1, 1, 1]);
        assert_eq!(p.peak(), 1);
        assert_eq!(p.total_units(), 4);
        assert_eq!(p.at(3), 1);
        assert_eq!(p.at(7), 0);
        assert_eq!(p.at(0), 0);
    }

    #[test]
    fn overlapping_streams() {
        let p = BandwidthProfile::from_streams(&[spec(0, 0, 5), spec(1, 2, 2), spec(2, 4, 3)]);
        assert_eq!(p.window(0, 7), vec![1, 1, 2, 2, 2, 1, 1]);
        assert_eq!(p.change_points(), &[(0, 1), (2, 2), (5, 1), (7, 0)]);
        assert_eq!(p.peak(), 2);
        assert_eq!(p.total_units(), 10);
    }

    #[test]
    fn zero_length_streams_ignored() {
        let p = BandwidthProfile::from_streams(&[spec(0, 0, 3), spec(1, 1, 0)]);
        assert_eq!(p.total_units(), 3);
        assert_eq!(p.span(), 3);
    }

    #[test]
    fn back_to_back_streams_coalesce() {
        // One ends exactly where the next starts: no change-point between.
        let p = BandwidthProfile::from_streams(&[spec(0, 0, 4), spec(1, 4, 4)]);
        assert_eq!(p.change_points(), &[(0, 1), (8, 0)]);
        assert_eq!(p.total_units(), 8);
    }

    #[test]
    fn window_extends_past_extent_with_zeros() {
        let p = BandwidthProfile::from_streams(&[spec(0, 2, 2)]);
        assert_eq!(p.window(0, 6), vec![0, 0, 1, 1, 0, 0]);
        assert_eq!(p.window(3, 3), Vec::<u32>::new());
    }

    #[test]
    fn from_intervals_matches_from_streams() {
        let specs = [spec(0, -3, 7), spec(1, 0, 2), spec(2, 1, 9)];
        let a = BandwidthProfile::from_streams(&specs);
        let b = BandwidthProfile::from_intervals(specs.iter().map(|s| (s.start, s.end())));
        assert_eq!(a, b);
    }
}
