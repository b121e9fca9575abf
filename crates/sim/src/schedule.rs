//! Concrete broadcast schedules: the Fig.-3 view of a merge forest.

use crate::error::SimError;
use sm_core::MergeForest;

/// One scheduled stream: starts at slot `start`, broadcasts parts
/// `1..=length` in consecutive slots (part `q` during `[start+q−1, start+q)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Global arrival index that initiated the stream.
    pub node: usize,
    /// Start slot.
    pub start: i64,
    /// Number of parts broadcast (truncated length; `L` for roots).
    pub length: i64,
}

impl StreamSpec {
    /// Slot in which `part` is broadcast, if the stream carries it.
    pub fn broadcast_slot(&self, part: i64) -> Option<i64> {
        (1..=self.length)
            .contains(&part)
            .then(|| self.start + part - 1)
    }

    /// End time of the stream (exclusive).
    pub fn end(&self) -> i64 {
        self.start + self.length
    }
}

/// The concrete schedule of one tree of a forest: `specs[x]` is the stream
/// of local node `x`, so slicing `times`/reports by `base..base + len` stays
/// aligned with the tree the specs came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeSchedule {
    /// Index of the tree within the forest.
    pub tree: usize,
    /// Global arrival index of the tree's first node.
    pub base: usize,
    /// The tree's streams, in local node order.
    pub specs: Vec<StreamSpec>,
}

impl TreeSchedule {
    /// Number of arrivals (and streams) in the tree.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// A tree always has at least one arrival.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Total slot-units this tree transmits (its share of `Fcost`).
    pub fn total_units(&self) -> i64 {
        self.specs.iter().map(|s| s.length).sum()
    }
}

/// Lazy, per-tree view of a forest's broadcast schedule.
///
/// Yields one [`TreeSchedule`] per tree, in forest order, deriving each
/// tree's Lemma-1 stream lengths only when the tree is pulled — the whole
/// forest is never materialized at once, so a consumer that drops trees as
/// it finishes with them (the dynamic server's materializer) holds
/// `O(active trees)` schedule memory instead of `O(arrivals)`. The
/// simulator's engines do not read it: the dense oracle takes the eager
/// [`stream_schedule`], and the incremental engine grows each tree's specs
/// as arrivals attach.
///
/// Construction fails with [`SimError::MediaLenOverflow`] when `media_len`
/// does not fit the signed slot arithmetic; iteration itself is infallible.
#[derive(Debug)]
pub struct ScheduleStream<'a> {
    forest: &'a MergeForest,
    times: &'a [i64],
    media: i64,
    next_tree: usize,
    base: usize,
}

impl<'a> ScheduleStream<'a> {
    /// Opens the schedule of `forest` over `times` for a media of
    /// `media_len` parts.
    ///
    /// # Panics
    /// Iteration panics if `times` is shorter than the forest's arrivals
    /// (callers validate lengths up front, as [`stream_schedule`] always
    /// has).
    pub fn new(
        forest: &'a MergeForest,
        times: &'a [i64],
        media_len: u64,
    ) -> Result<Self, SimError> {
        let media = checked_media_len(media_len)?;
        Ok(Self {
            forest,
            times,
            media,
            next_tree: 0,
            base: 0,
        })
    }

    /// Number of trees not yet yielded.
    fn remaining_trees(&self) -> usize {
        self.forest.num_trees() - self.next_tree
    }

    /// Number of arrivals (equivalently, stream specs) the remaining walk
    /// will yield — exact, since every arrival carries exactly one stream.
    /// The arrival-granularity sibling of the iterator's `size_hint` (which
    /// counts trees): consumers that flatten many schedules back to back (the
    /// dynamic server's materializer draining a depth-K backlog of planned
    /// epochs) use it to pre-size their spec sinks from the stream's own
    /// contract instead of re-deriving the count from the forest they built.
    pub fn remaining_arrivals(&self) -> usize {
        self.forest.total_arrivals() - self.base
    }

    /// Allocation-reusing form of `next`: writes the next tree's specs into
    /// `specs` (cleared first, capacity kept) and returns the tree's base
    /// arrival index, or `None` when the stream is exhausted. Consumers that
    /// walk many schedules back to back — the dynamic server materializes
    /// one schedule per `(title, epoch)` — reuse one scratch buffer across
    /// all trees instead of allocating a `Vec` per tree.
    pub fn next_into(&mut self, specs: &mut Vec<StreamSpec>) -> Option<usize> {
        let tree = self.forest.trees().get(self.next_tree)?;
        let base = self.base;
        let local_times = &self.times[base..base + tree.len()];
        specs.clear();
        specs.reserve(tree.len());
        specs.push(StreamSpec {
            node: base,
            start: local_times[0],
            length: self.media,
        });
        for x in 1..tree.len() {
            // ℓ(x) = (z − x) + (z − p), inlined from `cost::lengths` so no
            // per-tree length vector is allocated on the hot path.
            let p = tree.parent(x).unwrap_or(0);
            let z = tree.last_descendant(x);
            specs.push(StreamSpec {
                node: base + x,
                start: local_times[x],
                length: (local_times[z] - local_times[x]) + (local_times[z] - local_times[p]),
            });
        }
        self.next_tree += 1;
        self.base += tree.len();
        Some(base)
    }
}

impl Iterator for ScheduleStream<'_> {
    type Item = TreeSchedule;

    fn next(&mut self) -> Option<TreeSchedule> {
        let tree = self.next_tree;
        let mut specs = Vec::new();
        let base = self.next_into(&mut specs)?;
        Some(TreeSchedule { tree, base, specs })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining_trees();
        (n, Some(n))
    }
}

/// Derives the full broadcast schedule of a forest: the root of each tree
/// runs `media_len` parts, every other stream exactly its Lemma-1 length.
/// Eager form of [`ScheduleStream`] — one flat `Vec` over all trees.
///
/// Fails with [`SimError::MediaLenOverflow`] when `media_len` does not fit
/// the signed slot arithmetic (a plain `as i64` here would silently wrap to
/// a negative root length).
pub fn stream_schedule(
    forest: &MergeForest,
    times: &[i64],
    media_len: u64,
) -> Result<Vec<StreamSpec>, SimError> {
    let mut specs = Vec::with_capacity(times.len());
    for tree in ScheduleStream::new(forest, times, media_len)? {
        specs.extend(tree.specs);
    }
    Ok(specs)
}

/// The one sanctioned `u64 → i64` conversion for media lengths: all slot
/// arithmetic is signed, so a media length beyond `i64::MAX` is a hard
/// model error, not a wrap.
pub(crate) fn checked_media_len(media_len: u64) -> Result<i64, SimError> {
    i64::try_from(media_len).map_err(|_| SimError::MediaLenOverflow { media_len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::{consecutive_slots, MergeTree};

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
    fn fig3_schedule() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let specs = stream_schedule(&forest, &times, 15).unwrap();
        let lens: Vec<i64> = specs.iter().map(|s| s.length).collect();
        // Fig. 3: A runs 15 slots, B 1, C 2, D 5, E 1, F 9, G 1, H 2.
        assert_eq!(lens, vec![15, 1, 2, 5, 1, 9, 1, 2]);
        // Stream F starts at 5 and runs to 14.
        assert_eq!(specs[5].start, 5);
        assert_eq!(specs[5].end(), 14);
    }

    #[test]
    fn broadcast_slots() {
        let s = StreamSpec {
            node: 5,
            start: 5,
            length: 9,
        };
        assert_eq!(s.broadcast_slot(1), Some(5));
        assert_eq!(s.broadcast_slot(9), Some(13));
        assert_eq!(s.broadcast_slot(10), None);
        assert_eq!(s.broadcast_slot(0), None);
    }

    #[test]
    fn total_schedule_length_is_full_cost() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let specs = stream_schedule(&forest, &times, 15).unwrap();
        let total: i64 = specs.iter().map(|s| s.length).sum();
        assert_eq!(total, sm_core::full_cost(&forest, &times, 15));
    }

    #[test]
    fn schedule_stream_yields_one_tree_at_a_time() {
        let t = MergeTree::from_parents(&[None, Some(0), Some(0)]).unwrap();
        let forest = MergeForest::from_trees(vec![t.clone(), t]).unwrap();
        let times = consecutive_slots(6);
        let mut stream = ScheduleStream::new(&forest, &times, 10).unwrap();
        assert_eq!(stream.remaining_trees(), 2);
        assert_eq!(stream.remaining_arrivals(), 6);
        let first = stream.next().unwrap();
        assert_eq!((first.tree, first.base, first.len()), (0, 0, 3));
        assert_eq!(stream.remaining_trees(), 1);
        assert_eq!(
            stream.remaining_arrivals(),
            3,
            "one pulled tree's arrivals leave the remaining count"
        );
        let second = stream.next().unwrap();
        assert_eq!((second.tree, second.base, second.len()), (1, 3, 3));
        assert!(stream.next().is_none());
        // Per-tree units sum to the flat schedule's total.
        assert_eq!(
            first.total_units() + second.total_units(),
            stream_schedule(&forest, &times, 10)
                .unwrap()
                .iter()
                .map(|s| s.length)
                .sum::<i64>()
        );
    }

    #[test]
    fn schedule_stream_concatenation_matches_eager_schedule() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let lazy: Vec<StreamSpec> = ScheduleStream::new(&forest, &times, 15)
            .unwrap()
            .flat_map(|t| t.specs)
            .collect();
        assert_eq!(lazy, stream_schedule(&forest, &times, 15).unwrap());
    }

    #[test]
    fn next_into_reuses_buffer_and_matches_iterator() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let eager: Vec<TreeSchedule> = ScheduleStream::new(&forest, &times, 15).unwrap().collect();
        let mut stream = ScheduleStream::new(&forest, &times, 15).unwrap();
        let mut scratch = Vec::new();
        let mut seen = 0usize;
        while let Some(base) = stream.next_into(&mut scratch) {
            assert_eq!(base, eager[seen].base);
            assert_eq!(scratch, eager[seen].specs);
            seen += 1;
        }
        assert_eq!(seen, eager.len());
        // Exhausted stream leaves the scratch untouched thereafter.
        let before = scratch.clone();
        assert!(stream.next_into(&mut scratch).is_none());
        assert_eq!(scratch, before);
    }

    #[test]
    fn empty_forest_stream_is_exhausted_from_the_start() {
        let forest = MergeForest::empty();
        let mut stream = ScheduleStream::new(&forest, &[], 10).unwrap();
        assert_eq!(stream.remaining_trees(), 0);
        assert_eq!(stream.remaining_arrivals(), 0);
        let mut scratch = vec![StreamSpec {
            node: 9,
            start: 9,
            length: 9,
        }];
        assert!(stream.next_into(&mut scratch).is_none());
        assert_eq!(scratch.len(), 1, "an exhausted stream must not clear");
        assert!(stream.next().is_none());
        assert_eq!(stream.remaining_arrivals(), 0);
    }

    #[test]
    fn single_client_trees_count_down_one_arrival_at_a_time() {
        // A forest of singletons: every tree is one full stream; the two
        // remaining-counters stay in lockstep at every pull.
        let n = 5usize;
        let forest = MergeForest::from_trees(vec![MergeTree::singleton(); n]).unwrap();
        let times: Vec<i64> = (0..n as i64).map(|i| i * 7).collect();
        let mut stream = ScheduleStream::new(&forest, &times, 4).unwrap();
        let mut specs = Vec::new();
        for (k, &time) in times.iter().enumerate() {
            assert_eq!(stream.remaining_trees(), n - k);
            assert_eq!(stream.remaining_arrivals(), n - k);
            assert_eq!(stream.next_into(&mut specs), Some(k));
            assert_eq!(
                specs,
                vec![StreamSpec {
                    node: k,
                    start: time,
                    length: 4,
                }],
                "a singleton tree is exactly its root's full stream"
            );
        }
        assert_eq!(stream.remaining_arrivals(), 0);
        assert!(stream.next_into(&mut specs).is_none());
    }

    #[test]
    fn unit_media_len_keeps_roots_at_one_part_and_merges_at_lemma_lengths() {
        // media_len == 1: the root broadcasts a single part; a same-slot
        // co-arrival merges with a zero-length stream, a later arrival
        // would simply be infeasible (caught downstream, not here — the
        // schedule itself is still well-defined).
        let tree = MergeTree::from_parents(&[None, Some(0)]).unwrap();
        let forest = MergeForest::single(tree);
        let mut stream = ScheduleStream::new(&forest, &[3, 3], 1).unwrap();
        assert_eq!(stream.remaining_arrivals(), 2);
        let t = stream.next().unwrap();
        assert_eq!(t.specs[0].length, 1);
        assert_eq!(t.specs[1].length, 0);
        assert_eq!(t.total_units(), 1);
        assert_eq!(stream.remaining_arrivals(), 0);
        assert_eq!(stream.remaining_trees(), 0);
    }

    #[test]
    fn schedule_stream_rejects_oversized_media_len() {
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        assert!(matches!(
            ScheduleStream::new(&forest, &times, u64::MAX).unwrap_err(),
            SimError::MediaLenOverflow { .. }
        ));
    }

    #[test]
    fn oversized_media_len_is_an_error_not_a_wrap() {
        // `u64::MAX as i64` is −1; the schedule must refuse instead.
        let forest = fig4_forest();
        let times = consecutive_slots(8);
        let err = stream_schedule(&forest, &times, u64::MAX).unwrap_err();
        assert_eq!(
            err,
            SimError::MediaLenOverflow {
                media_len: u64::MAX
            }
        );
        let boundary = stream_schedule(&forest, &times, i64::MAX as u64 + 1).unwrap_err();
        assert!(matches!(boundary, SimError::MediaLenOverflow { .. }));
    }
}
