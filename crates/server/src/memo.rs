//! Planner memo: one cache of the Delay Guaranteed steady-state analyses.
//!
//! The planner's expensive per-title computation — the
//! [`steady_state_bandwidth`] peak — is a deterministic function of the
//! title's **media length** alone. Catalogs overlap heavily in practice —
//! epochs share titles, different titles share durations, and different
//! `(duration, delay)` pairs collide on the same media length — so
//! re-deriving those analyses per plan pays the same forest construction
//! over and over.
//!
//! Callers thread a [`PlannerMemo`] by reference through
//! [`plan_weighted_with`](crate::planner::plan_weighted_with): each
//! distinct media length is analyzed **once per memo lifetime**.
//! [`simulate_dynamic`](crate::dynamic::simulate_dynamic) keeps one memo
//! per run across all its epochs, and `sm_serve::serve_multi_with` takes
//! one from its caller. The [`seed_peaks`](PlannerMemo::seed_peaks) bulk
//! stage shards the analyses across threads with [`parallel_map`] — and
//! only analyzes lengths the memo has not seen — while point lookups go
//! through [`peak`](PlannerMemo::peak).
//!
//! Because the cached function is pure, a memo-carrying run is
//! **bit-identical** to a memo-free one (pinned by proptest in
//! `crates/server/tests/proptests.rs`); the memo only changes how often the
//! analyses execute, which the [`hits`](PlannerMemo::hits) /
//! [`misses`](PlannerMemo::misses) counters make observable (and a run
//! reports as `DynamicReport::memo_hits` / `MultiServeReport::memo_hits`).
//!
//! ```
//! use sm_server::{plan_weighted_with, Catalog, PlannerMemo};
//!
//! let memo = PlannerMemo::new();
//! let catalog = Catalog::zipf(4, 1.0, &[90.0, 120.0]);
//! let first = plan_weighted_with(&catalog, u64::MAX, &[2.0, 5.0], &memo).unwrap();
//! let analyses_after_first = memo.misses();
//! // Re-planning the same catalog is served entirely from the memo…
//! let second = plan_weighted_with(&catalog, u64::MAX, &[2.0, 5.0], &memo).unwrap();
//! assert_eq!(first, second);
//! assert_eq!(memo.misses(), analyses_after_first);
//! assert!(memo.hits() > 0);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use sm_core::parallel_map;
use sm_online::capacity::steady_state_bandwidth;

/// Thread-safe cache of per-media-length steady-state peaks.
///
/// Shared by reference: the dynamic pipeline's producer thread and the
/// serve loop borrow one memo for a whole run. The cached values are pure
/// functions of the media length, so sharing never changes any result —
/// only how often the analyses run.
#[derive(Debug, Default)]
pub struct PlannerMemo {
    /// `media_len → steady_state_bandwidth(media_len).peak`.
    peaks: Mutex<HashMap<u64, u32>>,
    /// Lookups served from the cache.
    hits: AtomicU64,
    /// Fresh analyses executed (bulk seeding counts each newly analyzed
    /// length once).
    misses: AtomicU64,
}

impl PlannerMemo {
    /// An empty memo: every length is analyzed on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    fn peaks(&self) -> MutexGuard<'_, HashMap<u64, u32>> {
        self.peaks.lock().expect("planner memo poisoned")
    }

    /// The steady-state Delay Guaranteed peak for `media_len`, computed on
    /// first demand and cached thereafter.
    pub fn peak(&self, media_len: u64) -> u32 {
        if let Some(&p) = self.peaks().get(&media_len) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return p;
        }
        // Analyze outside the lock: concurrent callers may race to compute
        // the same (pure, deterministic) value, never a different one.
        let p = steady_state_bandwidth(media_len).peak;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.peaks().insert(media_len, p);
        p
    }

    /// Bulk-seeds the peak cache: dedups `lens`, drops every length the
    /// memo has already seen, and analyzes the remainder across threads
    /// with [`parallel_map`]. The planner calls this before its greedy
    /// relaxation so the expensive analyses shard while the greedy itself
    /// stays sequential (and bit-identical).
    pub fn seed_peaks(&self, mut lens: Vec<u64>) {
        lens.sort_unstable();
        lens.dedup();
        {
            let cache = self.peaks();
            lens.retain(|l| !cache.contains_key(l));
        }
        if lens.is_empty() {
            return;
        }
        let peaks = parallel_map(&lens, |&l| steady_state_bandwidth(l).peak);
        self.misses.fetch_add(lens.len() as u64, Ordering::Relaxed);
        self.peaks().extend(lens.into_iter().zip(peaks));
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Fresh analyses executed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct media lengths currently cached.
    pub fn distinct_lengths(&self) -> usize {
        self.peaks().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_matches_uncached_analysis_and_counts_hits() {
        let memo = PlannerMemo::new();
        for l in [10u64, 50, 100, 50, 10] {
            assert_eq!(memo.peak(l), steady_state_bandwidth(l).peak);
        }
        assert_eq!(memo.misses(), 3, "three distinct lengths analyzed");
        assert_eq!(memo.hits(), 2, "two repeats served from the cache");
        assert_eq!(memo.distinct_lengths(), 3);
    }

    #[test]
    fn seeding_skips_lengths_already_seen() {
        let memo = PlannerMemo::new();
        memo.seed_peaks(vec![20, 30, 20, 30]);
        assert_eq!(memo.misses(), 2, "duplicates dedup before analysis");
        memo.seed_peaks(vec![30, 40]);
        assert_eq!(memo.misses(), 3, "only the unseen length is analyzed");
        assert_eq!(memo.peak(40), steady_state_bandwidth(40).peak);
        assert_eq!(memo.hits(), 1);
    }
}
