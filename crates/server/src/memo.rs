//! Cross-epoch planner memo: one shared cache of the Delay Guaranteed
//! steady-state analyses.
//!
//! Every expensive per-title computation in this crate is a deterministic
//! function of the title's **media length** alone: the planner's
//! [`steady_state_bandwidth`] peak and the admission layer's
//! [`periodic_profile`]. Catalogs overlap heavily in practice — epochs
//! share titles, different titles share durations, and different
//! `(duration, delay)` pairs collide on the same media length — so
//! re-deriving those analyses per epoch (or per run) pays the same forest
//! construction over and over.
//!
//! [`PlannerMemo`] is a cheaply cloneable handle (an `Arc` around the
//! caches) that callers thread through
//! [`plan_weighted_with`](crate::planner::plan_weighted_with),
//! [`simulate_dynamic_with`](crate::dynamic::simulate_dynamic_with) / the
//! sequential spine (`crate::dynamic`, via
//! [`DynamicConfig`](crate::dynamic::DynamicConfig)), and
//! [`aggregate_profile_with`](crate::admission::aggregate_profile_with):
//! each distinct media
//! length is analyzed **once per memo lifetime** instead of once per epoch.
//! The [`seed_peaks`](PlannerMemo::seed_peaks) bulk stage shards the
//! analyses across threads with [`parallel_map`] — and only analyzes
//! lengths the memo has not seen — while point lookups go through
//! [`peak`](PlannerMemo::peak) / [`periodic`](PlannerMemo::periodic).
//!
//! Because the cached functions are pure, a memo-carrying run is
//! **bit-identical** to a memo-free one (pinned by proptest in
//! `crates/server/tests/proptests.rs`); the memo only changes how often the
//! analyses execute, which the [`hits`](PlannerMemo::hits) /
//! [`misses`](PlannerMemo::misses) counters make observable (and a serve
//! run reports as `MultiServeReport::memo_hits`).
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
use std::sync::{Arc, Mutex, MutexGuard};

use crate::admission::periodic_profile;
use sm_core::parallel_map;
use sm_online::capacity::steady_state_bandwidth;

/// Shared, thread-safe cache of per-media-length steady-state analyses.
///
/// Cloning is cheap and shares the underlying caches, so one handle can be
/// threaded through the planner (on the dynamic pipeline's producer thread),
/// the admission layer, and across whole simulation runs. All cached values
/// are pure functions of the media length, so sharing never changes any
/// result — only how often the analyses run.
#[derive(Debug, Clone, Default)]
pub struct PlannerMemo {
    inner: Arc<MemoInner>,
}

#[derive(Debug, Default)]
struct MemoInner {
    /// `media_len → steady_state_bandwidth(media_len).peak`.
    peaks: Mutex<HashMap<u64, u32>>,
    /// `media_len → periodic_profile(media_len)` (admission layer).
    profiles: Mutex<HashMap<u64, Arc<Vec<u32>>>>,
    /// Lookups served from a cache (either map).
    hits: AtomicU64,
    /// Fresh analyses executed (either map; bulk seeding counts each
    /// newly analyzed length once).
    misses: AtomicU64,
}

impl PlannerMemo {
    /// An empty memo: every length is analyzed on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    fn peaks(&self) -> MutexGuard<'_, HashMap<u64, u32>> {
        self.inner.peaks.lock().expect("planner memo poisoned")
    }

    fn profiles(&self) -> MutexGuard<'_, HashMap<u64, Arc<Vec<u32>>>> {
        self.inner.profiles.lock().expect("planner memo poisoned")
    }

    fn count_hit(&self) {
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn count_misses(&self, n: u64) {
        self.inner.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// The steady-state Delay Guaranteed peak for `media_len`, computed on
    /// first demand and cached thereafter.
    pub fn peak(&self, media_len: u64) -> u32 {
        if let Some(&p) = self.peaks().get(&media_len) {
            self.count_hit();
            return p;
        }
        // Analyze outside the lock: concurrent callers may race to compute
        // the same (pure, deterministic) value, never a different one.
        let p = steady_state_bandwidth(media_len).peak;
        self.count_misses(1);
        self.peaks().insert(media_len, p);
        p
    }

    /// One steady-state period of the DG bandwidth profile for `media_len`
    /// (the admission layer's [`periodic_profile`]), cached behind an `Arc`
    /// so repeated titles share one allocation.
    pub fn periodic(&self, media_len: u64) -> Arc<Vec<u32>> {
        if let Some(p) = self.profiles().get(&media_len) {
            self.count_hit();
            return Arc::clone(p);
        }
        let p = Arc::new(periodic_profile(media_len));
        self.count_misses(1);
        self.profiles()
            .entry(media_len)
            .or_insert(p.clone())
            .clone()
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
        self.count_misses(lens.len() as u64);
        self.peaks().extend(lens.into_iter().zip(peaks));
    }

    /// Bulk-seeds the periodic-profile cache (admission's analogue of
    /// [`seed_peaks`](Self::seed_peaks)): only lengths the memo has not
    /// seen are derived, sharded across threads.
    pub fn seed_profiles(&self, mut lens: Vec<u64>) {
        lens.sort_unstable();
        lens.dedup();
        {
            let cache = self.profiles();
            lens.retain(|l| !cache.contains_key(l));
        }
        if lens.is_empty() {
            return;
        }
        let profiles = parallel_map(&lens, |&l| Arc::new(periodic_profile(l)));
        self.count_misses(lens.len() as u64);
        self.profiles().extend(lens.into_iter().zip(profiles));
    }

    /// Lookups served from a cache so far (both caches combined).
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Fresh analyses executed so far (both caches combined).
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct media lengths currently cached (both caches
    /// combined; a length analyzed by both counts twice).
    pub fn distinct_lengths(&self) -> usize {
        self.peaks().len() + self.profiles().len()
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
    fn periodic_matches_uncached_profile_and_shares_the_allocation() {
        let memo = PlannerMemo::new();
        let a = memo.periodic(40);
        assert_eq!(*a, periodic_profile(40));
        let b = memo.periodic(40);
        assert!(Arc::ptr_eq(&a, &b), "repeat lookups share one allocation");
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
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
        memo.seed_profiles(vec![20, 25]);
        memo.seed_profiles(vec![25]);
        assert_eq!(memo.misses(), 5, "profile seeding skips seen lengths too");
    }

    #[test]
    fn clones_share_the_caches() {
        let memo = PlannerMemo::new();
        let clone = memo.clone();
        clone.peak(60);
        assert_eq!(memo.misses(), 1);
        memo.peak(60);
        assert_eq!(memo.hits(), 1, "the clone's analysis serves the original");
        assert_eq!(clone.hits(), 1);
    }
}
