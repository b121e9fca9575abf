//! Steady-state bandwidth of the Delay Guaranteed algorithm — the *maximum*
//! bandwidth view that §5 flags as the important metric for servers with
//! fixed channel licenses ("we can ensure that we never go over the fixed
//! maximum bandwidth and still never have to decline a client request").
//!
//! The DG schedule is periodic with period `F_h` slots once warmed up, so
//! its peak and average concurrent-stream counts are well-defined constants
//! for each media length; [`steady_state_bandwidth`] measures them exactly
//! by materializing enough periods and metering the middle of the window.

use crate::delay_guaranteed::DelayGuaranteedOnline;
use sm_core::consecutive_slots;
use sm_sim::{stream_schedule, BandwidthProfile};

/// Peak and average concurrent streams of the warmed-up DG schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyStateBandwidth {
    /// Maximum concurrent streams in steady state.
    pub peak: u32,
    /// Average concurrent streams in steady state.
    pub average: f64,
    /// The period of the schedule (`F_h` slots).
    pub period: u64,
}

/// Measures the steady-state bandwidth of the Delay Guaranteed algorithm
/// for media length `media_len`.
///
/// Materializes enough warm-up (one media length on each side) plus several
/// periods, then meters only the interior window, so edge effects of the
/// horizon do not leak in.
pub fn steady_state_bandwidth(media_len: u64) -> SteadyStateBandwidth {
    let alg = DelayGuaranteedOnline::new(media_len);
    let period = alg.tree_size();
    // Warm-up: streams live at a slot start as much as L slots earlier, so
    // one media length of margin on each side suffices.
    let periods_needed = media_len.div_ceil(period) + 2;
    let n = crate::cast::index_to_usize((2 * periods_needed + 2) * period);
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let specs = stream_schedule(&forest, &times, media_len).expect("slot-scale media length");
    let profile = BandwidthProfile::from_streams(&specs);
    // Interior window: skip L slots at the front, L + period at the back.
    let lo = profile.origin() + crate::cast::slots_i64(media_len);
    let hi = profile.end() - crate::cast::slots_i64(media_len + period);
    let window = profile.window(lo, hi);
    assert!(
        window.len() >= crate::cast::index_to_usize(period),
        "window must cover at least one period"
    );
    let peak = window.iter().copied().max().unwrap_or(0);
    let average = window.iter().map(|&c| c as f64).sum::<f64>() / window.len() as f64;
    SteadyStateBandwidth {
        peak,
        average,
        period,
    }
}

/// A media object served by a shared multi-object server (§5: "the
/// practical case of a server that serves multiple media objects").
#[derive(Debug, Clone)]
pub struct MediaObject {
    /// Display name.
    pub name: String,
    /// Playback duration, in minutes.
    pub duration_minutes: f64,
}

impl MediaObject {
    /// Media length in slots for a given guaranteed delay, clamped to ≥ 1.
    pub fn media_len(&self, delay_minutes: f64) -> u64 {
        assert!(delay_minutes > 0.0);
        // `f64 as u64` saturates (never wraps) and the ratio of two positive
        // durations is nonnegative, so the clamp to ≥ 1 is the only edge.
        ((self.duration_minutes / delay_minutes).round() as u64).max(1)
    }
}

/// Aggregate steady-state peak bandwidth (in concurrent streams) for a set
/// of objects all served with the same guaranteed delay via DG.
///
/// The DG schedule per object is independent, so peaks add: this is the
/// worst case (streams of different objects need not peak simultaneously,
/// but a guarantee must cover alignment).
pub fn aggregate_peak(objects: &[MediaObject], delay_minutes: f64) -> u64 {
    objects
        .iter()
        .map(|o| steady_state_bandwidth(o.media_len(delay_minutes)).peak as u64)
        .sum()
}

/// Smallest delay from `candidates_minutes` whose aggregate peak fits
/// `budget_streams`, or `None`.
pub fn min_delay_for_budget(
    objects: &[MediaObject],
    budget_streams: u64,
    candidates_minutes: &[f64],
) -> Option<f64> {
    let mut fitting: Vec<f64> = candidates_minutes
        .iter()
        .copied()
        .filter(|&d| aggregate_peak(objects, d) <= budget_streams)
        .collect();
    fitting.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fitting.first().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_periodic_constant() {
        // Measuring with more periods must not change the answer.
        let a = steady_state_bandwidth(50);
        assert!(a.peak > 0);
        assert!(a.average > 0.0);
        assert!(a.average <= a.peak as f64);
        assert_eq!(a.period, 21); // F_8 = 21 for L = 50 (F_9 = 34 < 52 ≤ F_10)
    }

    #[test]
    fn peak_grows_with_media_length() {
        let small = steady_state_bandwidth(10);
        let large = steady_state_bandwidth(200);
        assert!(large.peak >= small.peak);
        assert!(large.average > small.average);
    }

    #[test]
    fn average_close_to_amortized_cost() {
        // Average concurrent streams ≈ (L + M(F_h)) / F_h.
        let media_len = 100u64;
        let s = steady_state_bandwidth(media_len);
        let amortized = (media_len + sm_offline::merge_cost(s.period)) as f64 / s.period as f64;
        assert!(
            (s.average - amortized).abs() < 0.05 * amortized,
            "avg {} vs amortized {amortized}",
            s.average
        );
    }

    #[test]
    fn media_len_conversion() {
        let movie = MediaObject {
            name: "movie".into(),
            duration_minutes: 120.0,
        };
        assert_eq!(movie.media_len(15.0), 8);
        assert_eq!(movie.media_len(1.0), 120);
        assert_eq!(movie.media_len(240.0), 1);
    }

    #[test]
    fn budget_planning_picks_smallest_fitting_delay() {
        let objects = vec![
            MediaObject {
                name: "a".into(),
                duration_minutes: 100.0,
            },
            MediaObject {
                name: "b".into(),
                duration_minutes: 60.0,
            },
        ];
        let candidates = [1.0, 2.0, 5.0, 10.0, 20.0];
        // A generous budget admits the smallest delay; a tiny one may not.
        let generous = min_delay_for_budget(&objects, 1_000, &candidates);
        assert_eq!(generous, Some(1.0));
        let impossible = min_delay_for_budget(&objects, 1, &candidates);
        assert_eq!(impossible, None);
        // Budgets in between pick interior delays, monotonically.
        let d_mid = min_delay_for_budget(&objects, aggregate_peak(&objects, 5.0), &candidates);
        assert!(d_mid.unwrap() <= 5.0);
    }
}
