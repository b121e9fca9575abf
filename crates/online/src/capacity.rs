//! Steady-state bandwidth of the Delay Guaranteed algorithm — the *maximum*
//! bandwidth view that §5 flags as the important metric for servers with
//! fixed channel licenses ("we can ensure that we never go over the fixed
//! maximum bandwidth and still never have to decline a client request").
//!
//! The DG schedule is periodic with period `F_h` slots once warmed up, so
//! its peak and average concurrent-stream counts are well-defined constants
//! for each media length; [`steady_state_bandwidth`] measures them exactly
//! by materializing enough periods and metering the middle of the window.
//! The §5 multi-object planner that prices titles with these peaks is
//! `sm_server::plan_weighted`.

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
}
