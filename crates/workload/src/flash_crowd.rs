//! Flash-crowd arrivals: a baseline Poisson stream with a sudden,
//! short-lived rate spike — the "everyone tunes in at the premiere" shape
//! that stresses a media-on-demand server far harder than any stationary
//! process, and the workload the event-driven simulator exists to absorb.

use crate::arrivals::ArrivalProcess;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Poisson arrivals whose rate is multiplied by `burst_factor` during the
/// window `[burst_start, burst_start + burst_len)`.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Mean inter-arrival gap outside the spike.
    pub base_gap: f64,
    /// When the spike begins.
    pub burst_start: f64,
    /// How long the spike lasts.
    pub burst_len: f64,
    /// Rate multiplier during the spike (≥ 1: a crowd, not a lull).
    pub burst_factor: f64,
    rng: SmallRng,
}

impl FlashCrowd {
    /// Creates the process.
    ///
    /// # Panics
    /// Panics unless `base_gap > 0`, `burst_len > 0`, `burst_factor >= 1`
    /// and `burst_start >= 0`.
    pub fn new(
        base_gap: f64,
        burst_start: f64,
        burst_len: f64,
        burst_factor: f64,
        seed: u64,
    ) -> Self {
        assert!(base_gap > 0.0, "base inter-arrival gap must be positive");
        assert!(burst_len > 0.0, "burst length must be positive");
        assert!(burst_factor >= 1.0, "a flash crowd multiplies the rate");
        assert!(burst_start >= 0.0, "burst must start within the horizon");
        Self {
            base_gap,
            burst_start,
            burst_len,
            burst_factor,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn rate_at(&self, t: f64) -> f64 {
        let base = 1.0 / self.base_gap;
        if t >= self.burst_start && t < self.burst_start + self.burst_len {
            base * self.burst_factor
        } else {
            base
        }
    }

    /// Peak instantaneous rate (arrivals per time unit, inside the spike).
    fn peak_rate(&self) -> f64 {
        self.burst_factor / self.base_gap
    }
}

impl ArrivalProcess for FlashCrowd {
    fn generate(&mut self, horizon: f64) -> Vec<f64> {
        // Ogata thinning against the peak rate: exact for a piecewise-
        // constant intensity, and trivially reproducible from the seed.
        let lambda_max = self.peak_rate();
        let mut out = Vec::new();
        let mut t = 0.0f64;
        loop {
            let u: f64 = self.rng.random();
            t += -(1.0_f64 - u).ln() / lambda_max;
            if t > horizon {
                break;
            }
            let accept: f64 = self.rng.random();
            if accept * lambda_max >= self.rate_at(t) {
                continue;
            }
            if out.last().is_some_and(|&last| t <= last) {
                continue;
            }
            out.push(t);
        }
        out
    }

    fn mean_interarrival(&self) -> f64 {
        self.base_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_in(ts: &[f64], lo: f64, hi: f64) -> usize {
        ts.iter().filter(|&&t| t >= lo && t < hi).count()
    }

    #[test]
    fn spike_concentrates_arrivals() {
        // Base gap 1, ×20 during [400, 450): the spike window must be far
        // denser than an equally long quiet window.
        let mut p = FlashCrowd::new(1.0, 400.0, 50.0, 20.0, 7);
        let ts = p.generate(1_000.0);
        let quiet = count_in(&ts, 100.0, 150.0);
        let burst = count_in(&ts, 400.0, 450.0);
        assert!(
            burst > 5 * quiet,
            "burst {burst} should dwarf quiet {quiet}"
        );
        // Rates concentrate: ~50 arrivals quiet, ~1000 in the spike.
        assert!((30..=75).contains(&quiet), "quiet window count {quiet}");
        assert!((800..=1200).contains(&burst), "burst window count {burst}");
    }

    #[test]
    fn reproducible_per_seed() {
        let a = FlashCrowd::new(0.5, 100.0, 20.0, 10.0, 3).generate(500.0);
        let b = FlashCrowd::new(0.5, 100.0, 20.0, 10.0, 3).generate(500.0);
        let c = FlashCrowd::new(0.5, 100.0, 20.0, 10.0, 4).generate(500.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn strictly_increasing_within_horizon() {
        let ts = FlashCrowd::new(0.2, 50.0, 10.0, 30.0, 11).generate(200.0);
        for w in ts.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(ts.iter().all(|&t| t > 0.0 && t <= 200.0));
    }

    #[test]
    fn factor_one_is_plain_poisson_rate() {
        let ts = FlashCrowd::new(0.1, 10.0, 5.0, 1.0, 9).generate(5_000.0);
        let expected = 5_000.0 / 0.1;
        let got = ts.len() as f64;
        assert!(
            (got - expected).abs() < 0.05 * expected,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    #[should_panic]
    fn sub_unit_factor_rejected() {
        let _ = FlashCrowd::new(1.0, 0.0, 1.0, 0.5, 0);
    }
}
