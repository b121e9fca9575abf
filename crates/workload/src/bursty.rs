//! A two-state Markov-modulated Poisson process (on/off bursts) — the
//! traffic shape that motivates the paper's §5 hybrid proposal: intensities
//! alternate between "heavier than the delay window" and "much lighter".

use crate::arrivals::ArrivalProcess;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Two-phase bursty arrivals: exponential gaps whose mean switches between
/// a *burst* phase and a *lull* phase; phase durations are exponential too.
#[derive(Debug, Clone)]
pub struct BurstyProcess {
    /// Mean inter-arrival gap during bursts.
    pub burst_gap: f64,
    /// Mean inter-arrival gap during lulls.
    pub lull_gap: f64,
    /// Mean duration of a burst phase.
    pub burst_len: f64,
    /// Mean duration of a lull phase.
    pub lull_len: f64,
    rng: SmallRng,
}

impl BurstyProcess {
    /// Creates the process.
    ///
    /// # Panics
    /// Panics unless all four parameters are positive.
    pub fn new(burst_gap: f64, lull_gap: f64, burst_len: f64, lull_len: f64, seed: u64) -> Self {
        assert!(
            burst_gap > 0.0 && lull_gap > 0.0 && burst_len > 0.0 && lull_len > 0.0,
            "all bursty-process parameters must be positive"
        );
        Self {
            burst_gap,
            lull_gap,
            burst_len,
            lull_len,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.rng.random();
        -(1.0_f64 - u).ln() * mean
    }

    /// Long-run mean inter-arrival gap (harmonic mixture weighted by phase
    /// occupancy).
    fn effective_mean_gap(&self) -> f64 {
        let p_burst = self.burst_len / (self.burst_len + self.lull_len);
        let rate = p_burst / self.burst_gap + (1.0 - p_burst) / self.lull_gap;
        1.0 / rate
    }
}

impl ArrivalProcess for BurstyProcess {
    fn generate(&mut self, horizon: f64) -> Vec<f64> {
        // Exact MMPP construction via competing exponential clocks: in each
        // phase, race the next-arrival clock against the phase-switch
        // clock; by memorylessness the arrival clock may be re-drawn after
        // a switch.
        let mut out = Vec::new();
        let mut t = 0.0f64;
        let mut in_burst = true;
        let mut phase_end = self.exp(self.burst_len);
        while t < horizon {
            let gap_mean = if in_burst {
                self.burst_gap
            } else {
                self.lull_gap
            };
            let candidate = t + self.exp(gap_mean);
            if candidate <= phase_end {
                t = candidate;
                if t > horizon {
                    break;
                }
                if out.last().is_some_and(|&last| t <= last) {
                    continue;
                }
                out.push(t);
            } else {
                // Phase switch fires first: jump to it, drop the arrival
                // candidate (memorylessness), draw the next phase length.
                t = phase_end;
                in_burst = !in_burst;
                let dur = if in_burst {
                    self.exp(self.burst_len)
                } else {
                    self.exp(self.lull_len)
                };
                phase_end += dur;
            }
        }
        out
    }

    fn mean_interarrival(&self) -> f64 {
        self.effective_mean_gap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(seed: u64) -> BurstyProcess {
        // Bursts: 10 arrivals/unit for ~50 units; lulls: 0.05/unit for ~50.
        BurstyProcess::new(0.1, 20.0, 50.0, 50.0, seed)
    }

    #[test]
    fn reproducible_per_seed() {
        let a = make(9).generate(500.0);
        let b = make(9).generate(500.0);
        let c = make(10).generate(500.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn strictly_increasing_in_range() {
        let ts = make(3).generate(1000.0);
        assert!(!ts.is_empty());
        for w in ts.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(ts.iter().all(|&t| t > 0.0 && t <= 1000.0));
    }

    #[test]
    fn burstier_than_poisson() {
        // Coefficient of variation of gaps must exceed 1 (Poisson = 1).
        let ts = make(7).generate(20_000.0);
        let gaps: Vec<f64> = ts.windows(2).map(|w| w[1] - w[0]).collect();
        let n = gaps.len() as f64;
        let mean = gaps.iter().sum::<f64>() / n;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.5, "cv = {cv}");
    }

    #[test]
    fn effective_rate_roughly_matches() {
        let p = make(1);
        let expected_gap = p.effective_mean_gap();
        let ts = make(1).generate(50_000.0);
        let measured_gap = 50_000.0 / ts.len() as f64;
        assert!(
            (measured_gap / expected_gap - 1.0).abs() < 0.35,
            "measured {measured_gap}, expected {expected_gap}"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_parameters() {
        let _ = BurstyProcess::new(0.0, 1.0, 1.0, 1.0, 0);
    }
}
