//! Named experiment scenarios: the concrete configurations the paper's
//! empirical section and our examples use, in one place.

/// A fully specified simulation scenario in *slot* units (1 slot = the
/// guaranteed start-up delay).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name.
    pub name: &'static str,
    /// Media length in slots (`L`).
    pub media_slots: u64,
    /// Simulation horizon in slots.
    pub horizon_slots: f64,
    /// Mean inter-arrival gap in slots (the paper's λ, rescaled).
    pub mean_gap_slots: f64,
}

impl Scenario {
    /// λ as a percentage of the media length (the paper's x-axis).
    pub fn lambda_pct_of_media(&self) -> f64 {
        100.0 * self.mean_gap_slots / self.media_slots as f64
    }

    /// Expected number of arrivals over the horizon.
    pub fn expected_arrivals(&self) -> f64 {
        self.horizon_slots / self.mean_gap_slots
    }
}

/// The paper's §4.2 base setup: delay = 1% of the media (L = 100), horizon
/// 100 media lengths, intensity given as % of media length.
pub fn paper_section42(lambda_pct: f64) -> Scenario {
    Scenario {
        name: "paper §4.2",
        media_slots: 100,
        horizon_slots: 100.0 * 100.0,
        mean_gap_slots: lambda_pct / 100.0 * 100.0,
    }
}

/// The paper's illustrative movie: 2 hours with a 15-minute delay (L = 8),
/// arrivals every half delay on average, one day of service.
pub fn movie_night() -> Scenario {
    Scenario {
        name: "2h movie, 15min delay",
        media_slots: 8,
        horizon_slots: 24.0 * 60.0 / 15.0,
        mean_gap_slots: 0.5,
    }
}

/// The flash-crowd scenario: steady background traffic with a premiere
/// spike one media length into the horizon. Pair the returned scenario with
/// [`crate::FlashCrowd`] via [`flash_crowd_process`] — the spike multiplies
/// the base rate by 50 for half a media length, the load shape the
/// event-driven simulator is built to absorb.
pub fn flash_crowd() -> Scenario {
    Scenario {
        name: "flash crowd (×50 premiere spike)",
        media_slots: 100,
        horizon_slots: 100.0 * 100.0,
        mean_gap_slots: 2.0,
    }
}

/// The deep-chain scenario: one arrival per slot, merged into
/// maximal-depth feasible chains instead of balanced trees — the
/// pathological shape for per-client evaluation cost. Pair with
/// [`crate::deep_chain_forest`] via [`deep_chain_forest_for`]; at `L = 100`
/// every tree is a 51-deep chain.
pub fn deep_chain() -> Scenario {
    Scenario {
        name: "deep merge chains (depth L/2 + 1)",
        media_slots: 100,
        horizon_slots: 100.0 * 100.0,
        mean_gap_slots: 1.0,
    }
}

/// The chain forest and arrival times realizing [`deep_chain`] over `n`
/// arrivals.
pub fn deep_chain_forest_for(s: &Scenario, n: usize) -> (sm_core::MergeForest, Vec<i64>) {
    crate::deep_chain_forest(n, s.media_slots)
}

/// The seeded [`crate::FlashCrowd`] process matching [`flash_crowd`]: the
/// spike starts at one media length and lasts half a media length.
pub fn flash_crowd_process(seed: u64) -> crate::FlashCrowd {
    let s = flash_crowd();
    crate::FlashCrowd::new(
        s.mean_gap_slots,
        s.media_slots as f64,
        s.media_slots as f64 / 2.0,
        50.0,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_units() {
        let s = paper_section42(1.0);
        assert_eq!(s.media_slots, 100);
        assert_eq!(s.horizon_slots, 10_000.0);
        assert_eq!(s.mean_gap_slots, 1.0);
        assert!((s.lambda_pct_of_media() - 1.0).abs() < 1e-12);
        assert_eq!(s.expected_arrivals(), 10_000.0);
    }

    #[test]
    fn movie_night_units() {
        let s = movie_night();
        assert_eq!(s.media_slots, 8);
        assert_eq!(s.horizon_slots, 96.0);
        assert!(s.expected_arrivals() > 100.0);
    }

    #[test]
    fn flash_crowd_scenario_and_process_agree() {
        use crate::ArrivalProcess;
        let s = flash_crowd();
        let mut p = flash_crowd_process(5);
        assert_eq!(p.mean_interarrival(), s.mean_gap_slots);
        let ts = p.generate(s.horizon_slots);
        // The spike window [L, 1.5L) is far denser than steady state.
        let in_spike = ts.iter().filter(|&&t| (100.0..150.0).contains(&t)).count() as f64;
        let steady = ts.iter().filter(|&&t| (500.0..550.0).contains(&t)).count() as f64;
        assert!(in_spike > 5.0 * steady.max(1.0));
    }

    #[test]
    fn deep_chain_scenario_realizes_maximal_chains() {
        let s = deep_chain();
        let (forest, times) = deep_chain_forest_for(&s, 102);
        assert_eq!(forest.sizes(), vec![51, 51]);
        assert_eq!(times.len(), 102);
    }

    #[test]
    fn lambda_scaling() {
        for pct in [0.05, 0.5, 1.0, 5.0] {
            let s = paper_section42(pct);
            assert!((s.lambda_pct_of_media() - pct).abs() < 1e-9);
        }
    }
}
