//! The hybrid server sketched in the paper's §5: "a hybrid server that uses
//! the delay guaranteed algorithm when it is heavily loaded (to ensure that
//! the maximum bandwidth requirement is met), and switches to another more
//! efficient algorithm (like the dyadic algorithm) when the client arrival
//! intensity is low."
//!
//! Mechanics: time advances in delay slots. At each slot boundary the server
//! looks at the arrival rate over a sliding window; above the threshold it
//! serves the *next* slots with the Delay Guaranteed structure (a stream
//! every slot, precomputed trees), below it with the dyadic merger (streams
//! only on demand). Switches close the current structure cleanly — DG trees
//! truncate exactly as in `DelayGuaranteedOnline::forest_after`, the dyadic
//! stack simply stops accepting merges — so the guarantee (service within
//! one slot) holds across transitions.

use crate::delay_guaranteed::DelayGuaranteedOnline;
use crate::dyadic::{dyadic_total_cost, DyadicConfig};

/// Which regime served a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Delay Guaranteed: stream every slot, static trees.
    DelayGuaranteed,
    /// Batched dyadic: streams only for non-empty slots.
    Dyadic,
}

/// Configuration of the hybrid policy.
#[derive(Debug, Clone, Copy)]
pub struct HybridConfig {
    /// Sliding window length, in slots, for rate estimation.
    pub window_slots: usize,
    /// Switch to DG when the windowed rate is at least this many arrivals
    /// per slot (the paper's heuristic boundary is 1.0: λ = delay).
    pub rate_threshold: f64,
    /// Dyadic parameters for the low-intensity regime.
    pub dyadic: DyadicConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        Self {
            window_slots: 16,
            rate_threshold: 1.0,
            dyadic: DyadicConfig::golden_poisson(),
        }
    }
}

/// The hybrid on-line server.
#[derive(Debug, Clone)]
pub struct HybridServer {
    media_len: u64,
    cfg: HybridConfig,
    dg: DelayGuaranteedOnline,
    /// Arrival counts of the last `window_slots` slots.
    window: Vec<usize>,
    /// Slots served so far.
    slot: u64,
    mode: Mode,
    /// Slots spent in the current DG run (resets the tree layout on entry).
    dg_run_slots: u64,
    /// Cost of completed DG runs.
    dg_completed_cost: u64,
    /// Batch times of the current dyadic run (cleared on each entry into
    /// dyadic mode); its cost is the dyadic fold over them.
    dyadic_times: Vec<f64>,
    /// Cost of completed dyadic runs.
    dyadic_completed_cost: f64,
    /// Mode decisions per slot (for inspection/metrics).
    history: Vec<Mode>,
}

impl HybridServer {
    /// Creates the server. Starts in dyadic mode (empty system = idle).
    pub fn new(media_len: u64, cfg: HybridConfig) -> Self {
        assert!(cfg.window_slots >= 1);
        assert!(cfg.rate_threshold > 0.0);
        Self {
            media_len,
            cfg,
            dg: DelayGuaranteedOnline::new(media_len),
            window: Vec::new(),
            slot: 0,
            mode: Mode::Dyadic,
            dg_run_slots: 0,
            dg_completed_cost: 0,
            dyadic_times: Vec::new(),
            dyadic_completed_cost: 0.0,
            history: Vec::new(),
        }
    }

    /// Serves one slot: `arrivals_in_slot` are the raw arrival times inside
    /// `(slot, slot+1]` (strictly increasing). Returns the mode that served
    /// the slot.
    pub fn feed_slot(&mut self, arrivals_in_slot: &[f64]) -> Mode {
        // Decide the regime for this slot from the *previous* window.
        let desired = if self.windowed_rate() >= self.cfg.rate_threshold {
            Mode::DelayGuaranteed
        } else {
            Mode::Dyadic
        };
        if desired != self.mode {
            self.close_current_run();
            self.mode = desired;
        }
        match self.mode {
            Mode::DelayGuaranteed => {
                // One stream per slot regardless of arrivals.
                self.dg_run_slots += 1;
            }
            Mode::Dyadic => {
                if !arrivals_in_slot.is_empty() {
                    // Batch the slot's arrivals to the slot end.
                    self.dyadic_times.push((self.slot + 1) as f64);
                }
            }
        }
        self.window.push(arrivals_in_slot.len());
        if self.window.len() > self.cfg.window_slots {
            self.window.remove(0);
        }
        self.slot += 1;
        self.history.push(self.mode);
        self.mode
    }

    fn windowed_rate(&self) -> f64 {
        if self.window.is_empty() {
            return 0.0;
        }
        self.window.iter().sum::<usize>() as f64 / self.window.len() as f64
    }

    fn close_current_run(&mut self) {
        match self.mode {
            Mode::DelayGuaranteed => {
                self.dg_completed_cost += self.dg.total_cost_after(self.dg_run_slots);
                self.dg_run_slots = 0;
            }
            Mode::Dyadic => {
                self.dyadic_completed_cost += self.dyadic_run_cost();
                self.dyadic_times.clear();
            }
        }
    }

    /// Total bandwidth committed so far, in slot-units.
    pub fn total_cost(&self) -> f64 {
        let open = match self.mode {
            Mode::DelayGuaranteed => self.dg.total_cost_after(self.dg_run_slots) as f64,
            Mode::Dyadic => self.dyadic_run_cost(),
        };
        self.dg_completed_cost as f64 + self.dyadic_completed_cost + open
    }

    fn dyadic_run_cost(&self) -> f64 {
        dyadic_total_cost(self.cfg.dyadic, self.media_len as f64, &self.dyadic_times)
    }

    /// Per-slot mode decisions so far.
    pub fn history(&self) -> &[Mode] {
        &self.history
    }

    /// Current regime.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Slots served.
    pub fn slots_seen(&self) -> u64 {
        self.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batching::batched_dyadic_cost;
    use crate::delay_guaranteed::online_full_cost;

    /// Feeds `n_slots` slots with `per_slot` evenly spaced arrivals each.
    fn run_uniform(server: &mut HybridServer, n_slots: u64, per_slot: usize) {
        for s in 0..n_slots {
            let arrivals: Vec<f64> = (0..per_slot)
                .map(|i| s as f64 + (i as f64 + 1.0) / (per_slot as f64 + 1.0))
                .collect();
            server.feed_slot(&arrivals);
        }
    }

    #[test]
    fn heavy_load_switches_to_dg() {
        let mut server = HybridServer::new(100, HybridConfig::default());
        run_uniform(&mut server, 64, 5);
        assert_eq!(server.mode(), Mode::DelayGuaranteed);
        // All slots after the warm-up window are DG.
        let dg_slots = server
            .history()
            .iter()
            .filter(|m| **m == Mode::DelayGuaranteed)
            .count();
        assert!(dg_slots >= 60, "{dg_slots}");
    }

    #[test]
    fn idle_system_stays_dyadic() {
        let mut server = HybridServer::new(100, HybridConfig::default());
        // One arrival every 60 slots: rate ~0.017 << 1, and gaps larger
        // than the dyadic merge window β·L = 50, so nothing merges.
        for s in 0..240u64 {
            if s % 60 == 3 {
                server.feed_slot(&[s as f64 + 0.5]);
            } else {
                server.feed_slot(&[]);
            }
        }
        assert_eq!(server.mode(), Mode::Dyadic);
        assert!(server.history().iter().all(|m| *m == Mode::Dyadic));
        // Four isolated arrivals: four full streams.
        assert_eq!(server.total_cost(), 400.0);
    }

    #[test]
    fn close_arrivals_merge_in_dyadic_mode() {
        let mut server = HybridServer::new(100, HybridConfig::default());
        // Sparse enough to stay dyadic (rate 0.1), close enough to merge
        // (gaps of 10 < β·L = 50): one root plus truncated merges.
        for s in 0..50u64 {
            if s % 10 == 3 {
                server.feed_slot(&[s as f64 + 0.5]);
            } else {
                server.feed_slot(&[]);
            }
        }
        assert_eq!(server.mode(), Mode::Dyadic);
        let cost = server.total_cost();
        assert!(cost < 500.0, "merging must beat 5 full streams: {cost}");
        assert!(cost >= 100.0);
    }

    #[test]
    fn cost_matches_pure_dg_under_constant_heavy_load() {
        let cfg = HybridConfig::default();
        let mut server = HybridServer::new(100, cfg);
        run_uniform(&mut server, 200, 3);
        // The first slot is decided on an empty window (dyadic), the rest
        // are DG once the window fills past the threshold; total must be
        // close to pure DG.
        let pure_dg = online_full_cost(100, 200) as f64;
        let hybrid = server.total_cost();
        assert!(
            (hybrid - pure_dg).abs() <= 0.05 * pure_dg + 200.0,
            "hybrid {hybrid} vs DG {pure_dg}"
        );
    }

    #[test]
    fn bursty_traffic_toggles_modes_and_beats_both_pure_policies() {
        // 400 slots: alternating 50-slot bursts (4/slot) and lulls (1 per
        // 25 slots).
        let media_len = 100u64;
        let mut server = HybridServer::new(media_len, HybridConfig::default());
        let mut all_arrivals: Vec<f64> = Vec::new();
        for s in 0..400u64 {
            let burst = (s / 50) % 2 == 0;
            let arrivals: Vec<f64> = if burst {
                (0..4).map(|i| s as f64 + (i as f64 + 1.0) / 5.0).collect()
            } else if s % 25 == 7 {
                vec![s as f64 + 0.5]
            } else {
                vec![]
            };
            all_arrivals.extend(&arrivals);
            server.feed_slot(&arrivals);
        }
        let hybrid = server.total_cost();
        let modes: std::collections::HashSet<_> = server.history().iter().copied().collect();
        assert_eq!(modes.len(), 2, "both modes must be exercised");

        // Pure DG pays for every slot; pure batched-dyadic pays per burst
        // arrival; the hybrid should beat pure DG on this trace and stay in
        // the same ballpark as pure dyadic.
        let pure_dg = online_full_cost(media_len, 400) as f64;
        let pure_dyadic = batched_dyadic_cost(
            DyadicConfig::golden_poisson(),
            &all_arrivals,
            1.0,
            media_len as f64,
        );
        assert!(hybrid < pure_dg, "hybrid {hybrid} vs pure DG {pure_dg}");
        assert!(
            hybrid <= pure_dyadic * 1.25,
            "hybrid {hybrid} vs pure dyadic {pure_dyadic}"
        );
    }

    #[test]
    fn total_cost_monotone_in_time() {
        let mut server = HybridServer::new(50, HybridConfig::default());
        let mut prev = 0.0;
        for s in 0..120u64 {
            let arrivals = if s % 3 == 0 {
                vec![s as f64 + 0.5]
            } else {
                vec![]
            };
            server.feed_slot(&arrivals);
            let c = server.total_cost();
            assert!(c >= prev - 1e-9, "cost decreased at slot {s}");
            prev = c;
        }
    }
}
