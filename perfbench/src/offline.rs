//! The off-line batch workload: `n` consecutive one-client slots at
//! `L = 100`, planned by the §3 optimum and by the Delay Guaranteed
//! on-line forest, both replayed through the events engine.

use std::time::Instant;

use sm_core::{consecutive_slots, MergeForest};
use sm_offline::{optimal_forest, optimal_full_cost};
use sm_online::DelayGuaranteedOnline;
use sm_sim::{simulate_incremental, simulate_streaming_slice, SimConfig, StreamingSummary};

use crate::measure::{alloc_mark, process_cpu_ns, AllocUse};
use crate::workload::OFFLINE_MEDIA_LEN as L;

/// The generated input plus its analytic oracle.
pub struct OfflineInput {
    times: Vec<i64>,
    /// `F(L, n)`, the closed-form optimal full cost.
    optimum: u64,
}

impl OfflineInput {
    pub fn new(n: usize) -> Self {
        Self {
            times: consecutive_slots(n),
            optimum: optimal_full_cost(L, n as u64),
        }
    }

    fn n(&self) -> usize {
        self.times.len()
    }
}

/// One untraced call: both plans, both replays.
pub struct OfflineCall {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub alloc: AllocUse,
    pub arrivals: u64,
    pub failed: u64,
    pub optimum_units: i64,
    pub dg_units: i64,
}

/// Replays `forest` through the events engine, counting client reports.
fn replay(forest: &MergeForest, times: &[i64]) -> Option<(StreamingSummary, usize)> {
    let mut reports = 0;
    match simulate_streaming_slice(forest, times, L, SimConfig::events(), |_| reports += 1) {
        Ok(summary) => Some((summary, reports)),
        Err(e) => {
            eprintln!("check failed: simulate_streaming_slice returned {e}");
            None
        }
    }
}

/// Arrivals of one replay that failed its checks: every arrival if the
/// replay erred or missed `units`, else those without exactly one report.
fn failures(replayed: &Option<(StreamingSummary, usize)>, n: usize, units: Option<u64>) -> u64 {
    let Some((summary, reports)) = replayed else {
        return n as u64;
    };
    if units.is_some_and(|u| summary.total_units != u as i64) {
        eprintln!(
            "check failed: optimum replays to {} units, F(L, n) = {}",
            summary.total_units,
            units.unwrap_or(0)
        );
        return n as u64;
    }
    (n.abs_diff(*reports) + n.abs_diff(summary.clients)).min(n) as u64
}

/// Times the three steps — optimum, Delay Guaranteed forest, both
/// replays — and checks the optimum against `F(L, n)`.
pub fn timed_offline(input: &OfflineInput) -> OfflineCall {
    let n = input.n();
    let mark = alloc_mark();
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let plan = optimal_forest(L, n);
    let dg = DelayGuaranteedOnline::new(L).forest_after(n);
    let opt_run = replay(&plan.forest, &input.times);
    let dg_run = replay(&dg, &input.times);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;
    let alloc = mark.since();
    let plan_failed = if plan.cost == input.optimum {
        0
    } else {
        n as u64
    };
    let failed =
        plan_failed + failures(&opt_run, n, Some(input.optimum)) + failures(&dg_run, n, None);
    OfflineCall {
        wall_ns,
        cpu_ns,
        alloc,
        arrivals: n as u64,
        failed: failed.min(n as u64),
        optimum_units: opt_run.map_or(0, |r| r.0.total_units),
        dg_units: dg_run.map_or(0, |r| r.0.total_units),
    }
}

/// Per-layer totals of one traced call.
pub struct TracedOffline {
    pub wall_ns: u64,
    pub arrivals: u64,
    pub plan_ns: u64,
    pub forest_ns: u64,
    /// Both events-engine replays.
    pub events_ns: u64,
    /// The Delay Guaranteed forest through the incremental engine.
    pub incremental_ns: u64,
    pub reports: u64,
    pub max_open_trees: u64,
}

/// The untimed check that the Delay Guaranteed forest's events replay and
/// its incremental-engine replay agree; returns the failed arrivals.
pub fn check_incremental(input: &OfflineInput) -> u64 {
    let n = input.n();
    let dg = DelayGuaranteedOnline::new(L).forest_after(n);
    replay(&dg, &input.times)
        .and_then(|(events, _)| incremental_agrees(&dg, &input.times, &events))
        .map_or(n as u64, |_| 0)
}

/// Replays `forest` through `simulate_incremental`, returning its
/// retained-tree high-water mark if the summary equals `events`, the
/// events engine's.
fn incremental_agrees(
    forest: &MergeForest,
    times: &[i64],
    events: &StreamingSummary,
) -> Option<usize> {
    match simulate_incremental(forest, times, L, SimConfig::events(), |_| {}) {
        Ok(inc) if inc.summary == *events => Some(inc.max_open_trees),
        Ok(_) => {
            eprintln!("check failed: incremental summary differs from the events engine");
            None
        }
        Err(e) => {
            eprintln!("check failed: simulate_incremental returned {e}");
            None
        }
    }
}

/// The three steps with a span around each public call, then the Delay
/// Guaranteed forest through the incremental engine. `Err` says why the
/// outputs were wrong.
pub fn traced_offline(input: &OfflineInput) -> Result<TracedOffline, String> {
    let n = input.n();
    let t0 = Instant::now();
    let plan = optimal_forest(L, n);
    let t1 = Instant::now();
    let dg = DelayGuaranteedOnline::new(L).forest_after(n);
    let t2 = Instant::now();
    let opt_run = replay(&plan.forest, &input.times);
    let dg_run = replay(&dg, &input.times);
    let t3 = Instant::now();
    let max_open_trees = dg_run
        .as_ref()
        .and_then(|(events, _)| incremental_agrees(&dg, &input.times, events));
    let t4 = Instant::now();
    let failed = failures(&opt_run, n, Some(input.optimum)) + failures(&dg_run, n, None);
    let (Some(opt), Some(dgr), Some(max_open_trees), 0) = (opt_run, dg_run, max_open_trees, failed)
    else {
        return Err("a replay failed its checks".into());
    };
    let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
    Ok(TracedOffline {
        wall_ns: ns(t0, t3),
        arrivals: n as u64,
        plan_ns: ns(t0, t1),
        forest_ns: ns(t1, t2),
        events_ns: ns(t2, t3),
        incremental_ns: ns(t3, t4),
        reports: (opt.1 + dgr.1) as u64,
        max_open_trees: max_open_trees as u64,
    })
}
