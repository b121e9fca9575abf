//! The serve workloads: the untraced timed call into
//! `sm_serve::serve_multi_with`, with its correctness checks, and the
//! traced replay that drives the same arrivals through the public layers
//! with spans around each call.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use sm_core::{merge_runs, pipeline};
use sm_online::{DelayGuaranteedOnline, DyadicConfig, DyadicMerger, IncrementalPolicy};
use sm_serve::{serve_multi_with, DelayStats, MultiServeConfig, MultiServeReport, PolicyKind};
use sm_server::PlannerMemo;
use sm_sim::{Attach, IncrementalEngine, IncrementalSummary, SimConfig};
use sm_workload::{ArrivalProcess, PoissonProcess};

use crate::measure::{alloc_mark, process_cpu_ns, quantile, AllocUse};

/// One untraced call into the serve loop.
pub struct ServeCall {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub alloc: AllocUse,
    /// Arrivals generated (or, if the call failed, expected).
    pub arrivals: u64,
    /// Arrivals rejected, unserved, or without exactly one client report.
    pub failed: u64,
    pub report: Option<MultiServeReport>,
}

/// Counts one title's client reports and checks that they arrive once
/// each, in arrival-index order (the documented emission order of a
/// title's engine).
#[derive(Clone, Copy, Default)]
struct ReportTally {
    next: usize,
    out_of_order: u64,
}

impl ReportTally {
    fn see(&mut self, client: usize) {
        if client != self.next {
            self.out_of_order += 1;
        }
        self.next += 1;
    }
}

/// Times one `serve_multi_with` call (fresh planner memo, as
/// `serve_multi` does) and checks its report.
pub fn timed_serve(config: &MultiServeConfig) -> ServeCall {
    let mut tallies = vec![ReportTally::default(); config.titles.len()];
    let mark = alloc_mark();
    let cpu0 = process_cpu_ns();
    let t0 = Instant::now();
    let result = serve_multi_with(config, &PlannerMemo::new(), |title, r| {
        tallies[title].see(r.client)
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu0;
    let alloc = mark.since();
    match result {
        Ok(report) => {
            let mut failed = report.rejected as u64;
            for (title, tally) in report.titles.iter().zip(&tallies) {
                failed += title.generated.abs_diff(title.served) as u64
                    + title.generated.abs_diff(tally.next) as u64
                    + tally.out_of_order;
            }
            let arrivals = report.generated as u64;
            if failed > 0 {
                eprintln!("check failed: {failed} of {arrivals} arrivals rejected, unserved or misreported");
            }
            ServeCall {
                wall_ns,
                cpu_ns,
                alloc,
                arrivals,
                failed: failed.min(arrivals),
                report: Some(report),
            }
        }
        Err(e) => {
            eprintln!("check failed: serve_multi returned {e}");
            let expected = expected_arrivals(config);
            ServeCall {
                wall_ns,
                cpu_ns,
                alloc,
                arrivals: expected,
                failed: expected,
                report: None,
            }
        }
    }
}

/// The mean arrival count of `config`, charged in full to a failed call.
fn expected_arrivals(config: &MultiServeConfig) -> u64 {
    let rate: f64 = config
        .titles
        .iter()
        .map(|t| 1.0 / t.mean_interarrival)
        .sum();
    (config.horizon * rate).round().max(1.0) as u64
}

// The serve loop's per-(batch, title) seed mixers, as its docs name them:
// splitmix64's odd constant per batch, xxhash's odd prime per title.
const BATCH_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const TITLE_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One pipeline `produce` callback (producer thread).
    Produce,
    /// `PoissonProcess::generate` for every title of one batch.
    Gen,
    /// `merge_runs` over one batch's per-title runs.
    Fanin,
    /// One pipeline `consume` callback (caller's thread).
    Consume,
    /// `IncrementalPolicy::push` for one new group.
    Policy,
    /// `IncrementalEngine::push` for one arrival.
    Push,
    /// `IncrementalEngine::finish` for one title.
    Finish,
}

#[derive(Clone, Copy)]
struct Span {
    kind: Kind,
    start: u64,
    end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Span buffers, one per thread, kept across calls so that recording
/// allocates only while a buffer first grows.
#[derive(Default)]
pub struct Recorder {
    producer: Vec<Span>,
    consumer: Vec<Span>,
    push_ns: Vec<f64>,
}

fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span of `kind` appended to `spans`.
fn span<R>(spans: &mut Vec<Span>, epoch: Instant, kind: Kind, f: impl FnOnce() -> R) -> R {
    let start = since(epoch);
    let r = f();
    spans.push(Span {
        kind,
        start,
        end: since(epoch),
    });
    r
}

/// The delay tally of `sm_serve`: exact counts per whole-slot delay, with
/// percentiles at rank `round((n − 1)·q)`.
#[derive(Default)]
struct DelayTally {
    counts: Vec<u64>,
    total: u64,
    sum: u64,
}

impl DelayTally {
    fn record(&mut self, delay: u64) {
        let i = delay as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.total += 1;
        self.sum += delay;
    }

    fn absorb(&mut self, other: &Self) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    fn stats(&self) -> DelayStats {
        if self.total == 0 {
            return DelayStats::default();
        }
        let max = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u64;
        let at = |q: f64| {
            let rank = ((self.total - 1) as f64 * q).round() as u64;
            let mut seen = 0;
            for (value, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen > rank {
                    return value as u64;
                }
            }
            max
        };
        DelayStats {
            p50_slots: at(0.50),
            p99_slots: at(0.99),
            max_slots: max,
            mean_slots: self.sum as f64 / self.total as f64,
        }
    }
}

struct Title {
    media: i64,
    engine: IncrementalEngine,
    policy: Box<dyn IncrementalPolicy>,
    dense_grid: bool,
    last_engine_time: i64,
    /// Group index → engine index of the group's head.
    heads: Vec<usize>,
    /// Pending group: (service slot, engine time, head).
    cur: Option<(i64, i64, usize)>,
    generated: usize,
    delays: DelayTally,
}

/// What the replay reproduced of a `MultiServeReport`.
struct Replayed {
    generated: usize,
    delay: DelayStats,
    /// Per title: generated, groups, delay, engine summary.
    titles: Vec<(usize, usize, DelayStats, IncrementalSummary)>,
    reports: u64,
}

/// Per-layer totals of one traced replay.
pub struct TracedCall {
    pub wall_ns: u64,
    pub arrivals: u64,
    pub batches: u64,
    pub gen_ns: u64,
    pub fanin_ns: u64,
    pub consumer_wait_ns: u64,
    pub producer_wait_ns: u64,
    pub groups: u64,
    pub policy_ns: u64,
    pub push_ns: u64,
    pub push_p50_ns: f64,
    pub push_p99_ns: f64,
    pub finish_ns: u64,
    pub reports: u64,
    pub max_open_trees: u64,
}

/// Replays `config` through the public layers in the serve loop's order —
/// generation and fan-in on the pipeline's producer, then per arrival the
/// documented batching and chain-planning rules, `IncrementalPolicy::push`
/// and `IncrementalEngine::push`, and `finish` at the end — and checks the
/// result against `reference`, the untraced report for the same config.
pub fn traced_replay(
    config: &MultiServeConfig,
    reference: &MultiServeReport,
    rec: &mut Recorder,
) -> Result<TracedCall, String> {
    rec.producer.clear();
    rec.consumer.clear();
    let t0 = Instant::now();
    let replayed = replay(config, rec)?;
    let wall_ns = since(t0);
    matches(reference, &replayed)?;

    let total = |spans: &[Span], kind| -> u64 {
        spans.iter().filter(|s| s.kind == kind).map(Span::ns).sum()
    };
    // Waits are the gaps before each callback of one stage: the consumer
    // blocked on an empty channel (from the pipeline's start), the
    // producer on a full one (from its previous batch).
    let gaps = |spans: &[Span], kind, mut prev: Option<u64>| -> u64 {
        let mut sum = 0;
        for s in spans.iter().filter(|s| s.kind == kind) {
            sum += prev.map_or(0, |p| s.start.saturating_sub(p));
            prev = Some(s.end);
        }
        sum
    };
    rec.push_ns.clear();
    rec.push_ns.extend(
        rec.consumer
            .iter()
            .filter(|s| s.kind == Kind::Push)
            .map(|s| s.ns() as f64),
    );
    let batches = rec
        .consumer
        .iter()
        .filter(|s| s.kind == Kind::Consume)
        .count() as u64;
    Ok(TracedCall {
        wall_ns,
        arrivals: replayed.generated as u64,
        batches,
        gen_ns: total(&rec.producer, Kind::Gen),
        fanin_ns: total(&rec.producer, Kind::Fanin),
        consumer_wait_ns: gaps(&rec.consumer, Kind::Consume, Some(0)),
        producer_wait_ns: gaps(&rec.producer, Kind::Produce, None),
        groups: replayed.titles.iter().map(|t| t.1 as u64).sum(),
        policy_ns: total(&rec.consumer, Kind::Policy),
        push_ns: rec.push_ns.iter().sum::<f64>() as u64,
        push_p50_ns: quantile(&mut rec.push_ns, 0.50),
        push_p99_ns: quantile(&mut rec.push_ns, 0.99),
        finish_ns: total(&rec.consumer, Kind::Finish),
        reports: replayed.reports,
        max_open_trees: replayed
            .titles
            .iter()
            .map(|t| t.3.max_open_trees as u64)
            .sum(),
    })
}

fn replay(config: &MultiServeConfig, rec: &mut Recorder) -> Result<Replayed, String> {
    let mut titles = Vec::with_capacity(config.titles.len());
    for t in &config.titles {
        titles.push(Title {
            media: t.media_len as i64,
            engine: IncrementalEngine::new(t.media_len, SimConfig::events())
                .map_err(|e| e.to_string())?,
            policy: match t.policy {
                PolicyKind::DelayGuaranteed => Box::new(DelayGuaranteedOnline::new(t.media_len)),
                PolicyKind::Dyadic => Box::new(DyadicMerger::new(
                    DyadicConfig::golden_poisson(),
                    t.media_len as f64,
                )),
            },
            dense_grid: t.policy == PolicyKind::DelayGuaranteed,
            last_engine_time: -1,
            heads: Vec::new(),
            cur: None,
            generated: 0,
            delays: DelayTally::default(),
        });
    }
    // The shared budget's license chains: a min-heap of chain end slots.
    let mut chains: BinaryHeap<Reverse<i64>> = BinaryHeap::new();
    let mut reports = 0u64;
    let n_batches = (config.horizon / config.batch_slots).ceil() as usize;
    let (horizon, batch, seed, budget) = (
        config.horizon,
        config.batch_slots,
        config.seed,
        config.budget,
    );
    let means: Vec<f64> = config.titles.iter().map(|t| t.mean_interarrival).collect();
    let epoch = Instant::now();
    let (producer, consumer) = (&mut rec.producer, &mut rec.consumer);

    pipeline(
        n_batches,
        config.pipeline_depth,
        |i| -> Result<Vec<(f64, u32)>, String> {
            let start = since(epoch);
            let offset = i as f64 * batch;
            let span_slots = (horizon - offset).min(batch);
            let runs: Vec<Vec<(f64, u32)>> = span(producer, epoch, Kind::Gen, || {
                means
                    .iter()
                    .enumerate()
                    .map(|(k, &mean)| {
                        let mixed = seed
                            ^ (i as u64).wrapping_mul(BATCH_SALT)
                            ^ (k as u64).wrapping_mul(TITLE_SALT);
                        PoissonProcess::new(mean, mixed)
                            .generate(span_slots)
                            .iter()
                            .map(|t| (offset + t, k as u32))
                            .collect()
                    })
                    .collect()
            });
            let merged = span(producer, epoch, Kind::Fanin, || {
                merge_runs(runs, |a, b| a.0 < b.0)
            });
            producer.push(Span {
                kind: Kind::Produce,
                start,
                end: since(epoch),
            });
            Ok(merged)
        },
        |_, arrivals| {
            let start = since(epoch);
            for (t, k) in arrivals {
                let slot = t.floor() as i64;
                let title = &mut titles[k as usize];
                title.generated += 1;
                let mut emit = |_| reports += 1;
                // Batching: arrivals no later than the pending group's
                // service slot ride it.
                if let Some((service, engine_time, head)) = title.cur {
                    if slot <= service {
                        title.delays.record((service - slot) as u64);
                        span(consumer, epoch, Kind::Push, || {
                            title
                                .engine
                                .push(engine_time, Attach::Under(head), &mut emit)
                        })
                        .map_err(|e| e.to_string())?;
                        continue;
                    }
                }
                // Chain planning: drop chains ended by `slot`; while the
                // budget is saturated, wait for the earliest-freeing one.
                let mut s = slot;
                if let Some(b) = budget {
                    while chains.peek().is_some_and(|&Reverse(end)| end <= slot) {
                        chains.pop();
                    }
                    while chains.len() >= b {
                        if let Some(Reverse(end)) = chains.pop() {
                            s = s.max(end);
                        }
                    }
                }
                title.delays.record((s - slot) as u64);
                let engine_time = if title.dense_grid {
                    title.last_engine_time + 1
                } else {
                    s
                };
                let decision = span(consumer, epoch, Kind::Policy, || {
                    title.policy.push(s as f64)
                });
                let attach = match decision.parent {
                    None => {
                        if budget.is_some() {
                            chains.push(Reverse(s + title.media));
                        }
                        Attach::Root
                    }
                    Some(p) => Attach::Under(*title.heads.get(p).ok_or_else(|| {
                        format!(
                            "policy placed node {} under unknown parent {p}",
                            decision.node
                        )
                    })?),
                };
                let head = title.engine.arrivals();
                span(consumer, epoch, Kind::Push, || {
                    title.engine.push(engine_time, attach, &mut emit)
                })
                .map_err(|e| e.to_string())?;
                title.last_engine_time = engine_time;
                title.heads.push(head);
                title.cur = Some((s, engine_time, head));
            }
            consumer.push(Span {
                kind: Kind::Consume,
                start,
                end: since(epoch),
            });
            Ok(())
        },
    )?;

    let mut out = Replayed {
        generated: 0,
        delay: DelayStats::default(),
        titles: Vec::with_capacity(titles.len()),
        reports: 0,
    };
    let mut all = DelayTally::default();
    for title in titles {
        let summary = span(consumer, epoch, Kind::Finish, || {
            title.engine.finish(|_| reports += 1)
        })
        .map_err(|e| e.to_string())?;
        out.generated += title.generated;
        all.absorb(&title.delays);
        out.titles.push((
            title.generated,
            title.heads.len(),
            title.delays.stats(),
            summary,
        ));
    }
    out.delay = all.stats();
    out.reports = reports;
    Ok(out)
}

/// Why the replay differs from `serve_multi`'s report, if it does.
fn matches(report: &MultiServeReport, replay: &Replayed) -> Result<(), String> {
    if report.titles.len() != replay.titles.len() {
        return Err("title count differs".into());
    }
    if report.generated != replay.generated {
        return Err(format!(
            "generated {} arrivals, serve_multi generated {}",
            replay.generated, report.generated
        ));
    }
    if report.delay != replay.delay {
        return Err(format!(
            "delay {:?}, serve_multi reported {:?}",
            replay.delay, report.delay
        ));
    }
    for (i, (want, got)) in report.titles.iter().zip(&replay.titles).enumerate() {
        let ours = (got.0, got.1, got.2, &got.3);
        let theirs = (want.generated, want.groups, want.delay, &want.summary);
        if ours != theirs {
            return Err(format!(
                "title {i}: generated/groups/delay/summary {ours:?}, serve_multi reported {theirs:?}"
            ));
        }
    }
    Ok(())
}
