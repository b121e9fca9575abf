//! End-to-end and per-layer benchmark of the stream-merging serve loop and
//! its batch path. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--arrivals <n>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ones. Human-readable `metric` lines come first; the last line
//! of standard output is one JSON object.

mod measure;
mod offline;
mod serve;
mod workload;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use sm_serve::{DelayStats, MultiServeReport};

use measure::{median, quantile, AllocUse, SpeedProbe};
use offline::TracedOffline;
use serve::{Recorder, TracedCall};
use workload::{Input, Workload};

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// Metrics printed with `--trace 0`, as `(name, unit)`.
const END_TO_END: [(&str, &str); 5] = [
    ("ns_per_arrival", "ns"),
    ("cpu_ns_per_arrival", "ns"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("units_per_arrival", "slot-units"),
];

/// Metrics printed with `--trace 1`, as `(name, unit)`. A layer that a
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("workload.gen_ns_per_arrival", "ns"),
    ("fanin.ns_per_arrival", "ns"),
    ("fanin.runs_per_batch", "count"),
    ("pipeline.consumer_wait_ns_per_batch", "ns"),
    ("pipeline.producer_wait_ns_per_batch", "ns"),
    ("serve.groups_per_arrival", "count"),
    ("serve.residual_ns_per_arrival", "ns"),
    ("serve.delay_p50_slots", "slots"),
    ("serve.delay_p99_slots", "slots"),
    ("serve.delay_max_slots", "slots"),
    ("serve.delay_mean_slots", "slots"),
    ("policy.ns_per_group", "ns"),
    ("engine.push_ns_per_arrival", "ns"),
    ("engine.push_p50_ns", "ns"),
    ("engine.push_p99_ns", "ns"),
    ("engine.reports_per_arrival", "count"),
    ("engine.max_open_trees", "count"),
    ("offline.plan_ns_per_arrival", "ns"),
    ("offline.cost_ratio", "ratio"),
    ("online.forest_ns_per_arrival", "ns"),
    ("sim.events_ns_per_arrival", "ns"),
    ("sim.incremental_ns_per_arrival", "ns"),
    ("alloc.allocs_per_arrival", "count"),
    ("alloc.bytes_per_arrival", "B"),
    ("alloc.peak_live_bytes_per_arrival", "B"),
    ("trace.overhead_ns_per_arrival", "ns"),
];

/// Child processes timed for `setup_s`; the median is reported.
const SETUP_PROBES: usize = 11;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    arrivals: usize,
    /// Internal: set up, warm up, print `ready`, exit (one `setup_s` sample).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut arrivals) = (None, None, None, None);
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--arrivals" => arrivals = Some(value.parse::<usize>().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must lie in (0, 3600], not {seconds}"));
    }
    let arrivals = arrivals.unwrap_or(workload.default_arrivals());
    if !(1000..=10_000_000).contains(&arrivals) {
        return Err(format!(
            "--arrivals must lie in [1000, 1e7], not {arrivals}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        arrivals,
        setup_probe,
    })
}

/// One untraced timed call, whichever the workload.
struct Call {
    /// [`SpeedProbe::factor`] just before the call.
    speed: f64,
    wall_ns: u64,
    cpu_ns: u64,
    alloc: AllocUse,
    arrivals: u64,
    failed: u64,
    units: i64,
    delay: Option<DelayStats>,
    /// Delay Guaranteed units over optimal units (batch workload only).
    cost_ratio: Option<f64>,
}

impl Call {
    fn per_arrival(&self, x: f64) -> f64 {
        x / self.arrivals as f64
    }
}

/// One untraced timed call, and the serve loop's report if there is one.
fn call(p: &Input, probe: &SpeedProbe) -> (Call, Option<MultiServeReport>) {
    let speed = probe.factor();
    match p {
        Input::Serve(config) => {
            let c = serve::timed_serve(config);
            let units = c.report.as_ref().map_or(0, |r| {
                r.titles.iter().map(|t| t.summary.summary.total_units).sum()
            });
            let call = Call {
                speed,
                wall_ns: c.wall_ns,
                cpu_ns: c.cpu_ns,
                alloc: c.alloc,
                arrivals: c.arrivals,
                failed: c.failed,
                units,
                delay: c.report.as_ref().map(|r| r.delay),
                cost_ratio: None,
            };
            (call, c.report)
        }
        Input::Offline(input) => {
            let c = offline::timed_offline(input);
            let call = Call {
                speed,
                wall_ns: c.wall_ns,
                cpu_ns: c.cpu_ns,
                alloc: c.alloc,
                arrivals: c.arrivals,
                failed: c.failed,
                units: c.optimum_units,
                delay: None,
                cost_ratio: Some(c.dg_units as f64 / c.optimum_units as f64),
            };
            (call, None)
        }
    }
}

/// Calls `f` until `deadline` passes, at least once.
fn until<T>(deadline: Instant, mut f: impl FnMut() -> T) -> Vec<T> {
    let mut out = vec![f()];
    while Instant::now() < deadline {
        out.push(f());
    }
    out
}

/// The median over `items` of `f`.
fn med<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Times [`SETUP_PROBES`] fresh processes from spawn to the point where
/// they would make their first timed call, each scaled by a speed factor
/// taken just before it, and returns the median.
fn setup_seconds(args: &Args, probe: &SpeedProbe) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let speed = probe.factor();
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed"])
            .arg(args.seed.to_string())
            .args(["--seconds", "1", "--trace", "0", "--arrivals"])
            .arg(args.arrivals.to_string())
            .arg("--setup-probe")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(out) => BufReader::new(out).read_line(&mut line).map(|_| ()),
            None => Ok(()),
        };
        let elapsed = t0.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait for set-up probe: {e}"))?;
        if read.is_err() || !status.success() || line.trim() != "ready" {
            return Err(format!("set-up probe failed ({status})"));
        }
        samples.push(elapsed * speed);
    }
    Ok(median(&samples))
}

/// What one run prints.
struct Output {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    /// Extra human-readable lines: (name, value, unit).
    notes: Vec<(&'static str, f64, &'static str)>,
}

impl Output {
    fn print(&self, declared: &[(&str, &str)]) {
        for &(name, unit) in declared {
            if let Some(&(_, v)) = self.metrics.iter().find(|m| m.0 == name) {
                println!("metric {name} {v} {unit}");
            }
        }
        for &(name, v, unit) in &self.notes {
            println!("metric {name} {v} {unit}");
        }
        let metrics: Vec<String> = declared
            .iter()
            .filter_map(|&(name, unit)| {
                let &(_, v) = self.metrics.iter().find(|m| m.0 == name)?;
                let v = if v.is_finite() { v } else { 0.0 };
                Some(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ))
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn untraced(args: &Args, p: &Input, probe: &SpeedProbe) -> Result<Output, String> {
    let setup_s = setup_seconds(args, probe)?;
    call(p, probe); // this process's own warm-up, as in each probe
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let calls = until(deadline, || call(p, probe).0);
    let mut attempted: u64 = calls.iter().map(|c| c.arrivals).sum();
    let mut failed: u64 = calls.iter().map(|c| c.failed).sum();
    if let Input::Offline(input) = p {
        // The incremental engine must agree with the events engine on the
        // Delay Guaranteed forest; checked once, outside the timed calls.
        attempted += calls[0].arrivals;
        failed += offline::check_incremental(input);
    }
    let last = calls.last().expect("until makes at least one call");
    let ns: Vec<f64> = calls
        .iter()
        .map(|c| c.per_arrival(c.wall_ns as f64) * c.speed)
        .collect();
    let mut notes = vec![
        ("samples", calls.len() as f64, "count"),
        ("ns_per_arrival_p90", quantile(&mut ns.clone(), 0.9), "ns"),
        ("speed_factor", med(&calls, |c| c.speed), "ratio"),
        (
            "raw_ns_per_arrival",
            med(&calls, |c| c.per_arrival(c.wall_ns as f64)),
            "ns",
        ),
        (
            "raw_cpu_ns_per_arrival",
            med(&calls, |c| c.per_arrival(c.cpu_ns as f64)),
            "ns",
        ),
        ("failed_share", failed as f64 / attempted as f64, "ratio"),
    ];
    if let Some(d) = last.delay {
        notes.extend([
            ("delay_p50_slots", d.p50_slots as f64, "slots"),
            ("delay_p99_slots", d.p99_slots as f64, "slots"),
            ("delay_max_slots", d.max_slots as f64, "slots"),
            ("delay_mean_slots", d.mean_slots, "slots"),
        ]);
    }
    if let Some(r) = last.cost_ratio {
        notes.push(("cost_ratio", r, "ratio"));
    }
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("ns_per_arrival", median(&ns)),
            (
                "cpu_ns_per_arrival",
                med(&calls, |c| c.per_arrival(c.cpu_ns as f64) * c.speed),
            ),
            ("setup_s", setup_s),
            (
                "peak_heap_mb",
                med(&calls, |c| c.alloc.peak_live as f64 / 1e6),
            ),
            (
                "units_per_arrival",
                med(&calls, |c| c.per_arrival(c.units as f64)),
            ),
        ],
        notes,
    })
}

fn traced(args: &Args, p: &Input, probe: &SpeedProbe) -> Result<Output, String> {
    // The warm-up call's report is what the replay must reproduce.
    let (_, reference) = call(p, probe);
    let start = Instant::now();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    // Untraced calls first: the baseline for the residual and the
    // overhead, and the allocation counts (spans would distort them).
    let calls = until(start + half, || call(p, probe).0);
    let ns_untraced = med(&calls, |c| c.per_arrival(c.wall_ns as f64));
    let mut attempted: u64 = calls.iter().map(|c| c.arrivals).sum();
    let failed: u64 = calls.iter().map(|c| c.failed).sum();
    let mut m: Vec<(&'static str, f64)> = PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        if let Some(slot) = m.iter_mut().find(|s| s.0 == name) {
            slot.1 = v;
        }
    };
    set(
        "alloc.allocs_per_arrival",
        med(&calls, |c| c.per_arrival(c.alloc.allocs as f64)),
    );
    set(
        "alloc.bytes_per_arrival",
        med(&calls, |c| c.per_arrival(c.alloc.bytes as f64)),
    );
    set(
        "alloc.peak_live_bytes_per_arrival",
        med(&calls, |c| c.per_arrival(c.alloc.peak_live as f64)),
    );
    let deadline = start + 2 * half;
    let traced_ns = match p {
        Input::Serve(config) => {
            let reference = reference
                .as_ref()
                .ok_or("the untraced call failed; nothing to replay against")?;
            let mut rec = Recorder::default();
            let runs: Vec<TracedCall> = until(deadline, || {
                serve::traced_replay(config, reference, &mut rec)
            })
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(|e| format!("the traced replay does not reproduce serve_multi: {e}"))?;
            attempted += runs.iter().map(|r| r.arrivals).sum::<u64>();
            let per = |f: fn(&TracedCall) -> u64| med(&runs, |r| f(r) as f64 / r.arrivals as f64);
            let per_batch =
                |f: fn(&TracedCall) -> u64| med(&runs, |r| f(r) as f64 / r.batches as f64);
            let d = reference.delay;
            let consumer_self = per(|r| r.policy_ns + r.push_ns + r.finish_ns);
            set("workload.gen_ns_per_arrival", per(|r| r.gen_ns));
            set("fanin.ns_per_arrival", per(|r| r.fanin_ns));
            set("fanin.runs_per_batch", config.titles.len() as f64);
            set(
                "pipeline.consumer_wait_ns_per_batch",
                per_batch(|r| r.consumer_wait_ns),
            );
            set(
                "pipeline.producer_wait_ns_per_batch",
                per_batch(|r| r.producer_wait_ns),
            );
            set("serve.groups_per_arrival", per(|r| r.groups));
            set("serve.residual_ns_per_arrival", ns_untraced - consumer_self);
            set("serve.delay_p50_slots", d.p50_slots as f64);
            set("serve.delay_p99_slots", d.p99_slots as f64);
            set("serve.delay_max_slots", d.max_slots as f64);
            set("serve.delay_mean_slots", d.mean_slots);
            set(
                "policy.ns_per_group",
                med(&runs, |r| r.policy_ns as f64 / r.groups as f64),
            );
            set("engine.push_ns_per_arrival", per(|r| r.push_ns));
            set("engine.push_p50_ns", med(&runs, |r| r.push_p50_ns));
            set("engine.push_p99_ns", med(&runs, |r| r.push_p99_ns));
            set("engine.reports_per_arrival", per(|r| r.reports));
            set(
                "engine.max_open_trees",
                med(&runs, |r| r.max_open_trees as f64),
            );
            per(|r| r.wall_ns)
        }
        Input::Offline(input) => {
            let runs: Vec<TracedOffline> = until(deadline, || offline::traced_offline(input))
                .into_iter()
                .collect::<Result<_, _>>()?;
            attempted += runs.iter().map(|r| r.arrivals).sum::<u64>();
            let per =
                |f: fn(&TracedOffline) -> u64| med(&runs, |r| f(r) as f64 / r.arrivals as f64);
            set("offline.plan_ns_per_arrival", per(|r| r.plan_ns));
            set("online.forest_ns_per_arrival", per(|r| r.forest_ns));
            // Two forests are replayed: per simulated arrival, comparable
            // with the single incremental replay.
            set("sim.events_ns_per_arrival", per(|r| r.events_ns) / 2.0);
            set("sim.incremental_ns_per_arrival", per(|r| r.incremental_ns));
            set("engine.reports_per_arrival", per(|r| r.reports) / 2.0);
            set(
                "engine.max_open_trees",
                med(&runs, |r| r.max_open_trees as f64),
            );
            set("offline.cost_ratio", calls[0].cost_ratio.unwrap_or(0.0));
            per(|r| r.wall_ns)
        }
    };
    set("trace.overhead_ns_per_arrival", traced_ns - ns_untraced);
    Ok(Output {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        notes: vec![
            ("raw_ns_per_arrival_untraced", ns_untraced, "ns"),
            ("speed_factor", med(&calls, |c| c.speed), "ratio"),
            ("failed_share", failed as f64 / attempted as f64, "ratio"),
        ],
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let input = args.workload.input(args.seed, args.arrivals);
    let probe = SpeedProbe::new();
    if args.setup_probe {
        call(&input, &probe);
        println!("ready");
        return ExitCode::SUCCESS;
    }
    let (result, declared) = if args.trace {
        (traced(&args, &input, &probe), &PER_LAYER[..])
    } else {
        (untraced(&args, &input, &probe), &END_TO_END[..])
    };
    match result {
        Ok(out) => {
            out.print(declared);
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("perfbench: {e}");
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
