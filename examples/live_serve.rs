//! Example: a live multi-title serving session, arrival at a time.
//!
//! The batch simulator answers "what did this workload cost?" after the
//! fact; `sm-serve` runs the server the way it would run in production.
//! Each title's Poisson arrivals are generated on a producer thread,
//! merged into one traffic stream, and pushed through that title's
//! incremental engine one at a time: the on-line merge policy decides
//! where each client merges *at traffic time*, client reports stream out
//! as their last part-deadline fires, and every push's wall-clock cost
//! is recorded.
//!
//! The second run squeezes the same catalog through a two-channel shared
//! budget (the §5 fixed-bandwidth regime): when every license chain is
//! busy, arrivals are *re-planned later* — the overload is visible as
//! start-up delay, and nobody is ever declined.
//!
//! Run with: `cargo run --release --example live_serve`

use stream_merging::serve::{
    serve_multi, serve_multi_with, MultiServeConfig, MultiServeReport, PolicyKind, TitleConfig,
};

fn print_report(label: &str, report: &MultiServeReport) {
    println!("{label}:");
    println!(
        "  arrivals      {} generated, {} served, {} rejected",
        report.generated, report.served, report.rejected
    );
    let d = &report.delay;
    println!(
        "  start-up wait p50 {} / p99 {} / max {} slots (mean {:.2})",
        d.p50_slots, d.p99_slots, d.max_slots, d.mean_slots
    );
    for (i, t) in report.titles.iter().enumerate() {
        println!(
            "  title-{i:02}      L = {:>3}, {:>4} arrivals in {:>3} groups, \
             planned peak {:>2}, delay p99 {} max {}",
            t.media_len,
            t.generated,
            t.groups,
            t.planned_peak,
            t.delay.p99_slots,
            t.delay.max_slots
        );
    }
    let l = report.latency;
    println!(
        "  push latency  (1 in 64 sampled) p50 {} ns, p99 {} ns, max {} ns",
        l.p50_ns, l.p99_ns, l.max_ns
    );
}

fn main() {
    // A three-title catalog under ~2 hours of traffic: a popular short
    // title, a mid-tail title, and a long movie on the slot-dense
    // delay-guaranteed policy.
    let catalog = vec![
        TitleConfig::new(32, 1.5),
        TitleConfig::new(64, 4.0),
        TitleConfig {
            policy: PolicyKind::DelayGuaranteed,
            ..TitleConfig::new(96, 8.0)
        },
    ];
    let config = MultiServeConfig::new(catalog, 5_000.0);
    let mut shown = 0;
    let report = serve_multi_with(
        &config,
        &stream_merging::server::PlannerMemo::new(),
        |title, r| {
            if shown < 5 {
                println!(
                    "served title-{title:02} client {:>3}: max buffer {} slots, min slack {}",
                    r.client, r.max_buffer, r.min_slack
                );
                shown += 1;
            }
        },
    )
    .expect("an unbounded budget over a valid catalog cannot fail");
    println!("  ...");
    print_report("unbounded budget", &report);

    // Same catalog, same traffic, but only two full-length streams may be
    // live at once: the planner absorbs the overload as start-up delay.
    println!();
    let squeezed = MultiServeConfig {
        budget: Some(2),
        ..config
    };
    let report = serve_multi(&squeezed).expect("a squeezed run is still always feasible");
    print_report("2-channel shared budget", &report);
    assert_eq!(report.rejected, 0, "delay planning never declines");
}
