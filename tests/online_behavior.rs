//! Behavioural integration tests for the on-line layer: DG vs dyadic vs
//! batching across traffic regimes, channel assignment of on-line plans,
//! and continuous-time verification of dyadic output.

use stream_merging::core::consecutive_slots;
use stream_merging::online::batching::{batch_arrivals, batched_dyadic_cost, plain_batching_cost};
use stream_merging::online::capacity::steady_state_bandwidth;
use stream_merging::online::delay_guaranteed::online_full_cost;
use stream_merging::online::dyadic::{dyadic_forest, dyadic_total_cost, DyadicConfig};
use stream_merging::online::hybrid::{HybridConfig, HybridServer};
use stream_merging::online::DelayGuaranteedOnline;
use stream_merging::sim::{assign_channels, stream_schedule, verify_continuous, BandwidthProfile};
use stream_merging::workload::{ArrivalProcess, ConstantRate, PoissonProcess};

#[test]
fn dg_beats_dyadic_at_high_intensity_poisson() {
    // λ = 0.1 slots (10 arrivals per delay window), L = 100, horizon 2000.
    let media = 100.0;
    let arrivals = PoissonProcess::new(0.1, 7).generate(2_000.0);
    let dyadic = dyadic_total_cost(DyadicConfig::golden_poisson(), media, &arrivals);
    let batched = batched_dyadic_cost(DyadicConfig::golden_poisson(), &arrivals, 1.0, media);
    let dg = online_full_cost(100, 2_000) as f64;
    assert!(dg < dyadic, "DG {dg} vs immediate dyadic {dyadic}");
    assert!(dg < batched, "DG {dg} vs batched dyadic {batched}");
}

#[test]
fn dyadic_beats_dg_at_low_intensity_poisson() {
    // λ = 10 slots (one arrival per 10 windows).
    let media = 100.0;
    let arrivals = PoissonProcess::new(10.0, 11).generate(2_000.0);
    let batched = batched_dyadic_cost(DyadicConfig::golden_poisson(), &arrivals, 1.0, media);
    let dg = online_full_cost(100, 2_000) as f64;
    assert!(batched < dg, "batched dyadic {batched} vs DG {dg}");
}

#[test]
fn batching_equals_batched_dyadic_when_nothing_can_merge() {
    // Gaps beyond β·L: merging adds nothing.
    let arrivals = [10.0, 200.0, 390.0, 580.0];
    let media = 100.0;
    let a = batched_dyadic_cost(DyadicConfig::golden_poisson(), &arrivals, 1.0, media);
    let b = plain_batching_cost(&arrivals, 1.0, media);
    assert_eq!(a, b);
}

#[test]
fn constant_rate_at_slot_rate_makes_batching_transparent() {
    // One arrival per slot: batching changes nothing for the dyadic input.
    let arrivals = ConstantRate::new(1.0).generate(500.0);
    let batched = batch_arrivals(&arrivals, 1.0);
    assert_eq!(batched.len(), arrivals.len());
    let media = 50.0;
    let imm = dyadic_total_cost(DyadicConfig::golden_poisson(), media, &arrivals);
    let bat = batched_dyadic_cost(DyadicConfig::golden_poisson(), &arrivals, 1.0, media);
    assert!((imm - bat).abs() < 1e-6);
}

#[test]
fn dyadic_forests_pass_continuous_verification() {
    for (seed, gap) in [(1u64, 0.05f64), (2, 0.5), (3, 3.0)] {
        let arrivals = PoissonProcess::new(gap, seed).generate(300.0);
        let forest = dyadic_forest(DyadicConfig::golden_poisson(), 40.0, &arrivals);
        verify_continuous(&forest, &arrivals, 40.0, 1e-7)
            .unwrap_or_else(|e| panic!("seed {seed}, gap {gap}: {e:?}"));
    }
}

#[test]
fn online_plan_fits_exactly_peak_channels() {
    let alg = DelayGuaranteedOnline::new(60);
    let n = 240usize;
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let specs = stream_schedule(&forest, &times, 60).unwrap();
    let plan = assign_channels(&specs);
    let peak = BandwidthProfile::from_streams(&specs).peak();
    assert_eq!(plan.channels_used, peak);
}

#[test]
fn steady_state_peak_bounds_any_horizon_interior() {
    let ss = steady_state_bandwidth(80);
    let alg = DelayGuaranteedOnline::new(80);
    let n = 800usize;
    let forest = alg.forest_after(n);
    let times = consecutive_slots(n);
    let profile = BandwidthProfile::from_streams(&stream_schedule(&forest, &times, 80).unwrap());
    // Interior slots (skip L at each end) never exceed the steady peak.
    let counts = profile.window(profile.origin() + 80, profile.end() - 160);
    assert!(counts.iter().all(|&c| c <= ss.peak));
    assert!(counts.contains(&ss.peak));
}

#[test]
fn hybrid_server_matches_components_at_extremes() {
    // All-heavy traffic -> ≈ pure DG; all-idle -> ≈ pure dyadic cost.
    let mut heavy = HybridServer::new(50, HybridConfig::default());
    for s in 0..300u64 {
        let a: Vec<f64> = (0..3).map(|i| s as f64 + (i + 1) as f64 / 4.0).collect();
        heavy.feed_slot(&a);
    }
    let dg = online_full_cost(50, 300) as f64;
    assert!((heavy.total_cost() - dg).abs() <= 0.05 * dg + 100.0);

    let mut idle = HybridServer::new(50, HybridConfig::default());
    for s in 0..300u64 {
        if s % 40 == 5 {
            idle.feed_slot(&[s as f64 + 0.5]);
        } else {
            idle.feed_slot(&[]);
        }
    }
    // 8 isolated arrivals (gap 40 > β·L = 25): 8 full streams.
    assert_eq!(idle.total_cost(), 8.0 * 50.0);
}
