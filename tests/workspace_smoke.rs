//! Workspace-wiring smoke test: every facade re-export must be reachable
//! under its documented path. This pins the `Cargo.toml` lib-name mapping
//! (`sm-core` → `sm_core` → `stream_merging::core`, etc.) so a manifest
//! regression fails loudly instead of silently dropping a module.

#[test]
fn every_facade_module_is_reachable() {
    // One load-bearing call per re-exported crate; each forces the module
    // path to resolve through the facade.
    assert_eq!(stream_merging::core::consecutive_slots(3), vec![0, 1, 2]);
    assert_eq!(stream_merging::fib::fib(10), 55);
    assert!(stream_merging::offline::closed_form::merge_cost(10) > 0);
    let dg = stream_merging::online::delay_guaranteed::DelayGuaranteedOnline::new(15);
    assert!(dg.tree_size() >= 1);
    assert!(stream_merging::broadcast::HarmonicPlan::new(16, 4).is_ok());
    let mut arrivals = stream_merging::workload::ConstantRate::new(1.0);
    assert!(!stream_merging::workload::ArrivalProcess::generate(&mut arrivals, 5.0).is_empty());
    assert!(stream_merging::server::Zipf::new(8, 1.0).pmf(0) > 0.0);
    let squares = stream_merging::core::parallel_map(&[1u64, 2, 3], |&x| x * x);
    assert_eq!(squares, vec![1, 4, 9]);
}

#[test]
fn facade_paths_agree_with_underlying_crates() {
    // The facade must re-export the very same types, not parallel copies:
    // a value produced through one path must typecheck through the other.
    let forest: stream_merging::core::MergeForest =
        stream_merging::offline::forest::optimal_forest(8, 8).forest;
    let times = stream_merging::core::consecutive_slots(8);
    let report = stream_merging::sim::simulate(&forest, &times, 8).expect("plan must simulate");
    assert!(report.total_units > 0);
}
