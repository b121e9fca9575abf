//! The benchmark's self-test. At a small size and two seeds, every workload
//! runs untraced and traced, and each run must
//!
//! - exit 0 with correct outputs and no failed arrivals — on the serve
//!   workloads the traced run only succeeds if its replay reproduces
//!   `serve_multi`'s report for that seed;
//! - print, in its last line, exactly the metric names `BENCHMARK.json`
//!   declares for that mode.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// Every `"name": "<x>"` value inside the array that follows `"<key>":`.
fn declared(spec: &str, key: &str) -> Vec<String> {
    let start = spec
        .find(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &spec[start..];
    let section = &section[..section.find(']').expect("the array closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("the name closes")].to_string())
        .collect()
}

/// The metric names of a result line, in order.
fn printed(result: &str) -> Vec<String> {
    let metrics = &result[result.find("\"metrics\":").expect("a metrics object")..];
    let pieces: Vec<&str> = metrics.split(": {\"value\": ").collect();
    // Every piece but the last ends with the quoted name of the next value.
    pieces[..pieces.len() - 1]
        .iter()
        .map(|piece| piece.rsplit('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn run(workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string()])
        .args(["--arrivals", "4000"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_is_correct_and_prints_the_declared_metrics() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads = declared(&spec, "workloads");
    assert_eq!(workloads.len(), 3);
    for workload in &workloads {
        for seed in [1, 2] {
            for (trace, want) in [(0, &end_to_end), (1, &per_layer)] {
                let result = run(workload, seed, trace);
                assert!(
                    result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
                    "{workload} seed {seed} trace {trace}: {result}"
                );
                assert_eq!(&printed(&result), want, "{workload} trace {trace}");
            }
        }
    }
}
