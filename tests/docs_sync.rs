//! Documentation drift gate: fails when `README.md` / `ARCHITECTURE.md`
//! fall out of step with the workspace they describe. Runs in the tier-1
//! test suite and as an explicit CI step, so the front-door pages cannot
//! silently rot.

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing {}: {e}", path.display()))
}

/// Every entry of the `cases` array in `BENCH_scale.json`, as raw lines.
fn bench_case_lines(json: &str) -> Vec<&str> {
    json.lines()
        .filter(|l| l.trim_start().starts_with('{') && l.contains("\"name\""))
        .collect()
}

/// Extracts `"key": <number>` from a JSON case line.
fn json_number(line: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\": ");
    let start = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {line}"))
        + needle.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key} in {line}"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} in {line}: {e}"))
}

#[test]
fn readme_exists_and_cross_links_the_doc_set() {
    let readme = read("README.md");
    for link in ["ARCHITECTURE.md", "ROADMAP.md", "PAPER.md", "PAPERS.md"] {
        assert!(readme.contains(link), "README.md must link {link}");
    }
    // The quickstart must quote the tier-1 gate verbatim.
    assert!(
        readme.contains("cargo build --release && cargo test -q"),
        "README.md quickstart must state the tier-1 command"
    );
    // The offline-build caveat is load-bearing for contributors.
    assert!(
        readme.contains("third_party/"),
        "README.md must explain the vendored third_party/ stubs"
    );
}

#[test]
fn readme_workspace_map_matches_cargo_members() {
    let readme = read("README.md");
    let manifest = read("Cargo.toml");
    let mut crates_seen = 0;
    for line in manifest.lines() {
        let line = line.trim().trim_matches(|c| c == '"' || c == ',');
        if let Some(dir) = line.strip_prefix("crates/") {
            let krate = format!("sm-{dir}");
            assert!(
                readme.contains(&krate),
                "README.md workspace map is missing workspace member `{krate}`"
            );
            crates_seen += 1;
        }
    }
    assert_eq!(crates_seen, 13, "expected the 13 sm-* workspace members");
}

#[test]
fn readme_example_tour_names_real_examples() {
    let readme = read("README.md");
    let mut found = 0;
    for chunk in readme.split("--example ").skip(1) {
        let name: String = chunk
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        let path = root().join("examples").join(format!("{name}.rs"));
        assert!(
            path.exists(),
            "README.md tours `--example {name}` but {} does not exist",
            path.display()
        );
        found += 1;
    }
    assert!(found >= 5, "README.md should tour the examples directory");
}

#[test]
fn architecture_documents_the_runtime_pieces() {
    let arch = read("ARCHITECTURE.md");
    for piece in [
        "engine::dense",
        "engine::incremental",
        "ScheduleStream",
        "simulate_streaming",
        "simulate_incremental",
        "IncrementalEngine",
        "sm-serve",
        "ServeReport",
        "serve_multi",
        "MultiServeConfig",
        "TitleConfig",
        "PolicySwap",
        "DelayStats",
        "merge_runs",
        "license chain",
        "rejected == 0",
        "simulate_dynamic",
        "simulate_dynamic_sequential",
        "parallel_map",
        "DynamicError",
        "EpochBreakdown",
        "DynamicConfig",
        "plan_ahead",
        "PlannerMemo",
    ] {
        assert!(arch.contains(piece), "ARCHITECTURE.md must cover {piece}");
    }
    assert!(
        read("ROADMAP.md").contains("ARCHITECTURE.md"),
        "ROADMAP.md must cross-link ARCHITECTURE.md"
    );
}

/// The rule ids `sm-lint` actually ships, parsed from its `RULE_IDS`
/// array — the same source of truth the CLI's `--list-rules` prints.
fn shipped_lint_rules() -> Vec<String> {
    let lib = read("crates/lint/src/lib.rs");
    let array = lib
        .split("pub const RULE_IDS")
        .nth(1)
        .expect("crates/lint/src/lib.rs must declare RULE_IDS")
        .split("];")
        .next()
        .expect("unterminated RULE_IDS array");
    array
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn architecture_rule_catalog_matches_shipped_lint_rules() {
    let rules = shipped_lint_rules();
    assert_eq!(rules.len(), 5, "sm-lint ships five rules, got {rules:?}");
    let arch = read("ARCHITECTURE.md");
    for rule in &rules {
        assert!(
            arch.contains(&format!("`{rule}`")),
            "ARCHITECTURE.md's rule catalog is missing shipped rule `{rule}`"
        );
        let snake = rule.replace('-', "_");
        for kind in ["fail", "pass"] {
            let fixture = root().join(format!("crates/lint/tests/fixtures/{snake}_{kind}.rs"));
            assert!(
                fixture.exists(),
                "rule `{rule}` is missing its {kind} fixture at {}",
                fixture.display()
            );
        }
    }
    // The pass is only a gate if CI actually runs it, on both toolchains.
    let ci = read(".github/workflows/ci.yml");
    assert!(
        ci.contains("cargo run -p sm-lint") && ci.contains("-- --workspace"),
        "CI must run `cargo run -p sm-lint … -- --workspace` as its own leg"
    );
    assert!(
        ci.contains("cargo test -q -p sm-lint"),
        "CI must run the sm-lint unit and fixture suites explicitly"
    );
}

#[test]
fn bench_json_schema_is_documented_field_by_field() {
    let arch = read("ARCHITECTURE.md");
    let bench_src = read("crates/bench/benches/scale.rs");
    // One canonical field list, checked against BOTH the producer and the
    // docs — drift on either side fails here.
    for field in [
        "bench",
        "cases",
        "name",
        "arrivals",
        "engine",
        "wall_ms",
        "peak_streams",
        "total_units",
        "memo_hits",
        "ns_per_arrival",
        "max_open_trees",
        "allocations_per_arrival",
        // The serve_multi case's optional per-line extras.
        "titles",
        "rejected",
        "delay_p50",
        "delay_p99",
        "delay_max",
    ] {
        assert!(
            bench_src.contains(&format!("\\\"{field}\\\"")),
            "benches/scale.rs no longer emits `{field}` — update this test and ARCHITECTURE.md"
        );
        assert!(
            arch.contains(&format!("`{field}`")),
            "ARCHITECTURE.md must document the BENCH_scale.json field `{field}`"
        );
    }
}

#[test]
fn committed_bench_trajectory_has_the_dynamic_datapoints() {
    let json = read("BENCH_scale.json");
    let cases = bench_case_lines(&json);
    assert!(
        cases.len() >= 8,
        "BENCH_scale.json should carry the three sim shapes, the incremental \
         ingest run, the sequential dynamic baseline, and the pipelined \
         K ∈ {{1, 2, 4}} sweep"
    );
    let dynamic: Vec<&&str> = cases
        .iter()
        .filter(|l| l.contains("server_dynamic"))
        .collect();
    let seq = dynamic
        .iter()
        .find(|l| l.contains("\"sequential\""))
        .expect("BENCH_scale.json must carry the sequential dynamic baseline");
    let seq_ms = json_number(seq, "wall_ms");
    assert_eq!(
        json_number(seq, "memo_hits"),
        0.0,
        "the sequential baseline runs memo-free"
    );
    let k_line = |k: u32| {
        dynamic
            .iter()
            .find(|l| l.contains(&format!("_k{k}\"")) && l.contains("\"pipelined\""))
            .unwrap_or_else(|| {
                panic!("BENCH_scale.json must carry the pipelined K = {k} dynamic datapoint")
            })
    };
    let (k1, k2, k4) = (k_line(1), k_line(2), k_line(4));
    let k1_ms = json_number(k1, "wall_ms");
    for (k, line) in [(1u32, k1), (2, k2), (4, k4)] {
        let ms = json_number(line, "wall_ms");
        // The acceptance bar of the cross-epoch pipeline: the committed
        // full-size run realizes the overlap (or at worst breaks even) at
        // every plan-ahead depth.
        assert!(
            ms <= seq_ms,
            "committed K = {k} datapoint regressed: pipelined {ms} ms > sequential {seq_ms} ms"
        );
        // Identical workload ⇒ identical deterministic outputs.
        assert_eq!(
            json_number(line, "total_units"),
            json_number(seq, "total_units"),
            "K = {k} must report the sequential spine's stream-minutes"
        );
        assert_eq!(
            json_number(line, "peak_streams"),
            json_number(seq, "peak_streams"),
            "K = {k} must report the sequential spine's peak"
        );
    }
    // K = 1 is the memo-free PR-4 configuration; the K ≥ 2 runs carry the
    // cross-epoch memo and must realize its reuse: recorded hits, and wall
    // time at or below the depth-1 run's.
    assert_eq!(json_number(k1, "memo_hits"), 0.0, "K = 1 runs memo-free");
    for (k, line) in [(2u32, k2), (4, k4)] {
        assert!(
            json_number(line, "memo_hits") > 0.0,
            "K = {k} must record cross-epoch memo hits"
        );
        let ms = json_number(line, "wall_ms");
        assert!(
            ms <= k1_ms,
            "K = {k} + memo regressed past the depth-1 run: {ms} ms > {k1_ms} ms"
        );
    }
}

#[test]
fn committed_bench_trajectory_has_the_incremental_ingest_datapoint() {
    let json = read("BENCH_scale.json");
    let cases = bench_case_lines(&json);
    let inc = cases
        .iter()
        .find(|l| l.contains("serve_incremental") && l.contains("\"incremental\""))
        .expect("BENCH_scale.json must carry the serve_incremental datapoint");
    let events = cases
        .iter()
        .find(|l| l.contains("events_dg") && l.contains("\"events\""))
        .expect("BENCH_scale.json must carry the events_dg baseline");
    assert!(
        json_number(inc, "arrivals") >= 1_000_000.0,
        "the committed serve_incremental run must be full-size (10^6 arrivals)"
    );
    // Same grid, push-based: identical deterministic outputs.
    assert_eq!(
        json_number(inc, "total_units"),
        json_number(events, "total_units"),
        "incremental ingest must transmit exactly what the events engine does"
    );
    assert_eq!(
        json_number(inc, "peak_streams"),
        json_number(events, "peak_streams"),
        "incremental ingest must reproduce the events engine's peak"
    );
    // The acceptance bar of the push-based refactor: amortized ingest cost
    // within 1.5x of the batch engine, and bounded tree retention.
    let (inc_ns, events_ns) = (
        json_number(inc, "ns_per_arrival"),
        json_number(events, "ns_per_arrival"),
    );
    assert!(
        inc_ns <= events_ns * 1.5,
        "committed serve_incremental regressed: {inc_ns} ns/arrival > 1.5x \
         the events baseline ({events_ns} ns/arrival)"
    );
    let retained = json_number(inc, "max_open_trees");
    assert!(
        (1.0..=64.0).contains(&retained),
        "the DG grid keeps a handful of trees live, got {retained}"
    );
}

#[test]
fn committed_bench_trajectory_has_the_serve_multi_datapoint() {
    let json = read("BENCH_scale.json");
    let cases = bench_case_lines(&json);
    let multi = cases
        .iter()
        .find(|l| l.contains("serve_multi") && l.contains("\"multi\""))
        .expect("BENCH_scale.json must carry the serve_multi datapoint");
    let events = cases
        .iter()
        .find(|l| l.contains("events_dg") && l.contains("\"events\""))
        .expect("BENCH_scale.json must carry the events_dg baseline");
    assert!(
        json_number(multi, "arrivals") >= 1_000_000.0,
        "the committed serve_multi run must be full-size"
    );
    assert_eq!(
        json_number(multi, "titles"),
        3.0,
        "the committed serve_multi run drives a three-title catalog"
    );
    // The serving-layer contract, observable in the committed trajectory:
    // nobody is declined, the squeezed budget genuinely binds (nonzero
    // tail delay), and the ingest thread runs allocation-free.
    assert_eq!(
        json_number(multi, "rejected"),
        0.0,
        "delay planning never declines"
    );
    assert_eq!(
        json_number(multi, "allocations_per_arrival"),
        0.0,
        "the serve_multi ingest thread must run allocation-free in steady state"
    );
    for key in ["delay_p50", "delay_p99", "delay_max"] {
        assert!(
            json_number(multi, key) >= 0.0,
            "serve_multi must record {key}"
        );
    }
    assert!(
        json_number(multi, "delay_p99") > 0.0,
        "the squeezed shared budget must surface as nonzero tail delay"
    );
    assert!(
        json_number(multi, "delay_max") >= json_number(multi, "delay_p99"),
        "delay percentiles must be ordered"
    );
    assert!(
        json_number(multi, "memo_hits") > 0.0,
        "the per-title planned peaks must be served through the memo"
    );
    // The whole serving layer — workload generation and fan-in, delay
    // planning, per-title policy and engine, and 1-in-64 push-latency
    // sampling into a fixed-size histogram — amortizes to within 10x of
    // the bare batch engine's per-arrival cost (the committed lines may
    // come from different refresh runs, so the bound also absorbs
    // machine variance).
    let (multi_ns, events_ns) = (
        json_number(multi, "ns_per_arrival"),
        json_number(events, "ns_per_arrival"),
    );
    assert!(
        multi_ns <= events_ns * 10.0,
        "committed serve_multi regressed: {multi_ns} ns/arrival > 10x \
         the events baseline ({events_ns} ns/arrival)"
    );
}

/// Structural schema check applied to **both** committed bench snapshots:
/// the full-size `BENCH_scale.json` and the reduced-N
/// `BENCH_scale_smoke.json` (written by `SM_SCALE_ARRIVALS` runs, e.g. the
/// CI smoke step). Every case line must carry every schema field with a
/// parseable, non-negative value and a known engine tag.
fn assert_scale_snapshot_schema(json: &str, what: &str) {
    for top in [
        "\"bench\": \"scale\"",
        "\"engine\": \"events\"",
        "\"cases\"",
    ] {
        assert!(json.contains(top), "{what}: missing top-level {top}");
    }
    let cases = bench_case_lines(json);
    assert!(
        cases.len() >= 8,
        "{what}: expected the three sim shapes, the incremental ingest run, \
         and four dynamic datapoints, got {}",
        cases.len()
    );
    for line in cases {
        assert!(line.contains("\"name\": \""), "{what}: unnamed case {line}");
        for key in [
            "arrivals",
            "wall_ms",
            "peak_streams",
            "total_units",
            "memo_hits",
            "ns_per_arrival",
            "max_open_trees",
            "allocations_per_arrival",
        ] {
            let v = json_number(line, key);
            assert!(
                v.is_finite() && v >= 0.0,
                "{what}: bad {key} in {line}: {v}"
            );
        }
        assert!(
            ["events", "incremental", "multi", "pipelined", "sequential"]
                .iter()
                .any(|e| line.contains(&format!("\"engine\": \"{e}\""))),
            "{what}: unknown engine tag in {line}"
        );
    }
}

#[test]
fn committed_bench_trajectory_is_ten_million_arrivals_and_allocation_free() {
    let json = read("BENCH_scale.json");
    let cases = bench_case_lines(&json);
    let by_name = |needle: &str| {
        *cases
            .iter()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("BENCH_scale.json must carry the {needle} datapoint"))
    };
    let dg = by_name("events_dg");
    // The engine hot path's acceptance bar: the full-size Delay Guaranteed grid
    // is 10^7 arrivals and finishes within 1.5 s on the committed run.
    assert!(
        json_number(dg, "arrivals") >= 10_000_000.0,
        "the committed events_dg run must be full-size (10^7 arrivals)"
    );
    assert!(
        json_number(dg, "wall_ms") <= 1_500.0,
        "the committed 10^7 events_dg run must stay within 1.5 s"
    );
    // Steady-state pushes are allocation-free on every engine spine that
    // claims it: the O(log n) warm-up allocations floor to 0 per arrival.
    for case in ["events_dg", "serve_incremental", "events_deep_chain"] {
        assert_eq!(
            json_number(by_name(case), "allocations_per_arrival"),
            0.0,
            "{case} must run allocation-free in steady state"
        );
    }
}

#[test]
fn bench_snapshots_match_the_documented_schema() {
    assert_scale_snapshot_schema(&read("BENCH_scale.json"), "BENCH_scale.json");
    assert_scale_snapshot_schema(&read("BENCH_scale_smoke.json"), "BENCH_scale_smoke.json");
}

#[test]
fn doc_front_door_files_are_tracked_alongside_the_paper_docs() {
    for page in ["README.md", "ARCHITECTURE.md", "ROADMAP.md", "CHANGES.md"] {
        assert!(
            Path::new(&root().join(page)).exists(),
            "{page} must exist at the workspace root"
        );
    }
}
