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
    assert_eq!(crates_seen, 12, "expected the 12 sm-* workspace members");
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

/// The text of the array under `"key": [` in `json`, up to its closing
/// bracket (`BENCHMARK.json`'s arrays do not nest).
fn json_array<'a>(json: &'a str, key: &str) -> &'a str {
    let open = format!("\"{key}\": [");
    let start = json
        .find(&open)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
        + open.len();
    let len = json[start..]
        .find(']')
        .unwrap_or_else(|| panic!("unterminated `{key}` array"));
    &json[start..start + len]
}

/// Every `"name": "<value>"` in `text`.
fn json_names(text: &str) -> Vec<&str> {
    text.split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| rest.split('"').next())
        .collect()
}

#[test]
fn readme_benchmark_section_follows_benchmark_json() {
    let json = read("BENCHMARK.json");
    let readme = read("README.md");
    let section = readme
        .split("\n## Benchmark\n")
        .nth(1)
        .expect("README.md must have a `## Benchmark` section")
        .split("\n## ")
        .next()
        .unwrap_or_default();
    // The declared command, quoted verbatim.
    let command: Vec<&str> = json_array(&json, "command")
        .split('"')
        .skip(1)
        .step_by(2)
        .collect();
    assert!(
        section.contains(&command.join(" ")),
        "README.md's benchmark section must quote the BENCHMARK.json command `{}`",
        command.join(" ")
    );
    for key in ["workloads", "end_to_end"] {
        let names = json_names(json_array(&json, key));
        assert!(!names.is_empty(), "BENCHMARK.json declares no {key}");
        for name in names {
            assert!(
                section.contains(&format!("`{name}`")),
                "README.md's benchmark section must name BENCHMARK.json's {key} entry `{name}`"
            );
        }
    }
    assert!(
        section.contains("perfbench/README.md"),
        "README.md's benchmark section must link perfbench/README.md"
    );
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
