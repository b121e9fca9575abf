#![forbid(unsafe_code)]
//! `sm-lint` — the workspace's own static-analysis pass.
//!
//! The serving stack's safety rules used to live only in CHANGES.md and
//! reviewer memory: no panic surface in the ingest hot paths, the PR-2
//! "widening-only `as` casts" audit, no lock acquisition inside
//! [`parallel_map`]/[`pipeline`] closures, all thread creation confined to
//! `sm-core`, no silently discarded `Result`s. This crate mechanizes them
//! as lexical rules over a hand-rolled Rust [`lexer`] (no `syn` — the
//! build environment is offline and this crate is dependency-free), run as
//! `cargo run -p sm-lint -- --workspace` and as its own CI leg.
//!
//! # Waivers
//!
//! Every rule violation must either be fixed or carry an explicit inline
//! waiver on (or immediately above) the offending line:
//!
//! ```text
//! // sm-lint: allow(narrowing-cast) — node count < 2^32, checked at entry
//! ```
//!
//! The reason is mandatory, waivers that suppress nothing are themselves
//! findings, and the tool prints the live waiver count per rule — debt
//! stays visible instead of invisible. Doc comments never enact waivers,
//! so documentation (like this page) can quote the grammar freely.
//!
//! # Scope model
//!
//! Rules see only *non-test library code*: files under a `tests/`,
//! `benches/`, or `examples/` directory are skipped wholesale, and within
//! a library file every item annotated `#[test]` / `#[cfg(test)]` (plus
//! everything lexically inside it) is masked out. `third_party/` vendored
//! stubs and generated `target/` trees are never scanned.
//!
//! [`parallel_map`]: ../sm_core/fn.parallel_map.html
//! [`pipeline`]: ../sm_core/fn.pipeline.html

pub mod lexer;
pub mod rules;

use lexer::{lex, Lexed, TokenKind};
use std::fmt;
use std::path::{Path, PathBuf};

/// Ids of every shipped rule, in catalog order. `tests/docs_sync.rs` (in
/// the facade crate) pins ARCHITECTURE.md's rule catalog against this list.
pub const RULE_IDS: [&str; 5] = [
    "no-panic-surface",
    "narrowing-cast",
    "lock-discipline",
    "no-stray-threads",
    "swallowed-results",
];

/// Engine-level pseudo-rule id for waiver hygiene problems (malformed
/// waiver, unknown rule id, waiver that suppresses nothing).
pub const WAIVER_RULE: &str = "waiver";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Fails the run when unwaived.
    Deny,
    /// Printed, counted, never fails the run.
    Warn,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        })
    }
}

/// One rule violation, located and annotated.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub severity: Severity,
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// `true` when an inline waiver covers this finding.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}:{}: {}[{}] {}",
            self.path, self.line, self.severity, self.rule, self.message
        )?;
        write!(f, "    | {}", self.snippet)
    }
}

/// A parsed `// sm-lint: allow(<rule>) — <reason>` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub path: String,
    /// Line of the comment itself.
    pub line: u32,
    /// Line whose findings it suppresses: its own for trailing comments,
    /// the next code line for standalone ones.
    pub target_line: u32,
    pub rule: String,
    pub reason: String,
    /// Set when the waiver suppressed at least one finding.
    pub used: bool,
}

/// A lexed source file plus the line-level test mask rules consult.
pub struct SourceFile<'a> {
    pub path: String,
    pub lexed: Lexed<'a>,
    lines: Vec<&'a str>,
    test_mask: Vec<bool>,
}

impl<'a> SourceFile<'a> {
    /// `path` must be workspace-relative with `/` separators — rule
    /// scoping matches on it textually.
    pub fn new(path: &str, src: &'a str) -> Self {
        let lexed = lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let test_mask = test_line_mask(&lexed, lines.len());
        Self {
            path: path.to_string(),
            lexed,
            lines,
            test_mask,
        }
    }

    /// `true` when `line` (1-based) is inside a `#[test]` / `#[cfg(test)]`
    /// item.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.test_mask
            .get(line as usize - 1)
            .copied()
            .unwrap_or(false)
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

/// A lint rule: an id, a severity, a path scope, and a token-level check.
pub trait Rule {
    fn id(&self) -> &'static str;
    fn severity(&self) -> Severity {
        Severity::Deny
    }
    /// Whether this rule runs on `path` (workspace-relative, `/`-separated).
    fn applies(&self, path: &str) -> bool;
    /// Returns `(line, message)` pairs; the engine attaches snippets and
    /// resolves waivers.
    fn check(&self, file: &SourceFile<'_>) -> Vec<(u32, String)>;
}

/// `true` when any path segment marks test-only code.
pub fn is_test_path(path: &str) -> bool {
    path.split('/')
        .any(|seg| matches!(seg, "tests" | "benches" | "examples"))
}

/// `true` for library code: under a crate's `src/` (or the facade root's).
pub fn is_library_path(path: &str) -> bool {
    !is_test_path(path) && (path.starts_with("src/") || path.contains("/src/"))
}

/// Marks every line covered by a test-gated item: `#[test]`, `#[bench]`,
/// or a `#[cfg(…)]` whose arguments mention `test` un-negated (so
/// `#[cfg(not(test))]` stays live code, and `#[cfg_attr(test, …)]` — an
/// attribute that is itself conditional, not a conditional item — does
/// not mask anything).
fn test_line_mask(lexed: &Lexed<'_>, n_lines: usize) -> Vec<bool> {
    let mut mask = vec![false; n_lines];
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Punct
            && toks[i].text == "#"
            && toks.get(i + 1).is_some_and(|t| t.text == "[")
        {
            // Collect the attribute's tokens up to its matching `]`.
            let mut j = i + 2;
            let mut depth = 1u32;
            let mut idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match toks[j].text {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    _ => {
                        if toks[j].kind == TokenKind::Ident {
                            idents.push(toks[j].text);
                        }
                    }
                }
                j += 1;
            }
            let is_test_marker = (idents.contains(&"test") || idents.contains(&"bench"))
                && !idents.contains(&"not")
                && idents.first() != Some(&"cfg_attr");
            if is_test_marker {
                let start_line = toks[i].line;
                let end_line = item_end_line(toks, j);
                for line in start_line..=end_line {
                    if let Some(slot) = mask.get_mut(line as usize - 1) {
                        *slot = true;
                    }
                }
                // Resume *after* the attribute; the item body is walked
                // again but re-marking already-true lines is harmless and
                // inner `#[test]` attributes resolve to subsets.
            }
            i = j;
        } else {
            i += 1;
        }
    }
    mask
}

/// Line on which the item starting at token index `start` ends: at the
/// matching brace of its first `{`, or at the first top-level `;`,
/// whichever the item reaches first. Leading further attributes are
/// skipped. Bracket depth covers `{`/`(`/`[` so `fn f(x: [u8; 3])` does
/// not end at the array's semicolon.
fn item_end_line(toks: &[lexer::Token<'_>], start: usize) -> u32 {
    let mut i = start;
    // Skip stacked attributes between the marker and the item.
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        let mut depth = 0u32;
        i += 1;
        while i < toks.len() {
            match toks[i].text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
    let mut depth = 0i64;
    let mut opened_brace = false;
    while i < toks.len() {
        match toks[i].text {
            "{" => {
                opened_brace = depth == 0 || opened_brace;
                depth += 1;
            }
            "(" | "[" => depth += 1,
            "}" | ")" | "]" => {
                depth -= 1;
                if depth == 0 && opened_brace && toks[i].text == "}" {
                    return toks[i].line;
                }
            }
            ";" if depth == 0 => return toks[i].line,
            _ => {}
        }
        i += 1;
    }
    toks.last().map(|t| t.line).unwrap_or(1)
}

/// Result of linting one file.
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
}

/// Parses waiver comments out of a file's line comments. Malformed
/// waivers (missing rule, unknown rule id, missing reason) surface as
/// engine findings so they cannot silently suppress nothing.
fn collect_waivers(file: &SourceFile<'_>, problems: &mut Vec<Finding>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in &file.lexed.comments {
        if c.is_doc {
            continue;
        }
        let body = c.text.trim();
        let Some(rest) = body.strip_prefix("sm-lint:") else {
            continue;
        };
        let mut problem = |message: String| {
            problems.push(Finding {
                path: file.path.clone(),
                line: c.line,
                rule: WAIVER_RULE,
                severity: Severity::Deny,
                message,
                snippet: file.snippet(c.line),
                waived: false,
            });
        };
        let rest = rest.trim();
        let Some(args) = rest.strip_prefix("allow(").and_then(|r| r.split_once(')')) else {
            problem(format!(
                "malformed waiver: expected `sm-lint: allow(<rule>) — <reason>`, got `{body}`"
            ));
            continue;
        };
        let (rule, tail) = args;
        let rule = rule.trim();
        if !RULE_IDS.contains(&rule) {
            problem(format!(
                "waiver names unknown rule `{rule}` (known: {})",
                RULE_IDS.join(", ")
            ));
            continue;
        }
        let reason = tail
            .trim_start()
            .trim_start_matches(['—', '-', ':', '–'])
            .trim();
        if reason.is_empty() {
            problem(format!(
                "waiver for `{rule}` is missing its reason — debt must be explained inline"
            ));
            continue;
        }
        let target_line = if c.is_trailing {
            c.line
        } else {
            // A standalone waiver annotates the next code line (skipping
            // blanks and further comments).
            file.lexed
                .tokens
                .iter()
                .find(|t| t.line > c.line)
                .map(|t| t.line)
                .unwrap_or(c.line)
        };
        waivers.push(Waiver {
            path: file.path.clone(),
            line: c.line,
            target_line,
            rule: rule.to_string(),
            reason: reason.to_string(),
            used: false,
        });
    }
    waivers
}

/// Lints one in-memory source file against `rules`. Files where no rule
/// applies return an empty report without waiver processing (fixture
/// files with deliberately malformed waivers live under `tests/`).
pub fn lint_source(path: &str, src: &str, rules: &[Box<dyn Rule>]) -> FileReport {
    let active: Vec<&dyn Rule> = rules
        .iter()
        .map(|r| r.as_ref())
        .filter(|r| r.applies(path))
        .collect();
    if active.is_empty() {
        return FileReport {
            findings: Vec::new(),
            waivers: Vec::new(),
        };
    }
    let file = SourceFile::new(path, src);
    let mut findings: Vec<Finding> = Vec::new();
    let mut problems: Vec<Finding> = Vec::new();
    let mut waivers = collect_waivers(&file, &mut problems);
    for rule in active {
        let mut raw = rule.check(&file);
        // Rules may visit overlapping regions (nested closures); report
        // each (line, message) once.
        raw.sort();
        raw.dedup();
        for (line, message) in raw {
            let mut waived = false;
            if let Some(w) = waivers
                .iter_mut()
                .find(|w| w.target_line == line && w.rule == rule.id())
            {
                w.used = true;
                waived = true;
            }
            findings.push(Finding {
                path: file.path.clone(),
                line,
                rule: rule.id(),
                severity: rule.severity(),
                message,
                snippet: file.snippet(line),
                waived,
            });
        }
    }
    for w in &waivers {
        if !w.used {
            problems.push(Finding {
                path: w.path.clone(),
                line: w.line,
                rule: WAIVER_RULE,
                severity: Severity::Deny,
                message: format!(
                    "waiver for `{}` suppresses nothing — remove it or move it to the finding",
                    w.rule
                ),
                snippet: file.snippet(w.line),
                waived: false,
            });
        }
    }
    findings.append(&mut problems);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    FileReport { findings, waivers }
}

/// A whole-workspace run.
pub struct Report {
    pub findings: Vec<Finding>,
    pub waivers: Vec<Waiver>,
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the run: unwaived, deny-severity.
    fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| !f.waived && f.severity == Severity::Deny)
    }

    pub fn is_clean(&self) -> bool {
        self.unwaived().next().is_none()
    }

    /// Human-readable summary: per-rule waiver counts, then the verdict.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let unwaived = self.unwaived().count();
        let waived = self.findings.iter().filter(|f| f.waived).count();
        let _ = writeln!(
            out,
            "sm-lint: {} files scanned, {} finding(s) unwaived, {} waived",
            self.files_scanned, unwaived, waived
        );
        for rule in RULE_IDS {
            let n = self.waivers.iter().filter(|w| w.rule == rule).count();
            if n > 0 {
                let _ = writeln!(out, "  waivers[{rule}]: {n}");
            }
        }
        out
    }
}

/// Walks `root` and lints every non-test library file with the default
/// rule set. `third_party/`, `target/`, and dot-directories are skipped.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let rules = rules::default_rules();
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut report = Report {
        findings: Vec::new(),
        waivers: Vec::new(),
        files_scanned: 0,
    };
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)?;
        let mut file_report = lint_source(&rel, &src, &rules);
        report.files_scanned += 1;
        report.findings.append(&mut file_report.findings);
        report.waivers.append(&mut file_report.waivers);
    }
    Ok(report)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || matches!(&*name, "target" | "third_party") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mask_covers_cfg_test_mod_and_test_fns() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); }\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert!(!f.is_test_line(1));
        for line in 2..=6 {
            assert!(f.is_test_line(line), "line {line} should be test");
        }
        assert!(!f.is_test_line(7));
    }

    #[test]
    fn cfg_not_test_and_cfg_attr_stay_live() {
        let src = "#[cfg(not(test))]\nfn live() {}\n#[cfg_attr(test, derive(Debug))]\nstruct S;\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        for line in 1..=4 {
            assert!(!f.is_test_line(line), "line {line} wrongly masked");
        }
    }

    #[test]
    fn test_attr_on_semicolon_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse std::fmt::Debug;\nfn live(x: [u8; 3]) {}\n";
        let f = SourceFile::new("crates/x/src/lib.rs", src);
        assert!(f.is_test_line(2));
        assert!(!f.is_test_line(3));
    }

    #[test]
    fn waiver_grammar_requires_rule_and_reason() {
        let rules = rules::default_rules();
        // Trailing waiver with reason: finding suppressed, waiver used.
        let ok = "pub fn f(x: usize) -> u32 {\n    x as u32 // sm-lint: allow(narrowing-cast) — bounded by caller\n}\n";
        let r = lint_source("crates/x/src/lib.rs", ok, &rules);
        assert!(r.findings.iter().all(|f| f.waived), "{:?}", r.findings);
        assert_eq!(r.waivers.len(), 1);
        assert!(r.waivers[0].used);
        assert_eq!(r.waivers[0].reason, "bounded by caller");

        // Standalone waiver annotates the next code line.
        let standalone = "pub fn f(x: usize) -> u32 {\n    // sm-lint: allow(narrowing-cast) — bounded by caller\n    x as u32\n}\n";
        let r = lint_source("crates/x/src/lib.rs", standalone, &rules);
        assert!(r.findings.iter().all(|f| f.waived), "{:?}", r.findings);

        // Missing reason is itself a deny finding.
        let bad =
            "pub fn f(x: usize) -> u32 {\n    x as u32 // sm-lint: allow(narrowing-cast)\n}\n";
        let r = lint_source("crates/x/src/lib.rs", bad, &rules);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == WAIVER_RULE && f.message.contains("missing its reason")));

        // Unknown rule id is rejected.
        let unknown = "// sm-lint: allow(no-such-rule) — whatever\npub fn f() {}\n";
        let r = lint_source("crates/x/src/lib.rs", unknown, &rules);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == WAIVER_RULE && f.message.contains("unknown rule")));
    }

    #[test]
    fn unused_waivers_are_findings() {
        let src = "// sm-lint: allow(narrowing-cast) — nothing here narrows\npub fn f() {}\n";
        let r = lint_source("crates/x/src/lib.rs", src, &rules::default_rules());
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == WAIVER_RULE && f.message.contains("suppresses nothing")));
    }

    #[test]
    fn doc_comments_do_not_enact_waivers() {
        let src = "/// sm-lint: allow(narrowing-cast) — quoted in docs\npub fn f(x: usize) -> u32 {\n    x as u32\n}\n";
        let r = lint_source("crates/x/src/lib.rs", src, &rules::default_rules());
        assert!(r.waivers.is_empty());
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == "narrowing-cast" && !f.waived));
    }

    #[test]
    fn files_with_no_applicable_rule_are_skipped_entirely() {
        // A fixture-style file full of malformed waivers under tests/
        // must not produce engine findings.
        let src = "// sm-lint: allow(broken\nfn f() { x.unwrap(); }\n";
        let r = lint_source(
            "crates/lint/tests/fixtures/x.rs",
            src,
            &rules::default_rules(),
        );
        assert!(r.findings.is_empty());
    }
}
