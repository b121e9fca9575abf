#![forbid(unsafe_code)]
//! `smctl` — a command-line front end over the whole workspace.
//!
//! The binary is a thin wrapper around [`run`], which takes the argument
//! vector and returns the rendered output (or a [`CliError`]), so every
//! subcommand is unit-testable without spawning processes.
//!
//! ```text
//! smctl mcost <n>             merge costs M(n), Mω(n) and the interval I(n)
//! smctl tree <n>              optimal merge tree for n arrivals
//! smctl plan <L> <n>          optimal merge forest for media length L
//! smctl diagram <L> <n>       ASCII stream diagram (the paper's Fig. 3)
//! smctl program <L> <n> <t>   receiving program of the client arriving at t
//! smctl online <L> <horizon>  on-line DG cost vs the off-line optimum
//! smctl broadcast <L> <D>     static broadcasting schemes for delay D
//! smctl server <k> <budget>   per-title delays for a Zipf catalog
//! smctl serve <horizon> <budget> <L>:<mean>[:<policy>] [...]
//!                             live multi-title serving run: arrivals are
//!                             re-planned at traffic time, never declined
//! ```

use std::fmt;
use std::fmt::Write as _;

use sm_fib::{FIB, MAX_FIB_INDEX_U64};
use sm_online::DelayGuaranteedOnline;

pub mod render;

/// Errors surfaced to the user (printed to stderr, exit code 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Unknown or missing subcommand; the payload is the usage text.
    Usage(String),
    /// A subcommand received a malformed or out-of-range argument.
    BadArgument { arg: String, reason: String },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Usage(usage) => write!(f, "{usage}"),
            Self::BadArgument { arg, reason } => {
                write!(f, "bad argument `{arg}`: {reason}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The usage text (also returned by `smctl help`).
pub fn usage() -> String {
    "\
smctl — guaranteed start-up delay Media-on-Demand with stream merging
       (Bar-Noy, Goshi, Ladner; SPAA'03 / JDA'06)

USAGE: smctl <command> [args]

COMMANDS
  mcost <n>              M(n), Mω(n), and the last-merge interval I(n)
  tree <n>               optimal merge tree for arrivals 0..n
  plan <L> <n>           optimal merge forest for media length L (slots)
  diagram <L> <n>        ASCII stream diagram (paper Fig. 3 style)
  program <L> <n> <t>    receiving program of the client arriving at slot t
  online <L> <horizon>   on-line Delay Guaranteed cost vs off-line optimum
  broadcast <L> <D>      static broadcasting schemes at delay D (D | L)
  server <k> <budget>    per-title delay plan for a k-title Zipf catalog
  serve <horizon> <budget|unlimited> <L>:<mean>[:dg|dyadic] [...]
                         live multi-title serving run: one Poisson title
                         per <L>:<mean> spec, every arrival re-planned at
                         traffic time under the shared channel budget —
                         overload becomes start-up delay, never a decline
  policies <L> <lambda>  on-line policy costs at inter-arrival gap lambda
                         (as % of the media length, constant-rate arrivals)
  client <scheme> <L> <D> <t>
                         a broadcast client's reception schedule; scheme is
                         staggered|pyramid|skyscraper|fast
  help                   this text"
        .to_string()
}

fn parse<T: std::str::FromStr>(arg: &str, what: &str) -> Result<T, CliError> {
    arg.parse().map_err(|_| CliError::BadArgument {
        arg: arg.to_string(),
        reason: format!("expected {what}"),
    })
}

fn positive(n: u64, arg: &str) -> Result<u64, CliError> {
    if n == 0 {
        return Err(CliError::BadArgument {
            arg: arg.to_string(),
            reason: "must be positive".to_string(),
        });
    }
    Ok(n)
}

/// The largest `n` whose `M(n)` fits in a `u64` (so also `n < F_92`, which
/// Eq. (6)'s `F_{k+2}` needs).
const MAX_MCOST_N: u64 = 227_312_532_704_060_738;

/// The largest `L` with `L + 2 ≤ F_93`, the domain of Theorem 12's `h`.
const MAX_MEDIA_LEN: u64 = FIB[MAX_FIB_INDEX_U64] - 2;

fn at_most(n: u64, max: u64, arg: &str) -> Result<u64, CliError> {
    if n > max {
        return Err(CliError::BadArgument {
            arg: arg.to_string(),
            reason: format!("must be at most {max}"),
        });
    }
    Ok(n)
}

/// Dispatches a full argument vector (without the program name).
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(usage()),
        Some("mcost") => {
            let n = positive(parse(required(&mut it, "n")?, "a positive integer")?, "n")?;
            let n = at_most(n, MAX_MCOST_N, "n")?;
            Ok(render::mcost(n))
        }
        Some("tree") => {
            let n = positive(parse(required(&mut it, "n")?, "a positive integer")?, "n")?;
            Ok(render::tree(n))
        }
        Some("plan") => {
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let l = at_most(l, MAX_MEDIA_LEN, "L")?;
            let n = positive(parse(required(&mut it, "n")?, "a positive integer")?, "n")?;
            Ok(render::plan(l, n))
        }
        Some("diagram") => {
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let n = positive(parse(required(&mut it, "n")?, "a positive integer")?, "n")?;
            Ok(render::diagram(l, n))
        }
        Some("program") => {
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let n = positive(parse(required(&mut it, "n")?, "a positive integer")?, "n")?;
            let t: u64 = parse(required(&mut it, "t")?, "a slot in 0..n")?;
            if t >= n {
                return Err(CliError::BadArgument {
                    arg: t.to_string(),
                    reason: format!("client slot must lie in 0..{n}"),
                });
            }
            Ok(render::program(l, n, t))
        }
        Some("online") => {
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let l = at_most(l, DelayGuaranteedOnline::MAX_MEDIA_LEN, "L")?;
            let n = positive(
                parse(required(&mut it, "horizon")?, "a positive integer")?,
                "horizon",
            )?;
            Ok(render::online(l, n))
        }
        Some("broadcast") => {
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let d = positive(parse(required(&mut it, "D")?, "a positive integer")?, "D")?;
            render::broadcast(l, d)
        }
        Some("server") => {
            let k = positive(parse(required(&mut it, "k")?, "a positive integer")?, "k")?;
            let b = positive(
                parse(required(&mut it, "budget")?, "a positive integer")?,
                "budget",
            )?;
            Ok(render::server(k as usize, b))
        }
        Some("serve") => {
            let horizon: f64 = parse(required(&mut it, "horizon")?, "a positive number")?;
            let budget = parse_budget(required(&mut it, "budget")?)?;
            let titles: Vec<sm_serve::TitleConfig> =
                it.map(parse_title_spec).collect::<Result<_, CliError>>()?;
            if titles.is_empty() {
                return Err(CliError::BadArgument {
                    arg: "<L>:<mean>".to_string(),
                    reason: "the catalog needs at least one title spec".to_string(),
                });
            }
            render::serve(horizon, budget, titles)
        }
        Some("policies") => {
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let lambda: f64 = parse(required(&mut it, "lambda")?, "a positive number")?;
            if lambda.is_nan() || lambda <= 0.0 || !lambda.is_finite() {
                return Err(CliError::BadArgument {
                    arg: lambda.to_string(),
                    reason: "lambda must be a positive percentage".to_string(),
                });
            }
            Ok(render::policies(l, lambda))
        }
        Some("client") => {
            let scheme = required(&mut it, "scheme")?;
            let l = positive(parse(required(&mut it, "L")?, "a positive integer")?, "L")?;
            let d = positive(parse(required(&mut it, "D")?, "a positive integer")?, "D")?;
            let t: u64 = parse(required(&mut it, "t")?, "a non-negative integer")?;
            render::broadcast_client(scheme, l, d, t)
        }
        Some(other) => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// `serve`'s shared channel budget: `unlimited` lifts the cap, any other
/// value must be a positive channel count.
fn parse_budget(arg: &str) -> Result<Option<usize>, CliError> {
    if arg == "unlimited" {
        return Ok(None);
    }
    let n: usize = parse(arg, "a positive integer or `unlimited`")?;
    positive(n as u64, arg)?;
    Ok(Some(n))
}

/// One `serve` title spec, `<L>:<mean>[:<policy>]` — media length in
/// slots, mean Poisson inter-arrival gap, and an optional policy name
/// (`dg` or `dyadic`; dyadic is the default).
fn parse_title_spec(spec: &str) -> Result<sm_serve::TitleConfig, CliError> {
    let bad = |reason: String| CliError::BadArgument {
        arg: spec.to_string(),
        reason,
    };
    let mut parts = spec.split(':');
    let l: u64 = parts
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| bad("expected <L>:<mean>[:<policy>]".to_string()))?
        .parse()
        .map_err(|_| bad("media length must be a positive integer".to_string()))?;
    if l == 0 {
        return Err(bad("media length must be positive".to_string()));
    }
    let mean: f64 = parts
        .next()
        .ok_or_else(|| bad("missing mean inter-arrival gap".to_string()))?
        .parse()
        .map_err(|_| bad("mean gap must be a positive number".to_string()))?;
    if !(mean > 0.0 && mean.is_finite()) {
        return Err(bad("mean gap must be finite and positive".to_string()));
    }
    let policy = match parts.next() {
        None | Some("dyadic") => sm_serve::PolicyKind::Dyadic,
        Some("dg") => sm_serve::PolicyKind::DelayGuaranteed,
        Some(other) => return Err(bad(format!("unknown policy `{other}` (use dg|dyadic)"))),
    };
    if parts.next().is_some() {
        return Err(bad("too many `:` fields".to_string()));
    }
    Ok(sm_serve::TitleConfig {
        policy,
        ..sm_serve::TitleConfig::new(l, mean)
    })
}

fn required<'a>(it: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, CliError> {
    it.next().ok_or_else(|| CliError::BadArgument {
        arg: format!("<{what}>"),
        reason: "missing".to_string(),
    })
}

/// Helper shared by render functions: a simple aligned table.
pub(crate) fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:<w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    for row in rows {
        out.push('\n');
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:<w$}  ", cell, w = widths[i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_args(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v)
    }

    #[test]
    fn no_args_prints_usage() {
        let out = run_args(&[]).unwrap();
        assert!(out.contains("USAGE"));
        assert_eq!(run_args(&["help"]).unwrap(), out);
    }

    #[test]
    fn unknown_command_is_usage_error() {
        match run_args(&["frobnicate"]) {
            Err(CliError::Usage(msg)) => assert!(msg.contains("frobnicate")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn missing_and_malformed_arguments() {
        assert!(matches!(
            run_args(&["mcost"]),
            Err(CliError::BadArgument { .. })
        ));
        assert!(matches!(
            run_args(&["mcost", "banana"]),
            Err(CliError::BadArgument { .. })
        ));
        assert!(matches!(
            run_args(&["mcost", "0"]),
            Err(CliError::BadArgument { .. })
        ));
        // Past the u64 Fibonacci table (or M(n) past u64): rejected, not an
        // index panic or a wrapped cost.
        let huge = u64::MAX.to_string();
        let n_over = (MAX_MCOST_N + 1).to_string();
        let l_over = (MAX_MEDIA_LEN + 1).to_string();
        let online_over = (DelayGuaranteedOnline::MAX_MEDIA_LEN + 1).to_string();
        for bad in [
            vec!["mcost", huge.as_str()],
            vec!["mcost", n_over.as_str()],
            vec!["plan", huge.as_str(), "10"],
            vec!["plan", l_over.as_str(), "10"],
            vec!["online", huge.as_str(), "10"],
            // An F_h-node template this large would exhaust memory.
            vec!["online", "1000000000000", "10"],
            vec!["online", online_over.as_str(), "10"],
        ] {
            assert!(
                matches!(run_args(&bad), Err(CliError::BadArgument { .. })),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn input_bounds_are_tight() {
        // M(n) by Eq. (6) in i128: the bound is the last n it fits a u64.
        let m = |n: u64| {
            let k = sm_fib::largest_index_le(n);
            (k as i128 - 1) * n as i128 - sm_fib::fib(k + 2) as i128 + 2
        };
        assert!(m(MAX_MCOST_N) <= u64::MAX as i128);
        assert!(m(MAX_MCOST_N + 1) > u64::MAX as i128);
        assert!(run_args(&["mcost", &MAX_MCOST_N.to_string()]).is_ok());
        // L + 2 = F_93 is the last L Theorem 12 covers.
        assert_eq!(sm_fib::theorem12_h(MAX_MEDIA_LEN), 91);
        // The online bound's template size, as its doc states.
        assert_eq!(
            sm_fib::fib(sm_fib::theorem12_h(DelayGuaranteedOnline::MAX_MEDIA_LEN)),
            514_229
        );
    }

    #[test]
    fn mcost_prints_paper_values() {
        let out = run_args(&["mcost", "8"]).unwrap();
        assert!(out.contains("M(8) = 21"), "{out}");
        assert!(out.contains("Mω(8) = 17"), "{out}");
    }

    #[test]
    fn tree_prints_fig4() {
        let out = run_args(&["tree", "8"]).unwrap();
        assert!(out.contains("(0 (1) (2) (3 (4)) (5 (6) (7)))"), "{out}");
        assert!(out.contains("21"), "{out}");
    }

    #[test]
    fn plan_prints_worked_example() {
        // F(15, 8) = 36 with s = 1 (paper §2).
        let out = run_args(&["plan", "15", "8"]).unwrap();
        assert!(out.contains("full streams: 1"), "{out}");
        assert!(out.contains("36"), "{out}");
    }

    #[test]
    fn program_prints_client_h() {
        // Client 7 in the Fig. 3/4 example: path 0 → 5 → 7.
        let out = run_args(&["program", "15", "8", "7"]).unwrap();
        assert!(out.contains("path: 0 -> 5 -> 7"), "{out}");
    }

    #[test]
    fn program_rejects_out_of_range_client() {
        assert!(matches!(
            run_args(&["program", "15", "8", "8"]),
            Err(CliError::BadArgument { .. })
        ));
    }

    #[test]
    fn online_reports_ratio() {
        let out = run_args(&["online", "50", "2000"]).unwrap();
        assert!(out.contains("ratio"), "{out}");
    }

    #[test]
    fn broadcast_requires_divisible_delay() {
        assert!(run_args(&["broadcast", "100", "3"]).is_err());
        let out = run_args(&["broadcast", "100", "2"]).unwrap();
        assert!(out.contains("harmonic"), "{out}");
        assert!(out.contains("skyscraper"), "{out}");
    }

    #[test]
    fn server_prints_plan() {
        let out = run_args(&["server", "3", "100"]).unwrap();
        assert!(out.contains("title-01"), "{out}");
        assert!(out.contains("peak"), "{out}");
    }

    #[test]
    fn policies_lists_the_roster() {
        let out = run_args(&["policies", "50", "1.0"]).unwrap();
        for name in [
            "delay guaranteed",
            "dyadic",
            "ermt",
            "patching",
            "plain batching",
        ] {
            assert!(out.contains(name), "{out}");
        }
        assert!(matches!(
            run_args(&["policies", "50", "-1"]),
            Err(CliError::BadArgument { .. })
        ));
    }

    #[test]
    fn serve_reports_delays_and_latency() {
        let out = run_args(&["serve", "300", "unlimited", "32:2"]).unwrap();
        assert!(out.contains("0 rejected"), "{out}");
        assert!(out.contains("start-up delay"), "{out}");
        assert!(out.contains("push latency"), "{out}");

        let contended = run_args(&["serve", "120", "1", "40:0.5", "40:0.5:dg"]).unwrap();
        assert!(contended.contains("shared budget: 1"), "{contended}");
        assert!(contended.contains("0 rejected"), "{contended}");
        assert!(contended.contains("delay-guaranteed"), "{contended}");
        assert!(contended.contains("dyadic"), "{contended}");

        // A zero budget, a missing catalog, and malformed title specs are
        // all argument errors, not panics.
        for bad in [
            vec!["serve", "300", "0", "32:2"],
            vec!["serve", "300", "unlimited"],
            vec!["serve", "300", "unlimited", "32"],
            vec!["serve", "300", "unlimited", "0:2"],
            vec!["serve", "300", "unlimited", "32:-1"],
            vec!["serve", "300", "unlimited", "32:2:bogus"],
            vec!["serve", "300", "unlimited", "32:2:dg:extra"],
            // A Delay Guaranteed template this large would exhaust memory;
            // the planner builds one for dyadic titles too.
            vec!["serve", "10", "unlimited", "100000000:1:dg"],
            vec!["serve", "10", "unlimited", "100000000:1"],
        ] {
            assert!(
                matches!(run_args(&bad), Err(CliError::BadArgument { .. })),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn client_prints_reception_schedule() {
        let out = run_args(&["client", "skyscraper", "89", "1", "5"]).unwrap();
        assert!(out.contains("playback starts"), "{out}");
        assert!(out.contains("max concurrent channels: 2"), "{out}");
        let out = run_args(&["client", "fast", "15", "1", "0"]).unwrap();
        assert!(out.contains("segment  0"), "{out}");
        assert!(matches!(
            run_args(&["client", "bogus", "15", "1", "0"]),
            Err(CliError::BadArgument { .. })
        ));
    }

    #[test]
    fn diagram_contains_all_streams() {
        let out = run_args(&["diagram", "15", "8"]).unwrap();
        // All 8 streams appear with their lengths; full cost stated.
        assert!(out.contains("36"), "{out}");
    }

    #[test]
    fn table_alignment() {
        let t = table(
            &["a", "long-header"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with("---"));
    }
}
