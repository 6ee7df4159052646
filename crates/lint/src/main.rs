//! CLI for `ppatc-lint`.
//!
//! ```text
//! cargo run -p ppatc-lint                      # lint the workspace
//! cargo run -p ppatc-lint -- --deny-warnings   # CI gate: warnings fail too
//! cargo run -p ppatc-lint -- --json            # machine-readable output
//! cargo run -p ppatc-lint -- --jobs 4          # explicit worker count
//! cargo run -p ppatc-lint -- --no-cache        # skip the incremental cache
//! cargo run -p ppatc-lint -- --list-rules      # print the rule catalog
//! cargo run -p ppatc-lint -- --explain PL006   # rationale for one rule
//! ```
//!
//! Exit codes: 0 clean, 1 findings failed the run, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    root: Option<PathBuf>,
    json: bool,
    deny_warnings: bool,
    list_rules: bool,
    jobs: Option<usize>,
    explain: Option<String>,
    no_cache: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        deny_warnings: false,
        list_rules: false,
        jobs: None,
        explain: None,
        no_cache: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--list-rules" => opts.list_rules = true,
            "--no-cache" => opts.no_cache = true,
            "--root" => match it.next() {
                Some(p) => opts.root = Some(PathBuf::from(p)),
                None => return Err("--root requires a path".to_string()),
            },
            "--jobs" | "-j" => match it.next().map(|n| n.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => opts.jobs = Some(n),
                _ => return Err("--jobs requires a worker count >= 1".to_string()),
            },
            "--explain" => match it.next() {
                Some(code) => opts.explain = Some(code.clone()),
                None => return Err("--explain requires a rule code (e.g. PL006)".to_string()),
            },
            "--help" | "-h" => {
                return Err(
                    "usage: ppatc-lint [--root <dir>] [--json] [--deny-warnings] \
                            [--jobs <n>] [--no-cache] [--list-rules] [--explain <code>]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// `--explain`: rationale, an example finding, and the suppression syntax
/// for one rule, looked up by code (`PL006`) or name (`dimension-mismatch`).
fn explain(query: &str) -> Option<String> {
    let rule = ppatc_lint::rules::all()
        .iter()
        .find(|r| r.code.eq_ignore_ascii_case(query) || r.name == query)?;
    Some(format!(
        "{} {} ({})\n\n{}\n\nWhy it matters:\n  {}\n\nExample finding:\n  {}\n\n\
         Suppression (own line or the line above the finding):\n  \
         // ppatc-lint: allow({}) — <justification naming the reviewed invariant>\n",
        rule.code, rule.name, rule.severity, rule.describes, rule.why, rule.example, rule.name
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("ppatc-lint: {msg}");
            return ExitCode::from(2);
        }
    };

    if let Some(query) = &opts.explain {
        return match explain(query) {
            Some(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("ppatc-lint: no rule named `{query}`; see --list-rules");
                ExitCode::from(2)
            }
        };
    }

    if opts.list_rules {
        for rule in ppatc_lint::rules::all() {
            println!(
                "{} {:<24} {:<5} {}",
                rule.code, rule.name, rule.severity, rule.describes
            );
        }
        return ExitCode::SUCCESS;
    }

    let root = opts
        .root
        .or_else(|| {
            let cwd = std::env::current_dir().ok()?;
            ppatc_lint::find_workspace_root(&cwd)
        })
        .unwrap_or_else(|| PathBuf::from("."));

    let jobs = opts.jobs.unwrap_or_else(ppatc_lint::default_jobs);
    let started = Instant::now();
    let report = match ppatc_lint::lint_workspace_cached(&root, jobs, !opts.no_cache) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ppatc-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = started.elapsed();

    if opts.json {
        // No timing or cache-hit counters here: --json output is
        // byte-identical across worker counts, runs, and cache states.
        let body: Vec<String> = report.diagnostics.iter().map(|d| d.json()).collect();
        println!("{{\"schema\":3,\"findings\":[{}]}}", body.join(","));
    } else {
        for d in &report.diagnostics {
            println!("{}", d.human());
        }
        println!(
            "ppatc-lint: {} files, {} diagnostics ({} deny, {} warn), {} suppressed",
            report.files,
            report.diagnostics.len(),
            report.deny_count(),
            report.warn_count(),
            report.suppressed
        );
        println!(
            "ppatc-lint: analyzed in {:.1} ms (jobs={jobs}, {} cached)",
            elapsed.as_secs_f64() * 1e3,
            report.cache_hits
        );
    }

    if report.failed(opts.deny_warnings) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
