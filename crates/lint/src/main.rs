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
        .into_iter()
        .find(|r| r.code.eq_ignore_ascii_case(query) || r.name == query)?;
    let (why, example) = match rule.code {
        "PL001" => (
            "Bare f64 parameters and returns on public APIs in unit-bearing crates \
             reintroduce the spreadsheet failure mode the ppatc-units newtypes exist \
             to prevent: a gCO₂e/kWh number silently meeting a pJ number.",
            "pub fn embodied(area: f64) -> f64  // what unit is `area`?",
        ),
        "PL002" => (
            "Library code must never panic on model inputs: the evaluation pipeline \
             promises per-sample fault isolation, and a stray unwrap converts a bad \
             sample into a dead sweep. Documented `# Panics` contracts are the only \
             sanctioned exception.",
            "let v = table.get(key).unwrap();  // in a lib fn without `# Panics`",
        ),
        "PL003" => (
            "try_* is this workspace's fallible-API naming convention; a try_ fn \
             that does not return Result (or whose Result can be silently dropped) \
             defeats the caller-side error handling the name advertises.",
            "pub fn try_solve(&self) -> f64  // not a Result, no #[must_use]",
        ),
        "PL004" => (
            "A physical constant with no unit comment is unreviewable: 3.6e6 could \
             be J/kWh or a typo. Underscored plain decimals (1_000_000.0) are the \
             same hazard at the same magnitude, so both spellings need a same-line \
             `// unit` comment or a move into a named const.",
            "let lifetime = 94_608_000.0;  // is that seconds? months? cycles?",
        ),
        "PL005" => (
            "Public error enums grow variants as the model stack grows; without \
             #[non_exhaustive], every new failure mode is a semver break for \
             downstream matchers.",
            "pub enum SolverError { Diverged }  // missing #[non_exhaustive]",
        ),
        "PL006" => (
            "The dimensional dataflow pass tracks units through fn bodies, seeded \
             from the ppatc-units registry (typed constructors/accessors) and \
             unit-suffixed names (area_mm2, delay_ns). Adding or comparing values \
             of different dimensions — or the same dimension at provably different \
             scales — is exactly the class of bug Eq. 2's carbon accounting cannot \
             tolerate.",
            "if chip_area_mm2 > wafer_area_m2 { .. }  // mm² compared against m²",
        ),
        "PL007" => (
            "Round-tripping a quantity through raw f64 at a different unit scale \
             (as_picojoules into from_joules) is a silent 1e12× error the type \
             system cannot see because both sides are f64 at the boundary. \
             Multiplying by an explicit literal rescale is tracked and stays clean.",
            "Energy::from_joules(e.as_picojoules())  // off by 1e12",
        ),
        "PL008" => (
            "A suppression that no longer suppresses anything is a stale claim \
             about the code; it hides future findings on its line window and \
             misleads reviewers about which invariants are waived. Directives in \
             doc comments are prose, never suppressions.",
            "// ppatc-lint: allow(magic-constant) — above a line that is now clean",
        ),
        "PL009" => (
            "A try_* fn advertises total, caller-handled failure; if its call \
             graph can still reach panic!/unwrap/expect with no `# Panics` \
             contract anywhere on the path, the Result is a false promise. The \
             pass resolves calls to workspace fns by unique name and reports a \
             witness path.",
            "pub fn try_fit(..) -> Result<..> { grid.nearest(x) } // nearest() unwraps",
        ),
        "PL010" => (
            "std's HashMap/HashSet iterate in a per-process randomized order. \
             Letting that order reach a Vec, String, accumulator, or output \
             stream bakes scheduler noise into results the workspace promises \
             are byte-identical across runs, worker counts, and cache hits. \
             Sort before the sink, or collect into a BTree container.",
            "for (k, v) in &totals { out.push_str(k); }  // totals is a HashMap",
        ),
        "PL011" => (
            "Model outputs must be a pure function of model inputs. An Instant \
             or SystemTime reading that flows into a ppatc-units quantity makes \
             a carbon or energy figure depend on when the run happened — \
             deadlines and telemetry are fine, but never inside a result. The \
             interprocedural dataflow tracks wall-clock taint through helper \
             fns and across crates.",
            "Energy::from_joules(t0.elapsed().as_secs_f64() * p)  // wall clock in a result",
        ),
        "PL012" => (
            "Float addition is not associative: accumulating partial sums in \
             thread or channel arrival order makes the low-order bits a \
             function of the scheduler. The blessed idiom is par_map_chunks — \
             reduce per-chunk, send (index, partial), merge in index order — \
             which this rule exempts by name.",
            "while let Ok(x) = rx.recv() { sum += x; }  // arrival-order reduction",
        ),
        "PL013" => (
            "The interval pass tracks per-variable [lo, hi] ranges, seeded from \
             literals, typed-unit accessors, and guard conditions, widened at \
             loop back-edges, and propagated across fn boundaries through \
             return-range summaries. A division whose divisor's interval \
             provably admits zero yields ±inf or NaN that then flows into \
             carbon totals unnoticed — guard with an ordered comparison \
             (`if d > 0.0`) and return a typed error on the other branch.",
            "let yield_frac = good as f64 / dies as f64;  // dies may be 0",
        ),
        "PL014" => (
            "sqrt, ln, log10, and non-integer powf return NaN for negative \
             arguments, and NaN propagates through every downstream sum \
             without a panic — the worst failure mode for a model that \
             promises reproducible totals. Clamp or guard the argument's \
             range first; the pass exempts arguments it can prove \
             non-negative (accessor results, squared values, abs).",
            "let sigma = variance.sqrt();  // variance's interval reaches below 0",
        ),
        "PL015" => (
            "`x == y` on floats is false for NaN even when both are NaN, and \
             partial_cmp().unwrap() panics on it; both are latent landmines \
             unless the operands are provably NaN-free. The interval pass \
             proves NaN-freeness through guards (is_nan, is_finite, ordered \
             comparisons) and accessor summaries; where it cannot, prefer \
             f64::total_cmp or guard explicitly.",
            "vals.sort_by(|a, b| a.partial_cmp(b).unwrap());  // NaN panics here",
        ),
        "PL016" => (
            "A `static mut` touched from a thread::scope or par_map_chunks \
             worker closure is a data race the borrow checker cannot see \
             across unsafe blocks — and the race reaches across crates when \
             the worker calls a helper that touches it transitively. The \
             pass follows the whole-workspace call graph from every worker \
             closure and reports a witness path to the shared state.",
            "scope.spawn(|| unsafe { HITS += 1 });  // HITS is a static mut",
        ),
        "PL017" => (
            "catch_unwind returning Err leaves everything the closure was \
             mutating in a half-written state; silently reusing that state \
             afterwards is how one poisoned sample corrupts a whole sweep. \
             Wrapping the closure in AssertUnwindSafe is the workspace's \
             explicit acknowledgment that the captured state is reset or \
             discarded on unwind.",
            "catch_unwind(|| { acc.push(run()?); })  // acc is half-written on panic",
        ),
        _ => ("", ""),
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{} {} ({})\n\n{}\n\nWhy it matters:\n  {}\n\nExample finding:\n  {}\n\n\
         Suppression (own line or the line above the finding):\n  \
         // ppatc-lint: allow({}) — <justification naming the reviewed invariant>\n",
        rule.code, rule.name, rule.severity, rule.describes, why, example, rule.name
    ));
    Some(out)
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
