//! `ppatc-lint` — a dependency-free static-analysis pass for the PPAtC
//! workspace.
//!
//! The model stack's correctness hinges on dimensional discipline: Eq. 2's
//! `C_embodied = (MPA + GPA + CI_fab·EPA)·Area` silently produces garbage
//! when a gCO₂e/kWh value meets a pJ value as bare `f64`s. The `ppatc-units`
//! newtypes prevent that at the arithmetic layer; this linter enforces it at
//! the *API* layer, alongside the workspace's panic-free and determinism
//! invariants that clippy alone cannot see (doc-test bodies, undocumented
//! panic contracts, non-`#[non_exhaustive]` error enums, hash-order
//! escapes, scheduler-dependent float reductions). What rustc already
//! rejects — dropped `Result`s, `unsafe` access to shared state — is left
//! to the workspace's `[workspace.lints.rust]` table.
//!
//! Pipeline: [`lexer`] (tokens, comment/raw-string aware) → [`source`]
//! (per-file model: items, test regions, suppressions, `use` imports) →
//! [`parser`] (an expression/statement AST for fn bodies, parsed once per
//! fn) → per-file rules (PL001, PL002, PL004 and PL005 token rules,
//! [`determinism`]'s PL010/PL012) + [`callgraph`] summaries → the serial
//! cross-file stage: [`symbols`] (workspace symbol table and call-graph
//! edges), [`summaries`] (interprocedural dimensional fixed point emitting
//! PL006/PL007/PL011 through [`dims`], then the [`vals`] interval fixed
//! point emitting PL013/PL014/PL015), [`callgraph`] panic reachability
//! (PL009 with cross-crate witness paths), PL008 from the directives left
//! unused — then suppression filtering and a total sort. Files are
//! analyzed in parallel (`--jobs`); the cross-file stage is serial and
//! deterministic, so the report is byte-identical at any worker count.
//! Every run analyzes every file and writes nothing to disk.
//!
//! Run it over the workspace with `cargo run -p ppatc-lint`; suppress a
//! finding locally with a `// ppatc-lint: allow(rule-name)` comment on the
//! offending line or the line above it.

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod determinism;
pub mod diag;
pub mod dims;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod summaries;
pub mod symbols;
pub mod vals;

pub use diag::{Diagnostic, Severity};

use source::SourceFile;
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A fatal linter error (I/O, bad workspace root). Rule findings are
/// [`Diagnostic`]s, never errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum LintError {
    /// The workspace root does not look like a Cargo workspace.
    NotAWorkspace(PathBuf),
    /// Reading a file or directory failed.
    Io(PathBuf, std::io::Error),
}

impl core::fmt::Display for LintError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LintError::NotAWorkspace(p) => {
                write!(
                    f,
                    "{} does not contain a [workspace] Cargo.toml",
                    p.display()
                )
            }
            LintError::Io(p, e) => write!(f, "failed to read {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All unsuppressed findings, in path/line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of files scanned.
    pub files: usize,
    /// Findings silenced by `ppatc-lint: allow(...)` comments.
    pub suppressed: usize,
}

impl Report {
    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// True when the lint run should fail the build: any deny finding, or
    /// any finding at all under `deny_warnings`.
    pub fn failed(&self, deny_warnings: bool) -> bool {
        self.deny_count() > 0 || (deny_warnings && !self.diagnostics.is_empty())
    }
}

/// The per-file stage of the pipeline: parse, per-file rules, call-graph
/// summaries. Pure function of one file — this is the unit of parallelism.
pub(crate) struct FileAnalysis {
    /// The scanned file model (path, suppression directives and windows).
    pub(crate) file: SourceFile,
    /// `(index into file.fns, parsed body)` for every analyzable fn, in
    /// declaration order — aligned 1:1 with `summaries`.
    pub(crate) bodies: Vec<(usize, ast::Block)>,
    /// Findings so far, pre-suppression. Per-file rules at construction;
    /// the cross-file stage appends PL006/PL007/PL009/PL011 here.
    pub(crate) found: Vec<Diagnostic>,
    /// Call-graph summaries of this file's fns (moved out at assembly).
    pub(crate) summaries: Vec<callgraph::FnSummary>,
}

pub(crate) fn analyze_file(path: &str, src: &str) -> FileAnalysis {
    let file = SourceFile::parse(path, src);
    let mut found = Vec::new();
    for rule in rules::all() {
        rule.check(&file, &mut found);
    }
    // Parse each analyzable body exactly once; every downstream pass
    // (determinism, call-graph summaries, the dimensional engine) walks
    // these same blocks.
    let bodies: Vec<(usize, ast::Block)> = callgraph::analyzable_fns(&file)
        .into_iter()
        .filter_map(|fi| {
            let span = file.fns[fi].body?;
            Some((fi, parser::parse_body(&file, span).0))
        })
        .collect();
    for f in determinism::check_file(&file, &bodies) {
        found.push(rules::det_finding_diag(&file.path, f));
    }
    let summaries = callgraph::summarize(&file, &bodies);
    FileAnalysis {
        file,
        bodies,
        found,
        summaries,
    }
}

fn is_suppressed(supps: &[(String, u32, u32)], rule: &str, line: u32) -> bool {
    supps
        .iter()
        .any(|(r, a, b)| (r == rule || r == "all") && (*a..=*b).contains(&line))
}

/// The cross-file stage: the workspace symbol table, the interprocedural
/// dimensional fixed point (PL006/PL007/PL011), PL009 over the union call
/// graph, then PL008 from the directives left unused by every other rule,
/// then suppression filtering and the final deterministic sort.
#[allow(clippy::too_many_lines)]
fn assemble(mut analyses: Vec<FileAnalysis>) -> Report {
    // Merge the per-file summaries into one workspace-indexed list; the
    // engine's bodies follow the same order, one per summary.
    let mut all_sums = Vec::new();
    for a in &mut analyses {
        all_sums.append(&mut a.summaries);
    }
    let uses = analyses
        .iter()
        .flat_map(|a| std::iter::repeat_n(a.file.uses.as_slice(), a.bodies.len()))
        .collect();
    let table = symbols::SymbolTable::build(&all_sums, uses);

    let bodies: Vec<summaries::FnBody> = analyses
        .iter()
        .flat_map(|a| {
            a.bodies.iter().map(|(fi, block)| summaries::FnBody {
                item: &a.file.fns[*fi],
                block,
            })
        })
        .collect();
    debug_assert_eq!(bodies.len(), all_sums.len());
    let engine = summaries::Engine::new(&all_sums, &table, bodies);
    engine.solve();
    let mut global: Vec<Diagnostic> = Vec::new();
    for (i, sum) in all_sums.iter().enumerate() {
        for f in engine.check(i) {
            global.push(rules::dims_finding_diag(&sum.path, f));
        }
        // PL013/PL014/PL015 from the interval pass.
        for f in engine.check_ranges(i) {
            global.push(rules::range_finding_diag(&sum.path, f));
        }
    }

    // PL009 over the full workspace graph.
    for r in callgraph::check(&all_sums, &table.edges()) {
        global.push(rules::panic_reachable_diag(
            &r.path, r.line, r.col, r.message,
        ));
    }

    let by_path: HashMap<&str, usize> = analyses
        .iter()
        .enumerate()
        .map(|(ai, a)| (a.file.path.as_str(), ai))
        .collect();
    let dest: Vec<Option<usize>> = global
        .iter()
        .map(|d| by_path.get(d.path.as_str()).copied())
        .collect();
    for (d, ai) in global.into_iter().zip(dest) {
        if let Some(ai) = ai {
            analyses[ai].found.push(d);
        }
    }

    let known_rules: Vec<&'static str> = rules::all().iter().map(|r| r.name).collect();
    let mut report = Report::default();
    for a in &mut analyses {
        report.files += 1;
        let directives = &a.file.allow_directives;

        // PL008: a directive is "used" when any finding it names lands in
        // its line window — including findings it will then suppress.
        let mut used = vec![false; directives.len()];
        for d in &a.found {
            for (i, dir) in directives.iter().enumerate() {
                if dir.rules.iter().any(|r| r == d.rule || r == "all")
                    && (dir.first..=dir.last).contains(&d.line)
                {
                    used[i] = true;
                }
            }
        }
        let mut pl008: Vec<(usize, Diagnostic)> = Vec::new();
        for (i, dir) in directives.iter().enumerate() {
            if used[i] {
                continue;
            }
            let unknown: Vec<&str> = dir
                .rules
                .iter()
                .filter(|r| r.as_str() != "all" && !known_rules.contains(&r.as_str()))
                .map(String::as_str)
                .collect();
            let message = if unknown.is_empty() {
                format!(
                    "allow({}) suppresses nothing here; remove the directive or \
                     narrow it to the finding it was written for",
                    dir.rules.join(", ")
                )
            } else {
                format!(
                    "allow({}) names unknown rule{} `{}`; see --list-rules",
                    dir.rules.join(", "),
                    if unknown.len() == 1 { "" } else { "s" },
                    unknown.join("`, `")
                )
            };
            pl008.push((
                i,
                rules::unused_allow_diag(&a.file.path, dir.line, dir.col, message),
            ));
        }

        for d in a.found.drain(..) {
            if is_suppressed(&a.file.suppressions, d.rule, d.line) {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(d);
            }
        }
        // A PL008 finding about directive `i` must not be silenced by
        // directive `i` itself (an unused `allow(all)` would otherwise
        // swallow its own report); only *other* directives can.
        for (i, d) in pl008 {
            let silenced = directives.iter().enumerate().any(|(j, dir)| {
                j != i
                    && dir.rules.iter().any(|r| r == d.rule || r == "all")
                    && (dir.first..=dir.last).contains(&d.line)
            });
            if silenced {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(d);
            }
        }
    }
    report.diagnostics.sort_by(|a, b| {
        a.path
            .cmp(&b.path)
            .then(a.line.cmp(&b.line))
            .then(a.col.cmp(&b.col))
            .then(a.code.cmp(b.code))
    });
    report
}

/// Lints one in-memory source file. `path` should be workspace-relative
/// (it selects per-crate rule scoping and labels diagnostics). The file is
/// treated as a whole program: the PL009 call graph and the dimensional
/// summaries span only its fns.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    assemble(vec![analyze_file(path, src)]).diagnostics
}

/// The default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Lints every library source file in the workspace rooted at `root`:
/// `crates/*/src/**/*.rs` plus the root `src/`. Integration tests,
/// benches, and examples are out of scope — the rules govern library code.
///
/// Files are analyzed by `jobs` workers (see [`default_jobs`]) with
/// `std::thread::scope`; the cross-file stage is serial, so the report —
/// and its `--json` rendering — is byte-identical for every `jobs` value.
pub fn lint_workspace(root: &Path, jobs: usize) -> Result<Report, LintError> {
    let manifest = root.join("Cargo.toml");
    let is_workspace = fs::read_to_string(&manifest)
        .map(|s| s.contains("[workspace]"))
        .unwrap_or(false);
    if !is_workspace {
        return Err(LintError::NotAWorkspace(root.to_path_buf()));
    }

    let mut sources: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let entries =
            fs::read_dir(&crates_dir).map_err(|e| LintError::Io(crates_dir.clone(), e))?;
        let mut crate_dirs: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            collect_rs(&dir.join("src"), &mut sources)?;
        }
    }
    collect_rs(&root.join("src"), &mut sources)?;

    let mut inputs: Vec<(String, String)> = Vec::with_capacity(sources.len());
    for path in &sources {
        let src = fs::read_to_string(path).map_err(|e| LintError::Io(path.clone(), e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        inputs.push((rel, src));
    }
    Ok(assemble(analyze_parallel(&inputs, jobs)))
}

/// Runs the per-file stage over `inputs` with `jobs` workers, returning
/// analyses in input order. Work-stealing over a shared index; each slot
/// is written exactly once, so the merged order equals the serial order.
fn analyze_parallel(inputs: &[(String, String)], jobs: usize) -> Vec<FileAnalysis> {
    let jobs = jobs.max(1).min(inputs.len().max(1));
    if jobs <= 1 {
        return inputs
            .iter()
            .map(|(path, src)| analyze_file(path, src))
            .collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<FileAnalysis>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some((path, src)) = inputs.get(k) else {
                    break;
                };
                let analysis = analyze_file(path, src);
                if let Ok(mut slot) = slots[k].lock() {
                    *slot = Some(analysis);
                }
            });
        }
    });
    slots
        .into_iter()
        .filter_map(|m| m.into_inner().ok().flatten())
        .collect()
}

/// Recursively collects `.rs` files under `dir` (no-op when absent).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the nearest directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(s) = fs::read_to_string(&manifest) {
            if s.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
