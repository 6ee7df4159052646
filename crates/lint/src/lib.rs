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
//!
//! An incremental [`cache`] (CLI default; `--no-cache` opts out) skips the
//! per-file stage for files whose content and interprocedural neighborhood
//! are unchanged.
//!
//! Run it over the workspace with `cargo run -p ppatc-lint`; suppress a
//! finding locally with a `// ppatc-lint: allow(rule-name)` comment on the
//! offending line or the line above it.

#![warn(missing_docs)]

pub mod ast;
pub mod cache;
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
use std::collections::{BTreeSet, HashMap, HashSet};
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
    /// Number of files served from the incremental cache (0 when the
    /// cache is disabled or cold).
    pub cache_hits: usize,
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

/// The parse products of one freshly analyzed file, kept for the
/// interprocedural stage.
pub(crate) struct FreshFile {
    /// The scanned file model.
    pub(crate) file: SourceFile,
    /// `(index into file.fns, parsed body)` for every analyzable fn, in
    /// declaration order — aligned 1:1 with the file's summaries.
    pub(crate) bodies: Vec<(usize, ast::Block)>,
}

/// The per-file stage of the pipeline: parse, per-file rules, call-graph
/// summaries. Pure function of one file — this is the unit of parallelism
/// and of incremental caching. Cache-restored files carry `fresh: None`
/// and trusted `cached_dims` instead of a parsed body.
pub(crate) struct FileAnalysis {
    /// Workspace-relative path.
    pub(crate) path: String,
    /// FNV-1a hash of the file's source text.
    pub(crate) content_hash: u64,
    /// Findings so far, pre-suppression. Per-file rules at construction;
    /// the cross-file stage appends PL006/PL007/PL009/PL011 here.
    pub(crate) found: Vec<Diagnostic>,
    /// Call-graph summaries of this file's fns (moved out at assembly).
    pub(crate) summaries: Vec<callgraph::FnSummary>,
    /// The suppression directives as written.
    pub(crate) allow_directives: Vec<source::AllowDirective>,
    /// Per-rule suppression line windows.
    pub(crate) suppressions: Vec<(String, u32, u32)>,
    /// Parse products, `None` for cache-restored files.
    pub(crate) fresh: Option<FreshFile>,
    /// Trusted dimensional summaries, `Some` only for cache-restored
    /// files (aligned with `summaries`).
    pub(crate) cached_dims: Option<Vec<summaries::FnDim>>,
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
        path: file.path.clone(),
        content_hash: cache::fnv1a(src.as_bytes()),
        found,
        summaries,
        allow_directives: file.allow_directives.clone(),
        suppressions: file.suppressions.clone(),
        fresh: Some(FreshFile { file, bodies }),
        cached_dims: None,
    }
}

/// Everything the cross-file stage produces: the report, plus the
/// artifacts the cache layer persists for the next run.
pub(crate) struct Assembled {
    pub(crate) report: Report,
    /// One cache entry per input file, in input order.
    pub(crate) entries: Vec<cache::Entry>,
    /// Hash of the workspace symbol shape (see [`cache::symbol_shape`]).
    pub(crate) shape: u64,
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
fn assemble(mut analyses: Vec<FileAnalysis>) -> Assembled {
    // Merge the per-file summaries into one workspace-indexed list,
    // remembering each file's slice.
    let mut all_sums = Vec::new();
    let mut counts = Vec::with_capacity(analyses.len());
    let mut owner_of: Vec<usize> = Vec::new();
    for (ai, a) in analyses.iter_mut().enumerate() {
        counts.push(a.summaries.len());
        owner_of.extend(std::iter::repeat_n(ai, a.summaries.len()));
        all_sums.append(&mut a.summaries);
    }
    let table = symbols::SymbolTable::build(&all_sums);
    let edges = table.edges();
    let shape = cache::symbol_shape(&all_sums);

    // The dimensional fixed point. Fresh files contribute parsed bodies;
    // cache-restored files contribute their trusted summaries as fixed
    // inputs.
    let mut bodies: Vec<Option<summaries::FnBody>> = Vec::with_capacity(all_sums.len());
    let mut fixed: Vec<Option<summaries::FnDim>> = Vec::with_capacity(all_sums.len());
    for a in &analyses {
        if let Some(fr) = &a.fresh {
            for (fi, block) in &fr.bodies {
                bodies.push(Some(summaries::FnBody {
                    item: &fr.file.fns[*fi],
                    block,
                }));
                fixed.push(None);
            }
        } else if let Some(cd) = &a.cached_dims {
            for d in cd {
                bodies.push(None);
                fixed.push(Some(d.clone()));
            }
        }
    }
    debug_assert_eq!(bodies.len(), all_sums.len());
    let engine = summaries::Engine::new(&all_sums, &table, bodies, fixed);
    engine.solve();
    let mut global: Vec<Diagnostic> = Vec::new();
    for (i, sum) in all_sums.iter().enumerate() {
        for f in engine.check(i) {
            global.push(rules::dims_finding_diag(&sum.path, f));
        }
        // PL013/PL014/PL015 from the interval pass: empty for
        // cache-restored fns (no body), whose findings ride in from the
        // cached per-file snapshot instead.
        for f in engine.check_ranges(i) {
            global.push(rules::range_finding_diag(&sum.path, f));
        }
    }
    let dims = engine.into_dims();

    // PL009 over the full workspace graph (recomputed every run — the
    // witness path depends on transitive callees, so it is never cached).
    for r in callgraph::check(&all_sums, &edges) {
        global.push(rules::panic_reachable_diag(
            &r.path, r.line, r.col, r.message,
        ));
    }
    drop(table);

    let by_path: HashMap<&str, usize> = analyses
        .iter()
        .enumerate()
        .map(|(ai, a)| (a.path.as_str(), ai))
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

    // File-level dependency neighborhoods for cache invalidation: a file's
    // interprocedural findings depend on its callees' summaries *and* on
    // its callers' call-site evidence, so the edge set is symmetrized.
    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); analyses.len()];
    for (i, es) in edges.iter().enumerate() {
        for &j in es {
            let (ai, aj) = (owner_of[i], owner_of[j]);
            if ai != aj {
                deps[ai].insert(aj);
                deps[aj].insert(ai);
            }
        }
    }
    let dep_paths: Vec<Vec<String>> = deps
        .iter()
        .map(|s| s.iter().map(|&aj| analyses[aj].path.clone()).collect())
        .collect();

    let known_rules: Vec<&'static str> = rules::all().iter().map(|r| r.name).collect();
    let mut report = Report::default();
    let mut entries = Vec::with_capacity(analyses.len());
    let mut sums_iter = all_sums.into_iter();
    let mut dims_iter = dims.into_iter();
    for (ai, a) in analyses.iter_mut().enumerate() {
        report.files += 1;
        if a.fresh.is_none() {
            report.cache_hits += 1;
        }

        // PL008: a directive is "used" when any finding it names lands in
        // its line window — including findings it will then suppress.
        let mut used = vec![false; a.allow_directives.len()];
        for d in &a.found {
            for (i, dir) in a.allow_directives.iter().enumerate() {
                if dir.rules.iter().any(|r| r == d.rule || r == "all")
                    && (dir.first..=dir.last).contains(&d.line)
                {
                    used[i] = true;
                }
            }
        }
        let mut pl008: Vec<(usize, Diagnostic)> = Vec::new();
        for (i, dir) in a.allow_directives.iter().enumerate() {
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
                rules::unused_allow_diag(&a.path, dir.line, dir.col, message),
            ));
        }

        // Cache snapshot: per-file findings pre-suppression, minus the
        // always-recomputed assembly rules (PL008 lives in `pl008`;
        // PL009 depends on other files' bodies).
        let entry_found: Vec<Diagnostic> = a
            .found
            .iter()
            .filter(|d| d.code != "PL009")
            .cloned()
            .collect();
        let fsums: Vec<callgraph::FnSummary> = sums_iter.by_ref().take(counts[ai]).collect();
        let fdims: Vec<summaries::FnDim> = dims_iter.by_ref().take(counts[ai]).collect();
        entries.push(cache::Entry {
            path: a.path.clone(),
            content_hash: a.content_hash,
            deps: dep_paths[ai].clone(),
            found: entry_found,
            summaries: fsums,
            dims: fdims,
            allow_directives: a.allow_directives.clone(),
            suppressions: a.suppressions.clone(),
        });

        for d in a.found.drain(..) {
            if is_suppressed(&a.suppressions, d.rule, d.line) {
                report.suppressed += 1;
            } else {
                report.diagnostics.push(d);
            }
        }
        // A PL008 finding about directive `i` must not be silenced by
        // directive `i` itself (an unused `allow(all)` would otherwise
        // swallow its own report); only *other* directives can.
        for (i, d) in pl008 {
            let silenced = a.allow_directives.iter().enumerate().any(|(j, dir)| {
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
    Assembled {
        report,
        entries,
        shape,
    }
}

/// Lints one in-memory source file. `path` should be workspace-relative
/// (it selects per-crate rule scoping and labels diagnostics). The file is
/// treated as a whole program: the PL009 call graph and the dimensional
/// summaries span only its fns. Never touches the incremental cache.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    assemble(vec![analyze_file(path, src)]).report.diagnostics
}

/// Lints every library source file in the workspace rooted at `root`:
/// `crates/*/src/**/*.rs` plus the root `src/`. Integration tests,
/// benches, and examples are out of scope — the rules govern library code.
///
/// Runs with one worker per available core; see [`lint_workspace_jobs`].
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    lint_workspace_jobs(root, default_jobs())
}

/// The default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// [`lint_workspace`] with an explicit worker count and the incremental
/// cache disabled. Files are analyzed in parallel with
/// `std::thread::scope`; the cross-file stage is serial, so the report —
/// and its `--json` rendering — is byte-identical for every `jobs` value.
pub fn lint_workspace_jobs(root: &Path, jobs: usize) -> Result<Report, LintError> {
    lint_workspace_cached(root, jobs, false)
}

/// [`lint_workspace_jobs`] with explicit control over the incremental
/// cache (`target/ppatc-lint.cache` under `root`). With `use_cache`, files
/// whose content hash and interprocedural neighborhood are unchanged skip
/// the per-file stage entirely; the cross-file stage always reruns, so a
/// warm report is byte-identical to a cold one.
pub fn lint_workspace_cached(
    root: &Path,
    jobs: usize,
    use_cache: bool,
) -> Result<Report, LintError> {
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

    // Partition inputs into cache hits and files needing fresh analysis.
    let cached = if use_cache { cache::load(root) } else { None };
    let mut hits: Vec<Option<cache::Entry>> = inputs.iter().map(|_| None).collect();
    if let Some(mut c) = cached {
        let mut by_path: HashMap<String, cache::Entry> =
            c.entries.drain(..).map(|e| (e.path.clone(), e)).collect();
        for (i, (p, src)) in inputs.iter().enumerate() {
            if let Some(e) = by_path.remove(p) {
                if e.content_hash == cache::fnv1a(src.as_bytes()) {
                    hits[i] = Some(e);
                }
            }
        }
        // Transitive invalidation: a hit survives only while every file in
        // its interprocedural neighborhood is itself a hit — a changed
        // callee (or caller) changes this file's inferred summaries.
        loop {
            let live: HashSet<String> = hits.iter().flatten().map(|e| e.path.clone()).collect();
            let mut dropped = false;
            for slot in &mut hits {
                if let Some(e) = slot {
                    if e.deps.iter().any(|d| !live.contains(d)) {
                        *slot = None;
                        dropped = true;
                    }
                }
            }
            if !dropped {
                break;
            }
        }
        // Symbol-shape gate: name resolution is global, so any change to
        // the workspace's set of fn signatures (add/remove/rename/move)
        // voids every hit. Verified after fresh analysis below.
        let fresh_needed: Vec<usize> = (0..inputs.len()).filter(|&i| hits[i].is_none()).collect();
        let fresh = analyze_parallel(&inputs, &fresh_needed, jobs);
        let mut fresh_iter = fresh.into_iter();
        let mut analyses: Vec<FileAnalysis> = Vec::with_capacity(inputs.len());
        for (i, _) in inputs.iter().enumerate() {
            match hits[i].take() {
                Some(e) => analyses.push(cache::to_analysis(e)),
                None => {
                    analyses.push(fresh_iter.next().expect("fresh analysis per miss"));
                }
            }
        }
        let new_shape = cache::symbol_shape_iter(analyses.iter().flat_map(|a| a.summaries.iter()));
        if analyses.iter().any(|a| a.fresh.is_none()) && new_shape != c.shape {
            // Shape drifted: redo everything fresh for full precision.
            let all: Vec<usize> = (0..inputs.len()).collect();
            let analyses = analyze_parallel(&inputs, &all, jobs);
            let assembled = assemble(analyses);
            let _ = cache::store(root, assembled.shape, &assembled.entries);
            return Ok(assembled.report);
        }
        let assembled = assemble(analyses);
        let _ = cache::store(root, assembled.shape, &assembled.entries);
        return Ok(assembled.report);
    }

    let all: Vec<usize> = (0..inputs.len()).collect();
    let analyses = analyze_parallel(&inputs, &all, jobs);
    let assembled = assemble(analyses);
    if use_cache {
        let _ = cache::store(root, assembled.shape, &assembled.entries);
    }
    Ok(assembled.report)
}

/// Runs the per-file stage over `inputs[which]` with `jobs` workers,
/// returning analyses in `which` order. Work-stealing over a shared index;
/// each slot is written exactly once, so the merged order equals the
/// serial order.
fn analyze_parallel(
    inputs: &[(String, String)],
    which: &[usize],
    jobs: usize,
) -> Vec<FileAnalysis> {
    let jobs = jobs.max(1).min(which.len().max(1));
    if jobs <= 1 {
        return which
            .iter()
            .map(|&i| analyze_file(&inputs[i].0, &inputs[i].1))
            .collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<FileAnalysis>>> = which.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = which.get(k) else { break };
                let analysis = analyze_file(&inputs[i].0, &inputs[i].1);
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
