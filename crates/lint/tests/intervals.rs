//! Seeded-bug fixtures for the interval pass (PL013–PL015): each rule
//! must catch every bug planted here, the widening protocol must
//! terminate on growing loop accumulators, and the pass must analyze
//! every fn body in the real workspace without panicking.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use ppatc_lint::{lint_workspace_cached, Diagnostic, Report};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

/// A scratch workspace under the system temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(files: &[(&str, &str)]) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("ppatc-lint-ivtest-{}-{id}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch root");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = []\n")
            .expect("write workspace manifest");
        for (rel, src) in files {
            let path = root.join(rel);
            fs::create_dir_all(path.parent().expect("file path has a parent"))
                .expect("create source dir");
            fs::write(path, src).expect("write source file");
        }
        Self { root }
    }

    fn lint(&self, use_cache: bool) -> Report {
        lint_workspace_cached(&self.root, 1, use_cache).expect("scratch workspace lints")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn with_code<'r>(report: &'r Report, code: &str) -> Vec<&'r Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.code == code)
        .collect()
}

// --- PL013: possible division by zero ---------------------------------------

#[test]
fn div_by_zero_catches_seeded_bugs() {
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "pub fn bug_clamped_divisor(x: f64) -> f64 {\n\
         \x20   let d = x.max(0.0);\n\
         \x20   1.0 / d\n\
         }\n\
         pub fn bug_loop_counter(xs: &[f64]) -> f64 {\n\
         \x20   let mut s = 0.0;\n\
         \x20   let mut n = 0.0;\n\
         \x20   for x in xs {\n\
         \x20       s += *x;\n\
         \x20       n += 1.0;\n\
         \x20   }\n\
         \x20   s / n\n\
         }\n\
         pub fn ok_guarded(x: f64) -> f64 {\n\
         \x20   let d = x.max(0.0);\n\
         \x20   if d <= 0.0 {\n\
         \x20       return 0.0;\n\
         \x20   }\n\
         \x20   1.0 / d\n\
         }\n",
    )]);
    let report = ws.lint(false);
    let hits = with_code(&report, "PL013");
    assert_eq!(
        hits.len(),
        2,
        "both seeded divisions must fire and the guarded one must not: {:?}",
        report.diagnostics
    );
    assert!(hits
        .iter()
        .all(|d| d.severity == ppatc_lint::Severity::Deny));
}

#[test]
fn div_by_zero_range_crosses_crate_boundaries() {
    // The divisor's zero-admitting range comes from another crate's
    // return summary, not anything visible in the calling file.
    let ws = Scratch::new(&[
        (
            "crates/fab/src/lib.rs",
            "pub fn clamped(x: f64) -> f64 {\n\
             \x20   x.max(0.0)\n\
             }\n",
        ),
        (
            "crates/core/src/lib.rs",
            "pub fn bug_remote_range(x: f64) -> f64 {\n\
             \x20   1.0 / ppatc_fab::clamped(x)\n\
             }\n",
        ),
    ]);
    let report = ws.lint(false);
    let hits = with_code(&report, "PL013");
    assert_eq!(hits.len(), 1, "diagnostics: {:?}", report.diagnostics);
    assert_eq!(hits[0].path, "crates/core/src/lib.rs");
}

#[test]
fn assert_guards_refine_like_if_guards() {
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "/// # Panics\n\
         /// Panics when `x` is not positive.\n\
         pub fn ok_asserted(x: f64) -> f64 {\n\
         \x20   let d = x.max(0.0);\n\
         \x20   assert!(d > 0.0, \"d must be positive\");\n\
         \x20   1.0 / d\n\
         }\n",
    )]);
    let report = ws.lint(false);
    assert!(
        with_code(&report, "PL013").is_empty(),
        "assert!(d > 0.0) proves the divisor non-zero: {:?}",
        report.diagnostics
    );
}

// --- PL014: float domain errors ---------------------------------------------

#[test]
fn domain_error_catches_seeded_bugs() {
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "pub fn bug_sqrt_negative(x: f64) -> f64 {\n\
         \x20   let y = x.min(-1.0);\n\
         \x20   y.sqrt()\n\
         }\n\
         pub fn bug_ln_nonpositive(x: f64) -> f64 {\n\
         \x20   let y = x.min(0.5) - 1.0;\n\
         \x20   y.ln()\n\
         }\n\
         pub fn ok_sqrt_of_square(x: f64) -> f64 {\n\
         \x20   (x * x).sqrt()\n\
         }\n\
         pub fn ok_guarded_sqrt(x: f64) -> f64 {\n\
         \x20   if x < 0.0 {\n\
         \x20       return 0.0;\n\
         \x20   }\n\
         \x20   x.sqrt()\n\
         }\n",
    )]);
    let report = ws.lint(false);
    let hits = with_code(&report, "PL014");
    assert_eq!(
        hits.len(),
        2,
        "both seeded domain errors must fire and neither safe fn may: {:?}",
        report.diagnostics
    );
}

// --- PL015: NaN-unsafe comparisons ------------------------------------------

#[test]
fn nan_comparison_catches_seeded_bugs() {
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "pub fn bug_float_eq(a: f64, b: f64) -> bool {\n\
         \x20   a == b\n\
         }\n\
         pub fn bug_partial_cmp(a: f64, b: f64) -> core::cmp::Ordering {\n\
         \x20   a.partial_cmp(&b).unwrap()\n\
         }\n\
         pub fn ok_guarded_eq(a: f64, b: f64) -> bool {\n\
         \x20   if a.is_nan() || b.is_nan() {\n\
         \x20       return false;\n\
         \x20   }\n\
         \x20   a == b\n\
         }\n\
         pub fn ok_total_cmp(a: f64, b: f64) -> core::cmp::Ordering {\n\
         \x20   a.total_cmp(&b)\n\
         }\n",
    )]);
    let report = ws.lint(false);
    let hits = with_code(&report, "PL015");
    assert_eq!(
        hits.len(),
        2,
        "the raw == and the partial_cmp().unwrap() must fire; the guarded \
         and total_cmp forms must not: {:?}",
        report.diagnostics
    );
    assert!(hits
        .iter()
        .all(|d| d.severity == ppatc_lint::Severity::Warn));
}

// --- widening, caching, and total-workspace robustness ------------------------

#[test]
fn widening_terminates_on_growing_accumulators() {
    // Without widening, the doubling accumulator's interval never
    // converges; with it, analysis terminates and the nonzero fact
    // survives, so the final division is clean.
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "pub fn ok_doubling(n: u64) -> f64 {\n\
         \x20   let mut x = 1.0;\n\
         \x20   let mut i = 0;\n\
         \x20   while i < n {\n\
         \x20       x = x * 2.0;\n\
         \x20       i += 1;\n\
         \x20   }\n\
         \x20   1.0 / x\n\
         }\n\
         pub fn bug_draining(n: u64) -> f64 {\n\
         \x20   let mut x = 4.0;\n\
         \x20   let mut i = 0;\n\
         \x20   while i < n {\n\
         \x20       x = x - 1.0;\n\
         \x20       i += 1;\n\
         \x20   }\n\
         \x20   1.0 / x\n\
         }\n",
    )]);
    let report = ws.lint(false);
    let hits = with_code(&report, "PL013");
    assert_eq!(
        hits.len(),
        1,
        "the doubling loop stays nonzero; the draining loop widens down \
         through zero: {:?}",
        report.diagnostics
    );
    assert!(hits[0].message.contains("admits zero"));
}

#[test]
fn interval_findings_survive_a_warm_cache() {
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "pub fn bug_div(x: f64) -> f64 {\n\
         \x20   1.0 / x.max(0.0)\n\
         }\n",
    )]);
    let cold = ws.lint(true);
    let warm = ws.lint(true);
    assert!(warm.cache_hits > 0, "second run must hit the cache");
    let render = |r: &Report| {
        r.diagnostics
            .iter()
            .map(ppatc_lint::Diagnostic::json)
            .collect::<Vec<_>>()
            .join(",")
    };
    assert_eq!(
        render(&cold),
        render(&warm),
        "cached PL013 findings must be byte-identical on a warm run"
    );
    assert_eq!(with_code(&cold, "PL013").len(), 1);
}

#[test]
fn every_workspace_file_analyzes_without_panicking() {
    // Run the full per-file + interprocedural pipeline over each real
    // workspace file in isolation: the interval pass must handle every fn
    // body the parser produces, whatever its shape.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    collect_rs(&root.join("src"), &mut files);
    assert!(files.len() > 50, "expected a real workspace to sweep");
    for path in files {
        let src = fs::read_to_string(&path).expect("readable source");
        let rel = path
            .strip_prefix(&root)
            .expect("workspace-relative")
            .to_string_lossy()
            .replace('\\', "/");
        // The value is the absence of a panic; findings are asserted by
        // the self-lint gate, not here.
        let _ = ppatc_lint::lint_source(&rel, &src);
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}
