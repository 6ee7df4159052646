//! The rule catalog.
//!
//! | Code  | Name                   | Severity | Scope |
//! |-------|------------------------|----------|-------|
//! | PL001 | `raw-unit-api`            | deny     | `core`, `fab`, `wafer`, `edram` |
//! | PL002 | `panic-in-lib`            | deny     | all model crates (not `bench`/`suite`) |
//! | PL003 | `must-use-try`            | deny     | whole workspace |
//! | PL004 | `magic-constant`          | warn     | model crates, outside const tables |
//! | PL005 | `non-exhaustive-error`    | deny     | whole workspace |
//! | PL006 | `dimension-mismatch`      | deny     | whole workspace (interprocedural dataflow, [`crate::dims`] + [`crate::summaries`]) |
//! | PL007 | `unit-cast-roundtrip`     | deny     | whole workspace (dataflow, [`crate::dims`]) |
//! | PL008 | `unused-allow`            | warn     | whole workspace (report assembly) |
//! | PL009 | `panic-reachable-from-try`| warn     | workspace call graph ([`crate::callgraph`]) |
//! | PL010 | `hash-order-escape`       | deny     | whole workspace ([`crate::determinism`]) |
//! | PL011 | `wall-clock-in-result`    | warn     | whole workspace (dataflow, [`crate::dims`]) |
//! | PL012 | `float-reduction-order`   | deny     | whole workspace ([`crate::determinism`]) |
//!
//! Every rule can be silenced locally with a
//! `// ppatc-lint: allow(rule-name)` comment on the offending line or the
//! line above it.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::{FnItem, SourceFile};

/// A single lint rule: identity plus a check pass over one file.
pub struct Rule {
    /// Stable diagnostic code.
    pub code: &'static str,
    /// Kebab-case name (used in suppression comments and `--list-rules`).
    pub name: &'static str,
    /// Severity of this rule's findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub describes: &'static str,
    check: fn(&Rule, &SourceFile, &mut Vec<Diagnostic>),
}

impl Rule {
    /// Runs the rule over one file, appending findings to `out`.
    pub fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        (self.check)(self, file, out);
    }

    fn diag(&self, file: &SourceFile, line: u32, col: u32, message: String) -> Diagnostic {
        Diagnostic {
            code: self.code,
            rule: self.name,
            severity: self.severity,
            path: file.path.clone(),
            line,
            col,
            message,
        }
    }
}

/// The full rule set, in diagnostic-code order.
pub fn all() -> Vec<Rule> {
    vec![
        Rule {
            code: "PL001",
            name: "raw-unit-api",
            severity: Severity::Deny,
            describes: "pub fn signatures in unit-bearing crates must use ppatc-units \
                        quantities instead of bare f64 (dimensionless ratios exempt)",
            check: raw_unit_api,
        },
        Rule {
            code: "PL002",
            name: "panic-in-lib",
            severity: Severity::Deny,
            describes: "no panic!/unwrap/expect/assert! in non-test library code unless the \
                        enclosing fn documents a `# Panics` contract; no unwrap/expect in \
                        doc examples",
            check: panic_in_lib,
        },
        Rule {
            code: "PL003",
            name: "must-use-try",
            severity: Severity::Deny,
            describes: "every try_* fn must return Result and carry #[must_use]",
            check: must_use_try,
        },
        Rule {
            code: "PL004",
            name: "magic-constant",
            severity: Severity::Warn,
            describes: "scientific-notation float literals outside const tables must name \
                        their unit in a same-line comment",
            check: magic_constant,
        },
        Rule {
            code: "PL005",
            name: "non-exhaustive-error",
            severity: Severity::Deny,
            describes: "public *Error enums must be #[non_exhaustive]",
            check: non_exhaustive_error,
        },
        Rule {
            code: "PL006",
            name: "dimension-mismatch",
            severity: Severity::Deny,
            describes: "additive/comparison operands and constructor arguments must agree \
                        in dimension and unit scale (interprocedural dataflow seeded \
                        from the ppatc-units registry and fn summaries)",
            // Emitted by the interprocedural engine at report assembly.
            check: no_per_file_check,
        },
        Rule {
            code: "PL007",
            name: "unit-cast-roundtrip",
            severity: Severity::Deny,
            describes: "quantity constructor fed a raw value of the right dimension at \
                        the wrong scale, e.g. Energy::from_joules(x.as_picojoules())",
            // Emitted by the PL006 dataflow pass; see dimensional_dataflow.
            check: no_per_file_check,
        },
        Rule {
            code: "PL008",
            name: "unused-allow",
            severity: Severity::Warn,
            describes: "ppatc-lint: allow(...) directives that suppress nothing must be \
                        removed or narrowed",
            // Computed at report assembly, after every other rule has run.
            check: no_per_file_check,
        },
        Rule {
            code: "PL009",
            name: "panic-reachable-from-try",
            severity: Severity::Warn,
            describes: "try_* fns must not transitively reach panic!/unwrap/expect \
                        without a `# Panics` contract on the call path",
            // Computed over the whole-workspace call graph.
            check: no_per_file_check,
        },
        Rule {
            code: "PL010",
            name: "hash-order-escape",
            severity: Severity::Deny,
            describes: "HashMap/HashSet iteration order must not reach an ordered sink \
                        (Vec/String/accumulator/output) without an intervening sort",
            // Computed by the determinism pass over parsed fn bodies.
            check: no_per_file_check,
        },
        Rule {
            code: "PL011",
            name: "wall-clock-in-result",
            severity: Severity::Warn,
            describes: "Instant/SystemTime readings must not flow into ppatc-units \
                        quantities; model results must be a pure function of inputs",
            // Co-emitted by the PL006 interprocedural dataflow.
            check: no_per_file_check,
        },
        Rule {
            code: "PL012",
            name: "float-reduction-order",
            severity: Severity::Deny,
            describes: "float accumulation across thread or channel boundaries must \
                        merge in index order, not arrival order (par_map_chunks idiom)",
            // Computed by the determinism pass over parsed fn bodies.
            check: no_per_file_check,
        },
        Rule {
            code: "PL013",
            name: "possible-div-by-zero",
            severity: Severity::Deny,
            describes: "division or remainder whose divisor's inferred interval \
                        provably admits zero (flow-sensitive ranges seeded from \
                        literals, guards, unit accessors, and return summaries)",
            // Emitted by the interval pass at report assembly.
            check: no_per_file_check,
        },
        Rule {
            code: "PL014",
            name: "float-domain-error",
            severity: Severity::Deny,
            describes: "sqrt/ln/log10/powf applied to an interval that provably \
                        admits a negative argument, which evaluates to NaN",
            // Emitted by the interval pass at report assembly.
            check: no_per_file_check,
        },
        Rule {
            code: "PL015",
            name: "nan-unsafe-comparison",
            severity: Severity::Warn,
            describes: "float ==/!= or partial_cmp().unwrap() on values not provably \
                        NaN-free; use f64::total_cmp or guard with is_nan/is_finite",
            // Emitted by the interval pass at report assembly.
            check: no_per_file_check,
        },
        Rule {
            code: "PL016",
            name: "shared-state-escape",
            severity: Severity::Deny,
            describes: "static mut (non-atomic shared mutable state) reachable from \
                        thread::scope/par_map_chunks worker closures, directly or \
                        through the cross-crate call graph",
            // Computed over the whole-workspace call graph at assembly.
            check: no_per_file_check,
        },
        Rule {
            code: "PL017",
            name: "unwind-boundary",
            severity: Severity::Warn,
            describes: "catch_unwind closures mutating captured state without an \
                        AssertUnwindSafe acknowledgment (panic leaves it half-written)",
            // Computed by the concurrency pass over parsed fn bodies.
            check: no_per_file_check,
        },
    ]
}

/// Placeholder for rules whose findings are produced outside the per-file
/// rule loop (dataflow co-emission, report assembly, call graph).
fn no_per_file_check(_rule: &Rule, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {}

// ---------------------------------------------------------------------------
// Diagnostic builders for assembly-emitted rules
// ---------------------------------------------------------------------------

/// Builds a diagnostic for a [`crate::dims::Finding`] from the
/// interprocedural engine: PL006 for dimension mismatches, PL007 for
/// scale roundtrips, PL011 for wall-clock taint.
pub(crate) fn dims_finding_diag(path: &str, f: crate::dims::Finding) -> Diagnostic {
    let (code, rule, severity) = match f.kind {
        crate::dims::FindingKind::DimensionMismatch => {
            ("PL006", "dimension-mismatch", Severity::Deny)
        }
        crate::dims::FindingKind::UnitCastRoundtrip => {
            ("PL007", "unit-cast-roundtrip", Severity::Deny)
        }
        crate::dims::FindingKind::WallClockInResult => {
            ("PL011", "wall-clock-in-result", Severity::Warn)
        }
    };
    Diagnostic {
        code,
        rule,
        severity,
        path: path.to_string(),
        line: f.line,
        col: f.col,
        message: f.message,
    }
}

/// Builds a diagnostic for a [`crate::determinism::DetFinding`] (PL010 or
/// PL012, both deny).
pub(crate) fn det_finding_diag(path: &str, f: crate::determinism::DetFinding) -> Diagnostic {
    let (rule, severity) = match f.code {
        "PL010" => ("hash-order-escape", Severity::Deny),
        _ => ("float-reduction-order", Severity::Deny),
    };
    Diagnostic {
        code: f.code,
        rule,
        severity,
        path: path.to_string(),
        line: f.line,
        col: f.col,
        message: f.message,
    }
}

/// Builds a PL008 `unused-allow` diagnostic (report assembly).
pub(crate) fn unused_allow_diag(path: &str, line: u32, col: u32, message: String) -> Diagnostic {
    Diagnostic {
        code: "PL008",
        rule: "unused-allow",
        severity: Severity::Warn,
        path: path.to_string(),
        line,
        col,
        message,
    }
}

/// Builds a PL009 `panic-reachable-from-try` diagnostic (call-graph pass).
pub(crate) fn panic_reachable_diag(path: &str, line: u32, col: u32, message: String) -> Diagnostic {
    Diagnostic {
        code: "PL009",
        rule: "panic-reachable-from-try",
        severity: Severity::Warn,
        path: path.to_string(),
        line,
        col,
        message,
    }
}

/// Builds a diagnostic for a [`crate::vals::RangeFinding`] from the
/// interval pass: PL013 for zero-admitting divisors, PL014 for float
/// domain errors, PL015 for NaN-unsafe comparisons.
pub(crate) fn range_finding_diag(path: &str, f: crate::vals::RangeFinding) -> Diagnostic {
    let (code, rule, severity) = match f.kind {
        crate::vals::RangeKind::DivByZero => ("PL013", "possible-div-by-zero", Severity::Deny),
        crate::vals::RangeKind::DomainError => ("PL014", "float-domain-error", Severity::Deny),
        crate::vals::RangeKind::NanComparison => ("PL015", "nan-unsafe-comparison", Severity::Warn),
    };
    Diagnostic {
        code,
        rule,
        severity,
        path: path.to_string(),
        line: f.line,
        col: f.col,
        message: f.message,
    }
}

/// Builds a diagnostic for a [`crate::concurrency::ConcFinding`]: PL016
/// for shared-state escapes, PL017 for unwind boundaries.
pub(crate) fn conc_finding_diag(path: &str, f: crate::concurrency::ConcFinding) -> Diagnostic {
    let (code, rule, severity) = match f.kind {
        crate::concurrency::ConcKind::SharedStateEscape => {
            ("PL016", "shared-state-escape", Severity::Deny)
        }
        crate::concurrency::ConcKind::UnwindBoundary => {
            ("PL017", "unwind-boundary", Severity::Warn)
        }
    };
    Diagnostic {
        code,
        rule,
        severity,
        path: path.to_string(),
        line: f.line,
        col: f.col,
        message: f.message,
    }
}

// ---------------------------------------------------------------------------
// PL001: raw-unit-api
// ---------------------------------------------------------------------------

/// Crates whose public API must speak in `ppatc-units` quantities.
const UNIT_CRATES: &[&str] = &["core", "fab", "wafer", "edram"];

/// Name segments that mark a value as genuinely dimensionless.
const DIMENSIONLESS: &[&str] = &[
    "activity",
    "alpha",
    "beta",
    "cycles",
    "dies",
    "duty",
    "exponent",
    "factor",
    "factors",
    "frac",
    "fraction",
    "gamma",
    "margin",
    "overhead",
    "percent",
    "prob",
    "probability",
    "quantile",
    "quantiles",
    "ratio",
    "ratios",
    "reps",
    "scale",
    "scales",
    "sensitivity",
    "share",
    "tol",
    "tolerance",
    "util",
    "utilization",
    "weight",
    "weights",
    "yield",
];

/// Name segments that spell the unit out, making a bare `f64` explicit
/// (`from_grams`, `as_months`, `g_per_kwh`, `cell_side_nm`, ...).
const UNIT_NAMED: &[&str] = &[
    "amperes",
    "celsius",
    "cm",
    "cm2",
    "coulombs",
    "day",
    "days",
    "dollars",
    "ev",
    "farads",
    "fc",
    "ff",
    "fj",
    "ghz",
    "gram",
    "grams",
    "hour",
    "hours",
    "hz",
    "joule",
    "joules",
    "kelvin",
    "kg",
    "khz",
    "kilograms",
    "kwh",
    "liter",
    "liters",
    "litre",
    "litres",
    "m2",
    "mhz",
    "minutes",
    "mj",
    "mm",
    "mm2",
    "month",
    "months",
    "mv",
    "mw",
    "nj",
    "nm",
    "ns",
    "nw",
    "ohm",
    "ohms",
    "pf",
    "pj",
    "ps",
    "sec",
    "second",
    "seconds",
    "secs",
    "tonnes",
    "ua",
    "um",
    "um2",
    "us",
    "usd",
    "uw",
    "volt",
    "volts",
    "watt",
    "watts",
];

fn name_is_unit_explicit(name: &str) -> bool {
    name.split('_').any(|seg| {
        let seg = seg.to_ascii_lowercase();
        DIMENSIONLESS.contains(&seg.as_str()) || UNIT_NAMED.contains(&seg.as_str())
    })
}

fn raw_unit_api(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !UNIT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for f in &file.fns {
        if !f.is_pub || f.in_test || file.in_test(f.line) {
            continue;
        }
        for p in &f.params {
            if p.ty.iter().any(|t| t == "f64") && !name_is_unit_explicit(&p.name) {
                // Anchor at the fn line so one allow-comment above the
                // signature covers every parameter.
                out.push(rule.diag(
                    file,
                    f.line,
                    f.col,
                    format!(
                        "parameter `{}: f64` of `pub fn {}` should be a ppatc-units \
                         quantity (or carry a unit/dimensionless name)",
                        p.name, f.name
                    ),
                ));
            }
        }
        if f.ret.iter().any(|t| t == "f64") && !name_is_unit_explicit(&f.name) {
            out.push(rule.diag(
                file,
                f.line,
                f.col,
                format!(
                    "`pub fn {}` returns bare f64; return a ppatc-units quantity or \
                     give the fn a unit/dimensionless name",
                    f.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// PL002: panic-in-lib
// ---------------------------------------------------------------------------

/// Macro names that abort at runtime.
pub(crate) const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Crates where panicking on broken fixtures is acceptable (analysis
/// harness and the integration-test shell).
const PANIC_EXEMPT_CRATES: &[&str] = &["bench", "suite", "lint"];

fn panic_in_lib(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if PANIC_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    // Sort fn bodies innermost-first so enclosing-fn lookup picks the
    // tightest span.
    let mut bodied: Vec<&FnItem> = file.fns.iter().filter(|f| f.body.is_some()).collect();
    bodied.sort_by_key(|f| f.body.map_or(0, |(a, b)| b - a));

    for (ci, &ti) in file.code.iter().enumerate() {
        let tok = &file.tokens[ti];
        if tok.kind != TokenKind::Ident || file.in_test(tok.line) {
            continue;
        }
        let next = file.code_token(ci + 1).map_or("", |t| t.text.as_str());
        let prev = if ci > 0 {
            file.code_token(ci - 1).map_or("", |t| t.text.as_str())
        } else {
            ""
        };
        let is_panic_macro = PANIC_MACROS.contains(&tok.text.as_str()) && next == "!";
        let is_unwrap_call =
            matches!(tok.text.as_str(), "unwrap" | "expect") && prev == "." && next == "(";
        if !is_panic_macro && !is_unwrap_call {
            continue;
        }
        // Exempt when the enclosing fn documents its panic contract.
        let enclosing = bodied
            .iter()
            .find(|f| f.body.is_some_and(|(a, b)| (a..=b).contains(&ci)));
        if enclosing.is_some_and(|f| f.doc.contains("# Panics")) {
            continue;
        }
        let what = if is_panic_macro {
            format!("`{}!`", tok.text)
        } else {
            format!("`.{}()`", tok.text)
        };
        let hint = match enclosing {
            Some(f) => format!(
                "document a `# Panics` contract on `fn {}` or return a Result",
                f.name
            ),
            None => "move it into test code or return a Result".to_string(),
        };
        out.push(rule.diag(
            file,
            tok.line,
            tok.col,
            format!("{what} in non-test library code; {hint}"),
        ));
    }

    // Doc-test bodies: fenced code in `///` / `//!` comments is compiled
    // and run by rustdoc, but the clippy unwrap/expect gate never sees it.
    let mut in_fence = false;
    for tok in &file.tokens {
        if tok.kind != TokenKind::LineComment {
            continue;
        }
        let body = tok
            .text
            .trim_start_matches('/')
            .trim_start_matches('!')
            .trim_start();
        if !tok.text.starts_with("///") && !tok.text.starts_with("//!") {
            continue;
        }
        if body.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence && (body.contains(".unwrap(") || body.contains(".expect(")) {
            out.push(
                rule.diag(
                    file,
                    tok.line,
                    tok.col,
                    "unwrap/expect in a doc example; use `?` with a hidden \
                 `# Ok::<(), _>(())` tail instead"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// PL003: must-use-try
// ---------------------------------------------------------------------------

fn must_use_try(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for f in &file.fns {
        if !f.name.starts_with("try_") || f.in_test || file.in_test(f.line) {
            continue;
        }
        if !f.ret.iter().any(|t| t == "Result") {
            out.push(rule.diag(
                file,
                f.line,
                f.col,
                format!("`fn {}` is named try_* but does not return Result", f.name),
            ));
        }
        if !f.attrs.iter().any(|a| a.starts_with("must_use")) {
            out.push(rule.diag(
                file,
                f.line,
                f.col,
                format!(
                    "`fn {}` must carry #[must_use = \"...\"] so dropped Results are \
                     caught at the call site",
                    f.name
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// PL004: magic-constant
// ---------------------------------------------------------------------------

/// Crates exempt from the magic-constant rule: the units crate *defines*
/// the conversion factors, and the harness crates are exploratory.
const MAGIC_EXEMPT_CRATES: &[&str] = &["units", "bench", "suite", "lint"];

/// File-stem fragments that mark calibrated-parameter tables, where the
/// surrounding doc comments carry the units.
const TABLE_FILE_MARKERS: &[&str] = &["consts", "grid", "materials", "steps", "table"];

fn magic_constant(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if MAGIC_EXEMPT_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let norm = file.path.replace('\\', "/");
    let stem = norm.rsplit('/').next().unwrap_or("");
    if TABLE_FILE_MARKERS.iter().any(|m| stem.contains(m)) {
        return;
    }
    let const_lines = const_item_lines(file);
    for &ti in &file.code {
        let tok = &file.tokens[ti];
        if tok.kind != TokenKind::Number
            || file.in_test(tok.line)
            || !(is_physical_constant_literal(&tok.text) || is_large_plain_literal(&tok.text))
        {
            continue;
        }
        if const_lines.contains(&tok.line) || file.line_has_comment(tok.line) {
            continue;
        }
        out.push(rule.diag(
            file,
            tok.line,
            tok.col,
            format!(
                "physical-constant literal `{}` needs a same-line `// unit` comment \
                 or a move into a named const",
                tok.text
            ),
        ));
    }
}

/// Lines covered by `const`/`static` items (through the terminating `;`).
fn const_item_lines(file: &SourceFile) -> Vec<u32> {
    let mut lines = Vec::new();
    let mut ci = 0usize;
    while ci < file.code.len() {
        let tok = &file.tokens[file.code[ci]];
        if tok.kind == TokenKind::Ident && (tok.text == "const" || tok.text == "static") {
            let start = tok.line;
            let mut depth = 0i32;
            let mut k = ci;
            let mut end = start;
            while let Some(t) = file.code_token(k) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth <= 0 => {
                        end = t.line;
                        break;
                    }
                    _ => {}
                }
                end = t.line;
                k += 1;
            }
            lines.extend(start..=end);
            ci = k;
        }
        ci += 1;
    }
    lines
}

/// A plain-decimal literal (no exponent) of magnitude ≥ 1e3:
/// `1_000_000.0`, `86_400`, `44100.5`. Underscore separators do not hide
/// the magnitude. Pure powers of ten stay exempt only in scientific
/// notation (`1e6` reads as a scale factor; `1_000_000.0` reads as a
/// physical magnitude that needs its unit named). Integer powers of two
/// (`1024`, `65_536`) are structural sizes, not physical constants.
fn is_large_plain_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return false;
    }
    if lower.contains('e') {
        // Scientific notation is the other branch's business entirely.
        return false;
    }
    let Some(v) = crate::dims::literal_value(text) else {
        return false;
    };
    if !lower.contains('.') && v.fract() == 0.0 && (v as u64).is_power_of_two() {
        return false;
    }
    v >= 1e3
}

fn is_physical_constant_literal(text: &str) -> bool {
    let lower = text.to_ascii_lowercase().replace('_', "");
    if lower.starts_with("0x") || lower.starts_with("0o") || lower.starts_with("0b") {
        return false;
    }
    let Some(e_at) = lower.find('e') else {
        return false;
    };
    let mantissa: f64 = match lower[..e_at].parse() {
        Ok(m) => m,
        Err(_) => return false,
    };
    if mantissa <= 0.0 {
        return false;
    }
    let log = mantissa.log10();
    (log - log.round()).abs() > 1e-9
}

// ---------------------------------------------------------------------------
// PL005: non-exhaustive-error
// ---------------------------------------------------------------------------

fn non_exhaustive_error(rule: &Rule, file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for e in &file.enums {
        if !e.is_pub || !e.name.ends_with("Error") || e.in_test || file.in_test(e.line) {
            continue;
        }
        if !e.attrs.iter().any(|a| a == "non_exhaustive") {
            out.push(rule.diag(
                file,
                e.line,
                e.col,
                format!(
                    "public error enum `{}` must be #[non_exhaustive] so adding \
                     variants stays non-breaking",
                    e.name
                ),
            ));
        }
    }
}
