//! The rule catalog: one [`Rule`] per diagnostic code, holding the name,
//! severity, `--list-rules` description and `--explain` text. Findings
//! emitted outside the per-file rule loop take their identity from this
//! table through [`by_code`], so no emit site restates a name or a
//! severity.
//!
//! Every rule can be silenced locally with a
//! `// ppatc-lint: allow(rule-name)` comment on the offending line or the
//! line above it.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::source::{FnItem, SourceFile};

/// A single lint rule: identity, documentation, and a check pass over
/// one file.
pub struct Rule {
    /// Stable diagnostic code.
    pub code: &'static str,
    /// Kebab-case name (used in suppression comments and `--list-rules`).
    pub name: &'static str,
    /// Severity of this rule's findings.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub describes: &'static str,
    /// Rationale printed by `--explain`.
    pub why: &'static str,
    /// An example finding printed by `--explain`.
    pub example: &'static str,
    check: fn(&Rule, &SourceFile, &mut Vec<Diagnostic>),
}

impl Rule {
    /// Runs the rule over one file, appending findings to `out`.
    pub fn check(&self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        (self.check)(self, file, out);
    }

    fn diag(&self, path: &str, line: u32, col: u32, message: String) -> Diagnostic {
        Diagnostic {
            code: self.code,
            rule: self.name,
            severity: self.severity,
            path: path.to_string(),
            line,
            col,
            message,
        }
    }
}

/// The full rule set, in diagnostic-code order.
pub fn all() -> &'static [Rule] {
    &RULES
}

/// The rule with diagnostic code `code`, if the catalog has one.
pub fn by_code(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

// PL003 `must-use-try`, PL016 `shared-state-escape` and PL017
// `unwind-boundary` are retired: rustc now rejects what they flagged
// (DESIGN.md §8). Their codes are never reused.
static RULES: [Rule; 14] = [
    Rule {
        code: "PL001",
        name: "raw-unit-api",
        severity: Severity::Deny,
        describes: "pub fn signatures in unit-bearing crates must use ppatc-units \
                    quantities instead of bare f64 (dimensionless ratios exempt)",
        why: "Bare f64 parameters and returns on public APIs in unit-bearing crates \
              reintroduce the spreadsheet failure mode the ppatc-units newtypes exist \
              to prevent: a gCO₂e/kWh number silently meeting a pJ number.",
        example: "pub fn embodied(area: f64) -> f64  // what unit is `area`?",
        check: raw_unit_api,
    },
    Rule {
        code: "PL002",
        name: "panic-in-lib",
        severity: Severity::Deny,
        describes: "no panic!/unwrap/expect/assert! in non-test library code unless the \
                    enclosing fn documents a `# Panics` contract; no unwrap/expect in \
                    doc examples",
        why: "Library code must never panic on model inputs: the evaluation pipeline \
              promises per-sample fault isolation, and a stray unwrap converts a bad \
              sample into a dead sweep. Documented `# Panics` contracts are the only \
              sanctioned exception.",
        example: "let v = table.get(key).unwrap();  // in a lib fn without `# Panics`",
        check: panic_in_lib,
    },
    Rule {
        code: "PL004",
        name: "magic-constant",
        severity: Severity::Warn,
        describes: "scientific-notation float literals outside const tables must name \
                    their unit in a same-line comment",
        why: "A physical constant with no unit comment is unreviewable: 3.6e6 could \
              be J/kWh or a typo. Underscored plain decimals (1_000_000.0) are the \
              same hazard at the same magnitude, so both spellings need a same-line \
              `// unit` comment or a move into a named const.",
        example: "let lifetime = 94_608_000.0;  // is that seconds? months? cycles?",
        check: magic_constant,
    },
    Rule {
        code: "PL005",
        name: "non-exhaustive-error",
        severity: Severity::Deny,
        describes: "public *Error enums must be #[non_exhaustive]",
        why: "Public error enums grow variants as the model stack grows; without \
              #[non_exhaustive], every new failure mode is a semver break for \
              downstream matchers.",
        example: "pub enum SolverError { Diverged }  // missing #[non_exhaustive]",
        check: non_exhaustive_error,
    },
    Rule {
        code: "PL006",
        name: "dimension-mismatch",
        severity: Severity::Deny,
        describes: "additive/comparison operands and constructor arguments must agree \
                    in dimension and unit scale (interprocedural dataflow seeded \
                    from the ppatc-units registry and fn summaries)",
        why: "The dimensional dataflow pass tracks units through fn bodies, seeded \
              from the ppatc-units registry (typed constructors/accessors) and \
              unit-suffixed names (area_mm2, delay_ns). Adding or comparing values \
              of different dimensions — or the same dimension at provably different \
              scales — is exactly the class of bug Eq. 2's carbon accounting cannot \
              tolerate.",
        example: "if chip_area_mm2 > wafer_area_m2 { .. }  // mm² compared against m²",
        // Emitted by the interprocedural engine at report assembly.
        check: no_per_file_check,
    },
    Rule {
        code: "PL007",
        name: "unit-cast-roundtrip",
        severity: Severity::Deny,
        describes: "quantity constructor fed a raw value of the right dimension at \
                    the wrong scale, e.g. Energy::from_joules(x.as_picojoules())",
        why: "Round-tripping a quantity through raw f64 at a different unit scale \
              (as_picojoules into from_joules) is a silent 1e12× error the type \
              system cannot see because both sides are f64 at the boundary. \
              Multiplying by an explicit literal rescale is tracked and stays clean.",
        example: "Energy::from_joules(e.as_picojoules())  // off by 1e12",
        // Emitted by the PL006 dataflow pass; see dimensional_dataflow.
        check: no_per_file_check,
    },
    Rule {
        code: "PL008",
        name: "unused-allow",
        severity: Severity::Warn,
        describes: "ppatc-lint: allow(...) directives that suppress nothing must be \
                    removed or narrowed",
        why: "A suppression that no longer suppresses anything is a stale claim \
              about the code; it hides future findings on its line window and \
              misleads reviewers about which invariants are waived. Directives in \
              doc comments are prose, never suppressions.",
        example: "// ppatc-lint: allow(magic-constant) — above a line that is now clean",
        // Computed at report assembly, after every other rule has run.
        check: no_per_file_check,
    },
    Rule {
        code: "PL009",
        name: "panic-reachable-from-try",
        severity: Severity::Warn,
        describes: "try_* fns must not transitively reach panic!/unwrap/expect \
                    without a `# Panics` contract on the call path",
        why: "A try_* fn advertises total, caller-handled failure; if its call \
              graph can still reach panic!/unwrap/expect with no `# Panics` \
              contract anywhere on the path, the Result is a false promise. The \
              pass resolves calls to workspace fns by unique name and reports a \
              witness path.",
        example: "pub fn try_fit(..) -> Result<..> { grid.nearest(x) } // nearest() unwraps",
        // Computed over the whole-workspace call graph.
        check: no_per_file_check,
    },
    Rule {
        code: "PL010",
        name: "hash-order-escape",
        severity: Severity::Deny,
        describes: "HashMap/HashSet iteration order must not reach an ordered sink \
                    (Vec/String/accumulator/output) without an intervening sort",
        why: "std's HashMap/HashSet iterate in a per-process randomized order. \
              Letting that order reach a Vec, String, accumulator, or output \
              stream bakes scheduler noise into results the workspace promises \
              are byte-identical across runs, worker counts, and cache hits. \
              Sort before the sink, or collect into a BTree container.",
        example: "for (k, v) in &totals { out.push_str(k); }  // totals is a HashMap",
        // Computed by the determinism pass over parsed fn bodies.
        check: no_per_file_check,
    },
    Rule {
        code: "PL011",
        name: "wall-clock-in-result",
        severity: Severity::Warn,
        describes: "Instant/SystemTime readings must not flow into ppatc-units \
                    quantities; model results must be a pure function of inputs",
        why: "Model outputs must be a pure function of model inputs. An Instant \
              or SystemTime reading that flows into a ppatc-units quantity makes \
              a carbon or energy figure depend on when the run happened — \
              deadlines and telemetry are fine, but never inside a result. The \
              interprocedural dataflow tracks wall-clock taint through helper \
              fns and across crates.",
        example: "Energy::from_joules(t0.elapsed().as_secs_f64() * p)  // wall clock in a result",
        // Co-emitted by the PL006 interprocedural dataflow.
        check: no_per_file_check,
    },
    Rule {
        code: "PL012",
        name: "float-reduction-order",
        severity: Severity::Deny,
        describes: "float accumulation across thread or channel boundaries must \
                    merge in index order, not arrival order (par_map_chunks idiom)",
        why: "Float addition is not associative: accumulating partial sums in \
              thread or channel arrival order makes the low-order bits a \
              function of the scheduler. The blessed idiom is par_map_chunks — \
              reduce per-chunk, send (index, partial), merge in index order — \
              which this rule exempts by name.",
        example: "while let Ok(x) = rx.recv() { sum += x; }  // arrival-order reduction",
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
        why: "The interval pass tracks per-variable [lo, hi] ranges, seeded from \
              literals, typed-unit accessors, and guard conditions, widened at \
              loop back-edges, and propagated across fn boundaries through \
              return-range summaries. A division whose divisor's interval \
              provably admits zero yields ±inf or NaN that then flows into \
              carbon totals unnoticed — guard with an ordered comparison \
              (`if d > 0.0`) and return a typed error on the other branch.",
        example: "let yield_frac = good as f64 / dies as f64;  // dies may be 0",
        // Emitted by the interval pass at report assembly.
        check: no_per_file_check,
    },
    Rule {
        code: "PL014",
        name: "float-domain-error",
        severity: Severity::Deny,
        describes: "sqrt/ln/log10/powf applied to an interval that provably \
                    admits a negative argument, which evaluates to NaN",
        why: "sqrt, ln, log10, and non-integer powf return NaN for negative \
              arguments, and NaN propagates through every downstream sum \
              without a panic — the worst failure mode for a model that \
              promises reproducible totals. Clamp or guard the argument's \
              range first; the pass exempts arguments it can prove \
              non-negative (accessor results, squared values, abs).",
        example: "let sigma = variance.sqrt();  // variance's interval reaches below 0",
        // Emitted by the interval pass at report assembly.
        check: no_per_file_check,
    },
    Rule {
        code: "PL015",
        name: "nan-unsafe-comparison",
        severity: Severity::Warn,
        describes: "float ==/!= or partial_cmp().unwrap() on values not provably \
                    NaN-free; use f64::total_cmp or guard with is_nan/is_finite",
        why: "`x == y` on floats is false for NaN even when both are NaN, and \
              partial_cmp().unwrap() panics on it; both are latent landmines \
              unless the operands are provably NaN-free. The interval pass \
              proves NaN-freeness through guards (is_nan, is_finite, ordered \
              comparisons) and accessor summaries; where it cannot, prefer \
              f64::total_cmp or guard explicitly.",
        example: "vals.sort_by(|a, b| a.partial_cmp(b).unwrap());  // NaN panics here",
        // Emitted by the interval pass at report assembly.
        check: no_per_file_check,
    },
];

/// Placeholder for rules whose findings are produced outside the per-file
/// rule loop (dataflow co-emission, report assembly, call graph).
fn no_per_file_check(_rule: &Rule, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {}

// ---------------------------------------------------------------------------
// Diagnostic builders for assembly-emitted rules
// ---------------------------------------------------------------------------

/// Builds a finding of catalog rule `code`. Callers pass only code
/// literals from this file and `determinism.rs`, each emitted by its
/// rule's fixture tests, so the lookup cannot miss.
fn catalog_diag(code: &str, path: &str, line: u32, col: u32, message: String) -> Diagnostic {
    by_code(code)
        .expect("assembly emits only catalog codes")
        .diag(path, line, col, message)
}

/// Builds a diagnostic for a [`crate::dims::Finding`] from the
/// interprocedural engine: PL006 for dimension mismatches, PL007 for
/// scale roundtrips, PL011 for wall-clock taint.
pub(crate) fn dims_finding_diag(path: &str, f: crate::dims::Finding) -> Diagnostic {
    let code = match f.kind {
        crate::dims::FindingKind::DimensionMismatch => "PL006",
        crate::dims::FindingKind::UnitCastRoundtrip => "PL007",
        crate::dims::FindingKind::WallClockInResult => "PL011",
    };
    catalog_diag(code, path, f.line, f.col, f.message)
}

/// Builds a diagnostic for a [`crate::determinism::DetFinding`] (PL010 or
/// PL012).
pub(crate) fn det_finding_diag(path: &str, f: crate::determinism::DetFinding) -> Diagnostic {
    catalog_diag(f.code, path, f.line, f.col, f.message)
}

/// Builds a PL008 `unused-allow` diagnostic (report assembly).
pub(crate) fn unused_allow_diag(path: &str, line: u32, col: u32, message: String) -> Diagnostic {
    catalog_diag("PL008", path, line, col, message)
}

/// Builds a PL009 `panic-reachable-from-try` diagnostic (call-graph pass).
pub(crate) fn panic_reachable_diag(path: &str, line: u32, col: u32, message: String) -> Diagnostic {
    catalog_diag("PL009", path, line, col, message)
}

/// Builds a diagnostic for a [`crate::vals::RangeFinding`] from the
/// interval pass: PL013 for zero-admitting divisors, PL014 for float
/// domain errors, PL015 for NaN-unsafe comparisons.
pub(crate) fn range_finding_diag(path: &str, f: crate::vals::RangeFinding) -> Diagnostic {
    let code = match f.kind {
        crate::vals::RangeKind::DivByZero => "PL013",
        crate::vals::RangeKind::DomainError => "PL014",
        crate::vals::RangeKind::NanComparison => "PL015",
    };
    catalog_diag(code, path, f.line, f.col, f.message)
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
                    &file.path,
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
                &file.path,
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
            &file.path,
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
                    &file.path,
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
            &file.path,
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
                &file.path,
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
