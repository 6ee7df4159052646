//! Seeded-fixture tests: every rule in the catalog must fire on a minimal
//! violating source, stay quiet on the corrected form, and honour the
//! `ppatc-lint: allow(...)` suppression syntax.

use ppatc_lint::lexer::{self, TokenKind};
use ppatc_lint::lint_source;

fn codes(path: &str, src: &str) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = lint_source(path, src).into_iter().map(|d| d.code).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

// -----------------------------------------------------------------------
// PL001: raw-unit-api
// -----------------------------------------------------------------------

#[test]
fn pl001_fires_on_bare_f64_in_unit_crate() {
    let src = "pub fn embodied_carbon(area: f64) -> f64 { area * 2.0 }\n";
    assert_eq!(codes("crates/core/src/x.rs", src), vec!["PL001"]);
}

#[test]
fn pl001_ignores_non_unit_crates() {
    let src = "pub fn embodied_carbon(area: f64) -> f64 { area * 2.0 }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl001_accepts_unit_named_and_dimensionless_signatures() {
    let src = "pub fn carbon_grams(area_mm2: f64, yield_fraction: f64) -> f64 { area_mm2 * yield_fraction }\n";
    assert!(codes("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn pl001_ignores_private_fns() {
    let src = "fn helper(x: f64) -> f64 { x }\n";
    assert!(codes("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn pl001_reports_params_at_the_signature_line() {
    // One allow-comment above a multi-line signature must cover every
    // parameter, so all findings anchor at the `pub fn` line.
    let src = "pub fn blend(\n    a: f64,\n    b: f64,\n) -> f64 {\n    a + b\n}\n";
    let diags = lint_source("crates/core/src/x.rs", src);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.line == 1), "diags: {diags:?}");
}

// -----------------------------------------------------------------------
// PL002: panic-in-lib
// -----------------------------------------------------------------------

#[test]
fn pl002_fires_on_unwrap_in_lib_code() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL002"]);
}

#[test]
fn pl002_fires_on_panic_macro() {
    let src = "pub fn f() { panic!(\"boom\"); }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL002"]);
}

#[test]
fn pl002_exempts_documented_panics_contract() {
    let src = "/// Grabs the value.\n///\n/// # Panics\n///\n/// If `v` is `None`.\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl002_ignores_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(1, 1); Some(1).unwrap(); }\n}\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl002_fires_on_unwrap_in_doc_example() {
    let src = "/// ```\n/// let x = compute().unwrap();\n/// ```\npub fn compute() -> Option<u32> { None }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL002"]);
}

#[test]
fn pl002_ignores_unwrap_mentioned_in_prose_docs() {
    // Outside a code fence, ".unwrap(" is prose, not a doc-test body.
    let src = "/// Never calls `.unwrap()` internally.\npub fn f() {}\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl002_exempts_harness_crates() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(codes("crates/bench/src/x.rs", src).is_empty());
    assert!(codes("src/suite.rs", src).is_empty());
}

// -----------------------------------------------------------------------
// PL004: magic-constant
// -----------------------------------------------------------------------

#[test]
fn pl004_fires_on_uncommented_scientific_literal() {
    let src = "pub fn f() -> f64 { 8.617e-5 }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL004"]);
}

#[test]
fn pl004_accepts_same_line_unit_comment() {
    let src = "pub fn f() -> f64 { 8.617e-5 } // eV/K (Boltzmann)\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl004_accepts_named_const() {
    let src = "const K_B_EV_PER_K: f64 = 8.617e-5;\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl004_ignores_power_of_ten_conversions() {
    // 1e-9, 1.0e6 are unit-prefix conversions, not calibrated constants.
    let src = "pub fn f(x: f64) -> f64 { x * 1e-9 + 1.0e6 }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl004_ignores_table_files_and_units_crate() {
    let src = "pub fn f() -> f64 { 8.617e-5 }\n";
    assert!(codes("crates/device/src/steps.rs", src).is_empty());
    assert!(codes("crates/units/src/x.rs", src).is_empty());
}

// -----------------------------------------------------------------------
// PL005: non-exhaustive-error
// -----------------------------------------------------------------------

#[test]
fn pl005_fires_on_exhaustive_pub_error_enum() {
    let src = "pub enum ParseError { Bad }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL005"]);
}

#[test]
fn pl005_accepts_non_exhaustive_error_enum() {
    let src = "#[non_exhaustive]\npub enum ParseError { Bad }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl005_ignores_private_and_non_error_enums() {
    let src = "enum ParseError { Bad }\npub enum Mode { Fast }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

// -----------------------------------------------------------------------
// Suppression
// -----------------------------------------------------------------------

#[test]
fn allow_comment_on_line_above_suppresses() {
    let src = "// ppatc-lint: allow(panic-in-lib) — fixture\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn allow_comment_on_same_line_suppresses() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() } // ppatc-lint: allow(panic-in-lib)\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn allow_all_suppresses_every_rule() {
    let src = "// ppatc-lint: allow(all)\npub enum ParseError { Bad }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    // The unwrap still fires, and the mismatched directive is itself
    // stale, so PL008 rides along.
    let src =
        "// ppatc-lint: allow(magic-constant)\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL002", "PL008"]);
}

#[test]
fn allow_comment_does_not_leak_past_the_next_code_line() {
    // The directive's window ends at `ok()`, so the unwrap two lines down
    // fires — and the directive, suppressing nothing, draws PL008.
    let src = "// ppatc-lint: allow(panic-in-lib)\npub fn ok() {}\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL002", "PL008"]);
}

#[test]
fn unused_allow_all_is_itself_flagged() {
    // A blanket allow(all) over clean code suppresses nothing. Before the
    // self-suppression fix the directive swallowed its own PL008 report
    // (allow(all) matched the unused-allow rule too); now only a *different*
    // directive can waive it.
    let src = "// ppatc-lint: allow(all)\npub fn ok() {}\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL008"]);
}

#[test]
fn unused_allow_of_unused_allow_is_itself_flagged() {
    // Same self-suppression hazard, spelled directly.
    let src = "// ppatc-lint: allow(unused-allow)\npub fn ok() {}\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL008"]);
}

#[test]
fn used_allow_all_stays_exempt_from_pl008() {
    // allow(all) that genuinely suppresses a finding is used, not stale.
    let src = "// ppatc-lint: allow(all)\npub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

// -----------------------------------------------------------------------
// PL010: hash-order-escape
// -----------------------------------------------------------------------

#[test]
fn pl010_fires_on_hashmap_iteration_into_a_string() {
    let src = "use std::collections::HashMap;\n\
               pub fn render(totals: &HashMap<String, f64>) -> String {\n\
                   let mut out = String::new();\n\
                   for (k, _v) in totals.iter() {\n\
                       out.push_str(k);\n\
                   }\n\
                   out\n\
               }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL010"]);
}

#[test]
fn pl010_fires_on_unsorted_collect_returned_from_a_hashed_source() {
    let src = "use std::collections::HashMap;\n\
               pub fn keys_of(m: &HashMap<String, u32>) -> Vec<String> {\n\
                   m.keys().cloned().collect()\n\
               }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL010"]);
}

#[test]
fn pl010_accepts_sorted_collect() {
    let src = "use std::collections::HashMap;\n\
               pub fn keys_of(m: &HashMap<String, u32>) -> Vec<String> {\n\
                   let mut keys: Vec<String> = m.keys().cloned().collect();\n\
                   keys.sort();\n\
                   keys\n\
               }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn pl010_accepts_btreemap_iteration() {
    let src = "use std::collections::BTreeMap;\n\
               pub fn render(totals: &BTreeMap<String, f64>) -> String {\n\
                   let mut out = String::new();\n\
                   for (k, _v) in totals.iter() {\n\
                       out.push_str(k);\n\
                   }\n\
                   out\n\
               }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

// -----------------------------------------------------------------------
// PL012: float-reduction-order
// -----------------------------------------------------------------------

#[test]
fn pl012_fires_on_arrival_order_float_reduction() {
    let src = "pub fn total(rx: &std::sync::mpsc::Receiver<f64>) -> f64 {\n\
                   let mut sum = 0.0;\n\
                   while let Ok(x) = rx.recv() {\n\
                       sum += x;\n\
                   }\n\
                   sum\n\
               }\n";
    assert_eq!(codes("crates/device/src/x.rs", src), vec!["PL012"]);
}

#[test]
fn pl012_exempts_the_par_map_chunks_idiom() {
    let src = "pub fn par_map_chunks_total(rx: &std::sync::mpsc::Receiver<f64>) -> f64 {\n\
                   let mut sum = 0.0;\n\
                   while let Ok(x) = rx.recv() {\n\
                       sum += x;\n\
                   }\n\
                   sum\n\
               }\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

// -----------------------------------------------------------------------
// Golden finding shape: the --json schema is pinned byte-for-byte.
// -----------------------------------------------------------------------

#[test]
fn json_finding_shape_is_stable() {
    let src = "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n";
    let diags = lint_source("crates/device/src/x.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].json(),
        "{\"code\":\"PL002\",\"rule\":\"panic-in-lib\",\"severity\":\"deny\",\
         \"path\":\"crates/device/src/x.rs\",\"line\":1,\"col\":37,\
         \"message\":\"`.unwrap()` in non-test library code; document a `# Panics` \
         contract on `fn f` or return a Result\"}"
    );
}

// -----------------------------------------------------------------------
// Lexer edge cases
// -----------------------------------------------------------------------

#[test]
fn lexer_handles_nested_block_comments() {
    let toks = lexer::lex("/* outer /* inner */ still comment */ fn f() {}");
    assert_eq!(toks[0].kind, TokenKind::BlockComment);
    assert!(toks[0].text.contains("inner"));
    assert_eq!(toks[1].text, "fn");
}

#[test]
fn lexer_keeps_unwrap_inside_raw_string_as_a_string() {
    // A raw string containing `unwrap(` must not look like a call.
    let src = r####"pub fn f() -> &'static str { r#"x.unwrap()"# }"####;
    let toks = lexer::lex(src);
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Str && t.text.contains("unwrap")));
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}

#[test]
fn lexer_separates_lifetimes_from_char_literals() {
    let toks = lexer::lex("fn f<'a>(x: &'a str) -> char { 'x' }");
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Lifetime && t.text == "'a"));
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Char && t.text == "'x'"));
}

#[test]
fn lexer_reads_float_exponents_as_one_number() {
    let toks = lexer::lex("let x = 3.6e-6;");
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Number && t.text == "3.6e-6"));
}

#[test]
fn lexer_does_not_eat_method_calls_on_integers() {
    let toks = lexer::lex("let x = 1.max(2);");
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Number && t.text == "1"));
    assert!(toks
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "max"));
}

#[test]
fn lexer_tracks_line_and_column() {
    let toks = lexer::lex("fn a() {}\nfn b() {}");
    let b = toks.iter().find(|t| t.text == "b").expect("ident b");
    assert_eq!((b.line, b.col), (2, 4));
}

#[test]
fn cfg_test_region_spans_the_whole_module() {
    let src = "pub fn lib_code() {}\n#[cfg(test)]\nmod tests {\n    fn helper(v: Option<u32>) -> u32 {\n        v.unwrap()\n    }\n}\n";
    assert!(codes("crates/device/src/x.rs", src).is_empty());
}
