//! Tier-1 gate: the workspace must lint clean under its own rules.
//!
//! This is the test-suite twin of the CI `cargo run -p ppatc-lint --
//! --deny-warnings` job: any deny- or warn-severity finding introduced
//! anywhere in the workspace fails this test with the full diagnostic list.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let report = ppatc_lint::lint_workspace(&root, ppatc_lint::default_jobs())
        .expect("workspace should be lintable");
    assert!(
        report.files > 50,
        "expected to scan the whole workspace, saw only {} files",
        report.files
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.human()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "ppatc-lint found {} issue(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}

#[test]
fn rule_catalog_is_stable() {
    let rules = ppatc_lint::rules::all();
    let listed: Vec<(&str, &str)> = rules.iter().map(|r| (r.code, r.name)).collect();
    assert_eq!(
        listed,
        vec![
            ("PL001", "raw-unit-api"),
            ("PL002", "panic-in-lib"),
            ("PL004", "magic-constant"),
            ("PL005", "non-exhaustive-error"),
            ("PL006", "dimension-mismatch"),
            ("PL007", "unit-cast-roundtrip"),
            ("PL008", "unused-allow"),
            ("PL009", "panic-reachable-from-try"),
            ("PL010", "hash-order-escape"),
            ("PL011", "wall-clock-in-result"),
            ("PL012", "float-reduction-order"),
            ("PL013", "possible-div-by-zero"),
            ("PL014", "float-domain-error"),
            ("PL015", "nan-unsafe-comparison"),
        ]
    );
}

/// The lines of the `[name]` table in a Cargo manifest, up to the next
/// table header.
fn toml_table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .collect()
}

/// The compiler checks that replaced the retired rules (PL003 must-use,
/// PL016 shared `static mut`, PL017 unwind-unsafe captures) must stay
/// switched on: the root manifest denies `unsafe_code` and
/// `unused_must_use`, and every workspace member inherits that table.
#[test]
fn every_member_inherits_the_workspace_rustc_denials() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let read = |p: &Path| std::fs::read_to_string(p).expect("readable manifest");
    let root_manifest = read(&root.join("Cargo.toml"));
    let lints = toml_table(&root_manifest, "workspace.lints.rust");
    for denial in ["unsafe_code = \"deny\"", "unused_must_use = \"deny\""] {
        assert!(
            lints.contains(&denial),
            "[workspace.lints.rust] must contain `{denial}`, has {lints:?}"
        );
    }
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .filter_map(Result::ok)
        .map(|e| e.path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    crates.sort();
    assert!(
        crates.len() >= 13,
        "expected every member crate: {crates:?}"
    );
    manifests.extend(crates);
    for manifest in manifests {
        assert!(
            toml_table(&read(&manifest), "lints").contains(&"workspace = true"),
            "{} must set `[lints] workspace = true`",
            manifest.display()
        );
    }
}

/// The parallel per-file stage must not change the report: serial and
/// multi-worker runs over the real workspace produce byte-identical
/// diagnostics (the cross-file stage is serial and the sort is total).
#[test]
fn parallel_lint_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..");
    let serial = ppatc_lint::lint_workspace(&root, 1).expect("serial run");
    let parallel = ppatc_lint::lint_workspace(&root, 4).expect("parallel run");
    assert_eq!(serial.files, parallel.files);
    assert_eq!(serial.suppressed, parallel.suppressed);
    let render = |r: &ppatc_lint::Report| {
        r.diagnostics
            .iter()
            .map(ppatc_lint::Diagnostic::json)
            .collect::<Vec<_>>()
            .join(",")
    };
    assert_eq!(render(&serial), render(&parallel));
}
