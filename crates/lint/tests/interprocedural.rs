//! Whole-workspace integration tests: cross-crate dimension propagation,
//! panic-reachability witness paths, wall-clock taint through helpers, and
//! the CLI's JSON output — all exercised against scratch workspaces built
//! on disk, exactly the way the CLI sees the real one.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ppatc_lint::{lint_workspace, Report};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

/// A scratch workspace under the system temp dir, removed on drop.
struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(files: &[(&str, &str)]) -> Self {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("ppatc-lint-itest-{}-{id}", std::process::id()));
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

    fn lint(&self) -> Report {
        lint_workspace(&self.root, 1).expect("scratch workspace lints")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn render(report: &Report) -> String {
    report
        .diagnostics
        .iter()
        .map(ppatc_lint::Diagnostic::json)
        .collect::<Vec<_>>()
        .join(",")
}

const FAB_ENERGY: &str = "pub fn per_wafer_energy_joules(energy_joules: f64) -> f64 {\n\
                          \x20   energy_joules * 1.05\n\
                          }\n";

const CORE_CALLS_FAB_WITH_TIME: &str = "pub fn embodied_joules(delay_ns: f64) -> f64 {\n\
     \x20   ppatc_fab::per_wafer_energy_joules(delay_ns)\n\
     }\n";

const CORE_CALLS_FAB_WITH_ENERGY: &str = "pub fn embodied_joules(heat_joules: f64) -> f64 {\n\
     \x20   ppatc_fab::per_wafer_energy_joules(heat_joules)\n\
     }\n";

const FAB_SCALE_RAW: &str = "pub fn scale(raw: f64) -> f64 {\n\x20   raw * 1.05\n}\n";

const FAB_SCALE_ENERGY: &str =
    "pub fn scale(energy_joules: f64) -> f64 {\n\x20   energy_joules * 1.05\n}\n";

const CORE_SCALES_TIME: &str = "pub fn embodied_joules(delay_ns: f64) -> f64 {\n\
     \x20   ppatc_fab::scale(delay_ns)\n\
     }\n";

/// Each case is a (fab, core) pair and whether the call from core into fab
/// must fire PL006. The unit of the callee's parameter comes from fab's
/// file alone, so a finding in core proves the summary crossed crates.
#[test]
fn dimension_mismatch_crosses_crate_boundaries() {
    let cases = [
        (
            "time into energy",
            FAB_ENERGY,
            CORE_CALLS_FAB_WITH_TIME,
            true,
        ),
        (
            "energy into energy",
            FAB_ENERGY,
            CORE_CALLS_FAB_WITH_ENERGY,
            false,
        ),
        (
            "undimensioned callee",
            FAB_SCALE_RAW,
            CORE_SCALES_TIME,
            false,
        ),
        (
            "time into scale(energy)",
            FAB_SCALE_ENERGY,
            CORE_SCALES_TIME,
            true,
        ),
    ];
    for (case, fab, core, fires) in cases {
        let ws = Scratch::new(&[
            ("crates/fab/src/lib.rs", fab),
            ("crates/core/src/lib.rs", core),
        ]);
        let report = ws.lint();
        let pl006: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.code == "PL006")
            .collect();
        if !fires {
            assert!(pl006.is_empty(), "{case}: {}", render(&report));
            continue;
        }
        assert_eq!(pl006.len(), 1, "{case}: {}", render(&report));
        assert!(
            pl006[0].path.contains("core"),
            "{case}: finding should anchor at the call site: {}",
            pl006[0].path
        );
        assert!(
            pl006[0].message.contains("defined in crates/fab"),
            "{case}: message should cite the callee's crate: {}",
            pl006[0].message
        );
    }
}

#[test]
fn panic_reachability_reports_a_cross_crate_witness_path() {
    let ws = Scratch::new(&[
        (
            "crates/fab/src/lib.rs",
            "pub fn nearest(x: f64) -> f64 {\n\
             \x20   let v: Option<f64> = Some(x);\n\
             \x20   v.unwrap()\n\
             }\n",
        ),
        (
            "crates/core/src/lib.rs",
            "#[must_use = \"handle the fit result\"]\n\
             pub fn try_fit(x: f64) -> Result<f64, ()> {\n\
             \x20   Ok(ppatc_fab::nearest(x))\n\
             }\n",
        ),
    ]);
    let report = ws.lint();
    let pl009: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == "PL009")
        .collect();
    assert_eq!(pl009.len(), 1, "diagnostics: {}", render(&report));
    assert!(
        pl009[0].message.contains("nearest [fab]"),
        "witness path should annotate the crate hop: {}",
        pl009[0].message
    );
}

#[test]
fn wall_clock_taint_flows_through_helper_fns() {
    let ws = Scratch::new(&[(
        "crates/core/src/lib.rs",
        "pub fn elapsed_portion(t0: std::time::Instant) -> f64 {\n\
         \x20   t0.elapsed().as_secs_f64()\n\
         }\n\
         \n\
         pub fn leaked(t0: std::time::Instant, power_watts: f64) -> ppatc_units::Energy {\n\
         \x20   ppatc_units::Energy::from_joules(elapsed_portion(t0) * power_watts)\n\
         }\n",
    )]);
    let report = ws.lint();
    assert!(
        report.diagnostics.iter().any(|d| d.code == "PL011"),
        "expected PL011 through the helper: {}",
        render(&report)
    );
}

/// The CLI end of the same invariants: `--json` output carries the schema
/// version and pins the finding shape byte-for-byte, and a run writes
/// nothing into the linted workspace.
#[test]
fn cli_json_output_is_schema_versioned_and_writes_nothing() {
    let ws = Scratch::new(&[(
        "crates/device/src/lib.rs",
        "pub fn f(v: Option<u32>) -> u32 { v.unwrap() }\n",
    )]);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ppatc-lint"))
        .arg("--root")
        .arg(&ws.root)
        .arg("--json")
        .output()
        .expect("run ppatc-lint");
    assert_eq!(
        out.status.code(),
        Some(1),
        "a deny finding must fail the run"
    );
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        "{\"schema\":3,\"findings\":[{\"code\":\"PL002\",\"rule\":\"panic-in-lib\",\
         \"severity\":\"deny\",\"path\":\"crates/device/src/lib.rs\",\"line\":1,\"col\":37,\
         \"message\":\"`.unwrap()` in non-test library code; document a `# Panics` \
         contract on `fn f` or return a Result\"}]}\n"
    );
    assert!(
        !ws.root.join("target").exists(),
        "a lint run must not write under the linted root's target/"
    );
}

/// Scratch-workspace determinism rules fire exactly like the real run:
/// jobs=1 and jobs=4 render identically.
#[test]
fn scratch_workspace_report_is_worker_count_invariant() {
    let ws = Scratch::new(&[
        ("crates/fab/src/lib.rs", FAB_ENERGY),
        ("crates/core/src/lib.rs", CORE_CALLS_FAB_WITH_TIME),
        (
            "crates/device/src/lib.rs",
            "use std::collections::HashMap;\n\
             pub fn keys_of(m: &HashMap<String, u32>) -> Vec<String> {\n\
             \x20   m.keys().cloned().collect()\n\
             }\n",
        ),
    ]);
    let serial = lint_workspace(&ws.root, 1).expect("serial");
    let parallel = lint_workspace(&ws.root, 4).expect("parallel");
    assert!(
        serial.diagnostics.iter().any(|d| d.code == "PL010"),
        "hash-order escape must fire: {}",
        render(&serial)
    );
    assert_eq!(render(&serial), render(&parallel));
}
