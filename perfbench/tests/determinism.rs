//! Determinism self-test: a traced run with a given seed always generates
//! the same ops and reports the same per-layer work counts; another seed
//! generates other inputs.
//!
//! ```text
//! cargo test --offline --manifest-path perfbench/Cargo.toml
//! ```

use std::process::Command;

/// Per-layer counts that must repeat exactly for a seed.
const COUNTS: [&str; 12] = [
    "m0.runs",
    "m0.instructions",
    "edram.characterizations",
    "edram.memo_hits",
    "core.embodied_calls",
    "core.isoline_points",
    "core.mc_samples",
    "core.optimize_candidates",
    "serve.cache_misses",
    "serve.connections",
    "serve.journal_bytes",
    "serve.errors",
];

/// The input digest line and the [`COUNTS`] of one small traced run.
fn traced_run(workload: &str, seed: u64) -> (String, Vec<(&'static str, String)>) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
            "--trace",
            "1",
            "--blocks",
            "1",
        ])
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let inputs = stdout
        .lines()
        .find(|l| l.starts_with("# inputs "))
        .expect("an inputs line")
        .to_string();
    let result = stdout.lines().last().expect("a result line");
    assert!(result.starts_with("{\"correct\": true,"), "{result}");
    let counts = COUNTS
        .iter()
        .map(|&name| {
            let key = format!("\"{name}\": {{\"value\": ");
            let value = result
                .split_once(&key)
                .and_then(|(_, rest)| rest.split_once(','))
                .map(|(v, _)| v.to_string())
                .unwrap_or_else(|| panic!("{name} missing from {result}"));
            (name, value)
        })
        .collect();
    (inputs, counts)
}

#[test]
fn same_seed_repeats_ops_and_counts_and_another_seed_changes_inputs() {
    for workload in ["explore", "serve-mixed"] {
        let a = traced_run(workload, 11);
        let b = traced_run(workload, 11);
        assert_eq!(a, b, "{workload}: same seed, different ops or counts");
        let c = traced_run(workload, 12);
        assert_ne!(a.0, c.0, "{workload}: another seed gave the same inputs");
    }
}
