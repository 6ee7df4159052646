//! The `paper` binary's handling of a stdout that closes early.

use std::process::{Command, Stdio};

#[test]
fn a_reader_that_stops_early_ends_the_run_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg("fig2d")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("paper starts");
    // Close the read end before the exhibit is printed, as `paper fig2d |
    // true` does.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("paper exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
