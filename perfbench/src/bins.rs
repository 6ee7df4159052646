//! Builds and locates the shipped binaries the harness drives.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Paths of the programs a run starts.
#[derive(Clone, Debug)]
pub struct Bins {
    /// The `paper` exhibit binary.
    pub paper: PathBuf,
    /// The `ppatc-serve` binary.
    pub serve: PathBuf,
    /// This harness (re-run for fresh-process set-ups and traced exhibits).
    pub harness: PathBuf,
}

/// The repository root (the parent of this package).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Directory for a run's working files (journals, span files), inside this
/// package.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `cargo build --release`s `paper` and `ppatc-serve` in the repository's
/// workspace (a no-op when fresh) and returns their paths.
pub fn build() -> Result<Bins, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(repo_root())
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ppatc-bench",
            "--bin",
            "paper",
            "-p",
            "ppatc-serve",
            "--bin",
            "ppatc-serve",
            "--message-format=json-render-diagnostics",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building the shipped binaries failed: {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let executable = |name: &str| -> Result<PathBuf, String> {
        stdout
            .lines()
            .filter_map(|l| l.split_once("\"executable\":\"").map(|(_, r)| r))
            .filter_map(|r| r.split_once('"').map(|(p, _)| PathBuf::from(p)))
            .find(|p| p.file_name().is_some_and(|f| f == name))
            .ok_or_else(|| format!("cargo did not report the `{name}` executable"))
    };
    Ok(Bins {
        paper: executable("paper")?,
        serve: executable("ppatc-serve")?,
        harness: std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?,
    })
}
