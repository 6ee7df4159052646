//! Prints any (or all) of the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p ppatc-bench --bin paper -- table2
//! cargo run --release -p ppatc-bench --bin paper -- montecarlo --jobs 4
//! cargo run --release -p ppatc-bench --bin paper -- all
//! ```
//!
//! `--jobs N` shards the evaluation-heavy exhibits (`montecarlo`,
//! `capacity`, and their appearances in `all`) across N workers; the
//! output is byte-identical for every worker count. The default is one
//! worker per available core; `--jobs 0` is rejected, not clamped.
//!
//! The `montecarlo` and `capacity` exhibits additionally accept
//! supervision flags:
//!
//! - `--deadline SECS` — stop the run (exit code 2) once the wall-clock
//!   budget expires; the deadline is also threaded into the SPICE solver
//!   budget.
//! - `--checkpoint PATH` — journal every finished chunk to `PATH`.
//! - `--resume` — reload `PATH` and recompute only the missing items; a
//!   resumed run is byte-identical to an uninterrupted one.

use ppatc::{PpatcError, RunBudget, Supervisor};
use ppatc_serve::cli;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Exit code of a run stopped by its deadline (distinct from hard
/// failures so schedulers can tell "ran out of time, resume me" apart
/// from "broken").
const EXIT_INTERRUPTED: u8 = 2;

fn main() -> ExitCode {
    let mut exhibit: Option<String> = None;
    let mut jobs = ppatc::eval::default_jobs();
    let mut deadline = None;
    let mut checkpoint: Option<PathBuf> = None;
    let mut resume = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" | "-j" => match cli::try_parse_jobs(args.next().as_deref()) {
                Ok(n) => jobs = n,
                Err(e) => {
                    eprintln!("--jobs: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--deadline" => match cli::try_parse_deadline(args.next().as_deref()) {
                Ok(d) => deadline = Some(d),
                Err(e) => {
                    eprintln!("--deadline: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint" => match cli::try_parse_path("checkpoint", args.next().as_deref()) {
                Ok(path) => checkpoint = Some(path),
                Err(e) => {
                    eprintln!("--checkpoint: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => resume = true,
            other if exhibit.is_none() => exhibit = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let exhibit = exhibit.unwrap_or_else(|| "all".to_string());
    let supervised_requested = deadline.is_some() || checkpoint.is_some() || resume;
    if supervised_requested && !matches!(exhibit.as_str(), "montecarlo" | "capacity") {
        eprintln!(
            "--deadline/--checkpoint/--resume apply only to the `montecarlo` and `capacity` exhibits"
        );
        return ExitCode::FAILURE;
    }
    if resume && checkpoint.is_none() {
        eprintln!("--resume requires --checkpoint PATH");
        return ExitCode::FAILURE;
    }
    let mut budget = RunBudget::unlimited();
    if let Some(d) = deadline {
        budget = budget.with_deadline_in(d);
    }
    let mut supervisor = Supervisor::new().with_budget(budget).resuming(resume);
    if let Some(path) = &checkpoint {
        supervisor = supervisor.with_checkpoint(path);
    }
    let output = match exhibit.as_str() {
        "table1" => ppatc_bench::table1::render(),
        "fig2ab" => ppatc_bench::fig2ab::render(),
        "fig2c" => ppatc_bench::fig2c::render(),
        "fig2d" => ppatc_bench::fig2d::render(),
        "fig4" => ppatc_bench::fig4::render(),
        "table2" => ppatc_bench::table2::render(),
        "fig5" => ppatc_bench::fig5::render(),
        "fig6a" => ppatc_bench::fig6::render_map(),
        "fig6b" => ppatc_bench::fig6::render_uncertainty(),
        "ablations" => ppatc_bench::ablation::render(),
        "workloads" => ppatc_bench::extras::render_workloads(),
        "montecarlo" => {
            match ppatc_bench::extras::try_render_monte_carlo_supervised(jobs, &supervisor) {
                Ok(out) => out,
                Err(e) => return report_supervised_failure(&e, checkpoint.as_deref()),
            }
        }
        "capacity" => match ppatc_bench::capacity::try_render_supervised(jobs, &supervisor) {
            Ok(out) => out,
            Err(e) => return report_supervised_failure(&e, checkpoint.as_deref()),
        },
        "all" => ppatc_bench::render_all_jobs(jobs),
        other => {
            eprintln!(
                "unknown exhibit `{other}`; expected one of: table1 fig2ab fig2c fig2d fig4 table2 fig5 fig6a fig6b ablations workloads montecarlo capacity all"
            );
            return ExitCode::FAILURE;
        }
    };
    println!("{output}");
    ExitCode::SUCCESS
}

/// Reports a supervised-exhibit failure: an interrupt gets the dedicated
/// exit code plus a resume hint when the partial work was journaled;
/// anything else is a plain failure.
fn report_supervised_failure(e: &PpatcError, checkpoint: Option<&Path>) -> ExitCode {
    eprintln!("{e}");
    if let PpatcError::Interrupted { .. } = e {
        if let Some(path) = checkpoint {
            eprintln!(
                "partial results are journaled; rerun with `--checkpoint {} --resume`",
                path.display()
            );
        }
        return ExitCode::from(EXIT_INTERRUPTED);
    }
    ExitCode::FAILURE
}
