//! Regenerators for every table and figure in the paper's evaluation.
//!
//! Each module produces the data behind one exhibit and renders it in the
//! same rows/series the paper reports:
//!
//! | module | exhibit | content |
//! |---|---|---|
//! | [`table1`] | Table I | FET benefits/challenges, quantified from the device models |
//! | [`fig2c`] | Fig. 2c | embodied carbon per wafer, 4 grids × 2 processes |
//! | [`fig2d`] | Fig. 2d | EUV metal-layer step/energy breakdown by process area |
//! | [`fig4`] | Fig. 4 | M0 energy/cycle vs. f_clk for HVT/RVT/LVT/SLVT |
//! | [`table2`] | Table II | the full PPAtC summary for both systems |
//! | [`fig5`] | Fig. 5 | tC and tCDP vs. lifetime, with crossovers |
//! | [`fig6`] | Fig. 6a/b | tCDP-ratio map, isoline, and uncertainty variants |
//!
//! The `paper` binary prints any exhibit (`cargo run --release -p
//! ppatc-bench --bin paper -- table2`); perfbench (`BENCHMARK.json`) times
//! them.

#![warn(missing_docs)]

pub mod ablation;
pub mod capacity;
pub mod extras;
pub mod fig2ab;
pub mod fig2c;
pub mod fig2d;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table1;
pub mod table2;

use ppatc::{CaseStudy, PpatcError, Supervisor};
use ppatc_workloads::{Workload, WorkloadRun};
use std::sync::OnceLock;

/// The shared full-length `matmul-int` run (Table II's workload), executed
/// once per process.
pub fn matmul_run() -> &'static WorkloadRun {
    static RUN: OnceLock<WorkloadRun> = OnceLock::new();
    RUN.get_or_init(|| {
        Workload::matmul_int()
            .execute()
            .expect("matmul-int must execute")
    })
}

/// The shared paper case study built on [`matmul_run`].
pub fn case_study() -> &'static CaseStudy {
    static STUDY: OnceLock<CaseStudy> = OnceLock::new();
    STUDY.get_or_init(|| CaseStudy::paper(matmul_run()).expect("case study must build"))
}

/// Renders every exhibit in paper order, with the evaluation-heavy ones
/// (Monte Carlo, capacity sweep) sharded across `jobs` workers; identical
/// output for any worker count.
///
/// # Panics
///
/// If the Monte-Carlo or capacity exhibit fails. Neither can: an
/// unlimited, journal-free supervisor is never interrupted, and both
/// paper-default sweeps evaluate.
pub fn render_all_jobs(jobs: usize) -> String {
    let supervisor = Supervisor::new();
    let complete = |body: Result<String, PpatcError>| match body {
        Ok(body) => body,
        Err(e) => panic!("paper-default exhibit failed: {e}"),
    };
    let mut out = String::new();
    for (name, body) in [
        ("Table I", table1::render()),
        ("Fig. 2a/b", fig2ab::render()),
        ("Fig. 2c", fig2c::render()),
        ("Fig. 2d", fig2d::render()),
        ("Fig. 4", fig4::render()),
        ("Table II", table2::render()),
        ("Fig. 5", fig5::render()),
        ("Fig. 6a", fig6::render_map()),
        ("Fig. 6b", fig6::render_uncertainty()),
        ("Ablations", ablation::render()),
        ("Workload suite", extras::render_workloads()),
        (
            "Monte Carlo",
            complete(extras::try_render_monte_carlo_supervised(jobs, &supervisor)),
        ),
        (
            "Capacity sweep",
            complete(capacity::try_render_supervised(jobs, &supervisor)),
        ),
    ] {
        out.push_str(&format!("==== {name} ====\n{body}\n\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_exhibits_render() {
        let text = super::render_all_jobs(1);
        for marker in [
            "Table I", "Fig. 2c", "Fig. 4", "Table II", "Fig. 5", "Fig. 6",
        ] {
            assert!(text.contains(marker), "missing {marker}");
        }
    }
}
