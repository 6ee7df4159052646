//! Extra exhibits beyond the paper's figures: the joint Monte-Carlo
//! uncertainty summary and the workload-suite characterization table.

use crate::case_study;
use ppatc::montecarlo::{self, MonteCarloConfig, UncertaintyRanges};
use ppatc::{Lifetime, PpatcError, Supervisor};
use ppatc_workloads::Workload;

/// The deterministic seed of the Monte-Carlo exhibit.
const MC_SEED: u64 = 2025;

/// Sample count of the headline Monte-Carlo exhibit.
const MC_EXHIBIT_SAMPLES: usize = 20_000;

/// Sample count of the per-source sensitivity ranking.
const MC_SENSITIVITY_SAMPLES: usize = 10_000;

/// Renders the joint Monte-Carlo run over all Fig. 6b uncertainty sources
/// at the nominal design point (deterministic seed) with the per-source
/// sensitivity ranking, both sharded across `jobs` workers (identical
/// output for any worker count).
///
/// The 20 000-sample headline sweep honors the supervisor's
/// cancellation/deadline and — when a checkpoint path is configured —
/// journals finished chunks for byte-identical resume. The sensitivity
/// ranking that follows is budget-bounded but not checkpointed (it is an
/// order of magnitude cheaper than the sweep and re-deriving it keeps the
/// journal single-run).
///
/// # Errors
///
/// Propagates every [`montecarlo::try_run_supervised`] and
/// [`montecarlo::try_sensitivity_supervised`] error.
pub fn try_render_monte_carlo_supervised(
    jobs: usize,
    supervisor: &Supervisor,
) -> Result<String, PpatcError> {
    let map = case_study().tcdp_map(Lifetime::months(24.0));
    let config = MonteCarloConfig::new(MC_EXHIBIT_SAMPLES, MC_SEED).expect("sample count >= 1");
    let r = montecarlo::try_run_supervised(
        &map,
        &UncertaintyRanges::paper_default(),
        &config,
        jobs,
        supervisor,
    )?;
    let shares = montecarlo::try_sensitivity_supervised(
        &map,
        &UncertaintyRanges::paper_default(),
        MC_SENSITIVITY_SAMPLES,
        MC_SEED,
        jobs,
        supervisor.budget(),
    )?;
    let mut out = format!(
        "joint uncertainty (lifetime 18-30 mo, CI /3..x3, yield 10-90%, model error ~±25%):\n{r}\n\nvariance shares by source:\n"
    );
    for (name, share) in shares {
        out.push_str(&format!("  {name:<18} {:>5.1}%\n", share * 100.0));
    }
    Ok(out)
}

/// One row of the workload characterization.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRow {
    /// Kernel name.
    pub name: &'static str,
    /// Cycles at 1 repetition.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Memory accesses (both memories) per cycle.
    pub accesses_per_cycle: f64,
    /// Fraction of data-memory traffic that is writes.
    pub write_fraction: f64,
}

/// Characterizes the full kernel suite at 1 repetition.
pub fn workload_rows() -> Vec<WorkloadRow> {
    Workload::suite()
        .iter()
        .map(|w| {
            let run = w.execute_with_reps(1).expect("kernel runs");
            let data = run.stats.data_reads + run.stats.data_writes;
            let accesses = run.stats.instruction_fetches + run.stats.program_reads + data;
            WorkloadRow {
                name: w.name(),
                cycles: run.cycles,
                ipc: run.instructions as f64 / run.cycles as f64,
                accesses_per_cycle: accesses as f64 / run.cycles as f64,
                write_fraction: if data > 0 {
                    run.stats.data_writes as f64 / data as f64
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Renders the workload table.
pub fn render_workloads() -> String {
    let mut out =
        String::from("kernel        cycles/rep     IPC   mem-accesses/cycle   write fraction\n");
    for r in workload_rows() {
        out.push_str(&format!(
            "{:<12}{:>12}{:>8.2}{:>15.2}{:>17.2}\n",
            r.name, r.cycles, r.ipc, r.accesses_per_cycle, r.write_fraction
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc::montecarlo::MonteCarloResult;

    /// The exhibit's sweep at `samples` samples and `jobs` workers.
    fn exhibit_sweep(samples: usize, jobs: usize) -> MonteCarloResult {
        let map = case_study().tcdp_map(Lifetime::months(24.0));
        let config = MonteCarloConfig::new(samples, MC_SEED).expect("sample count >= 1");
        let ranges = UncertaintyRanges::paper_default();
        montecarlo::try_run_supervised(&map, &ranges, &config, jobs, &Supervisor::new())
            .expect("paper-default sweep evaluates")
    }

    #[test]
    fn monte_carlo_is_reproducible_and_contested() {
        let a = exhibit_sweep(4000, 1);
        let b = exhibit_sweep(4000, 1);
        assert_eq!(a, b);
        assert!((0.05..0.95).contains(&a.p_m3d_wins), "P = {}", a.p_m3d_wins);
    }

    #[test]
    fn parallel_monte_carlo_matches_serial() {
        let serial = exhibit_sweep(4000, 1);
        for jobs in [2, 8] {
            assert_eq!(serial, exhibit_sweep(4000, jobs), "jobs = {jobs}");
        }
    }

    #[test]
    fn cancelled_exhibit_is_interrupted_not_rendered() {
        let token = ppatc::CancelToken::new();
        token.cancel();
        let supervisor =
            Supervisor::new().with_budget(ppatc::RunBudget::unlimited().with_cancel(&token));
        let e = try_render_monte_carlo_supervised(1, &supervisor)
            .expect_err("pre-cancelled exhibit stops");
        assert!(matches!(e, PpatcError::Interrupted { .. }));
    }

    #[test]
    fn every_kernel_is_characterized() {
        let rows = workload_rows();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.ipc > 0.3 && r.ipc < 1.0, "{}: IPC {}", r.name, r.ipc);
            assert!(
                r.accesses_per_cycle > 0.3,
                "{}: A/C {}",
                r.name,
                r.accesses_per_cycle
            );
            assert!((0.0..=1.0).contains(&r.write_fraction));
        }
    }

    #[test]
    fn suite_spans_diverse_memory_behaviour() {
        let rows = workload_rows();
        let max_wf = rows.iter().map(|r| r.write_fraction).fold(0.0, f64::max);
        let min_wf = rows.iter().map(|r| r.write_fraction).fold(1.0, f64::min);
        // From read-only (fsm) to write-heavy (sieve).
        assert!(
            max_wf > 0.5 && min_wf < 0.1,
            "write fractions {min_wf:.2}..{max_wf:.2}"
        );
    }
}
