//! Multi-application usage mixes.
//!
//! The paper's design team targets "a variety of applications that are
//! well-represented by the workloads in Embench", then demonstrates with
//! `matmul-int` alone. This module evaluates a *mix*: each application gets
//! a share of the daily active window, the blended operational power is the
//! time-weighted mean, and the tCDP delay term is the weighted mean
//! execution time.
//!
//! ```no_run
//! use ppatc::mix::WorkloadMix;
//! use ppatc::{Lifetime, SystemDesign, Technology};
//! use ppatc_units::Frequency;
//! use ppatc_workloads::Workload;
//!
//! let design = SystemDesign::new(Technology::M3dIgzoCnfetSi, Frequency::from_megahertz(500.0))?;
//! let mix = WorkloadMix::new()
//!     .try_with(Workload::matmul_int().execute()?, 0.6)?
//!     .try_with(Workload::crc32().execute()?, 0.4)?;
//! let blend = mix.try_evaluate(&design)?;
//! println!("blended power: {}", blend.operational_power);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::{check, ValidationError};
use crate::system::{Evaluation, SystemDesign};
use ppatc_units::{Power, Time};
use ppatc_workloads::WorkloadRun;

/// A weighted set of workload runs sharing the active window.
#[derive(Clone, Debug, Default)]
pub struct WorkloadMix {
    entries: Vec<(WorkloadRun, f64)>,
}

/// The blended outcome of a mix on one design.
#[derive(Clone, Debug, PartialEq)]
pub struct MixEvaluation {
    /// Time-weighted mean busy power across the mix.
    pub operational_power: Power,
    /// Weighted mean execution time (the tCDP delay term).
    pub execution_time: Time,
    /// Weighted mean memory energy per cycle.
    pub mem_energy_per_cycle: ppatc_units::Energy,
    /// Whether every application's retention demand is satisfied.
    pub retention_satisfied: bool,
    /// The per-application evaluations, in insertion order.
    pub per_app: Vec<Evaluation>,
}

impl WorkloadMix {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an application with a share of the active window. Rejects
    /// non-positive or non-finite weights.
    pub fn try_with(mut self, run: WorkloadRun, weight: f64) -> Result<Self, ValidationError> {
        check::positive("mix_weight", weight)?;
        self.entries.push((run, weight));
        Ok(self)
    }

    /// Number of applications in the mix.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the mix is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Normalized weights (summing to 1).
    pub fn weights(&self) -> Vec<f64> {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        self.entries.iter().map(|(_, w)| w / total).collect()
    }

    /// Evaluates the mix on a design. Rejects empty mixes with a
    /// structured [`ValidationError`].
    pub fn try_evaluate(&self, design: &SystemDesign) -> Result<MixEvaluation, ValidationError> {
        if self.is_empty() {
            return Err(ValidationError::new("mix_len", 0.0, ">= 1 workload"));
        }
        let weights = self.weights();
        let per_app: Vec<Evaluation> = self
            .entries
            .iter()
            .map(|(run, _)| design.evaluate(run))
            .collect();
        let mut power_w = 0.0;
        let mut exec_s = 0.0;
        let mut mem_j = 0.0;
        let mut retention = true;
        for (eval, &w) in per_app.iter().zip(&weights) {
            power_w += w * eval.operational_power.as_watts();
            exec_s += w * eval.execution_time.as_seconds();
            mem_j += w * eval.mem_energy_per_cycle.as_joules();
            retention &= eval.retention_satisfied;
        }
        Ok(MixEvaluation {
            operational_power: Power::from_watts(power_w),
            execution_time: Time::from_seconds(exec_s),
            mem_energy_per_cycle: ppatc_units::Energy::from_joules(mem_j),
            retention_satisfied: retention,
            per_app,
        })
    }

    /// Builds a carbon trajectory for the mix on a design, using the
    /// standard embodied pipeline and usage pattern. Rejects empty mixes.
    pub fn try_trajectory(
        &self,
        design: &SystemDesign,
        embodied: &crate::EmbodiedPipeline,
        usage: crate::UsagePattern,
    ) -> Result<crate::CarbonTrajectory, ValidationError> {
        let blend = self.try_evaluate(design)?;
        crate::CarbonTrajectory::try_new(
            embodied.per_good_die(design).per_good_die(),
            blend.operational_power,
            usage,
            blend.execution_time,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EmbodiedPipeline, Lifetime, Technology, UsagePattern};
    use ppatc_units::{approx_eq, Frequency};
    use ppatc_workloads::Workload;

    fn design() -> SystemDesign {
        SystemDesign::new(Technology::M3dIgzoCnfetSi, Frequency::from_megahertz(500.0))
            .expect("designs")
    }

    #[test]
    fn single_app_mix_equals_direct_evaluation() {
        let run = Workload::crc32().execute_with_reps(1).expect("runs");
        let d = design();
        let direct = d.evaluate(&run);
        let mix = WorkloadMix::new()
            .try_with(run, 1.0)
            .and_then(|mix| mix.try_evaluate(&d))
            .expect("one-app mix evaluates");
        assert!(approx_eq(
            mix.operational_power.as_watts(),
            direct.operational_power.as_watts(),
            1e-12
        ));
        assert_eq!(mix.per_app.len(), 1);
    }

    #[test]
    fn weights_are_normalized() {
        let a = Workload::edn().execute_with_reps(1).expect("runs");
        let b = Workload::fir().execute_with_reps(1).expect("runs");
        let mix = WorkloadMix::new()
            .try_with(a, 3.0)
            .and_then(|mix| mix.try_with(b, 1.0))
            .expect("positive weights");
        let w = mix.weights();
        assert!(approx_eq(w[0], 0.75, 1e-12));
        assert!(approx_eq(w[1], 0.25, 1e-12));
    }

    #[test]
    fn blend_lies_between_the_extremes() {
        let a = Workload::matmul_int().execute_with_reps(2).expect("runs");
        let b = Workload::sieve().execute_with_reps(1).expect("runs");
        let d = design();
        let pa = d.evaluate(&a).operational_power.as_watts();
        let pb = d.evaluate(&b).operational_power.as_watts();
        let blend = WorkloadMix::new()
            .try_with(a, 0.5)
            .and_then(|mix| mix.try_with(b, 0.5))
            .and_then(|mix| mix.try_evaluate(&d))
            .expect("two-app mix evaluates")
            .operational_power
            .as_watts();
        let (lo, hi) = (pa.min(pb), pa.max(pb));
        assert!(blend > lo && blend < hi, "{blend} outside [{lo}, {hi}]");
    }

    #[test]
    fn mix_trajectory_produces_sane_tcdp() {
        let d = design();
        let mix = WorkloadMix::new()
            .try_with(Workload::crc32().execute_with_reps(1).expect("runs"), 1.0)
            .and_then(|mix| mix.try_with(Workload::edn().execute_with_reps(1).expect("runs"), 1.0))
            .expect("positive weights");
        let traj = mix
            .try_trajectory(
                &d,
                &EmbodiedPipeline::paper_default(),
                UsagePattern::paper_default(),
            )
            .expect("non-empty mix");
        let tcdp = traj.tcdp(Lifetime::months(24.0));
        assert!(tcdp.as_grams_per_hertz() > 0.0);
        assert!(traj.embodied().as_grams() > 3.0);
    }

    #[test]
    fn invalid_mixes_are_structured_errors() {
        let e = WorkloadMix::new()
            .try_evaluate(&design())
            .expect_err("empty mix rejected");
        assert_eq!(e.field, "mix_len");
        assert!(e.to_string().contains("invalid 'mix_len'"), "{e}");
        let e = WorkloadMix::new()
            .try_trajectory(
                &design(),
                &EmbodiedPipeline::paper_default(),
                UsagePattern::paper_default(),
            )
            .expect_err("empty mix has no trajectory");
        assert_eq!(e.field, "mix_len");
        let run = Workload::edn().execute_with_reps(1).expect("runs");
        let e = WorkloadMix::new()
            .try_with(run.clone(), 0.0)
            .expect_err("zero weight");
        assert_eq!(e.field, "mix_weight");
        assert!(e.to_string().contains("invalid 'mix_weight'"), "{e}");
        let e = WorkloadMix::new()
            .try_with(run.clone(), f64::NAN)
            .expect_err("NaN weight");
        assert_eq!(e.field, "mix_weight");
        let e = WorkloadMix::new()
            .try_with(run, -1.0)
            .expect_err("negative weight");
        assert_eq!(e.field, "mix_weight");
    }
}
