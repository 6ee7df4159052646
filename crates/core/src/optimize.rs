//! Carbon-efficiency design-space optimization.
//!
//! The tCDP metric the paper adopts comes from the CORDOBA
//! carbon-efficient-optimization framework (its ref. \[18\]); this module
//! provides that workflow on top of the PPAtC models: enumerate a design
//! space (technology × threshold flavor × clock), apply engineering
//! constraints (latency / area / power), and rank the feasible designs by
//! tCDP at the target lifetime.
//!
//! ```no_run
//! use ppatc::optimize::{Constraints, DesignSpace, Optimizer};
//! use ppatc::{Lifetime, UsagePattern};
//! use ppatc_units::Time;
//! use ppatc_workloads::Workload;
//!
//! let run = Workload::matmul_int().execute()?;
//! let best = Optimizer::new(DesignSpace::paper_default(), Lifetime::months(24.0))
//!     .with_constraints(Constraints::new().with_max_execution_time(Time::from_seconds(0.05)))
//!     .run(&run)
//!     .into_iter()
//!     .find(|c| c.feasible)
//!     .ok_or("no feasible design")?;
//! println!("best: {} @ {:.0} MHz, tCDP {:.4} gCO2e/Hz",
//!     best.technology, best.f_clk.as_megahertz(), best.tcdp.as_grams_per_hertz());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::embodied::EmbodiedPipeline;
use crate::error::PpatcError;
use crate::eval::RunBudget;
use crate::lifetime::Lifetime;
use crate::system::SystemDesign;
use crate::usage::UsagePattern;
use ppatc_pdk::{SiVtFlavor, Technology};
use ppatc_units::{Area, CarbonDelay, Frequency, Power, Time};
use ppatc_workloads::WorkloadRun;

/// The candidate axes an [`Optimizer`] enumerates.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignSpace {
    technologies: Vec<Technology>,
    flavors: Vec<SiVtFlavor>,
    clocks: Vec<Frequency>,
}

impl DesignSpace {
    /// The paper-adjacent space: both technologies, all four flavors, and
    /// the Fig. 4 clock sweep (100 MHz – 1 GHz in 100 MHz steps).
    pub fn paper_default() -> Self {
        Self {
            technologies: Technology::ALL.to_vec(),
            flavors: SiVtFlavor::ALL.to_vec(),
            clocks: (1..=10)
                .map(|i| Frequency::from_megahertz(100.0 * f64::from(i)))
                .collect(),
        }
    }

    /// A custom space.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty.
    pub fn new(
        technologies: Vec<Technology>,
        flavors: Vec<SiVtFlavor>,
        clocks: Vec<Frequency>,
    ) -> Self {
        assert!(
            !technologies.is_empty() && !flavors.is_empty() && !clocks.is_empty(),
            "design space axes must be non-empty"
        );
        Self {
            technologies,
            flavors,
            clocks,
        }
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.technologies.len() * self.flavors.len() * self.clocks.len()
    }

    /// Whether the space is empty (never true for a constructed space).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Feasibility constraints applied to each candidate.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Constraints {
    max_execution_time: Option<Time>,
    max_area: Option<Area>,
    max_power: Option<Power>,
}

impl Constraints {
    /// No constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Latency constraint: the application must finish within `t`.
    #[must_use]
    pub fn with_max_execution_time(mut self, t: Time) -> Self {
        self.max_execution_time = Some(t);
        self
    }

    /// Die-area constraint.
    #[must_use]
    pub fn with_max_area(mut self, a: Area) -> Self {
        self.max_area = Some(a);
        self
    }

    /// Busy-power constraint.
    #[must_use]
    pub fn with_max_power(mut self, p: Power) -> Self {
        self.max_power = Some(p);
        self
    }
}

/// One evaluated candidate.
#[derive(Clone, Debug, PartialEq)]
pub struct Candidate {
    /// Technology of the candidate.
    pub technology: Technology,
    /// Logic threshold flavor.
    pub flavor: SiVtFlavor,
    /// Clock frequency.
    pub f_clk: Frequency,
    /// tCDP at the optimizer's lifetime.
    pub tcdp: CarbonDelay,
    /// Application execution time.
    pub execution_time: Time,
    /// Die area.
    pub area: Area,
    /// Busy power.
    pub power: Power,
    /// Whether all constraints are met.
    pub feasible: bool,
}

/// Ranks a design space by tCDP for one workload.
#[derive(Clone, Debug)]
pub struct Optimizer {
    space: DesignSpace,
    lifetime: Lifetime,
    constraints: Constraints,
    usage: UsagePattern,
    embodied: EmbodiedPipeline,
}

impl Optimizer {
    /// Creates an optimizer over `space` evaluating tCDP at `lifetime`,
    /// with the paper's usage pattern and embodied pipeline.
    pub fn new(space: DesignSpace, lifetime: Lifetime) -> Self {
        Self {
            space,
            lifetime,
            constraints: Constraints::default(),
            usage: UsagePattern::paper_default(),
            embodied: EmbodiedPipeline::paper_default(),
        }
    }

    /// Sets the constraints.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the usage pattern.
    #[must_use]
    pub fn with_usage(mut self, usage: UsagePattern) -> Self {
        self.usage = usage;
        self
    }

    /// Sets the embodied pipeline.
    #[must_use]
    pub fn with_embodied(mut self, embodied: EmbodiedPipeline) -> Self {
        self.embodied = embodied;
        self
    }

    /// Evaluates every candidate that can be designed at all (logic and
    /// memory close timing), ranking feasible candidates first, each group
    /// by ascending tCDP.
    pub fn run(&self, workload: &WorkloadRun) -> Vec<Candidate> {
        self.run_jobs(workload, 1)
    }

    /// [`Optimizer::run`] with candidate evaluation sharded across `jobs`
    /// workers (the supervised twin under an unlimited budget). The ranking
    /// is byte-identical to the serial run for any worker count: candidates
    /// are evaluated at fixed enumeration indices and merged back into
    /// enumeration order before the (stable) sort. Repeated eDRAM
    /// characterizations across candidates sharing a `(technology,
    /// organization)` pair are served from [`ppatc_edram::EdramMacro`]'s
    /// memo cache.
    ///
    /// # Panics
    ///
    /// If a candidate evaluation panics.
    pub fn run_jobs(&self, workload: &WorkloadRun, jobs: usize) -> Vec<Candidate> {
        match self.try_run_supervised(workload, jobs, &RunBudget::unlimited()) {
            Ok(ranked) => ranked,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Optimizer::run_jobs`] under a [`RunBudget`]: the sweep
    /// honors a cancellation token and deadline (checked at chunk
    /// boundaries) and isolates worker panics. A completed run is
    /// byte-identical to [`Optimizer::run_jobs`] for any worker count.
    ///
    /// # Errors
    ///
    /// [`PpatcError::Interrupted`] when the budget stops the sweep and
    /// [`PpatcError::WorkerPanic`] if a candidate evaluation panics — a
    /// partial design-space ranking would silently misreport the optimum,
    /// so unlike Monte-Carlo sampling no failure budget applies here.
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_run_supervised(
        &self,
        workload: &WorkloadRun,
        jobs: usize,
        budget: &RunBudget,
    ) -> Result<Vec<Candidate>, PpatcError> {
        let points = self.enumerate_points();
        let evaluated = crate::eval::par_map_chunks(points.len(), jobs, budget, |start, end| {
            points[start..end]
                .iter()
                .map(|&(tech, flavor, f_clk)| {
                    self.evaluate_candidate(tech, flavor, f_clk, workload)
                })
                .collect()
        })?
        .try_complete()?;
        Ok(Self::rank(evaluated.into_iter().flatten().collect()))
    }

    /// Enumerates the candidate grid in the fixed
    /// technology-major/clock-minor order that pins parallel determinism.
    fn enumerate_points(&self) -> Vec<(Technology, SiVtFlavor, Frequency)> {
        let mut points = Vec::with_capacity(self.space.len());
        for &tech in &self.space.technologies {
            for &flavor in &self.space.flavors {
                for &f_clk in &self.space.clocks {
                    points.push((tech, flavor, f_clk));
                }
            }
        }
        points
    }

    /// Stable-sorts candidates feasible-first, each group by ascending
    /// tCDP.
    fn rank(mut out: Vec<Candidate>) -> Vec<Candidate> {
        out.sort_by(|a, b| {
            b.feasible.cmp(&a.feasible).then(f64::total_cmp(
                &a.tcdp.as_grams_per_hertz(),
                &b.tcdp.as_grams_per_hertz(),
            ))
        });
        out
    }

    /// Evaluates one design point; `None` when it cannot close timing (not
    /// a design at all).
    fn evaluate_candidate(
        &self,
        tech: Technology,
        flavor: SiVtFlavor,
        f_clk: Frequency,
        workload: &WorkloadRun,
    ) -> Option<Candidate> {
        let design = SystemDesign::with_flavor(tech, f_clk, flavor).ok()?;
        let eval = design.evaluate(workload);
        let embodied = self.embodied.per_good_die(&design);
        let trajectory = crate::lifetime::CarbonTrajectory::new(
            embodied.per_good_die(),
            eval.operational_power,
            self.usage,
            eval.execution_time,
        );
        let feasible = self
            .constraints
            .max_execution_time
            .is_none_or(|t| eval.execution_time <= t)
            && self.constraints.max_area.is_none_or(|a| design.area() <= a)
            && self
                .constraints
                .max_power
                .is_none_or(|p| eval.operational_power <= p);
        Some(Candidate {
            technology: tech,
            flavor,
            f_clk,
            tcdp: trajectory.tcdp(self.lifetime),
            execution_time: eval.execution_time,
            area: design.area(),
            power: eval.operational_power,
            feasible,
        })
    }

    /// The Pareto front over (execution time, tCDP) among feasible
    /// candidates: no returned design is beaten on both axes by another.
    pub fn pareto_front(&self, workload: &WorkloadRun) -> Vec<Candidate> {
        self.pareto_front_jobs(workload, 1)
    }

    /// [`Optimizer::pareto_front`] with candidate evaluation sharded across
    /// `jobs` workers; byte-identical to the serial front for any worker
    /// count.
    pub fn pareto_front_jobs(&self, workload: &WorkloadRun, jobs: usize) -> Vec<Candidate> {
        let all = self.run_jobs(workload, jobs);
        let feasible: Vec<&Candidate> = all.iter().filter(|c| c.feasible).collect();
        let mut front: Vec<Candidate> = Vec::new();
        for c in &feasible {
            let dominated = feasible.iter().any(|o| {
                (o.execution_time < c.execution_time && o.tcdp <= c.tcdp)
                    || (o.execution_time <= c.execution_time && o.tcdp < c.tcdp)
            });
            if !dominated {
                front.push((*c).clone());
            }
        }
        front.sort_by(|a, b| {
            f64::total_cmp(
                &a.execution_time.as_seconds(),
                &b.execution_time.as_seconds(),
            )
        });
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_workloads::Workload;
    use std::sync::OnceLock;

    fn run() -> &'static WorkloadRun {
        static RUN: OnceLock<WorkloadRun> = OnceLock::new();
        RUN.get_or_init(|| {
            Workload::matmul_int()
                .execute_with_reps(4)
                .expect("matmul runs")
        })
    }

    fn small_space() -> DesignSpace {
        DesignSpace::new(
            Technology::ALL.to_vec(),
            vec![SiVtFlavor::Rvt],
            vec![
                Frequency::from_megahertz(250.0),
                Frequency::from_megahertz(500.0),
            ],
        )
    }

    #[test]
    fn ranks_feasible_designs_by_tcdp() {
        let opt = Optimizer::new(small_space(), Lifetime::months(24.0));
        let ranked = opt.run(run());
        assert_eq!(ranked.len(), 4);
        for pair in ranked.windows(2) {
            if pair[0].feasible == pair[1].feasible {
                assert!(pair[0].tcdp <= pair[1].tcdp);
            } else {
                assert!(pair[0].feasible);
            }
        }
    }

    #[test]
    fn latency_constraint_excludes_slow_clocks() {
        // matmul at 4 reps ≈ 438k cycles: 250 MHz needs 1.75 ms, 500 MHz
        // 0.88 ms. Constrain to 1 ms.
        let opt = Optimizer::new(small_space(), Lifetime::months(24.0)).with_constraints(
            Constraints::new().with_max_execution_time(Time::from_seconds(1.0e-3)),
        );
        let ranked = opt.run(run());
        for c in &ranked {
            if c.f_clk.as_megahertz() < 300.0 {
                assert!(!c.feasible, "250 MHz cannot meet 1 ms");
            } else {
                assert!(c.feasible);
            }
        }
    }

    #[test]
    fn m3d_wins_at_long_lifetimes_and_loses_early() {
        let opt_late = Optimizer::new(small_space(), Lifetime::months(24.0));
        let best_late = &opt_late.run(run())[0];
        assert_eq!(best_late.technology, Technology::M3dIgzoCnfetSi);

        let opt_early = Optimizer::new(small_space(), Lifetime::months(3.0));
        let best_early = &opt_early.run(run())[0];
        assert_eq!(best_early.technology, Technology::AllSi);
    }

    #[test]
    fn infeasible_timing_candidates_are_dropped() {
        // HVT at 1 GHz cannot even be designed — the space shrinks.
        let space = DesignSpace::new(
            vec![Technology::AllSi],
            vec![SiVtFlavor::Hvt],
            vec![
                Frequency::from_megahertz(500.0),
                Frequency::from_gigahertz(1.0),
            ],
        );
        let ranked = Optimizer::new(space, Lifetime::months(24.0)).run(run());
        assert_eq!(ranked.len(), 1);
        assert!((ranked[0].f_clk.as_megahertz() - 500.0).abs() < 1.0);
    }

    #[test]
    fn pareto_front_is_nondominated_and_sorted() {
        let opt = Optimizer::new(DesignSpace::paper_default(), Lifetime::months(24.0));
        let front = opt.pareto_front(run());
        assert!(!front.is_empty());
        for pair in front.windows(2) {
            assert!(pair[0].execution_time < pair[1].execution_time);
            // Along the front, slower designs must be strictly better in tCDP.
            assert!(pair[0].tcdp > pair[1].tcdp);
        }
    }

    #[test]
    fn supervised_run_matches_unsupervised() {
        let opt = Optimizer::new(small_space(), Lifetime::months(24.0));
        let plain = opt.run_jobs(run(), 2);
        let supervised = opt
            .try_run_supervised(run(), 2, &crate::eval::RunBudget::unlimited())
            .expect("unlimited budget completes");
        assert_eq!(plain, supervised);
    }

    #[test]
    fn cancelled_sweep_reports_an_interrupt() {
        let token = crate::eval::CancelToken::new();
        token.cancel();
        let budget = crate::eval::RunBudget::unlimited().with_cancel(&token);
        let opt = Optimizer::new(small_space(), Lifetime::months(24.0));
        let e = opt
            .try_run_supervised(run(), 2, &budget)
            .expect_err("pre-cancelled sweep stops");
        assert!(matches!(
            e,
            crate::error::PpatcError::Interrupted {
                reason: crate::error::InterruptReason::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn area_constraint_prefers_m3d() {
        // Only the M3D die fits under 0.09 mm².
        let opt = Optimizer::new(small_space(), Lifetime::months(24.0)).with_constraints(
            Constraints::new().with_max_area(ppatc_units::Area::from_square_millimeters(0.09)),
        );
        let ranked = opt.run(run());
        for c in ranked {
            assert_eq!(c.feasible, c.technology == Technology::M3dIgzoCnfetSi);
        }
    }
}
