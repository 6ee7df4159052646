//! DC operating-point analysis with a convergence-recovery ladder.
//!
//! The plain operating point ([`Circuit::dc_operating_point`]) runs one
//! damped Newton solve. When that fails — stiff transfer curves, poor
//! initial guesses, deliberately tight iteration budgets — the recovery
//! entry point ([`Circuit::dc_operating_point_recovered`]) escalates
//! through the classic SPICE ladder:
//!
//! 1. **Plain retry** at the configured iteration budget.
//! 2. **GMIN stepping**: solve with a large shunt conductance to ground
//!    (which linearises the system), then ramp it back down one decade at
//!    a time, warm-starting each rung from the previous solution.
//! 3. **Source stepping**: ramp every independent source from 10 % to
//!    100 % of its value, warm-starting each rung.
//!
//! Every attempt is recorded in a [`RecoveryLog`] so callers can see
//! which rung rescued the solve (or audit why everything failed).

use crate::budget::SolverBudget;
use crate::circuit::{Circuit, StampPlan, GMIN};
use crate::error::SpiceError;
use crate::solver::LinearSystem;
use std::sync::atomic::{AtomicU64, Ordering};

/// Reusable per-topology solve state: the assembled MNA system (with its
/// factorization workspace) and the compiled [`StampPlan`]. Built once per
/// circuit topology by [`Circuit::newton_scratch`] and threaded through
/// every Newton solve — across iterations, transient timesteps, DC-sweep
/// points, and recovery-ladder rungs — so the hot path allocates nothing.
///
/// The scratch is only valid for the topology it was compiled from; any
/// circuit edit (new element, node, or parameter) requires a fresh one.
pub(crate) struct NewtonScratch {
    sys: LinearSystem,
    plan: StampPlan,
}

/// Maximum Newton iterations for the operating point.
const MAX_ITER: usize = 400;
/// Convergence tolerance on the node-voltage update, volts.
const V_TOL: f64 = 1e-9;
/// Per-iteration clamp on node-voltage updates, volts (damping).
const MAX_STEP: f64 = 0.3;
/// GMIN-stepping ladder, in siemens, ending at the nominal [`GMIN`].
const GMIN_LADDER: [f64; 5] = [1e-3, 1e-5, 1e-7, 1e-9, GMIN];
/// Source-stepping rungs: fraction of full source value.
const SOURCE_LADDER: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Internal knobs for one damped-Newton solve.
pub(crate) struct NewtonOptions {
    pub max_iter: usize,
    pub gmin: f64,
    pub source_scale: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        Self {
            max_iter: MAX_ITER,
            gmin: GMIN,
            source_scale: 1.0,
        }
    }
}

/// Options for [`Circuit::dc_operating_point_recovered_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DcOptions {
    max_iter: usize,
    budget: SolverBudget,
}

impl DcOptions {
    /// The default configuration (400 Newton iterations per attempt, no
    /// solver budget).
    pub fn new() -> Self {
        Self {
            max_iter: MAX_ITER,
            budget: SolverBudget::unlimited(),
        }
    }

    /// Overrides the per-attempt Newton iteration budget. Clamped to at
    /// least 1.
    #[must_use]
    pub fn with_max_iter(mut self, max_iter: usize) -> Self {
        self.max_iter = max_iter.max(1);
        self
    }

    /// Bounds the whole ladder (all rungs together) by a [`SolverBudget`].
    /// The budget is checked between rungs; an exhausted budget returns
    /// [`SpiceError::SolverBudgetExceeded`] carrying the attempts made so
    /// far.
    #[must_use]
    pub fn with_budget(mut self, budget: SolverBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The per-attempt Newton iteration budget.
    pub fn max_iter(&self) -> usize {
        self.max_iter
    }

    /// The whole-ladder solver budget.
    pub fn budget(&self) -> SolverBudget {
        self.budget
    }
}

impl Default for DcOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// One rung of the convergence-recovery ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum RecoveryStage {
    /// The ordinary damped-Newton solve, no aids.
    Plain,
    /// A solve with an elevated GMIN shunt conductance (siemens).
    GminStepping {
        /// Shunt conductance used on this rung.
        gmin: f64,
    },
    /// A solve with all independent sources scaled down.
    SourceStepping {
        /// Fraction of the full source values used on this rung.
        scale: f64,
    },
}

impl core::fmt::Display for RecoveryStage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Plain => write!(f, "plain"),
            Self::GminStepping { gmin } => write!(f, "gmin-step (gmin = {gmin:.0e} S)"),
            Self::SourceStepping { scale } => {
                write!(f, "source-step (scale = {scale:.1})")
            }
        }
    }
}

/// The outcome of one recovery-ladder attempt.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryAttempt {
    /// Which ladder rung this attempt ran on.
    pub stage: RecoveryStage,
    /// Newton iterations spent in this attempt.
    pub iterations: usize,
    /// `None` on success; the solver error otherwise.
    pub error: Option<SpiceError>,
}

impl RecoveryAttempt {
    /// Whether this attempt converged.
    pub fn converged(&self) -> bool {
        self.error.is_none()
    }
}

/// The full audit trail of a recovered DC solve: every attempt, in order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryLog {
    /// All attempts, in the order they ran.
    pub attempts: Vec<RecoveryAttempt>,
}

impl RecoveryLog {
    fn record(&mut self, stage: RecoveryStage, outcome: &Result<usize, SpiceError>) {
        self.attempts.push(match outcome {
            Ok(iters) => RecoveryAttempt {
                stage,
                iterations: *iters,
                error: None,
            },
            Err(e) => RecoveryAttempt {
                stage,
                // The attempt burned its whole budget without converging.
                iterations: 0,
                error: Some(e.clone()),
            },
        });
    }

    /// Total attempts across all stages.
    pub fn total_attempts(&self) -> usize {
        self.attempts.len()
    }

    /// Attempts that did *not* converge.
    pub fn failed_attempts(&self) -> usize {
        self.attempts.iter().filter(|a| !a.converged()).count()
    }

    /// Whether any recovery rung (anything beyond the first plain attempt)
    /// was needed.
    pub fn recovery_was_needed(&self) -> bool {
        self.attempts.len() > 1
    }

    /// The stage of the final, successful attempt — i.e. which rung of the
    /// ladder rescued the solve. `None` if nothing converged.
    pub fn succeeded_via(&self) -> Option<RecoveryStage> {
        let last = self.attempts.last()?;
        last.converged().then_some(last.stage)
    }

    /// Total Newton iterations across every attempt that converged.
    pub fn converged_iterations(&self) -> usize {
        self.attempts.iter().map(|a| a.iterations).sum()
    }
}

impl core::fmt::Display for RecoveryLog {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} attempt(s), {} failed",
            self.total_attempts(),
            self.failed_attempts()
        )?;
        match self.succeeded_via() {
            Some(stage) => write!(f, "; converged via {stage}"),
            None => write!(f, "; did not converge"),
        }
    }
}

/// Process-wide count of ladder solves rescued by a recovery rung (the
/// plain attempt failed but a later rung converged).
static RECOVERED_SOLVES: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of ladder solves that gave up: every rung failed or
/// the solver budget was exhausted (structural [`SpiceError::SingularMatrix`]
/// failures are not counted — no amount of recovery addresses those).
static EXHAUSTED_SOLVES: AtomicU64 = AtomicU64::new(0);

/// Process-wide recovery-pressure counters as `(recovered, exhausted)`:
/// how many [`Circuit::dc_operating_point_recovered_with`] invocations were
/// rescued by a GMIN/source-stepping rung, and how many gave up (ladder or
/// budget exhausted). Monotonic since process start, like
/// `ppatc_edram::characterization_cache_stats`; callers difference two
/// snapshots to attribute pressure to a run.
pub fn recovery_counters() -> (u64, u64) {
    (
        RECOVERED_SOLVES.load(Ordering::Relaxed),
        EXHAUSTED_SOLVES.load(Ordering::Relaxed),
    )
}

/// Returns [`SpiceError::SolverBudgetExceeded`] when `budget` is exhausted
/// after `spent` Newton iterations, carrying a snapshot of the ladder log.
fn check_ladder_budget(
    budget: &SolverBudget,
    spent: usize,
    log: &RecoveryLog,
) -> Result<(), SpiceError> {
    if budget.exhausted(spent) {
        Err(SpiceError::SolverBudgetExceeded {
            analysis: "dc",
            iterations: spent,
            log: log.clone(),
        })
    } else {
        Ok(())
    }
}

impl Circuit {
    /// Computes the DC operating point (all sources at their `t = 0` value,
    /// capacitors open).
    ///
    /// Returns the full unknown vector: node voltages (ground excluded)
    /// followed by voltage-source branch currents. Use
    /// [`Circuit::node`]-derived ids with [`Circuit::dc_voltage`] for
    /// convenient access.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] for ill-formed topologies and
    /// [`SpiceError::NoConvergence`] if damped Newton fails. For automatic
    /// retries through GMIN and source stepping, use
    /// [`Circuit::dc_operating_point_recovered`].
    pub fn dc_operating_point(&self) -> Result<Vec<f64>, SpiceError> {
        let mut scratch = self.newton_scratch();
        let mut x = vec![0.0; self.unknowns()];
        self.newton_solve(&mut scratch, &mut x, 0.0, None, "dc")?;
        Ok(x)
    }

    /// Convenience: DC voltage of one node.
    ///
    /// # Errors
    ///
    /// Propagates any [`SpiceError`] from [`Circuit::dc_operating_point`].
    pub fn dc_voltage(&self, node: crate::NodeId) -> Result<ppatc_units::Voltage, SpiceError> {
        let x = self.dc_operating_point()?;
        Ok(ppatc_units::Voltage::from_volts(self.voltage_of(&x, node)))
    }

    /// DC operating point with the full convergence-recovery ladder (see
    /// the module docs) at default options.
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] immediately for ill-formed
    /// topologies; [`SpiceError::NoConvergence`] only after every rung of
    /// the ladder has failed.
    pub fn dc_operating_point_recovered(&self) -> Result<(Vec<f64>, RecoveryLog), SpiceError> {
        self.dc_operating_point_recovered_with(DcOptions::new())
    }

    /// DC operating point with the recovery ladder and explicit options.
    ///
    /// Feeds the process-wide [`recovery_counters`]: a solve rescued by a
    /// recovery rung bumps the recovered count, a solve that exhausts the
    /// ladder or its budget bumps the exhausted count (structural
    /// [`SpiceError::SingularMatrix`] failures bump neither).
    ///
    /// # Errors
    ///
    /// See [`Circuit::dc_operating_point_recovered`]; additionally
    /// [`SpiceError::SolverBudgetExceeded`] when the
    /// [`DcOptions::with_budget`] bound trips between rungs.
    pub fn dc_operating_point_recovered_with(
        &self,
        opts: DcOptions,
    ) -> Result<(Vec<f64>, RecoveryLog), SpiceError> {
        let result = self.recovered_ladder(opts);
        match &result {
            Ok((_, log)) if log.recovery_was_needed() => {
                RECOVERED_SOLVES.fetch_add(1, Ordering::Relaxed);
            }
            Err(SpiceError::NoConvergence { .. } | SpiceError::SolverBudgetExceeded { .. }) => {
                EXHAUSTED_SOLVES.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
        result
    }

    fn recovered_ladder(&self, opts: DcOptions) -> Result<(Vec<f64>, RecoveryLog), SpiceError> {
        let n = self.unknowns();
        let budget = opts.budget();
        let mut log = RecoveryLog::default();
        // Newton iterations spent so far, across all rungs. A failed rung
        // burned its whole per-attempt budget.
        let mut spent = 0_usize;

        // One scratch (compiled stamp plan + linear-system workspace) is
        // reused across every rung: the topology never changes mid-ladder.
        let mut scratch = self.newton_scratch();

        // Rung 1: plain solve.
        check_ladder_budget(&budget, spent, &log)?;
        let mut x = vec![0.0; n];
        let plain = self.newton_solve_with(
            &mut scratch,
            &mut x,
            0.0,
            None,
            "dc",
            &NewtonOptions {
                max_iter: opts.max_iter,
                ..NewtonOptions::default()
            },
        );
        log.record(RecoveryStage::Plain, &plain);
        match plain {
            Ok(_) => return Ok((x, log)),
            // A singular matrix is structural (floating node, source loop);
            // no amount of stepping will fix it. Fail fast.
            Err(e @ SpiceError::SingularMatrix { .. }) => return Err(e),
            Err(SpiceError::NoConvergence { .. }) => spent += opts.max_iter,
            Err(e) => return Err(e),
        }

        // Rung 2: GMIN stepping — heavily shunted first solve, then ramp
        // the shunt back down to nominal, warm-starting each step.
        let mut x = vec![0.0; n];
        let mut gmin_ok = true;
        for &gmin in &GMIN_LADDER {
            check_ladder_budget(&budget, spent, &log)?;
            let step = self.newton_solve_with(
                &mut scratch,
                &mut x,
                0.0,
                None,
                "dc",
                &NewtonOptions {
                    max_iter: opts.max_iter,
                    gmin,
                    ..NewtonOptions::default()
                },
            );
            log.record(RecoveryStage::GminStepping { gmin }, &step);
            match step {
                Ok(iters) => spent += iters,
                // Structural singularity and numerical ill-conditioning are
                // both beyond what stepping can repair. Fail fast.
                Err(
                    e @ (SpiceError::SingularMatrix { .. } | SpiceError::IllConditioned { .. }),
                ) => return Err(e),
                Err(_) => {
                    spent += opts.max_iter;
                    gmin_ok = false;
                    break;
                }
            }
        }
        if gmin_ok {
            return Ok((x, log));
        }

        // Rung 3: source stepping — ramp all independent sources from 10 %
        // to full value, warm-starting each step.
        let mut x = vec![0.0; n];
        let mut last_err = None;
        let mut source_ok = true;
        for &scale in &SOURCE_LADDER {
            check_ladder_budget(&budget, spent, &log)?;
            let step = self.newton_solve_with(
                &mut scratch,
                &mut x,
                0.0,
                None,
                "dc",
                &NewtonOptions {
                    max_iter: opts.max_iter,
                    source_scale: scale,
                    ..NewtonOptions::default()
                },
            );
            log.record(RecoveryStage::SourceStepping { scale }, &step);
            match step {
                Ok(iters) => spent += iters,
                Err(
                    e @ (SpiceError::SingularMatrix { .. } | SpiceError::IllConditioned { .. }),
                ) => return Err(e),
                Err(e) => {
                    // No further rungs read `spent`; the ladder is done.
                    last_err = Some(e);
                    source_ok = false;
                    break;
                }
            }
        }
        if source_ok {
            return Ok((x, log));
        }

        Err(last_err.unwrap_or(SpiceError::NoConvergence {
            analysis: "dc",
            time: 0.0,
            residual: f64::INFINITY,
        }))
    }

    /// Creates the reusable solve state ([`NewtonScratch`]) for this
    /// circuit's current topology: compiles the stamp plan and sizes the
    /// linear system once, so repeated solves allocate nothing.
    pub(crate) fn newton_scratch(&self) -> NewtonScratch {
        NewtonScratch {
            sys: LinearSystem::new(self.unknowns()),
            plan: self.stamp_plan(),
        }
    }

    /// Damped Newton–Raphson around an initial guess `x` (updated in place)
    /// with default options. Returns the iteration count on success.
    pub(crate) fn newton_solve(
        &self,
        scratch: &mut NewtonScratch,
        x: &mut [f64],
        t: f64,
        cap_companion: Option<&[(f64, f64)]>,
        analysis: &'static str,
    ) -> Result<usize, SpiceError> {
        self.newton_solve_with(
            scratch,
            x,
            t,
            cap_companion,
            analysis,
            &NewtonOptions::default(),
        )
    }

    /// Damped Newton–Raphson with explicit iteration/GMIN/source-scale
    /// options. Returns the number of iterations used on success.
    ///
    /// `scratch` must come from [`Circuit::newton_scratch`] on this same
    /// (unmodified) circuit.
    pub(crate) fn newton_solve_with(
        &self,
        scratch: &mut NewtonScratch,
        x: &mut [f64],
        t: f64,
        cap_companion: Option<&[(f64, f64)]>,
        analysis: &'static str,
        opts: &NewtonOptions,
    ) -> Result<usize, SpiceError> {
        let n = self.unknowns();
        debug_assert_eq!(x.len(), n);
        if n == 0 {
            return Ok(0);
        }
        let n_node_unknowns = self.node_count() - 1;
        let NewtonScratch { sys, plan } = scratch;
        // Sources depend only on (t, source_scale), both fixed for the
        // whole solve: refresh them once, not once per iteration.
        plan.set_sources(self, t, opts.source_scale);
        let mut worst = f64::INFINITY;
        for iter in 0..opts.max_iter {
            self.stamp_planned(sys, plan, x, cap_companion, opts.gmin);
            let x_new = sys.solve()?;
            worst = 0.0;
            for i in 0..n {
                let mut delta = x_new[i] - x[i];
                // Damp node voltages only; branch currents may legitimately
                // jump by large amounts.
                if i < n_node_unknowns {
                    delta = delta.clamp(-MAX_STEP, MAX_STEP);
                    worst = worst.max(delta.abs());
                }
                x[i] += delta;
            }
            if worst < V_TOL {
                return Ok(iter + 1);
            }
        }
        Err(SpiceError::NoConvergence {
            analysis,
            time: t,
            residual: worst,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::{DcOptions, RecoveryStage};
    use crate::{Circuit, SpiceError, Waveform};
    use ppatc_device::{si, SiVtFlavor};
    use ppatc_units::{approx_eq, Length, Resistance, Voltage};

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let top = c.node("top");
        let mid = c.node("mid");
        c.voltage_source(
            "V1",
            top,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(1.0)),
        );
        c.resistor("R1", top, mid, Resistance::from_kilo_ohms(1.0));
        c.resistor("R2", mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0));
        let v = c.dc_voltage(mid).expect("divider should solve");
        assert!(approx_eq(v.as_volts(), 0.75, 1e-6));
    }

    #[test]
    fn branch_current_of_source() {
        let mut c = Circuit::new();
        let top = c.node("top");
        c.voltage_source(
            "V1",
            top,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(1.0)),
        );
        c.resistor("R1", top, Circuit::GROUND, Resistance::from_kilo_ohms(1.0));
        let x = c.dc_operating_point().expect("should solve");
        // Branch current flows out of the + terminal through the circuit:
        // MNA convention gives i = -1 mA through the source.
        assert!(approx_eq(x[c.branch_index(0)], -1.0e-3, 1e-6));
    }

    fn inverter(vin: f64) -> (Circuit, crate::NodeId) {
        let vdd = Voltage::from_volts(0.7);
        let w = Length::from_nanometers(100.0);
        let mut c = Circuit::new();
        let nvdd = c.node("vdd");
        let nin = c.node("in");
        let nout = c.node("out");
        c.voltage_source("VDD", nvdd, Circuit::GROUND, Waveform::dc(vdd));
        c.voltage_source(
            "VIN",
            nin,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(vin)),
        );
        c.fet("MP", nout, nin, nvdd, si::pfet(SiVtFlavor::Rvt).sized(w));
        c.fet(
            "MN",
            nout,
            nin,
            Circuit::GROUND,
            si::nfet(SiVtFlavor::Rvt).sized(w),
        );
        (c, nout)
    }

    #[test]
    fn cmos_inverter_transfer_points() {
        let (c_low, out_low) = inverter(0.0);
        let v_high = c_low.dc_voltage(out_low).expect("inverter should solve");
        assert!(v_high.as_volts() > 0.65, "output high {v_high}");

        let (c_high, out_high) = inverter(0.7);
        let v_low = c_high.dc_voltage(out_high).expect("inverter should solve");
        assert!(v_low.as_volts() < 0.05, "output low {v_low}");
    }

    #[test]
    fn inverter_gain_region_is_between_rails() {
        let (c, nout) = inverter(0.35);
        let v = c
            .dc_voltage(nout)
            .expect("inverter should solve")
            .as_volts();
        assert!(v > 0.05 && v < 0.65, "midpoint output {v}");
    }

    #[test]
    fn fet_current_at_operating_point() {
        let vdd = Voltage::from_volts(0.7);
        let w = Length::from_nanometers(100.0);
        let mut c = Circuit::new();
        let nvdd = c.node("vdd");
        let nout = c.node("out");
        c.voltage_source("VDD", nvdd, Circuit::GROUND, Waveform::dc(vdd));
        c.resistor("RL", nvdd, nout, Resistance::from_kilo_ohms(100.0));
        let mn = c.fet(
            "MN",
            nout,
            nvdd,
            Circuit::GROUND,
            si::nfet(SiVtFlavor::Rvt).sized(w),
        );
        let rl = crate::ElementId(1);
        let x = c.dc_operating_point().expect("common-source stage solves");
        let i_fet = c.fet_current(mn, &x).expect("MN is a FET");
        assert!(
            c.fet_current(rl, &x).is_none(),
            "resistors have no drain current"
        );
        // KCL: the FET sinks whatever the load resistor delivers.
        let v_out = x[c.node_index(nout).expect("out is not ground")];
        let i_res = (0.7 - v_out) / 100e3;
        assert!(approx_eq(i_fet.as_amperes(), i_res, 1e-3));
    }

    #[test]
    fn empty_circuit_is_fine() {
        let c = Circuit::new();
        let x = c.dc_operating_point().expect("empty circuit should solve");
        assert!(x.is_empty());
    }

    #[test]
    fn recovered_solve_matches_plain_solve_when_plain_converges() {
        let (c, nout) = inverter(0.35);
        let plain = c.dc_operating_point().expect("plain converges");
        let (recovered, log) = c
            .dc_operating_point_recovered()
            .expect("recovered converges");
        let i = c.node_index(nout).expect("out is not ground");
        assert!(approx_eq(plain[i], recovered[i], 1e-9));
        assert_eq!(log.total_attempts(), 1, "no recovery needed: {log}");
        assert!(!log.recovery_was_needed());
        assert_eq!(log.succeeded_via(), Some(RecoveryStage::Plain));
    }

    #[test]
    fn ladder_rescues_a_solve_the_plain_budget_cannot() {
        // With the 0.3 V damping clamp, walking the supply rail up to
        // 0.7 V from a zero guess alone needs ≥ 3 iterations, and the
        // nonlinear output node needs several more (9 total): a
        // 5-iteration budget starves the plain solve deterministically,
        // while the warm-started source-stepping rungs each converge.
        let opts = DcOptions::new().with_max_iter(5);
        let (c, nout) = inverter(0.35);
        let plain_err = {
            let (c2, _) = inverter(0.35);
            let mut scratch = c2.newton_scratch();
            let mut x = vec![0.0; 5];
            c2.newton_solve_with(
                &mut scratch,
                &mut x,
                0.0,
                None,
                "dc",
                &super::NewtonOptions {
                    max_iter: opts.max_iter(),
                    ..super::NewtonOptions::default()
                },
            )
        };
        assert!(
            matches!(plain_err, Err(SpiceError::NoConvergence { .. })),
            "plain solve must fail for the ladder to matter: {plain_err:?}"
        );

        let (x, log) = c
            .dc_operating_point_recovered_with(opts)
            .expect("ladder rescues the solve");
        // The rescued answer matches the unconstrained solve.
        let reference = c.dc_operating_point().expect("reference converges");
        let i = c.node_index(nout).expect("out is not ground");
        assert!(
            approx_eq(x[i], reference[i], 1e-6),
            "{} vs {}",
            x[i],
            reference[i]
        );

        // The retry path is visible: the plain rung failed, recovery ran,
        // and the final rung converged at full source value / nominal GMIN.
        assert!(log.recovery_was_needed(), "{log}");
        assert!(!log.attempts[0].converged());
        assert_eq!(log.attempts[0].stage, RecoveryStage::Plain);
        assert!(log.failed_attempts() >= 1);
        match log.succeeded_via().expect("ladder converged") {
            RecoveryStage::GminStepping { gmin } => {
                assert!(approx_eq(gmin, crate::circuit::GMIN, 1e-18));
            }
            RecoveryStage::SourceStepping { scale } => {
                assert!(approx_eq(scale, 1.0, 1e-12));
            }
            RecoveryStage::Plain => panic!("plain cannot be the rescuing rung: {log}"),
        }
    }

    #[test]
    fn singular_topologies_fail_fast_without_laddering() {
        // Two ideal voltage sources in parallel with conflicting values:
        // structurally singular, so the ladder must not retry.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(1.0)),
        );
        c.voltage_source(
            "V2",
            a,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(2.0)),
        );
        let err = c.dc_operating_point_recovered().expect_err("singular");
        assert!(matches!(err, SpiceError::SingularMatrix { .. }), "{err}");
    }

    #[test]
    fn nearly_singular_topologies_surface_ill_conditioning() {
        // A pico-ohm "wire" feeding a kilo-ohm load from a current source:
        // the load conductance survives stamping only as the low-order bits
        // of a diagonal dominated by g_wire = 1e12 S, so elimination
        // recovers the load pivot as cancellation noise (relative pivot
        // ~1e-15, tens of percent of error in the load voltage). The old
        // absolute 1e-300 pivot floor accepted that garbage silently; it
        // must now be a typed error, on the plain path and on the ladder
        // (fail-fast: no rung can repair lost matrix bits).
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.current_source("I1", Circuit::GROUND, a, Waveform::Dc(1.0));
        c.resistor("Rwire", a, b, Resistance::from_ohms(1e-12));
        c.resistor("Rload", b, Circuit::GROUND, Resistance::from_kilo_ohms(1.0));
        let err = c.dc_operating_point().expect_err("ill-conditioned");
        assert!(matches!(err, SpiceError::IllConditioned { .. }), "{err}");
        let err = c
            .dc_operating_point_recovered()
            .expect_err("ill-conditioned");
        assert!(matches!(err, SpiceError::IllConditioned { .. }), "{err}");
    }

    #[test]
    fn exhausted_ladder_reports_no_convergence() {
        // A 1-iteration budget cannot finish even the warm-started rungs.
        let (c, _) = inverter(0.35);
        let err = c
            .dc_operating_point_recovered_with(DcOptions::new().with_max_iter(1))
            .expect_err("nothing converges in one iteration");
        assert!(matches!(err, SpiceError::NoConvergence { .. }), "{err}");
    }

    #[test]
    fn iteration_budget_stops_the_ladder_between_rungs() {
        // Starve the plain solve (5 iterations cannot converge the
        // inverter), and allow only 3 total Newton iterations: the budget
        // check before the first GMIN rung must trip, carrying the failed
        // plain attempt in its log.
        let (c, _) = inverter(0.35);
        let opts = DcOptions::new()
            .with_max_iter(5)
            .with_budget(crate::SolverBudget::unlimited().with_max_newton_iterations(3));
        let err = c
            .dc_operating_point_recovered_with(opts)
            .expect_err("budget must trip before the first recovery rung");
        match err {
            SpiceError::SolverBudgetExceeded {
                analysis,
                iterations,
                log,
            } => {
                assert_eq!(analysis, "dc");
                assert_eq!(iterations, 5, "the failed plain rung burned its budget");
                assert_eq!(log.total_attempts(), 1, "{log}");
                assert_eq!(log.failed_attempts(), 1, "{log}");
            }
            other => panic!("expected SolverBudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn expired_deadline_stops_the_ladder_before_any_attempt() {
        let (c, _) = inverter(0.35);
        let opts = DcOptions::new()
            .with_budget(crate::SolverBudget::unlimited().with_deadline(std::time::Instant::now()));
        let err = c
            .dc_operating_point_recovered_with(opts)
            .expect_err("an already-expired deadline allows no attempts");
        match err {
            SpiceError::SolverBudgetExceeded {
                analysis,
                iterations,
                log,
            } => {
                assert_eq!(analysis, "dc");
                assert_eq!(iterations, 0);
                assert_eq!(log.total_attempts(), 0);
            }
            other => panic!("expected SolverBudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn recovery_counters_track_rescued_and_exhausted_solves() {
        // Counters are process-wide and tests run concurrently, so only
        // lower-bound deltas are safe to assert.
        let (recovered_before, exhausted_before) = super::recovery_counters();

        // A rescued solve: plain starved, ladder succeeds.
        let (c, _) = inverter(0.35);
        c.dc_operating_point_recovered_with(DcOptions::new().with_max_iter(5))
            .expect("ladder rescues the solve");
        // An exhausted solve: nothing converges in one iteration.
        let (c2, _) = inverter(0.35);
        let _ = c2
            .dc_operating_point_recovered_with(DcOptions::new().with_max_iter(1))
            .expect_err("nothing converges");

        let (recovered_after, exhausted_after) = super::recovery_counters();
        assert!(recovered_after > recovered_before);
        assert!(exhausted_after > exhausted_before);
    }

    #[test]
    fn clean_solves_do_not_touch_recovery_counters() {
        // A converging plain solve and a structural singularity must leave
        // both counters alone. Other tests may bump them concurrently, so
        // pin the invariant on a serial pair of snapshots being plausible
        // rather than exactly equal; the strict check lives in the
        // fault-injection suite where ordering is controlled.
        let (c, nout) = inverter(0.0);
        let (x, log) = c.dc_operating_point_recovered().expect("clean solve");
        assert!(!log.recovery_was_needed());
        let i = c.node_index(nout).expect("out is not ground");
        assert!(x[i].is_finite());
    }
}
