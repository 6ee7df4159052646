//! DC operating-point analysis: one damped Newton–Raphson solve.
//!
//! [`Circuit::dc_operating_point`] starts from all-zero unknowns, clamps
//! each node-voltage update to 0.3 V per iteration, and reports a solve
//! that has not settled within 400 iterations as
//! [`SpiceError::NoConvergence`]. The transient loop and the DC sweep run
//! the same solve at every time step and sweep point.

use crate::circuit::{Circuit, StampPlan};
use crate::error::SpiceError;
use crate::solver::LinearSystem;

/// Reusable per-topology solve state: the assembled MNA system (with its
/// factorization workspace) and the compiled [`StampPlan`]. Built once per
/// circuit topology by [`Circuit::newton_scratch`] and threaded through
/// every Newton solve — across iterations, transient timesteps and
/// DC-sweep points — so the hot path allocates nothing.
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

/// Always `(0, 0)`: the `(recovered, exhausted)` pair of a DC recovery
/// ladder this crate no longer has. A DC solve either converges or returns
/// [`SpiceError::NoConvergence`]; nothing is rescued and nothing is
/// counted. Kept only while perfbench still reads the pair.
pub fn recovery_counters() -> (u64, u64) {
    (0, 0)
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
    /// [`SpiceError::SingularMatrix`] for ill-formed topologies,
    /// [`SpiceError::IllConditioned`] for numerically meaningless ones, and
    /// [`SpiceError::NoConvergence`] if damped Newton fails.
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

    /// Creates the reusable solve state ([`NewtonScratch`]) for this
    /// circuit's current topology: compiles the stamp plan and sizes the
    /// linear system once, so repeated solves allocate nothing.
    pub(crate) fn newton_scratch(&self) -> NewtonScratch {
        NewtonScratch {
            sys: LinearSystem::new(self.unknowns()),
            plan: self.stamp_plan(),
        }
    }

    /// Damped Newton–Raphson around an initial guess `x` (updated in
    /// place), with every source at its value at time `t`.
    ///
    /// `scratch` must come from [`Circuit::newton_scratch`] on this same
    /// (unmodified) circuit.
    pub(crate) fn newton_solve(
        &self,
        scratch: &mut NewtonScratch,
        x: &mut [f64],
        t: f64,
        cap_companion: Option<&[(f64, f64)]>,
        analysis: &'static str,
    ) -> Result<(), SpiceError> {
        let n = self.unknowns();
        debug_assert_eq!(x.len(), n);
        if n == 0 {
            return Ok(());
        }
        let n_node_unknowns = self.node_count() - 1;
        let NewtonScratch { sys, plan } = scratch;
        // Sources depend only on `t`, fixed for the whole solve: refresh
        // them once, not once per iteration.
        plan.set_sources(self, t);
        let mut worst = f64::INFINITY;
        for _ in 0..MAX_ITER {
            self.stamp_planned(sys, plan, x, cap_companion);
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
                return Ok(());
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
    use crate::{Circuit, SpiceError, TransientConfig, Waveform};
    use ppatc_device::{si, SiVtFlavor};
    use ppatc_units::{approx_eq, Length, Resistance, Time, Voltage};

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
    fn an_unreachable_operating_point_is_no_convergence() {
        // A 1 kV rail: damping moves a node at most 0.3 V per iteration, so
        // 400 iterations end near 120 V and no single solve can reach it.
        let mut c = Circuit::new();
        let hv = c.node("hv");
        c.voltage_source(
            "V1",
            hv,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(1_000.0)),
        );
        c.resistor("R1", hv, Circuit::GROUND, Resistance::from_kilo_ohms(1.0));
        let err = c.dc_operating_point().expect_err("1 kV is out of reach");
        assert!(
            matches!(err, SpiceError::NoConvergence { analysis: "dc", .. }),
            "{err}"
        );
        // A transient that starts from DC fails in that same solve.
        let cfg = TransientConfig::new(Time::from_nanoseconds(1.0), Time::from_picoseconds(10.0));
        let err = c.transient(&cfg).expect_err("the initial DC solve fails");
        assert!(
            matches!(err, SpiceError::NoConvergence { analysis: "dc", .. }),
            "{err}"
        );
        // A failed solve feeds no process-wide counter.
        assert_eq!(super::recovery_counters(), (0, 0));
    }

    #[test]
    fn singular_topologies_are_a_typed_error() {
        // Two ideal voltage sources in parallel with conflicting values:
        // structurally singular.
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
        let err = c.dc_operating_point().expect_err("singular");
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
        // must now be a typed error.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.current_source("I1", Circuit::GROUND, a, Waveform::Dc(1.0));
        c.resistor("Rwire", a, b, Resistance::from_ohms(1e-12));
        c.resistor("Rload", b, Circuit::GROUND, Resistance::from_kilo_ohms(1.0));
        let err = c.dc_operating_point().expect_err("ill-conditioned");
        assert!(matches!(err, SpiceError::IllConditioned { .. }), "{err}");
    }
}
