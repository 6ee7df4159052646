//! Fixed-step transient analysis.

use crate::circuit::{Circuit, Element};
use crate::error::SpiceError;
use crate::measure::{Edge, Trace};
use ppatc_units::{Time, Voltage};

/// Time-integration scheme for capacitor companion models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Integration {
    /// First-order implicit Euler: L-stable, slightly lossy. Good default
    /// for strongly nonlinear switching circuits.
    BackwardEuler,
    /// Second-order trapezoidal rule (with a backward-Euler start-up step).
    #[default]
    Trapezoidal,
}

/// Configuration for [`Circuit::transient`] and
/// [`Circuit::transient_crossing`].
#[derive(Clone, Debug, PartialEq)]
pub struct TransientConfig {
    /// Total simulated time.
    pub stop: Time,
    /// Fixed time step.
    pub step: Time,
    /// Integration scheme.
    pub integration: Integration,
    /// Whether to start from the DC operating point (`true`, default) or
    /// from all-zero node voltages.
    pub from_dc: bool,
    /// Node voltages to force as initial conditions *after* the DC solve —
    /// used to seed dynamic storage nodes (e.g. a DRAM cell's state).
    pub initial_voltages: Vec<(crate::NodeId, Voltage)>,
}

impl TransientConfig {
    /// Creates a configuration with the default scheme (trapezoidal) and a
    /// DC-derived initial state.
    pub fn new(stop: Time, step: Time) -> Self {
        Self {
            stop,
            step,
            integration: Integration::default(),
            from_dc: true,
            initial_voltages: Vec::new(),
        }
    }

    /// Builder: sets the integration scheme.
    #[must_use]
    pub fn with_integration(mut self, integration: Integration) -> Self {
        self.integration = integration;
        self
    }

    /// Builder: forces a node's initial voltage (applied after the DC solve).
    #[must_use]
    pub fn with_initial_voltage(mut self, node: crate::NodeId, v: Voltage) -> Self {
        self.initial_voltages.push((node, v));
        self
    }

    /// Builder: starts from all-zero node voltages instead of the DC point.
    #[must_use]
    pub fn without_dc(mut self) -> Self {
        self.from_dc = false;
        self
    }
}

impl Circuit {
    /// Runs a fixed-step transient analysis.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidTimeAxis`] for non-positive `stop`/`step`,
    /// otherwise any solver error from the initial DC solve or the per-step
    /// Newton iterations.
    pub fn transient(&self, cfg: &TransientConfig) -> Result<Trace, SpiceError> {
        self.step_until(cfg, |_| false)
    }

    /// Runs the transient of [`Circuit::transient`] only as far as the step
    /// that completes the first crossing [`Trace::crossing`] would find,
    /// and returns that crossing. The answer is bit-identical to
    /// `self.transient(cfg)?.crossing(node, level, edge, after)`: stepping
    /// is causal, so the samples up to that step are the same, and the
    /// crossing is interpolated from that step's segment alone. A circuit
    /// that never crosses runs the whole window and yields `None`.
    ///
    /// # Errors
    ///
    /// As [`Circuit::transient`], for the steps actually taken.
    pub fn transient_crossing(
        &self,
        cfg: &TransientConfig,
        node: crate::NodeId,
        level: Voltage,
        edge: Edge,
        after: Time,
    ) -> Result<Option<Time>, SpiceError> {
        self.transient_to_crossing(cfg, node, level, edge, after)
            .map(|(_, crossing)| crossing)
    }

    /// [`Circuit::transient_crossing`] together with the trace it stopped
    /// on.
    fn transient_to_crossing(
        &self,
        cfg: &TransientConfig,
        node: crate::NodeId,
        level: Voltage,
        edge: Edge,
        after: Time,
    ) -> Result<(Trace, Option<Time>), SpiceError> {
        let mut found = None;
        let trace = self.step_until(cfg, |trace| {
            // The newest segment ends on the sample just recorded.
            found = trace.segment_crossing(node, trace.len() - 2, level, edge, after);
            found.is_some()
        })?;
        Ok((trace, found))
    }

    /// The fixed-step loop behind both analyses. After recording each
    /// step's sample (so `done` sees at least two samples) it asks `done`
    /// whether to stop; the full window runs when `done` never says so.
    fn step_until(
        &self,
        cfg: &TransientConfig,
        mut done: impl FnMut(&Trace) -> bool,
    ) -> Result<Trace, SpiceError> {
        let h = cfg.step.as_seconds();
        let stop = cfg.stop.as_seconds();
        if !h.is_finite() || h <= 0.0 || !stop.is_finite() || stop <= 0.0 {
            return Err(SpiceError::InvalidTimeAxis);
        }
        // Snap `stop / h` to the nearest integer when it lands within a few
        // ULPs of one: an exact-multiple stop time whose division comes out
        // at `k + 1e-16` must run k steps, not k + 1. The tolerance sits at
        // f64 rounding scale (~1e-12 relative) so an intentionally tiny
        // fractional final step (e.g. stop/h = 1500.000001) still ceils
        // instead of being silently dropped.
        let steps_exact = stop / h;
        let rounded = steps_exact.round();
        let n_steps = if rounded >= 1.0 && (steps_exact - rounded).abs() <= rounded * 1e-12 {
            rounded as usize
        } else {
            steps_exact.ceil() as usize
        };
        // One compiled stamp plan + linear-system workspace serves the
        // initial DC solve and every time step.
        let mut scratch = self.newton_scratch();

        // Initial state.
        let mut x = vec![0.0; self.unknowns()];
        if cfg.from_dc {
            self.newton_solve(&mut scratch, &mut x, 0.0, None, "dc")?;
        }
        for &(node, v) in &cfg.initial_voltages {
            if let Some(i) = self.node_index(node) {
                x[i] = v.as_volts();
            }
        }

        // Per-capacitor state: previous voltage across it and previous
        // current through it (for trapezoidal).
        let caps: Vec<(crate::NodeId, crate::NodeId, f64)> = self
            .elements
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, farads } => Some((*a, *b, *farads)),
                _ => None,
            })
            .collect();
        let mut v_prev: Vec<f64> = caps
            .iter()
            .map(|&(a, b, _)| self.voltage_of(&x, a) - self.voltage_of(&x, b))
            .collect();
        let mut i_prev: Vec<f64> = vec![0.0; caps.len()];

        let mut trace = Trace::new(self, n_steps + 1);
        trace.record(self, 0.0, &x);

        let mut companion = vec![(0.0, 0.0); caps.len()];
        for k in 1..=n_steps {
            let t = (k as f64) * h;
            // Backward-Euler start-up step even under trapezoidal: the DC
            // point carries no capacitor-current history.
            let use_trap = cfg.integration == Integration::Trapezoidal && k > 1;
            for (ci, &(_, _, c)) in caps.iter().enumerate() {
                if use_trap {
                    let g_eq = 2.0 * c / h;
                    let i_eq = -(g_eq * v_prev[ci] + i_prev[ci]);
                    companion[ci] = (g_eq, i_eq);
                } else {
                    let g_eq = c / h;
                    companion[ci] = (g_eq, -g_eq * v_prev[ci]);
                }
            }
            self.newton_solve(&mut scratch, &mut x, t, Some(&companion), "transient")?;
            for (ci, &(a, b, _)) in caps.iter().enumerate() {
                let v_now = self.voltage_of(&x, a) - self.voltage_of(&x, b);
                let (g_eq, i_eq) = companion[ci];
                i_prev[ci] = g_eq * v_now + i_eq;
                v_prev[ci] = v_now;
            }
            trace.record(self, t, &x);
            if done(&trace) {
                break;
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Waveform};
    use ppatc_device::{si, SiVtFlavor};
    use ppatc_units::{approx_eq, Capacitance, Length, Resistance};

    fn rc_circuit() -> (Circuit, crate::NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        c.voltage_source(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::step(Voltage::from_volts(1.0)),
        );
        c.resistor("R1", vin, vout, Resistance::from_kilo_ohms(1.0));
        c.capacitor(
            "C1",
            vout,
            Circuit::GROUND,
            Capacitance::from_femtofarads(1000.0),
        );
        (c, vout)
    }

    #[test]
    fn rc_charging_follows_exponential() {
        let (c, out) = rc_circuit();
        let cfg = TransientConfig::new(Time::from_nanoseconds(3.0), Time::from_picoseconds(2.0));
        let trace = c.transient(&cfg).expect("RC transient should run");
        // At t = tau = 1 ns: 1 - 1/e ≈ 0.632.
        let v_tau = trace.voltage_at(out, Time::from_nanoseconds(1.0));
        assert!(approx_eq(v_tau.as_volts(), 0.632, 0.02), "v(tau) = {v_tau}");
    }

    #[test]
    fn backward_euler_also_converges_to_final_value() {
        let (c, out) = rc_circuit();
        let cfg = TransientConfig::new(Time::from_nanoseconds(8.0), Time::from_picoseconds(4.0))
            .with_integration(Integration::BackwardEuler);
        let trace = c.transient(&cfg).expect("RC transient should run");
        assert!(approx_eq(trace.last_voltage(out).as_volts(), 1.0, 1e-3));
    }

    #[test]
    fn initial_condition_holds_on_floating_cap() {
        // A capacitor to ground with no DC path keeps its seeded voltage.
        let mut c = Circuit::new();
        let store = c.node("store");
        c.capacitor(
            "C1",
            store,
            Circuit::GROUND,
            Capacitance::from_femtofarads(10.0),
        );
        let cfg = TransientConfig::new(Time::from_nanoseconds(1.0), Time::from_picoseconds(10.0))
            .with_initial_voltage(store, Voltage::from_volts(0.5));
        let trace = c.transient(&cfg).expect("floating cap should simulate");
        // GMIN discharge over 1 ns is negligible for 10 fF.
        assert!(approx_eq(trace.last_voltage(store).as_volts(), 0.5, 1e-6));
    }

    #[test]
    fn inverter_switches_dynamically() {
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
            Waveform::step_at(
                vdd,
                Time::from_picoseconds(50.0),
                Time::from_picoseconds(10.0),
            ),
        );
        c.fet("MP", nout, nin, nvdd, si::pfet(SiVtFlavor::Rvt).sized(w));
        c.fet(
            "MN",
            nout,
            nin,
            Circuit::GROUND,
            si::nfet(SiVtFlavor::Rvt).sized(w),
        );
        c.capacitor(
            "CL",
            nout,
            Circuit::GROUND,
            Capacitance::from_femtofarads(1.0),
        );
        let cfg = TransientConfig::new(Time::from_picoseconds(500.0), Time::from_picoseconds(0.25));
        let trace = c.transient(&cfg).expect("inverter transient should run");
        // Starts high (input low), ends low.
        assert!(
            trace
                .voltage_at(nout, Time::from_picoseconds(40.0))
                .as_volts()
                > 0.65
        );
        assert!(trace.last_voltage(nout).as_volts() < 0.05);
    }

    #[test]
    fn exact_multiple_stop_does_not_overshoot_a_step() {
        // 3 ns / 2 ps = 1500 exactly, but the f64 division can land at
        // 1500.0000000000002; the step count must still be 1500 (so the
        // trace holds 1501 points, t = 0 included).
        let (c, _) = rc_circuit();
        let cfg = TransientConfig::new(Time::from_nanoseconds(3.0), Time::from_picoseconds(2.0));
        let trace = c.transient(&cfg).expect("RC transient should run");
        assert_eq!(
            trace.len(),
            1501,
            "stop/h = 1500 exactly must run 1500 steps"
        );
        // A non-multiple stop still rounds up: 3.001 ns / 2 ps = 1500.5.
        let cfg = TransientConfig::new(Time::from_picoseconds(3001.0), Time::from_picoseconds(2.0));
        let trace = c.transient(&cfg).expect("RC transient should run");
        assert_eq!(trace.len(), 1502, "fractional stop/h still ceils");
    }

    #[test]
    fn tiny_fractional_final_step_still_ceils() {
        // stop/h = 1500.000001 is an intentional hair past 1500 steps —
        // far outside f64 division round-off — so it must ceil to 1501
        // steps, not get snapped down to 1500 by the exact-multiple snap.
        let (c, _) = rc_circuit();
        let cfg = TransientConfig::new(
            Time::from_picoseconds(3000.000002),
            Time::from_picoseconds(2.0),
        );
        let trace = c.transient(&cfg).expect("RC transient should run");
        assert_eq!(
            trace.len(),
            1502,
            "stop/h = 1500.000001 must run 1501 steps, not snap to 1500"
        );
    }

    /// An RC (tau = 100 ps) driven by a 1 V pulse train of period 1 ns: its
    /// output rises through 0.5 V near 70 ps, falls through it near 480 ps
    /// and rises through it again near 1.07 ns.
    fn pulsed_rc() -> (Circuit, crate::NodeId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        let ps = Time::from_picoseconds;
        c.voltage_source(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::pulse(
                Voltage::zero(),
                Voltage::from_volts(1.0),
                Time::zero(),
                ps(10.0),
                ps(10.0),
                ps(400.0),
                ps(1000.0),
            ),
        );
        c.resistor("R1", vin, vout, Resistance::from_kilo_ohms(1.0));
        c.capacitor(
            "C1",
            vout,
            Circuit::GROUND,
            Capacitance::from_femtofarads(100.0),
        );
        (c, vout)
    }

    #[test]
    fn transient_crossing_equals_the_full_window_crossing_bit_for_bit() {
        let (c, out) = pulsed_rc();
        let cfg = TransientConfig::new(Time::from_nanoseconds(2.0), Time::from_picoseconds(2.0));
        let full = c.transient(&cfg).expect("full window runs");
        let half = Voltage::from_volts(0.5);
        // Sample 30 (60 ps) lies on the first rise: a level equal to it is
        // reached exactly on that sample.
        let on_sample = Voltage::from_volts(full.samples(out)[30]);
        let after_first_rise = Time::from_picoseconds(200.0);
        let cases = [
            ("rising", half, Edge::Rising, Time::zero()),
            ("falling", half, Edge::Falling, Time::zero()),
            (
                "after skips the first rise",
                half,
                Edge::Rising,
                after_first_rise,
            ),
            (
                "either edge after the first rise",
                half,
                Edge::Either,
                after_first_rise,
            ),
            ("level on a sample", on_sample, Edge::Rising, Time::zero()),
            (
                "never crosses",
                Voltage::from_volts(1.5),
                Edge::Rising,
                Time::zero(),
            ),
        ];
        for (name, level, edge, after) in cases {
            let want = full.crossing(out, level, edge, after);
            let got = c
                .transient_crossing(&cfg, out, level, edge, after)
                .expect("cut transient runs");
            let bits = |t: Option<Time>| t.map(|t| t.as_seconds().to_bits());
            assert_eq!(bits(got), bits(want), "{name}");

            // The cut run stops on the step that completes the crossing's
            // segment, and its samples are the full run's, bit for bit.
            let (cut, _) = c
                .transient_to_crossing(&cfg, out, level, edge, after)
                .expect("cut transient runs");
            let steps = match want {
                Some(t) => {
                    let k = full
                        .times()
                        .iter()
                        .position(|&s| s >= t.as_seconds())
                        .expect("the crossing lies inside the window");
                    assert!(k >= 1, "{name}: no crossing at t = 0");
                    k
                }
                None => full.len() - 1,
            };
            assert_eq!(cut.len(), steps + 1, "{name}: steps taken");
            let prefix = |xs: &[f64]| {
                xs[..cut.len()]
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(prefix(cut.times()), prefix(full.times()), "{name}");
            assert_eq!(
                prefix(cut.samples(out)),
                prefix(full.samples(out)),
                "{name}"
            );
        }
    }

    #[test]
    fn transient_crossing_stops_on_the_completing_step() {
        // tau = 1 ns from a 1 V step: 50% at tau·ln 2 = 693.1 ps lies between
        // the 2 ps samples at 692 and 694 ps, so the run takes 347 of its
        // 1,500 steps.
        let (c, out) = rc_circuit();
        let cfg = TransientConfig::new(Time::from_nanoseconds(3.0), Time::from_picoseconds(2.0));
        let half = Voltage::from_volts(0.5);
        let (cut, t) = c
            .transient_to_crossing(&cfg, out, half, Edge::Rising, Time::zero())
            .expect("cut transient runs");
        let t = t.expect("crosses 50%");
        assert!(approx_eq(t.as_picoseconds(), 693.15, 1e-3), "t50 {t:?}");
        assert_eq!(cut.len(), 348, "347 steps plus the t = 0 sample");
    }

    #[test]
    fn invalid_axis_is_rejected() {
        let (c, _) = rc_circuit();
        let bad = TransientConfig::new(Time::zero(), Time::from_picoseconds(1.0));
        assert_eq!(c.transient(&bad), Err(SpiceError::InvalidTimeAxis));
    }
}
