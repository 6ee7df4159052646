//! Waveform traces and timing/energy measurements.

use crate::circuit::{Circuit, Element, ElementId, NodeId};
use crate::waveform::Waveform;
use ppatc_units::{Charge, Energy, Time, Voltage};

/// Signal-edge selector for crossing searches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edge {
    /// The signal crosses the level from below.
    Rising,
    /// The signal crosses the level from above.
    Falling,
    /// Either direction.
    Either,
}

/// The sampled result of a transient analysis.
///
/// Provides the measurements a characterisation flow needs: interpolated
/// node voltages, threshold-crossing times, delays between edges, and the
/// energy/charge delivered by each voltage source (how access energies are
/// extracted from the eDRAM netlists).
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    times: Vec<f64>,
    /// Node voltages indexed `[node.0][sample]`; ground row stays zero.
    volts: Vec<Vec<f64>>,
    /// Branch currents indexed `[branch][sample]`.
    branch: Vec<Vec<f64>>,
    /// Voltage-source metadata for energy integration.
    sources: Vec<(ElementId, usize, Waveform)>,
}

impl Trace {
    pub(crate) fn new(circuit: &Circuit, capacity: usize) -> Self {
        let sources = circuit
            .elements
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e {
                Element::VSource { wave, branch, .. } => {
                    Some((ElementId(i), *branch, wave.clone()))
                }
                _ => None,
            })
            .collect();
        Self {
            times: Vec::with_capacity(capacity),
            volts: vec![Vec::with_capacity(capacity); circuit.node_count()],
            branch: vec![Vec::with_capacity(capacity); circuit.n_branches],
            sources,
        }
    }

    pub(crate) fn record(&mut self, circuit: &Circuit, t: f64, x: &[f64]) {
        self.times.push(t);
        self.volts[0].push(0.0);
        for node_idx in 1..circuit.node_count() {
            self.volts[node_idx].push(x[node_idx - 1]);
        }
        for b in 0..circuit.n_branches {
            self.branch[b].push(x[circuit.branch_index(b)]);
        }
    }

    /// Number of samples (time points).
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The sampled time axis, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The raw samples of one node, in volts.
    pub fn samples(&self, node: NodeId) -> &[f64] {
        &self.volts[node.0]
    }

    /// Linearly interpolated voltage of `node` at time `t` (clamped to the
    /// simulated interval).
    pub fn voltage_at(&self, node: NodeId, t: Time) -> Voltage {
        let ts = t.as_seconds();
        let v = &self.volts[node.0];
        if self.times.is_empty() {
            return Voltage::zero();
        }
        if ts <= self.times[0] {
            return Voltage::from_volts(v[0]);
        }
        match self.times.windows(2).position(|w| ts <= w[1]) {
            Some(k) => {
                let (t0, t1) = (self.times[k], self.times[k + 1]);
                let frac = if t1 > t0 { (ts - t0) / (t1 - t0) } else { 1.0 };
                Voltage::from_volts(v[k] + (v[k + 1] - v[k]) * frac)
            }
            None => Voltage::from_volts(v.last().copied().unwrap_or(0.0)),
        }
    }

    /// Voltage of `node` at the final sample.
    pub fn last_voltage(&self, node: NodeId) -> Voltage {
        Voltage::from_volts(*self.volts[node.0].last().unwrap_or(&0.0))
    }

    /// Extreme voltages of `node` over the whole trace.
    pub fn voltage_range(&self, node: NodeId) -> (Voltage, Voltage) {
        let v = &self.volts[node.0];
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (Voltage::from_volts(lo), Voltage::from_volts(hi))
    }

    /// First time after `after` at which `node` crosses `level` with the
    /// requested [`Edge`], linearly interpolated. `None` if it never does.
    pub fn crossing(&self, node: NodeId, level: Voltage, edge: Edge, after: Time) -> Option<Time> {
        (0..self.times.len().saturating_sub(1))
            .find_map(|k| self.segment_crossing(node, k, level, edge, after))
    }

    /// The crossing on the segment from sample `k` to sample `k + 1`, if
    /// that segment holds one that qualifies: `level` passed with `edge`,
    /// interpolated between the segment's two samples, at or after `after`.
    /// This is the one definition of a crossing: [`Trace::crossing`] applies
    /// it to every segment in time order, and [`Circuit::transient_crossing`]
    /// to the newest segment after each step.
    pub(crate) fn segment_crossing(
        &self,
        node: NodeId,
        k: usize,
        level: Voltage,
        edge: Edge,
        after: Time,
    ) -> Option<Time> {
        let lvl = level.as_volts();
        let start = after.as_seconds();
        let (t0, t1) = (self.times[k], self.times[k + 1]);
        if t1 < start {
            return None;
        }
        let v = &self.volts[node.0];
        let (v0, v1) = (v[k], v[k + 1]);
        let rising = v0 < lvl && v1 >= lvl;
        let falling = v0 > lvl && v1 <= lvl;
        let hit = match edge {
            Edge::Rising => rising,
            Edge::Falling => falling,
            Edge::Either => rising || falling,
        };
        if !hit {
            return None;
        }
        let frac = if (v1 - v0).abs() > 0.0 {
            (lvl - v0) / (v1 - v0)
        } else {
            0.0
        };
        let t_cross = t0 + (t1 - t0) * frac;
        (t_cross >= start).then_some(Time::from_seconds(t_cross))
    }

    /// Delay from `from` crossing `from_level` to the *next* `to` crossing
    /// `to_level`, or `None` if either crossing is missing.
    pub fn delay(
        &self,
        from: NodeId,
        from_level: Voltage,
        from_edge: Edge,
        to: NodeId,
        to_level: Voltage,
        to_edge: Edge,
    ) -> Option<Time> {
        let t0 = self.crossing(from, from_level, from_edge, Time::zero())?;
        let t1 = self.crossing(to, to_level, to_edge, t0)?;
        Some(t1 - t0)
    }

    /// Energy delivered *by* the voltage source `source` over the trace
    /// (trapezoidal integral of `−v·i_branch`).
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a voltage source of this circuit.
    pub fn source_energy(&self, source: ElementId) -> Energy {
        let (branch, wave) = self.source_branch(source);
        let mut e = 0.0;
        for k in 0..self.times.len().saturating_sub(1) {
            let dt = self.times[k + 1] - self.times[k];
            let p0 = -wave.at(self.times[k]) * self.branch[branch][k];
            let p1 = -wave.at(self.times[k + 1]) * self.branch[branch][k + 1];
            e += 0.5 * (p0 + p1) * dt;
        }
        Energy::from_joules(e)
    }

    /// Charge delivered *by* the voltage source `source` over the trace.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a voltage source of this circuit.
    pub fn source_charge(&self, source: ElementId) -> Charge {
        let (branch, _) = self.source_branch(source);
        let mut q = 0.0;
        for k in 0..self.times.len().saturating_sub(1) {
            let dt = self.times[k + 1] - self.times[k];
            q += -0.5 * (self.branch[branch][k] + self.branch[branch][k + 1]) * dt;
        }
        Charge::from_coulombs(q)
    }

    /// # Panics
    ///
    /// If `source` does not name a voltage source in this result.
    fn source_branch(&self, source: ElementId) -> (usize, &Waveform) {
        self.sources
            .iter()
            .find(|(id, _, _)| *id == source)
            .map(|(_, b, w)| (*b, w))
            .unwrap_or_else(|| panic!("element {source:?} is not a voltage source"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, TransientConfig};
    use ppatc_units::{approx_eq, Capacitance, Resistance};

    fn charged_rc() -> (Circuit, NodeId, ElementId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vout = c.node("out");
        let src = c.voltage_source(
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
            Capacitance::from_femtofarads(100.0),
        );
        (c, vout, src)
    }

    #[test]
    fn crossing_and_delay() {
        let (c, out, _) = charged_rc();
        let cfg = TransientConfig::new(Time::from_nanoseconds(1.0), Time::from_picoseconds(1.0));
        let trace = c.transient(&cfg).expect("transient should run");
        let t50 = trace
            .crossing(out, Voltage::from_volts(0.5), Edge::Rising, Time::zero())
            .expect("should cross 50%");
        // RC = 100 ps; 50% crossing at 0.693·RC ≈ 69.3 ps.
        assert!(approx_eq(t50.as_picoseconds(), 69.3, 0.05), "t50 {t50:?}");
        // No falling crossing ever happens.
        assert!(trace
            .crossing(out, Voltage::from_volts(0.5), Edge::Falling, Time::zero())
            .is_none());
    }

    #[test]
    fn source_energy_charging_a_cap() {
        let (c, _, src) = charged_rc();
        // Fully charge: >> 5 tau.
        let cfg = TransientConfig::new(Time::from_nanoseconds(2.0), Time::from_picoseconds(1.0));
        let trace = c.transient(&cfg).expect("transient should run");
        // An ideal source charging C to V through R delivers C·V² total
        // (half stored, half burned in R): 100 fF × 1 V² = 100 fJ.
        let e = trace.source_energy(src);
        assert!(approx_eq(e.as_femtojoules(), 100.0, 0.02), "E = {e:?}");
        let q = trace.source_charge(src);
        assert!(approx_eq(q.as_femtocoulombs(), 100.0, 0.02), "Q = {q:?}");
    }

    #[test]
    fn voltage_range_and_interp() {
        let (c, out, _) = charged_rc();
        let cfg = TransientConfig::new(Time::from_nanoseconds(1.0), Time::from_picoseconds(1.0));
        let trace = c.transient(&cfg).expect("transient should run");
        let (lo, hi) = trace.voltage_range(out);
        assert!(lo.as_volts() >= -1e-9);
        assert!(hi.as_volts() <= 1.0 + 1e-9);
        // Interpolation clamps beyond the simulated window.
        let v_end = trace.voltage_at(out, Time::from_nanoseconds(99.0));
        assert!(approx_eq(
            v_end.as_volts(),
            trace.last_voltage(out).as_volts(),
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "not a voltage source")]
    fn energy_of_non_source_panics() {
        let (c, _, _) = charged_rc();
        let cfg = TransientConfig::new(Time::from_nanoseconds(0.1), Time::from_picoseconds(1.0));
        let trace = c.transient(&cfg).expect("transient should run");
        let _ = trace.source_energy(ElementId(1)); // R1
    }
}
