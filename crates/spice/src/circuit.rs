//! Netlist construction and MNA stamping.

use crate::solver::LinearSystem;
use crate::waveform::Waveform;
use ppatc_device::{Fet, VsDerived};
use ppatc_units::{Capacitance, Resistance};

/// Identifies a node in a [`Circuit`]. Obtain via [`Circuit::node`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Identifies an element in a [`Circuit`]; returned by the element builders
/// and consumed by per-element measurements such as
/// [`Trace::source_energy`](crate::Trace::source_energy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// Minimum conductance from every node to ground (helps convergence and
/// pins truly floating nodes), in siemens.
pub(crate) const GMIN: f64 = 1e-12;

/// Perturbation used for numeric FET derivatives, in volts.
const DERIV_DV: f64 = 1e-6;

#[derive(Clone, Debug)]
pub(crate) enum Element {
    Resistor {
        a: NodeId,
        b: NodeId,
        ohms: f64,
    },
    Capacitor {
        a: NodeId,
        b: NodeId,
        farads: f64,
    },
    /// Ideal voltage source from `p` (positive) to `n`; `branch` is the
    /// index of its current unknown.
    VSource {
        p: NodeId,
        n: NodeId,
        wave: Waveform,
        branch: usize,
    },
    /// Independent current source driving `value` amperes from `p` to `n`
    /// (i.e. out of node `p`, into node `n` through the external circuit).
    ISource {
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    },
    Fet {
        d: NodeId,
        g: NodeId,
        s: NodeId,
        fet: Fet,
    },
}

/// One pre-resolved stamp instruction. Node lookups, conductances, and the
/// FET's bias-independent model intermediates are resolved at
/// [`StampPlan::compile`] time; only terminal voltages (and, for sources,
/// the waveform value refreshed by [`StampPlan::set_sources`]) vary at
/// replay time.
#[derive(Clone, Debug)]
pub(crate) enum PlanOp {
    /// A two-terminal conductance (resistor).
    Conductance {
        ia: Option<usize>,
        ib: Option<usize>,
        g: f64,
    },
    /// A capacitor slot: stamped only when a transient companion model is
    /// supplied, indexed by the capacitor's position among capacitors.
    Cap {
        ia: Option<usize>,
        ib: Option<usize>,
        cap_idx: usize,
    },
    /// An ideal voltage source; `value` holds `wave.at(t)`.
    VSource {
        ip: Option<usize>,
        in_: Option<usize>,
        bi: usize,
        value: f64,
    },
    /// An independent current source; `value` as for `VSource`.
    ISource {
        ip: Option<usize>,
        in_: Option<usize>,
        value: f64,
    },
    /// A FET: terminal rows, width, and the model's cached bias-independent
    /// intermediates ([`VsDerived`]).
    Fet {
        di: Option<usize>,
        gi: Option<usize>,
        si: Option<usize>,
        w: f64,
        derived: VsDerived,
    },
}

/// A compiled stamp program for one circuit topology: one [`PlanOp`] per
/// element, replayed in element-insertion order so every `+=` into the MNA
/// system happens in exactly the order the interpretive
/// element-by-element walk used to perform it — f64 accumulation is not
/// associative, and the paper exhibits are pinned byte-for-byte.
///
/// The plan is valid for the lifetime of a topology (element list, node
/// set, and element parameters); any circuit edit requires recompiling.
/// Per-call quantities stay out of the cache: source values are refreshed
/// by [`StampPlan::set_sources`] per time point, and the capacitor
/// companion models are a replay argument.
#[derive(Clone, Debug)]
pub(crate) struct StampPlan {
    ops: Vec<PlanOp>,
    /// Non-ground node count (rows receiving the GMIN diagonal).
    n_nodes: usize,
}

impl StampPlan {
    /// Compiles the circuit's current topology into a stamp program.
    pub fn compile(circuit: &Circuit) -> Self {
        let mut cap_idx = 0usize;
        let ops = circuit
            .elements
            .iter()
            .map(|e| match e {
                Element::Resistor { a, b, ohms } => PlanOp::Conductance {
                    ia: circuit.node_index(*a),
                    ib: circuit.node_index(*b),
                    g: 1.0 / ohms,
                },
                Element::Capacitor { a, b, .. } => {
                    let op = PlanOp::Cap {
                        ia: circuit.node_index(*a),
                        ib: circuit.node_index(*b),
                        cap_idx,
                    };
                    cap_idx += 1;
                    op
                }
                Element::VSource { p, n, branch, .. } => PlanOp::VSource {
                    ip: circuit.node_index(*p),
                    in_: circuit.node_index(*n),
                    bi: circuit.branch_index(*branch),
                    value: 0.0,
                },
                Element::ISource { p, n, .. } => PlanOp::ISource {
                    ip: circuit.node_index(*p),
                    in_: circuit.node_index(*n),
                    value: 0.0,
                },
                Element::Fet { d, g, s, fet } => PlanOp::Fet {
                    di: circuit.node_index(*d),
                    gi: circuit.node_index(*g),
                    si: circuit.node_index(*s),
                    w: fet.width().as_meters(),
                    derived: fet.model().derive(),
                },
            })
            .collect();
        Self {
            ops,
            n_nodes: circuit.node_count() - 1,
        }
    }

    /// Refreshes the cached source values for time `t`. Newton iterates at
    /// a fixed `t`, so this runs once per solve rather than once per
    /// iteration.
    pub fn set_sources(&mut self, circuit: &Circuit, t: f64) {
        for (op, e) in self.ops.iter_mut().zip(&circuit.elements) {
            match (op, e) {
                (PlanOp::VSource { value, .. }, Element::VSource { wave, .. })
                | (PlanOp::ISource { value, .. }, Element::ISource { wave, .. }) => {
                    *value = wave.at(t);
                }
                _ => {}
            }
        }
    }
}

/// A flat transistor-level netlist.
///
/// Nodes are created by name with [`Circuit::node`]; the ground node is
/// [`Circuit::GROUND`]. Elements are added with the builder methods, each
/// returning an [`ElementId`].
#[derive(Clone, Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    pub(crate) elements: Vec<Element>,
    element_names: Vec<String>,
    pub(crate) n_branches: usize,
}

impl Circuit {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty circuit containing only the ground node.
    pub fn new() -> Self {
        Self {
            node_names: vec!["0".to_string()],
            elements: Vec::new(),
            element_names: Vec::new(),
            n_branches: 0,
        }
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"`, `"gnd"`, and `"GND"` alias the ground node.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GROUND;
        }
        if let Some(idx) = self.node_names.iter().position(|n| n == name) {
            return NodeId(idx);
        }
        self.node_names.push(name.to_string());
        NodeId(self.node_names.len() - 1)
    }

    /// Name of a node (for diagnostics).
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    fn push(&mut self, name: &str, e: Element) -> ElementId {
        self.elements.push(e);
        self.element_names.push(name.to_string());
        ElementId(self.elements.len() - 1)
    }

    /// Adds a resistor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the resistance is not positive.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, r: Resistance) -> ElementId {
        assert!(r.as_ohms() > 0.0, "resistance must be positive");
        self.push(
            name,
            Element::Resistor {
                a,
                b,
                ohms: r.as_ohms(),
            },
        )
    }

    /// Adds a capacitor between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is negative.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, c: Capacitance) -> ElementId {
        assert!(c.as_farads() >= 0.0, "capacitance must be non-negative");
        self.push(
            name,
            Element::Capacitor {
                a,
                b,
                farads: c.as_farads(),
            },
        )
    }

    /// Adds an ideal voltage source; `p` is the positive terminal.
    pub fn voltage_source(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> ElementId {
        let branch = self.n_branches;
        self.n_branches += 1;
        self.push(name, Element::VSource { p, n, wave, branch })
    }

    /// Adds an independent current source driving current from `p` to `n`.
    pub fn current_source(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        wave: Waveform,
    ) -> ElementId {
        self.push(name, Element::ISource { p, n, wave })
    }

    /// Adds a FET with drain `d`, gate `g`, source `s`. The body/back-gate is
    /// implicitly tied to the source. Device capacitances are *not* added
    /// automatically — attach explicit capacitors where loading matters.
    pub fn fet(&mut self, name: &str, d: NodeId, g: NodeId, s: NodeId, fet: Fet) -> ElementId {
        self.push(name, Element::Fet { d, g, s, fet })
    }

    /// Number of MNA unknowns: node voltages (minus ground) + source branches.
    pub(crate) fn unknowns(&self) -> usize {
        self.node_names.len() - 1 + self.n_branches
    }

    /// Row/column of a node in the MNA system; `None` for ground.
    #[inline]
    pub(crate) fn node_index(&self, node: NodeId) -> Option<usize> {
        if node.0 == 0 {
            None
        } else {
            Some(node.0 - 1)
        }
    }

    /// Row/column of a voltage-source branch unknown.
    #[inline]
    pub(crate) fn branch_index(&self, branch: usize) -> usize {
        self.node_names.len() - 1 + branch
    }

    /// Voltage of `node` in an unknown vector `x`.
    #[inline]
    pub(crate) fn voltage_of(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_index(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Replays a compiled [`StampPlan`] to stamp the linearised MNA system
    /// around the candidate solution `x`. `cap_companion` provides
    /// (g_eq, i_eq) per capacitor for transient analysis; `None` treats
    /// capacitors as open (DC).
    ///
    /// Every non-ground node gets the [`GMIN`] shunt to ground. Source
    /// values must have been refreshed with [`StampPlan::set_sources`] for
    /// the solve's time.
    ///
    /// Every `+=` lands in the same order the pre-plan interpretive walk
    /// used: op replay follows element-insertion order, and the per-element
    /// add sequences are identical — keeping accumulated matrix entries
    /// bit-for-bit equal to the historical path.
    pub(crate) fn stamp_planned(
        &self,
        sys: &mut LinearSystem,
        plan: &StampPlan,
        x: &[f64],
        cap_companion: Option<&[(f64, f64)]>,
    ) {
        sys.clear();
        // GMIN to ground on every non-ground node.
        for i in 0..plan.n_nodes {
            sys.add(i, i, GMIN);
        }

        for (op, e) in plan.ops.iter().zip(&self.elements) {
            match op {
                PlanOp::Conductance { ia, ib, g } => {
                    stamp_conductance_idx(sys, *ia, *ib, *g);
                }
                PlanOp::Cap { ia, ib, cap_idx } => {
                    if let Some(companion) = cap_companion {
                        let (g_eq, i_eq) = companion[*cap_idx];
                        stamp_conductance_idx(sys, *ia, *ib, g_eq);
                        // i_eq flows from a to b inside the companion source.
                        if let Some(ia) = ia {
                            sys.add_rhs(*ia, -i_eq);
                        }
                        if let Some(ib) = ib {
                            sys.add_rhs(*ib, i_eq);
                        }
                    }
                }
                PlanOp::VSource { ip, in_, bi, value } => {
                    if let Some(ip) = ip {
                        sys.add(*ip, *bi, 1.0);
                        sys.add(*bi, *ip, 1.0);
                    }
                    if let Some(in_) = in_ {
                        sys.add(*in_, *bi, -1.0);
                        sys.add(*bi, *in_, -1.0);
                    }
                    sys.add_rhs(*bi, *value);
                }
                PlanOp::ISource { ip, in_, value } => {
                    if let Some(ip) = ip {
                        sys.add_rhs(*ip, -value);
                    }
                    if let Some(in_) = in_ {
                        sys.add_rhs(*in_, *value);
                    }
                }
                PlanOp::Fet {
                    di,
                    gi,
                    si,
                    w,
                    derived,
                } => {
                    let Element::Fet { fet, .. } = e else {
                        debug_assert!(false, "plan op out of sync with element list");
                        continue;
                    };
                    let vd = di.map_or(0.0, |i| x[i]);
                    let vg = gi.map_or(0.0, |i| x[i]);
                    let vs = si.map_or(0.0, |i| x[i]);
                    let (vgs, vds) = (vg - vs, vd - vs);
                    // One fused evaluation shares the bias-independent and
                    // drain-bias intermediates across the operating point
                    // and both derivative probes (bit-identical to three
                    // scalar model calls).
                    let (i0, ig_probe, id_probe) = fet
                        .model()
                        .current_triplet_per_width(derived, vgs, vds, DERIV_DV);
                    let id0 = i0 * w;
                    let gm = (ig_probe * w - id0) / DERIV_DV;
                    let gds = (id_probe * w - id0) / DERIV_DV;
                    // Norton companion: i_eq = I(v) - gm·vgs - gds·vds, current d→s.
                    let i_eq = id0 - gm * vgs - gds * vds;
                    if let Some(di) = di {
                        if let Some(gi) = gi {
                            sys.add(*di, *gi, gm);
                        }
                        sys.add(*di, *di, gds);
                        if let Some(si) = si {
                            sys.add(*di, *si, -(gm + gds));
                        }
                        sys.add_rhs(*di, -i_eq);
                    }
                    if let Some(si) = si {
                        if let Some(gi) = gi {
                            sys.add(*si, *gi, -gm);
                        }
                        if let Some(di) = di {
                            sys.add(*si, *di, -gds);
                        }
                        sys.add(*si, *si, gm + gds);
                        sys.add_rhs(*si, i_eq);
                    }
                }
            }
        }
    }

    /// Compiles this circuit's topology into a reusable [`StampPlan`].
    pub(crate) fn stamp_plan(&self) -> StampPlan {
        StampPlan::compile(self)
    }

    /// Drain current of FET element `element` evaluated at a solved unknown
    /// vector (e.g. the result of [`Circuit::dc_operating_point`]).
    /// Returns `None` if `element` is not a FET.
    pub fn fet_current(&self, element: ElementId, x: &[f64]) -> Option<ppatc_units::Current> {
        if let Element::Fet { d, g, s, fet } = &self.elements[element.0] {
            let vgs = self.voltage_of(x, *g) - self.voltage_of(x, *s);
            let vds = self.voltage_of(x, *d) - self.voltage_of(x, *s);
            Some(ppatc_units::Current::from_amperes(
                fet.model().current_per_width(vgs, vds) * fet.width().as_meters(),
            ))
        } else {
            None
        }
    }
}

/// Stamps a two-terminal conductance between pre-resolved rows (in the
/// same four-add order the original `stamp_conductance` used).
#[inline]
fn stamp_conductance_idx(sys: &mut LinearSystem, ia: Option<usize>, ib: Option<usize>, g: f64) {
    if let Some(ia) = ia {
        sys.add(ia, ia, g);
        if let Some(ib) = ib {
            sys.add(ia, ib, -g);
        }
    }
    if let Some(ib) = ib {
        sys.add(ib, ib, g);
        if let Some(ia) = ia {
            sys.add(ib, ia, -g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::Voltage;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GROUND);
        assert_eq!(c.node("gnd"), Circuit::GROUND);
        assert_eq!(c.node("GND"), Circuit::GROUND);
    }

    #[test]
    fn node_names_are_interned() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a), "a");
    }

    #[test]
    fn unknown_layout() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(1.0)),
        );
        c.resistor("R1", a, b, Resistance::from_ohms(1.0));
        assert_eq!(c.unknowns(), 3); // two nodes + one branch
        assert_eq!(c.node_index(Circuit::GROUND), None);
        assert_eq!(c.node_index(a), Some(0));
        assert_eq!(c.branch_index(0), 2);
    }

    #[test]
    #[should_panic(expected = "resistance must be positive")]
    fn zero_resistance_panics() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GROUND, Resistance::from_ohms(0.0));
    }
}
