//! A small modified-nodal-analysis (MNA) circuit simulator.
//!
//! The PPAtC paper validates eDRAM timing with "SPICE simulations of eDRAM
//! circuit netlists (including wire parasitics)". This crate is that
//! substrate: a compact, dependency-free circuit solver sufficient for the
//! bit-cell and peripheral-circuit transient analyses the carbon models
//! consume.
//!
//! Supported elements: resistors, capacitors, independent voltage and
//! current sources (DC / pulse / piece-wise-linear waveforms), and nonlinear
//! FETs through the [`ppatc_device`] virtual-source model (quasi-static:
//! device capacitances are added to the netlist as explicit capacitors,
//! which is how the eDRAM macro model builds its netlists).
//!
//! Analyses:
//! - [`Circuit::dc_operating_point`] — damped Newton–Raphson with GMIN
//!   regularisation.
//! - [`Circuit::transient`] — fixed-step backward-Euler / trapezoidal
//!   integration with a Newton solve per step, producing a [`Trace`] with
//!   delay/slew/charge/energy measurement helpers.
//!
//! # Example: RC low-pass step response
//!
//! ```
//! use ppatc_spice::{Circuit, TransientConfig, Waveform};
//! use ppatc_units::{Capacitance, Resistance, Time, Voltage};
//!
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let vout = ckt.node("out");
//! ckt.voltage_source("V1", vin, Circuit::GROUND, Waveform::step(Voltage::from_volts(1.0)));
//! ckt.resistor("R1", vin, vout, Resistance::from_kilo_ohms(1.0));
//! ckt.capacitor("C1", vout, Circuit::GROUND, Capacitance::from_femtofarads(1000.0));
//!
//! // tau = 1 ns; simulate 5 tau.
//! let cfg = TransientConfig::new(Time::from_nanoseconds(5.0), Time::from_picoseconds(5.0));
//! let trace = ckt.transient(&cfg)?;
//! let v_end = trace.last_voltage(vout);
//! assert!((v_end.as_volts() - 1.0).abs() < 0.01);
//! # Ok::<(), ppatc_spice::SpiceError>(())
//! ```

#![warn(missing_docs)]

mod circuit;
mod dc;
mod error;
mod measure;
mod solver;
mod transient;
mod waveform;

pub use circuit::{Circuit, ElementId, NodeId};
pub use dc::recovery_counters;
pub use error::SpiceError;
pub use measure::{Edge, Trace};
pub use transient::{Integration, TransientConfig};
pub use waveform::Waveform;
