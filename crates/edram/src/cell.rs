//! The 3T bit cell and its SPICE characterization.
//!
//! Topology (paper Fig. 3a): a write transistor connects the write bitline
//! (WBL) to the storage node (SN) under control of the write wordline
//! (WWL); a two-transistor read stack (SN-gated device in series with a
//! read-wordline device) discharges the read bitline (RBL) when the cell
//! holds a `1`.
//!
//! | | write FET | read stack | why |
//! |---|---|---|---|
//! | M3D | IGZO (overdriven WWL) | CNFET × 2 | ultra-low I_OFF retention + high I_EFF reads |
//! | all-Si | Si HVT | Si LVT × 2 | best leakage/drive split available in one Si flavor set |

use crate::organization::Organization;
use crate::EdramError;
use ppatc_device::{cnfet, igzo, si, Fet, SiVtFlavor};
use ppatc_pdk::wire::WireModel;
use ppatc_pdk::Technology;
use ppatc_spice::{Circuit, Edge, TransientConfig, Waveform};
use ppatc_units::{Capacitance, Current, Length, Time, Voltage};

/// Memory supply voltage (ASAP7-recommended, paper Step 2).
pub const VDD: Voltage = Voltage::new(0.7);

/// Write-wordline overdrive for the IGZO write FET (paper Step 2: 1.3 V).
pub const V_WWL_IGZO: Voltage = Voltage::new(1.3);

/// Write-wordline boost for the all-Si write FET. Must exceed
/// `V_DD + V_T(HVT)` to write a full `1` through the NMOS pass device.
pub const V_WWL_SI: Voltage = Voltage::new(1.1);

/// Negative hold voltage applied to an idle write wordline, suppressing
/// sub-threshold leakage of the write FET. IGZO eDRAM demonstrations hold
/// the WWL well below ground (≈ −1 V in Belmonte VLSI'23) to push the cell
/// onto its bandgap-limited leakage floor.
pub const V_HOLD_UNDER: Voltage = Voltage::new(0.7);

/// Storage-node capacitance (read-FET gate plus parasitics).
fn storage_cap(technology: Technology) -> Capacitance {
    match technology {
        // The planar Si cell adds a deliberate MOS cap to survive between
        // refreshes.
        Technology::AllSi => Capacitance::from_femtofarads(5.0),
        Technology::M3dIgzoCnfetSi => Capacitance::from_femtofarads(1.0),
    }
}

/// Cell transistor width.
fn cell_width() -> Length {
    Length::from_nanometers(80.0)
}

/// Cell-level timing measured by [`BitCell::characterize_timing`]. The
/// decoder/driver/sense-amplifier contribution is characterized separately
/// in [`crate::periphery`] and added by the macro model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellTiming {
    /// Storage-node write time through the write transistor.
    pub write_latency: Time,
    /// Bitline sense-margin development time through the read stack.
    pub read_latency: Time,
}

/// A technology-specific 3T bit cell.
#[derive(Clone, Debug)]
pub struct BitCell {
    technology: Technology,
    write_fet: Fet,
    read_gate_fet: Fet,
    read_select_fet: Fet,
    c_storage: Capacitance,
    v_wwl: Voltage,
}

impl BitCell {
    /// Builds the paper's cell for the given technology.
    pub fn for_technology(technology: Technology) -> Self {
        let w = cell_width();
        match technology {
            Technology::M3dIgzoCnfetSi => Self {
                technology,
                write_fet: igzo::nfet().sized(w),
                read_gate_fet: cnfet::nfet().sized(w),
                read_select_fet: cnfet::nfet().sized(w),
                c_storage: storage_cap(technology),
                v_wwl: V_WWL_IGZO,
            },
            Technology::AllSi => Self {
                technology,
                write_fet: si::nfet(SiVtFlavor::Hvt).sized(w),
                read_gate_fet: si::nfet(SiVtFlavor::Lvt).sized(w),
                read_select_fet: si::nfet(SiVtFlavor::Lvt).sized(w),
                c_storage: storage_cap(technology),
                v_wwl: V_WWL_SI,
            },
        }
    }

    /// Technology of this cell.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Returns the cell re-derived at an operating temperature (kelvin):
    /// retention collapses with the write FET's thermally activated leakage
    /// while access timing barely moves — the classic DRAM-at-85 °C story.
    ///
    /// # Panics
    ///
    /// Panics if `kelvin` is outside the device models' 200–500 K range.
    #[must_use]
    pub fn at_temperature(&self, kelvin: f64) -> Self {
        Self {
            technology: self.technology,
            write_fet: self.write_fet.at_temperature(kelvin),
            read_gate_fet: self.read_gate_fet.at_temperature(kelvin),
            read_select_fet: self.read_select_fet.at_temperature(kelvin),
            c_storage: self.c_storage,
            v_wwl: self.v_wwl,
        }
    }

    /// The write transistor.
    pub fn write_fet(&self) -> &Fet {
        &self.write_fet
    }

    /// Storage-node capacitance.
    pub fn storage_cap(&self) -> Capacitance {
        self.c_storage
    }

    /// Write-wordline high level.
    pub fn v_wwl(&self) -> Voltage {
        self.v_wwl
    }

    /// Storage-node hold current with the WWL held at `-V_HOLD_UNDER`.
    pub fn hold_leakage(&self) -> Current {
        self.write_fet.i_off_underdriven(VDD, V_HOLD_UNDER)
    }

    /// Leakage-limited retention time: the time for the storage node to sag
    /// by the 0.2 V sense margin at the hold leakage.
    ///
    /// A transient simulation of >1000 s is impractical at picosecond steps,
    /// so this is the standard charge-balance estimate `C·ΔV / I_leak` —
    /// the same first-order model behind the paper's >1000 s IGZO citation.
    pub fn retention(&self) -> Time {
        let margin = Voltage::from_volts(0.2);
        let leak = self.hold_leakage().as_amperes().max(1e-30);
        Time::from_seconds(self.c_storage.as_farads() * margin.as_volts() / leak)
    }

    /// Runs the write and read transient characterizations with the
    /// sub-array's wire parasitics.
    ///
    /// # Errors
    ///
    /// [`EdramError`] if a simulation fails or a transition never occurs.
    pub fn characterize_timing(&self, org: &Organization) -> Result<CellTiming, EdramError> {
        let write = self.simulate_write(org)?;
        let read = self.simulate_read(org)?;
        Ok(CellTiming {
            write_latency: write,
            read_latency: read,
        })
    }

    /// Write transient: WBL at V_DD, WWL pulsed to `v_wwl`; measures the
    /// time for SN to reach 90% of V_DD.
    fn simulate_write(&self, org: &Organization) -> Result<Time, EdramError> {
        let wwl_wire = WireModel::for_pitch(Length::from_nanometers(36.0))
            .segment(org.wordline_length(self.technology));
        let wbl_wire = WireModel::for_pitch(Length::from_nanometers(36.0))
            .segment(org.bitline_length(self.technology));

        let mut ckt = Circuit::new();
        let wbl_drv = ckt.node("wbl_drv");
        let wbl = ckt.node("wbl");
        let wwl = ckt.node("wwl");
        let sn = ckt.node("sn");
        ckt.voltage_source("VWBL", wbl_drv, Circuit::GROUND, Waveform::dc(VDD));
        ckt.resistor("RWBL", wbl_drv, wbl, wbl_wire.resistance);
        ckt.capacitor("CWBL", wbl, Circuit::GROUND, wbl_wire.capacitance);
        ckt.voltage_source(
            "VWWL",
            wwl,
            Circuit::GROUND,
            Waveform::step_at(
                self.v_wwl,
                Time::from_picoseconds(50.0),
                Time::from_picoseconds(20.0),
            ),
        );
        // WWL wire load is driven by the (ideal) wordline driver; its RC is
        // folded into the fixed periphery latency. Storage node starts at 0.
        ckt.fet("MW", wbl, wwl, sn, self.write_fet.clone());
        ckt.capacitor("CSN", sn, Circuit::GROUND, self.c_storage);
        let _ = wwl_wire; // WWL RC accounted in periphery latency

        let cfg = TransientConfig::new(Time::from_nanoseconds(3.0), Time::from_picoseconds(2.0))
            .with_initial_voltage(sn, Voltage::zero());
        let target = Voltage::from_volts(VDD.as_volts() * 0.9);
        let t = ckt
            .transient_crossing(&cfg, sn, target, Edge::Rising, Time::from_picoseconds(50.0))?
            .ok_or(EdramError::MissingTransition {
                what: "storage-node write",
            })?;
        Ok(t - Time::from_picoseconds(50.0))
    }

    /// Read transient: RBL precharged to V_DD with the full bitline load,
    /// SN holds a `1`; measures the time for the read stack to develop a
    /// 100 mV sense margin.
    fn simulate_read(&self, org: &Organization) -> Result<Time, EdramError> {
        let bl_wire = WireModel::for_pitch(Length::from_nanometers(36.0))
            .segment(org.bitline_length(self.technology));
        // Bitline load: wire plus one drain junction per cell on the column.
        let cells = f64::from(org.subarray_rows());
        let c_bl = Capacitance::from_farads(
            bl_wire.capacitance.as_farads()
                + cells * self.read_select_fet.drain_capacitance().as_farads(),
        );

        let mut ckt = Circuit::new();
        let rbl = ckt.node("rbl");
        let mid = ckt.node("mid");
        let sn = ckt.node("sn");
        let rwl = ckt.node("rwl");
        ckt.voltage_source("VSN", sn, Circuit::GROUND, Waveform::dc(VDD));
        ckt.voltage_source(
            "VRWL",
            rwl,
            Circuit::GROUND,
            Waveform::step_at(
                VDD,
                Time::from_picoseconds(50.0),
                Time::from_picoseconds(20.0),
            ),
        );
        // Stack: RBL → select FET → mid → gate FET (gated by SN) → GND.
        ckt.fet("MSEL", rbl, rwl, mid, self.read_select_fet.clone());
        ckt.fet(
            "MGATE",
            mid,
            sn,
            Circuit::GROUND,
            self.read_gate_fet.clone(),
        );
        ckt.capacitor("CRBL", rbl, Circuit::GROUND, c_bl);
        ckt.capacitor(
            "CMID",
            mid,
            Circuit::GROUND,
            Capacitance::from_attofarads(100.0),
        );

        let cfg = TransientConfig::new(Time::from_nanoseconds(1.5), Time::from_picoseconds(2.0))
            .with_initial_voltage(rbl, VDD);
        let sense = Voltage::from_volts(VDD.as_volts() - 0.1);
        let t = ckt
            .transient_crossing(
                &cfg,
                rbl,
                sense,
                Edge::Falling,
                Time::from_picoseconds(50.0),
            )?
            .ok_or(EdramError::MissingTransition {
                what: "bitline sense-margin",
            })?;
        Ok(t - Time::from_picoseconds(50.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn igzo_cell_retains_longer_than_si() {
        let m3d = BitCell::for_technology(Technology::M3dIgzoCnfetSi);
        let si = BitCell::for_technology(Technology::AllSi);
        assert!(m3d.retention().as_seconds() > 1e3);
        assert!(si.retention().as_seconds() < 1.0);
        assert!(si.retention().as_seconds() > 1e-5);
    }

    #[test]
    fn write_latency_fits_half_cycle() {
        let org = Organization::paper_default();
        for tech in Technology::ALL {
            let cell = BitCell::for_technology(tech);
            let t = cell
                .characterize_timing(&org)
                .expect("timing characterizes");
            assert!(
                t.write_latency.as_nanoseconds() < 2.0,
                "{tech}: write {:?}",
                t.write_latency
            );
            assert!(
                t.read_latency.as_nanoseconds() < 2.0,
                "{tech}: read {:?}",
                t.read_latency
            );
        }
    }

    #[test]
    fn cnfet_read_beats_si_read() {
        let org = Organization::paper_default();
        let m3d = BitCell::for_technology(Technology::M3dIgzoCnfetSi)
            .characterize_timing(&org)
            .expect("M3D timing");
        let si = BitCell::for_technology(Technology::AllSi)
            .characterize_timing(&org)
            .expect("Si timing");
        // Raw cell read development (minus the shared periphery constant)
        // favors the CNFET stack on a shorter bitline.
        assert!(m3d.read_latency <= si.read_latency);
    }

    #[test]
    fn hold_leakage_ordering() {
        let m3d = BitCell::for_technology(Technology::M3dIgzoCnfetSi);
        let si = BitCell::for_technology(Technology::AllSi);
        assert!(m3d.hold_leakage().as_amperes() < 1e-3 * si.hold_leakage().as_amperes());
    }
}
