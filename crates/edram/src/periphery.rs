//! Periphery characterization: decoder, wordline driver, and sense
//! amplifier, derived from the standard-cell library and SPICE rather than
//! assumed.
//!
//! The access path of the paper's Fig. 3b macro is
//!
//! ```text
//! address → row decoder → wordline driver → cell (simulated in `cell`)
//!                                            → bitline → sense amplifier
//! ```
//!
//! - the **decoder** is a `log₂(words)`-deep NAND tree characterized from
//!   the [`ppatc_pdk::stdcell`] library;
//! - the **wordline driver** is an upsized inverter driving the wordline's
//!   wire + gate load;
//! - the **sense amplifier** is a latch-type cross-coupled pair whose
//!   regeneration time is measured by transient simulation from the 100 mV
//!   input split the cell develops.

use crate::organization::Organization;
use crate::EdramError;
use ppatc_device::{si, SiVtFlavor};
use ppatc_pdk::stdcell::{CellKind, StdCellLibrary};
use ppatc_pdk::wire::WireModel;
use ppatc_pdk::Technology;
use ppatc_spice::{Circuit, Edge, TransientConfig, Waveform};
use ppatc_units::{Capacitance, Length, Time, Voltage};

/// Wordline-driver upsizing relative to the x1 inverter.
const WL_DRIVER_SIZE: f64 = 8.0;

/// Sense-amplifier device width.
fn sa_width() -> Length {
    Length::from_nanometers(120.0)
}

/// The characterized periphery timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeripheryTiming {
    /// Row-decoder delay (NAND tree).
    pub decode: Time,
    /// Wordline driver + wire RC delay.
    pub wordline: Time,
    /// Sense-amplifier regeneration time from a 100 mV split.
    pub sense: Time,
    /// Clocking/margin overhead (setup, timing margins).
    pub margin: Time,
}

impl PeripheryTiming {
    /// Total periphery contribution to an access.
    pub fn total(&self) -> Time {
        self.decode + self.wordline + self.sense + self.margin
    }
}

/// Characterizes the periphery for a macro organization in a technology
/// (the periphery is Si CMOS in both processes; only the wordline load
/// differs through the cell geometry).
///
/// # Errors
///
/// Returns [`EdramError`] if the sense-amplifier simulation fails.
pub fn characterize(
    technology: Technology,
    org: &Organization,
) -> Result<PeripheryTiming, EdramError> {
    let lib = StdCellLibrary::asap7(SiVtFlavor::Rvt);

    // Decoder: a NAND tree resolving log2(words) address bits, fanout-4
    // loading between stages.
    let nand = lib.cell(CellKind::Nand2);
    let stages = (f64::from(org.words())).log2().ceil();
    let stage_delay = nand.delay(nand.input_cap() * 4.0);
    let decode = stage_delay * stages;

    // Wordline driver: an upsized inverter into the wordline wire plus the
    // write-FET gates hanging on it.
    let inv = lib.cell(CellKind::Inverter);
    let wire = WireModel::for_pitch(Length::from_nanometers(36.0))
        .segment(org.wordline_length(technology));
    let cell = crate::cell::BitCell::for_technology(technology);
    let c_wl = Capacitance::from_farads(
        wire.capacitance.as_farads()
            + f64::from(org.subarray_cols()) * cell.write_fet().gate_capacitance().as_farads(),
    );
    // Distributed wire RC adds the Elmore half-term.
    let wordline = Time::from_seconds(
        inv.intrinsic_delay().as_seconds()
            + inv.drive_resistance().as_ohms() / WL_DRIVER_SIZE * c_wl.as_farads()
            + 0.5 * wire.resistance.as_ohms() * wire.capacitance.as_farads(),
    );

    let sense = simulate_sense_amp(technology, org)?;

    Ok(PeripheryTiming {
        decode,
        wordline,
        sense,
        margin: Time::from_picoseconds(100.0),
    })
}

/// Transient simulation of the latch-type sense amplifier: bitlines
/// precharged with a 100 mV split, cross-coupled pair enabled at t = 50 ps,
/// regeneration measured until the falling side passes 10% of V_DD.
fn simulate_sense_amp(technology: Technology, org: &Organization) -> Result<Time, EdramError> {
    let vdd = Voltage::from_volts(0.7);
    let w = sa_width();
    let nfet = si::nfet(SiVtFlavor::Lvt).sized(w);
    let pfet = si::pfet(SiVtFlavor::Lvt).sized(w);

    // Bitline load on each side of the amplifier.
    let bl_wire =
        WireModel::for_pitch(Length::from_nanometers(36.0)).segment(org.bitline_length(technology));
    let cell = crate::cell::BitCell::for_technology(technology);
    let c_bl = Capacitance::from_farads(
        bl_wire.capacitance.as_farads()
            + f64::from(org.subarray_rows()) * cell.write_fet().drain_capacitance().as_farads(),
    );

    let mut ckt = Circuit::new();
    let nvdd = ckt.node("vdd");
    let blt = ckt.node("blt");
    let blc = ckt.node("blc");
    let sen = ckt.node("sen");
    ckt.voltage_source("VDD", nvdd, Circuit::GROUND, Waveform::dc(vdd));
    // Sense-enable tail: held at VDD (off), yanked to ground at 50 ps.
    ckt.voltage_source(
        "VSEN",
        sen,
        Circuit::GROUND,
        Waveform::fall_at(
            vdd,
            Time::from_picoseconds(50.0),
            Time::from_picoseconds(10.0),
        ),
    );
    // Cross-coupled NMOS pair into the tail.
    ckt.fet("MN1", blt, blc, sen, nfet.clone());
    ckt.fet("MN2", blc, blt, sen, nfet);
    // Cross-coupled PMOS pair to the rail.
    ckt.fet("MP1", blt, blc, nvdd, pfet.clone());
    ckt.fet("MP2", blc, blt, nvdd, pfet);
    ckt.capacitor("CBLT", blt, Circuit::GROUND, c_bl);
    ckt.capacitor("CBLC", blc, Circuit::GROUND, c_bl);

    let cfg = TransientConfig::new(Time::from_nanoseconds(2.0), Time::from_picoseconds(1.0))
        .without_dc()
        .with_initial_voltage(blt, vdd)
        .with_initial_voltage(blc, Voltage::from_volts(vdd.as_volts() - 0.1))
        .with_initial_voltage(sen, vdd);
    let t = ckt
        .transient_crossing(
            &cfg,
            blc,
            Voltage::from_volts(0.1 * vdd.as_volts()),
            Edge::Falling,
            Time::from_picoseconds(50.0),
        )?
        .ok_or(EdramError::MissingTransition {
            what: "sense-amplifier regeneration",
        })?;
    Ok(t - Time::from_picoseconds(50.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(tech: Technology) -> PeripheryTiming {
        characterize(tech, &Organization::paper_default()).expect("periphery characterizes")
    }

    #[test]
    fn components_are_plausible() {
        let t = timing(Technology::AllSi);
        assert!(t.decode.as_picoseconds() > 20.0 && t.decode.as_picoseconds() < 400.0);
        assert!(t.wordline.as_picoseconds() > 1.0 && t.wordline.as_picoseconds() < 200.0);
        assert!(t.sense.as_picoseconds() > 10.0 && t.sense.as_picoseconds() < 1000.0);
        let total = t.total().as_picoseconds();
        assert!(
            total > 100.0 && total < 1200.0,
            "periphery total {total} ps"
        );
    }

    #[test]
    fn sense_amp_regenerates_faster_on_short_bitlines() {
        // The M3D array's smaller cells make shorter bitlines → less load
        // on the amplifier.
        let si = timing(Technology::AllSi);
        let m3d = timing(Technology::M3dIgzoCnfetSi);
        assert!(m3d.sense <= si.sense);
    }

    #[test]
    fn decoder_depth_follows_capacity() {
        let small = characterize(
            Technology::AllSi,
            &Organization::new(8 * 1024, 2 * 1024, 32),
        )
        .expect("characterizes");
        let large =
            characterize(Technology::AllSi, &Organization::paper_default()).expect("characterizes");
        assert!(small.decode < large.decode);
    }

    #[test]
    fn sense_amp_is_regenerative_not_linear() {
        // Regeneration from a 100 mV split to full rail in well under a
        // nanosecond requires gain — a passive RC with these loads would
        // take far longer.
        let t = timing(Technology::AllSi);
        assert!(t.sense.as_picoseconds() < 800.0, "sense {:?}", t.sense);
    }
}
