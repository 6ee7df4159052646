//! Carbon-nanotube FET (CNFET) presets.
//!
//! CNFETs offer the highest effective drive current of the three FET types
//! the paper considers (Table I), thanks to quasi-ballistic transport in the
//! nanotube channel, and they are BEOL-compatible (fabricated below 300 °C).
//! Their drawback is elevated off-state leakage: the 1–2 nm diameter tubes
//! targeted for energy-efficient digital logic have bandgaps of only
//! 0.43–0.85 eV, and any *metallic* CNTs (E_g ≈ 0) that survive removal act
//! as resistors shorting source to drain.

use crate::vs::{Polarity, VirtualSourceModel};
use ppatc_units::Length;

/// Physical description of the CNT population in a CNFET channel, used to
/// derive the metallic-CNT leakage floor.
///
/// ```
/// use ppatc_device::cnfet::CntPopulation;
///
/// let pop = CntPopulation::default();
/// // As-grown CNTs are ~1/3 metallic; removal leaves almost none.
/// assert!(pop.surviving_metallic_per_meter() < 1.0e3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CntPopulation {
    /// Deposited CNT areal density along the device width, tubes per metre.
    ///
    /// High-performance digital CNFETs target ~200 CNTs/µm (2×10⁸ /m).
    pub tubes_per_meter: f64,
    /// Fraction of as-grown tubes that are metallic (≈ 1/3 for unsorted CNTs).
    pub metallic_fraction: f64,
    /// Fraction of metallic tubes eliminated by removal techniques
    /// (solution sorting + on-chip removal, e.g. Shulaker IEDM 2015).
    pub removal_efficiency: f64,
    /// Conductance of one surviving metallic tube, in siemens
    /// (~1/(30 kΩ) for a short metallic CNT).
    pub metallic_tube_conductance: f64,
}

impl Default for CntPopulation {
    fn default() -> Self {
        Self {
            tubes_per_meter: 2.0e8, // 200 CNTs/µm
            metallic_fraction: 1.0 / 3.0,
            removal_efficiency: 0.999_999,
            metallic_tube_conductance: 1.0 / 30.0e3, // S (one metallic tube ~ 30 kOhm)
        }
    }
}

impl CntPopulation {
    /// Metallic tubes per metre of width that survive removal.
    pub fn surviving_metallic_per_meter(&self) -> f64 {
        self.tubes_per_meter * self.metallic_fraction * (1.0 - self.removal_efficiency)
    }

    /// Leakage-floor current per unit width (A/m) from surviving metallic
    /// tubes at drain bias `vdd` volts, plus the semiconducting-tube
    /// band-to-band floor.
    pub fn leakage_floor_per_width(&self, vdd: f64) -> f64 {
        let metallic = self.surviving_metallic_per_meter() * self.metallic_tube_conductance * vdd;
        // Small-bandgap semiconducting tubes leak more than Si junctions do:
        // ~0.1 nA/µm ambipolar/band-to-band floor.
        let semiconducting = 1.0e-4;
        metallic + semiconducting
    }
}

const L_GATE_NM: f64 = 30.0; // paper: 30 nm gate length, as in ASAP7

fn cn_model(polarity: Polarity, population: CntPopulation) -> VirtualSourceModel {
    VirtualSourceModel {
        name: format!(
            "vs-cnfet-{}",
            match polarity {
                Polarity::N => "n",
                Polarity::P => "p",
            }
        ),
        polarity,
        v_t0: 0.30,
        dibl: 0.040,
        ss_mv_per_dec: 70.0,
        c_inv: 2.4e-2, // F/m^2
        // Quasi-ballistic injection: ~3× the Si FinFET virtual-source
        // velocity (Lee et al., VS-CNFET part I). CNFETs are naturally
        // ambipolar, so N and P are symmetric.
        v_x0: 3.2e5, // m/s
        mobility: 0.15,
        l_gate: Length::from_nanometers(L_GATE_NM),
        beta: 1.6,
        i_floor_per_width: population.leakage_floor_per_width(0.7),
        floor_activation_ev: 0.30,
        cap_parasitic_factor: 1.30,
        temperature_k: 300.0,
    }
}

/// An n-type VS-CNFET model with the default CNT population.
///
/// ```
/// use ppatc_device::cnfet;
/// use ppatc_units::{Length, Voltage};
///
/// let fet = cnfet::nfet().sized(Length::from_micrometers(1.0));
/// let ion = fet.i_on(Voltage::from_volts(0.7)).as_microamperes();
/// assert!(ion > 800.0); // CNFETs out-drive Si at the same footprint
/// ```
pub fn nfet() -> VirtualSourceModel {
    cn_model(Polarity::N, CntPopulation::default())
}

/// A p-type VS-CNFET model with the default CNT population.
pub fn pfet() -> VirtualSourceModel {
    cn_model(Polarity::P, CntPopulation::default())
}

/// An n-type VS-CNFET with an explicit CNT population, for studying the
/// sensitivity of leakage to metallic-CNT removal efficiency.
pub fn nfet_with_population(population: CntPopulation) -> VirtualSourceModel {
    cn_model(Polarity::N, population)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si::{self, SiVtFlavor};
    use ppatc_units::Voltage;

    #[test]
    fn out_drives_si_at_same_width() {
        let w = Length::from_nanometers(100.0);
        let vdd = Voltage::from_volts(0.7);
        let cn = nfet().sized(w);
        let slvt = si::nfet(SiVtFlavor::Slvt).sized(w);
        assert!(cn.i_eff(vdd) > slvt.i_eff(vdd));
    }

    #[test]
    fn leakier_than_si() {
        let w = Length::from_nanometers(100.0);
        let vdd = Voltage::from_volts(0.7);
        let cn = nfet().sized(w);
        let rvt = si::nfet(SiVtFlavor::Rvt).sized(w);
        assert!(cn.i_off(vdd) > rvt.i_off(vdd));
    }

    #[test]
    fn worse_removal_means_more_leak() {
        let w = Length::from_nanometers(100.0);
        let vdd = Voltage::from_volts(0.7);
        let good = nfet_with_population(CntPopulation {
            removal_efficiency: 0.999_999_9,
            ..CntPopulation::default()
        })
        .sized(w);
        let bad = nfet_with_population(CntPopulation {
            removal_efficiency: 0.999,
            ..CntPopulation::default()
        })
        .sized(w);
        assert!(bad.i_off(vdd).as_amperes() > 10.0 * good.i_off(vdd).as_amperes());
    }

    #[test]
    fn population_floor_is_metallic_dominated_at_poor_removal() {
        let pop = CntPopulation {
            removal_efficiency: 0.99,
            ..CntPopulation::default()
        };
        let floor = pop.leakage_floor_per_width(0.7);
        assert!(floor > 1e-2, "floor {floor} A/m");
    }

    #[test]
    fn models_validate() {
        nfet().validate().expect("n-CNFET should be valid");
        pfet().validate().expect("p-CNFET should be valid");
    }
}
