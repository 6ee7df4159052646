//! A sized FET instance and its figures of merit.

use crate::vs::{ModelParameterError, Polarity, VirtualSourceModel};
use ppatc_units::{Capacitance, Current, Length, Voltage};

/// Why a transistor instance could not be constructed.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum DeviceError {
    /// The compact model itself violates a physical invariant.
    Model(ModelParameterError),
    /// The requested width (in meters) is not finite and positive.
    InvalidWidth(f64),
}

impl core::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Model(e) => write!(f, "{e}"),
            Self::InvalidWidth(w) => {
                write!(f, "width must be positive (got {w} m)")
            }
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Model(e) => Some(e),
            Self::InvalidWidth(_) => None,
        }
    }
}

impl From<ModelParameterError> for DeviceError {
    fn from(e: ModelParameterError) -> Self {
        Self::Model(e)
    }
}

/// A transistor instance: a [`VirtualSourceModel`] with a physical width.
///
/// Construct with [`VirtualSourceModel::sized`] (via the technology presets)
/// and query the drive/leakage/capacitance figures of merit used by the
/// eDRAM and standard-cell models.
///
/// ```
/// use ppatc_device::{si, SiVtFlavor};
/// use ppatc_units::{Length, Voltage};
///
/// let fet = si::nfet(SiVtFlavor::Slvt).sized(Length::from_nanometers(81.0));
/// let vdd = Voltage::from_volts(0.7);
/// assert!(fet.i_on(vdd) > fet.i_eff(vdd));
/// assert!(fet.i_eff(vdd) > fet.i_off(vdd));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Fet {
    model: VirtualSourceModel,
    width: Length,
}

impl VirtualSourceModel {
    /// Creates a sized transistor instance of this model, rejecting invalid
    /// model parameters (see [`VirtualSourceModel::validate`]) and
    /// non-positive or non-finite widths with a structured [`DeviceError`].
    pub fn try_sized(self, width: Length) -> Result<Fet, DeviceError> {
        self.validate()?;
        let w = width.as_meters();
        if !w.is_finite() || w <= 0.0 {
            return Err(DeviceError::InvalidWidth(w));
        }
        Ok(Fet { model: self, width })
    }

    /// Panicking convenience wrapper around
    /// [`VirtualSourceModel::try_sized`].
    ///
    /// # Panics
    ///
    /// Panics if the model parameters are invalid
    /// (see [`VirtualSourceModel::validate`]) or `width` is not positive.
    pub fn sized(self, width: Length) -> Fet {
        match self.try_sized(width) {
            Ok(fet) => fet,
            Err(e) => panic!("{e}"),
        }
    }
}

impl Fet {
    /// Returns the underlying compact model.
    #[inline]
    pub fn model(&self) -> &VirtualSourceModel {
        &self.model
    }

    /// Returns a copy of this transistor re-derived at `kelvin` (see
    /// [`VirtualSourceModel::at_temperature`]).
    ///
    /// # Panics
    ///
    /// Panics if `kelvin` is outside the model's 200–500 K range.
    #[must_use]
    pub fn at_temperature(&self, kelvin: f64) -> Fet {
        Fet {
            model: self.model.at_temperature(kelvin),
            width: self.width,
        }
    }

    /// Returns the transistor width.
    #[inline]
    pub fn width(&self) -> Length {
        self.width
    }

    /// Channel polarity of the device.
    #[inline]
    pub fn polarity(&self) -> Polarity {
        self.model.polarity
    }

    /// Drain current at the given terminal voltages (signed, volts).
    pub fn drain_current(&self, v_gs: Voltage, v_ds: Voltage) -> Current {
        Current::from_amperes(
            self.model
                .current_per_width(v_gs.as_volts(), v_ds.as_volts())
                * self.width.as_meters(),
        )
    }

    /// On-state drive current `I_ON = |I_D(V_GS = ±V_DD, V_DS = ±V_DD)|`.
    pub fn i_on(&self, vdd: Voltage) -> Current {
        let s = self.model.polarity.sign();
        self.drain_current(vdd * s, vdd * s).abs()
    }

    /// Effective drive current
    /// `I_EFF = (I_H + I_L) / 2` with
    /// `I_H = |I_D(V_GS = V_DD, V_DS = V_DD/2)|` and
    /// `I_L = |I_D(V_GS = V_DD/2, V_DS = V_DD)|` — the metric the paper's
    /// Table I uses to rank FET drive strength during switching.
    pub fn i_eff(&self, vdd: Voltage) -> Current {
        let s = self.model.polarity.sign();
        let i_h = self.drain_current(vdd * s, vdd * (0.5 * s)).abs();
        let i_l = self.drain_current(vdd * (0.5 * s), vdd * s).abs();
        (i_h + i_l) * 0.5
    }

    /// Off-state leakage `I_OFF = |I_D(V_GS = 0, V_DS = ±V_DD)|`.
    pub fn i_off(&self, vdd: Voltage) -> Current {
        let s = self.model.polarity.sign();
        self.drain_current(Voltage::zero(), vdd * s).abs()
    }

    /// Leakage with the gate underdriven **below** the source by `v_under`
    /// (e.g. a negative hold voltage on an eDRAM write wordline).
    pub fn i_off_underdriven(&self, vdd: Voltage, v_under: Voltage) -> Current {
        let s = self.model.polarity.sign();
        self.drain_current(-v_under * s, vdd * s).abs()
    }

    /// Total gate capacitance including fringe/overlap parasitics.
    pub fn gate_capacitance(&self) -> Capacitance {
        Capacitance::from_farads(
            self.model.c_inv
                * self.width.as_meters()
                * self.model.l_gate.as_meters()
                * self.model.cap_parasitic_factor,
        )
    }

    /// Drain-side junction/contact parasitic capacitance, approximated as a
    /// fixed fraction of the gate capacitance (typical for FinFET-era
    /// technologies where parasitics rival the intrinsic channel).
    pub fn drain_capacitance(&self) -> Capacitance {
        self.gate_capacitance() * 0.6
    }

    /// Effective on-resistance `V_DD / I_ON` — a convenient RC-delay proxy.
    ///
    /// # Panics
    ///
    /// Panics if the on-current is zero.
    pub fn on_resistance(&self, vdd: Voltage) -> ppatc_units::Resistance {
        let i_on = self.i_on(vdd);
        assert!(
            i_on.as_amperes() > 0.0,
            "device has no on-current at this VDD"
        );
        vdd / i_on
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::si::{self, SiVtFlavor};
    use ppatc_units::approx_eq;

    fn nmos() -> Fet {
        si::nfet(SiVtFlavor::Rvt).sized(Length::from_nanometers(100.0))
    }

    fn pmos() -> Fet {
        si::pfet(SiVtFlavor::Rvt).sized(Length::from_nanometers(100.0))
    }

    #[test]
    fn current_scales_with_width() {
        let vdd = Voltage::from_volts(0.7);
        let narrow = si::nfet(SiVtFlavor::Rvt).sized(Length::from_nanometers(50.0));
        let wide = si::nfet(SiVtFlavor::Rvt).sized(Length::from_nanometers(100.0));
        assert!(approx_eq(
            wide.i_on(vdd).as_amperes(),
            2.0 * narrow.i_on(vdd).as_amperes(),
            1e-12
        ));
    }

    #[test]
    fn figures_of_merit_are_ordered() {
        let vdd = Voltage::from_volts(0.7);
        let fet = nmos();
        assert!(fet.i_on(vdd) > fet.i_eff(vdd));
        assert!(fet.i_eff(vdd).as_amperes() > 1e3 * fet.i_off(vdd).as_amperes());
    }

    #[test]
    fn pmos_matches_nmos_shape() {
        let vdd = Voltage::from_volts(0.7);
        let n = nmos();
        let p = pmos();
        assert!(p.i_on(vdd).as_amperes() > 0.0);
        // PMOS drive is weaker but within ~3x of NMOS.
        let ratio = n.i_on(vdd) / p.i_on(vdd);
        assert!((1.0..3.0).contains(&ratio), "N/P ratio {ratio}");
    }

    #[test]
    fn underdrive_reduces_leakage() {
        let vdd = Voltage::from_volts(0.7);
        let fet = nmos();
        let nominal = fet.i_off(vdd);
        let under = fet.i_off_underdriven(vdd, Voltage::from_volts(0.3));
        assert!(under < nominal);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let _ = si::nfet(SiVtFlavor::Rvt).sized(Length::zero());
    }

    #[test]
    fn try_sized_rejects_bad_widths_without_panicking() {
        for bad in [0.0, -50.0, f64::NAN, f64::INFINITY] {
            let err = si::nfet(SiVtFlavor::Rvt)
                .try_sized(Length::from_nanometers(bad))
                .expect_err("bad width rejected");
            assert!(matches!(err, DeviceError::InvalidWidth(_)), "{err}");
        }
    }

    #[test]
    fn try_sized_accepts_valid_widths() {
        let fet = si::nfet(SiVtFlavor::Rvt)
            .try_sized(Length::from_nanometers(81.0))
            .expect("valid width");
        assert!(approx_eq(fet.width().as_nanometers(), 81.0, 1e-12));
    }

    #[test]
    fn gate_cap_is_positive_and_small() {
        let fet = nmos();
        let c = fet.gate_capacitance().as_attofarads();
        assert!(c > 1.0 && c < 1000.0, "gate cap {c} aF");
        assert!(fet.drain_capacitance() < fet.gate_capacitance());
    }

    #[test]
    fn on_resistance_is_kilo_ohm_scale() {
        let r = nmos().on_resistance(Voltage::from_volts(0.7)).as_ohms();
        assert!(r > 1e3 && r < 1e6, "Ron {r} ohms");
    }
}
