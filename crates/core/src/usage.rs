//! The usage model: duty-cycled operational carbon (Eqs. 6–8).

use crate::error::{check, ValidationError};
use crate::lifetime::Lifetime;
use ppatc_units::{CarbonIntensity, CarbonMass, Power};

/// How (and on which grid) the deployed system is used.
///
/// The paper's scenario runs the application 2 hours per day, every day,
/// during the 8–10 pm window; Eq. 8 collapses the CI_use(t) integral into
/// the window-averaged carbon intensity times the duty cycle:
///
/// ```text
/// C_operational = CI_use(avg, window) · P_operational · t_life · (hours/day ÷ 24)
/// ```
///
/// ```
/// use ppatc::{Lifetime, UsagePattern};
/// use ppatc_units::Power;
///
/// let usage = UsagePattern::paper_default();
/// let c = usage.operational_carbon(Power::from_milliwatts(9.7), Lifetime::months(24.0));
/// assert!((c.as_grams() - 5.4).abs() < 0.2);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UsagePattern {
    hours_per_day: f64,
    ci_use: CarbonIntensity,
}

impl UsagePattern {
    /// The paper's scenario: 2 h/day on the U.S. grid (380 gCO₂e/kWh taken
    /// as the 8–10 pm window average).
    pub fn paper_default() -> Self {
        Self {
            hours_per_day: 2.0,
            ci_use: CarbonIntensity::from_g_per_kwh(380.0),
        }
    }

    /// A custom usage pattern.
    ///
    /// Rejects `hours_per_day` outside `(0, 24]` and negative or non-finite
    /// carbon intensities with a structured [`ValidationError`].
    pub fn try_new(hours_per_day: f64, ci_use: CarbonIntensity) -> Result<Self, ValidationError> {
        check::in_open_closed("hours_per_day", hours_per_day, 0.0, 24.0, "in (0, 24]")?;
        check::non_negative("ci_use", ci_use.value())?;
        Ok(Self {
            hours_per_day,
            ci_use,
        })
    }

    /// Hours of active use per day.
    pub fn hours_per_day(&self) -> f64 {
        self.hours_per_day
    }

    /// Average use-phase carbon intensity.
    pub fn ci_use(&self) -> CarbonIntensity {
        self.ci_use
    }

    /// Returns a copy with the carbon intensity scaled by `factor` — the
    /// Fig. 6b CI_use uncertainty knob (×3 / ÷3). Rejects negative or
    /// non-finite factors.
    pub fn try_with_ci_scaled(mut self, factor: f64) -> Result<Self, ValidationError> {
        check::non_negative("ci_scale_factor", factor)?;
        self.ci_use = CarbonIntensity::new(self.ci_use.value() * factor);
        Ok(self)
    }

    /// Duty cycle: the fraction of calendar time the system is active.
    pub fn duty_cycle(&self) -> f64 {
        self.hours_per_day / 24.0
    }

    /// Eq. 8: operational carbon over a lifetime, given the busy power from
    /// Eq. 6.
    pub fn operational_carbon(&self, p_operational: Power, lifetime: Lifetime) -> CarbonMass {
        let active = lifetime.as_time() * self.duty_cycle();
        self.ci_use * (p_operational * active)
    }

    /// Total active energy drawn over a lifetime.
    pub fn operational_energy(
        &self,
        p_operational: Power,
        lifetime: Lifetime,
    ) -> ppatc_units::Energy {
        p_operational * (lifetime.as_time() * self.duty_cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;

    #[test]
    fn eq8_hand_check() {
        // 10 mW for 2 h/day over 12 months on a 500 g/kWh grid:
        // energy = 0.01 kW/1000... = 1e-5 kW × (365.25/2 × 2 h)? lifetime
        // 12 months = 365.25 days; active hours = 730.5.
        let usage = UsagePattern::try_new(2.0, CarbonIntensity::from_g_per_kwh(500.0))
            .expect("valid usage");
        let c = usage.operational_carbon(Power::from_milliwatts(10.0), Lifetime::months(12.0));
        let expected = 500.0 * (0.01e-3 * 730.5); // g/kWh × kWh
        assert!(
            approx_eq(c.as_grams(), expected, 1e-9),
            "{} vs {expected}",
            c.as_grams()
        );
    }

    #[test]
    fn carbon_scales_linearly() {
        let usage = UsagePattern::paper_default();
        let p = Power::from_milliwatts(9.7);
        let one = usage.operational_carbon(p, Lifetime::months(6.0));
        let four = usage.operational_carbon(p, Lifetime::months(24.0));
        assert!(approx_eq(four.as_grams(), 4.0 * one.as_grams(), 1e-12));
    }

    #[test]
    fn ci_scaling() {
        let usage = UsagePattern::paper_default()
            .try_with_ci_scaled(3.0)
            .expect("valid factor");
        assert!(approx_eq(usage.ci_use().as_g_per_kwh(), 1140.0, 1e-12));
    }

    #[test]
    fn duty_cycle() {
        assert!(approx_eq(
            UsagePattern::paper_default().duty_cycle(),
            1.0 / 12.0,
            1e-12
        ));
    }

    #[test]
    fn invalid_inputs_are_structured_errors() {
        let e = UsagePattern::try_new(0.0, CarbonIntensity::from_g_per_kwh(380.0))
            .expect_err("zero hours rejected");
        assert_eq!(e.field, "hours_per_day");
        let e = UsagePattern::try_new(f64::NAN, CarbonIntensity::from_g_per_kwh(380.0))
            .expect_err("NaN hours rejected");
        assert_eq!(e.field, "hours_per_day");
        let e = UsagePattern::try_new(25.0, CarbonIntensity::from_g_per_kwh(380.0))
            .expect_err("25-hour day rejected");
        assert_eq!(e.field, "hours_per_day");
        assert!(e.to_string().contains("invalid 'hours_per_day'"), "{e}");
        let e = UsagePattern::try_new(2.0, CarbonIntensity::from_g_per_kwh(-1.0))
            .expect_err("negative CI rejected");
        assert_eq!(e.field, "ci_use");
        let e = UsagePattern::paper_default()
            .try_with_ci_scaled(f64::INFINITY)
            .expect_err("infinite scale rejected");
        assert_eq!(e.field, "ci_scale_factor");
    }
}
