//! Total carbon and tCDP as functions of system lifetime (Fig. 5).

use ppatc_units::{CarbonDelay, CarbonMass, Power, Time};

use crate::error::{check, ValidationError};
use crate::usage::UsagePattern;

/// A system lifetime — months of calendar deployment.
///
/// A thin wrapper over [`Time`] that keeps lifetimes from being confused
/// with execution times in the tCDP arithmetic.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub struct Lifetime(Time);

impl Lifetime {
    /// A lifetime in (mean Gregorian) months. Rejects negative or
    /// non-finite durations.
    pub fn try_months(months: f64) -> Result<Self, ValidationError> {
        check::non_negative("lifetime_months", months)?;
        Ok(Self(Time::from_months(months)))
    }

    /// Panicking convenience wrapper around [`Lifetime::try_months`].
    ///
    /// # Panics
    ///
    /// Panics if `months` is negative or non-finite.
    pub fn months(months: f64) -> Self {
        match Self::try_months(months) {
            Ok(l) => l,
            Err(e) => panic!("{e}"),
        }
    }

    /// The lifetime as a plain duration.
    pub fn as_time(self) -> Time {
        self.0
    }

    /// The lifetime in months.
    pub fn as_months(self) -> f64 {
        self.0.as_months()
    }

    /// Shifts the lifetime by a (possibly negative) number of months,
    /// clamped at zero.
    #[must_use]
    pub fn shifted(self, delta_months: f64) -> Self {
        Self::months((self.as_months() + delta_months).max(0.0))
    }
}

/// The carbon trajectory of one deployed design: embodied carbon (paid at
/// t = 0) plus operational carbon accruing with use.
///
/// ```
/// use ppatc::{CarbonTrajectory, Lifetime, UsagePattern};
/// use ppatc_units::{CarbonMass, Power, Time};
///
/// let t = CarbonTrajectory::new(
///     CarbonMass::from_grams(3.11),
///     Power::from_milliwatts(9.7),
///     UsagePattern::paper_default(),
///     Time::from_seconds(0.04),
/// );
/// // Embodied dominates early...
/// assert!(t.embodied() > t.operational(Lifetime::months(1.0)));
/// // ...operational dominates late (Fig. 5: crossover ≈ 14 months).
/// assert!(t.operational(Lifetime::months(24.0)) > t.embodied());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CarbonTrajectory {
    embodied: CarbonMass,
    operational_power: Power,
    standby_power: Power,
    usage: UsagePattern,
    execution_time: Time,
}

impl CarbonTrajectory {
    /// Builds a trajectory from a per-good-die embodied footprint, the
    /// Eq. 6 busy power, a usage pattern, and the application's execution
    /// time (for tCDP). Rejects negative or non-finite carbon, power, and
    /// execution-time values.
    pub fn try_new(
        embodied: CarbonMass,
        operational_power: Power,
        usage: UsagePattern,
        execution_time: Time,
    ) -> Result<Self, ValidationError> {
        check::non_negative("embodied_carbon", embodied.as_grams())?;
        check::non_negative("operational_power", operational_power.as_watts())?;
        check::non_negative("execution_time", execution_time.as_seconds())?;
        Ok(Self {
            embodied,
            operational_power,
            standby_power: Power::zero(),
            usage,
            execution_time,
        })
    }

    /// Panicking convenience wrapper around [`CarbonTrajectory::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if the embodied carbon, power, or execution time is negative
    /// or non-finite.
    pub fn new(
        embodied: CarbonMass,
        operational_power: Power,
        usage: UsagePattern,
        execution_time: Time,
    ) -> Self {
        match Self::try_new(embodied, operational_power, usage, execution_time) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds a standby power drawn during the *inactive* hours of the usage
    /// pattern (see [`crate::standby`]). The paper's Eq. 6 corresponds to
    /// zero standby power. Rejects negative or non-finite powers.
    pub fn try_with_standby_power(mut self, standby_power: Power) -> Result<Self, ValidationError> {
        check::non_negative("standby_power", standby_power.as_watts())?;
        self.standby_power = standby_power;
        Ok(self)
    }

    /// Panicking convenience wrapper around
    /// [`CarbonTrajectory::try_with_standby_power`].
    ///
    /// # Panics
    ///
    /// Panics if `standby_power` is negative or non-finite.
    #[must_use]
    pub fn with_standby_power(self, standby_power: Power) -> Self {
        match self.try_with_standby_power(standby_power) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// The standby power during inactive hours.
    pub fn standby_power(&self) -> Power {
        self.standby_power
    }

    /// The embodied carbon per good die.
    pub fn embodied(&self) -> CarbonMass {
        self.embodied
    }

    /// The busy (Eq. 6) power.
    pub fn operational_power(&self) -> Power {
        self.operational_power
    }

    /// The usage pattern.
    pub fn usage(&self) -> &UsagePattern {
        &self.usage
    }

    /// Application execution time (the delay in tCDP).
    pub fn execution_time(&self) -> Time {
        self.execution_time
    }

    /// Operational carbon accumulated by `lifetime`: the Eq. 8 active term
    /// plus any standby power integrated over the inactive hours.
    pub fn operational(&self, lifetime: Lifetime) -> CarbonMass {
        let active = self
            .usage
            .operational_carbon(self.operational_power, lifetime);
        if self.standby_power.as_watts() == 0.0 {
            return active;
        }
        let idle = lifetime.as_time() * (1.0 - self.usage.duty_cycle());
        active + self.usage.ci_use() * (self.standby_power * idle)
    }

    /// Total carbon at `lifetime`: embodied + operational.
    pub fn total(&self, lifetime: Lifetime) -> CarbonMass {
        self.embodied + self.operational(lifetime)
    }

    /// tCDP at `lifetime`: total carbon × execution time (gCO₂e/Hz).
    pub fn tcdp(&self, lifetime: Lifetime) -> CarbonDelay {
        self.total(lifetime) * self.execution_time
    }

    /// The lifetime at which operational carbon overtakes embodied carbon
    /// (Fig. 5's per-design stack crossover), or `None` if the system never
    /// draws power.
    pub fn embodied_dominance_crossover(&self) -> Option<Lifetime> {
        let monthly = self.operational(Lifetime::months(1.0)).as_grams();
        if monthly <= 0.0 {
            return None;
        }
        Some(Lifetime::months(self.embodied.as_grams() / monthly))
    }

    /// Samples the trajectory at integer months `1..=months`.
    pub fn sample_monthly(&self, months: u32) -> Vec<TrajectoryPoint> {
        (1..=months)
            .map(|m| {
                let life = Lifetime::months(f64::from(m));
                TrajectoryPoint {
                    lifetime: life,
                    embodied: self.embodied,
                    operational: self.operational(life),
                    total: self.total(life),
                    tcdp: self.tcdp(life),
                }
            })
            .collect()
    }

    /// The lifetime at which this design's total carbon crosses `other`'s
    /// (Fig. 5's between-design crossover). `None` if the curves never
    /// cross for a positive lifetime (one design dominates).
    pub fn crossover_with(&self, other: &CarbonTrajectory) -> Option<Lifetime> {
        // Both curves are affine in lifetime: c(t) = e + s·t.
        let s_self = self.operational(Lifetime::months(1.0)).as_grams();
        let s_other = other.operational(Lifetime::months(1.0)).as_grams();
        let de = other.embodied.as_grams() - self.embodied.as_grams();
        let ds = s_self - s_other;
        if ds.abs() < 1e-300 {
            return None;
        }
        let t = de / ds;
        (t > 0.0).then(|| Lifetime::months(t))
    }
}

/// One sampled point of a carbon trajectory (a Fig. 5 bar).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// Lifetime of this sample.
    pub lifetime: Lifetime,
    /// Embodied carbon (lifetime-independent).
    pub embodied: CarbonMass,
    /// Accumulated operational carbon.
    pub operational: CarbonMass,
    /// Total carbon.
    pub total: CarbonMass,
    /// tCDP at this lifetime.
    pub tcdp: CarbonDelay,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;

    fn paper_like(embodied_g: f64, power_mw: f64) -> CarbonTrajectory {
        CarbonTrajectory::new(
            CarbonMass::from_grams(embodied_g),
            Power::from_milliwatts(power_mw),
            UsagePattern::paper_default(),
            Time::from_seconds(20_036_652.0 / 500e6),
        )
    }

    #[test]
    fn fig5_embodied_dominance_crossovers() {
        // Paper: C_embodied dominates until ~14 months (all-Si) and
        // ~19 months (M3D).
        let si = paper_like(3.11, 9.7);
        let m3d = paper_like(3.63, 8.45);
        let t_si = si.embodied_dominance_crossover().expect("crossover exists");
        let t_m3d = m3d
            .embodied_dominance_crossover()
            .expect("crossover exists");
        assert!(
            approx_eq(t_si.as_months(), 13.9, 0.05),
            "all-Si {:.1} mo",
            t_si.as_months()
        );
        assert!(
            approx_eq(t_m3d.as_months(), 18.6, 0.05),
            "M3D {:.1} mo",
            t_m3d.as_months()
        );
    }

    #[test]
    fn design_crossover_exists() {
        let si = paper_like(3.11, 9.7);
        let m3d = paper_like(3.63, 8.45);
        let t = m3d.crossover_with(&si).expect("curves cross");
        // M3D starts higher (embodied) and grows slower → one crossover.
        assert!(
            t.as_months() > 6.0 && t.as_months() < 30.0,
            "{:.1} mo",
            t.as_months()
        );
        assert!(m3d.total(Lifetime::months(1.0)) > si.total(Lifetime::months(1.0)));
        assert!(m3d.total(t.shifted(6.0)) < si.total(t.shifted(6.0)));
    }

    #[test]
    fn no_crossover_for_parallel_curves() {
        let a = paper_like(3.0, 9.0);
        let b = paper_like(4.0, 9.0);
        assert!(a.crossover_with(&b).is_none());
    }

    #[test]
    fn monthly_sampling_is_monotone() {
        let t = paper_like(3.11, 9.7);
        let samples = t.sample_monthly(24);
        assert_eq!(samples.len(), 24);
        for pair in samples.windows(2) {
            assert!(pair[1].total > pair[0].total);
            assert!(pair[1].tcdp > pair[0].tcdp);
            assert_eq!(pair[1].embodied, pair[0].embodied);
        }
    }

    #[test]
    fn tcdp_units() {
        let t = paper_like(3.11, 9.7);
        let life = Lifetime::months(24.0);
        let expected = t.total(life).as_grams() * t.execution_time().as_seconds();
        assert!(approx_eq(
            t.tcdp(life).as_grams_per_hertz(),
            expected,
            1e-12
        ));
    }

    #[test]
    fn lifetime_shift_clamps_at_zero() {
        let l = Lifetime::months(3.0).shifted(-6.0);
        assert_eq!(l.as_months(), 0.0);
    }
}
