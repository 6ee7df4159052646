//! tCDP-ratio maps, isolines, and uncertainty bands (Fig. 6).
//!
//! The Fig. 6 analysis asks: *over what range of (relative embodied carbon,
//! relative operational energy) does the M3D design stay more
//! carbon-efficient than the all-Si baseline?* The map's axes scale the M3D
//! design's C_embodied (x) and E_operational (y); the **isoline** is the
//! locus where the two designs' tCDP are equal. Because both designs run
//! the same application at the same clock, execution time cancels and the
//! isoline has the closed form
//!
//! ```text
//! y(x) = (tC_allSi(t) − x · C_emb_M3D) / C_op_M3D(t)
//! ```
//!
//! Uncertainty in lifetime, CI_use, or M3D yield (Fig. 6b) moves the
//! isoline; [`TcdpMap::isoline_with`] evaluates those perturbed variants.

use crate::checkpoint::JournalSpec;
use crate::error::{check, PpatcError, ValidationError};
use crate::eval::Supervisor;
use crate::lifetime::{CarbonTrajectory, Lifetime};

/// Uncertainty knobs of Fig. 6b.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Perturbation {
    /// Shift the evaluation lifetime by this many months (±6 in the paper).
    LifetimeDeltaMonths(f64),
    /// Scale the use-phase carbon intensity (×3 / ÷3 in the paper).
    CiUseScale(f64),
    /// Replace the M3D die yield (10% / 90% in the paper, vs. 50% nominal).
    M3dYield(f64),
}

/// One point of a tCDP isoline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IsolinePoint {
    /// x: scale factor on the M3D design's embodied carbon.
    pub embodied_scale: f64,
    /// y: scale factor on the M3D design's operational energy at which the
    /// two designs' tCDP are equal. `None` means the all-Si design wins at
    /// every positive operational scale for this x.
    pub eop_scale: Option<f64>,
}

/// A tCDP comparison surface between the all-Si baseline and the M3D
/// design.
#[derive(Clone, Debug)]
pub struct TcdpMap {
    si: CarbonTrajectory,
    m3d: CarbonTrajectory,
    lifetime: Lifetime,
    m3d_nominal_yield: f64,
}

impl TcdpMap {
    /// Builds a map from two trajectories at an evaluation lifetime.
    /// `m3d_nominal_yield` is the yield already baked into the M3D
    /// trajectory's embodied carbon (needed for yield perturbations).
    ///
    /// Rejects yields outside `(0, 1]` (including NaN) and non-finite or
    /// non-positive lifetimes with a structured [`ValidationError`].
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_new(
        si: CarbonTrajectory,
        m3d: CarbonTrajectory,
        lifetime: Lifetime,
        m3d_nominal_yield: f64,
    ) -> Result<Self, ValidationError> {
        check::in_open_closed(
            "m3d_nominal_yield",
            m3d_nominal_yield,
            0.0,
            1.0,
            "in (0, 1]",
        )?;
        check::positive("lifetime", lifetime.as_time().as_months())?;
        Ok(Self {
            si,
            m3d,
            lifetime,
            m3d_nominal_yield,
        })
    }

    /// Panicking convenience wrapper around [`TcdpMap::try_new`].
    ///
    /// # Panics
    ///
    /// Panics if `m3d_nominal_yield` is outside `(0, 1]` or the lifetime is
    /// not a positive finite duration.
    pub fn new(
        si: CarbonTrajectory,
        m3d: CarbonTrajectory,
        lifetime: Lifetime,
        m3d_nominal_yield: f64,
    ) -> Self {
        match Self::try_new(si, m3d, lifetime, m3d_nominal_yield) {
            Ok(map) => map,
            Err(e) => panic!("{e}"),
        }
    }

    /// Evaluation lifetime of the map.
    pub fn lifetime(&self) -> Lifetime {
        self.lifetime
    }

    /// tCDP ratio `M3D / all-Si` at scale factors `(x, y)`; values below 1
    /// mean the M3D design is more carbon-efficient (the red region).
    pub fn ratio(&self, embodied_scale: f64, eop_scale: f64) -> f64 {
        self.ratio_with(embodied_scale, eop_scale, None)
    }

    /// tCDP ratio under an optional Fig. 6b perturbation, rejecting
    /// non-positive or non-finite scale factors and invalid perturbations
    /// with a structured [`ValidationError`].
    #[must_use = "this returns a Result that must be handled"]
    pub fn try_ratio_with(
        &self,
        embodied_scale: f64,
        eop_scale: f64,
        perturbation: Option<Perturbation>,
    ) -> Result<f64, ValidationError> {
        check::positive("embodied_scale", embodied_scale)?;
        check::positive("eop_scale", eop_scale)?;
        let (life, ci_scale, yield_scale) = self.apply(perturbation)?;
        let e_si = self.si.embodied().as_grams();
        let o_si = self.si.operational(life).as_grams() * ci_scale;
        let e_m3d = self.m3d.embodied().as_grams() * yield_scale * embodied_scale;
        let o_m3d = self.m3d.operational(life).as_grams() * ci_scale * eop_scale;
        Ok((e_m3d + o_m3d) / (e_si + o_si))
    }

    /// Panicking convenience wrapper around [`TcdpMap::try_ratio_with`].
    ///
    /// # Panics
    ///
    /// Panics if a scale factor or yield perturbation is non-positive or
    /// non-finite.
    pub fn ratio_with(
        &self,
        embodied_scale: f64,
        eop_scale: f64,
        perturbation: Option<Perturbation>,
    ) -> f64 {
        match self.try_ratio_with(embodied_scale, eop_scale, perturbation) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// The y value where the isoline crosses a given x (closed form), under
    /// an optional perturbation. `Ok(None)` means the all-Si design wins at
    /// every positive operational scale for this x; `Err` reports an
    /// invalid perturbation.
    #[must_use = "this returns a Result that must be handled"]
    // ppatc-lint: allow(raw-unit-api) — Fig. 6 isoline axes are dimensionless scale factors
    pub fn try_isoline_y(
        &self,
        embodied_scale: f64,
        perturbation: Option<Perturbation>,
    ) -> Result<Option<f64>, ValidationError> {
        check::finite("embodied_scale", embodied_scale)?;
        let (life, ci_scale, yield_scale) = self.apply(perturbation)?;
        let tc_si = self.si.embodied().as_grams() + self.si.operational(life).as_grams() * ci_scale;
        let e_m3d = self.m3d.embodied().as_grams() * yield_scale * embodied_scale;
        let o_m3d = self.m3d.operational(life).as_grams() * ci_scale;
        if o_m3d <= 0.0 {
            return Ok(None);
        }
        let y = (tc_si - e_m3d) / o_m3d;
        Ok((y > 0.0).then_some(y))
    }

    /// Panicking convenience wrapper around [`TcdpMap::try_isoline_y`].
    ///
    /// # Panics
    ///
    /// Panics if `embodied_scale` is non-finite or the perturbation is
    /// invalid.
    // ppatc-lint: allow(raw-unit-api) — Fig. 6 isoline axes are dimensionless scale factors
    pub fn isoline_y(
        &self,
        embodied_scale: f64,
        perturbation: Option<Perturbation>,
    ) -> Option<f64> {
        match self.try_isoline_y(embodied_scale, perturbation) {
            Ok(y) => y,
            Err(e) => panic!("{e}"),
        }
    }

    /// Samples the nominal isoline at the given x values.
    // ppatc-lint: allow(raw-unit-api) — Fig. 6 isoline axes are dimensionless scale factors
    pub fn isoline(&self, xs: &[f64]) -> Vec<IsolinePoint> {
        self.isoline_with(xs, None)
    }

    /// Samples a perturbed isoline at the given x values.
    // ppatc-lint: allow(raw-unit-api) — Fig. 6 isoline axes are dimensionless scale factors
    pub fn isoline_with(
        &self,
        xs: &[f64],
        perturbation: Option<Perturbation>,
    ) -> Vec<IsolinePoint> {
        xs.iter()
            .map(|&x| IsolinePoint {
                embodied_scale: x,
                eop_scale: self.isoline_y(x, perturbation),
            })
            .collect()
    }

    /// Rasterizes the ratio colormap over `[x0, x1] × [y0, y1]` as
    /// `(x, y, ratio)` triples, row-major in y. Rejects resolutions below
    /// 2×2 and empty or non-finite ranges.
    #[must_use = "this returns a Result that must be handled"]
    // ppatc-lint: allow(raw-unit-api) — raster axes are dimensionless scale factors
    pub fn try_raster(
        &self,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
        nx: usize,
        ny: usize,
    ) -> Result<Vec<(f64, f64, f64)>, PpatcError> {
        self.try_raster_jobs((x0, x1), (y0, y1), nx, ny, 1)
    }

    /// [`TcdpMap::try_raster`] sharded across `jobs` workers (the
    /// supervised twin under a default [`Supervisor`]); the grid is
    /// byte-identical to the serial raster for any worker count (every
    /// point is a pure function of its grid index).
    #[must_use = "this returns a Result that must be handled"]
    // ppatc-lint: allow(raw-unit-api) — raster axes are dimensionless scale factors
    pub fn try_raster_jobs(
        &self,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
        nx: usize,
        ny: usize,
        jobs: usize,
    ) -> Result<Vec<(f64, f64, f64)>, PpatcError> {
        self.try_raster_supervised((x0, x1), (y0, y1), nx, ny, jobs, &Supervisor::new())
    }

    /// [`TcdpMap::try_raster_jobs`] under a [`Supervisor`]: honors the
    /// supervisor's cancellation token and deadline, isolates worker panics,
    /// and — when a checkpoint path is configured — journals every finished
    /// chunk so an interrupted raster resumes byte-identically (each grid
    /// point is a pure function of its index, and the journal stores exact
    /// `f64` bit patterns).
    ///
    /// # Errors
    ///
    /// [`PpatcError::Validation`] for a bad window or resolution,
    /// [`PpatcError::Interrupted`] when the budget stops the run,
    /// [`PpatcError::WorkerPanic`] if a grid point panics, and
    /// [`PpatcError::Checkpoint`] on journal I/O failure or a journal that
    /// was recorded for a different raster.
    #[must_use = "this returns a Result that must be handled"]
    // ppatc-lint: allow(raw-unit-api) — raster axes are dimensionless scale factors
    pub fn try_raster_supervised(
        &self,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
        nx: usize,
        ny: usize,
        jobs: usize,
        supervisor: &Supervisor,
    ) -> Result<Vec<(f64, f64, f64)>, PpatcError> {
        check_raster_window((x0, x1), (y0, y1), nx, ny)?;
        let journal = supervisor.try_open_journal(&self.raster_spec((x0, x1), (y0, y1), nx, ny))?;
        crate::eval::par_map_chunks_journaled(
            nx * ny,
            jobs,
            supervisor.budget(),
            journal.as_ref(),
            |start, end| {
                (start..end)
                    .map(|k| self.raster_point((x0, x1), (y0, y1), nx, ny, k))
                    .collect()
            },
        )?
        .try_complete()
    }

    /// Journal identity of a raster run: the window, the resolution, and
    /// two corner-probe ratios that capture the map itself (two different
    /// maps rasterized over the same window get different fingerprints).
    fn raster_spec(
        &self,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
        nx: usize,
        ny: usize,
    ) -> JournalSpec {
        JournalSpec::for_run::<(f64, f64, f64)>(
            "raster",
            nx * ny,
            &[
                nx as u64,
                ny as u64,
                x0.to_bits(),
                x1.to_bits(),
                y0.to_bits(),
                y1.to_bits(),
                self.ratio(x0, y0).to_bits(),
                self.ratio(x1, y1).to_bits(),
            ],
        )
    }

    /// The `k`-th point of the row-major raster grid — a pure function of
    /// the window, the resolution, and `k`, which is what makes journaled
    /// resumes byte-identical.
    fn raster_point(
        &self,
        (x0, x1): (f64, f64),
        (y0, y1): (f64, f64),
        nx: usize,
        ny: usize,
        k: usize,
    ) -> (f64, f64, f64) {
        let j = k / nx;
        let i = k % nx;
        let y = y0 + (y1 - y0) * (j as f64) / ((ny - 1) as f64);
        let x = x0 + (x1 - x0) * (i as f64) / ((nx - 1) as f64);
        (x, y, self.ratio(x, y))
    }

    /// Panicking convenience wrapper around [`TcdpMap::try_raster`].
    ///
    /// # Panics
    ///
    /// Panics if either resolution is below 2 or a range is empty or
    /// non-finite.
    // ppatc-lint: allow(raw-unit-api) — raster axes are dimensionless scale factors
    pub fn raster(
        &self,
        x_range: (f64, f64),
        y_range: (f64, f64),
        nx: usize,
        ny: usize,
    ) -> Vec<(f64, f64, f64)> {
        match self.try_raster(x_range, y_range, nx, ny) {
            Ok(grid) => grid,
            Err(e) => panic!("{e}"),
        }
    }

    /// tCDP ratio under a jointly sampled uncertainty point (see
    /// [`crate::montecarlo`]): all knobs applied at once.
    pub fn ratio_sampled(&self, sample: &crate::montecarlo::UncertaintySample) -> f64 {
        let life = sample.lifetime;
        let yield_scale = self.m3d_nominal_yield / sample.m3d_yield;
        let e_si = self.si.embodied().as_grams();
        let o_si = self.si.operational(life).as_grams() * sample.ci_scale;
        let e_m3d = self.m3d.embodied().as_grams() * yield_scale * sample.embodied_scale;
        let o_m3d = self.m3d.operational(life).as_grams() * sample.ci_scale * sample.eop_scale;
        (e_m3d + o_m3d) / (e_si + o_si)
    }

    /// Batched [`TcdpMap::ratio_sampled`] over a structure-of-arrays run of
    /// samples, appending one ratio per sample to `out` in index order.
    ///
    /// The embodied masses are constant across a sweep and are hoisted out
    /// of the per-sample loop; everything else evaluates the exact
    /// expression tree of [`TcdpMap::ratio_sampled`] (the operational terms
    /// depend on the sampled lifetime and cannot be hoisted without
    /// reassociating), so the appended ratios are bit-identical to the
    /// scalar path.
    pub(crate) fn ratio_batch(
        &self,
        batch: &crate::montecarlo::SampleBatch,
        ratios: &mut Vec<f64>,
    ) {
        let e_si = self.si.embodied().as_grams();
        let e_m3d_grams = self.m3d.embodied().as_grams();
        ratios.reserve(batch.len());
        for i in 0..batch.len() {
            let life = batch.lifetime[i];
            let yield_scale = self.m3d_nominal_yield / batch.m3d_yield[i];
            let o_si = self.si.operational(life).as_grams() * batch.ci_scale[i];
            let e_m3d = e_m3d_grams * yield_scale * batch.embodied_scale[i];
            let o_m3d =
                self.m3d.operational(life).as_grams() * batch.ci_scale[i] * batch.eop_scale[i];
            ratios.push((e_m3d + o_m3d) / (e_si + o_si));
        }
    }

    /// Resolves a perturbation into (lifetime, CI scale, embodied-yield
    /// scale), rejecting non-finite or out-of-range knob values.
    fn apply(
        &self,
        perturbation: Option<Perturbation>,
    ) -> Result<(Lifetime, f64, f64), ValidationError> {
        Ok(match perturbation {
            None => (self.lifetime, 1.0, 1.0),
            Some(Perturbation::LifetimeDeltaMonths(dm)) => {
                check::finite("lifetime_delta_months", dm)?;
                (self.lifetime.shifted(dm), 1.0, 1.0)
            }
            Some(Perturbation::CiUseScale(s)) => {
                check::positive("ci_use_scale", s)?;
                (self.lifetime, s, 1.0)
            }
            Some(Perturbation::M3dYield(y)) => {
                check::in_open_closed("m3d_yield", y, 0.0, 1.0, "in (0, 1]")?;
                // Embodied per good die scales inversely with yield.
                (self.lifetime, 1.0, self.m3d_nominal_yield / y)
            }
        })
    }
}

/// Shared raster-window validation: resolutions of at least 2×2 and
/// positive, finite, ordered axis ranges.
fn check_raster_window(
    (x0, x1): (f64, f64),
    (y0, y1): (f64, f64),
    nx: usize,
    ny: usize,
) -> Result<(), ValidationError> {
    if nx < 2 {
        return Err(ValidationError::new("nx", nx as f64, ">= 2"));
    }
    if ny < 2 {
        return Err(ValidationError::new("ny", ny as f64, ">= 2"));
    }
    check::positive("x0", x0)?;
    check::positive("y0", y0)?;
    if !(x1.is_finite() && x1 > x0) {
        return Err(ValidationError::new("x1", x1, "finite and > x0"));
    }
    if !(y1.is_finite() && y1 > y0) {
        return Err(ValidationError::new("y1", y1, "finite and > y0"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::usage::UsagePattern;
    use ppatc_units::{approx_eq, CarbonMass, Power, Time};

    fn map() -> TcdpMap {
        let exec = Time::from_seconds(0.04);
        let usage = UsagePattern::paper_default();
        let si = CarbonTrajectory::new(
            CarbonMass::from_grams(3.11),
            Power::from_milliwatts(9.7),
            usage,
            exec,
        );
        let m3d = CarbonTrajectory::new(
            CarbonMass::from_grams(3.63),
            Power::from_milliwatts(8.45),
            usage,
            exec,
        );
        TcdpMap::new(si, m3d, Lifetime::months(24.0), 0.50)
    }

    #[test]
    fn nominal_point_favors_m3d() {
        // At (1, 1) the map reproduces the paper's 1.02× benefit.
        let r = map().ratio(1.0, 1.0);
        assert!(approx_eq(1.0 / r, 1.02, 0.01), "benefit {:.3}", 1.0 / r);
    }

    #[test]
    fn ratio_moves_the_right_way() {
        let m = map();
        assert!(m.ratio(2.0, 1.0) > m.ratio(1.0, 1.0), "more embodied hurts");
        assert!(m.ratio(1.0, 0.5) < m.ratio(1.0, 1.0), "less energy helps");
    }

    #[test]
    fn isoline_passes_between_regions() {
        let m = map();
        let y = m.isoline_y(1.0, None).expect("isoline exists at x=1");
        // Just below the isoline M3D wins, just above it loses.
        assert!(m.ratio(1.0, y * 0.95) < 1.0);
        assert!(m.ratio(1.0, y * 1.05) > 1.0);
        // At nominal (1,1) M3D already wins, so the isoline sits above 1.
        assert!(y > 1.0);
    }

    #[test]
    fn isoline_vanishes_for_huge_embodied() {
        let m = map();
        // With M3D embodied scaled far beyond the baseline's total carbon,
        // no positive operational scale can equalize.
        assert!(m.isoline_y(10.0, None).is_none());
    }

    #[test]
    fn lifetime_perturbation_shifts_isoline_up() {
        let m = map();
        let nominal = m.isoline_y(1.5, None).expect("nominal isoline");
        let longer = m
            .isoline_y(1.5, Some(Perturbation::LifetimeDeltaMonths(6.0)))
            .expect("longer-life isoline");
        // A longer lifetime amortizes embodied carbon: the M3D-favorable
        // region grows.
        assert!(longer > nominal);
    }

    #[test]
    fn ci_perturbation_shifts_isoline() {
        let m = map();
        let nominal = m.isoline_y(1.5, None).expect("nominal isoline");
        let dirty = m
            .isoline_y(1.5, Some(Perturbation::CiUseScale(3.0)))
            .expect("dirty-grid isoline");
        // Dirtier use-phase electricity also amortizes embodied carbon
        // faster, enlarging the M3D region.
        assert!(dirty > nominal);
    }

    #[test]
    fn yield_perturbation_moves_both_ways() {
        let m = map();
        let nominal = m.isoline_y(1.0, None).expect("nominal");
        let worse = m.isoline_y(1.0, Some(Perturbation::M3dYield(0.10)));
        let better = m
            .isoline_y(1.0, Some(Perturbation::M3dYield(0.90)))
            .expect("better-yield isoline");
        assert!(better > nominal);
        // At 10% yield the M3D embodied carbon quintuples; the region may
        // shrink dramatically or vanish.
        if let Some(w) = worse {
            assert!(w < nominal);
        }
    }

    #[test]
    fn invalid_inputs_are_structured_errors() {
        let m = map();
        let exec = Time::from_seconds(0.04);
        let usage = UsagePattern::paper_default();
        let t = |g: f64, mw: f64| {
            CarbonTrajectory::new(
                CarbonMass::from_grams(g),
                Power::from_milliwatts(mw),
                usage,
                exec,
            )
        };
        let e = TcdpMap::try_new(t(3.0, 9.0), t(3.5, 8.0), Lifetime::months(24.0), 1.7)
            .expect_err("yield above 1 rejected");
        assert_eq!(e.field, "m3d_nominal_yield");
        assert_eq!(e.value, 1.7);
        let e = TcdpMap::try_new(t(3.0, 9.0), t(3.5, 8.0), Lifetime::months(24.0), f64::NAN)
            .expect_err("NaN yield rejected");
        assert_eq!(e.field, "m3d_nominal_yield");
        let e = m
            .try_ratio_with(f64::NAN, 1.0, None)
            .expect_err("NaN scale rejected");
        assert_eq!(e.field, "embodied_scale");
        let e = m
            .try_ratio_with(1.0, -2.0, None)
            .expect_err("negative scale rejected");
        assert_eq!(e.field, "eop_scale");
        let e = m
            .try_ratio_with(1.0, 1.0, Some(Perturbation::M3dYield(0.0)))
            .expect_err("zero yield perturbation rejected");
        assert_eq!(e.field, "m3d_yield");
        let e = m
            .try_isoline_y(1.0, Some(Perturbation::CiUseScale(f64::INFINITY)))
            .expect_err("infinite CI scale rejected");
        assert_eq!(e.field, "ci_use_scale");
        let e = m
            .try_raster((0.5, 3.0), (0.25, 1.5), 1, 5)
            .expect_err("1-wide raster rejected");
        assert!(matches!(e, PpatcError::Validation(v) if v.field == "nx"));
        let e = m
            .try_raster((3.0, 0.5), (0.25, 1.5), 6, 5)
            .expect_err("empty range rejected");
        assert!(matches!(e, PpatcError::Validation(v) if v.field == "x1"));
    }

    #[test]
    fn parallel_raster_is_byte_identical_to_serial() {
        let m = map();
        let serial = m
            .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 40, 30, 1)
            .expect("serial raster");
        for jobs in [2, 8] {
            let parallel = m
                .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 40, 30, jobs)
                .expect("parallel raster");
            let bits = |grid: &[(f64, f64, f64)]| {
                grid.iter()
                    .map(|(x, y, r)| (x.to_bits(), y.to_bits(), r.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&serial), bits(&parallel), "jobs = {jobs}");
        }
    }

    #[test]
    fn supervised_raster_matches_unsupervised() {
        let m = map();
        let plain = m
            .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 24, 18, 3)
            .expect("plain raster");
        let supervised = m
            .try_raster_supervised((0.5, 3.0), (0.25, 1.5), 24, 18, 3, &Supervisor::new())
            .expect("supervised raster");
        let bits = |grid: &[(f64, f64, f64)]| {
            grid.iter()
                .map(|(x, y, r)| (x.to_bits(), y.to_bits(), r.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&plain), bits(&supervised));
    }

    #[test]
    fn supervised_raster_still_validates_the_window() {
        let m = map();
        let e = m
            .try_raster_supervised((3.0, 0.5), (0.25, 1.5), 6, 5, 1, &Supervisor::new())
            .expect_err("empty range rejected");
        assert!(matches!(e, PpatcError::Validation(v) if v.field == "x1"));
    }

    #[test]
    fn raster_spec_distinguishes_windows_and_maps() {
        let m = map();
        let base = m.raster_spec((0.5, 3.0), (0.25, 1.5), 6, 5);
        let other_window = m.raster_spec((0.5, 2.0), (0.25, 1.5), 6, 5);
        let other_res = m.raster_spec((0.5, 3.0), (0.25, 1.5), 5, 6);
        assert_ne!(base.fingerprint, other_window.fingerprint);
        assert_ne!(base.fingerprint, other_res.fingerprint);

        // A different trajectory pair over the same window must not be able
        // to consume this map's journal: the corner probes differ.
        let exec = Time::from_seconds(0.04);
        let usage = UsagePattern::paper_default();
        let si = CarbonTrajectory::new(
            CarbonMass::from_grams(4.0),
            Power::from_milliwatts(11.0),
            usage,
            exec,
        );
        let m3d = CarbonTrajectory::new(
            CarbonMass::from_grams(4.4),
            Power::from_milliwatts(9.0),
            usage,
            exec,
        );
        let other_map = TcdpMap::new(si, m3d, Lifetime::months(24.0), 0.50);
        let other = other_map.raster_spec((0.5, 3.0), (0.25, 1.5), 6, 5);
        assert_ne!(base.fingerprint, other.fingerprint);
    }

    #[test]
    fn raster_covers_grid() {
        let m = map();
        let grid = m.raster((0.5, 3.0), (0.25, 1.5), 6, 5);
        assert_eq!(grid.len(), 30);
        let (x0, y0, _) = grid[0];
        let (x1, y1, _) = *grid.last().expect("non-empty");
        assert!(approx_eq(x0, 0.5, 1e-12) && approx_eq(y0, 0.25, 1e-12));
        assert!(approx_eq(x1, 3.0, 1e-12) && approx_eq(y1, 1.5, 1e-12));
    }
}
