//! Per-good-die embodied carbon: Eq. 2 (wafer) through Eq. 5 (good die).

use crate::error::{check, ValidationError};
use crate::system::SystemDesign;
use ppatc_fab::{EmbodiedBreakdown, EmbodiedModel, Grid};
use ppatc_pdk::Technology;
use ppatc_units::CarbonMass;
use ppatc_wafer::WaferSpec;

/// The embodied-carbon pipeline: process model + wafer geometry + fab grid.
///
/// Eq. 2's per-wafer carbon depends only on the technology, the process
/// model and the fab grid, so each technology's breakdown is computed when
/// the pipeline is built and again when the grid is replaced; only Eq. 5's
/// dies per wafer and yield are evaluated per design.
///
/// ```
/// use ppatc::{EmbodiedPipeline, SystemDesign, Technology};
/// use ppatc_units::Frequency;
///
/// let design = SystemDesign::new(Technology::AllSi, Frequency::from_megahertz(500.0))?;
/// let embodied = EmbodiedPipeline::paper_default().per_good_die(&design);
/// assert!((embodied.per_good_die().as_grams() - 3.11).abs() < 0.15);
/// # Ok::<(), ppatc::DesignError>(())
/// ```
#[derive(Clone, Debug)]
pub struct EmbodiedPipeline {
    model: EmbodiedModel,
    wafer: WaferSpec,
    fab_grid: Grid,
    /// Eq. 2 of each technology under `model` on `fab_grid`, in
    /// [`Technology::ALL`] order.
    breakdowns: [EmbodiedBreakdown; 2],
    embodied_scale: f64,
}

impl EmbodiedPipeline {
    /// The paper's configuration: calibrated step energies, 300 mm wafers
    /// with 0.1 mm scribe / 5 mm edge clearance, U.S. fabrication grid.
    pub fn paper_default() -> Self {
        let model = EmbodiedModel::paper_default();
        let fab_grid = ppatc_fab::grid::US;
        Self {
            breakdowns: breakdowns(&model, fab_grid),
            model,
            wafer: WaferSpec::paper_default(),
            fab_grid,
            embodied_scale: 1.0,
        }
    }

    /// Replaces the fabrication grid.
    #[must_use]
    pub fn with_fab_grid(mut self, fab_grid: Grid) -> Self {
        self.fab_grid = fab_grid;
        self.breakdowns = breakdowns(&self.model, fab_grid);
        self
    }

    /// Scales the final embodied carbon by `factor` — the x-axis of the
    /// Fig. 6 maps (uncertainty in C_embodied). Rejects non-positive or
    /// non-finite factors.
    pub fn try_with_embodied_scale(mut self, factor: f64) -> Result<Self, ValidationError> {
        check::positive("embodied_scale", factor)?;
        self.embodied_scale = factor;
        Ok(self)
    }

    /// Fabrication grid in use.
    pub fn fab_grid(&self) -> Grid {
        self.fab_grid
    }

    /// Evaluates Eqs. 2–5 for a design.
    pub fn per_good_die(&self, design: &SystemDesign) -> EmbodiedPerDie {
        let breakdown = match design.technology() {
            Technology::AllSi => &self.breakdowns[0],
            Technology::M3dIgzoCnfetSi => &self.breakdowns[1],
        };
        let per_wafer = breakdown.total() * self.embodied_scale;
        let die = design.die();
        let dies_per_wafer = self.wafer.dies_per_wafer(&die);
        let die_yield = design.yield_model().die_yield(die.area());
        let per_good_die = ppatc_wafer::embodied_per_good_die(
            per_wafer,
            dies_per_wafer,
            design.yield_model(),
            die.area(),
        );
        EmbodiedPerDie {
            per_wafer,
            dies_per_wafer,
            die_yield,
            per_good_die,
        }
    }
}

impl Default for EmbodiedPipeline {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Eq. 2 of every technology, in [`Technology::ALL`] order.
fn breakdowns(model: &EmbodiedModel, fab_grid: Grid) -> [EmbodiedBreakdown; 2] {
    Technology::ALL.map(|technology| model.embodied_per_wafer(technology, fab_grid))
}

/// Result of the embodied pipeline for one design.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EmbodiedPerDie {
    per_wafer: CarbonMass,
    dies_per_wafer: u64,
    die_yield: f64,
    per_good_die: CarbonMass,
}

impl EmbodiedPerDie {
    /// Embodied carbon of the full wafer (Eq. 2, with facility overhead).
    pub fn per_wafer(&self) -> CarbonMass {
        self.per_wafer
    }

    /// Gross dies per wafer (Table II row).
    pub fn dies_per_wafer(&self) -> u64 {
        self.dies_per_wafer
    }

    /// Die yield used.
    pub fn die_yield(&self) -> f64 {
        self.die_yield
    }

    /// Embodied carbon per good die (Eq. 5, Table II row).
    pub fn per_good_die(&self) -> CarbonMass {
        self.per_good_die
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::{approx_eq, Frequency};

    fn designs() -> (SystemDesign, SystemDesign) {
        let f = Frequency::from_megahertz(500.0);
        (
            SystemDesign::new(Technology::AllSi, f).expect("all-Si designs"),
            SystemDesign::new(Technology::M3dIgzoCnfetSi, f).expect("M3D designs"),
        )
    }

    #[test]
    fn table2_dies_per_wafer() {
        let (si, m3d) = designs();
        let pipe = EmbodiedPipeline::paper_default();
        let n_si = pipe.per_good_die(&si).dies_per_wafer();
        let n_m3d = pipe.per_good_die(&m3d).dies_per_wafer();
        assert!(
            approx_eq(n_si as f64, 299_127.0, 0.02),
            "all-Si dies {n_si}"
        );
        assert!(approx_eq(n_m3d as f64, 606_238.0, 0.04), "M3D dies {n_m3d}");
    }

    #[test]
    fn table2_per_good_die() {
        let (si, m3d) = designs();
        let pipe = EmbodiedPipeline::paper_default();
        let c_si = pipe.per_good_die(&si).per_good_die().as_grams();
        let c_m3d = pipe.per_good_die(&m3d).per_good_die().as_grams();
        assert!(approx_eq(c_si, 3.11, 0.03), "all-Si per good die {c_si} g");
        assert!(approx_eq(c_m3d, 3.63, 0.05), "M3D per good die {c_m3d} g");
        // Sec. III-C: 1.17× embodied increase per good die for M3D.
        assert!(
            approx_eq(c_m3d / c_si, 1.17, 0.04),
            "ratio {}",
            c_m3d / c_si
        );
    }

    #[test]
    fn embodied_scale_is_linear() {
        let (si, _) = designs();
        let base = EmbodiedPipeline::paper_default().per_good_die(&si);
        let doubled = EmbodiedPipeline::paper_default()
            .try_with_embodied_scale(2.0)
            .expect("valid factor")
            .per_good_die(&si);
        assert!(approx_eq(
            doubled.per_good_die().as_grams(),
            2.0 * base.per_good_die().as_grams(),
            1e-12
        ));
    }

    #[test]
    fn stored_breakdowns_match_a_fresh_eq2_bit_for_bit() {
        let (si, m3d) = designs();
        let model = EmbodiedModel::paper_default();
        for grid in ppatc_fab::grid::FIG2C_GRIDS {
            for scale in [1.0, 2.0] {
                let pipe = EmbodiedPipeline::paper_default()
                    .with_fab_grid(grid)
                    .try_with_embodied_scale(scale)
                    .expect("valid factor");
                for design in [&si, &m3d] {
                    let got = pipe.per_good_die(design);
                    let per_wafer =
                        model.embodied_per_wafer(design.technology(), grid).total() * scale;
                    let die = design.die();
                    let per_good_die = ppatc_wafer::embodied_per_good_die(
                        per_wafer,
                        WaferSpec::paper_default().dies_per_wafer(&die),
                        design.yield_model(),
                        die.area(),
                    );
                    let what = format!("{} on {grid:?} at scale {scale}", design.technology());
                    assert_eq!(
                        got.per_wafer().as_grams().to_bits(),
                        per_wafer.as_grams().to_bits(),
                        "per wafer, {what}"
                    );
                    assert_eq!(
                        got.per_good_die().as_grams().to_bits(),
                        per_good_die.as_grams().to_bits(),
                        "per good die, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn cleaner_fab_grid_cuts_embodied() {
        let (_, m3d) = designs();
        let us = EmbodiedPipeline::paper_default().per_good_die(&m3d);
        let solar = EmbodiedPipeline::paper_default()
            .with_fab_grid(ppatc_fab::grid::SOLAR)
            .per_good_die(&m3d);
        assert!(solar.per_good_die() < us.per_good_die());
    }
}
