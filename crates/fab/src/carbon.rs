//! The per-wafer embodied-carbon model (Eqs. 2 and 3, Fig. 2c).

use crate::flow::ProcessFlow;
use crate::grid::Grid;
use crate::materials;
use crate::steps::StepEnergies;
use ppatc_pdk::{Technology, TierKind};
use ppatc_units::{Area, CarbonArea, CarbonMass, Energy, Length};

/// Reference EPA of the imec iN7 EUV node, kWh per 300 mm wafer, used to
/// scale GPA (Eq. 3). The paper reports its processes at 0.79× and 1.22× of
/// this reference.
pub const EPA_IN7_KWH: f64 = 885.0;

/// Published GPA of the imec iN7 EUV node, kgCO₂e/cm².
pub const GPA_IN7_KG_PER_CM2: f64 = 0.20;

/// ITRS facility-energy overhead: `EPA_f = 1.4 × EPA`.
pub const FACILITY_OVERHEAD: f64 = 1.4;

/// The complete embodied-carbon model of Section II.
///
/// ```
/// use ppatc_fab::{grid, EmbodiedModel};
/// use ppatc_pdk::Technology;
///
/// let model = EmbodiedModel::paper_default();
/// let m3d = model.embodied_per_wafer(Technology::M3dIgzoCnfetSi, grid::US);
/// // Table II: 1100 kgCO2e per M3D wafer on the U.S. grid.
/// assert!((m3d.total().as_kilograms() - 1100.0).abs() < 11.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EmbodiedModel {
    step_energies: StepEnergies,
    wafer_diameter: Length,
    facility_overhead: f64,
    epa_reference: Energy,
    gpa_reference: CarbonArea,
}

impl EmbodiedModel {
    /// The model with all constants as used in the paper: calibrated 7 nm
    /// step energies, 300 mm wafers, 1.4× facility overhead, and the iN7
    /// GPA/EPA references.
    pub fn paper_default() -> Self {
        Self {
            step_energies: StepEnergies::calibrated_7nm(),
            wafer_diameter: Length::from_millimeters(300.0),
            facility_overhead: FACILITY_OVERHEAD,
            epa_reference: Energy::from_kilowatt_hours(EPA_IN7_KWH),
            gpa_reference: CarbonArea::from_kg_per_cm2(GPA_IN7_KG_PER_CM2),
        }
    }

    /// Replaces the step-energy database (e.g. a [`StepEnergies::scaled`]
    /// copy for uncertainty analysis).
    #[must_use]
    pub fn with_step_energies(mut self, step_energies: StepEnergies) -> Self {
        self.step_energies = step_energies;
        self
    }

    /// Replaces the facility overhead factor.
    ///
    /// # Panics
    ///
    /// Panics if `overhead < 1`.
    #[must_use]
    pub fn with_facility_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 1.0, "facility overhead must be at least 1");
        self.facility_overhead = overhead;
        self
    }

    /// The step-energy database in use.
    pub fn step_energies(&self) -> &StepEnergies {
        &self.step_energies
    }

    /// Wafer area implied by the configured diameter.
    pub fn wafer_area(&self) -> Area {
        Area::of_wafer(self.wafer_diameter)
    }

    /// EPA of a flow (before facility overhead), per wafer.
    pub fn epa(&self, flow: &ProcessFlow) -> Energy {
        flow.epa(&self.step_energies)
    }

    /// GPA of a flow via Eq. 3: the iN7 value scaled by the EPA ratio.
    pub fn gpa(&self, flow: &ProcessFlow) -> CarbonArea {
        self.gpa_for_epa(self.epa(flow))
    }

    /// Eq. 3 for an EPA already summed.
    fn gpa_for_epa(&self, epa: Energy) -> CarbonArea {
        self.gpa_reference * (epa / self.epa_reference)
    }

    /// MPA for a technology (substrate + emerging-material additions).
    pub fn mpa(&self, technology: Technology) -> CarbonArea {
        let stack = technology.stack();
        materials::process_mpa(
            self.wafer_area(),
            stack.tier_count(TierKind::Cnfet),
            stack.tier_count(TierKind::Igzo),
        )
    }

    /// Full Eq. 2 evaluation for one technology on one grid.
    pub fn embodied_per_wafer(&self, technology: Technology, fab_grid: Grid) -> EmbodiedBreakdown {
        let flow = ProcessFlow::for_technology(technology);
        self.embodied_per_wafer_for_flow(&flow, technology, fab_grid)
    }

    /// Eq. 2 for an explicit flow (allows custom stacks); `technology`
    /// selects the materials model.
    pub fn embodied_per_wafer_for_flow(
        &self,
        flow: &ProcessFlow,
        technology: Technology,
        fab_grid: Grid,
    ) -> EmbodiedBreakdown {
        let area = self.wafer_area();
        let epa = self.epa(flow);
        let epa_f = epa * self.facility_overhead;
        EmbodiedBreakdown {
            technology,
            grid: fab_grid,
            wafer_area: area,
            materials: self.mpa(technology) * area,
            gases: self.gpa_for_epa(epa) * area,
            fab_electricity: fab_grid.ci() * epa_f,
            epa,
        }
    }
}

impl Default for EmbodiedModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The MPA/GPA/electricity decomposition of one wafer's embodied carbon.
#[derive(Clone, Debug, PartialEq)]
pub struct EmbodiedBreakdown {
    technology: Technology,
    grid: Grid,
    wafer_area: Area,
    materials: CarbonMass,
    gases: CarbonMass,
    fab_electricity: CarbonMass,
    epa: Energy,
}

impl EmbodiedBreakdown {
    /// Technology this breakdown describes.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Fabrication grid used for the electricity term.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Materials-procurement carbon (MPA × area).
    pub fn materials(&self) -> CarbonMass {
        self.materials
    }

    /// Direct gas-emission carbon (GPA × area).
    pub fn gases(&self) -> CarbonMass {
        self.gases
    }

    /// Fabrication-electricity carbon (CI_fab × EPA_f × area), including the
    /// facility overhead.
    pub fn fab_electricity(&self) -> CarbonMass {
        self.fab_electricity
    }

    /// Pre-overhead electrical energy per wafer.
    pub fn epa(&self) -> Energy {
        self.epa
    }

    /// Total embodied carbon per wafer.
    pub fn total(&self) -> CarbonMass {
        self.materials + self.gases + self.fab_electricity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid;
    use ppatc_units::approx_eq;

    #[test]
    fn fig2c_us_grid_bars() {
        let model = EmbodiedModel::paper_default();
        let si = model.embodied_per_wafer(Technology::AllSi, grid::US);
        let m3d = model.embodied_per_wafer(Technology::M3dIgzoCnfetSi, grid::US);
        assert!(
            approx_eq(si.total().as_kilograms(), 837.0, 0.005),
            "all-Si {:.1} kg",
            si.total().as_kilograms()
        );
        assert!(
            approx_eq(m3d.total().as_kilograms(), 1100.0, 0.005),
            "M3D {:.1} kg",
            m3d.total().as_kilograms()
        );
    }

    #[test]
    fn average_overhead_across_grids_is_1_31() {
        // Abstract: M3D embodied carbon is on average 1.31× the all-Si
        // process across the U.S., coal, solar, and Taiwanese grids.
        let model = EmbodiedModel::paper_default();
        let mean: f64 = grid::FIG2C_GRIDS
            .iter()
            .map(|&g| {
                let si = model.embodied_per_wafer(Technology::AllSi, g).total();
                let m3d = model
                    .embodied_per_wafer(Technology::M3dIgzoCnfetSi, g)
                    .total();
                m3d / si
            })
            .sum::<f64>()
            / 4.0;
        assert!(approx_eq(mean, 1.31, 0.01), "average ratio {mean:.4}");
    }

    #[test]
    fn gpa_scale_factors_match_paper() {
        let model = EmbodiedModel::paper_default();
        let si = ProcessFlow::for_technology(Technology::AllSi);
        let m3d = ProcessFlow::for_technology(Technology::M3dIgzoCnfetSi);
        let si_ratio = model.epa(&si) / Energy::from_kilowatt_hours(EPA_IN7_KWH);
        let m3d_ratio = model.epa(&m3d) / Energy::from_kilowatt_hours(EPA_IN7_KWH);
        assert!(
            approx_eq(si_ratio, 0.79, 0.005),
            "all-Si ratio {si_ratio:.4}"
        );
        assert!(
            approx_eq(m3d_ratio, 1.22, 0.005),
            "M3D ratio {m3d_ratio:.4}"
        );
    }

    #[test]
    fn solar_grid_shrinks_the_gap() {
        // On a clean grid the electricity term collapses and the M3D
        // overhead drops toward the GPA+MPA-driven floor.
        let model = EmbodiedModel::paper_default();
        let ratio_solar = model
            .embodied_per_wafer(Technology::M3dIgzoCnfetSi, grid::SOLAR)
            .total()
            / model
                .embodied_per_wafer(Technology::AllSi, grid::SOLAR)
                .total();
        let ratio_coal = model
            .embodied_per_wafer(Technology::M3dIgzoCnfetSi, grid::COAL)
            .total()
            / model
                .embodied_per_wafer(Technology::AllSi, grid::COAL)
                .total();
        assert!(ratio_solar < ratio_coal);
        assert!(ratio_solar > 1.0, "M3D always costs more to fabricate");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let model = EmbodiedModel::paper_default();
        let b = model.embodied_per_wafer(Technology::AllSi, grid::TAIWAN);
        let sum = b.materials() + b.gases() + b.fab_electricity();
        assert!(approx_eq(sum.as_grams(), b.total().as_grams(), 1e-12));
    }

    #[test]
    fn facility_overhead_is_epa_only() {
        // Removing the overhead must reduce exactly the electricity term by 1.4×.
        let base = EmbodiedModel::paper_default();
        let no_oh = EmbodiedModel::paper_default().with_facility_overhead(1.0);
        let b1 = base.embodied_per_wafer(Technology::AllSi, grid::US);
        let b2 = no_oh.embodied_per_wafer(Technology::AllSi, grid::US);
        assert!(approx_eq(
            b1.fab_electricity().as_grams(),
            1.4 * b2.fab_electricity().as_grams(),
            1e-12
        ));
        assert!(approx_eq(
            b1.gases().as_grams(),
            b2.gases().as_grams(),
            1e-12
        ));
    }

    #[test]
    fn scaled_step_energies_scale_the_electricity_term() {
        let model = EmbodiedModel::paper_default();
        let scaled = EmbodiedModel::paper_default()
            .with_step_energies(StepEnergies::calibrated_7nm().scaled(2.0));
        let b1 = model.embodied_per_wafer(Technology::AllSi, grid::US);
        let b2 = scaled.embodied_per_wafer(Technology::AllSi, grid::US);
        // BEOL doubles but the FEOL block does not, so the increase is
        // bounded by 2× and well above 1×.
        let ratio = b2.fab_electricity() / b1.fab_electricity();
        assert!(ratio > 1.3 && ratio < 2.0, "electricity ratio {ratio}");
    }
}
