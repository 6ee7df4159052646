//! Process flows: ordered step sequences for complete technologies.
//!
//! A flow is built structurally from a [`LayerStack`]: each metal/via pair
//! expands into the patterning sequence its pitch requires, each BEOL device
//! tier expands into its device-formation sequence (Sec. II-C of the paper),
//! and the Si FinFET FEOL enters as one aggregate energy block equated to
//! the imec iN7 front-/middle-of-line (436 kWh/wafer).

use crate::steps::{LithoTool, ProcessArea, ProcessStep, StepEnergies};
use ppatc_pdk::{LayerStack, Lithography, StackElement, Technology, TierKind};
use ppatc_units::Energy;

/// Front-of-line + middle-of-line energy for a 7 nm FinFET FEOL, kWh/wafer
/// (imec iN7, Bardon IEDM 2020 — used by the paper for both processes).
pub const FEOL_KWH_PER_WAFER: f64 = 436.0;

/// A complete wafer-fabrication flow: an aggregate FEOL block plus an
/// ordered list of BEOL steps.
///
/// ```
/// use ppatc_fab::{ProcessFlow, StepEnergies};
/// use ppatc_pdk::Technology;
///
/// let db = StepEnergies::calibrated_7nm();
/// let all_si = ProcessFlow::for_technology(Technology::AllSi);
/// let m3d = ProcessFlow::for_technology(Technology::M3dIgzoCnfetSi);
/// // Sec. II-C: EPA is ~699 kWh/wafer (all-Si) vs ~1080 kWh/wafer (M3D).
/// assert!((all_si.epa(&db).as_kilowatt_hours() - 699.0).abs() < 7.0);
/// assert!((m3d.epa(&db).as_kilowatt_hours() - 1079.5).abs() < 11.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessFlow {
    name: String,
    feol: Energy,
    steps: Vec<ProcessStep>,
}

impl ProcessFlow {
    /// Builds the flow for one of the paper's two technologies.
    pub fn for_technology(technology: Technology) -> Self {
        Self::from_stack(technology.label(), &technology.stack())
    }

    /// Builds a flow from an arbitrary layer stack, with the standard 7 nm
    /// FinFET FEOL block.
    pub fn from_stack(name: impl Into<String>, stack: &LayerStack) -> Self {
        let mut steps = Vec::new();
        for element in stack {
            match element {
                StackElement::Metal(m) => {
                    steps.extend(metal_via_pair_steps(m.lithography()));
                }
                StackElement::DeviceTier(TierKind::Cnfet) => steps.extend(cnfet_tier_steps()),
                StackElement::DeviceTier(TierKind::Igzo) => steps.extend(igzo_tier_steps()),
            }
        }
        Self {
            name: name.into(),
            feol: Energy::from_kilowatt_hours(FEOL_KWH_PER_WAFER),
            steps,
        }
    }

    /// Flow name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered BEOL steps.
    pub fn steps(&self) -> &[ProcessStep] {
        &self.steps
    }

    /// BEOL electrical energy per wafer under the given step database.
    pub fn beol_epa(&self, db: &StepEnergies) -> Energy {
        self.steps.iter().map(|s| db.energy(s)).sum()
    }

    /// Total electrical energy per wafer (EPA in the paper's Eq. 2, before
    /// the facility overhead): FEOL block + BEOL steps.
    pub fn epa(&self, db: &StepEnergies) -> Energy {
        self.feol + self.beol_epa(db)
    }

    /// The Eq. 4 step-count vector: how many times each (process area,
    /// litho tool) combination appears in the BEOL, in matrix-row order.
    pub fn step_counts(&self) -> Vec<(ProcessArea, Option<LithoTool>, usize)> {
        let mut rows: Vec<(ProcessArea, Option<LithoTool>, usize)> = Vec::new();
        for area in ProcessArea::ALL {
            let tools: &[Option<LithoTool>] = if area == ProcessArea::Lithography {
                &[Some(LithoTool::Euv), Some(LithoTool::Immersion)]
            } else {
                &[None]
            };
            for &tool in tools {
                let n = self
                    .steps
                    .iter()
                    .filter(|s| s.area == area && s.tool == tool)
                    .count();
                rows.push((area, tool, n));
            }
        }
        rows
    }
}

/// Per-process-area breakdown of a step sequence: `(area, step count, total
/// energy)` — the format of the paper's Fig. 2d.
pub fn area_breakdown(
    steps: &[ProcessStep],
    db: &StepEnergies,
) -> Vec<(ProcessArea, usize, Energy)> {
    ProcessArea::ALL
        .iter()
        .map(|&area| {
            let in_area: Vec<&ProcessStep> = steps.iter().filter(|s| s.area == area).collect();
            let total: Energy = in_area.iter().map(|s| db.energy(s)).sum();
            (area, in_area.len(), total)
        })
        .collect()
}

/// The step sequence of one metal/via routing pair at the given patterning
/// class (dual-damascene: via then trench, barrier/plate/CMP). Every pair of
/// one class runs the same steps, whichever layer it builds, so the labels
/// name the step (`"via etch"`), not the layer.
pub fn metal_via_pair_steps(litho: Lithography) -> Vec<ProcessStep> {
    let dep = |label| ProcessStep::new(ProcessArea::Deposition, label);
    let dry = |label| ProcessStep::new(ProcessArea::DryEtch, label);
    let wet = |label| ProcessStep::new(ProcessArea::WetEtch, label);
    let metz = |label| ProcessStep::new(ProcessArea::Metallization, label);
    let met = |label| ProcessStep::new(ProcessArea::Metrology, label);
    let euv = |label| ProcessStep::litho(LithoTool::Euv, label);
    let imm = |label| ProcessStep::litho(LithoTool::Immersion, label);
    match litho {
        // Single EUV print each for via and trench.
        Lithography::EuvSingle => vec![
            dep("ILD deposition"),
            euv("via EUV exposure"),
            dry("via etch"),
            dep("trench hard mask"),
            euv("trench EUV exposure"),
            dry("trench etch"),
            dry("hard-mask strip"),
            wet("post-etch clean"),
            dep("barrier/liner deposition"),
            dep("Cu seed deposition"),
            metz("Cu electroplating"),
            metz("anneal"),
            metz("CMP"),
            wet("post-CMP clean"),
            dep("dielectric cap"),
            dry("descum"),
            dry("cap open"),
            met("metrology 1"),
            met("metrology 2"),
            met("metrology 3"),
            met("metrology 4"),
        ],
        // Litho-etch-litho-etch trench + single-print via.
        Lithography::ImmersionLele => vec![
            dep("ILD deposition"),
            imm("via exposure"),
            dry("via etch"),
            dep("trench hard mask A"),
            imm("trench exposure A"),
            dry("trench etch A"),
            dep("trench hard mask B"),
            imm("trench exposure B"),
            dry("trench etch B"),
            dry("hard-mask strip"),
            dry("final trench transfer"),
            dry("descum"),
            wet("post-etch clean"),
            dep("barrier/liner deposition"),
            dep("Cu seed deposition"),
            metz("Cu electroplating"),
            metz("anneal"),
            metz("CMP"),
            wet("post-CMP clean"),
            dep("dielectric cap"),
            met("metrology 1"),
            met("metrology 2"),
            met("metrology 3"),
            met("metrology 4"),
            met("metrology 5"),
        ],
        Lithography::ImmersionSingle => vec![
            dep("ILD deposition"),
            imm("via exposure"),
            dry("via etch"),
            imm("trench exposure"),
            dry("trench etch"),
            dry("hard-mask strip"),
            dry("descum"),
            wet("post-etch clean"),
            dep("barrier/liner deposition"),
            dep("Cu seed deposition"),
            metz("Cu electroplating"),
            metz("anneal"),
            metz("CMP"),
            wet("post-CMP clean"),
            dep("dielectric cap"),
            met("metrology 1"),
            met("metrology 2"),
            met("metrology 3"),
        ],
    }
}

/// The step sequence of one CNFET device tier (paper Sec. II-C): oxide +
/// wet-incubation CNT deposition, O₂-plasma active patterning, S/D
/// formation, high-k deposition, gate formation, S/D expose, and tier vias.
pub fn cnfet_tier_steps() -> Vec<ProcessStep> {
    let dep = |label| ProcessStep::new(ProcessArea::Deposition, label);
    let dry = |label| ProcessStep::new(ProcessArea::DryEtch, label);
    let wet = |label| ProcessStep::new(ProcessArea::WetEtch, label);
    let met = |label| ProcessStep::new(ProcessArea::Metrology, label);
    let euv = |label| ProcessStep::litho(LithoTool::Euv, label);
    vec![
        dep("CNFET tier isolation oxide"),
        dep("CNT wet-incubation deposition (~2 nm)"),
        wet("CNT incubation rinse"),
        euv("CNFET active exposure"),
        dry("CNFET active O2-plasma etch"),
        euv("CNFET S/D exposure"),
        dep("CNFET S/D electrode deposition (40 nm)"),
        wet("CNFET S/D lift-off"),
        dep("CNFET high-k dielectric (2 nm)"),
        euv("CNFET gate exposure"),
        dep("CNFET gate metal deposition (30 nm)"),
        dry("CNFET gate etch"),
        wet("CNFET S/D expose wet etch"),
        euv("CNFET tier-via exposure"),
        dry("CNFET tier-via etch"),
        dep("CNFET tier-via fill"),
        ProcessStep::new(ProcessArea::Metallization, "CNFET tier-via CMP"),
        wet("CNFET post-CMP clean"),
        met("CNFET tier metrology 1"),
        met("CNFET tier metrology 2"),
        met("CNFET tier metrology 3"),
        met("CNFET tier metrology 4"),
        met("CNFET tier metrology 5"),
        met("CNFET tier metrology 6"),
    ]
}

/// The step sequence of one IGZO device tier: RF-sputtered channel,
/// wet-etched active, S/D, ALD high-k, gate, and tier vias.
pub fn igzo_tier_steps() -> Vec<ProcessStep> {
    let dep = |label| ProcessStep::new(ProcessArea::Deposition, label);
    let dry = |label| ProcessStep::new(ProcessArea::DryEtch, label);
    let wet = |label| ProcessStep::new(ProcessArea::WetEtch, label);
    let met = |label| ProcessStep::new(ProcessArea::Metrology, label);
    let euv = |label| ProcessStep::litho(LithoTool::Euv, label);
    vec![
        dep("IGZO RF-sputter deposition (10 nm)"),
        euv("IGZO active exposure"),
        wet("IGZO active wet etch"),
        euv("IGZO S/D exposure"),
        dep("IGZO S/D electrode deposition"),
        wet("IGZO S/D lift-off"),
        dep("IGZO ALD gate insulator (4 nm)"),
        euv("IGZO gate exposure"),
        dep("IGZO gate metal deposition"),
        dry("IGZO gate etch"),
        euv("IGZO tier-via exposure"),
        dry("IGZO tier-via etch"),
        dep("IGZO tier-via fill"),
        ProcessStep::new(ProcessArea::Metallization, "IGZO tier-via CMP"),
        wet("IGZO post-CMP clean"),
        met("IGZO tier metrology 1"),
        met("IGZO tier metrology 2"),
        met("IGZO tier metrology 3"),
        met("IGZO tier metrology 4"),
        met("IGZO tier metrology 5"),
        met("IGZO tier metrology 6"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;

    fn db() -> StepEnergies {
        StepEnergies::calibrated_7nm()
    }

    fn seq_energy(steps: &[ProcessStep]) -> f64 {
        steps
            .iter()
            .map(|s| db().energy(s).as_kilowatt_hours())
            .sum()
    }

    #[test]
    fn euv_pair_counts_match_design() {
        let steps = metal_via_pair_steps(Lithography::EuvSingle);
        let euv = steps
            .iter()
            .filter(|s| s.tool == Some(LithoTool::Euv))
            .count();
        assert_eq!(euv, 2);
        let dep = steps
            .iter()
            .filter(|s| s.area == ProcessArea::Deposition)
            .count();
        assert_eq!(dep, 5);
    }

    #[test]
    fn pair_energies_by_pitch() {
        // The calibrated database places an EUV pair at ~37.8 kWh, a LELE
        // pair at ~33.4 kWh and a single-immersion pair at ~20.7 kWh.
        let e36 = seq_energy(&metal_via_pair_steps(Lithography::EuvSingle));
        let e48 = seq_energy(&metal_via_pair_steps(Lithography::ImmersionLele));
        let e64 = seq_energy(&metal_via_pair_steps(Lithography::ImmersionSingle));
        assert!(approx_eq(e36, 37.84, 0.01), "E36 = {e36}");
        assert!(approx_eq(e48, 30.56, 0.01), "E48 = {e48}");
        assert!(approx_eq(e64, 22.09, 0.01), "E64 = {e64}");
        assert!(e36 > e48 && e48 > e64);
    }

    #[test]
    fn device_tiers_cost_more_than_a_metal_layer() {
        let e_cn = seq_energy(&cnfet_tier_steps());
        let e_ig = seq_energy(&igzo_tier_steps());
        let e36 = seq_energy(&metal_via_pair_steps(Lithography::EuvSingle));
        assert!(e_cn > e36 && e_ig > e36);
        assert!(approx_eq(e_cn, 52.2, 0.02), "E_CNFET tier = {e_cn}");
        assert!(approx_eq(e_ig, 49.0, 0.02), "E_IGZO tier = {e_ig}");
    }

    #[test]
    fn all_si_epa_matches_paper() {
        let flow = ProcessFlow::for_technology(Technology::AllSi);
        let epa = flow.epa(&db()).as_kilowatt_hours();
        assert!(approx_eq(epa, 699.0, 0.005), "all-Si EPA = {epa}");
        let beol = flow.beol_epa(&db()).as_kilowatt_hours();
        assert!(approx_eq(beol, 263.0, 0.005), "all-Si BEOL = {beol}");
    }

    #[test]
    fn m3d_epa_matches_paper() {
        let flow = ProcessFlow::for_technology(Technology::M3dIgzoCnfetSi);
        let epa = flow.epa(&db()).as_kilowatt_hours();
        assert!(approx_eq(epa, 1079.5, 0.005), "M3D EPA = {epa}");
    }

    #[test]
    fn m3d_to_all_si_energy_ratio() {
        // Sec. II-B: GPA scale factors 1.22× (M3D) and 0.79× (all-Si)
        // relative to iN7 imply an M3D/all-Si EPA ratio of ~1.54.
        let si = ProcessFlow::for_technology(Technology::AllSi).epa(&db());
        let m3d = ProcessFlow::for_technology(Technology::M3dIgzoCnfetSi).epa(&db());
        assert!(approx_eq(m3d / si, 1.22 / 0.79, 0.01));
    }

    #[test]
    fn step_count_matrix_shape() {
        let flow = ProcessFlow::for_technology(Technology::AllSi);
        let rows = flow.step_counts();
        // 2 litho rows + 5 other areas.
        assert_eq!(rows.len(), 7);
        let euv = rows
            .iter()
            .find(|(a, t, _)| *a == ProcessArea::Lithography && *t == Some(LithoTool::Euv))
            .expect("EUV row exists");
        assert_eq!(euv.2, 6); // 3 EUV layers × 2 exposures
        let total: usize = rows.iter().map(|(_, _, n)| n).sum();
        assert_eq!(total, flow.steps().len());
    }

    #[test]
    fn area_breakdown_covers_all_steps() {
        let steps = metal_via_pair_steps(Lithography::EuvSingle);
        let rows = area_breakdown(&steps, &db());
        let n: usize = rows.iter().map(|(_, c, _)| c).sum();
        assert_eq!(n, steps.len());
        let total: f64 = rows.iter().map(|(_, _, e)| e.as_kilowatt_hours()).sum();
        assert!(approx_eq(total, seq_energy(&steps), 1e-12));
    }
}
