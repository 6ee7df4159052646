//! Process-step taxonomy and the per-step energy database.
//!
//! Following the paper (and its source, Bardon et al. IEDM 2020), every
//! fabrication step belongs to one of six *process areas*. Published data
//! gives, per module (e.g. "one EUV-patterned metal layer"), the number of
//! steps in each area and that area's total energy; dividing yields an
//! energy per step, which can then be recombined to cost *novel* modules —
//! the CNFET and IGZO tiers — that no fab has ever characterized.

use ppatc_units::Energy;

/// The six process areas of the Eq. 4 step-count matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProcessArea {
    /// Resist coat/expose/develop. Energy depends strongly on the tool
    /// ([`LithoTool`]).
    Lithography,
    /// CVD/ALD/spin-on/sputter film deposition.
    Deposition,
    /// Plasma (dry) etch.
    DryEtch,
    /// Wet etch and wet cleans.
    WetEtch,
    /// Barrier/seed, electroplating, and CMP of damascene metal.
    Metallization,
    /// Inspection and CD/overlay metrology.
    Metrology,
}

impl ProcessArea {
    /// All six areas in matrix-row order.
    pub const ALL: [ProcessArea; 6] = [
        ProcessArea::Lithography,
        ProcessArea::Deposition,
        ProcessArea::DryEtch,
        ProcessArea::WetEtch,
        ProcessArea::Metallization,
        ProcessArea::Metrology,
    ];

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ProcessArea::Lithography => "lithography",
            ProcessArea::Deposition => "deposition",
            ProcessArea::DryEtch => "dry etch",
            ProcessArea::WetEtch => "wet etch",
            ProcessArea::Metallization => "metallization",
            ProcessArea::Metrology => "metrology",
        }
    }
}

impl core::fmt::Display for ProcessArea {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Exposure tool class for lithography steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LithoTool {
    /// Extreme-ultraviolet scanner (13.5 nm). ~1 MW tool power makes each
    /// exposure an order of magnitude more energetic than immersion.
    Euv,
    /// 193 nm immersion scanner.
    Immersion,
}

impl core::fmt::Display for LithoTool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LithoTool::Euv => f.write_str("EUV"),
            LithoTool::Immersion => f.write_str("193i"),
        }
    }
}

/// One step of a process flow: a process area, the litho tool when relevant,
/// and a descriptive label for reporting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcessStep {
    /// Process area this step belongs to.
    pub area: ProcessArea,
    /// Exposure tool; `Some` only for [`ProcessArea::Lithography`] steps.
    pub tool: Option<LithoTool>,
    /// What the step does, e.g. `"via EUV exposure"` or `"CNFET gate
    /// exposure"`. A metal/via pair's steps are the same at every layer
    /// of one patterning class, so the label does not name the layer.
    pub label: &'static str,
}

impl ProcessStep {
    /// A non-lithography step.
    ///
    /// # Panics
    ///
    /// Panics if `area` is [`ProcessArea::Lithography`]; use
    /// [`ProcessStep::litho`] for exposures.
    pub fn new(area: ProcessArea, label: &'static str) -> Self {
        assert!(
            area != ProcessArea::Lithography,
            "use ProcessStep::litho for lithography steps"
        );
        Self {
            area,
            tool: None,
            label,
        }
    }

    /// A lithography exposure with the given tool.
    pub fn litho(tool: LithoTool, label: &'static str) -> Self {
        Self {
            area: ProcessArea::Lithography,
            tool: Some(tool),
            label,
        }
    }
}

/// Per-step fabrication energies (kWh per wafer pass), the right-hand matrix
/// of the paper's Eq. 4.
///
/// The defaults ([`StepEnergies::calibrated_7nm`]) are chosen so that the
/// complete all-Si and M3D flows reproduce the paper's per-wafer totals
/// (Sec. II-C): an EUV exposure costs ~8.9 kWh (a ~1 MW scanner at ~100
/// wafers/hour), an immersion exposure ~1.8 kWh, and the thermal/plasma
/// steps sit in the 0.15–2 kWh band reported for the imec iN7 node.
#[derive(Clone, Debug, PartialEq)]
pub struct StepEnergies {
    euv_exposure_kwh: f64,
    immersion_exposure_kwh: f64,
    deposition_kwh: f64,
    dry_etch_kwh: f64,
    wet_etch_kwh: f64,
    metallization_kwh: f64,
    metrology_kwh: f64,
}

impl StepEnergies {
    /// The calibrated 7 nm-node database (see struct docs).
    pub fn calibrated_7nm() -> Self {
        Self {
            euv_exposure_kwh: 8.9425,
            immersion_exposure_kwh: 2.5111,
            deposition_kwh: 1.33,
            dry_etch_kwh: 1.50,
            wet_etch_kwh: 0.40,
            metallization_kwh: 1.50,
            metrology_kwh: 0.15,
        }
    }

    /// Builds a fully custom database. All values in kWh per wafer pass and
    /// must be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if any energy is negative.
    pub fn custom(
        euv_exposure_kwh: f64,
        immersion_exposure_kwh: f64,
        deposition_kwh: f64,
        dry_etch_kwh: f64,
        wet_etch_kwh: f64,
        metallization_kwh: f64,
        metrology_kwh: f64,
    ) -> Self {
        for (name, v) in [
            ("euv", euv_exposure_kwh),
            ("immersion", immersion_exposure_kwh),
            ("deposition", deposition_kwh),
            ("dry etch", dry_etch_kwh),
            ("wet etch", wet_etch_kwh),
            ("metallization", metallization_kwh),
            ("metrology", metrology_kwh),
        ] {
            assert!(v >= 0.0, "{name} step energy must be non-negative");
        }
        Self {
            euv_exposure_kwh,
            immersion_exposure_kwh,
            deposition_kwh,
            dry_etch_kwh,
            wet_etch_kwh,
            metallization_kwh,
            metrology_kwh,
        }
    }

    /// Returns a copy with every step energy scaled by `factor` — the knob
    /// for the Fig. 6 embodied-carbon uncertainty sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Self {
            euv_exposure_kwh: self.euv_exposure_kwh * factor,
            immersion_exposure_kwh: self.immersion_exposure_kwh * factor,
            deposition_kwh: self.deposition_kwh * factor,
            dry_etch_kwh: self.dry_etch_kwh * factor,
            wet_etch_kwh: self.wet_etch_kwh * factor,
            metallization_kwh: self.metallization_kwh * factor,
            metrology_kwh: self.metrology_kwh * factor,
        }
    }

    /// Energy of one step.
    pub fn energy(&self, step: &ProcessStep) -> Energy {
        let kwh = match (step.area, step.tool) {
            (ProcessArea::Lithography, Some(LithoTool::Euv)) => self.euv_exposure_kwh,
            (ProcessArea::Lithography, Some(LithoTool::Immersion)) => self.immersion_exposure_kwh,
            (ProcessArea::Lithography, None) => self.immersion_exposure_kwh,
            (ProcessArea::Deposition, _) => self.deposition_kwh,
            (ProcessArea::DryEtch, _) => self.dry_etch_kwh,
            (ProcessArea::WetEtch, _) => self.wet_etch_kwh,
            (ProcessArea::Metallization, _) => self.metallization_kwh,
            (ProcessArea::Metrology, _) => self.metrology_kwh,
        };
        Energy::from_kilowatt_hours(kwh)
    }
}

impl Default for StepEnergies {
    fn default() -> Self {
        Self::calibrated_7nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;

    #[test]
    fn euv_is_the_most_expensive_step() {
        let db = StepEnergies::calibrated_7nm();
        let euv = db.energy(&ProcessStep::litho(LithoTool::Euv, "x"));
        for area in ProcessArea::ALL.iter().skip(1) {
            let step = ProcessStep::new(*area, "x");
            assert!(db.energy(&step) < euv, "{area} should cost less than EUV");
        }
        let imm = db.energy(&ProcessStep::litho(LithoTool::Immersion, "x"));
        assert!(euv.as_kilowatt_hours() > 3.0 * imm.as_kilowatt_hours());
    }

    #[test]
    fn scaling_is_uniform() {
        let db = StepEnergies::calibrated_7nm();
        let double = db.scaled(2.0);
        let step = ProcessStep::new(ProcessArea::Deposition, "x");
        assert!(approx_eq(
            double.energy(&step).as_kilowatt_hours(),
            2.0 * db.energy(&step).as_kilowatt_hours(),
            1e-12
        ));
    }

    #[test]
    #[should_panic(expected = "use ProcessStep::litho")]
    fn litho_via_new_panics() {
        let _ = ProcessStep::new(ProcessArea::Lithography, "x");
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_energy_panics() {
        let _ = StepEnergies::custom(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(ProcessArea::DryEtch.to_string(), "dry etch");
        assert_eq!(LithoTool::Euv.to_string(), "EUV");
    }
}
