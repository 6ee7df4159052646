//! The embedded system: Cortex-M0 + program/data eDRAM in one technology.

use crate::error::{check, ValidationError};
use ppatc_edram::{EdramError, EdramMacro};
use ppatc_m0::AccessStats;
use ppatc_pdk::synthesis::{LogicBlock, SynthesisResult, TimingError};
use ppatc_pdk::{SiVtFlavor, Technology};
use ppatc_units::{Area, Energy, Frequency, Power, Time};
use ppatc_wafer::{DieSpec, YieldModel};
use ppatc_workloads::{WorkloadError, WorkloadRun};

/// Die aspect ratio (height/width) used by the floorplan, matching the
/// paper's published die dimensions (270/515 ≈ 0.52).
const DIE_ASPECT: f64 = 0.524;

/// Error constructing or evaluating a system design.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum DesignError {
    /// The M0 cannot close timing at the target clock in the chosen flavor.
    Timing(TimingError),
    /// eDRAM characterization failed.
    Edram(EdramError),
    /// The eDRAM cannot complete an access within one clock period.
    MemoryTooSlow {
        /// Technology of the failing macro.
        technology: Technology,
        /// Offending clock target.
        f_clk: Frequency,
    },
    /// Workload execution failed.
    Workload(WorkloadError),
    /// A design parameter was rejected before construction started.
    Invalid(ValidationError),
}

impl core::fmt::Display for DesignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DesignError::Timing(e) => write!(f, "{e}"),
            DesignError::Edram(e) => write!(f, "{e}"),
            DesignError::MemoryTooSlow { technology, f_clk } => write!(
                f,
                "{technology} eDRAM cannot complete a single-cycle access at {:.0} MHz",
                f_clk.as_megahertz()
            ),
            DesignError::Workload(e) => write!(f, "{e}"),
            DesignError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DesignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DesignError::Timing(e) => Some(e),
            DesignError::Edram(e) => Some(e),
            DesignError::Workload(e) => Some(e),
            DesignError::Invalid(e) => Some(e),
            DesignError::MemoryTooSlow { .. } => None,
        }
    }
}

impl From<TimingError> for DesignError {
    fn from(e: TimingError) -> Self {
        DesignError::Timing(e)
    }
}

impl From<EdramError> for DesignError {
    fn from(e: EdramError) -> Self {
        DesignError::Edram(e)
    }
}

impl From<WorkloadError> for DesignError {
    fn from(e: WorkloadError) -> Self {
        DesignError::Workload(e)
    }
}

impl From<ValidationError> for DesignError {
    fn from(e: ValidationError) -> Self {
        DesignError::Invalid(e)
    }
}

/// The Fig. 1 system implemented in one technology: an ARM Cortex-M0 (always
/// Si CMOS) with 64 kB program and 64 kB data eDRAM macros (all-Si or
/// M3D IGZO/CNFET/Si).
#[derive(Clone, Debug)]
pub struct SystemDesign {
    technology: Technology,
    f_clk: Frequency,
    m0: SynthesisResult,
    program_mem: EdramMacro,
    data_mem: EdramMacro,
    yield_model: YieldModel,
}

impl SystemDesign {
    /// Designs the system at the given clock with the paper's defaults:
    /// RVT logic, 2 kB eDRAM sub-arrays, and demonstration yields of 90%
    /// (all-Si) / 50% (M3D).
    ///
    /// # Errors
    ///
    /// [`DesignError`] if logic or memory cannot close timing at `f_clk`,
    /// or eDRAM characterization fails.
    pub fn new(technology: Technology, f_clk: Frequency) -> Result<Self, DesignError> {
        Self::with_flavor(technology, f_clk, SiVtFlavor::Rvt)
    }

    /// Designs the system with an explicit logic threshold flavor.
    ///
    /// # Errors
    ///
    /// See [`SystemDesign::new`].
    pub fn with_flavor(
        technology: Technology,
        f_clk: Frequency,
        flavor: SiVtFlavor,
    ) -> Result<Self, DesignError> {
        Self::with_flavor_and_memory(
            technology,
            f_clk,
            flavor,
            ppatc_edram::Organization::paper_default(),
        )
    }

    /// Designs the system with a custom memory organization (the paper's
    /// Step 1 sizes memories to fit the workloads; other deployments may
    /// choose differently).
    ///
    /// The instruction-set simulator's memory map stays at 2 × 64 kB;
    /// smaller modeled capacities are valid as long as the workloads'
    /// footprints fit them.
    ///
    /// # Errors
    ///
    /// See [`SystemDesign::new`].
    pub fn with_flavor_and_memory(
        technology: Technology,
        f_clk: Frequency,
        flavor: SiVtFlavor,
        organization: ppatc_edram::Organization,
    ) -> Result<Self, DesignError> {
        check::positive("f_clk", f_clk.as_hertz())?;
        let m0 = LogicBlock::cortex_m0().synthesize(flavor, f_clk)?;
        let program_mem = EdramMacro::characterize_with(technology, organization)?;
        let data_mem = program_mem.clone();
        if !program_mem.meets_timing(f_clk) {
            return Err(DesignError::MemoryTooSlow { technology, f_clk });
        }
        let yield_model = match technology {
            Technology::AllSi => YieldModel::Fixed(0.90),
            Technology::M3dIgzoCnfetSi => YieldModel::Fixed(0.50),
        };
        Ok(Self {
            technology,
            f_clk,
            m0,
            program_mem,
            data_mem,
            yield_model,
        })
    }

    /// Replaces the yield model (the paper's Fig. 6b sweeps M3D yield from
    /// 10% to 90%).
    #[must_use]
    pub fn with_yield(mut self, yield_model: YieldModel) -> Self {
        self.yield_model = yield_model;
        self
    }

    /// Technology of this design.
    pub fn technology(&self) -> Technology {
        self.technology
    }

    /// Clock frequency.
    pub fn f_clk(&self) -> Frequency {
        self.f_clk
    }

    /// The synthesized M0 core.
    pub fn m0(&self) -> &SynthesisResult {
        &self.m0
    }

    /// The program-memory macro.
    pub fn program_mem(&self) -> &EdramMacro {
        &self.program_mem
    }

    /// The data-memory macro.
    pub fn data_mem(&self) -> &EdramMacro {
        &self.data_mem
    }

    /// The yield model used for per-good-die carbon.
    pub fn yield_model(&self) -> &YieldModel {
        &self.yield_model
    }

    /// One memory macro's footprint (Table II row "64 kB memory area").
    pub fn memory_area(&self) -> Area {
        self.program_mem.area()
    }

    /// Total die area: M0 + both memories (Table II row "total area").
    pub fn area(&self) -> Area {
        Area::from_square_meters(
            self.m0.area().as_square_meters()
                + self.program_mem.area().as_square_meters()
                + self.data_mem.area().as_square_meters(),
        )
    }

    /// Die outline implied by the floorplan aspect ratio.
    pub fn die(&self) -> DieSpec {
        let a = self.area().as_square_meters();
        let w = (a / DIE_ASPECT).sqrt();
        if w <= 0.0 {
            // Degenerate zero-area floorplan: a zero die outline, not a
            // 0/0 NaN that would poison every downstream wafer count.
            return DieSpec::new(
                ppatc_units::Length::from_meters(0.0),
                ppatc_units::Length::from_meters(0.0),
            );
        }
        let h = a / w;
        DieSpec::new(
            ppatc_units::Length::from_meters(w),
            ppatc_units::Length::from_meters(h),
        )
    }

    /// Evaluates power/performance for a completed workload run.
    pub fn evaluate(&self, run: &WorkloadRun) -> Evaluation {
        self.evaluate_counts(run.cycles, &run.stats)
    }

    /// Evaluates power/performance from raw cycle/access counts. Rejects a
    /// zero cycle count with a structured [`ValidationError`].
    pub fn try_evaluate_counts(
        &self,
        cycles: u64,
        stats: &AccessStats,
    ) -> Result<Evaluation, ValidationError> {
        if cycles == 0 {
            return Err(ValidationError::new("cycles", 0.0, ">= 1"));
        }
        let f = self.f_clk;
        let period = f.period();
        let prog_accesses = stats.instruction_fetches + stats.program_reads;
        let data_accesses = stats.data_reads + stats.data_writes;
        let mem_energy_per_cycle =
            self.program_mem
                .average_energy_per_cycle(prog_accesses, cycles, f)
                + self
                    .data_mem
                    .average_energy_per_cycle(data_accesses, cycles, f);
        let m0_dynamic = self.m0.dynamic_energy();
        let m0_static = self.m0.leakage_power();
        // Eq. 6: busy power while the application executes.
        let operational_power =
            m0_static + m0_dynamic.per_cycle_power(f) + mem_energy_per_cycle.per_cycle_power(f);
        let required_retention = period * (stats.max_write_to_read_cycles as f64);
        let retention = self.data_mem.retention();
        let refreshed = self.data_mem.refresh_power().as_watts() > 0.0;
        Ok(Evaluation {
            cycles,
            execution_time: period * (cycles as f64),
            m0_dynamic_per_cycle: m0_dynamic,
            m0_static,
            mem_energy_per_cycle,
            operational_power,
            required_retention,
            retention_satisfied: refreshed || retention >= required_retention,
        })
    }

    /// Panicking convenience wrapper around
    /// [`SystemDesign::try_evaluate_counts`].
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    pub fn evaluate_counts(&self, cycles: u64, stats: &AccessStats) -> Evaluation {
        match self.try_evaluate_counts(cycles, stats) {
            Ok(eval) => eval,
            Err(e) => panic!("{e}"),
        }
    }
}

/// Power/performance outcome of running one application on a design
/// (the dynamic rows of Table II).
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Clock cycles to run the application once.
    pub cycles: u64,
    /// Wall-clock execution time at the design's f_clk.
    pub execution_time: Time,
    /// M0 dynamic energy per cycle.
    pub m0_dynamic_per_cycle: Energy,
    /// M0 static (leakage) power.
    pub m0_static: Power,
    /// Average memory energy per cycle, both macros combined (access +
    /// leakage + refresh).
    pub mem_energy_per_cycle: Energy,
    /// Eq. 6 busy power: `P_static + (E_dyn + E_mem) / T_clk`.
    pub operational_power: Power,
    /// Longest write→read retention the workload demands of the data memory.
    pub required_retention: Time,
    /// Whether cell retention (or active refresh) covers that demand.
    pub retention_satisfied: bool,
}

impl Evaluation {
    /// Total operational energy for one execution of the application.
    pub fn energy_per_run(&self) -> Energy {
        self.operational_power * self.execution_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;
    use ppatc_workloads::Workload;

    fn f500() -> Frequency {
        Frequency::from_megahertz(500.0)
    }

    fn designs() -> (SystemDesign, SystemDesign) {
        (
            SystemDesign::new(Technology::AllSi, f500()).expect("all-Si designs"),
            SystemDesign::new(Technology::M3dIgzoCnfetSi, f500()).expect("M3D designs"),
        )
    }

    #[test]
    fn table2_total_area() {
        let (si, m3d) = designs();
        let a_si = si.area().as_square_millimeters();
        let a_m3d = m3d.area().as_square_millimeters();
        assert!(approx_eq(a_si, 0.139, 0.03), "all-Si area {a_si} mm²");
        assert!(approx_eq(a_m3d, 0.053, 0.05), "M3D area {a_m3d} mm²");
    }

    #[test]
    fn table2_die_dimensions() {
        let (si, _) = designs();
        let die = si.die();
        assert!(approx_eq(die.width().as_micrometers(), 515.0, 0.03));
        assert!(approx_eq(die.height().as_micrometers(), 270.0, 0.03));
    }

    #[test]
    fn table2_memory_energy_per_cycle() {
        // Use a short matmul run: per-cycle access *rates* converge within
        // a few repetitions, so the Table II averages appear without paying
        // for the full 2×10⁷-cycle simulation in a unit test.
        let run = Workload::matmul_int()
            .execute_with_reps(4)
            .expect("matmul runs");
        let (si, m3d) = designs();
        let e_si = si.evaluate(&run).mem_energy_per_cycle.as_picojoules();
        let e_m3d = m3d.evaluate(&run).mem_energy_per_cycle.as_picojoules();
        assert!(approx_eq(e_si, 18.0, 0.03), "all-Si memory {e_si} pJ/cycle");
        assert!(approx_eq(e_m3d, 15.5, 0.03), "M3D memory {e_m3d} pJ/cycle");
    }

    #[test]
    fn table2_m0_dynamic_energy() {
        let (si, m3d) = designs();
        for d in [&si, &m3d] {
            let pj = d.m0().dynamic_energy().as_picojoules();
            assert!(approx_eq(pj, 1.42, 0.08), "M0 dynamic {pj} pJ/cycle");
        }
        // The M0 is Si CMOS in both designs — identical energy.
        assert_eq!(si.m0().dynamic_energy(), m3d.m0().dynamic_energy());
    }

    #[test]
    fn operational_power_is_milliwatt_scale() {
        let run = Workload::matmul_int()
            .execute_with_reps(2)
            .expect("matmul runs");
        let (si, m3d) = designs();
        let p_si = si.evaluate(&run).operational_power.as_milliwatts();
        let p_m3d = m3d.evaluate(&run).operational_power.as_milliwatts();
        assert!((8.0..12.0).contains(&p_si), "all-Si P {p_si} mW");
        assert!(p_m3d < p_si, "M3D should draw less ({p_m3d} vs {p_si} mW)");
    }

    #[test]
    fn retention_check_matmul() {
        let run = Workload::matmul_int()
            .execute_with_reps(2)
            .expect("matmul runs");
        let (si, m3d) = designs();
        // The all-Si cell retains ~4 ms but refreshes, the IGZO cell holds
        // for ~10⁵ s outright; both satisfy the workload.
        assert!(si.evaluate(&run).retention_satisfied);
        assert!(m3d.evaluate(&run).retention_satisfied);
        assert!(m3d.data_mem().retention() > m3d.evaluate(&run).required_retention);
    }

    #[test]
    fn smaller_memories_shrink_the_die() {
        let f = f500();
        let small = SystemDesign::with_flavor_and_memory(
            Technology::AllSi,
            f,
            crate::SiVtFlavor::Rvt,
            ppatc_edram::Organization::new(16 * 1024, 2 * 1024, 32),
        )
        .expect("16 kB system designs");
        let full = SystemDesign::new(Technology::AllSi, f).expect("64 kB system designs");
        assert!(small.area().as_square_millimeters() < 0.5 * full.area().as_square_millimeters());
        assert!(small.die().area() < full.die().area());
    }

    #[test]
    fn default_yields_match_paper() {
        let (si, m3d) = designs();
        assert_eq!(si.yield_model(), &YieldModel::Fixed(0.90));
        assert_eq!(m3d.yield_model(), &YieldModel::Fixed(0.50));
    }

    #[test]
    fn memory_too_slow_at_extreme_clock() {
        // At 5 GHz the 500 ps periphery alone blows the period.
        let err = SystemDesign::with_flavor(
            Technology::AllSi,
            Frequency::from_gigahertz(5.0),
            SiVtFlavor::Slvt,
        )
        .expect_err("5 GHz must fail");
        // Either the logic or the memory trips first; both are reported.
        let msg = err.to_string();
        assert!(
            msg.contains("cannot close timing") || msg.contains("single-cycle access"),
            "unexpected error: {msg}"
        );
    }
}
