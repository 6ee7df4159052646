//! Memory-capacity sweep: how the M3D advantage scales with on-chip memory.
//!
//! The paper's motivation (and its N3XT citation) is *abundant-data*
//! computing: the more on-chip memory a system carries, the more the
//! memory dominates area and energy — and the more the M3D process's
//! cells-over-periphery density and shorter wires pay off. This exhibit
//! sweeps the per-macro capacity from 16 kB to 256 kB (2 kB sub-arrays
//! throughout) and tracks the 24-month tCDP comparison.

use crate::matmul_run;
use ppatc::checkpoint::Checkpointable;
use ppatc::{
    CaseStudy, EmbodiedPipeline, JournalSpec, Lifetime, PpatcError, Supervisor, SystemDesign,
    Technology, UsagePattern,
};
use ppatc_edram::Organization;
use ppatc_pdk::SiVtFlavor;
use ppatc_units::Frequency;

/// One capacity point.
#[derive(Clone, Debug, PartialEq)]
pub struct CapacityPoint {
    /// Per-macro capacity, kB.
    pub kb_per_macro: u32,
    /// Total die area, mm², all-Si / M3D.
    pub area_mm2: [f64; 2],
    /// Embodied carbon per good die, g, all-Si / M3D.
    pub embodied_g: [f64; 2],
    /// tCDP benefit of M3D at 24 months (>1 = M3D wins).
    pub m3d_benefit_24mo: f64,
}

impl Checkpointable for CapacityPoint {
    const WIDTH: usize = 6;

    fn encode(&self, out: &mut Vec<u64>) {
        out.push(u64::from(self.kb_per_macro));
        out.extend([
            self.area_mm2[0].to_bits(),
            self.area_mm2[1].to_bits(),
            self.embodied_g[0].to_bits(),
            self.embodied_g[1].to_bits(),
            self.m3d_benefit_24mo.to_bits(),
        ]);
    }

    fn decode(words: &[u64]) -> Option<Self> {
        match words {
            [kb, a0, a1, e0, e1, b] => Some(Self {
                kb_per_macro: u32::try_from(*kb).ok()?,
                area_mm2: [f64::from_bits(*a0), f64::from_bits(*a1)],
                embodied_g: [f64::from_bits(*e0), f64::from_bits(*e1)],
                m3d_benefit_24mo: f64::from_bits(*b),
            }),
            _ => None,
        }
    }
}

/// The swept per-macro capacities, kB.
const CAPACITIES_KB: [u32; 5] = [16, 32, 64, 128, 256];

/// The fixed evaluation clock of the sweep.
const SWEEP_CLOCK_MHZ: f64 = 500.0;

/// The fixed evaluation lifetime of the sweep, months.
const SWEEP_LIFETIME_MONTHS: f64 = 24.0;

/// Sweeps per-macro capacity (program and data memories both sized to it).
pub fn sweep() -> Vec<CapacityPoint> {
    sweep_jobs(1)
}

/// [`sweep`] with capacity points evaluated across `jobs` workers (the
/// supervised twin under a default [`Supervisor`]). The result is
/// byte-identical for any worker count; each point's two eDRAM
/// characterizations are served from [`ppatc_edram::EdramMacro`]'s memo
/// cache after the first request for that `(technology, organization)`.
pub fn sweep_jobs(jobs: usize) -> Vec<CapacityPoint> {
    try_sweep_supervised(jobs, &Supervisor::new()).expect("every capacity point evaluates")
}

/// [`sweep_jobs`] under a [`Supervisor`]: honors the supervisor's
/// cancellation token and deadline, isolates worker panics, and — when a
/// checkpoint path is configured — journals every finished point so an
/// interrupted sweep resumes byte-identically (each point is a pure
/// function of its capacity index, and the journal stores exact `f64` bit
/// patterns).
///
/// # Errors
///
/// [`PpatcError::Interrupted`] when the budget stops the sweep,
/// [`PpatcError::WorkerPanic`] if a capacity point panics, and
/// [`PpatcError::Checkpoint`] on journal I/O failure or a journal recorded
/// for a different sweep.
#[must_use = "this returns a Result that must be handled"]
pub fn try_sweep_supervised(
    jobs: usize,
    supervisor: &Supervisor,
) -> Result<Vec<CapacityPoint>, PpatcError> {
    let spec = JournalSpec::for_run::<CapacityPoint>(
        "capacity",
        CAPACITIES_KB.len(),
        &[
            SWEEP_CLOCK_MHZ.to_bits(),
            SWEEP_LIFETIME_MONTHS.to_bits(),
            u64::from(CAPACITIES_KB[0]),
            u64::from(CAPACITIES_KB[CAPACITIES_KB.len() - 1]),
        ],
    );
    let journal = supervisor.try_open_journal(&spec)?;
    ppatc::eval::par_map_chunks_journaled(
        CAPACITIES_KB.len(),
        jobs,
        supervisor.budget(),
        journal.as_ref(),
        |start, end| (start..end).map(capacity_point).collect(),
    )?
    .try_complete()
}

/// Evaluates the `k`-th capacity point — a pure function of `k` (the
/// workload run and both pipelines are fixed), which is what makes
/// journaled resumes byte-identical.
fn capacity_point(k: usize) -> CapacityPoint {
    let run = matmul_run();
    let f = Frequency::from_megahertz(SWEEP_CLOCK_MHZ);
    let life = Lifetime::months(SWEEP_LIFETIME_MONTHS);
    let kb = CAPACITIES_KB[k];
    let org = Organization::new(kb * 1024, 2 * 1024, 32);
    let si =
        SystemDesign::with_flavor_and_memory(Technology::AllSi, f, SiVtFlavor::Rvt, org.clone())
            .expect("all-Si designs at this capacity");
    let m3d =
        SystemDesign::with_flavor_and_memory(Technology::M3dIgzoCnfetSi, f, SiVtFlavor::Rvt, org)
            .expect("M3D designs at this capacity");
    let study = CaseStudy::from_designs(
        si.clone(),
        m3d.clone(),
        run,
        EmbodiedPipeline::paper_default(),
        UsagePattern::paper_default(),
    );
    CapacityPoint {
        kb_per_macro: kb,
        area_mm2: [
            si.area().as_square_millimeters(),
            m3d.area().as_square_millimeters(),
        ],
        embodied_g: [
            study.embodied(Technology::AllSi).per_good_die().as_grams(),
            study
                .embodied(Technology::M3dIgzoCnfetSi)
                .per_good_die()
                .as_grams(),
        ],
        m3d_benefit_24mo: 1.0 / study.tcdp_ratio(life),
    }
}

/// Renders the sweep.
pub fn render() -> String {
    render_jobs(1)
}

/// [`render`] with the sweep evaluated across `jobs` workers (identical
/// output for any worker count).
pub fn render_jobs(jobs: usize) -> String {
    format_points(&sweep_jobs(jobs))
}

/// [`render_jobs`] under a [`Supervisor`]; identical output to
/// [`render_jobs`] when the run completes.
///
/// # Errors
///
/// Propagates every [`try_sweep_supervised`] error.
#[must_use = "this returns a Result that must be handled"]
pub fn try_render_supervised(jobs: usize, supervisor: &Supervisor) -> Result<String, PpatcError> {
    Ok(format_points(&try_sweep_supervised(jobs, supervisor)?))
}

/// Formats swept points as the exhibit table.
fn format_points(points: &[CapacityPoint]) -> String {
    let mut out = String::from(
        "kB/macro   area Si (mm²)   area M3D   emb Si (g)   emb M3D   M3D benefit @24mo\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:>8}{:>16.3}{:>11.3}{:>13.2}{:>10.2}{:>15.3}x\n",
            p.kb_per_macro,
            p.area_mm2[0],
            p.area_mm2[1],
            p.embodied_g[0],
            p.embodied_g[1],
            p.m3d_benefit_24mo
        ));
    }
    out.push_str(
        "(2 h/day usage and the matmul-int access profile held fixed across capacities)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn areas_scale_with_capacity() {
        let pts = sweep();
        for pair in pts.windows(2) {
            assert!(pair[1].area_mm2[0] > pair[0].area_mm2[0]);
            assert!(pair[1].area_mm2[1] > pair[0].area_mm2[1]);
        }
        // The area ratio approaches the pure memory-density ratio as the
        // core's share vanishes.
        let last = pts.last().expect("non-empty");
        let ratio = last.area_mm2[0] / last.area_mm2[1];
        assert!(ratio > 2.4, "area ratio at 256 kB {ratio:.2}");
    }

    #[test]
    fn abundant_memory_favors_m3d() {
        // The paper's motivating trend: the M3D benefit grows monotonically
        // with on-chip memory capacity.
        let pts = sweep();
        for pair in pts.windows(2) {
            assert!(
                pair[1].m3d_benefit_24mo > pair[0].m3d_benefit_24mo - 1e-9,
                "benefit fell from {} to {} between {} and {} kB",
                pair[0].m3d_benefit_24mo,
                pair[1].m3d_benefit_24mo,
                pair[0].kb_per_macro,
                pair[1].kb_per_macro
            );
        }
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial() {
        let serial = sweep_jobs(1);
        for jobs in [2, 8] {
            assert_eq!(serial, sweep_jobs(jobs), "jobs = {jobs}");
        }
        assert_eq!(render_jobs(1), render_jobs(4));
    }

    #[test]
    fn supervised_sweep_matches_unsupervised() {
        let plain = sweep_jobs(2);
        let supervised =
            try_sweep_supervised(2, &Supervisor::new()).expect("default supervisor completes");
        assert_eq!(plain, supervised);
        assert_eq!(
            render_jobs(1),
            try_render_supervised(1, &Supervisor::new()).expect("render completes")
        );
    }

    #[test]
    fn capacity_points_round_trip_through_the_journal_encoding() {
        let p = CapacityPoint {
            kb_per_macro: 64,
            area_mm2: [0.137, 0.062],
            embodied_g: [-0.0, f64::NAN],
            m3d_benefit_24mo: 1.03,
        };
        let mut words = Vec::new();
        p.encode(&mut words);
        assert_eq!(words.len(), CapacityPoint::WIDTH);
        let back = CapacityPoint::decode(&words).expect("decodes");
        assert_eq!(back.kb_per_macro, p.kb_per_macro);
        assert_eq!(back.area_mm2[0].to_bits(), p.area_mm2[0].to_bits());
        assert_eq!(back.embodied_g[0].to_bits(), p.embodied_g[0].to_bits());
        assert_eq!(back.embodied_g[1].to_bits(), p.embodied_g[1].to_bits());
        assert!(CapacityPoint::decode(&words[..5]).is_none());
    }

    #[test]
    fn the_paper_point_is_in_the_sweep() {
        let pts = sweep();
        let at_64 = pts
            .iter()
            .find(|p| p.kb_per_macro == 64)
            .expect("64 kB point");
        assert!((at_64.m3d_benefit_24mo - 1.03).abs() < 0.02);
        assert!((at_64.area_mm2[0] - 0.137).abs() < 0.01);
    }
}
