//! Property tests of the fabrication-energy and carbon models, driven by a
//! deterministic in-repo PRNG (seeded [`SplitMix64`]) instead of an external
//! property-testing framework. Each property runs over a fixed number of
//! pseudo-random cases; failures print the case index and inputs.

use ppatc_fab::flow::metal_via_pair_steps;
use ppatc_fab::{grid, EmbodiedModel, Grid, ProcessFlow, StepEnergies};
use ppatc_pdk::{LayerStack, Lithography, MetalLayer, StackElement, Technology, TierKind};
use ppatc_units::rng::SplitMix64;
use ppatc_units::{approx_eq, Length};

const PITCHES_NM: [f64; 4] = [36.0, 48.0, 64.0, 80.0];

/// A random plausible layer stack (1–23 elements, metals 4× as likely as
/// device tiers), mirroring the generator the proptest version used.
fn any_stack(rng: &mut SplitMix64) -> LayerStack {
    let len = 1 + rng.next_below(23) as usize;
    let elements: Vec<StackElement> = (0..len)
        .map(|_| match rng.next_below(6) {
            0 => StackElement::DeviceTier(TierKind::Cnfet),
            1 => StackElement::DeviceTier(TierKind::Igzo),
            _ => {
                let pitch = PITCHES_NM[rng.next_below(4) as usize];
                StackElement::Metal(MetalLayer::new("M", Length::from_nanometers(pitch)))
            }
        })
        .collect();
    LayerStack::from_elements(elements)
}

/// Adding any element to a stack strictly increases its BEOL energy.
#[test]
fn beol_energy_is_monotone_in_stack() {
    let mut rng = SplitMix64::new(0xFAB1);
    for case in 0..128 {
        let stack = any_stack(&mut rng);
        let db = StepEnergies::calibrated_7nm();
        let base = ProcessFlow::from_stack("base", &stack).beol_epa(&db);
        let mut grown: Vec<StackElement> = stack.iter().cloned().collect();
        grown.push(StackElement::Metal(MetalLayer::new(
            "extra",
            Length::from_nanometers(36.0),
        )));
        let bigger =
            ProcessFlow::from_stack("grown", &LayerStack::from_elements(grown)).beol_epa(&db);
        assert!(bigger > base, "case {case}: {bigger:?} <= {base:?}");
    }
}

/// Flow energy under a uniformly scaled database scales by exactly that
/// factor (the FEOL block excluded).
#[test]
fn beol_energy_is_linear_in_step_energies() {
    let mut rng = SplitMix64::new(0xFAB2);
    for case in 0..128 {
        let stack = any_stack(&mut rng);
        let k = rng.uniform(0.1, 5.0);
        let base_db = StepEnergies::calibrated_7nm();
        let flow = ProcessFlow::from_stack("s", &stack);
        let e1 = flow.beol_epa(&base_db).as_joules();
        let e2 = flow.beol_epa(&base_db.scaled(k)).as_joules();
        assert!(
            approx_eq(e2, k * e1, 1e-9),
            "case {case}: k={k}, {e2} vs {}",
            k * e1
        );
    }
}

/// Embodied carbon is affine in grid intensity: doubling CI doubles
/// only the electricity term.
#[test]
fn embodied_affine_in_grid_ci() {
    let mut rng = SplitMix64::new(0xFAB3);
    for case in 0..128 {
        let g1 = rng.uniform(1.0, 2000.0);
        let k = rng.uniform(1.1, 5.0);
        let model = EmbodiedModel::paper_default();
        let a = model.embodied_per_wafer(Technology::M3dIgzoCnfetSi, Grid::new("a", g1));
        let b = model.embodied_per_wafer(Technology::M3dIgzoCnfetSi, Grid::new("b", g1 * k));
        assert!(
            approx_eq(
                b.fab_electricity().as_grams(),
                k * a.fab_electricity().as_grams(),
                1e-9
            ),
            "case {case}: g1={g1}, k={k}"
        );
        assert!(approx_eq(
            a.materials().as_grams(),
            b.materials().as_grams(),
            1e-12
        ));
        assert!(approx_eq(a.gases().as_grams(), b.gases().as_grams(), 1e-12));
    }
}

/// The M3D process costs more than the all-Si process on any grid.
#[test]
fn m3d_premium_holds_on_any_grid() {
    let mut rng = SplitMix64::new(0xFAB4);
    for case in 0..128 {
        let gi = rng.uniform(0.0, 3000.0);
        let model = EmbodiedModel::paper_default();
        let g = Grid::new("x", gi);
        let si = model.embodied_per_wafer(Technology::AllSi, g).total();
        let m3d = model
            .embodied_per_wafer(Technology::M3dIgzoCnfetSi, g)
            .total();
        assert!(m3d > si, "case {case}: gi={gi}");
    }
}

/// Step sequences for a metal/via pair always have lithography counts
/// consistent with the patterning class.
#[test]
fn litho_counts_by_class() {
    for pitch in PITCHES_NM {
        let litho = Lithography::for_pitch(Length::from_nanometers(pitch));
        let steps = metal_via_pair_steps(litho);
        let exposures = steps
            .iter()
            .filter(|s| s.area == ppatc_fab::ProcessArea::Lithography)
            .count();
        let expected = match litho {
            Lithography::EuvSingle => 2,
            Lithography::ImmersionLele => 3,
            Lithography::ImmersionSingle => 2,
        };
        assert_eq!(exposures, expected, "pitch {pitch} nm");
    }
}

/// Water scales monotonically with flow length too.
#[test]
fn water_is_monotone_in_stack() {
    use ppatc_fab::water::WaterModel;
    let mut rng = SplitMix64::new(0xFAB5);
    for case in 0..128 {
        let stack = any_stack(&mut rng);
        let model = WaterModel::typical_7nm();
        let base = model.upw_per_wafer(&ProcessFlow::from_stack("b", &stack));
        let mut grown: Vec<StackElement> = stack.iter().cloned().collect();
        grown.push(StackElement::DeviceTier(TierKind::Igzo));
        let bigger = model.upw_per_wafer(&ProcessFlow::from_stack(
            "g",
            &LayerStack::from_elements(grown),
        ));
        assert!(bigger > base, "case {case}");
    }
}

#[test]
fn fig2c_reference_is_stable_under_property_runs() {
    // Anchor retained here so the property file fails loudly if a future
    // database change silently moves the calibration.
    let model = EmbodiedModel::paper_default();
    let si = model
        .embodied_per_wafer(Technology::AllSi, grid::US)
        .total();
    assert!(approx_eq(si.as_kilograms(), 837.0, 0.005));
}
