//! Integration tests for the extension features, spanning crates the way a
//! downstream adopter would combine them.

use ppatc::montecarlo::{self, MonteCarloConfig, UncertaintyRanges};
use ppatc::optimize::{DesignSpace, Optimizer};
use ppatc::standby::{standby_power, StandbyPolicy};
use ppatc::{Lifetime, Supervisor, SystemDesign, Technology};
use ppatc_fab::act::ActNode;
use ppatc_fab::cost::CostModel;
use ppatc_fab::water::WaterModel;
use ppatc_fab::{grid, EmbodiedModel, ProcessFlow};
use ppatc_units::{approx_eq, Area, Frequency, Length, Time};
use ppatc_workloads::Workload;

#[test]
fn the_three_footprints_tell_one_story() {
    // Carbon, cost, and water all derive from the same step counts, so the
    // M3D premium must appear in all three with correlated magnitudes.
    let si = ProcessFlow::for_technology(Technology::AllSi);
    let m3d = ProcessFlow::for_technology(Technology::M3dIgzoCnfetSi);
    let carbon = EmbodiedModel::paper_default();
    let carbon_ratio = carbon
        .embodied_per_wafer(Technology::M3dIgzoCnfetSi, grid::US)
        .total()
        / carbon
            .embodied_per_wafer(Technology::AllSi, grid::US)
            .total();
    let cost_ratio = CostModel::typical_7nm().cost_per_wafer(&m3d)
        / CostModel::typical_7nm().cost_per_wafer(&si);
    let water_ratio = WaterModel::typical_7nm().upw_per_wafer(&m3d)
        / WaterModel::typical_7nm().upw_per_wafer(&si);
    for (name, r) in [
        ("carbon", carbon_ratio),
        ("cost", cost_ratio),
        ("water", water_ratio),
    ] {
        assert!((1.15..1.7).contains(&r), "{name} ratio {r:.2}");
    }
}

#[test]
fn act_validates_the_baseline_but_not_the_m3d_gap() {
    let wafer = Area::of_wafer(Length::from_millimeters(300.0));
    let act = ActNode::n7().embodied(wafer, grid::US);
    let ours = EmbodiedModel::paper_default();
    let si = ours.embodied_per_wafer(Technology::AllSi, grid::US).total();
    let m3d = ours
        .embodied_per_wafer(Technology::M3dIgzoCnfetSi, grid::US)
        .total();
    // Bottom-up all-Si agrees with the top-down ACT band…
    assert!((0.7..1.3).contains(&(si / act)));
    // …but ACT has no way to express the M3D flow, whose footprint sits
    // well outside that agreement.
    assert!(m3d / act > 1.25);
}

#[test]
fn standby_and_montecarlo_compose_with_the_case_study() {
    let run = Workload::matmul_int()
        .execute_with_reps(4)
        .expect("matmul runs");
    let study = ppatc::CaseStudy::paper(&run).expect("case study builds");

    // Monte Carlo at the nominal point is contested.
    let map = study.tcdp_map(Lifetime::months(24.0));
    let config = MonteCarloConfig::new(5_000, 11).expect("sample count >= 1");
    let ranges = UncertaintyRanges::paper_default();
    let mc = montecarlo::try_run_supervised(&map, &ranges, &config, 1, &Supervisor::new())
        .expect("paper-default sweep evaluates");
    assert!((0.05..0.95).contains(&mc.p_m3d_wins));

    // Under state-retentive standby, the M3D advantage strengthens, so the
    // win probability can only benefit; verify the deterministic ratio
    // moves the right way.
    let f = Frequency::from_megahertz(500.0);
    let si = SystemDesign::new(Technology::AllSi, f).expect("designs");
    let m3d = SystemDesign::new(Technology::M3dIgzoCnfetSi, f).expect("designs");
    let gap = Time::from_hours(22.0);
    assert!(
        standby_power(&si, StandbyPolicy::StateRetentive, gap)
            > standby_power(&m3d, StandbyPolicy::StateRetentive, gap)
    );
}

#[test]
fn optimizer_agrees_with_the_case_study_at_the_papers_point() {
    let run = Workload::matmul_int()
        .execute_with_reps(4)
        .expect("matmul runs");
    let study = ppatc::CaseStudy::paper(&run).expect("case study builds");
    let space = DesignSpace::new(
        Technology::ALL.to_vec(),
        vec![ppatc::SiVtFlavor::Rvt],
        vec![Frequency::from_megahertz(500.0)],
    );
    let ranked = Optimizer::new(space, Lifetime::months(24.0)).run_jobs(&run, 1);
    assert_eq!(ranked.len(), 2);
    let ratio = ranked
        .iter()
        .find(|c| c.technology == Technology::M3dIgzoCnfetSi)
        .expect("M3D candidate")
        .tcdp
        / ranked
            .iter()
            .find(|c| c.technology == Technology::AllSi)
            .expect("all-Si candidate")
            .tcdp;
    assert!(approx_eq(
        ratio,
        study.tcdp_ratio(Lifetime::months(24.0)),
        1e-9
    ));
}

#[test]
fn layout_artifacts_are_self_consistent() {
    use ppatc_pdk::{gds::GdsLibrary, layout};
    for tech in Technology::ALL {
        let lib = layout::cell_array(tech, 2, 3);
        let round = GdsLibrary::from_bytes(&lib.to_bytes()).expect("parses");
        assert_eq!(round, lib);
        // Every GDS layer used by the array appears in the cross-section's
        // layer map (the FEOL/poly/derived layers are a superset check the
        // other way, so check array ⊆ cross-section ∪ {poly}).
        let xs = layout::cross_section(tech);
        let known: Vec<i16> = xs.iter().map(|l| l.gds_layer).collect();
        for s in round.structures() {
            for b in s.elements() {
                let ok = known.contains(&b.layer) || b.layer == 2; // 2 = poly
                assert!(ok, "{tech}: GDS layer {} not in cross-section", b.layer);
            }
        }
    }
}

#[test]
fn workload_mix_brackets_its_components() {
    use ppatc::mix::WorkloadMix;
    let f = Frequency::from_megahertz(500.0);
    let design = SystemDesign::new(Technology::AllSi, f).expect("designs");
    let heavy = Workload::matmul_int().execute_with_reps(2).expect("runs");
    let light = Workload::fsm().execute_with_reps(1).expect("runs");
    let p_heavy = design.evaluate(&heavy).operational_power;
    let p_light = design.evaluate(&light).operational_power;
    let blend = WorkloadMix::new()
        .try_with(heavy, 1.0)
        .and_then(|mix| mix.try_with(light, 1.0))
        .and_then(|mix| mix.try_evaluate(&design))
        .expect("two-app mix evaluates")
        .operational_power;
    assert!(blend > p_light.min(p_heavy) && blend < p_light.max(p_heavy));
}
