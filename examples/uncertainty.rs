//! Robust comparison under carbon-accounting uncertainty (the paper's
//! Sec. III-D / Fig. 6 methodology).
//!
//! Carbon models are uncertain: embodied footprints of novel processes,
//! deployment lifetimes, grid intensities, and yields are all estimates.
//! This example shows how to find the regions of design space where the
//! technology choice is robust to all of them at once.
//!
//! ```text
//! cargo run --release --example uncertainty
//! ```

use ppatc::montecarlo::{self, MonteCarloConfig, UncertaintyRanges};
use ppatc::{CaseStudy, Lifetime, Perturbation, Supervisor};
use ppatc_workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = Workload::matmul_int().execute()?;
    let study = CaseStudy::paper(&run)?;
    let map = study.tcdp_map(Lifetime::months(24.0));

    let perturbations: [(&str, Option<Perturbation>); 7] = [
        ("nominal", None),
        (
            "lifetime -6 mo",
            Some(Perturbation::LifetimeDeltaMonths(-6.0)),
        ),
        (
            "lifetime +6 mo",
            Some(Perturbation::LifetimeDeltaMonths(6.0)),
        ),
        ("CI_use / 3", Some(Perturbation::CiUseScale(1.0 / 3.0))),
        ("CI_use x 3", Some(Perturbation::CiUseScale(3.0))),
        ("M3D yield 10%", Some(Perturbation::M3dYield(0.10))),
        ("M3D yield 90%", Some(Perturbation::M3dYield(0.90))),
    ];

    // 1. How does each source of uncertainty move the isoline at x = 1?
    println!("== isoline position at nominal embodied carbon (x = 1) ==");
    for (label, p) in perturbations {
        match map.isoline_y(1.0, p) {
            Some(y) => println!("{label:<16} M3D wins while E_operational scale < {y:.3}"),
            None => println!("{label:<16} all-Si wins at any operational energy"),
        }
    }

    // 2. Scan the (embodied, operational) plane and classify each point as
    //    robustly-M3D, robustly-Si, or uncertainty-dependent.
    println!("\n== robustness map: M = always M3D, S = always all-Si, ? = depends ==");
    print!("  y\\x ");
    for i in 0..11 {
        print!("{:>5.2}", 0.2 + 0.28 * f64::from(i));
    }
    println!();
    let mut robust_m3d = 0usize;
    let mut robust_si = 0usize;
    let mut contested = 0usize;
    for j in (0..11).rev() {
        let y = 0.2 + 0.13 * f64::from(j);
        print!("{y:>6.2}");
        for i in 0..11 {
            let x = 0.2 + 0.28 * f64::from(i);
            let ratios: Vec<f64> = perturbations
                .iter()
                .map(|&(_, p)| map.ratio_with(x, y, p))
                .collect();
            let all_m3d = ratios.iter().all(|&r| r < 1.0);
            let all_si = ratios.iter().all(|&r| r > 1.0);
            let mark = if all_m3d {
                robust_m3d += 1;
                "M"
            } else if all_si {
                robust_si += 1;
                "S"
            } else {
                contested += 1;
                "?"
            };
            print!("{mark:>5}");
        }
        println!();
    }
    println!(
        "\n{robust_m3d} robustly-M3D points, {robust_si} robustly-all-Si points, {contested} uncertainty-dependent"
    );
    println!("(the paper's takeaway: robust regions exist on both sides of the isoline)");

    // 3. Joint Monte Carlo: all uncertainty sources at once, at the
    //    nominal design point.
    println!("\n== joint Monte Carlo over all Fig. 6b uncertainty sources ==");
    let config = MonteCarloConfig::new(20_000, 2025)?;
    let ranges = UncertaintyRanges::paper_default();
    let jobs = ppatc::eval::default_jobs();
    let mc = montecarlo::try_run_supervised(&map, &ranges, &config, jobs, &Supervisor::new())?;
    println!("{mc}");
    Ok(())
}
