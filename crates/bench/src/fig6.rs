//! Fig. 6: tCDP-ratio colormap, isoline, and uncertainty variants.

use crate::case_study;
use ppatc::{IsolinePoint, Lifetime, Perturbation, TcdpMap};

/// x-axis samples (scale on M3D embodied carbon).
pub fn x_samples() -> Vec<f64> {
    (0..=10).map(|i| 0.5 + 0.25 * f64::from(i)).collect()
}

/// The nominal map at the paper's 24-month lifetime.
pub fn map() -> TcdpMap {
    case_study().tcdp_map(Lifetime::months(24.0))
}

/// The Fig. 6a raster: `(x, y, ratio)` samples of the colormap.
pub fn raster() -> Vec<(f64, f64, f64)> {
    map()
        .try_raster_jobs((0.5, 3.0), (0.25, 1.5), 21, 21, 1)
        .expect("the Fig. 6a window is valid")
}

/// The nominal isoline.
pub fn isoline() -> Vec<IsolinePoint> {
    map().isoline(&x_samples())
}

/// The Fig. 6b perturbed isolines, labeled.
pub fn uncertainty_isolines() -> Vec<(&'static str, Vec<IsolinePoint>)> {
    let m = map();
    let xs = x_samples();
    vec![
        ("nominal", m.isoline(&xs)),
        (
            "lifetime −6 mo",
            m.isoline_with(&xs, Some(Perturbation::LifetimeDeltaMonths(-6.0))),
        ),
        (
            "lifetime +6 mo",
            m.isoline_with(&xs, Some(Perturbation::LifetimeDeltaMonths(6.0))),
        ),
        (
            "CI_use ÷ 3",
            m.isoline_with(&xs, Some(Perturbation::CiUseScale(1.0 / 3.0))),
        ),
        (
            "CI_use × 3",
            m.isoline_with(&xs, Some(Perturbation::CiUseScale(3.0))),
        ),
        (
            "M3D yield 10%",
            m.isoline_with(&xs, Some(Perturbation::M3dYield(0.10))),
        ),
        (
            "M3D yield 90%",
            m.isoline_with(&xs, Some(Perturbation::M3dYield(0.90))),
        ),
    ]
}

/// Renders the Fig. 6a map (coarse ASCII colormap plus the isoline).
pub fn render_map() -> String {
    let m = map();
    let mut out = String::from(
        "tCDP(M3D)/tCDP(all-Si) at 24 months; '+' = M3D more carbon-efficient (< 1)\n",
    );
    out.push_str("  y\\x ");
    for i in 0..11 {
        out.push_str(&format!("{:>6.2}", 0.5 + 0.25 * f64::from(i)));
    }
    out.push('\n');
    for j in (0..11).rev() {
        let y = 0.25 + 0.125 * f64::from(j);
        out.push_str(&format!("{y:>6.2}"));
        for i in 0..11 {
            let x = 0.5 + 0.25 * f64::from(i);
            let r = m.ratio(x, y);
            out.push_str(&format!("{:>6}", if r < 1.0 { "+" } else { "." }));
        }
        out.push('\n');
    }
    out.push_str("isoline (x, y where tCDP is equal):\n");
    for p in isoline() {
        match p.eop_scale {
            Some(y) => out.push_str(&format!("  x = {:>5.2}  y = {y:.3}\n", p.embodied_scale)),
            None => out.push_str(&format!(
                "  x = {:>5.2}  (all-Si always wins)\n",
                p.embodied_scale
            )),
        }
    }
    out
}

/// Renders the Fig. 6b uncertainty table.
pub fn render_uncertainty() -> String {
    let variants = uncertainty_isolines();
    let xs = x_samples();
    let mut out = String::from("isoline y(x) under uncertainty:\n        x:");
    for x in &xs {
        out.push_str(&format!("{x:>8.2}"));
    }
    out.push('\n');
    for (label, iso) in variants {
        out.push_str(&format!("{label:<16}"));
        for p in iso {
            match p.eop_scale {
                Some(y) => out.push_str(&format!("{y:>8.3}")),
                None => out.push_str(&format!("{:>8}", "—")),
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_point_is_in_the_red_region() {
        // At (1,1) the M3D design wins at 24 months — the paper's 1.02×.
        assert!(map().ratio(1.0, 1.0) < 1.0);
    }

    #[test]
    fn isoline_decreases_with_embodied_scale() {
        let iso = isoline();
        let ys: Vec<f64> = iso.iter().filter_map(|p| p.eop_scale).collect();
        assert!(ys.len() >= 5);
        for w in ys.windows(2) {
            assert!(w[1] < w[0], "isoline must slope down");
        }
    }

    #[test]
    fn uncertainty_brackets_the_nominal() {
        let variants = uncertainty_isolines();
        let y_at = |label: &str| -> Option<f64> {
            variants
                .iter()
                .find(|(l, _)| *l == label)
                .and_then(|(_, iso)| iso.iter().find(|p| (p.embodied_scale - 1.0).abs() < 1e-9))
                .and_then(|p| p.eop_scale)
        };
        let nominal = y_at("nominal").expect("nominal isoline at x=1");
        let longer = y_at("lifetime +6 mo").expect("longer-life isoline");
        let shorter = y_at("lifetime −6 mo").expect("shorter-life isoline");
        assert!(shorter < nominal && nominal < longer);
        let good_yield = y_at("M3D yield 90%").expect("90% yield isoline");
        assert!(good_yield > nominal);
    }

    #[test]
    fn raster_has_both_regions() {
        let r = raster();
        assert!(r.iter().any(|&(_, _, v)| v < 1.0), "some red region");
        assert!(r.iter().any(|&(_, _, v)| v > 1.0), "some blue region");
    }

    #[test]
    fn there_are_robust_regions_despite_uncertainty() {
        // Sec. III-D: even under uncertainty, some (x, y) keep their
        // winner. Check a strongly-M3D corner and a strongly-Si corner
        // across every perturbed variant.
        let m = map();
        for p in [
            None,
            Some(Perturbation::LifetimeDeltaMonths(-6.0)),
            Some(Perturbation::LifetimeDeltaMonths(6.0)),
            Some(Perturbation::CiUseScale(3.0)),
            Some(Perturbation::CiUseScale(1.0 / 3.0)),
            Some(Perturbation::M3dYield(0.10)),
            Some(Perturbation::M3dYield(0.90)),
        ] {
            assert!(
                m.ratio_with(0.3, 0.2, p) < 1.0,
                "M3D corner flips under {p:?}"
            );
            assert!(
                m.ratio_with(3.0, 1.5, p) > 1.0,
                "Si corner flips under {p:?}"
            );
        }
    }
}
