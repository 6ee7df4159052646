//! Fig. 2d: steps in EUV metal-layer fabrication and their total energy.

use ppatc_fab::flow::{area_breakdown, metal_via_pair_steps};
use ppatc_fab::{ProcessArea, StepEnergies};
use ppatc_pdk::Lithography;

/// One Fig. 2d row: a process area's step count and total energy for one
/// EUV-patterned metal/via layer.
#[derive(Clone, Debug, PartialEq)]
pub struct AreaRow {
    /// Process area.
    pub area: ProcessArea,
    /// Steps of this area in the layer's flow.
    pub steps: usize,
    /// Total energy of those steps, kWh/wafer.
    pub total_kwh: f64,
    /// Energy per step, kWh (the quantity the paper divides out to cost
    /// novel process modules).
    pub kwh_per_step: f64,
}

/// Computes the breakdown.
pub fn rows() -> Vec<AreaRow> {
    let db = StepEnergies::calibrated_7nm();
    let steps = metal_via_pair_steps(Lithography::EuvSingle);
    area_breakdown(&steps, &db)
        .into_iter()
        .map(|(area, steps, total)| {
            let kwh = total.as_kilowatt_hours();
            AreaRow {
                area,
                steps,
                total_kwh: kwh,
                kwh_per_step: if steps > 0 { kwh / steps as f64 } else { 0.0 },
            }
        })
        .collect()
}

/// Renders the figure's data.
pub fn render() -> String {
    let mut out = String::from("process area     steps   total (kWh/wafer)   per step (kWh)\n");
    let mut total = 0.0;
    let mut n = 0;
    for r in rows() {
        out.push_str(&format!(
            "{:<17}{:>5}{:>17.2}{:>17.2}\n",
            r.area.to_string(),
            r.steps,
            r.total_kwh,
            r.kwh_per_step
        ));
        total += r.total_kwh;
        n += r.steps;
    }
    out.push_str(&format!("{:<17}{:>5}{:>17.2}\n", "TOTAL", n, total));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppatc_units::approx_eq;

    #[test]
    fn lithography_dominates_the_layer() {
        let rows = rows();
        let litho = rows
            .iter()
            .find(|r| r.area == ProcessArea::Lithography)
            .expect("litho row");
        for r in &rows {
            if r.area != ProcessArea::Lithography {
                assert!(litho.total_kwh > r.total_kwh, "{} beats litho", r.area);
            }
        }
    }

    #[test]
    fn layer_total_matches_calibration() {
        let total: f64 = rows().iter().map(|r| r.total_kwh).sum();
        assert!(approx_eq(total, 37.84, 0.01), "EUV layer total {total} kWh");
    }

    #[test]
    fn per_step_division_is_consistent() {
        for r in rows() {
            if r.steps > 0 {
                assert!(approx_eq(
                    r.kwh_per_step * r.steps as f64,
                    r.total_kwh,
                    1e-12
                ));
            }
        }
    }
}
