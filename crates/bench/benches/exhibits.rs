//! Benchmark harness: the cost of regenerating each table/figure.
//!
//! One benchmark per exhibit, in paper order, timed with a small
//! dependency-free harness (`harness = false`, `std::time::Instant`). The
//! heavyweight shared inputs (the full 2×10⁷-cycle `matmul-int` simulation
//! and the case-study construction) are built once up front and measured
//! separately so the per-exhibit numbers reflect the analysis itself.
//!
//! Each benchmark runs one untimed warm-up iteration, then `SAMPLES` timed
//! iterations, and reports the minimum, median, and mean wall-clock time.
//! Pass a substring as the first CLI argument to run a subset:
//! `cargo bench --bench exhibits -- fig6`.

use std::hint::black_box;
use std::time::Instant;

const SAMPLES: usize = 10;

struct Harness {
    filter: Option<String>,
    ran: usize,
}

impl Harness {
    fn new() -> Self {
        Self {
            filter: std::env::args().nth(1).filter(|a| a != "--bench"),
            ran: 0,
        }
    }

    fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        black_box(f()); // warm-up, untimed
        let mut times_ns: Vec<u128> = Vec::with_capacity(SAMPLES);
        for _ in 0..SAMPLES {
            let start = Instant::now();
            black_box(f());
            times_ns.push(start.elapsed().as_nanos());
        }
        times_ns.sort_unstable();
        let min = times_ns[0];
        let median = times_ns[SAMPLES / 2];
        let mean = times_ns.iter().sum::<u128>() / SAMPLES as u128;
        println!(
            "{name:<44} min {:>12}  median {:>12}  mean {:>12}",
            fmt_ns(min),
            fmt_ns(median),
            fmt_ns(mean)
        );
        self.ran += 1;
    }
}

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn main() {
    let mut h = Harness::new();

    // The ISS itself, at a reduced repetition count (the full run is ~20M
    // cycles; 4 reps keep the benchmark wall-clock sane while exercising
    // the same code path).
    h.bench("workload/matmul_int_4reps", || {
        ppatc_workloads::Workload::matmul_int()
            .execute_with_reps(4)
            .expect("matmul runs")
    });

    h.bench("table1/fet_comparison", ppatc_bench::table1::rows);
    h.bench("fig2c/embodied_per_wafer", ppatc_bench::fig2c::bars);
    h.bench("fig2d/step_energy_breakdown", ppatc_bench::fig2d::rows);
    h.bench("fig4/frequency_sweep", ppatc_bench::fig4::curves);

    // Force the shared case study (including the full matmul simulation)
    // to exist before timing the summary extraction.
    let _ = ppatc_bench::case_study();
    h.bench("table2/ppatc_summary", ppatc_bench::table2::summary);

    // The SPICE-backed step behind Table II's memory rows.
    h.bench("table2/edram_characterization_m3d", || {
        ppatc_edram::EdramMacro::characterize(ppatc_pdk::Technology::M3dIgzoCnfetSi)
            .expect("characterizes")
    });

    h.bench("fig5/lifetime_series", ppatc_bench::fig5::series);
    h.bench("fig6a/raster_21x21", ppatc_bench::fig6::raster);
    h.bench(
        "fig6b/uncertainty_isolines",
        ppatc_bench::fig6::uncertainty_isolines,
    );

    {
        use ppatc::montecarlo::{try_run_supervised, MonteCarloConfig, UncertaintyRanges};
        let map = ppatc_bench::case_study().tcdp_map(ppatc::Lifetime::months(24.0));
        let ranges = UncertaintyRanges::paper_default();
        let config = MonteCarloConfig::new(10_000, 7).expect("sample count >= 1");
        let supervisor = ppatc::Supervisor::new();
        h.bench("ext/monte_carlo_10k", || {
            try_run_supervised(&map, &ranges, &config, 1, &supervisor).expect("sweep evaluates")
        });
    }

    {
        let run = ppatc_workloads::Workload::edn()
            .execute_with_reps(1)
            .expect("edn runs");
        let opt = ppatc::optimize::Optimizer::new(
            ppatc::optimize::DesignSpace::paper_default(),
            ppatc::Lifetime::months(24.0),
        );
        h.bench("ext/optimizer_full_space", || opt.run_jobs(&run, 1));
    }

    h.bench("ext/gds_array_16x16_round_trip", || {
        let lib = ppatc_pdk::layout::cell_array(ppatc_pdk::Technology::M3dIgzoCnfetSi, 16, 16);
        let bytes = lib.to_bytes();
        ppatc_pdk::gds::GdsLibrary::from_bytes(&bytes).expect("parses")
    });

    {
        use ppatc_device::{si, SiVtFlavor};
        use ppatc_spice::{Circuit, Waveform};
        use ppatc_units::{Length, Voltage};
        let mut ckt = Circuit::new();
        let nvdd = ckt.node("vdd");
        let nin = ckt.node("in");
        let nout = ckt.node("out");
        ckt.voltage_source(
            "VDD",
            nvdd,
            Circuit::GROUND,
            Waveform::dc(Voltage::from_volts(0.7)),
        );
        let vin = ckt.voltage_source("VIN", nin, Circuit::GROUND, Waveform::dc(Voltage::zero()));
        let w = Length::from_nanometers(100.0);
        ckt.fet("MP", nout, nin, nvdd, si::pfet(SiVtFlavor::Rvt).sized(w));
        ckt.fet(
            "MN",
            nout,
            nin,
            Circuit::GROUND,
            si::nfet(SiVtFlavor::Rvt).sized(w),
        );
        let values: Vec<f64> = (0..=140).map(|i| 0.7 * f64::from(i) / 140.0).collect();
        h.bench("ext/spice_inverter_vtc_141pts", || {
            ckt.dc_sweep(vin, &values).expect("sweep solves")
        });
    }

    if h.ran == 0 {
        eprintln!("no benchmark matched the filter");
        std::process::exit(1);
    }
}
