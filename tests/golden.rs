//! Byte identity as a tier-1 gate. Every suite kernel's full run and the
//! stdout of `paper table2` and `paper all` must match the committed
//! reference lines in `perfbench/golden.txt`, the one copy of the truth
//! that the benchmark harness checks too. An intended change to any of
//! these outputs regenerates that file with `perfbench --print-golden`.
//!
//! The exhibit digests see only rounded text, so the embodied-carbon chain
//! is also pinned to the bit here: a step sum that moved by one ulp would
//! still print the same exhibits.

use ppatc::{EmbodiedPipeline, SystemDesign};
use ppatc_fab::{grid, EmbodiedModel, LithoTool, ProcessArea, ProcessFlow};
use ppatc_pdk::Technology;
use ppatc_units::Frequency;
use ppatc_workloads::Workload;

const GOLDEN: &str = include_str!("../perfbench/golden.txt");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The committed line whose first two fields are `kind name`.
fn golden(kind: &str, name: &str) -> &'static str {
    GOLDEN
        .lines()
        .find(|line| line.split_ascii_whitespace().take(2).eq([kind, name]))
        .unwrap_or_else(|| panic!("golden.txt has no `{kind} {name}` line"))
}

/// The golden line of an exhibit's stdout: its byte length and digest.
fn exhibit_line(name: &str, stdout: &str) -> String {
    format!(
        "exhibit {name} bytes={} fnv1a64={:016x}",
        stdout.len(),
        fnv1a(stdout.as_bytes())
    )
}

#[test]
fn every_kernel_run_matches_its_golden_counts() {
    for w in Workload::suite() {
        let run = w.execute().expect("kernel runs");
        let s = &run.stats;
        let line = format!(
            "kernel {} cycles={} instructions={} checksum={:08x} fetches={} program_reads={} \
             data_reads={} data_writes={} max_write_to_read={} words_written={}",
            w.name(),
            run.cycles,
            run.instructions,
            run.checksum,
            s.instruction_fetches,
            s.program_reads,
            s.data_reads,
            s.data_writes,
            s.max_write_to_read_cycles,
            s.words_written
        );
        assert_eq!(line, golden("kernel", w.name()));
    }
}

#[test]
fn paper_table2_stdout_matches_its_golden_digest() {
    // The `paper` binary prints each exhibit with `println!`.
    let stdout = format!("{}\n", ppatc_bench::table2::render());
    assert_eq!(exhibit_line("table2", &stdout), golden("exhibit", "table2"));
}

#[test]
fn paper_all_stdout_matches_its_golden_digest() {
    let all = ppatc_bench::render_all_jobs(ppatc::eval::default_jobs());
    let stdout = format!("{all}\n");
    assert_eq!(exhibit_line("all", &stdout), golden("exhibit", "all"));
}

/// One technology's embodied-carbon chain, as `f64::to_bits` of the base
/// units (joules, grams).
struct EmbodiedPin {
    technology: Technology,
    /// `ProcessFlow::step_counts` in matrix-row order: EUV and 193i
    /// exposures, then deposition, dry etch, wet etch, metallization and
    /// metrology.
    step_counts: [usize; 7],
    /// Pre-overhead EPA per wafer.
    epa_joules: u64,
    /// Wafer totals on `grid::FIG2C_GRIDS` (U.S., coal, solar, Taiwan).
    total_grams: [u64; 4],
    /// Per good die of the paper's 500 MHz design (U.S. fab grid).
    per_good_die_grams: u64,
}

const EMBODIED_PINS: [EmbodiedPin; 2] = [
    EmbodiedPin {
        technology: Technology::AllSi,
        step_counts: [6, 14, 43, 43, 18, 27, 34],
        epa_joules: 0x41e2_c1b6_fc00_0000,
        total_grams: [
            0x4129_8c59_42be_a234,
            0x4133_58dd_ad40_2fec,
            0x411f_4207_37bf_4b72,
            0x412f_040a_c922_6983,
        ],
        per_good_die_grams: 0x4008_a469_c914_8b57,
    },
    EmbodiedPin {
        technology: Technology::M3dIgzoCnfetSi,
        step_counts: [30, 14, 90, 81, 41, 48, 76],
        epa_joules: 0x41ec_faba_1000_0000,
        total_grams: [
            0x4130_cc0b_ec4a_b8ca,
            0x413a_f3d5_0ca6_78e4,
            0x4122_44c7_bf06_5455,
            0x4135_0552_3105_d3be,
        ],
        per_good_die_grams: 0x400c_2ef3_584c_868b,
    },
];

#[test]
fn embodied_chain_matches_its_pinned_bits() {
    let rows = [
        (ProcessArea::Lithography, Some(LithoTool::Euv)),
        (ProcessArea::Lithography, Some(LithoTool::Immersion)),
        (ProcessArea::Deposition, None),
        (ProcessArea::DryEtch, None),
        (ProcessArea::WetEtch, None),
        (ProcessArea::Metallization, None),
        (ProcessArea::Metrology, None),
    ];
    let model = EmbodiedModel::paper_default();
    for pin in &EMBODIED_PINS {
        let tech = pin.technology;
        let counts: Vec<_> = rows
            .iter()
            .zip(pin.step_counts)
            .map(|(&(area, tool), n)| (area, tool, n))
            .collect();
        assert_eq!(
            ProcessFlow::for_technology(tech).step_counts(),
            counts,
            "{tech}"
        );
        for (g, &total) in grid::FIG2C_GRIDS.iter().zip(&pin.total_grams) {
            let wafer = model.embodied_per_wafer(tech, *g);
            assert_eq!(wafer.epa().as_joules().to_bits(), pin.epa_joules, "{tech}");
            assert_eq!(
                wafer.total().as_grams().to_bits(),
                total,
                "{tech} on {}",
                g.name()
            );
        }
        let design = SystemDesign::new(tech, Frequency::from_megahertz(500.0)).expect("design");
        let die = EmbodiedPipeline::paper_default().per_good_die(&design);
        assert_eq!(
            die.per_good_die().as_grams().to_bits(),
            pin.per_good_die_grams,
            "{tech}"
        );
    }
}
