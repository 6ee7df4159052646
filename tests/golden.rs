//! Byte identity as a tier-1 gate. Every suite kernel's full run and the
//! stdout of `paper table2` and `paper all` must match the committed
//! reference lines in `perfbench/golden.txt`, the one copy of the truth
//! that the benchmark harness checks too. An intended change to any of
//! these outputs regenerates that file with `perfbench --print-golden`.

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
