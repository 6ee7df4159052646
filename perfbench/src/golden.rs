//! Committed reference outputs: exhibit stdout digests and every kernel's
//! simulated cycle, instruction and access counts (`golden.txt`).

use ppatc_workloads::WorkloadRun;

const GOLDEN: &str = include_str!("../golden.txt");

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The golden line of an exhibit's stdout.
pub fn exhibit_line(name: &str, stdout: &[u8]) -> String {
    format!(
        "exhibit {name} bytes={} fnv1a64={:016x}",
        stdout.len(),
        fnv1a(stdout)
    )
}

/// The golden line of a kernel run.
pub fn kernel_line(name: &str, run: &WorkloadRun) -> String {
    let s = &run.stats;
    format!(
        "kernel {name} cycles={} instructions={} checksum={:08x} fetches={} program_reads={} \
         data_reads={} data_writes={} max_write_to_read={} words_written={}",
        run.cycles,
        run.instructions,
        run.checksum,
        s.instruction_fetches,
        s.program_reads,
        s.data_reads,
        s.data_writes,
        s.max_write_to_read_cycles,
        s.words_written
    )
}

/// `Ok` when `line` is committed; otherwise what was expected.
pub fn check(line: &str) -> Result<(), String> {
    let key: Vec<&str> = line.split_ascii_whitespace().take(2).collect();
    if GOLDEN.lines().any(|g| g == line) {
        return Ok(());
    }
    let expected = GOLDEN
        .lines()
        .find(|g| g.split_ascii_whitespace().take(2).eq(key.iter().copied()))
        .unwrap_or("(no committed line)");
    Err(format!("got `{line}`, expected `{expected}`"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
