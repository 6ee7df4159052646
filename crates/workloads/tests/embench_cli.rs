//! The `embench` binary's handling of an out-of-range `--reps`.

use std::process::Command;

#[test]
fn out_of_range_reps_print_the_error_and_exit_1() {
    let vcd = std::env::temp_dir().join(format!("embench-reps-{}.vcd", std::process::id()));
    let vcd = vcd.to_str().expect("temp path is UTF-8");
    for reps in ["0", "256"] {
        for extra in [&[][..], &["--disasm"], &["--vcd", vcd]] {
            let out = Command::new(env!("CARGO_BIN_EXE_embench"))
                .args(["crc32", "--reps", reps])
                .args(extra)
                .output()
                .expect("embench starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(1),
                "--reps {reps} {extra:?}: {stderr}"
            );
            assert_eq!(
                stderr.trim_end(),
                format!("crc32: `crc32` takes 1 to 255 repetitions, not {reps}"),
                "{extra:?}"
            );
            assert!(out.stdout.is_empty(), "{extra:?}");
        }
    }
    assert!(!std::path::Path::new(vcd).exists());
}
