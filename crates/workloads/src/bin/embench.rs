//! Run Embench-style kernels on the Cortex-M0 simulator from the command
//! line.
//!
//! ```text
//! cargo run --release -p ppatc-workloads --bin embench -- all
//! cargo run --release -p ppatc-workloads --bin embench -- matmul-int --reps 4
//! cargo run --release -p ppatc-workloads --bin embench -- crc32 --vcd crc32.vcd
//! cargo run --release -p ppatc-workloads --bin embench -- fsm --disasm
//! ```

use ppatc_m0::vcd::VcdRecorder;
use ppatc_m0::{asm, Cpu};
use ppatc_workloads::Workload;
use std::error::Error;
use std::io::{self, Write};
use std::process::ExitCode;

struct Options {
    kernel: String,
    reps: Option<u32>,
    vcd: Option<String>,
    disasm: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let kernel = args
        .next()
        .ok_or("usage: embench <kernel|all> [--reps N] [--vcd FILE] [--disasm]")?;
    let mut opts = Options {
        kernel,
        reps: None,
        vcd: None,
        disasm: false,
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--reps" => {
                let v = args.next().ok_or("--reps needs a value")?;
                opts.reps = Some(v.parse().map_err(|_| format!("bad rep count `{v}`"))?);
            }
            "--vcd" => opts.vcd = Some(args.next().ok_or("--vcd needs a path")?),
            "--disasm" => opts.disasm = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Runs one kernel and writes its report to `out`. An [`io::Error`] in the
/// result comes from `out` alone: a failed VCD file write is reported as
/// text, so it cannot read as a closed stdout.
fn run_kernel(w: &Workload, opts: &Options, out: &mut impl Write) -> Result<(), Box<dyn Error>> {
    let reps = opts.reps.unwrap_or(w.default_reps());
    if opts.disasm {
        let image = asm::assemble(&w.source(reps)?)?;
        writeln!(
            out,
            "---- {} disassembly ({} bytes) ----",
            w.name(),
            image.len()
        )?;
        for (addr, inst) in ppatc_m0::disassemble(&image) {
            writeln!(out, "{addr:04x}: {inst}")?;
        }
        writeln!(out)?;
    }
    if let Some(path) = &opts.vcd {
        let image = asm::assemble(&w.source(reps)?)?;
        let mut cpu = Cpu::new(&image);
        let vcd = VcdRecorder::new(w.name(), 2_000) // ps per cycle (500 MHz)
            .record_run(&mut cpu, 2_000_000_000)?; // max_cycles safety stop
        std::fs::write(path, &vcd).map_err(|e| format!("{path}: {e}"))?;
        writeln!(out, "wrote {} ({} bytes of VCD)", path, vcd.len())?;
    }
    let run = w.execute_with_reps(reps)?;
    let ipc = run.instructions as f64 / run.cycles as f64;
    writeln!(
        out,
        "{:<12} reps={reps:<4} cycles={:<12} instructions={:<12} IPC={ipc:.2} checksum={:#010x}",
        w.name(),
        run.cycles,
        run.instructions,
        run.checksum
    )?;
    writeln!(
        out,
        "             fetches={} prog_reads={} data_reads={} data_writes={} max_retention={} cycles",
        run.stats.instruction_fetches,
        run.stats.program_reads,
        run.stats.data_reads,
        run.stats.data_writes,
        run.stats.max_write_to_read_cycles
    )?;
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let selected = if opts.kernel == "all" {
        Workload::suite()
    } else {
        match Workload::by_name(&opts.kernel) {
            Ok(w) => vec![w],
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut out = io::stdout().lock();
    for w in &selected {
        if let Err(e) = run_kernel(w, &opts, &mut out) {
            // A reader that stops early (`embench all | head -1`) ends the
            // run; that is not a failure.
            if e.downcast_ref::<io::Error>()
                .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
            {
                return ExitCode::SUCCESS;
            }
            eprintln!("{}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
