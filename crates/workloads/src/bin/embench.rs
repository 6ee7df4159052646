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

fn run_kernel(w: &Workload, opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let reps = opts.reps.unwrap_or(w.default_reps());
    if opts.disasm {
        let image = asm::assemble(&w.source(reps)?)?;
        println!("---- {} disassembly ({} bytes) ----", w.name(), image.len());
        for (addr, inst) in ppatc_m0::disassemble(&image) {
            println!("{addr:04x}: {inst}");
        }
        println!();
    }
    if let Some(path) = &opts.vcd {
        let image = asm::assemble(&w.source(reps)?)?;
        let mut cpu = Cpu::new(&image);
        let vcd = VcdRecorder::new(w.name(), 2_000) // ps per cycle (500 MHz)
            .record_run(&mut cpu, 2_000_000_000)?; // max_cycles safety stop
        std::fs::write(path, &vcd)?;
        println!("wrote {} ({} bytes of VCD)", path, vcd.len());
    }
    let run = w.execute_with_reps(reps)?;
    let ipc = run.instructions as f64 / run.cycles as f64;
    println!(
        "{:<12} reps={reps:<4} cycles={:<12} instructions={:<12} IPC={ipc:.2} checksum={:#010x}",
        w.name(),
        run.cycles,
        run.instructions,
        run.checksum
    );
    println!(
        "             fetches={} prog_reads={} data_reads={} data_writes={} max_retention={} cycles",
        run.stats.instruction_fetches,
        run.stats.program_reads,
        run.stats.data_reads,
        run.stats.data_writes,
        run.stats.max_write_to_read_cycles
    );
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
    let suite = Workload::suite();
    let selected: Vec<&Workload> = if opts.kernel == "all" {
        suite.iter().collect()
    } else {
        match suite.iter().find(|w| w.name() == opts.kernel) {
            Some(w) => vec![w],
            None => {
                let names: Vec<_> = suite.iter().map(|w| w.name()).collect();
                eprintln!(
                    "unknown kernel `{}`; available: {}",
                    opts.kernel,
                    names.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    };
    for w in selected {
        if let Err(e) = run_kernel(w, &opts) {
            eprintln!("{}: {e}", w.name());
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
