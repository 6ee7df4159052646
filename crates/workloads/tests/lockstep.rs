//! `Cpu::run` against `Cpu::step`: the loop `run` drives must leave the
//! core exactly as stepping one instruction at a time does, on every kernel
//! and on the two ways a program leaves its decoded image (an encoding that
//! does not decode, and running off the end of the image).

use ppatc_m0::{asm, Cpu, DecodeError, ExecError, MemoryError, PROG_SIZE};
use ppatc_workloads::Workload;

/// Steps until the core halts or faults; returns the completed steps and
/// the fault, if any.
fn step_to_end(cpu: &mut Cpu) -> (u64, Option<ExecError>) {
    let mut steps = 0;
    while cpu.halted().is_none() {
        if let Err(e) = cpu.step() {
            return (steps, Some(e));
        }
        steps += 1;
        assert!(steps < 10_000_000, "stepped core did not stop");
    }
    (steps, None)
}

fn assert_same_core(stepped: &Cpu, ran: &Cpu, what: &str) {
    assert_eq!(stepped.cycles(), ran.cycles(), "{what}: cycles");
    assert_eq!(stepped.halted(), ran.halted(), "{what}: halt code");
    assert_eq!(
        stepped.memory().stats(),
        ran.memory().stats(),
        "{what}: access stats"
    );
    for r in 0..16 {
        assert_eq!(stepped.reg(r), ran.reg(r), "{what}: r{r}");
    }
}

#[test]
fn run_matches_step_on_every_kernel() {
    for w in Workload::suite() {
        let source = w.source(1).expect("one repetition is in range");
        let image = asm::assemble(&source).expect("kernel assembles");
        let mut stepped = Cpu::new(&image);
        let (steps, fault) = step_to_end(&mut stepped);
        assert_eq!(fault, None, "{}", w.name());
        let mut ran = Cpu::new(&image);
        let summary = ran.run(u64::MAX).expect("kernel halts");
        assert_eq!(summary.instructions, steps, "{}: instructions", w.name());
        assert_eq!(summary.cycles, stepped.cycles(), "{}", w.name());
        assert_eq!(Some(summary.halt_code), stepped.halted(), "{}", w.name());
        assert_same_core(&stepped, &ran, w.name());
    }
}

#[test]
fn an_unsupported_encoding_faults_the_same_both_ways() {
    // 0xDE00 is condition 14 on the conditional-branch page: `udf`, which
    // the decoder does not implement.
    let image = asm::assemble("movs r0, #1\n.word 0xDE00DE00\nbkpt #0").expect("assembles");
    let expected = ExecError::Decode {
        pc: 2,
        source: DecodeError::Unsupported { halfword: 0xDE00 },
    };
    let mut stepped = Cpu::new(&image);
    assert_eq!(step_to_end(&mut stepped), (1, Some(expected.clone())));
    let mut ran = Cpu::new(&image);
    assert_eq!(ran.run(1_000), Err(expected));
    assert_same_core(&stepped, &ran, "udf");
}

#[test]
fn running_off_the_image_faults_the_same_both_ways() {
    // Past its last instruction the program memory reads zero, which
    // decodes as `movs r0, r0`: one cycle and one fetch per halfword up to
    // the end of program memory.
    let image = asm::assemble("movs r0, #1\nadds r0, r0, #1").expect("assembles");
    let expected = ExecError::Memory {
        pc: PROG_SIZE,
        source: MemoryError::OutOfBounds { addr: PROG_SIZE },
    };
    let halfwords = u64::from(PROG_SIZE / 2);
    let mut stepped = Cpu::new(&image);
    assert_eq!(
        step_to_end(&mut stepped),
        (halfwords, Some(expected.clone()))
    );
    let mut ran = Cpu::new(&image);
    assert_eq!(ran.run(1_000_000), Err(expected));
    assert_same_core(&stepped, &ran, "off the image");
    assert_eq!(ran.cycles(), halfwords);
    assert_eq!(ran.memory().stats().instruction_fetches, halfwords);
    assert_eq!(ran.reg(0), 2);
}
