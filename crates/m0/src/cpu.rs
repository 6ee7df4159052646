//! The Cortex-M0 execution engine with documented cycle costs.

use crate::inst::{Condition, DecodeError, DpOp, Instruction, Reg};
use crate::memory::{MemoryError, MemorySystem, DATA_BASE, DATA_SIZE};

/// Execution fault.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// Undecodable instruction.
    Decode {
        /// Address of the instruction.
        pc: u32,
        /// Underlying decode error.
        source: DecodeError,
    },
    /// Memory fault during execution.
    Memory {
        /// Address of the instruction that faulted.
        pc: u32,
        /// Underlying memory error.
        source: MemoryError,
    },
    /// `run` exceeded its cycle budget without reaching a breakpoint.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Decode { pc, source } => write!(f, "at pc={pc:#010x}: {source}"),
            ExecError::Memory { pc, source } => write!(f, "at pc={pc:#010x}: {source}"),
            ExecError::CycleLimit { limit } => {
                write!(f, "program did not halt within {limit} cycles")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Result of a completed [`Cpu::run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// Total cycles consumed (the paper's `N_cycle`).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The `bkpt` immediate that stopped execution.
    pub halt_code: u8,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Apsr {
    n: bool,
    z: bool,
    c: bool,
    v: bool,
}

/// A Cortex-M0 core attached to a [`MemorySystem`].
///
/// Cycle costs follow the Cortex-M0 technical reference manual (with the
/// single-cycle multiplier option): 1 cycle for ALU/moves, 2 for loads and
/// stores, 3 for taken branches and `bx`, 4 for `bl`, and `1 + N` for
/// `push`/`pop` (`4 + N` when `pop` reloads the PC).
#[derive(Clone, Debug)]
pub struct Cpu {
    regs: [u32; 16],
    apsr: Apsr,
    memory: MemorySystem,
    cycles: u64,
    instructions: u64,
    halted: Option<u8>,
    /// The program image decoded once, one slot per halfword: what fetch +
    /// decode returns at that address, or `None` where it fails. Stores to
    /// the program region fault, so the table never goes stale.
    decoded: Vec<Option<Instruction>>,
}

impl Cpu {
    /// Creates a core with the program loaded at address 0, `pc = 0`, and
    /// `sp` at the top of data memory, and decodes the program once.
    ///
    /// # Panics
    ///
    /// Panics if `program_image` is longer than
    /// [`PROG_SIZE`](crate::PROG_SIZE). Images from [`crate::asm::assemble`]
    /// never are; an image built by hand must be checked by its caller.
    pub fn new(program_image: &[u8]) -> Self {
        let mut regs = [0u32; 16];
        regs[Reg::SP.index()] = DATA_BASE + DATA_SIZE;
        let mut memory = MemorySystem::new(program_image);
        let decoded = (0..program_image.len() as u32)
            .step_by(2)
            .map(|pc| fetch_decode(&mut memory, pc).ok())
            .collect();
        // The table was read through the counted fetch path; a run starts
        // with no access counted.
        memory.reset_stats();
        Self {
            regs,
            apsr: Apsr::default(),
            memory,
            cycles: 0,
            instructions: 0,
            halted: None,
            decoded,
        }
    }

    /// Reads a core register. Reading `pc` returns the current instruction
    /// address.
    pub fn reg(&self, index: u8) -> u32 {
        self.regs[index as usize]
    }

    /// Writes a core register (test setup / argument passing).
    pub fn set_reg(&mut self, index: u8, value: u32) {
        self.regs[index as usize] = value;
    }

    /// Cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The attached memory system.
    pub fn memory(&self) -> &MemorySystem {
        &self.memory
    }

    /// Mutable access to the memory system (workload input setup).
    pub fn memory_mut(&mut self) -> &mut MemorySystem {
        &mut self.memory
    }

    /// `Some(code)` once a `bkpt #code` has retired.
    pub fn halted(&self) -> Option<u8> {
        self.halted
    }

    /// Runs until a breakpoint halts the core.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] from execution, or [`ExecError::CycleLimit`] if the
    /// program has not halted within `max_cycles`.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, ExecError> {
        while self.halted.is_none() {
            if self.cycles >= max_cycles {
                return Err(ExecError::CycleLimit { limit: max_cycles });
            }
            self.execute_next()?;
        }
        Ok(RunSummary {
            cycles: self.cycles,
            instructions: self.instructions,
            halt_code: self.halted.unwrap_or(0),
        })
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Decode or memory faults, tagged with the faulting `pc`.
    pub fn step(&mut self) -> Result<(), ExecError> {
        if self.halted.is_some() {
            return Ok(());
        }
        self.execute_next()
    }

    /// Executes the instruction at `pc` from the decode table, or through
    /// fetch + decode where the table has none, so every fault is the one
    /// fetch + decode reports.
    #[inline(always)]
    fn execute_next(&mut self) -> Result<(), ExecError> {
        let pc = self.regs[Reg::PC.index()];
        let inst = match self.decoded.get(pc as usize / 2) {
            Some(&Some(inst)) if pc.is_multiple_of(2) => {
                self.memory.count_fetches(inst.size() / 2);
                inst
            }
            _ => fetch_decode(&mut self.memory, pc)?,
        };
        self.instructions += 1;
        self.exec(inst, pc)
            .map_err(|source| ExecError::Memory { pc, source })
    }

    /// The PC value visible to instructions (current address + 4).
    fn pc_operand(&self, pc: u32) -> u32 {
        pc.wrapping_add(4)
    }

    #[inline(always)]
    fn exec(&mut self, inst: Instruction, pc: u32) -> Result<(), MemoryError> {
        use Instruction::*;
        let mut next_pc = pc.wrapping_add(inst.size());
        let mut cost: u64 = 1;
        let cycle = self.cycles;

        match inst {
            LslImm { rd, rm, imm5 } => {
                let v = self.regs[rm.index()];
                let r = if imm5 == 0 {
                    // MOVS register: flags N,Z only.
                    v
                } else {
                    self.apsr.c = (v >> (32 - imm5 as u32)) & 1 == 1;
                    v << imm5
                };
                self.set_nz(r);
                self.regs[rd.index()] = r;
            }
            LsrImm { rd, rm, imm5 } => {
                let v = self.regs[rm.index()];
                let sh = if imm5 == 0 { 32 } else { imm5 as u32 };
                let r = if sh == 32 {
                    self.apsr.c = (v >> 31) & 1 == 1;
                    0
                } else {
                    self.apsr.c = (v >> (sh - 1)) & 1 == 1;
                    v >> sh
                };
                self.set_nz(r);
                self.regs[rd.index()] = r;
            }
            AsrImm { rd, rm, imm5 } => {
                let v = self.regs[rm.index()] as i32;
                let sh = if imm5 == 0 { 32 } else { imm5 as u32 };
                let r = if sh == 32 {
                    self.apsr.c = v < 0;
                    (v >> 31) as u32
                } else {
                    self.apsr.c = (v >> (sh - 1)) & 1 == 1;
                    (v >> sh) as u32
                };
                self.set_nz(r);
                self.regs[rd.index()] = r;
            }
            AddReg { rd, rn, rm } => {
                let r = self.add_with_flags(self.regs[rn.index()], self.regs[rm.index()], false);
                self.regs[rd.index()] = r;
            }
            SubReg { rd, rn, rm } => {
                let r = self.sub_with_flags(self.regs[rn.index()], self.regs[rm.index()], true);
                self.regs[rd.index()] = r;
            }
            AddImm3 { rd, rn, imm3 } => {
                let r = self.add_with_flags(self.regs[rn.index()], imm3 as u32, false);
                self.regs[rd.index()] = r;
            }
            SubImm3 { rd, rn, imm3 } => {
                let r = self.sub_with_flags(self.regs[rn.index()], imm3 as u32, true);
                self.regs[rd.index()] = r;
            }
            MovImm { rd, imm8 } => {
                let r = imm8 as u32;
                self.set_nz(r);
                self.regs[rd.index()] = r;
            }
            CmpImm { rn, imm8 } => {
                let _ = self.sub_with_flags(self.regs[rn.index()], imm8 as u32, true);
            }
            AddImm8 { rdn, imm8 } => {
                let r = self.add_with_flags(self.regs[rdn.index()], imm8 as u32, false);
                self.regs[rdn.index()] = r;
            }
            SubImm8 { rdn, imm8 } => {
                let r = self.sub_with_flags(self.regs[rdn.index()], imm8 as u32, true);
                self.regs[rdn.index()] = r;
            }
            DataProc { op, rdn, rm } => {
                let a = self.regs[rdn.index()];
                let b = self.regs[rm.index()];
                match op {
                    DpOp::And => {
                        let r = a & b;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Eor => {
                        let r = a ^ b;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Orr => {
                        let r = a | b;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Bic => {
                        let r = a & !b;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Mvn => {
                        let r = !b;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Tst => self.set_nz(a & b),
                    DpOp::Lsl => {
                        let sh = b & 0xFF;
                        let r = self.shift_left_with_carry(a, sh);
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Lsr => {
                        let sh = b & 0xFF;
                        let r = self.shift_right_with_carry(a, sh, false);
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Asr => {
                        let sh = b & 0xFF;
                        let r = self.shift_right_with_carry(a, sh, true);
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Ror => {
                        let sh = b & 0xFF;
                        let r = if sh == 0 {
                            a
                        } else {
                            let s = sh % 32;
                            let r = a.rotate_right(s);
                            self.apsr.c = (r >> 31) & 1 == 1;
                            r
                        };
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Adc => {
                        let carry = self.apsr.c as u32;
                        let (s1, c1) = a.overflowing_add(b);
                        let (r, c2) = s1.overflowing_add(carry);
                        self.apsr.c = c1 || c2;
                        self.apsr.v = ((a ^ r) & (b ^ r)) >> 31 == 1;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Sbc => {
                        let borrow = (!self.apsr.c) as u32;
                        let nb = !b;
                        let (s1, c1) = a.overflowing_add(nb);
                        let (r, c2) = s1.overflowing_add(1 - borrow);
                        self.apsr.c = c1 || c2;
                        self.apsr.v = ((a ^ r) & (nb ^ r)) >> 31 == 1;
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Rsb => {
                        // RSBS rdn, rm, #0 (NEG).
                        let r = self.sub_with_flags(0, b, true);
                        self.regs[rdn.index()] = r;
                    }
                    DpOp::Cmp => {
                        let _ = self.sub_with_flags(a, b, true);
                    }
                    DpOp::Cmn => {
                        let _ = self.add_with_flags(a, b, false);
                    }
                    DpOp::Mul => {
                        // Single-cycle multiplier configuration.
                        let r = a.wrapping_mul(b);
                        self.set_nz(r);
                        self.regs[rdn.index()] = r;
                    }
                }
            }
            AddHi { rdn, rm } => {
                let a = self.read_operand(rdn, pc);
                let b = self.read_operand(rm, pc);
                let r = a.wrapping_add(b);
                if rdn == Reg::PC {
                    next_pc = r & !1;
                    cost = 3;
                } else {
                    self.regs[rdn.index()] = r;
                }
            }
            CmpHi { rn, rm } => {
                let a = self.read_operand(rn, pc);
                let b = self.read_operand(rm, pc);
                let _ = self.sub_with_flags(a, b, true);
            }
            MovHi { rd, rm } => {
                let v = self.read_operand(rm, pc);
                if rd == Reg::PC {
                    next_pc = v & !1;
                    cost = 3;
                } else {
                    self.regs[rd.index()] = v;
                }
            }
            Bx { rm } => {
                next_pc = self.read_operand(rm, pc) & !1;
                cost = 3;
            }
            Blx { rm } => {
                let target = self.read_operand(rm, pc) & !1;
                self.regs[Reg::LR.index()] = pc.wrapping_add(2) | 1;
                next_pc = target;
                cost = 3;
            }
            LdrLit { rt, imm8 } => {
                let base = self.pc_operand(pc) & !3;
                let v = self.memory.read_u32(base + (imm8 as u32) * 4, cycle)?;
                self.regs[rt.index()] = v;
                cost = 2;
            }
            LdrImm { rt, rn, imm5 } => {
                let addr = self.regs[rn.index()].wrapping_add((imm5 as u32) * 4);
                self.regs[rt.index()] = self.memory.read_u32(addr, cycle)?;
                cost = 2;
            }
            StrImm { rt, rn, imm5 } => {
                let addr = self.regs[rn.index()].wrapping_add((imm5 as u32) * 4);
                self.memory.write_u32(addr, self.regs[rt.index()], cycle)?;
                cost = 2;
            }
            LdrbImm { rt, rn, imm5 } => {
                let addr = self.regs[rn.index()].wrapping_add(imm5 as u32);
                self.regs[rt.index()] = self.memory.read_u8(addr, cycle)? as u32;
                cost = 2;
            }
            StrbImm { rt, rn, imm5 } => {
                let addr = self.regs[rn.index()].wrapping_add(imm5 as u32);
                self.memory
                    .write_u8(addr, self.regs[rt.index()] as u8, cycle)?;
                cost = 2;
            }
            LdrhImm { rt, rn, imm5 } => {
                let addr = self.regs[rn.index()].wrapping_add((imm5 as u32) * 2);
                self.regs[rt.index()] = self.memory.read_u16(addr, cycle)? as u32;
                cost = 2;
            }
            StrhImm { rt, rn, imm5 } => {
                let addr = self.regs[rn.index()].wrapping_add((imm5 as u32) * 2);
                self.memory
                    .write_u16(addr, self.regs[rt.index()] as u16, cycle)?;
                cost = 2;
            }
            LdrReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.regs[rt.index()] = self.memory.read_u32(addr, cycle)?;
                cost = 2;
            }
            StrReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.memory.write_u32(addr, self.regs[rt.index()], cycle)?;
                cost = 2;
            }
            LdrbReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.regs[rt.index()] = self.memory.read_u8(addr, cycle)? as u32;
                cost = 2;
            }
            StrbReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.memory
                    .write_u8(addr, self.regs[rt.index()] as u8, cycle)?;
                cost = 2;
            }
            LdrhReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.regs[rt.index()] = self.memory.read_u16(addr, cycle)? as u32;
                cost = 2;
            }
            StrhReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.memory
                    .write_u16(addr, self.regs[rt.index()] as u16, cycle)?;
                cost = 2;
            }
            LdrsbReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.regs[rt.index()] = self.memory.read_u8(addr, cycle)? as i8 as i32 as u32;
                cost = 2;
            }
            LdrshReg { rt, rn, rm } => {
                let addr = self.regs[rn.index()].wrapping_add(self.regs[rm.index()]);
                self.regs[rt.index()] = self.memory.read_u16(addr, cycle)? as i16 as i32 as u32;
                cost = 2;
            }
            LdrSp { rt, imm8 } => {
                let addr = self.regs[Reg::SP.index()].wrapping_add((imm8 as u32) * 4);
                self.regs[rt.index()] = self.memory.read_u32(addr, cycle)?;
                cost = 2;
            }
            StrSp { rt, imm8 } => {
                let addr = self.regs[Reg::SP.index()].wrapping_add((imm8 as u32) * 4);
                self.memory.write_u32(addr, self.regs[rt.index()], cycle)?;
                cost = 2;
            }
            AddRdSp { rd, imm8 } => {
                self.regs[rd.index()] = self.regs[Reg::SP.index()].wrapping_add((imm8 as u32) * 4);
            }
            Adr { rd, imm8 } => {
                self.regs[rd.index()] = (self.pc_operand(pc) & !3) + (imm8 as u32) * 4;
            }
            AddSp { imm7 } => {
                self.regs[Reg::SP.index()] =
                    self.regs[Reg::SP.index()].wrapping_add((imm7 as u32) * 4);
            }
            SubSp { imm7 } => {
                self.regs[Reg::SP.index()] =
                    self.regs[Reg::SP.index()].wrapping_sub((imm7 as u32) * 4);
            }
            Uxtb { rd, rm } => self.regs[rd.index()] = self.regs[rm.index()] & 0xFF,
            Uxth { rd, rm } => self.regs[rd.index()] = self.regs[rm.index()] & 0xFFFF,
            Sxtb { rd, rm } => {
                self.regs[rd.index()] = self.regs[rm.index()] as u8 as i8 as i32 as u32
            }
            Sxth { rd, rm } => {
                self.regs[rd.index()] = self.regs[rm.index()] as u16 as i16 as i32 as u32
            }
            Rev { rd, rm } => self.regs[rd.index()] = self.regs[rm.index()].swap_bytes(),
            Rev16 { rd, rm } => {
                let v = self.regs[rm.index()];
                self.regs[rd.index()] = ((v & 0x00FF_00FF) << 8) | ((v & 0xFF00_FF00) >> 8);
            }
            Revsh { rd, rm } => {
                let v = self.regs[rm.index()] as u16;
                self.regs[rd.index()] = (v.swap_bytes() as i16) as i32 as u32;
            }
            Push { registers, lr } => {
                let mut count = 0u32;
                let mut sp = self.regs[Reg::SP.index()];
                let total = registers.count_ones() + lr as u32;
                sp = sp.wrapping_sub(4 * total);
                self.regs[Reg::SP.index()] = sp;
                for r in 0..8u8 {
                    if registers & (1 << r) != 0 {
                        self.memory
                            .write_u32(sp + 4 * count, self.regs[r as usize], cycle)?;
                        count += 1;
                    }
                }
                if lr {
                    self.memory
                        .write_u32(sp + 4 * count, self.regs[Reg::LR.index()], cycle)?;
                }
                cost = 1 + total as u64;
            }
            Pop {
                registers,
                pc: load_pc,
            } => {
                let mut sp = self.regs[Reg::SP.index()];
                let total = registers.count_ones() + load_pc as u32;
                for r in 0..8u8 {
                    if registers & (1 << r) != 0 {
                        self.regs[r as usize] = self.memory.read_u32(sp, cycle)?;
                        sp = sp.wrapping_add(4);
                    }
                }
                if load_pc {
                    next_pc = self.memory.read_u32(sp, cycle)? & !1;
                    sp = sp.wrapping_add(4);
                    cost = 4 + registers.count_ones() as u64;
                } else {
                    cost = 1 + total as u64;
                }
                self.regs[Reg::SP.index()] = sp;
            }
            Stmia { rn, registers } => {
                let mut addr = self.regs[rn.index()];
                for r in 0..8u8 {
                    if registers & (1 << r) != 0 {
                        self.memory.write_u32(addr, self.regs[r as usize], cycle)?;
                        addr = addr.wrapping_add(4);
                    }
                }
                self.regs[rn.index()] = addr;
                cost = 1 + u64::from(registers.count_ones());
            }
            Ldmia { rn, registers } => {
                let mut addr = self.regs[rn.index()];
                for r in 0..8u8 {
                    if registers & (1 << r) != 0 {
                        self.regs[r as usize] = self.memory.read_u32(addr, cycle)?;
                        addr = addr.wrapping_add(4);
                    }
                }
                // Writeback unless rn is in the list (ARMv6-M: loaded value
                // wins in that case).
                if registers & (1 << rn.0) == 0 {
                    self.regs[rn.index()] = addr;
                }
                cost = 1 + u64::from(registers.count_ones());
            }
            BCond { cond, imm8 } => {
                if self.condition_passed(cond) {
                    let offset = ((imm8 as i8) as i32) << 1;
                    next_pc = self.pc_operand(pc).wrapping_add(offset as u32);
                    cost = 3;
                } else {
                    cost = 1;
                }
            }
            B { imm11 } => {
                let offset = (((imm11 << 5) as i16) as i32) >> 4; // sign-extend ×2
                next_pc = self.pc_operand(pc).wrapping_add(offset as u32);
                cost = 3;
            }
            Bl { offset } => {
                self.regs[Reg::LR.index()] = pc.wrapping_add(4) | 1;
                next_pc = self.pc_operand(pc).wrapping_add(offset as u32);
                cost = 4;
            }
            Bkpt { imm8 } => {
                self.halted = Some(imm8);
            }
            Nop => {}
        }

        self.regs[Reg::PC.index()] = next_pc;
        self.cycles += cost;
        Ok(())
    }

    /// Register value as an operand: `pc` reads as current + 4, `sp`/`lr`
    /// read directly.
    fn read_operand(&self, r: Reg, pc: u32) -> u32 {
        if r == Reg::PC {
            self.pc_operand(pc)
        } else {
            self.regs[r.index()]
        }
    }

    fn set_nz(&mut self, r: u32) {
        self.apsr.n = (r >> 31) & 1 == 1;
        self.apsr.z = r == 0;
    }

    fn add_with_flags(&mut self, a: u32, b: u32, _sub: bool) -> u32 {
        let (r, carry) = a.overflowing_add(b);
        self.apsr.c = carry;
        self.apsr.v = ((a ^ r) & (b ^ r)) >> 31 == 1;
        self.set_nz(r);
        r
    }

    fn sub_with_flags(&mut self, a: u32, b: u32, _sub: bool) -> u32 {
        let r = a.wrapping_sub(b);
        self.apsr.c = a >= b; // ARM: C = NOT borrow
        self.apsr.v = ((a ^ b) & (a ^ r)) >> 31 == 1;
        self.set_nz(r);
        r
    }

    fn shift_left_with_carry(&mut self, v: u32, sh: u32) -> u32 {
        match sh {
            0 => v,
            1..=31 => {
                self.apsr.c = (v >> (32 - sh)) & 1 == 1;
                v << sh
            }
            32 => {
                self.apsr.c = v & 1 == 1;
                0
            }
            _ => {
                self.apsr.c = false;
                0
            }
        }
    }

    fn shift_right_with_carry(&mut self, v: u32, sh: u32, arithmetic: bool) -> u32 {
        match sh {
            0 => v,
            1..=31 => {
                self.apsr.c = (v >> (sh - 1)) & 1 == 1;
                if arithmetic {
                    ((v as i32) >> sh) as u32
                } else {
                    v >> sh
                }
            }
            _ => {
                if arithmetic {
                    self.apsr.c = (v >> 31) & 1 == 1;
                    ((v as i32) >> 31) as u32
                } else {
                    self.apsr.c = sh == 32 && (v >> 31) & 1 == 1;
                    0
                }
            }
        }
    }

    fn condition_passed(&self, cond: Condition) -> bool {
        use Condition::*;
        let Apsr { n, z, c, v } = self.apsr;
        match cond {
            Eq => z,
            Ne => !z,
            Cs => c,
            Cc => !c,
            Mi => n,
            Pl => !n,
            Vs => v,
            Vc => !v,
            Hi => c && !z,
            Ls => !c || z,
            Ge => n == v,
            Lt => n != v,
            Gt => !z && (n == v),
            Le => z || (n != v),
        }
    }
}

/// Fetches (counting each halfword) and decodes the instruction at `pc`.
fn fetch_decode(memory: &mut MemorySystem, pc: u32) -> Result<Instruction, ExecError> {
    let mem = |source| ExecError::Memory { pc, source };
    let first = memory.fetch_halfword(pc).map_err(mem)?;
    let next = if (first >> 11) == 0b11110 {
        Some(memory.fetch_halfword(pc + 2).map_err(mem)?)
    } else {
        None
    };
    Instruction::decode(first, next).map_err(|source| ExecError::Decode { pc, source })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str) -> Cpu {
        let image = assemble(src).expect("test program should assemble");
        let mut cpu = Cpu::new(&image);
        cpu.run(10_000_000).expect("test program should halt");
        cpu
    }

    #[test]
    fn arithmetic_and_flags() {
        let cpu = run("
            movs r0, #200
            adds r0, r0, #100   ; 300
            movs r1, #44
            subs r0, r0, r1     ; 256
            lsls r0, r0, #2     ; 1024
            lsrs r0, r0, #3     ; 128
            bkpt #0
        ");
        assert_eq!(cpu.reg(0), 128);
    }

    #[test]
    fn countdown_loop_cycles() {
        // 3 iterations: adds(1) + subs(1) + taken bne(3) = 5, last bne is
        // not taken (1): movs×2 (2) + 2×5 + (1+1+1) + bkpt(1) = 16 cycles.
        let cpu = run("
            movs r0, #0
            movs r1, #3
        loop:
            adds r0, r0, #2
            subs r1, r1, #1
            bne loop
            bkpt #0
        ");
        assert_eq!(cpu.reg(0), 6);
        assert_eq!(cpu.cycles(), 16);
    }

    #[test]
    fn memory_store_load() {
        let cpu = run("
            ldr r0, =0x20000000
            movs r1, #42
            str r1, [r0, #0]
            movs r2, #0
            ldr r2, [r0, #0]
            bkpt #0
        ");
        assert_eq!(cpu.reg(2), 42);
        let stats = cpu.memory().stats();
        assert_eq!(stats.data_writes, 1);
        assert_eq!(stats.data_reads, 1);
        assert_eq!(stats.program_reads, 1); // the literal pool load
    }

    #[test]
    fn function_call_and_return() {
        let cpu = run("
            movs r0, #5
            bl double
            bl double
            bkpt #0
        double:
            adds r0, r0, r0
            bx lr
        ");
        assert_eq!(cpu.reg(0), 20);
    }

    #[test]
    fn push_pop_round_trip() {
        let cpu = run("
            movs r0, #1
            movs r1, #2
            push {r0, r1}
            movs r0, #9
            movs r1, #9
            pop {r0, r1}
            bkpt #0
        ");
        assert_eq!(cpu.reg(0), 1);
        assert_eq!(cpu.reg(1), 2);
    }

    #[test]
    fn nested_call_with_stacked_lr() {
        let cpu = run("
            movs r0, #3
            bl outer
            bkpt #0
        outer:
            push {lr}
            bl inner
            adds r0, r0, #1
            pop {pc}
        inner:
            adds r0, r0, #10
            bx lr
        ");
        assert_eq!(cpu.reg(0), 14);
    }

    #[test]
    fn signed_comparisons() {
        let cpu = run("
            movs r0, #0
            subs r0, r0, #5     ; r0 = -5
            movs r1, #3
            cmp r0, r1
            blt is_less
            movs r2, #0
            b done
        is_less:
            movs r2, #1
        done:
            bkpt #0
        ");
        assert_eq!(cpu.reg(2), 1);
    }

    #[test]
    fn unsigned_comparisons() {
        let cpu = run("
            movs r0, #0
            mvns r0, r0        ; r0 = 0xFFFFFFFF
            movs r1, #1
            cmp r0, r1
            bhi is_higher
            movs r2, #0
            b done
        is_higher:
            movs r2, #1
        done:
            bkpt #0
        ");
        assert_eq!(cpu.reg(2), 1);
    }

    #[test]
    fn multiply() {
        let cpu = run("
            movs r0, #7
            movs r1, #6
            muls r0, r0, r1
            bkpt #0
        ");
        assert_eq!(cpu.reg(0), 42);
    }

    #[test]
    fn byte_and_halfword_memory() {
        let cpu = run("
            ldr r0, =0x20000100
            ldr r1, =0xABCD
            strh r1, [r0, #0]
            ldrb r2, [r0, #0]   ; 0xCD
            ldrb r3, [r0, #1]   ; 0xAB
            bkpt #0
        ");
        assert_eq!(cpu.reg(2), 0xCD);
        assert_eq!(cpu.reg(3), 0xAB);
    }

    #[test]
    fn adc_wide_add() {
        // 64-bit add: 0xFFFFFFFF + 1 with carry into the high word.
        let cpu = run("
            movs r0, #0
            mvns r0, r0        ; lo a = 0xFFFFFFFF
            movs r1, #0        ; hi a = 0
            movs r2, #1        ; lo b
            movs r3, #0        ; hi b
            adds r0, r0, r2
            adcs r1, r1, r3
            bkpt #0
        ");
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(1), 1);
    }

    #[test]
    fn ldm_stm_block_copy() {
        // Copy 3 words via stmia/ldmia with writeback; pointers advance.
        let cpu = run("
            ldr r0, =0x20000000
            movs r1, #11
            movs r2, #22
            movs r3, #33
            stmia r0!, {r1, r2, r3}
            ldr r4, =0x20000000
            ldmia r4!, {r5, r6, r7}
            bkpt #0
        ");
        assert_eq!(cpu.reg(5), 11);
        assert_eq!(cpu.reg(6), 22);
        assert_eq!(cpu.reg(7), 33);
        // Writeback: both pointers advanced by 12.
        assert_eq!(cpu.reg(0), 0x2000_000C);
        assert_eq!(cpu.reg(4), 0x2000_000C);
    }

    #[test]
    fn ldm_base_in_list_suppresses_writeback() {
        let cpu = run("
            ldr r0, =0x20000000
            movs r1, #77
            str r1, [r0, #0]
            ldmia r0!, {r0}
            bkpt #0
        ");
        // The loaded value wins over the writeback.
        assert_eq!(cpu.reg(0), 77);
    }

    #[test]
    fn ldm_stm_cycle_cost() {
        // stmia of N registers costs 1 + N.
        let base = run("ldr r0, =0x20000000\nbkpt #0").cycles();
        let with_stm = run("
            ldr r0, =0x20000000
            stmia r0!, {r1, r2, r3}
            bkpt #0
        ")
        .cycles();
        assert_eq!(with_stm - base, 4);
    }

    #[test]
    fn cycle_limit_errors() {
        let image = assemble("loop: b loop").expect("assembles");
        let mut cpu = Cpu::new(&image);
        let err = cpu.run(100).expect_err("must not halt");
        assert!(matches!(err, ExecError::CycleLimit { .. }));
    }

    #[test]
    fn guest_accesses_at_the_top_of_the_address_space_fault() {
        let oob = |pc, addr| ExecError::Memory {
            pc,
            source: MemoryError::OutOfBounds { addr },
        };
        let image = assemble("ldr r1, =0xFFFFFFFC\nldr r0, [r1, #0]\nbkpt #0").expect("assembles");
        let err = Cpu::new(&image).run(100).expect_err("load must fault");
        assert_eq!(err, oob(2, 0xFFFF_FFFC));

        let image = assemble("ldr r1, =0xFFFFFFFF\nbx r1").expect("assembles");
        let err = Cpu::new(&image).run(100).expect_err("fetch must fault");
        assert_eq!(err, oob(0xFFFF_FFFE, 0xFFFF_FFFE));
    }

    #[test]
    fn load_store_cost_two_cycles() {
        let base = run("bkpt #0").cycles(); // 1
        let with_ldr = run("
            ldr r0, =0x20000000
            ldr r1, [r0, #0]
            bkpt #0
        ")
        .cycles();
        // ldr-literal (2) + ldr (2) + bkpt(1) = 5 vs 1.
        assert_eq!(with_ldr - base, 4);
    }
}
