//! A two-pass ARMv6-M Thumb assembler.
//!
//! Supports the instruction subset of [`crate::Instruction`] plus the
//! conveniences needed to write benchmark kernels without a toolchain:
//!
//! - labels (`loop:`) and label operands for branches and `adr`
//! - `ldr rX, =imm32` / `ldr rX, =label` pseudo-instructions backed by an
//!   automatically emitted literal pool
//! - `.word <value|label>`, `.align`, and `.space <n>` data directives
//! - comments with `;`, `@`, or `//`
//! - register lists with ranges: `push {r0-r3, lr}`
//!
//! # Example
//!
//! ```
//! let image = ppatc_m0::asm::assemble(r#"
//!     ldr   r0, =0x20000000
//!     movs  r1, #7
//!     str   r1, [r0, #0]
//!     bkpt  #0
//! "#)?;
//! assert!(!image.is_empty());
//! # Ok::<(), ppatc_m0::asm::AsmError>(())
//! ```

use crate::inst::{Condition, DpOp, Instruction, Reg};
use crate::memory::PROG_SIZE;
use std::collections::HashMap;

/// Reach of the unconditional `b` T2 encoding: a signed imm11, counted in
/// halfwords.
const B_IMM11_MAX_HALFWORDS: i64 = 1023;
/// Largest `add rd, sp, #imm` offset: an imm8 scaled by 4, in bytes.
const ADD_RD_SP_MAX_BYTES: i64 = 1020;

/// Assembly error with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsmError {
    line: usize,
    message: String,
}

impl AsmError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    /// 1-based source line of the error.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// Assembles a source listing into a little-endian program image based at
/// address 0.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics, undefined labels, out-of-range operands, and the
/// first item (or literal-pool entry) that ends past [`PROG_SIZE`].
pub fn assemble(source: &str) -> Result<Vec<u8>, AsmError> {
    Assembler::new().assemble(source)
}

#[derive(Clone, Debug)]
enum Item {
    Inst { line: usize, parsed: ParsedInst },
    Word { line: usize, value: ValueRef },
    Space { bytes: u32 },
    Align,
}

/// An operand that may reference a label.
#[derive(Clone, Debug)]
enum ValueRef {
    Literal(i64),
    Symbol(String),
}

/// A parsed instruction before symbol/pool resolution.
#[derive(Clone, Debug)]
enum ParsedInst {
    /// Fully resolved at parse time.
    Ready(Instruction),
    /// Conditional or unconditional branch to a label.
    Branch {
        cond: Option<Condition>,
        target: String,
    },
    /// `bl label`.
    BranchLink { target: String },
    /// `ldr rX, =value` — literal-pool load.
    LdrPool { rt: Reg, value: ValueRef },
    /// `adr rd, label`.
    Adr { rd: Reg, target: String },
}

struct Assembler {
    items: Vec<Item>,
    labels: HashMap<String, u32>,
}

impl Assembler {
    fn new() -> Self {
        Self {
            items: Vec::new(),
            labels: HashMap::new(),
        }
    }

    fn assemble(mut self, source: &str) -> Result<Vec<u8>, AsmError> {
        let too_large = |line: usize| {
            AsmError::new(
                line,
                format!("program image exceeds program memory ({PROG_SIZE} bytes)"),
            )
        };
        // Pass 1: parse lines into items; item sizes are static, so label
        // addresses are assigned in the same pass. `addr` never passes
        // PROG_SIZE, so the subtraction below cannot wrap.
        let mut addr: u32 = 0;
        for (idx, raw) in source.lines().enumerate() {
            let line_no = idx + 1;
            let mut line = strip_comment(raw).trim();
            // Leading labels (possibly several).
            while let Some(colon) = find_label_colon(line) {
                let name = line[..colon].trim();
                if !is_ident(name) {
                    return Err(AsmError::new(line_no, format!("invalid label `{name}`")));
                }
                if self.labels.insert(name.to_string(), addr).is_some() {
                    return Err(AsmError::new(line_no, format!("duplicate label `{name}`")));
                }
                line = line[colon + 1..].trim();
            }
            if line.is_empty() {
                continue;
            }
            let item = parse_statement(line_no, line)?;
            let size = item_size(&item, addr);
            if size > PROG_SIZE - addr {
                return Err(too_large(line_no));
            }
            addr += size;
            self.items.push(item);
        }

        // Collect literal-pool values (deduplicated, in first-use order).
        let pool_base = (addr + 3) & !3;
        let mut pool: Vec<ValueRef> = Vec::new();
        for item in &self.items {
            if let Item::Inst {
                line,
                parsed: ParsedInst::LdrPool { value, .. },
            } = item
            {
                if !pool.iter().any(|v| value_key(v) == value_key(value)) {
                    pool.push(value.clone());
                    if pool_base as usize + 4 * pool.len() > PROG_SIZE as usize {
                        return Err(too_large(*line));
                    }
                }
            }
        }

        // Pass 2: encode.
        let mut out: Vec<u8> = Vec::with_capacity((pool_base + 4 * pool.len() as u32) as usize);
        // Every item emits exactly the bytes pass 1 counted for it.
        let mut addr: u32 = 0;
        for item in &self.items {
            let size = item_size(item, addr);
            match item {
                Item::Align => {
                    // An odd address pads one zero byte, then NOPs.
                    out.extend(std::iter::repeat_n(0u8, (size % 2) as usize));
                    let nop = Instruction::Nop.encode().halfwords()[0].to_le_bytes();
                    for _ in 0..size / 2 {
                        out.extend_from_slice(&nop);
                    }
                }
                Item::Space { bytes } => out.extend(std::iter::repeat_n(0u8, *bytes as usize)),
                Item::Word { line, value } => {
                    let v = self.resolve(*line, value)?;
                    out.extend_from_slice(&(v as u32).to_le_bytes());
                }
                Item::Inst { line, parsed } => {
                    let inst = self.finalize(*line, parsed, addr, pool_base, &pool)?;
                    for half in inst.encode().halfwords() {
                        out.extend_from_slice(&half.to_le_bytes());
                    }
                }
            }
            addr += size;
        }
        // Emit the literal pool (word-aligned; no padding when empty).
        while !pool.is_empty() && !out.len().is_multiple_of(4) {
            out.push(0);
        }
        for value in &pool {
            let v = self.resolve(0, value)?;
            out.extend_from_slice(&(v as u32).to_le_bytes());
        }
        Ok(out)
    }

    fn resolve(&self, line: usize, value: &ValueRef) -> Result<i64, AsmError> {
        match value {
            ValueRef::Literal(v) => Ok(*v),
            ValueRef::Symbol(name) => self
                .labels
                .get(name)
                .map(|&a| a as i64)
                .ok_or_else(|| AsmError::new(line, format!("undefined label `{name}`"))),
        }
    }

    fn finalize(
        &self,
        line: usize,
        parsed: &ParsedInst,
        addr: u32,
        pool_base: u32,
        pool: &[ValueRef],
    ) -> Result<Instruction, AsmError> {
        match parsed {
            ParsedInst::Ready(inst) => Ok(*inst),
            ParsedInst::Branch { cond, target } => {
                let dest = self.resolve(line, &ValueRef::Symbol(target.clone()))?;
                let offset = dest - (addr as i64 + 4);
                if offset % 2 != 0 {
                    return Err(AsmError::new(line, "branch target is not halfword aligned"));
                }
                match cond {
                    Some(c) => {
                        let units = offset / 2;
                        if !(-128..=127).contains(&units) {
                            return Err(AsmError::new(
                                line,
                                format!("conditional branch to `{target}` out of range ({offset} bytes)"),
                            ));
                        }
                        Ok(Instruction::BCond {
                            cond: *c,
                            imm8: (units as i8) as u8,
                        })
                    }
                    None => {
                        let units = offset / 2;
                        if !(-1024..=B_IMM11_MAX_HALFWORDS).contains(&units) {
                            return Err(AsmError::new(
                                line,
                                format!("branch to `{target}` out of range ({offset} bytes)"),
                            ));
                        }
                        Ok(Instruction::B {
                            imm11: (units as i16 as u16) & 0x7FF,
                        })
                    }
                }
            }
            ParsedInst::BranchLink { target } => {
                let dest = self.resolve(line, &ValueRef::Symbol(target.clone()))?;
                let offset = dest - (addr as i64 + 4);
                if !(-(1 << 24)..(1 << 24)).contains(&offset) {
                    return Err(AsmError::new(
                        line,
                        format!("bl to `{target}` out of range"),
                    ));
                }
                Ok(Instruction::Bl {
                    offset: offset as i32,
                })
            }
            ParsedInst::LdrPool { rt, value } => {
                let slot = pool
                    .iter()
                    .position(|v| value_key(v) == value_key(value))
                    .ok_or_else(|| AsmError::new(line, "literal value missing from pool"))?;
                let target = pool_base + 4 * slot as u32;
                let base = (addr + 4) & !3;
                if target < base || !(target - base).is_multiple_of(4) {
                    return Err(AsmError::new(line, "literal pool behind the load"));
                }
                let imm = (target - base) / 4;
                if imm > 255 {
                    return Err(AsmError::new(line, "literal pool out of ldr range"));
                }
                Ok(Instruction::LdrLit {
                    rt: *rt,
                    imm8: imm as u8,
                })
            }
            ParsedInst::Adr { rd, target } => {
                let dest = self.resolve(line, &ValueRef::Symbol(target.clone()))?;
                let base = ((addr + 4) & !3) as i64;
                let offset = dest - base;
                if offset < 0 || offset % 4 != 0 || offset / 4 > 255 {
                    return Err(AsmError::new(
                        line,
                        format!("adr to `{target}` out of range"),
                    ));
                }
                Ok(Instruction::Adr {
                    rd: *rd,
                    imm8: (offset / 4) as u8,
                })
            }
        }
    }
}

fn item_size(item: &Item, addr: u32) -> u32 {
    match item {
        Item::Align => (4 - addr % 4) % 4,
        Item::Space { bytes } => *bytes,
        Item::Word { .. } => 4,
        Item::Inst { parsed, .. } => match parsed {
            ParsedInst::Ready(i) => i.size(),
            ParsedInst::BranchLink { .. } => 4,
            _ => 2,
        },
    }
}

fn value_key(v: &ValueRef) -> String {
    match v {
        ValueRef::Literal(n) => format!("#{n}"),
        ValueRef::Symbol(s) => format!("@{s}"),
    }
}

fn strip_comment(line: &str) -> &str {
    let mut end = line.len();
    for (i, ch) in line.char_indices() {
        if ch == ';' || ch == '@' {
            end = i;
            break;
        }
        if ch == '/' && line[i..].starts_with("//") {
            end = i;
            break;
        }
    }
    &line[..end]
}

/// Finds the colon terminating a leading label, if the line starts with one.
fn find_label_colon(line: &str) -> Option<usize> {
    let mut chars = line.char_indices();
    match chars.next() {
        Some((_, c)) if c.is_ascii_alphabetic() || c == '_' || c == '.' => {}
        _ => return None,
    }
    for (i, c) in chars {
        if c == ':' {
            return Some(i);
        }
        if !(c.is_ascii_alphanumeric() || c == '_' || c == '.') {
            return None;
        }
    }
    None
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == '.')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

/// Splits operands on top-level commas (not inside `[...]` or `{...}`).
fn split_operands(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '[' | '{' => {
                depth += 1;
                cur.push(c);
            }
            ']' | '}' => {
                depth -= 1;
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_string());
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out
}

fn parse_reg(s: &str) -> Option<Reg> {
    let t = s.trim().to_ascii_lowercase();
    match t.as_str() {
        "sp" => Some(Reg::SP),
        "lr" => Some(Reg::LR),
        "pc" => Some(Reg::PC),
        _ => {
            let num = t.strip_prefix('r')?;
            let n: u8 = num.parse().ok()?;
            (n < 16).then_some(Reg(n))
        }
    }
}

fn parse_int(s: &str) -> Option<i64> {
    let t = s.trim();
    let (neg, t) = match t.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, t),
    };
    let v = if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        i64::from_str_radix(&hex.replace('_', ""), 16).ok()?
    } else if let Some(bin) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        i64::from_str_radix(&bin.replace('_', ""), 2).ok()?
    } else {
        t.replace('_', "").parse().ok()?
    };
    Some(if neg { -v } else { v })
}

fn parse_imm(s: &str) -> Option<i64> {
    parse_int(s.trim().strip_prefix('#')?)
}

fn parse_value_ref(s: &str) -> ValueRef {
    let t = s.trim();
    match parse_int(t.strip_prefix('#').unwrap_or(t)) {
        Some(v) => ValueRef::Literal(v),
        None => ValueRef::Symbol(t.to_string()),
    }
}

/// Parses a register list like `{r0, r2-r4, lr}` → (low-reg bitmask, lr/pc
/// flag) where the flag register allowed is named by `extra`.
fn parse_reglist(s: &str, extra: Reg) -> Option<(u8, bool)> {
    let inner = s.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut mask = 0u8;
    let mut flag = false;
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((a, b)) = part.split_once('-') {
            let ra = parse_reg(a)?;
            let rb = parse_reg(b)?;
            if !ra.is_low() || !rb.is_low() || ra.0 > rb.0 {
                return None;
            }
            for r in ra.0..=rb.0 {
                mask |= 1 << r;
            }
        } else {
            let r = parse_reg(part)?;
            if r == extra {
                flag = true;
            } else if r.is_low() {
                mask |= 1 << r.0;
            } else {
                return None;
            }
        }
    }
    Some((mask, flag))
}

/// Parsed memory operand: `[rn]`, `[rn, #imm]`, `[rn, rm]`.
enum MemOperand {
    Imm(Reg, i64),
    Reg(Reg, Reg),
}

fn parse_mem(s: &str) -> Option<MemOperand> {
    let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    match parts.as_slice() {
        [rn] => Some(MemOperand::Imm(parse_reg(rn)?, 0)),
        [rn, off] => {
            let rn = parse_reg(rn)?;
            if let Some(imm) = parse_imm(off) {
                Some(MemOperand::Imm(rn, imm))
            } else {
                Some(MemOperand::Reg(rn, parse_reg(off)?))
            }
        }
        _ => None,
    }
}

fn parse_statement(line: usize, text: &str) -> Result<Item, AsmError> {
    let err = |msg: String| AsmError::new(line, msg);
    let (mnemonic, rest) = match text.split_once(char::is_whitespace) {
        Some((m, r)) => (m.to_ascii_lowercase(), r.trim()),
        None => (text.to_ascii_lowercase(), ""),
    };

    // Directives.
    match mnemonic.as_str() {
        ".word" => {
            return Ok(Item::Word {
                line,
                value: parse_value_ref(rest),
            });
        }
        ".align" => return Ok(Item::Align),
        ".space" => {
            let bytes = parse_int(rest)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| err(format!("invalid .space size `{rest}`")))?;
            return Ok(Item::Space { bytes });
        }
        _ => {}
    }

    let ops = split_operands(rest);
    let inst = parse_instruction(line, &mnemonic, &ops)?;
    Ok(Item::Inst { line, parsed: inst })
}

#[allow(clippy::too_many_lines)]
fn parse_instruction(line: usize, mnemonic: &str, ops: &[String]) -> Result<ParsedInst, AsmError> {
    use Instruction as I;
    let err = |msg: String| AsmError::new(line, msg);
    let bad_operands = || {
        err(format!(
            "invalid operands for `{mnemonic}`: {}",
            ops.join(", ")
        ))
    };
    let reg = |i: usize| -> Result<Reg, AsmError> {
        ops.get(i).and_then(|s| parse_reg(s)).ok_or_else(|| {
            err(format!(
                "operand {} of `{mnemonic}` must be a register",
                i + 1
            ))
        })
    };
    let low = |i: usize| -> Result<Reg, AsmError> {
        let r = reg(i)?;
        if r.is_low() {
            Ok(r)
        } else {
            Err(err(format!(
                "operand {} of `{mnemonic}` must be r0-r7",
                i + 1
            )))
        }
    };
    let imm = |i: usize| -> Result<i64, AsmError> {
        ops.get(i)
            .and_then(|s| parse_imm(s))
            .ok_or_else(|| err(format!("operand {} of `{mnemonic}` must be #imm", i + 1)))
    };
    let ready = |i: Instruction| Ok(ParsedInst::Ready(i));

    // Condition-suffixed branches: beq, bne, ...
    if let Some(cond_str) = mnemonic.strip_prefix('b') {
        let cond = match cond_str {
            "eq" => Some(Condition::Eq),
            "ne" => Some(Condition::Ne),
            "cs" | "hs" => Some(Condition::Cs),
            "cc" | "lo" => Some(Condition::Cc),
            "mi" => Some(Condition::Mi),
            "pl" => Some(Condition::Pl),
            "vs" => Some(Condition::Vs),
            "vc" => Some(Condition::Vc),
            "hi" => Some(Condition::Hi),
            "ls" => Some(Condition::Ls),
            "ge" => Some(Condition::Ge),
            "lt" => Some(Condition::Lt),
            "gt" => Some(Condition::Gt),
            "le" => Some(Condition::Le),
            _ => None,
        };
        if let Some(cond) = cond {
            let target = ops
                .first()
                .ok_or_else(|| err("missing branch target".into()))?;
            return Ok(ParsedInst::Branch {
                cond: Some(cond),
                target: target.clone(),
            });
        }
    }

    match mnemonic {
        "nop" => ready(I::Nop),
        "bkpt" => {
            let v = if ops.is_empty() { 0 } else { imm(0)? };
            ready(I::Bkpt { imm8: v as u8 })
        }
        "b" => {
            let target = ops
                .first()
                .ok_or_else(|| err("missing branch target".into()))?;
            Ok(ParsedInst::Branch {
                cond: None,
                target: target.clone(),
            })
        }
        "bl" => {
            let target = ops
                .first()
                .ok_or_else(|| err("missing call target".into()))?;
            Ok(ParsedInst::BranchLink {
                target: target.clone(),
            })
        }
        "bx" => ready(I::Bx { rm: reg(0)? }),
        "blx" => ready(I::Blx { rm: reg(0)? }),
        "movs" => {
            let rd = low(0)?;
            if let Some(v) = ops.get(1).and_then(|s| parse_imm(s)) {
                if !(0..=255).contains(&v) {
                    return Err(err(format!("movs immediate {v} out of range 0-255")));
                }
                ready(I::MovImm { rd, imm8: v as u8 })
            } else {
                let rm = low(1)?;
                ready(I::LslImm { rd, rm, imm5: 0 })
            }
        }
        "mov" => ready(I::MovHi {
            rd: reg(0)?,
            rm: reg(1)?,
        }),
        "adds" | "subs" => {
            let sub = mnemonic == "subs";
            let rd = low(0)?;
            match ops.len() {
                2 => {
                    // adds rdn, #imm8 | adds rd, rm → 3-operand alias.
                    if let Some(v) = ops.get(1).and_then(|s| parse_imm(s)) {
                        if !(0..=255).contains(&v) {
                            return Err(err(format!("immediate {v} out of range 0-255")));
                        }
                        if sub {
                            ready(I::SubImm8 {
                                rdn: rd,
                                imm8: v as u8,
                            })
                        } else {
                            ready(I::AddImm8 {
                                rdn: rd,
                                imm8: v as u8,
                            })
                        }
                    } else {
                        let rm = low(1)?;
                        if sub {
                            ready(I::SubReg { rd, rn: rd, rm })
                        } else {
                            ready(I::AddReg { rd, rn: rd, rm })
                        }
                    }
                }
                3 => {
                    let rn = low(1)?;
                    if let Some(v) = ops.get(2).and_then(|s| parse_imm(s)) {
                        if (0..=7).contains(&v) {
                            if sub {
                                ready(I::SubImm3 {
                                    rd,
                                    rn,
                                    imm3: v as u8,
                                })
                            } else {
                                ready(I::AddImm3 {
                                    rd,
                                    rn,
                                    imm3: v as u8,
                                })
                            }
                        } else if rd == rn && (0..=255).contains(&v) {
                            if sub {
                                ready(I::SubImm8 {
                                    rdn: rd,
                                    imm8: v as u8,
                                })
                            } else {
                                ready(I::AddImm8 {
                                    rdn: rd,
                                    imm8: v as u8,
                                })
                            }
                        } else {
                            Err(err(format!("immediate {v} not encodable")))
                        }
                    } else {
                        let rm = low(2)?;
                        if sub {
                            ready(I::SubReg { rd, rn, rm })
                        } else {
                            ready(I::AddReg { rd, rn, rm })
                        }
                    }
                }
                _ => Err(bad_operands()),
            }
        }
        "add" => {
            // add sp, #imm | add rd, sp, #imm | add rd, rm (high registers)
            let r0 = reg(0)?;
            if r0 == Reg::SP && ops.len() == 2 {
                let v = imm(1)?;
                if v % 4 != 0 || !(0..=508).contains(&v) {
                    return Err(err(format!("add sp immediate {v} must be 0-508, ×4")));
                }
                ready(I::AddSp {
                    imm7: (v / 4) as u8,
                })
            } else if ops.len() == 3 && reg(1)? == Reg::SP {
                let v = imm(2)?;
                if v % 4 != 0 || !(0..=ADD_RD_SP_MAX_BYTES).contains(&v) {
                    return Err(err(format!("add rd, sp immediate {v} must be 0-1020, ×4")));
                }
                ready(I::AddRdSp {
                    rd: low(0)?,
                    imm8: (v / 4) as u8,
                })
            } else if ops.len() == 2 {
                ready(I::AddHi {
                    rdn: r0,
                    rm: reg(1)?,
                })
            } else {
                Err(bad_operands())
            }
        }
        "sub" => {
            if reg(0)? == Reg::SP {
                let v = imm(1)?;
                if v % 4 != 0 || !(0..=508).contains(&v) {
                    return Err(err(format!("sub sp immediate {v} must be 0-508, ×4")));
                }
                ready(I::SubSp {
                    imm7: (v / 4) as u8,
                })
            } else {
                Err(bad_operands())
            }
        }
        "cmp" => {
            let rn = reg(0)?;
            if let Some(v) = ops.get(1).and_then(|s| parse_imm(s)) {
                if !rn.is_low() || !(0..=255).contains(&v) {
                    return Err(err("cmp immediate needs r0-r7 and 0-255".into()));
                }
                ready(I::CmpImm { rn, imm8: v as u8 })
            } else {
                let rm = reg(1)?;
                if rn.is_low() && rm.is_low() {
                    ready(I::DataProc {
                        op: DpOp::Cmp,
                        rdn: rn,
                        rm,
                    })
                } else {
                    ready(I::CmpHi { rn, rm })
                }
            }
        }
        "ands" | "eors" | "orrs" | "bics" | "adcs" | "sbcs" | "rors" => {
            let op = match mnemonic {
                "ands" => DpOp::And,
                "eors" => DpOp::Eor,
                "orrs" => DpOp::Orr,
                "bics" => DpOp::Bic,
                "adcs" => DpOp::Adc,
                "sbcs" => DpOp::Sbc,
                _ => DpOp::Ror,
            };
            // Accept both 2- and 3-operand (rd must equal rn) forms.
            let rdn = low(0)?;
            let rm = if ops.len() == 3 {
                if low(1)? != rdn {
                    return Err(err(format!("`{mnemonic}` requires rd == rn")));
                }
                low(2)?
            } else {
                low(1)?
            };
            ready(I::DataProc { op, rdn, rm })
        }
        "tst" => ready(I::DataProc {
            op: DpOp::Tst,
            rdn: low(0)?,
            rm: low(1)?,
        }),
        "cmn" => ready(I::DataProc {
            op: DpOp::Cmn,
            rdn: low(0)?,
            rm: low(1)?,
        }),
        "mvns" => ready(I::DataProc {
            op: DpOp::Mvn,
            rdn: low(0)?,
            rm: low(1)?,
        }),
        "rsbs" | "negs" => {
            // rsbs rd, rn, #0  |  negs rd, rn
            let rd = low(0)?;
            let rn = low(1)?;
            if mnemonic == "rsbs" && ops.len() == 3 && imm(2)? != 0 {
                return Err(err("rsbs only supports #0".into()));
            }
            ready(I::DataProc {
                op: DpOp::Rsb,
                rdn: rd,
                rm: rn,
            })
        }
        "muls" => {
            // muls rd, rn, rm with rd == rm (UAL) or 2-operand form.
            let rd = low(0)?;
            let rn = low(1)?;
            let rm = if ops.len() == 3 { low(2)? } else { rn };
            if ops.len() == 3 && rm != rd {
                // muls rd, rn, rd is the canonical encodable form; accept
                // rd, rn, rm by swapping when possible.
                if rn == rd {
                    return ready(I::DataProc {
                        op: DpOp::Mul,
                        rdn: rd,
                        rm,
                    });
                }
                return Err(err("muls requires rd to equal one source".into()));
            }
            ready(I::DataProc {
                op: DpOp::Mul,
                rdn: rd,
                rm: rn,
            })
        }
        "lsls" | "lsrs" | "asrs" => {
            let rd = low(0)?;
            let rm = low(1)?;
            if let Some(v) = ops.get(2).and_then(|s| parse_imm(s)) {
                if !(0..=31).contains(&v) {
                    return Err(err(format!("shift amount {v} out of range")));
                }
                match mnemonic {
                    "lsls" => ready(I::LslImm {
                        rd,
                        rm,
                        imm5: v as u8,
                    }),
                    "lsrs" => ready(I::LsrImm {
                        rd,
                        rm,
                        imm5: v as u8,
                    }),
                    _ => ready(I::AsrImm {
                        rd,
                        rm,
                        imm5: v as u8,
                    }),
                }
            } else {
                // Register shift: rd must equal first source.
                let op = match mnemonic {
                    "lsls" => DpOp::Lsl,
                    "lsrs" => DpOp::Lsr,
                    _ => DpOp::Asr,
                };
                let rs = if ops.len() == 3 {
                    if rm != rd {
                        return Err(err(format!("`{mnemonic}` register form requires rd == rn")));
                    }
                    low(2)?
                } else {
                    rm
                };
                ready(I::DataProc {
                    op,
                    rdn: rd,
                    rm: rs,
                })
            }
        }
        "uxtb" => ready(I::Uxtb {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "uxth" => ready(I::Uxth {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "sxtb" => ready(I::Sxtb {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "sxth" => ready(I::Sxth {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "rev" => ready(I::Rev {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "rev16" => ready(I::Rev16 {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "revsh" => ready(I::Revsh {
            rd: low(0)?,
            rm: low(1)?,
        }),
        "adr" => {
            let rd = low(0)?;
            let target = ops.get(1).ok_or_else(|| err("missing adr target".into()))?;
            Ok(ParsedInst::Adr {
                rd,
                target: target.clone(),
            })
        }
        "push" => {
            let (mask, lr) = ops
                .first()
                .and_then(|s| parse_reglist(s, Reg::LR))
                .ok_or_else(|| err("invalid push register list".into()))?;
            ready(I::Push {
                registers: mask,
                lr,
            })
        }
        "pop" => {
            let (mask, pc) = ops
                .first()
                .and_then(|s| parse_reglist(s, Reg::PC))
                .ok_or_else(|| err("invalid pop register list".into()))?;
            ready(I::Pop {
                registers: mask,
                pc,
            })
        }
        "ldmia" | "ldm" | "stmia" | "stm" => {
            let base = ops
                .first()
                .and_then(|s| parse_reg(s.trim().strip_suffix('!').unwrap_or(s)))
                .filter(|r| r.is_low())
                .ok_or_else(|| err(format!("`{mnemonic}` needs a low base register")))?;
            // Reg(16) is an unmatchable sentinel: only r0-r7 are accepted.
            let (mask, _) = ops
                .get(1)
                .and_then(|s| parse_reglist(s, Reg(16)))
                .ok_or_else(|| err(format!("invalid `{mnemonic}` register list")))?;
            if mask == 0 {
                return Err(err(format!("`{mnemonic}` register list is empty")));
            }
            if mnemonic.starts_with("ld") {
                ready(I::Ldmia {
                    rn: base,
                    registers: mask,
                })
            } else {
                ready(I::Stmia {
                    rn: base,
                    registers: mask,
                })
            }
        }
        "ldr" | "str" | "ldrb" | "strb" | "ldrh" | "strh" | "ldrsb" | "ldrsh" => {
            let rt = low(0)?;
            let second = ops.get(1).ok_or_else(&bad_operands)?;
            // ldr rX, =value pseudo-instruction.
            if mnemonic == "ldr" {
                if let Some(val) = second.strip_prefix('=') {
                    return Ok(ParsedInst::LdrPool {
                        rt,
                        value: parse_value_ref(val),
                    });
                }
            }
            let mem = parse_mem(second).ok_or_else(&bad_operands)?;
            match (mnemonic, mem) {
                ("ldr", MemOperand::Imm(rn, v)) if rn == Reg::SP => {
                    check_scaled(line, v, 4, 255)?;
                    ready(I::LdrSp {
                        rt,
                        imm8: (v / 4) as u8,
                    })
                }
                ("str", MemOperand::Imm(rn, v)) if rn == Reg::SP => {
                    check_scaled(line, v, 4, 255)?;
                    ready(I::StrSp {
                        rt,
                        imm8: (v / 4) as u8,
                    })
                }
                ("ldr", MemOperand::Imm(rn, v)) => {
                    check_scaled(line, v, 4, 31)?;
                    ready(I::LdrImm {
                        rt,
                        rn: require_low(line, rn)?,
                        imm5: (v / 4) as u8,
                    })
                }
                ("str", MemOperand::Imm(rn, v)) => {
                    check_scaled(line, v, 4, 31)?;
                    ready(I::StrImm {
                        rt,
                        rn: require_low(line, rn)?,
                        imm5: (v / 4) as u8,
                    })
                }
                ("ldrb", MemOperand::Imm(rn, v)) => {
                    check_scaled(line, v, 1, 31)?;
                    ready(I::LdrbImm {
                        rt,
                        rn: require_low(line, rn)?,
                        imm5: v as u8,
                    })
                }
                ("strb", MemOperand::Imm(rn, v)) => {
                    check_scaled(line, v, 1, 31)?;
                    ready(I::StrbImm {
                        rt,
                        rn: require_low(line, rn)?,
                        imm5: v as u8,
                    })
                }
                ("ldrh", MemOperand::Imm(rn, v)) => {
                    check_scaled(line, v, 2, 31)?;
                    ready(I::LdrhImm {
                        rt,
                        rn: require_low(line, rn)?,
                        imm5: (v / 2) as u8,
                    })
                }
                ("strh", MemOperand::Imm(rn, v)) => {
                    check_scaled(line, v, 2, 31)?;
                    ready(I::StrhImm {
                        rt,
                        rn: require_low(line, rn)?,
                        imm5: (v / 2) as u8,
                    })
                }
                ("ldr", MemOperand::Reg(rn, rm)) => ready(I::LdrReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("str", MemOperand::Reg(rn, rm)) => ready(I::StrReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("ldrb", MemOperand::Reg(rn, rm)) => ready(I::LdrbReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("strb", MemOperand::Reg(rn, rm)) => ready(I::StrbReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("ldrh", MemOperand::Reg(rn, rm)) => ready(I::LdrhReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("strh", MemOperand::Reg(rn, rm)) => ready(I::StrhReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("ldrsb", MemOperand::Reg(rn, rm)) => ready(I::LdrsbReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                ("ldrsh", MemOperand::Reg(rn, rm)) => ready(I::LdrshReg {
                    rt,
                    rn: require_low(line, rn)?,
                    rm: require_low(line, rm)?,
                }),
                _ => Err(bad_operands()),
            }
        }
        _ => Err(err(format!("unknown mnemonic `{mnemonic}`"))),
    }
}

fn require_low(line: usize, r: Reg) -> Result<Reg, AsmError> {
    if r.is_low() {
        Ok(r)
    } else {
        Err(AsmError::new(
            line,
            format!("register {r} must be r0-r7 here"),
        ))
    }
}

fn check_scaled(line: usize, v: i64, scale: i64, max_units: i64) -> Result<(), AsmError> {
    if v < 0 || v % scale != 0 || v / scale > max_units {
        return Err(AsmError::new(
            line,
            format!(
                "offset {v} must be a multiple of {scale} in 0..={}",
                max_units * scale
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_comment_lines() {
        let img = assemble("\n; only a comment\n  // another\n").expect("assembles");
        assert!(img.is_empty());
    }

    #[test]
    fn simple_program_bytes() {
        let img = assemble("movs r0, #1\nbkpt #0").expect("assembles");
        assert_eq!(img, vec![0x01, 0x20, 0x00, 0xBE]);
    }

    #[test]
    fn labels_and_branches() {
        let img = assemble(
            "
            movs r0, #0
        loop:
            adds r0, r0, #1
            cmp r0, #3
            bne loop
            bkpt #0
        ",
        )
        .expect("assembles");
        // bne back from 0x6 to 0x2: offset = 2 - (6+4) = -8 → imm8 = -4.
        let bne = u16::from_le_bytes([img[6], img[7]]);
        assert_eq!(bne, 0xD100 | (0xFC & 0xFF));
    }

    #[test]
    fn literal_pool_is_deduplicated() {
        let img = assemble(
            "
            ldr r0, =0x20000000
            ldr r1, =0x20000000
            ldr r2, =0x12345678
            bkpt #0
        ",
        )
        .expect("assembles");
        // 4 halfwords of code (8 bytes) + 2 pool words = 16 bytes.
        assert_eq!(img.len(), 16);
        assert_eq!(&img[8..12], &0x2000_0000u32.to_le_bytes());
        assert_eq!(&img[12..16], &0x1234_5678u32.to_le_bytes());
    }

    #[test]
    fn word_directive_and_label_value() {
        let img = assemble(
            "
            b start
        table:
            .word 0xCAFEBABE
            .word table
        start:
            bkpt #0
        ",
        )
        .expect("assembles");
        // b(2) + align? table at offset 2? .word is not auto-aligned; b is
        // 2 bytes so table = 2.
        assert_eq!(&img[2..6], &0xCAFE_BABEu32.to_le_bytes());
        assert_eq!(&img[6..10], &2u32.to_le_bytes());
    }

    #[test]
    fn reglist_ranges() {
        let img = assemble("push {r0-r2, r4, lr}\nbkpt #0").expect("assembles");
        let half = u16::from_le_bytes([img[0], img[1]]);
        assert_eq!(half, 0xB400 | 0x100 | 0b0001_0111);
    }

    #[test]
    fn errors_name_their_line() {
        let e = assemble("movs r0, #1\nfrobnicate r1\n").expect_err("should fail");
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("frobnicate"));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let e = assemble("b nowhere").expect_err("should fail");
        assert!(e.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let e = assemble("a:\na:\n  bkpt #0").expect_err("should fail");
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn out_of_range_immediate_is_an_error() {
        let e = assemble("movs r0, #300").expect_err("should fail");
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn branch_out_of_range_is_an_error() {
        let mut src = String::from("beq far\n");
        for _ in 0..300 {
            src.push_str("nop\n");
        }
        src.push_str("far: bkpt #0\n");
        let e = assemble(&src).expect_err("should fail");
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn image_past_program_memory_is_an_error() {
        let e = assemble("bkpt #0\n.space 70000").expect_err("should fail");
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains("program memory"));
        // The literal pool counts too: here the items fit, but the pool
        // entry of the `ldr` on line 2 would end 4 bytes past the limit.
        let src = format!(".space {}\nldr r0, =0x12345678\nbkpt #0", PROG_SIZE - 6);
        let e = assemble(&src).expect_err("should fail");
        assert_eq!(e.line(), 2);
    }

    #[test]
    fn align_at_an_odd_address_pads_to_the_next_word() {
        let img = assemble("bkpt #0\n.space 1\n.align\nbkpt #0").expect("assembles");
        assert_eq!(img, vec![0x00, 0xBE, 0x00, 0x00, 0x00, 0xBE]);
    }

    #[test]
    fn space_past_u32_is_an_error() {
        let e = assemble("bkpt #0\n.space 4294967296").expect_err("should fail");
        assert_eq!(e.line(), 2);
        assert!(e.to_string().contains(".space"));
    }

    #[test]
    fn image_of_exactly_program_memory_assembles_and_runs() {
        let img = assemble(&format!("bkpt #0\n.space {}", PROG_SIZE - 2)).expect("assembles");
        assert_eq!(img.len(), PROG_SIZE as usize);
        let summary = crate::Cpu::new(&img).run(10).expect("halts");
        assert_eq!(summary.halt_code, 0);
    }

    #[test]
    fn misaligned_sp_offset_is_an_error() {
        let e = assemble("ldr r0, [sp, #3]").expect_err("should fail");
        assert!(e.to_string().contains("multiple of 4"));
    }
}
