//! Extended kernel set: 64-bit arithmetic, bit packing, fixed-point
//! physics, and a table-driven state machine — covering the Embench
//! categories (`aha-mont64`, `huffbench`, `nbody`, `nsichneu`) that the
//! base six kernels do not.

use crate::Workload;

/// Knuth's 32-bit multiplicative-hash constant (⌊2³²/φ⌋); the asm init
/// loops and their golden models below must agree on it.
const KNUTH_MUL: u32 = 2_654_435_761;
/// Multiplier of the second mont64 input stream (`y[i] = i*40503 + 77`).
const MONT64_Y_MUL: u32 = 40_503;
/// Numerical Recipes `ranqd1` LCG: multiplier, increment, seed.
const LCG_MUL: u32 = 1_664_525;
const LCG_INC: u32 = 1_013_904_223;
const LCG_SEED: u32 = 12_345;
/// Steps the fsm kernel and its golden model both execute.
const FSM_STEPS: u32 = 2000;

/// 64-bit multiply-accumulate (`aha-mont64` analogue): the Cortex-M0 has no
/// `umull`, so 64-bit products are built from four 16×16 partial products
/// and carried with `adcs` — exactly the code shape the Embench Montgomery
/// kernel stresses.
pub fn mont64() -> Workload {
    Workload::new(
        "mont64",
        "64-bit multiply-accumulate from 16x16 partial products",
        40,
        mont64_source,
        mont64_golden,
    )
}

fn mont64_source(reps: u32) -> String {
    format!(
        "
        ; ---- init: x[i] = i*2654435761, y[i] = i*40503+77 over 64 words
            ldr  r0, =0x20000000      ; x
            ldr  r1, =0x20000100      ; y
            movs r3, #0
        init_loop:
            ldr  r4, =2654435761
            muls r4, r4, r3
            lsls r6, r3, #2
            str  r4, [r0, r6]
            ldr  r4, =40503
            muls r4, r4, r3
            adds r4, r4, #77
            str  r4, [r1, r6]
            adds r3, r3, #1
            cmp  r3, #64
            blt  init_loop
            movs r7, #{reps}
        rep_loop:
            push {{r7}}
            movs r6, #0               ; acc hi
            movs r7, #0               ; acc lo
            movs r5, #0               ; i
        mac_loop:
            push {{r5, r6, r7}}
            ldr  r1, =0x20000000
            lsls r2, r5, #2
            ldr  r0, [r1, r2]         ; a
            ldr  r1, =0x20000100
            ldr  r1, [r1, r2]         ; b
            bl   mul64                ; (r1:hi, r0:lo) = a*b
            movs r2, r0
            movs r3, r1
            pop  {{r5, r6, r7}}
            adds r7, r7, r2           ; lo += p_lo
            adcs r6, r6, r3           ; hi += p_hi + carry
            adds r5, r5, #1
            cmp  r5, #64
            blt  mac_loop
            movs r4, r7
            eors r4, r4, r6           ; fold acc64 into 32 bits
            pop  {{r7}}
            subs r7, r7, #1
            bne  rep_loop
            movs r0, r4
            bkpt #0

        ; ---- mul64: full 64-bit product r0*r1 -> (r1:hi, r0:lo) ----
        mul64:
            push {{r4, r5, r6, r7}}
            uxth r2, r0               ; a_lo
            lsrs r3, r0, #16          ; a_hi
            uxth r4, r1               ; b_lo
            lsrs r5, r1, #16          ; b_hi
            movs r6, r2
            muls r6, r6, r4           ; ll
            movs r7, r3
            muls r7, r7, r5           ; hh
            movs r0, r2
            muls r0, r0, r5           ; lh
            movs r1, r3
            muls r1, r1, r4           ; hl
            movs r2, #0
            adds r0, r0, r1           ; mid = lh + hl
            adcs r2, r2, r2           ; r2 = mid carry (0/1)
            lsls r2, r2, #16          ; carry worth 2^48 -> hi += carry<<16
            lsls r1, r0, #16          ; mid_lo<<16
            adds r6, r6, r1           ; lo = ll + (mid<<16)
            movs r1, #0
            adcs r1, r1, r1           ; lo carry
            lsrs r0, r0, #16          ; mid_hi
            adds r7, r7, r0
            adds r7, r7, r2
            adds r7, r7, r1
            movs r0, r6               ; lo
            movs r1, r7               ; hi
            pop  {{r4, r5, r6, r7}}
            bx   lr
        "
    )
}

fn mont64_golden() -> u32 {
    let mut acc = 0u64;
    for i in 0..64u32 {
        let a = i.wrapping_mul(KNUTH_MUL);
        let b = i.wrapping_mul(MONT64_Y_MUL).wrapping_add(77);
        acc = acc.wrapping_add(u64::from(a) * u64::from(b));
    }
    (acc as u32) ^ ((acc >> 32) as u32)
}

/// Variable-length bit packing (`huffbench` analogue): 4-bit length field
/// plus 1–15 payload bits per symbol, packed LSB-first into 32-bit words.
pub fn huffman() -> Workload {
    Workload::new(
        "huffman",
        "variable-length bit packing of 256 symbols",
        60,
        huffman_source,
        huffman_golden,
    )
}

fn huffman_source(reps: u32) -> String {
    format!(
        "
            movs r7, #{reps}
        rep_loop:
            ldr  r0, =0x20000400      ; output pointer
            movs r1, #0               ; bit buffer
            movs r2, #0               ; bits used
            movs r3, #0               ; i
        sym_loop:
            ; s = ((7*i + 3) & 15) | 1          -> r4
            movs r4, #7
            muls r4, r4, r3
            adds r4, r4, #3
            movs r5, #15
            ands r4, r4, r5
            movs r5, #1
            orrs r4, r4, r5
            ; p = (11*i + 5) & ((1 << s) - 1)   -> r5
            movs r5, #11
            muls r5, r5, r3
            adds r5, r5, #5
            movs r6, #1
            lsls r6, r4               ; 1 << s (register shift)
            subs r6, r6, #1
            ands r5, r5, r6
            ; flush the buffer if fewer than 19 bits remain
            cmp  r2, #13
            ble  no_flush
            str  r1, [r0, #0]
            adds r0, r0, #4
            movs r1, #0
            movs r2, #0
        no_flush:
            ; buffer |= s << bits; bits += 4
            movs r6, r4
            lsls r6, r2
            orrs r1, r1, r6
            adds r2, r2, #4
            ; buffer |= p << bits; bits += s
            movs r6, r5
            lsls r6, r2
            orrs r1, r1, r6
            adds r2, r2, r4
            adds r3, r3, #1
            cmp  r3, #255
            bls  sym_loop
            ; store the final partial word
            str  r1, [r0, #0]
            adds r0, r0, #4
            ; checksum: xor of all packed words + bytes emitted
            ldr  r2, =0x20000400
            movs r1, #0
        scan_loop:
            ldr  r3, [r2, #0]
            eors r1, r1, r3
            adds r2, r2, #4
            cmp  r2, r0
            blt  scan_loop
            ldr  r3, =0x20000400
            subs r0, r0, r3
            adds r4, r0, r1           ; keep checksum across reps in r4
            subs r7, r7, #1
            bne  rep_loop
            movs r0, r4
            bkpt #0
        "
    )
}

fn huffman_golden() -> u32 {
    let mut words: Vec<u32> = Vec::new();
    let mut buf = 0u32;
    let mut bits = 0u32;
    for i in 0..256u32 {
        let s = ((7 * i + 3) & 15) | 1;
        let p = (11 * i + 5) & ((1u32 << s) - 1);
        if bits > 13 {
            words.push(buf);
            buf = 0;
            bits = 0;
        }
        buf |= s << bits;
        bits += 4;
        buf |= p << bits;
        bits += s;
    }
    words.push(buf);
    let xor = words.iter().fold(0u32, |a, &w| a ^ w);
    (words.len() as u32 * 4).wrapping_add(xor)
}

/// Fixed-point spring-chain integrator (`nbody` analogue): 8 coupled
/// particles, Verlet-style updates with arithmetic shifts standing in for
/// the floating-point force math of the original.
pub fn nbody_fx() -> Workload {
    Workload::new(
        "nbody-fx",
        "fixed-point 8-particle spring-chain integration",
        30,
        nbody_source,
        nbody_golden,
    )
}

fn nbody_source(reps: u32) -> String {
    format!(
        "
            movs r7, #{reps}
        rep_loop:
        ; ---- init: x[i] = (i*i*17) & 0x3FFF, v[i] = 0 ----
            ldr  r0, =0x20000000      ; x
            ldr  r1, =0x20000040      ; v
            movs r3, #0
        init_loop:
            movs r4, r3
            muls r4, r4, r3
            movs r5, #17
            muls r4, r4, r5
            ldr  r5, =0x3FFF
            ands r4, r4, r5
            lsls r6, r3, #2
            str  r4, [r0, r6]
            movs r4, #0
            str  r4, [r1, r6]
            adds r3, r3, #1
            cmp  r3, #8
            blt  init_loop
        ; ---- 32 integration steps ----
            movs r6, #32
        step_loop:
            ; forces and velocity update for i in 1..7
            movs r3, #1
        force_loop:
            lsls r4, r3, #2
            subs r4, r4, #4
            ldr  r2, [r0, r4]         ; x[i-1]
            adds r4, r4, #8
            ldr  r5, [r0, r4]         ; x[i+1]
            adds r2, r2, r5
            subs r4, r4, #4
            ldr  r5, [r0, r4]         ; x[i]
            subs r2, r2, r5
            subs r2, r2, r5           ; f = x[i-1]+x[i+1]-2x[i]
            asrs r2, r2, #4           ; f >> 4
            ldr  r5, [r1, r4]
            adds r5, r5, r2
            str  r5, [r1, r4]         ; v[i] += f>>4
            adds r3, r3, #1
            cmp  r3, #7
            blt  force_loop
            ; position update for i in 0..8
            movs r3, #0
        pos_loop:
            lsls r4, r3, #2
            ldr  r2, [r1, r4]
            asrs r2, r2, #4
            ldr  r5, [r0, r4]
            adds r5, r5, r2
            str  r5, [r0, r4]         ; x[i] += v[i]>>4
            adds r3, r3, #1
            cmp  r3, #8
            blt  pos_loop
            subs r6, r6, #1
            bne  step_loop
        ; ---- checksum: xor of x[i] ^ v[i] ----
            movs r4, #0
            movs r3, #0
        sum_loop:
            lsls r5, r3, #2
            ldr  r2, [r0, r5]
            eors r4, r4, r2
            ldr  r2, [r1, r5]
            eors r4, r4, r2
            adds r3, r3, #1
            cmp  r3, #8
            blt  sum_loop
            subs r7, r7, #1
            bne  rep_loop
            movs r0, r4
            bkpt #0
        "
    )
}

fn nbody_golden() -> u32 {
    let mut x: Vec<i32> = (0..8i64).map(|i| ((i * i * 17) & 0x3FFF) as i32).collect();
    let mut v = [0i32; 8];
    for _ in 0..32 {
        for i in 1..7usize {
            let f = x[i - 1]
                .wrapping_add(x[i + 1])
                .wrapping_sub(2i32.wrapping_mul(x[i]));
            v[i] = v[i].wrapping_add(f >> 4);
        }
        for i in 0..8usize {
            x[i] = x[i].wrapping_add(v[i] >> 4);
        }
    }
    let mut fold = 0u32;
    for i in 0..8usize {
        fold ^= x[i] as u32;
        fold ^= v[i] as u32;
    }
    fold
}

/// Table-driven state machine (`nsichneu` analogue): 2000 transitions
/// through a 64-state table stored in program ROM, with inputs from a
/// linear congruential generator — branch- and literal-load-heavy.
pub fn fsm() -> Workload {
    Workload::new(
        "fsm",
        "table-driven 64-state machine, 2000 LCG-driven transitions",
        50,
        fsm_source,
        fsm_golden,
    )
}

/// The transition table: `table[j] = (j * 2654435761 >> 8) & 63`.
fn fsm_table() -> Vec<u32> {
    (0..64u32)
        .map(|j| (j.wrapping_mul(KNUTH_MUL) >> 8) & 63)
        .collect()
}

fn fsm_source(reps: u32) -> String {
    let table_words: String = fsm_table()
        .iter()
        .map(|w| format!("            .word {w}\n"))
        .collect();
    format!(
        "
            movs r7, #{reps}
        rep_loop:
            movs r0, #0               ; fold
            movs r2, #1               ; state
            ldr  r3, =12345           ; LCG seed
            ldr  r6, =2000            ; transitions
        step_loop:
            ; seed = seed * 1664525 + 1013904223
            ldr  r4, =1664525
            muls r3, r3, r4
            ldr  r4, =1013904223
            adds r3, r3, r4
            ; input = seed >> 26 (top 6 bits)
            movs r4, r3
            lsrs r4, r4, #26
            ; state = table[(state + input) & 63]
            adds r4, r4, r2
            movs r5, #63
            ands r4, r4, r5
            lsls r4, r4, #2
            ldr  r5, =table
            ldr  r2, [r5, r4]
            ; fold = rotl1(fold) ^ state
            lsls r4, r0, #1
            lsrs r0, r0, #31
            orrs r0, r0, r4
            eors r0, r0, r2
            subs r6, r6, #1
            bne  step_loop
            movs r4, r0
            subs r7, r7, #1
            bne  rep_loop
            movs r0, r4
            bkpt #0
        .align
        table:
{table_words}
        "
    )
}

fn fsm_golden() -> u32 {
    let table = fsm_table();
    let mut fold = 0u32;
    let mut state = 1u32;
    let mut seed = LCG_SEED;
    for _ in 0..FSM_STEPS {
        seed = seed.wrapping_mul(LCG_MUL).wrapping_add(LCG_INC);
        let input = seed >> 26;
        state = table[((state + input) & 63) as usize];
        fold = fold.rotate_left(1) ^ state;
    }
    fold
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(w: Workload) -> crate::WorkloadRun {
        w.execute_with_reps(1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()))
    }

    #[test]
    fn mont64_matches_u64_arithmetic() {
        let run = check(mont64());
        assert_eq!(run.checksum, mont64_golden());
        // The checksum really exercises the high word: recomputing with a
        // 32-bit accumulator must disagree.
        let mut acc32 = 0u32;
        for i in 0..64u32 {
            let a = i.wrapping_mul(2_654_435_761);
            let b = i.wrapping_mul(40_503).wrapping_add(77);
            acc32 = acc32.wrapping_add(a.wrapping_mul(b));
        }
        assert_ne!(run.checksum, acc32);
    }

    #[test]
    fn huffman_packs_more_than_a_kilobit() {
        let run = check(huffman());
        assert_eq!(run.checksum, huffman_golden());
        // 256 symbols × (4 + avg ~8.5) bits ≈ 3.2 kbit ≈ 100 words.
        assert!(run.stats.data_writes > 80);
    }

    #[test]
    fn nbody_conserves_nothing_but_the_golden() {
        let run = check(nbody_fx());
        assert_eq!(run.checksum, nbody_golden());
    }

    #[test]
    fn fsm_walks_the_rom_table() {
        let run = check(fsm());
        assert_eq!(run.checksum, fsm_golden());
        // Table lookups are data reads from *program* memory.
        assert!(run.stats.program_reads >= 2000);
    }

    #[test]
    fn extended_kernels_are_rep_idempotent() {
        for w in [mont64(), huffman(), nbody_fx(), fsm()] {
            let one = w.execute_with_reps(1).expect("1 rep");
            let two = w.execute_with_reps(2).expect("2 reps");
            assert_eq!(one.checksum, two.checksum, "{}", w.name());
            assert!(two.cycles > one.cycles, "{}", w.name());
        }
    }
}
