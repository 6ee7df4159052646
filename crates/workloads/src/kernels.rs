//! The kernel definitions: ARMv6-M assembly templates and Rust goldens.

use crate::Workload;

/// 20×20 integer matrix multiply (`matmult-int` analogue).
///
/// The default repetition count is calibrated so the full run lands near
/// Table II's 20,047,348 cycles.
pub fn matmul_int() -> Workload {
    Workload::new(
        "matmul-int",
        "20x20 int32 matrix multiplication",
        MATMUL_DEFAULT_REPS,
        matmul_source,
        matmul_golden,
    )
}

pub(crate) const MATMUL_DEFAULT_REPS: u32 = 186;
const N: usize = 20;

fn matmul_source(reps: u32) -> String {
    format!(
        "
        ; ---- init: A[idx] = (7*idx+1)&0xFF, B[idx] = (3*idx+2)&0xFF ----
            ldr  r0, =0x20000000      ; A
            ldr  r1, =0x20000640      ; B
            ldr  r2, =400
            movs r3, #0               ; idx
        init_loop:
            movs r4, #7
            muls r4, r4, r3
            adds r4, r4, #1
            movs r5, #255
            ands r4, r4, r5
            lsls r6, r3, #2
            str  r4, [r0, r6]
            movs r4, #3
            muls r4, r4, r3
            adds r4, r4, #2
            ands r4, r4, r5
            str  r4, [r1, r6]
            adds r3, r3, #1
            cmp  r3, r2
            blt  init_loop
        ; ---- repetition loop ----
            movs r7, #{reps}
        rep_loop:
            movs r5, #0               ; i
        i_loop:
            movs r6, #0               ; j
        j_loop:
            push {{r5, r6}}
            ldr  r0, =0x20000000
            movs r1, #80
            muls r1, r1, r5
            adds r1, r1, r0           ; &A[i][0]
            ldr  r2, =0x20000640
            lsls r3, r6, #2
            adds r2, r2, r3           ; &B[0][j]
            movs r0, #0               ; acc
            movs r4, #20              ; k
        k_loop:
            ldr  r5, [r1, #0]
            ldr  r6, [r2, #0]
            muls r5, r5, r6
            adds r0, r0, r5
            adds r1, r1, #4
            adds r2, r2, #80
            subs r4, r4, #1
            bne  k_loop
            pop  {{r5, r6}}
            ldr  r3, =0x20000C80      ; C
            movs r4, #80
            muls r4, r4, r5
            adds r3, r3, r4
            lsls r4, r6, #2
            adds r3, r3, r4
            str  r0, [r3, #0]
            adds r6, r6, #1
            cmp  r6, #20
            blt  j_loop
            adds r5, r5, #1
            cmp  r5, #20
            blt  i_loop
            subs r7, r7, #1
            bne  rep_loop
        ; ---- checksum: C[0] + C[399] ----
            ldr  r1, =0x20000C80
            ldr  r0, [r1, #0]
            ldr  r2, =1596
            ldr  r2, [r1, r2]
            adds r0, r0, r2
            bkpt #0
        "
    )
}

fn matmul_golden() -> u32 {
    let mut a = [0u32; N * N];
    let mut b = [0u32; N * N];
    for idx in 0..N * N {
        a[idx] = ((7 * idx + 1) & 0xFF) as u32;
        b[idx] = ((3 * idx + 2) & 0xFF) as u32;
    }
    let mut c = [0u32; N * N];
    for i in 0..N {
        for j in 0..N {
            let mut acc = 0u32;
            for k in 0..N {
                acc = acc.wrapping_add(a[i * N + k].wrapping_mul(b[k * N + j]));
            }
            c[i * N + j] = acc;
        }
    }
    c[0].wrapping_add(c[N * N - 1])
}

/// Bitwise CRC-32 (poly `0xEDB88320`) over a 256-byte buffer.
pub fn crc32() -> Workload {
    Workload::new(
        "crc32",
        "bitwise CRC-32 over 256 bytes",
        100,
        crc32_source,
        crc32_golden,
    )
}

fn crc32_source(reps: u32) -> String {
    format!(
        "
        ; ---- init: data[i] = (13*i + 7) & 0xFF ----
            ldr  r0, =0x20000000
            movs r1, #0
        init_loop:
            movs r2, #13
            muls r2, r2, r1
            adds r2, r2, #7
            strb r2, [r0, r1]
            adds r1, r1, #1
            cmp  r1, #255
            bls  init_loop
            movs r7, #{reps}
        rep_loop:
            movs r3, #0
            mvns r3, r3               ; crc = 0xFFFFFFFF
            movs r1, #0               ; i
        byte_loop:
            ldrb r2, [r0, r1]
            eors r3, r3, r2
            movs r4, #8
        bit_loop:
            movs r5, #1
            ands r5, r5, r3
            lsrs r3, r3, #1
            cmp  r5, #0
            beq  no_xor
            ldr  r6, =0xEDB88320
            eors r3, r3, r6
        no_xor:
            subs r4, r4, #1
            bne  bit_loop
            adds r1, r1, #1
            cmp  r1, #255
            bls  byte_loop
            subs r7, r7, #1
            bne  rep_loop
            mvns r0, r3               ; final xor
            bkpt #0
        "
    )
}

fn crc32_golden() -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for i in 0..256usize {
        let byte = ((13 * i + 7) & 0xFF) as u32;
        crc ^= byte;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb == 1 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// 256-point integer dot product (`edn` DSP inner-loop analogue).
pub fn edn() -> Workload {
    Workload::new(
        "edn",
        "256-point int32 dot product",
        255,
        edn_source,
        edn_golden,
    )
}

fn edn_source(reps: u32) -> String {
    format!(
        "
        ; ---- init: x[i]=(5i+3)&0x7F, y[i]=(11i+1)&0x7F ----
            ldr  r0, =0x20000000      ; x
            ldr  r1, =0x20000400      ; y
            movs r3, #0
        init_loop:
            movs r4, #5
            muls r4, r4, r3
            adds r4, r4, #3
            movs r5, #127
            ands r4, r4, r5
            lsls r6, r3, #2
            str  r4, [r0, r6]
            movs r4, #11
            muls r4, r4, r3
            adds r4, r4, #1
            ands r4, r4, r5
            str  r4, [r1, r6]
            adds r3, r3, #1
            cmp  r3, #255
            bls  init_loop
            movs r7, #{reps}
        rep_loop:
            ldr  r1, =0x20000000
            ldr  r2, =0x20000400
            movs r0, #0               ; acc
            ldr  r4, =256
        mac_loop:
            ldr  r5, [r1, #0]
            ldr  r6, [r2, #0]
            muls r5, r5, r6
            adds r0, r0, r5
            adds r1, r1, #4
            adds r2, r2, #4
            subs r4, r4, #1
            bne  mac_loop
            subs r7, r7, #1
            bne  rep_loop
            bkpt #0
        "
    )
}

fn edn_golden() -> u32 {
    let mut acc = 0u32;
    for i in 0..256usize {
        let x = ((5 * i + 3) & 0x7F) as u32;
        let y = ((11 * i + 1) & 0x7F) as u32;
        acc = acc.wrapping_add(x.wrapping_mul(y));
    }
    acc
}

/// In-place bubble sort of 128 words — branchy, swap-heavy memory traffic.
pub fn bubblesort() -> Workload {
    Workload::new(
        "bubblesort",
        "bubble sort of 128 int32 values",
        12,
        bubblesort_source,
        bubblesort_golden,
    )
}

fn bubblesort_source(reps: u32) -> String {
    format!(
        "
            movs r7, #{reps}
        rep_loop:
        ; ---- init: arr[i] = (37*i + 11) & 0xFF ----
            ldr  r0, =0x20000000
            movs r1, #0
        init_loop:
            movs r2, #37
            muls r2, r2, r1
            adds r2, r2, #11
            movs r3, #255
            ands r2, r2, r3
            lsls r3, r1, #2
            str  r2, [r0, r3]
            adds r1, r1, #1
            cmp  r1, #128
            blt  init_loop
        ; ---- bubble sort ascending ----
            movs r6, #127             ; outer: n-1 passes
        outer_loop:
            movs r1, #0               ; index
        inner_loop:
            lsls r3, r1, #2
            ldr  r2, [r0, r3]         ; arr[i]
            adds r3, r3, #4
            ldr  r4, [r0, r3]         ; arr[i+1]
            cmp  r2, r4
            bls  no_swap
            str  r2, [r0, r3]
            subs r3, r3, #4
            str  r4, [r0, r3]
        no_swap:
            adds r1, r1, #1
            cmp  r1, r6
            blt  inner_loop
            subs r6, r6, #1
            bne  outer_loop
            subs r7, r7, #1
            bne  rep_loop
        ; ---- checksum: arr[0] + 2*arr[64] + 3*arr[127] ----
            ldr  r0, =0x20000000
            ldr  r1, [r0, #0]
            ldr  r2, =256
            ldr  r2, [r0, r2]
            lsls r2, r2, #1
            adds r1, r1, r2
            ldr  r2, =508
            ldr  r2, [r0, r2]
            movs r3, #3
            muls r2, r2, r3
            adds r0, r1, r2
            bkpt #0
        "
    )
}

fn bubblesort_golden() -> u32 {
    let mut arr: Vec<u32> = (0..128usize)
        .map(|i| ((37 * i + 11) & 0xFF) as u32)
        .collect();
    arr.sort_unstable();
    arr[0]
        .wrapping_add(arr[64].wrapping_mul(2))
        .wrapping_add(arr[127].wrapping_mul(3))
}

/// Sieve of Eratosthenes up to 8192 — byte-granular memory sweep.
pub fn sieve() -> Workload {
    Workload::new(
        "sieve",
        "sieve of Eratosthenes below 8192",
        10,
        sieve_source,
        sieve_golden,
    )
}

fn sieve_source(reps: u32) -> String {
    format!(
        "
            movs r7, #{reps}
        rep_loop:
        ; ---- clear flags[0..8192) ----
            ldr  r0, =0x20000000
            ldr  r1, =8192
            movs r2, #0
            movs r3, #0
        clear_loop:
            strb r2, [r0, r3]
            adds r3, r3, #1
            cmp  r3, r1
            blt  clear_loop
        ; ---- sieve ----
            movs r4, #0               ; prime count
            movs r3, #2               ; p
        p_loop:
            ldrb r2, [r0, r3]
            cmp  r2, #0
            bne  not_prime
            adds r4, r4, #1
            movs r2, r3
            muls r2, r2, r3           ; m = p*p
            cmp  r2, r1
            bge  not_prime
            movs r5, #1
        mark_loop:
            strb r5, [r0, r2]
            adds r2, r2, r3
            cmp  r2, r1
            blt  mark_loop
        not_prime:
            adds r3, r3, #1
            cmp  r3, r1
            blt  p_loop
            subs r7, r7, #1
            bne  rep_loop
            movs r0, r4               ; checksum = prime count
            bkpt #0
        "
    )
}

fn sieve_golden() -> u32 {
    let n = 8192usize;
    let mut composite = vec![false; n];
    let mut count = 0u32;
    for p in 2..n {
        if !composite[p] {
            count += 1;
            let mut m = p * p;
            while m < n {
                composite[m] = true;
                m += p;
            }
        }
    }
    count
}

/// 8-tap FIR filter over 256 samples (the `edn` vec_mpy pattern).
pub fn fir() -> Workload {
    Workload::new(
        "fir",
        "8-tap int32 FIR filter over 256 samples",
        100,
        fir_source,
        fir_golden,
    )
}

fn fir_source(reps: u32) -> String {
    format!(
        "
        ; ---- init: x[i]=(9i+5)&0xFF, c[k]=k+1 ----
            ldr  r0, =0x20000000      ; x
            movs r1, #0
        init_x:
            movs r2, #9
            muls r2, r2, r1
            adds r2, r2, #5
            movs r3, #255
            ands r2, r2, r3
            lsls r3, r1, #2
            str  r2, [r0, r3]
            adds r1, r1, #1
            cmp  r1, #255
            bls  init_x
            ldr  r0, =0x20000600      ; c
            movs r1, #0
        init_c:
            adds r2, r1, #1
            lsls r3, r1, #2
            str  r2, [r0, r3]
            adds r1, r1, #1
            cmp  r1, #8
            blt  init_c
            movs r7, #{reps}
        rep_loop:
            movs r6, #7               ; i
        i_loop:
        ; acc = sum over k of c[k]*x[i-k]
            push {{r6, r7}}
            ldr  r1, =0x20000000
            lsls r2, r6, #2
            adds r1, r1, r2           ; &x[i]
            ldr  r2, =0x20000600      ; &c[0]
            movs r0, #0
            movs r4, #8
        tap_loop:
            ldr  r5, [r1, #0]
            ldr  r6, [r2, #0]
            muls r5, r5, r6
            adds r0, r0, r5
            subs r1, r1, #4
            adds r2, r2, #4
            subs r4, r4, #1
            bne  tap_loop
            pop  {{r6, r7}}
            ldr  r3, =0x20000800      ; y
            lsls r4, r6, #2
            adds r3, r3, r4
            str  r0, [r3, #0]
            adds r6, r6, #1
            cmp  r6, #255
            bls  i_loop
            subs r7, r7, #1
            bne  rep_loop
        ; ---- checksum: y[7] + y[255] ----
            ldr  r1, =0x20000800
            ldr  r0, [r1, #28]
            ldr  r2, =1020
            ldr  r2, [r1, r2]
            adds r0, r0, r2
            bkpt #0
        "
    )
}

fn fir_golden() -> u32 {
    let x: Vec<u32> = (0..256usize).map(|i| ((9 * i + 5) & 0xFF) as u32).collect();
    let c: Vec<u32> = (0..8u32).map(|k| k + 1).collect();
    let mut y = vec![0u32; 256];
    for (i, out) in y.iter_mut().enumerate().skip(7) {
        let mut acc = 0u32;
        for (k, &coeff) in c.iter().enumerate() {
            acc = acc.wrapping_add(coeff.wrapping_mul(x[i - k]));
        }
        *out = acc;
    }
    y[7].wrapping_add(y[255])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(w: Workload) -> crate::WorkloadRun {
        w.execute_with_reps(1)
            .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()))
    }

    #[test]
    fn matmul_checksum_matches_golden() {
        let run = check(matmul_int());
        assert_eq!(run.checksum, matmul_golden());
    }

    #[test]
    fn matmul_cycles_per_rep_scale() {
        // Full-length default reps must land within 3% of Table II's
        // 20,047,348 cycles. Estimate from a 2-rep run to keep tests quick:
        // cycles(reps) = fixed + reps * per_rep.
        let one = matmul_int().execute_with_reps(1).expect("1 rep");
        let two = matmul_int().execute_with_reps(2).expect("2 reps");
        let per_rep = (two.cycles - one.cycles) as f64;
        let fixed = one.cycles as f64 - per_rep;
        let full = fixed + per_rep * f64::from(MATMUL_DEFAULT_REPS);
        let target = 20_047_348.0;
        assert!(
            (full - target).abs() / target < 0.03,
            "full-length matmul ≈ {full:.0} cycles (target {target})"
        );
    }

    #[test]
    fn crc32_matches_reference_polynomial() {
        let run = check(crc32());
        assert_eq!(run.checksum, crc32_golden());
        // Sanity against a known-good independent implementation of
        // CRC-32/ISO-HDLC over the same bytes.
        let data: Vec<u8> = (0..256usize).map(|i| ((13 * i + 7) & 0xFF) as u8).collect();
        let mut crc = 0xFFFF_FFFFu32;
        for b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        assert_eq!(run.checksum, !crc);
    }

    #[test]
    fn edn_checksum() {
        assert_eq!(check(edn()).checksum, edn_golden());
    }

    #[test]
    fn bubblesort_checksum_and_traffic() {
        let run = check(bubblesort());
        assert_eq!(run.checksum, bubblesort_golden());
        // A bubble sort re-reads the array O(n²) times.
        assert!(run.stats.data_reads > 10_000);
    }

    #[test]
    fn sieve_counts_primes_below_8192() {
        let run = check(sieve());
        assert_eq!(run.checksum, 1028); // π(8191) = 1028
        assert_eq!(run.checksum, sieve_golden());
    }

    #[test]
    fn fir_checksum() {
        assert_eq!(check(fir()).checksum, fir_golden());
    }

    #[test]
    fn retention_demand_is_workload_dependent() {
        // The FIR kernel writes y[i] and reads it back only at the end of
        // the run, so its write→read intervals far exceed the dot product's.
        let fir_run = check(fir());
        let edn_run = check(edn());
        assert!(fir_run.stats.max_write_to_read_cycles > edn_run.stats.max_write_to_read_cycles);
    }
}
