//! Embench-style benchmark kernels for the Cortex-M0 simulator.
//!
//! The paper characterizes its embedded system "running applications from
//! the Embench suite", with `matmul-int` as the headline workload
//! (20,047,348 cycles at 500 MHz in Table II). Without a cross-compiler in
//! the loop, this crate provides equivalent kernels hand-written in ARMv6-M
//! assembly for [`ppatc_m0`], each paired with a Rust *golden reference*
//! that computes the same checksum — every execution is verified against it.
//!
//! Kernels (one per Embench category the paper's workloads span):
//!
//! | name | Embench analogue | behaviour |
//! |---|---|---|
//! | `matmul-int` | `matmult-int` | 20×20 integer matrix multiply |
//! | `crc32` | `crc32` | bitwise CRC-32 over a 256-byte buffer |
//! | `edn` | `edn` | 256-point integer dot product (DSP inner loop) |
//! | `bubblesort` | `wikisort`-class | in-place sort, branchy + memory-heavy |
//! | `sieve` | `primecount`-class | sieve of Eratosthenes, byte-wise memory |
//! | `fir` | `edn` (vec_mpy) | 8-tap FIR filter over 256 samples |
//! | `mont64` | `aha-mont64` | 64-bit MAC from 16×16 partials with `adcs` carries |
//! | `huffman` | `huffbench` | variable-length bit packing of 256 symbols |
//! | `nbody-fx` | `nbody` | fixed-point 8-particle spring-chain integration |
//! | `fsm` | `nsichneu` | table-driven 64-state machine, ROM-table lookups |
//!
//! All kernels re-initialize their data each repetition, so the checksum is
//! independent of the repetition count and repetitions scale execution time
//! without changing the verified result.
//!
//! # Example
//!
//! ```
//! use ppatc_workloads::Workload;
//!
//! let run = Workload::matmul_int().execute_with_reps(2)?;
//! assert!(run.cycles > 100_000);
//! assert!(run.stats.data_reads > run.stats.data_writes);
//! # Ok::<(), ppatc_workloads::WorkloadError>(())
//! ```

#![warn(missing_docs)]

mod kernels;
mod kernels_ext;

use ppatc_m0::{asm, AccessStats, Cpu};

pub use kernels::{bubblesort, crc32, edn, fir, matmul_int, sieve};
pub use kernels_ext::{fsm, huffman, mont64, nbody_fx};

/// Safety valve for runaway kernels.
const MAX_CYCLES: u64 = 2_000_000_000;

/// Repetition counts every kernel accepts: each loads its count into an
/// 8-bit `movs` immediate and counts it down to zero.
const REPS: core::ops::RangeInclusive<u32> = 1..=255;

/// A benchmark kernel: assembly source plus a Rust golden reference.
#[derive(Clone)]
pub struct Workload {
    name: &'static str,
    description: &'static str,
    default_reps: u32,
    source: fn(u32) -> String,
    golden: fn() -> u32,
}

impl Workload {
    /// The paper's headline workload: 20×20 integer matrix multiplication,
    /// repeated to land near Table II's 20,047,348 cycles.
    pub fn matmul_int() -> Self {
        kernels::matmul_int()
    }

    /// Bitwise CRC-32 over a 256-byte buffer.
    pub fn crc32() -> Self {
        kernels::crc32()
    }

    /// 256-point integer dot product.
    pub fn edn() -> Self {
        kernels::edn()
    }

    /// In-place bubble sort of 128 words.
    pub fn bubblesort() -> Self {
        kernels::bubblesort()
    }

    /// Sieve of Eratosthenes below 8192.
    pub fn sieve() -> Self {
        kernels::sieve()
    }

    /// 8-tap FIR filter over 256 samples.
    pub fn fir() -> Self {
        kernels::fir()
    }

    /// 64-bit multiply-accumulate from 16×16 partial products.
    pub fn mont64() -> Self {
        kernels_ext::mont64()
    }

    /// Variable-length bit packing of 256 symbols.
    pub fn huffman() -> Self {
        kernels_ext::huffman()
    }

    /// Fixed-point 8-particle spring-chain integration.
    pub fn nbody_fx() -> Self {
        kernels_ext::nbody_fx()
    }

    /// Table-driven 64-state machine with ROM-table lookups.
    pub fn fsm() -> Self {
        kernels_ext::fsm()
    }

    /// All kernels in the suite.
    pub fn suite() -> Vec<Workload> {
        vec![
            kernels::matmul_int(),
            kernels::crc32(),
            kernels::edn(),
            kernels::bubblesort(),
            kernels::sieve(),
            kernels::fir(),
            kernels_ext::mont64(),
            kernels_ext::huffman(),
            kernels_ext::nbody_fx(),
            kernels_ext::fsm(),
        ]
    }

    pub(crate) fn new(
        name: &'static str,
        description: &'static str,
        default_reps: u32,
        source: fn(u32) -> String,
        golden: fn() -> u32,
    ) -> Self {
        Self {
            name,
            description,
            default_reps,
            source,
            golden,
        }
    }

    /// Kernel name (Embench-style).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Repetition count used by [`Workload::execute`], sized for the paper's
    /// full-length runs.
    pub fn default_reps(&self) -> u32 {
        self.default_reps
    }

    /// The assembly source for a given repetition count.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Reps`] if `reps` is outside `1..=255`.
    pub fn source(&self, reps: u32) -> Result<String, WorkloadError> {
        if !REPS.contains(&reps) {
            return Err(WorkloadError::Reps {
                workload: self.name,
                reps,
            });
        }
        Ok((self.source)(reps))
    }

    /// The golden checksum this kernel must produce.
    pub fn expected_checksum(&self) -> u32 {
        (self.golden)()
    }

    /// Assembles and runs the kernel at full length.
    ///
    /// # Errors
    ///
    /// See [`Workload::execute_with_reps`].
    pub fn execute(&self) -> Result<WorkloadRun, WorkloadError> {
        self.execute_with_reps(self.default_reps)
    }

    /// Assembles and runs the kernel with an explicit repetition count,
    /// verifying the checksum against the Rust golden reference.
    ///
    /// # Errors
    ///
    /// - [`WorkloadError::Reps`] if `reps` is outside `1..=255`
    /// - [`WorkloadError::Assemble`] if the kernel source fails to assemble
    /// - [`WorkloadError::Execute`] for simulator faults or cycle-limit
    /// - [`WorkloadError::ChecksumMismatch`] if the simulated result differs
    ///   from the golden reference (a simulator or kernel bug)
    pub fn execute_with_reps(&self, reps: u32) -> Result<WorkloadRun, WorkloadError> {
        let image = asm::assemble(&self.source(reps)?).map_err(WorkloadError::Assemble)?;
        let mut cpu = Cpu::new(&image);
        let summary = cpu.run(MAX_CYCLES).map_err(WorkloadError::Execute)?;
        let checksum = cpu.reg(0);
        let expected = self.expected_checksum();
        if checksum != expected {
            return Err(WorkloadError::ChecksumMismatch {
                workload: self.name,
                expected,
                actual: checksum,
            });
        }
        Ok(WorkloadRun {
            cycles: summary.cycles,
            instructions: summary.instructions,
            checksum,
            stats: cpu.memory().stats().clone(),
        })
    }
}

impl core::fmt::Debug for Workload {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("default_reps", &self.default_reps)
            .finish_non_exhaustive()
    }
}

/// Result of a verified kernel execution — the numbers the carbon flow
/// consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadRun {
    /// Total clock cycles (`N_cycle` in Eq. 6).
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Verified checksum.
    pub checksum: u32,
    /// Memory-access statistics (fetches, reads, writes, retention).
    pub stats: AccessStats,
}

/// Failure while preparing or running a workload.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The repetition count is outside `1..=255`.
    Reps {
        /// Kernel asked for.
        workload: &'static str,
        /// The rejected count.
        reps: u32,
    },
    /// Kernel source failed to assemble.
    Assemble(asm::AsmError),
    /// Simulator fault or cycle-limit overflow.
    Execute(ppatc_m0::ExecError),
    /// The simulated checksum disagrees with the Rust golden reference.
    ChecksumMismatch {
        /// Offending kernel.
        workload: &'static str,
        /// Golden value.
        expected: u32,
        /// Simulated value.
        actual: u32,
    },
}

impl core::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorkloadError::Reps { workload, reps } => write!(
                f,
                "`{workload}` takes {} to {} repetitions, not {reps}",
                REPS.start(),
                REPS.end()
            ),
            WorkloadError::Assemble(e) => write!(f, "kernel failed to assemble: {e}"),
            WorkloadError::Execute(e) => write!(f, "kernel failed to run: {e}"),
            WorkloadError::ChecksumMismatch {
                workload,
                expected,
                actual,
            } => write!(
                f,
                "`{workload}` checksum {actual:#010x} does not match golden {expected:#010x}"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Assemble(e) => Some(e),
            WorkloadError::Execute(e) => Some(e),
            WorkloadError::Reps { .. } | WorkloadError::ChecksumMismatch { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_ten_distinct_kernels() {
        let suite = Workload::suite();
        assert_eq!(suite.len(), 10);
        let mut names: Vec<_> = suite.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn every_kernel_verifies_at_small_scale() {
        for w in Workload::suite() {
            let run = w
                .execute_with_reps(1)
                .unwrap_or_else(|e| panic!("{} failed: {e}", w.name()));
            assert!(run.cycles > 0, "{} consumed no cycles", w.name());
            assert_eq!(run.checksum, w.expected_checksum());
        }
    }

    #[test]
    fn reps_scale_cycles_but_not_checksum() {
        let w = Workload::crc32();
        let one = w.execute_with_reps(1).expect("1 rep should run");
        let three = w.execute_with_reps(3).expect("3 reps should run");
        assert_eq!(one.checksum, three.checksum);
        let ratio = three.cycles as f64 / one.cycles as f64;
        assert!((2.5..3.5).contains(&ratio), "cycle ratio {ratio}");
    }

    #[test]
    fn reps_outside_the_counter_range_are_an_error() {
        let w = Workload::crc32();
        for reps in [0, 256] {
            let err = WorkloadError::Reps {
                workload: "crc32",
                reps,
            };
            assert_eq!(w.source(reps), Err(err.clone()));
            assert_eq!(w.execute_with_reps(reps), Err(err));
        }
        assert!(w.source(255).is_ok());
    }

    #[test]
    fn memory_traffic_is_recorded() {
        let run = Workload::bubblesort()
            .execute_with_reps(1)
            .expect("should run");
        assert!(run.stats.data_reads > 100);
        assert!(run.stats.data_writes > 100);
        assert!(run.stats.instruction_fetches > run.stats.data_reads);
    }
}
