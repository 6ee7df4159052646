//! The embedded system's memory map with access tracing.
//!
//! Following the paper's Fig. 1 architecture, the system has two 64 kB
//! eDRAM-backed memories: a *program* memory at `0x0000_0000` (code, literal
//! pools, constant tables) and a *data* memory at `0x2000_0000`
//! (globals/heap/stack). Every access is counted — those counts drive the
//! application-dependent eDRAM energy model — and write→read intervals on
//! the data memory are tracked to determine the retention time the eDRAM
//! must provide.

/// Size of the program memory, bytes (64 kB, Sec. III-B Step 1).
pub const PROG_SIZE: u32 = 64 * 1024;

/// Base address of the data memory.
pub const DATA_BASE: u32 = 0x2000_0000;

/// Size of the data memory, bytes (64 kB).
pub const DATA_SIZE: u32 = 64 * 1024;

/// Memory-access fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum MemoryError {
    /// Access outside both memory regions.
    OutOfBounds {
        /// Faulting address.
        addr: u32,
    },
    /// Address not aligned to the access size.
    Misaligned {
        /// Faulting address.
        addr: u32,
        /// Access size in bytes.
        size: u32,
    },
    /// Store into the (read-only at run time) program region.
    ReadOnlyProgram {
        /// Faulting address.
        addr: u32,
    },
}

impl core::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemoryError::OutOfBounds { addr } => {
                write!(f, "access at {addr:#010x} is out of bounds")
            }
            MemoryError::Misaligned { addr, size } => {
                write!(f, "misaligned {size}-byte access at {addr:#010x}")
            }
            MemoryError::ReadOnlyProgram { addr } => {
                write!(f, "store to read-only program memory at {addr:#010x}")
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// Per-region access counters and data-retention statistics — the
/// simulator's substitute for the paper's `.vcd` waveform analysis.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Instruction fetches from program memory (one per halfword fetched).
    pub instruction_fetches: u64,
    /// Data-side reads from program memory (literal pools, constant tables).
    pub program_reads: u64,
    /// Reads from data memory.
    pub data_reads: u64,
    /// Writes to data memory.
    pub data_writes: u64,
    /// Longest observed interval (in cycles) between a write to a data-memory
    /// word and a subsequent read of it — the retention requirement.
    pub max_write_to_read_cycles: u64,
    /// Number of distinct data-memory words ever written.
    pub words_written: u64,
}

/// The two-region memory system.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    program: Vec<u8>,
    data: Vec<u8>,
    stats: AccessStats,
    /// Cycle of the last write per data-memory word (u64::MAX = never).
    last_write: Vec<u64>,
}

const NEVER: u64 = u64::MAX;

impl MemorySystem {
    /// Creates a memory system with the given program image loaded at 0.
    ///
    /// # Panics
    ///
    /// Panics if the image exceeds [`PROG_SIZE`].
    pub fn new(program_image: &[u8]) -> Self {
        assert!(
            program_image.len() <= PROG_SIZE as usize,
            "program image ({} bytes) exceeds program memory ({PROG_SIZE} bytes)",
            program_image.len()
        );
        let mut program = vec![0u8; PROG_SIZE as usize];
        program[..program_image.len()].copy_from_slice(program_image);
        Self {
            program,
            data: vec![0u8; DATA_SIZE as usize],
            stats: AccessStats::default(),
            last_write: vec![NEVER; (DATA_SIZE / 4) as usize],
        }
    }

    /// The access statistics collected so far.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Resets access statistics (not memory contents).
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
        self.last_write.fill(NEVER);
    }

    /// Fetches one instruction halfword (counted as a fetch, not a read).
    ///
    /// # Errors
    ///
    /// Fails for addresses outside program memory or misaligned by 2.
    pub fn fetch_halfword(&mut self, addr: u32) -> Result<u16, MemoryError> {
        check_alignment(addr, 2)?;
        let off = offset_in(addr, 2, 0, PROG_SIZE).ok_or(MemoryError::OutOfBounds { addr })?;
        self.stats.instruction_fetches += 1;
        Ok(u16::from_le_bytes([
            self.program[off],
            self.program[off + 1],
        ]))
    }

    /// Counts `count` instruction halfwords the core fetched without reading
    /// them here (it executes them from its decode table).
    pub(crate) fn count_fetches(&mut self, count: u32) {
        self.stats.instruction_fetches += u64::from(count);
    }

    /// The one read path: data memory first (the hot case), then program
    /// memory (literal pools, constant tables).
    #[inline(always)]
    fn read<const N: usize>(&mut self, addr: u32, cycle: u64) -> Result<[u8; N], MemoryError> {
        check_alignment(addr, N as u32)?;
        if let Some(off) = offset_in(addr, N as u32, DATA_BASE, DATA_SIZE) {
            self.stats.data_reads += 1;
            let written = self.last_write[off / 4];
            if written != NEVER && cycle >= written {
                let interval = cycle - written;
                if interval > self.stats.max_write_to_read_cycles {
                    self.stats.max_write_to_read_cycles = interval;
                }
            }
            return Ok(bytes_at(&self.data, off));
        }
        let off =
            offset_in(addr, N as u32, 0, PROG_SIZE).ok_or(MemoryError::OutOfBounds { addr })?;
        self.stats.program_reads += 1;
        Ok(bytes_at(&self.program, off))
    }

    /// The one write path: data memory only.
    #[inline(always)]
    fn write<const N: usize>(
        &mut self,
        addr: u32,
        bytes: [u8; N],
        cycle: u64,
    ) -> Result<(), MemoryError> {
        check_alignment(addr, N as u32)?;
        let Some(off) = offset_in(addr, N as u32, DATA_BASE, DATA_SIZE) else {
            return Err(match offset_in(addr, N as u32, 0, PROG_SIZE) {
                Some(_) => MemoryError::ReadOnlyProgram { addr },
                None => MemoryError::OutOfBounds { addr },
            });
        };
        self.stats.data_writes += 1;
        let word = off / 4;
        if self.last_write[word] == NEVER {
            self.stats.words_written += 1;
        }
        self.last_write[word] = cycle;
        self.data[off..off + N].copy_from_slice(&bytes);
        Ok(())
    }

    /// Reads a 32-bit word.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range or misaligned addresses.
    pub fn read_u32(&mut self, addr: u32, cycle: u64) -> Result<u32, MemoryError> {
        self.read(addr, cycle).map(u32::from_le_bytes)
    }

    /// Reads a 16-bit halfword (zero-extension is the caller's business).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range or misaligned addresses.
    pub fn read_u16(&mut self, addr: u32, cycle: u64) -> Result<u16, MemoryError> {
        self.read(addr, cycle).map(u16::from_le_bytes)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails for out-of-range addresses.
    pub fn read_u8(&mut self, addr: u32, cycle: u64) -> Result<u8, MemoryError> {
        self.read(addr, cycle).map(u8::from_le_bytes)
    }

    /// Writes a 32-bit word (data memory only).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range, misaligned, or program-region addresses.
    pub fn write_u32(&mut self, addr: u32, value: u32, cycle: u64) -> Result<(), MemoryError> {
        self.write(addr, value.to_le_bytes(), cycle)
    }

    /// Writes a 16-bit halfword (data memory only).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range, misaligned, or program-region addresses.
    pub fn write_u16(&mut self, addr: u32, value: u16, cycle: u64) -> Result<(), MemoryError> {
        self.write(addr, value.to_le_bytes(), cycle)
    }

    /// Writes one byte (data memory only).
    ///
    /// # Errors
    ///
    /// Fails for out-of-range or program-region addresses.
    pub fn write_u8(&mut self, addr: u32, value: u8, cycle: u64) -> Result<(), MemoryError> {
        self.write(addr, [value], cycle)
    }

    /// Untracked debug read of a data-memory word (for test assertions).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside data memory or misaligned.
    pub fn peek_data_u32(&self, addr: u32) -> u32 {
        assert!(addr.is_multiple_of(4), "peek address must be word-aligned");
        assert!(
            (DATA_BASE..DATA_BASE + DATA_SIZE).contains(&addr),
            "peek address {addr:#010x} outside data memory"
        );
        let off = (addr - DATA_BASE) as usize;
        u32::from_le_bytes([
            self.data[off],
            self.data[off + 1],
            self.data[off + 2],
            self.data[off + 3],
        ])
    }
}

fn check_alignment(addr: u32, size: u32) -> Result<(), MemoryError> {
    if addr.is_multiple_of(size) {
        Ok(())
    } else {
        Err(MemoryError::Misaligned { addr, size })
    }
}

/// Offset of a `size`-byte access at `addr` in the region of `len` bytes at
/// `base`, if the access lies wholly inside it. Overflow-free: an address
/// below `base` wraps to an offset far above `len`, and `size <= len`.
#[inline(always)]
fn offset_in(addr: u32, size: u32, base: u32, len: u32) -> Option<usize> {
    let off = addr.wrapping_sub(base);
    (off <= len - size).then_some(off as usize)
}

#[inline(always)]
fn bytes_at<const N: usize>(memory: &[u8], off: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&memory[off..off + N]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_image_is_loaded_and_fetchable() {
        let mut m = MemorySystem::new(&[0x34, 0x12, 0x78, 0x56]);
        assert_eq!(m.fetch_halfword(0).expect("fetch should work"), 0x1234);
        assert_eq!(m.fetch_halfword(2).expect("fetch should work"), 0x5678);
        assert_eq!(m.stats().instruction_fetches, 2);
    }

    #[test]
    fn data_round_trip_and_counting() {
        let mut m = MemorySystem::new(&[]);
        m.write_u32(DATA_BASE + 8, 0xDEADBEEF, 10)
            .expect("write should work");
        assert_eq!(
            m.read_u32(DATA_BASE + 8, 20).expect("read should work"),
            0xDEADBEEF
        );
        assert_eq!(m.stats().data_writes, 1);
        assert_eq!(m.stats().data_reads, 1);
        assert_eq!(m.stats().max_write_to_read_cycles, 10);
        assert_eq!(m.stats().words_written, 1);
    }

    #[test]
    fn retention_tracks_longest_interval() {
        let mut m = MemorySystem::new(&[]);
        m.write_u32(DATA_BASE, 1, 0).expect("write");
        let _ = m.read_u32(DATA_BASE, 5).expect("read");
        m.write_u32(DATA_BASE + 4, 2, 10).expect("write");
        let _ = m.read_u32(DATA_BASE + 4, 1_000_010).expect("read");
        assert_eq!(m.stats().max_write_to_read_cycles, 1_000_000);
    }

    #[test]
    fn subword_access() {
        let mut m = MemorySystem::new(&[]);
        m.write_u8(DATA_BASE + 3, 0xAA, 0).expect("byte write");
        m.write_u16(DATA_BASE, 0x1122, 0).expect("half write");
        assert_eq!(m.read_u8(DATA_BASE + 3, 1).expect("byte read"), 0xAA);
        assert_eq!(m.read_u16(DATA_BASE, 1).expect("half read"), 0x1122);
        assert_eq!(m.read_u32(DATA_BASE, 1).expect("word read"), 0xAA00_1122);
    }

    #[test]
    fn faults() {
        let mut m = MemorySystem::new(&[0; 4]);
        assert_eq!(
            m.read_u32(DATA_BASE + 2, 0),
            Err(MemoryError::Misaligned {
                addr: DATA_BASE + 2,
                size: 4
            })
        );
        assert_eq!(
            m.read_u32(0x1000_0000, 0),
            Err(MemoryError::OutOfBounds { addr: 0x1000_0000 })
        );
        assert_eq!(
            m.write_u32(0, 1, 0),
            Err(MemoryError::ReadOnlyProgram { addr: 0 })
        );
        // Reading program memory as data is allowed (literal pools).
        assert!(m.read_u32(0, 0).is_ok());
        assert_eq!(m.stats().program_reads, 1);
        // Each region ends exactly at its last whole access.
        let top = DATA_BASE + DATA_SIZE;
        assert!(m.write_u32(top - 4, 1, 0).is_ok());
        assert_eq!(m.read_u32(top - 4, 0), Ok(1));
        for addr in [top, DATA_BASE - 4] {
            assert_eq!(m.read_u32(addr, 0), Err(MemoryError::OutOfBounds { addr }));
        }
        assert!(m.fetch_halfword(PROG_SIZE - 2).is_ok());
        for addr in [PROG_SIZE, DATA_BASE] {
            assert_eq!(
                m.fetch_halfword(addr),
                Err(MemoryError::OutOfBounds { addr })
            );
        }
    }

    #[test]
    fn accesses_at_the_top_of_the_address_space_are_out_of_bounds() {
        let mut m = MemorySystem::new(&[0; 4]);
        let oob = |addr| Some(MemoryError::OutOfBounds { addr });
        assert_eq!(m.read_u32(0xFFFF_FFFC, 0).err(), oob(0xFFFF_FFFC));
        assert_eq!(m.read_u8(0xFFFF_FFFF, 0).err(), oob(0xFFFF_FFFF));
        assert_eq!(m.fetch_halfword(0xFFFF_FFFE).err(), oob(0xFFFF_FFFE));
        assert_eq!(m.write_u32(0xFFFF_FFFC, 1, 0).err(), oob(0xFFFF_FFFC));
        assert_eq!(m.stats(), &AccessStats::default());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = MemorySystem::new(&[]);
        m.write_u32(DATA_BASE, 7, 0).expect("write");
        m.reset_stats();
        assert_eq!(m.stats().data_writes, 0);
        assert_eq!(m.peek_data_u32(DATA_BASE), 7);
    }

    #[test]
    #[should_panic(expected = "exceeds program memory")]
    fn oversized_image_panics() {
        let _ = MemorySystem::new(&vec![0u8; (PROG_SIZE + 1) as usize]);
    }
}
