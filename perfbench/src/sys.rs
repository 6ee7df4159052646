//! Resource readings for the process that does a workload's work: the
//! harness itself (`getrusage`), an exhibit process it reaps (`wait4`), or a
//! running server (`/proc/<pid>`); and CPU pinning. Linux only.

use std::ffi::{c_int, c_long};
use std::process::Child;
use std::time::Duration;

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs of
/// which only `ru_maxrss` (kB) is read here.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: c_long,
    rest: [c_long; 13],
}

/// `cpu_set_t` as glibc lays it out: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut RUsage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// Restricts the calling thread, and every thread and process it starts
/// from now on, to the lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable cpu set of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live cpu set of the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

const RUSAGE_SELF: c_int = 0;
/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ = 100 ticks/s.
const TICK: Duration = Duration::from_millis(10);

/// CPU time and peak resident set of one process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, kB.
    pub max_rss_kb: u64,
}

impl RUsage {
    fn zeroed() -> Self {
        Self {
            utime: TimeVal { sec: 0, usec: 0 },
            stime: TimeVal { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        }
    }

    fn usage(&self) -> Usage {
        let micros = |t: &TimeVal| {
            u64::try_from(t.sec).unwrap_or(0) * 1_000_000 + u64::try_from(t.usec).unwrap_or(0)
        };
        Usage {
            cpu: Duration::from_micros(micros(&self.utime) + micros(&self.stime)),
            max_rss_kb: u64::try_from(self.maxrss).unwrap_or(0),
        }
    }
}

/// The harness process's own cumulative usage.
pub fn self_usage() -> Usage {
    let mut ru = RUsage::zeroed();
    // SAFETY: `ru` is a live, writable `struct rusage` for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    ru.usage()
}

/// Waits for `child` (the caller has drained its pipes) and returns
/// whether it exited with status 0, plus the child's own usage.
pub fn reap(child: Child) -> std::io::Result<(bool, Usage)> {
    let pid = c_int::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status: c_int = 0;
    let mut ru = RUsage::zeroed();
    loop {
        // SAFETY: `status` and `ru` are live and writable; `pid` is this
        // process's own child, not yet reaped (`Child::wait` is never called
        // on it, and `child` is dropped without waiting below).
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, ru.usage()))
}

/// Cumulative usage of a running process read from `/proc`: CPU from
/// `stat` (all threads, exited ones included), peak RSS from `VmHWM`.
pub fn proc_usage(pid: u32) -> std::io::Result<Usage> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesized command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let after = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| std::io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = after.split_ascii_whitespace().collect();
    let ticks = |i: usize| -> std::io::Result<u32> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u32>().ok())
            .ok_or_else(|| std::io::Error::other("malformed /proc stat"))
    };
    let cpu = TICK * (ticks(11)? + ticks(12)?);
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let max_rss_kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| std::io::Error::other("no VmHWM in /proc status"))?;
    Ok(Usage { cpu, max_rss_kb })
}
