//! # perfbench — simulator-throughput benchmark
//!
//! Measures how fast the cycle-level simulators run on the host, end to
//! end and layer by layer, on three workloads (see `README.md` next to
//! this crate). Every layer is driven only through its public API and
//! timed from outside, around the calls into it; the traced run adds a
//! counting [`observer::CountingObserver`] and [`trace::Tracer`] spans.

use std::time::Instant;

pub mod bench;
pub mod inputs;
pub mod observer;
pub mod trace;
pub mod units;

/// Nanoseconds elapsed since `t`.
#[must_use]
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU-time clocks through 64-bit Linux clock_gettime");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t` on Linux: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through
    // `tp`, which points to a live, aligned value of that C layout (two
    // 64-bit fields on 64-bit Linux, checked by the `compile_error!`
    // above); the clock ids are the Linux constants.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    u64::try_from(ts.tv_sec).expect("CPU time is non-negative") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("CPU time is non-negative")
}

/// CPU time the calling thread has run, in ns.
///
/// The benchmark times with CPU time rather than wall time: on a shared
/// host, other tenants' load stretched the wall time of the same pass by
/// 5-15% from run to run while its CPU time moved far less.
#[must_use]
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process, every thread included, in ns.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPUs the calling thread may run on (empty if they cannot be read).
#[must_use]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, aligned `cpu_set_t`-sized buffer and its
    // size is passed with it; pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread to `cpus`; returns whether the kernel
/// accepted the mask. Threads it spawns afterwards inherit the mask.
pub fn pin_thread(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 16 * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: as in `allowed_cpus`; the kernel only reads `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), &mask) == 0 }
}
