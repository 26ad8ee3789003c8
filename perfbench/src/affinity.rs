//! Pinning the benchmark process to one CPU.
//!
//! A serving request hands off between the client, router, reactor and
//! worker threads; across two vCPUs each hand-off is a cross-CPU
//! wake-up, and where the scheduler happened to put the threads set a
//! whole run's pace. On a 2-vCPU VM one fleet-churn seed ran at 8 000
//! req/s in one process and 9 900 in the next, every one-second window
//! alike; pinned to one CPU, runs of that seed stayed within about 6 %
//! of their mean. Pinning before any thread starts puts every thread
//! the benchmark and the servers spawn on that CPU.

use std::io;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
const WORDS: usize = 16;

/// Pin the calling thread (and so every thread it starts later) to the
/// first CPU it may run on. Returns that CPU.
pub fn pin_to_first_cpu() -> io::Result<usize> {
    let mut allowed = [0u64; WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..WORDS * 64)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("the affinity mask allows no CPU"))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    #[test]
    fn pinning_leaves_one_cpu() {
        // A thread of its own, so the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            super::pin_to_first_cpu().expect("pin");
            assert_eq!(
                std::thread::available_parallelism().map(|n| n.get()).ok(),
                Some(1)
            );
        })
        .join()
        .unwrap();
    }
}
