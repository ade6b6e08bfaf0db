//! What the host contributes to a result: process CPU time, and peak RSS
//! and steal time from `/proc`, and a bench-owned reference kernel that
//! shows host-wide slowdown phases (they move every layer together; the
//! kernel moves with them while the program does not change).

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/stat` (`USER_HZ`, 100 on every
/// Linux ABI this runs on).
const CLOCK_TICKS_PER_S: f64 = 100.0;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod clock {
    /// `struct timespec` of the 64-bit Linux ABIs.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    /// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
}

/// Process CPU time (user + system, all threads) in seconds, to the
/// nanosecond, or `None` off 64-bit Linux.
#[must_use]
pub fn cpu_seconds() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = clock::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` for the
        // duration of the call, and the clock id is a constant the C
        // library defines.
        let rc = unsafe { clock::clock_gettime(clock::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Host-wide CPU steal time in seconds (time the hypervisor ran someone
/// else while this machine's CPUs wanted to run), or `None` off Linux.
#[must_use]
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let steal: f64 = cpu.split_ascii_whitespace().nth(7)?.parse().ok()?;
    Some(steal / CLOCK_TICKS_PER_S)
}

/// CPUs the kernel has online (steal time is summed over them).
#[must_use]
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/stat").map_or(1, |stat| {
        stat.lines()
            .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
            .count()
            .max(1)
    })
}

/// Peak resident set size (`VmHWM`) in MB, or `None` off Linux.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds of a fixed integer mixing loop: pure ALU, no memory
/// traffic, single thread. Median of five timings.
#[must_use]
pub fn reference_kernel_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|i| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64 ^ i);
            for _ in 0..2_000_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}

/// FNV-1a over `bytes`: the frozen-artifact content hash.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(0xCBF2_9CE4_8422_2325, bytes)
}

/// FNV-1a continued from hash `h` over `bytes`.
#[must_use]
pub fn fnv1a64_from(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        if cfg!(target_os = "linux") {
            assert!(cpu_seconds().unwrap() >= 0.0);
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }

    #[test]
    fn fnv_reference_values() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
