//! What the host charges this process: CPU time and peak memory.

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// Linux's id for the CPU-time clock of the whole process.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// CPU time of the whole process, threads that have already exited
/// included, in seconds. This clock reads the scheduler's own run-time sums;
/// the times in `/proc/self/stat` are sampled at the timer tick, which
/// misattributes threads that run in bursts shorter than a tick.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two C longs on 64-bit
    // Linux) for the whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_self_is_readable() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mb() > 0.5);
        assert!(cores() >= 1);
    }
}
