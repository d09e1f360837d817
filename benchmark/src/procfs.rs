//! The OS boundary, read from `/proc/self`: CPU time, page faults, peak
//! resident set and run-queue delay. Linux only; on a read or parse failure
//! every field reads 0 and the metrics derived from it read 0 too.

use std::fs;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`; 100 on
/// every Linux ABI — `sysconf` would need libc, which is not vendored).
const TICKS_PER_S: f64 = 100.0;

/// Cumulative process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Minor page faults, whole process.
    pub minor_faults: u64,
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Nanoseconds the main thread spent runnable but waiting for a CPU.
    pub run_delay_ns: u64,
}

impl ProcSample {
    /// Read the counters now.
    pub fn now() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may hold spaces.
        let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
        let field = |n: usize| -> u64 {
            // `n` is the 1-based field number of proc(5); `rest` starts at field 3.
            rest.split_ascii_whitespace()
                .nth(n - 3)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        let schedstat = fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
        ProcSample {
            minor_faults: field(10),
            user_s: field(14) as f64 / TICKS_PER_S,
            sys_s: field(15) as f64 / TICKS_PER_S,
            run_delay_ns: schedstat
                .split_ascii_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            run_delay_ns: self.run_delay_ns.saturating_sub(earlier.run_delay_ns),
        }
    }

    /// Element-wise sum (accumulating the attributed sections of a run).
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            minor_faults: self.minor_faults + other.minor_faults,
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
            run_delay_ns: self.run_delay_ns + other.run_delay_ns,
        }
    }

    /// CPU seconds, user plus kernel.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Peak resident set (`VmHWM`) of this process in KiB.
pub fn vm_hwm_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let a = ProcSample::now();
        // Touch fresh pages so the fault counter must move.
        let v = std::hint::black_box(vec![1u8; 8 << 20]);
        let b = ProcSample::now().since(&a);
        drop(v);
        assert!(b.minor_faults > 0, "8 MiB of fresh pages fault");
        assert!(vm_hwm_kib() > 1024);
    }
}
