//! Clocks and host probes, std-only.
//!
//! Engine throughput is timed on the simulating thread's own CPU clock:
//! on a shared VM the wall clock also counts hypervisor steal and
//! run-queue wait (back-to-back identical serial runs read 204k–312k
//! refs/s on the wall clock, 267k–316k on the thread's CPU clock). The
//! probes below read what the kernel already accounts:
//!
//! * [`thread_cpu`] — `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`;
//! * [`task_schedstat`] — `/proc/self/task/<tid>/schedstat`: time on CPU
//!   and time spent runnable but waiting, for any thread of this process;
//! * [`HostTicks`] — the aggregate `cpu` line of `/proc/stat`, for the
//!   host's steal share over an interval;
//! * [`peak_rss_mb`] — `VmHWM` of this process.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed so far by the calling thread. Monotonic; it does not
/// advance while the thread sleeps, waits on the run queue, or is stolen
/// from by the hypervisor.
pub fn thread_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// One thread's scheduler accounting, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub runq_wait_ns: u64,
}

impl SchedStat {
    fn parse(text: &str) -> Option<SchedStat> {
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        Some(SchedStat {
            on_cpu_ns: fields.next()?.ok()?,
            runq_wait_ns: fields.next()?.ok()?,
        })
    }

    /// The accounting accumulated between `earlier` and `self`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
        }
    }
}

/// Scheduler accounting of the calling thread (zero where the kernel does
/// not expose schedstat).
pub fn own_schedstat() -> SchedStat {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| SchedStat::parse(&t))
        .unwrap_or_default()
}

/// Summed scheduler accounting of every live thread of this process whose
/// name starts with `prefix` (e.g. the `consim-worker-` pool threads).
pub fn task_schedstat(prefix: &str) -> SchedStat {
    let mut total = SchedStat::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return total;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let named = std::fs::read_to_string(dir.join("comm"))
            .map(|c| c.trim_end().starts_with(prefix))
            .unwrap_or(false);
        if !named {
            continue;
        }
        if let Some(s) = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|t| SchedStat::parse(&t))
        {
            total.on_cpu_ns += s.on_cpu_ns;
            total.runq_wait_ns += s.runq_wait_ns;
        }
    }
    total
}

/// The host-wide CPU tick counters of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    total: u64,
    steal: u64,
}

impl HostTicks {
    /// Reads the aggregate `cpu` line (zeros when unavailable).
    pub fn now() -> HostTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return HostTicks::default();
        };
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already included in user/nice.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostTicks {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(self, earlier: HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn thread_cpu_is_monotonic_and_excludes_sleep() {
        let a = thread_cpu();
        std::thread::sleep(Duration::from_millis(100));
        let b = thread_cpu();
        assert!(b >= a);
        assert!(
            b - a < Duration::from_millis(10),
            "a sleeping thread read {:?} of CPU",
            b - a
        );
    }

    #[test]
    fn thread_cpu_counts_spinning() {
        let a = thread_cpu();
        let wall = Instant::now();
        let mut x = 0u64;
        while wall.elapsed() < Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let spent = thread_cpu() - a;
        assert!(
            spent > Duration::from_millis(5),
            "spun 50 ms, read {spent:?}"
        );
        assert!(spent <= wall.elapsed() + Duration::from_millis(5));
    }

    #[test]
    fn schedstat_parses_the_kernel_format() {
        let s = SchedStat::parse("123456 789 42\n").unwrap();
        assert_eq!(s.on_cpu_ns, 123_456);
        assert_eq!(s.runq_wait_ns, 789);
        assert!(SchedStat::parse("").is_none());
    }
}
