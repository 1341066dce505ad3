//! Host fingerprint and process resource readings.

use crate::json::Json;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// The kernel's default timer slack.
pub const DEFAULT_TIMER_SLACK_NS: u64 = 50_000;

/// Set the calling thread's timer slack.  The open-loop generator tightens
/// it so its short sleeps end when asked, not 50 µs later; threads inherit
/// the slack of their creator, so it is restored afterwards.
pub fn set_timer_slack_ns(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // memory; a failure (non-Linux kernel) leaves the default in place.
    unsafe { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0) };
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_THREAD: i32 = 1;

/// CPU time from `getrusage`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU, microseconds.
    pub user_us: f64,
    /// System CPU, microseconds.
    pub sys_us: f64,
}

impl Usage {
    /// User + system CPU, microseconds.
    pub fn cpu_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    /// CPU spent between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

fn usage(who: i32) -> Usage {
    let mut raw = RUsage::default();
    // SAFETY: `raw` is a valid, writable `struct rusage` (layout above
    // matches 64-bit Linux) that outlives the call; getrusage writes only
    // within it.
    let rc = unsafe { getrusage(who, &mut raw) };
    if rc != 0 {
        return Usage::default();
    }
    let us = |t: &Timeval| t.tv_sec as f64 * 1e6 + t.tv_usec as f64;
    Usage {
        user_us: us(&raw.ru_utime),
        sys_us: us(&raw.ru_stime),
    }
}

/// Whole-process usage (all threads, live and joined).
pub fn process_usage() -> Usage {
    usage(RUSAGE_SELF)
}

/// The calling thread's usage.
pub fn thread_usage() -> Usage {
    usage(RUSAGE_THREAD)
}

/// Current resident set size in bytes (`/proc/self/statm`, 0 if unreadable).
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

/// Peak resident set size in bytes (`VmHWM` of `/proc/self/status`, 0 if
/// unreadable).  Not `ru_maxrss`: that one survives `exec`, so a process
/// whose own peak is below its parent's reports the parent's.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Share of all CPU time since `earlier` that was stolen by the
    /// hypervisor (`None` when `/proc/stat` is unreadable).
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> Option<f64> {
        let total = self.total.checked_sub(earlier.total).filter(|&t| t > 0)?;
        Some((self.steal - earlier.steal) as f64 / total as f64)
    }
}

/// Read the machine-wide tick counters.
pub fn cpu_ticks() -> CpuTicks {
    let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_string))
        .map(|line| {
            line.split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    CpuTicks {
        // user nice system idle iowait irq softirq steal
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    }
}

/// Hardware threads this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to judge whether two documents are comparable.
pub fn fingerprint(commit_id: &str, seed: u64, cycles_per_second: f64) -> Json {
    Json::object([
        ("cpu_model", Json::from(cpu_model())),
        ("nproc", Json::from(nproc() as f64)),
        (
            "governor",
            read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                .map_or(Json::Null, Json::from),
        ),
        (
            "kernel",
            read_trimmed("/proc/sys/kernel/osrelease").map_or(Json::Null, Json::from),
        ),
        ("commit", Json::from(commit_id)),
        ("seed", Json::from(seed as f64)),
        ("cycles_per_second", Json::from(cycles_per_second)),
    ])
}
