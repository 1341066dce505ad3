//! Machine topology model: sockets × cores × hardware threads.

use serde::{Deserialize, Serialize};

/// Identifier of a physical processor package (socket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SocketId(pub usize);

/// Identifier of a physical core, unique across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CoreId(pub usize);

/// Identifier of a hardware thread (what the OS calls a "CPU"), unique
/// across the machine.  This is the value passed to `sched_setaffinity`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HwThreadId(pub usize);

/// A declarative model of the machine: `sockets` packages, each with
/// `cores_per_socket` cores, each core exposing `threads_per_core` hardware
/// threads (SMT siblings).
///
/// Hardware-thread numbering follows the common Linux convention the paper's
/// machine also used: hw thread `t` of core `c` has id
/// `t * total_cores + c`, i.e. CPUs `0..N-1` are the first hyperthread of
/// every core and CPUs `N..2N-1` are the SMT siblings.  Placement only relies
/// on this model's own numbering, so even if the physical machine numbers
/// CPUs differently the *relative* placement (servers spread across cores
/// and sockets) is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of processor packages.
    pub sockets: usize,
    /// Physical cores per package.
    pub cores_per_socket: usize,
    /// SMT threads per core (2 on the paper's machine).
    pub threads_per_core: usize,
}

impl Topology {
    /// The paper's evaluation machine: eight 10-core Intel E7-8870 sockets,
    /// two hardware threads per core (80 cores, 160 hardware threads).
    pub const fn paper_machine() -> Self {
        Topology {
            sockets: 8,
            cores_per_socket: 10,
            threads_per_core: 2,
        }
    }

    /// A single-socket model handy for tests.
    pub const fn single_socket(cores: usize, threads_per_core: usize) -> Self {
        Topology {
            sockets: 1,
            cores_per_socket: cores,
            threads_per_core,
        }
    }

    /// Build a best-effort model of the current machine.
    ///
    /// Reads `/sys/devices/system/cpu` when available (Linux) to count
    /// packages and SMT siblings; otherwise falls back to a flat model with
    /// `std::thread::available_parallelism()` single-thread cores on one
    /// socket.  The model is intentionally conservative: if sysfs parsing
    /// fails half-way we fall back rather than guess.
    pub fn detect() -> Self {
        Self::detect_from_sysfs().unwrap_or_else(Self::fallback)
    }

    fn fallback() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Topology {
            sockets: 1,
            cores_per_socket: n,
            threads_per_core: 1,
        }
    }

    fn detect_from_sysfs() -> Option<Self> {
        use std::collections::BTreeSet;
        let cpu_dir = std::path::Path::new("/sys/devices/system/cpu");
        if !cpu_dir.exists() {
            return None;
        }
        let mut packages: BTreeSet<usize> = BTreeSet::new();
        let mut cores: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut hw_threads = 0usize;
        for entry in std::fs::read_dir(cpu_dir).ok()? {
            let entry = entry.ok()?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(id) = name
                .strip_prefix("cpu")
                .and_then(|rest| rest.parse::<usize>().ok())
            else {
                continue;
            };
            let topo = entry.path().join("topology");
            let pkg = std::fs::read_to_string(topo.join("physical_package_id"))
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok());
            let core = std::fs::read_to_string(topo.join("core_id"))
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok());
            match (pkg, core) {
                (Some(p), Some(c)) => {
                    packages.insert(p);
                    cores.insert((p, c));
                    hw_threads += 1;
                    let _ = id;
                }
                _ => return None,
            }
        }
        if packages.is_empty() || cores.is_empty() || hw_threads == 0 {
            return None;
        }
        let sockets = packages.len();
        let total_cores = cores.len();
        if !total_cores.is_multiple_of(sockets) || !hw_threads.is_multiple_of(total_cores) {
            // Asymmetric machine (e.g. some cores offline); use the flat
            // fallback rather than a wrong rectangular model.
            return None;
        }
        Some(Topology {
            sockets,
            cores_per_socket: total_cores / sockets,
            threads_per_core: hw_threads / total_cores,
        })
    }

    /// Total number of physical cores.
    pub const fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Total number of hardware threads.
    pub const fn total_hw_threads(&self) -> usize {
        self.total_cores() * self.threads_per_core
    }

    /// The socket a core belongs to.
    pub const fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId(core.0 / self.cores_per_socket)
    }

    /// The core a hardware thread belongs to.
    pub const fn core_of_hw_thread(&self, hw: HwThreadId) -> CoreId {
        CoreId(hw.0 % self.total_cores())
    }

    /// The socket a hardware thread belongs to.
    pub const fn socket_of_hw_thread(&self, hw: HwThreadId) -> SocketId {
        self.socket_of_core(self.core_of_hw_thread(hw))
    }

    /// The SMT sibling index (0-based) of a hardware thread within its core.
    pub const fn smt_index(&self, hw: HwThreadId) -> usize {
        hw.0 / self.total_cores()
    }

    /// The `smt`-th hardware thread of a core.
    pub const fn hw_thread(&self, core: CoreId, smt: usize) -> HwThreadId {
        HwThreadId(smt * self.total_cores() + core.0)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_dimensions() {
        let t = Topology::paper_machine();
        assert_eq!(t.total_cores(), 80);
        assert_eq!(t.total_hw_threads(), 160);
    }

    #[test]
    fn socket_and_core_mapping() {
        let t = Topology::paper_machine();
        assert_eq!(t.socket_of_core(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of_core(CoreId(9)), SocketId(0));
        assert_eq!(t.socket_of_core(CoreId(10)), SocketId(1));
        assert_eq!(t.socket_of_core(CoreId(79)), SocketId(7));
    }

    #[test]
    fn hw_thread_numbering_is_sibling_major() {
        let t = Topology::paper_machine();
        // First hyperthread of core 5 is CPU 5; its sibling is CPU 85.
        assert_eq!(t.hw_thread(CoreId(5), 0), HwThreadId(5));
        assert_eq!(t.hw_thread(CoreId(5), 1), HwThreadId(85));
        assert_eq!(t.core_of_hw_thread(HwThreadId(85)), CoreId(5));
        assert_eq!(t.smt_index(HwThreadId(85)), 1);
        assert_eq!(t.smt_index(HwThreadId(5)), 0);
        assert_eq!(t.socket_of_hw_thread(HwThreadId(85)), SocketId(0));
    }

    #[test]
    fn detect_produces_a_consistent_model() {
        let t = Topology::detect();
        assert!(t.sockets >= 1);
        assert!(t.cores_per_socket >= 1);
        assert!(t.threads_per_core >= 1);
        assert_eq!(
            t.total_hw_threads(),
            t.sockets * t.cores_per_socket * t.threads_per_core
        );
    }
}
