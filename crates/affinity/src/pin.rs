//! Thread pinning via `sched_setaffinity`.
//!
//! "CPHASH pins each server thread to its hardware thread" (§3) — pinning is
//! what turns the partition-per-core idea into actual cache residency.  The
//! container environments this reproduction runs in sometimes forbid
//! affinity changes, so pinning reports an explicit [`PinOutcome`] instead
//! of failing: benchmarks record whether their run was actually pinned.

use crate::topology::HwThreadId;

/// Result of a pinning attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PinOutcome {
    /// The calling thread is now bound to the requested hardware thread.
    Pinned(HwThreadId),
    /// The OS refused the affinity change (e.g. restricted cpuset in a
    /// container); the thread keeps its previous affinity mask.
    Refused,
    /// The requested hardware thread does not exist on this machine, so the
    /// request was ignored (common when a placement computed for a larger
    /// topology, such as [`crate::Topology::paper_machine`], runs on a
    /// smaller box).
    OutOfRange(HwThreadId),
    /// Pinning is not supported on this platform (non-Linux).
    Unsupported,
}

impl PinOutcome {
    /// Whether the calling thread ended up bound to the requested CPU.
    pub fn is_pinned(&self) -> bool {
        matches!(self, PinOutcome::Pinned(_))
    }
}

/// Pin the calling thread to the given hardware thread.
///
/// On Linux this issues `sched_setaffinity(0, …)` with a single-CPU mask.
/// Elsewhere it returns [`PinOutcome::Unsupported`].
pub fn pin_to_hw_thread(hw: HwThreadId) -> PinOutcome {
    let online = available_hw_threads();
    if hw.0 >= online {
        return PinOutcome::OutOfRange(hw);
    }
    imp::pin(hw)
}

/// Number of hardware threads the OS exposes to this process.
pub fn available_hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU the calling thread is currently executing on, if the platform can
/// tell us.
pub fn current_hw_thread() -> Option<HwThreadId> {
    imp::current()
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{HwThreadId, PinOutcome};

    pub fn pin(hw: HwThreadId) -> PinOutcome {
        // SAFETY: cpu_set_t is a plain bitmask; CPU_ZERO/CPU_SET only write
        // within the struct; sched_setaffinity reads it.
        unsafe {
            let mut set: libc::cpu_set_t = std::mem::zeroed();
            libc::CPU_ZERO(&mut set);
            libc::CPU_SET(hw.0, &mut set);
            let rc = libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set);
            if rc == 0 {
                PinOutcome::Pinned(hw)
            } else {
                PinOutcome::Refused
            }
        }
    }

    pub fn current() -> Option<HwThreadId> {
        // SAFETY: sched_getcpu has no preconditions.
        let cpu = unsafe { libc::sched_getcpu() };
        if cpu >= 0 {
            Some(HwThreadId(cpu as usize))
        } else {
            None
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::{HwThreadId, PinOutcome};

    pub fn pin(_hw: HwThreadId) -> PinOutcome {
        PinOutcome::Unsupported
    }

    pub fn current() -> Option<HwThreadId> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_is_reported() {
        let outcome = pin_to_hw_thread(HwThreadId(usize::MAX / 2));
        assert_eq!(outcome, PinOutcome::OutOfRange(HwThreadId(usize::MAX / 2)));
        assert!(!outcome.is_pinned());
    }

    #[test]
    fn pinning_to_cpu0_succeeds_or_is_refused() {
        // CPU 0 always exists; in a restricted container the call may be
        // refused, but it must never be OutOfRange or Unsupported on Linux.
        let outcome = pin_to_hw_thread(HwThreadId(0));
        match outcome {
            PinOutcome::Pinned(hw) => {
                assert_eq!(hw, HwThreadId(0));
                // After a successful pin, the scheduler must run us on CPU 0.
                if let Some(cur) = current_hw_thread() {
                    assert_eq!(cur, HwThreadId(0));
                }
            }
            PinOutcome::Refused => {}
            #[cfg(not(target_os = "linux"))]
            PinOutcome::Unsupported => {}
            other => panic!("unexpected outcome: {other:?}"),
        }
    }

    #[test]
    fn available_hw_threads_is_positive() {
        assert!(available_hw_threads() >= 1);
    }

    #[test]
    fn pin_outcome_predicates() {
        assert!(PinOutcome::Pinned(HwThreadId(3)).is_pinned());
        assert!(!PinOutcome::Refused.is_pinned());
        assert!(!PinOutcome::Unsupported.is_pinned());
    }
}
