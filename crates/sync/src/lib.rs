//! Locks for the LOCKHASH baseline.
//!
//! The CPHash paper compares its message-passing table against a highly
//! optimized fine-grained-locking table.  §6.2 is explicit about the lock
//! choice:
//!
//! > "LOCKHASH uses a spinlock to protect each hash table partition from
//! > concurrent access. Although the spinlock is not scalable, it performs
//! > better than a scalable lock. For example, Anderson's scalable lock
//! > requires a constant two cache misses to acquire the lock, and one more
//! > cache miss to release. In contrast, an uncontended spinlock requires
//! > one cache miss to acquire and no cache misses to release."
//!
//! This crate provides that spinlock ([`RawSpinLock`], test-and-test-and-set)
//! and [`LockTable`], a cache-line padded array of them, one per partition
//! or per bucket, exactly as LOCKHASH and LOCKSERVER need.  It is also the
//! home of the workspace's [`atomic`] and [`thread`] facades, which the
//! model checker swaps under `--cfg cphash_model`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomic;
pub mod lock_table;
pub mod spinlock;
pub mod stats;
pub mod thread;

pub use atomic::{spin_hint, ModelUnsafeCell};
pub use lock_table::LockTable;
pub use spinlock::RawSpinLock;
pub use stats::LockStats;

/// Exponential-backoff helper for the spinlock's contended path.
///
/// Spins with `core::hint::spin_loop` a growing number of times, then
/// yields to the scheduler once the backoff saturates so that oversubscribed
/// test environments (more spinners than CPUs) still make progress.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spin limit (log2) before the backoff starts yielding the CPU.
    #[cfg_attr(cphash_model, allow(dead_code))]
    const YIELD_LIMIT: u32 = 10;

    /// Create a fresh backoff.
    #[inline]
    pub const fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Perform one backoff step.
    #[inline]
    pub fn snooze(&mut self) {
        #[cfg(cphash_model)]
        {
            // One scheduling point per snooze: the model's yield-aware
            // scheduler already deprioritizes the spinner, and 2^step
            // hints would only bloat the schedule.
            atomic::spin_hint();
        }
        #[cfg(not(cphash_model))]
        if self.step <= Self::YIELD_LIMIT {
            for _ in 0..(1u32 << self.step) {
                atomic::spin_hint();
            }
            self.step += 1;
        } else {
            std::thread::yield_now();
        }
    }

    /// Reset to the initial (shortest) backoff.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_snoozes_and_resets() {
        let mut b = Backoff::new();
        for _ in 0..20 {
            b.snooze();
        }
        assert!(b.step >= Backoff::YIELD_LIMIT);
        b.reset();
        assert_eq!(b.step, 0);
    }
}
