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
//! This crate provides the three lock families that discussion references —
//! a test-and-test-and-set [`SpinLock`], a FIFO [`TicketLock`], and
//! Anderson's array lock ([`ArrayLock`]) — behind a common [`RawLock`]
//! trait so the baseline table (and the lock-ablation benchmark) can be
//! instantiated with any of them.  [`LockTable`] packages a cache-line
//! padded array of locks, one per partition or per bucket, exactly as
//! LOCKHASH and LOCKSERVER need.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod anderson;
pub mod atomic;
pub mod lock_table;
pub mod spinlock;
pub mod stats;
pub mod thread;
pub mod ticket;

pub use anderson::ArrayLock;
pub use atomic::{spin_hint, ModelUnsafeCell};
pub use lock_table::{LockKind, LockTable};
pub use spinlock::{RawSpinLock, SpinLock, SpinLockGuard};
pub use stats::LockStats;
pub use ticket::TicketLock;

/// A raw mutual-exclusion primitive.
///
/// `lock`/`unlock` pairs must be balanced by the caller; the safe wrappers
/// ([`SpinLock`], [`LockTable`]) enforce this with RAII guards.  The trait
/// exists so LOCKHASH can be measured with different lock algorithms without
/// touching the hash-table code (the paper's §6.2 spinlock-vs-Anderson
/// discussion becomes an ablation benchmark).
pub trait RawLock: Send + Sync + Default {
    /// Acquire the lock, spinning until it is available.
    fn raw_lock(&self);

    /// Try to acquire the lock without spinning. Returns `true` on success.
    fn raw_try_lock(&self) -> bool;

    /// Release the lock. Must only be called by the current holder.
    fn raw_unlock(&self);

    /// Human-readable name used in benchmark output.
    fn name() -> &'static str;
}

/// Exponential-backoff helper shared by the spinning loops.
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
