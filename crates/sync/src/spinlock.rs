//! Test-and-test-and-set spinlock — the lock LOCKHASH uses.

use crate::atomic::{AtomicBool, Ordering};

use crate::Backoff;

/// A test-and-test-and-set spinlock.
///
/// The uncontended fast path is a single atomic swap on one cache line —
/// "one cache miss to acquire and no cache misses to release" in the paper's
/// accounting — which is why LOCKHASH prefers it over scalable queue locks
/// when the number of partitions (4,096) is large enough to keep contention
/// low.
///
/// The contended path first spins on a plain load (keeping the line in
/// shared state) and only retries the swap when the lock looks free, with
/// exponential backoff to bound coherence traffic.
///
/// `lock`/`unlock` pairs must be balanced by the caller; [`crate::LockTable`]
/// enforces this with an RAII guard.
#[derive(Default)]
pub struct RawSpinLock {
    locked: AtomicBool,
}

impl RawSpinLock {
    /// Create an unlocked spinlock.
    pub const fn new() -> Self {
        RawSpinLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Acquire the lock, spinning until it is available.
    #[inline]
    pub fn lock(&self) {
        let mut backoff = Backoff::new();
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            // Test-and-test-and-set: spin on the read-only test so the line
            // stays shared instead of ping-ponging in exclusive state.
            // relaxed: the acquiring swap above is the synchronizing op.
            while self.locked.load(Ordering::Relaxed) {
                backoff.snooze();
            }
        }
    }

    /// Try to acquire the lock without spinning. Returns `true` on success.
    #[inline]
    pub fn try_lock(&self) -> bool {
        !self.locked.swap(true, Ordering::Acquire)
    }

    /// Release the lock. Must only be called by the current holder.
    #[inline]
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_lock_fails_while_held() {
        let lock = RawSpinLock::new();
        lock.lock();
        assert!(!lock.try_lock());
        lock.unlock();
        assert!(lock.try_lock());
        lock.unlock();
    }
}
