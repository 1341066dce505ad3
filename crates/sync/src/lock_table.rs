//! Cache-line padded arrays of locks.
//!
//! LOCKHASH protects each of its 4,096 partitions with its own lock
//! (and, under the random-eviction policy, each *bucket* with its own lock,
//! §4.2).  Packing many `AtomicBool`s densely would put dozens of unrelated
//! locks on one cache line and re-introduce exactly the coherence traffic
//! the fine-grained design is trying to avoid, so each lock is padded to its
//! own line.  `LockTable` wraps that array together with acquisition
//! statistics.

use cphash_cacheline::CacheAligned;

use crate::{LockStats, RawSpinLock};

/// An array of `n` independent spinlocks, each padded to its own cache
/// line, with shared acquisition statistics.
///
/// LOCKHASH indexes it by partition id; the per-bucket-locking variant
/// indexes it by bucket id modulo the table length.
pub struct LockTable {
    locks: Box<[CacheAligned<RawSpinLock>]>,
    stats: LockStats,
}

impl LockTable {
    /// Create a table of `n` locks.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a lock table needs at least one lock");
        LockTable {
            locks: (0..n)
                .map(|_| CacheAligned::new(RawSpinLock::new()))
                .collect(),
            stats: LockStats::new(),
        }
    }

    /// Number of locks in the table.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Returns `true` if the table has no locks (never constructible).
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// Acquisition statistics for the whole table.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Acquire lock `index` (modulo the table size) and return an RAII guard.
    ///
    /// Tries the fast path first so an acquisition that found the lock held
    /// is counted as contended.
    #[inline]
    pub fn lock(&self, index: usize) -> TableGuard<'_> {
        let lock = &self.locks[index % self.locks.len()];
        let contended = !lock.try_lock();
        if contended {
            lock.lock();
        }
        self.stats.record_acquire(contended);
        TableGuard { lock }
    }
}

/// RAII guard for one lock in a [`LockTable`].
pub struct TableGuard<'a> {
    lock: &'a RawSpinLock,
}

impl Drop for TableGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        self.lock.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn builds_a_table() {
        let t = LockTable::new(8);
        assert_eq!(t.len(), 8);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one lock")]
    fn zero_locks_panics() {
        let _ = LockTable::new(0);
    }

    #[test]
    fn indices_wrap_modulo_len() {
        let t = LockTable::new(4);
        let g = t.lock(1);
        // Index 5 maps to the same lock as index 1 and must block; use
        // try-lock semantics indirectly by locking a different slot.
        let g2 = t.lock(2);
        drop(g);
        drop(g2);
        assert_eq!(t.stats().acquisitions(), 2);
    }

    #[test]
    fn parallel_counters_per_slot_are_exact() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let table = Arc::new(LockTable::new(2));
        let counters = Arc::new([
            std::sync::atomic::AtomicU64::new(0),
            std::sync::atomic::AtomicU64::new(0),
        ]);
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = Arc::clone(&table);
                let counters = Arc::clone(&counters);
                thread::spawn(move || {
                    for i in 0..ITERS {
                        let idx = (t + i) % 2;
                        let _guard = table.lock(idx);
                        let v = counters[idx].load(std::sync::atomic::Ordering::Relaxed);
                        counters[idx].store(v + 1, std::sync::atomic::Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = counters
            .iter()
            .map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        assert_eq!(total, (THREADS * ITERS) as u64);
        assert_eq!(table.stats().acquisitions(), (THREADS * ITERS) as u64);
    }
}
