//! Lock acquisition statistics.
//!
//! LOCKHASH's performance story is told in lock events: how often an
//! acquisition found the lock already held (a contended acquire costs extra
//! coherence traffic — the "Spinlock acquire: 0.1 L2 / 0.9 L3 misses" row of
//! Figure 7).  `LockStats` is a cheap, always-on counter block the baseline
//! table updates on every acquire so the benchmark harness can report
//! contention alongside throughput.

use crate::atomic::plain::{AtomicU64, Ordering};

/// Counters describing how a set of locks has been used.
///
/// Both counters are monotonically increasing and updated with relaxed
/// atomics; they are read only when printing reports.
#[derive(Debug, Default)]
pub struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl LockStats {
    /// Create a zeroed counter block.
    pub const fn new() -> Self {
        LockStats {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Record one acquisition; `contended` says whether the fast path failed.
    #[inline]
    pub fn record_acquire(&self, contended: bool) {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            // relaxed: monotonic stat counter, read only by diagnostics
            self.contended.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total number of acquisitions recorded.
    pub fn acquisitions(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Number of acquisitions whose fast path failed.
    pub fn contended(&self) -> u64 {
        // relaxed: monotonic stat counter, read only by diagnostics
        self.contended.load(Ordering::Relaxed)
    }

    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        let acq = self.acquisitions();
        if acq == 0 {
            0.0
        } else {
            self.contended() as f64 / acq as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_ratios() {
        let s = LockStats::new();
        assert_eq!(s.contention_ratio(), 0.0);
        s.record_acquire(false);
        s.record_acquire(true);
        s.record_acquire(true);
        assert_eq!(s.acquisitions(), 3);
        assert_eq!(s.contended(), 2);
        assert!((s.contention_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }
}
