//! Counters for the batched, prefetch-pipelined server hot loop.
//!
//! Every CPHash server thread drains its client lanes in batches, prefetches
//! the hash buckets for the whole batch, and only then executes the
//! operations.  [`BatchCounters`] is the lock-free block those threads
//! update; [`BatchStats`] is the plain snapshot everything downstream
//! (table snapshots, CPSERVER metrics, the `ablate_prefetch` harness)
//! reports.  The interesting derived figure is the **average batch
//! occupancy** — how many operations each synchronization round actually
//! carried, i.e. how much DRAM latency the pipeline had the opportunity to
//! overlap.
//
// cphash-lint: hot-path

use cphash_sync::atomic::plain::{single_writer_add, AtomicU64, Ordering};

/// Lock-free batch-pipeline counters, updated by one server thread and read
/// by anyone.  That thread is the only writer, so its adds are plain loads
/// and stores.
#[derive(Debug, Default)]
pub struct BatchCounters {
    /// Batched execution rounds completed.
    batches: AtomicU64,
    /// Data operations executed inside batched rounds.
    ops: AtomicU64,
    /// Software prefetches issued during the staging pass.
    prefetches: AtomicU64,
}

impl BatchCounters {
    /// New zeroed counters.
    pub fn new() -> Self {
        BatchCounters::default()
    }

    /// Record one batched round that executed `ops` operations and issued
    /// `prefetches` bucket prefetches.
    #[inline]
    pub fn note_batch(&self, ops: u64, prefetches: u64) {
        single_writer_add(&self.batches, 1);
        single_writer_add(&self.ops, ops);
        single_writer_add(&self.prefetches, prefetches);
    }

    /// A plain snapshot of the current counter values.
    pub fn snapshot(&self) -> BatchStats {
        BatchStats {
            batches: self.batches.load(Ordering::Relaxed), // relaxed: diagnostic snapshot; tearing across counters is fine
            ops: self.ops.load(Ordering::Relaxed), // relaxed: diagnostic snapshot; tearing across counters is fine
            prefetches: self.prefetches.load(Ordering::Relaxed), // relaxed: diagnostic snapshot; tearing across counters is fine
        }
    }
}

/// A point-in-time view of [`BatchCounters`], mergeable across servers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchStats {
    /// Batched execution rounds completed.
    pub batches: u64,
    /// Data operations executed inside batched rounds.
    pub ops: u64,
    /// Software prefetches issued during staging passes.
    pub prefetches: u64,
}

impl BatchStats {
    /// Mean operations per batched round (0 when no batch ran) — the
    /// pipeline depth the workload actually achieved.
    pub fn avg_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.ops as f64 / self.batches as f64
        }
    }

    /// Accumulate another server's snapshot into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.batches += other.batches;
        self.ops += other.ops;
        self.prefetches += other.prefetches;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let c = BatchCounters::new();
        c.note_batch(8, 8);
        c.note_batch(4, 0);
        let s = c.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.ops, 12);
        assert_eq!(s.prefetches, 8);
        assert!((s.avg_occupancy() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_safe_and_merge_sums() {
        let mut a = BatchStats::default();
        assert_eq!(a.avg_occupancy(), 0.0);
        a.merge(&BatchStats {
            batches: 3,
            ops: 30,
            prefetches: 29,
        });
        a.merge(&BatchStats {
            batches: 1,
            ops: 2,
            prefetches: 0,
        });
        assert_eq!(a.batches, 4);
        assert_eq!(a.ops, 32);
        assert_eq!(a.prefetches, 29);
        assert_eq!(a.avg_occupancy(), 8.0);
    }
}
