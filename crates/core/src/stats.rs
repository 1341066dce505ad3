//! Shared runtime statistics for a CPHash table.

use cphash_sync::atomic::plain::{AtomicBool, AtomicU64, Ordering};

use cphash_affinity::PinOutcome;
use cphash_perfmon::{BatchCounters, BatchStats};

/// Counters one server thread updates while running; read by the table
/// handle and the benchmark reports.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Requests (protocol messages) processed.
    pub messages: AtomicU64,
    /// Hash-table operations completed (lookup/insert/delete).
    pub operations: AtomicU64,
    /// Loop iterations that found at least one message.
    pub busy_iterations: AtomicU64,
    /// Loop iterations that found every queue empty ("the rest of the time
    /// is spent polling idle buffers", §6.2).
    pub idle_iterations: AtomicU64,
    /// Times the server went to sleep behind its doorbell after its lanes
    /// stayed empty (it makes no iterations, idle or busy, while asleep).
    pub parks: AtomicU64,
    /// Of `parks`, those whose spin ran on the short budget of a server
    /// whose every client was announced asleep (see
    /// [`crate::ClientHandle::asleep_during`]) instead of the full one.
    pub clients_asleep_parks: AtomicU64,
    /// Timestamp-counter cycles spent asleep, summed over `parks`.
    pub parked_cycles: AtomicU64,
    /// Timestamp-counter cycles spent spinning over empty lanes before
    /// each of `parks`: from the first yield point of the idle stretch to
    /// the park that ended it.  Divided by `parks`, the spin a sleep costs.
    pub idle_spin_cycles: AtomicU64,
    /// Whether the server thread managed to pin itself to its assigned
    /// hardware thread.
    pub pinned: AtomicBool,
    /// Whether the server thread has exited its loop.
    pub stopped: AtomicBool,
    /// Keys this server exported during live re-partitioning.
    pub keys_migrated_out: AtomicU64,
    /// Keys this server absorbed during live re-partitioning.
    pub keys_migrated_in: AtomicU64,
    /// Request words drained from this server's lanes in its most recent
    /// loop iteration — a live sample of the inbound queue depth.  The
    /// migration pacer's feedback mode reads this to decide whether the
    /// server is falling behind while chunks are being handed off.
    pub queue_depth: AtomicU64,
    /// Batch-pipeline counters (staged rounds, their occupancy, prefetches
    /// issued).
    pub batch: BatchCounters,
    /// Staged runs that stopped short of the pipeline depth because the
    /// next message was a control message (`Ready`, `Decref`, migration
    /// plumbing), which executes on its own, in place.  With `batch`'s
    /// round count this says why occupancy is what it is: a closed loop of
    /// lookups on values that travel by pointer cuts a run per `Decref`.
    pub run_cuts: AtomicU64,
}

impl ServerStats {
    /// New zeroed stats block.
    pub fn new() -> Self {
        ServerStats::default()
    }

    pub(crate) fn record_pin(&self, outcome: PinOutcome) {
        self.pinned.store(outcome.is_pinned(), Ordering::Relaxed); // relaxed: diagnostic gauge; guards no data
    }

    /// Fraction of *awake* loop iterations that found work, in `[0, 1]` —
    /// the utilization figure §6.2 reports as "server threads spend 59% of
    /// the time processing … the rest is spent polling idle buffers".  A
    /// parked server makes no iterations, so time asleep counts on neither
    /// side: see [`ServerStats::parked_cycles`] for that share.
    pub fn utilization(&self) -> f64 {
        let busy = self.busy_iterations.load(Ordering::Relaxed) as f64; // relaxed: diagnostic snapshot; tearing across counters is fine
        let idle = self.idle_iterations.load(Ordering::Relaxed) as f64; // relaxed: diagnostic snapshot; tearing across counters is fine
        if busy + idle == 0.0 {
            0.0
        } else {
            busy / (busy + idle)
        }
    }

    /// Messages processed so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Operations completed so far.
    pub fn operations(&self) -> u64 {
        self.operations.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Whether the server pinned successfully.
    pub fn is_pinned(&self) -> bool {
        self.pinned.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Whether the server has exited.
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Times the server has gone to sleep so far.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Sleeps so far that followed the clients-asleep spin budget.
    pub fn clients_asleep_parks(&self) -> u64 {
        self.clients_asleep_parks.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Cycles the server has spent asleep so far.
    pub fn parked_cycles(&self) -> u64 {
        self.parked_cycles.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Cycles the server has spun on empty lanes before its sleeps so far.
    pub fn idle_spin_cycles(&self) -> u64 {
        self.idle_spin_cycles.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Staged runs cut short by a control message so far.
    pub fn run_cuts(&self) -> u64 {
        self.run_cuts.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Most recent inbound queue-depth sample (words drained in one loop
    /// iteration).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Snapshot of this server's batch-pipeline counters.
    pub fn batch_stats(&self) -> BatchStats {
        self.batch.snapshot()
    }
}

/// A snapshot of the whole table's activity, aggregated over servers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TableSnapshot {
    /// Total protocol messages processed by all servers.
    pub messages: u64,
    /// Total hash-table operations completed by all servers.
    pub operations: u64,
    /// Mean server utilization in `[0, 1]`.
    pub mean_utilization: f64,
    /// Number of server threads that are actually pinned.
    pub pinned_servers: usize,
    /// Number of server threads.
    pub servers: usize,
    /// Merged batch-pipeline counters across the servers.
    pub batch: BatchStats,
}

impl TableSnapshot {
    /// Aggregate a set of per-server stats blocks.
    pub fn aggregate(stats: &[std::sync::Arc<ServerStats>]) -> TableSnapshot {
        let mut snap = TableSnapshot {
            servers: stats.len(),
            ..Default::default()
        };
        let mut util_sum = 0.0;
        for s in stats {
            snap.messages += s.messages();
            snap.operations += s.operations();
            util_sum += s.utilization();
            snap.batch.merge(&s.batch_stats());
            if s.is_pinned() {
                snap.pinned_servers += 1;
            }
        }
        if !stats.is_empty() {
            snap.mean_utilization = util_sum / stats.len() as f64;
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn utilization_math() {
        let s = ServerStats::new();
        assert_eq!(s.utilization(), 0.0);
        s.busy_iterations.store(59, Ordering::Relaxed);
        s.idle_iterations.store(41, Ordering::Relaxed);
        assert!((s.utilization() - 0.59).abs() < 1e-12);
    }

    #[test]
    fn aggregation_sums_and_averages() {
        let a = Arc::new(ServerStats::new());
        let b = Arc::new(ServerStats::new());
        a.messages.store(10, Ordering::Relaxed);
        b.messages.store(30, Ordering::Relaxed);
        a.operations.store(5, Ordering::Relaxed);
        b.operations.store(15, Ordering::Relaxed);
        a.busy_iterations.store(1, Ordering::Relaxed);
        a.idle_iterations.store(1, Ordering::Relaxed);
        b.busy_iterations.store(3, Ordering::Relaxed);
        b.idle_iterations.store(1, Ordering::Relaxed);
        a.pinned.store(true, Ordering::Relaxed);
        let snap = TableSnapshot::aggregate(&[a, b]);
        assert_eq!(snap.messages, 40);
        assert_eq!(snap.operations, 20);
        assert_eq!(snap.servers, 2);
        assert_eq!(snap.pinned_servers, 1);
        assert!((snap.mean_utilization - 0.625).abs() < 1e-12);
    }

    #[test]
    fn record_pin_reflects_outcome() {
        let s = ServerStats::new();
        s.record_pin(PinOutcome::Refused);
        assert!(!s.is_pinned());
        s.record_pin(PinOutcome::Pinned(cphash_affinity::HwThreadId(0)));
        assert!(s.is_pinned());
    }
}
