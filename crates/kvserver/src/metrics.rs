//! Shared request metrics for the key/value servers.
//!
//! All three servers (CPSERVER, LOCKSERVER, the memcache cluster) report
//! through one [`ServerMetrics`] block, which registers every counter on a
//! [`MetricsRegistry`] at construction.  The registry is what the `Stats`
//! admin op and the `--stats-addr` HTTP endpoint render; the unified
//! [`StatsSnapshot`] is the typed view the in-process benchmarks read.
//! Sources that already keep their own lock-free counters (`FrontendStats`,
//! the table's `ServerStats`, the latency window, the trace rings) are
//! registered as sampled collectors, so scraping them costs the hot path
//! nothing.

use cphash_sync::atomic::plain::{AtomicU64, Ordering};
use std::sync::Arc;

use cphash_perfmon::trace;
use cphash_perfmon::{BatchStats, Counter, MetricsRegistry, MetricsSnapshot, SharedLatencyWindow};
use parking_lot::Mutex;

/// Front-end reactor counters: how often workers wake and how much each
/// wake-up accomplishes.
///
/// The interesting property is what bounds `wakeups`: under epoll it is
/// bounded by *activity* (batches of bytes arriving), under the busy-poll
/// fallback by *loop iterations*.
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// `wait` calls that delivered at least one readiness event.
    pub wakeups: AtomicU64,
    /// Total readiness events delivered.
    pub events: AtomicU64,
    /// Blocking `wait` calls that timed out with nothing to do.
    pub idle_sleeps: AtomicU64,
    /// Syscalls the backend issued (interest-list mutations + waits).
    pub syscalls: AtomicU64,
}

impl FrontendStats {
    /// Wake-ups observed so far.
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Readiness events observed so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Idle sleeps observed so far.
    pub fn idle_sleeps(&self) -> u64 {
        self.idle_sleeps.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Mean events delivered per wake-up (0 when there were none).
    pub fn events_per_wakeup(&self) -> f64 {
        let wakeups = self.wakeups();
        if wakeups == 0 {
            0.0
        } else {
            self.events() as f64 / wakeups as f64
        }
    }

    /// Record a wait that delivered `events` readiness events.
    pub fn note_wakeup(&self, events: u64) {
        self.wakeups.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
        self.events.fetch_add(events, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
    }

    /// Record a blocking wait that timed out empty.
    pub fn note_idle_sleep(&self) {
        self.idle_sleeps.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
    }

    /// Syscalls issued by the reactor backend so far.
    pub fn syscalls(&self) -> u64 {
        self.syscalls.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Record `n` syscalls issued by the reactor backend.
    pub fn note_syscalls(&self, n: u64) {
        self.syscalls.fetch_add(n, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
    }
}

/// Live re-partitioning progress, updated by the admin worker after each
/// repartition (and by the pacer while one runs).
#[derive(Debug, Default)]
pub struct MigrationProgress {
    /// Repartition commands completed.
    pub repartitions: AtomicU64,
    /// Migration chunks handed off across all repartitions.
    pub chunks_moved: AtomicU64,
    /// Keys moved inside those chunks.
    pub keys_moved: AtomicU64,
    /// Times the pacer made the migration loop wait for the table to
    /// recover.
    pub paced_waits: AtomicU64,
    /// Most recent pacer rate in chunks/second (`f64` bits; 0 = unpaced or
    /// idle).
    rate_bits: AtomicU64,
}

impl MigrationProgress {
    /// Record one completed repartition.
    pub fn note_repartition(&self, chunks: u64, keys: u64, paced_waits: u64) {
        self.repartitions.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
        self.chunks_moved.fetch_add(chunks, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
        self.keys_moved.fetch_add(keys, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
        self.paced_waits.fetch_add(paced_waits, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
    }

    /// Publish the pacer's current chunks/second rate.
    pub fn set_pacer_rate(&self, chunks_per_sec: f64) {
        self.rate_bits
            .store(chunks_per_sec.to_bits(), Ordering::Relaxed); // relaxed: diagnostic gauge; guards no data
    }

    /// The most recently published pacer rate in chunks/second.
    pub fn pacer_rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed)) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Chunks handed off so far.
    pub fn chunks_moved(&self) -> u64 {
        self.chunks_moved.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Keys moved so far.
    pub fn keys_moved(&self) -> u64 {
        self.keys_moved.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }

    /// Pacer-imposed waits so far.
    pub fn paced_waits(&self) -> u64 {
        self.paced_waits.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
    }
}

/// The unified typed stats snapshot every server exposes — one struct for
/// CPSERVER, LOCKSERVER and the memcache cluster, so tooling never has to
/// know which server it is scraping.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Total requests decoded from TCP connections.
    pub requests: u64,
    /// LOOKUP requests.
    pub lookups: u64,
    /// LOOKUPs that found a value.
    pub hits: u64,
    /// INSERT requests.
    pub inserts: u64,
    /// DELETE requests (kvproto v2).
    pub deletes: u64,
    /// Bytes read from sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Admin commands (resize) received.
    pub admin_commands: u64,
    /// Wire-level `Retry` replies emitted.
    pub retries_emitted: u64,
    /// Reactor waits that delivered events.
    pub frontend_wakeups: u64,
    /// Readiness events delivered.
    pub frontend_events: u64,
    /// Reactor waits that timed out empty.
    pub frontend_idle_sleeps: u64,
    /// Syscalls issued by the reactor backends (mutations + waits).
    pub frontend_syscalls: u64,
    /// `read(2)` calls issued on client connections.
    pub conn_read_syscalls: u64,
    /// `write(2)` calls issued on client connections.
    pub conn_write_syscalls: u64,
    /// Merged batch-pipeline counters across the table's server threads.
    pub batch: BatchStats,
    /// Summed inbound queue-depth sample across server threads.
    pub queue_depth: u64,
    /// Times the table's server threads went to sleep on empty lanes.
    pub server_parks: u64,
    /// Timestamp-counter cycles the table's server threads spent asleep.
    pub server_parked_cycles: u64,
    /// Timestamp-counter cycles the table's server threads spun on empty
    /// lanes before going to sleep (divided by `server_parks`: the spin
    /// per sleep).
    pub server_idle_spin_cycles: u64,
    /// Staged runs the table's server threads ended short of the pipeline
    /// depth at a control message (`Ready` / `Decref` / migration).
    pub server_run_cuts: u64,
    /// Migration chunks handed off.
    pub migration_chunks: u64,
    /// Keys moved during live re-partitioning.
    pub migration_keys: u64,
    /// Pacer-imposed waits during migration.
    pub migration_paced_waits: u64,
    /// Most recent pacer rate in chunks/second.
    pub migration_pacer_rate: f64,
    /// Probes resolved from a bucket line's tagged inline slots.
    pub bucket_inline_hits: u64,
    /// Elements walked on bucket overflow chains past the inline slots.
    pub bucket_overflow_probes: u64,
    /// Inline tag matches whose full key comparison then failed.
    pub bucket_tag_false_positives: u64,
}

/// Data requests a worker has counted since it last published them with
/// [`ServerMetrics::note_requests`]: a worker publishes once per loop
/// iteration, an atomic add per counter, where counting each request
/// took two or three.
#[derive(Debug, Default)]
pub(crate) struct RequestTally {
    pub(crate) lookups: u64,
    pub(crate) hits: u64,
    pub(crate) inserts: u64,
    pub(crate) deletes: u64,
}

/// Request counters, updated by worker threads and read by benchmarks.
///
/// Counters live on the [`MetricsRegistry`] (per-thread sharded atomics);
/// the raw shared sources (`frontend`, `latency`, the table's batch
/// counters, migration progress) are registered as sampled collectors.
pub struct ServerMetrics {
    registry: MetricsRegistry,
    requests: Counter,
    lookups: Counter,
    hits: Counter,
    inserts: Counter,
    deletes: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    connections: Counter,
    admin_commands: Counter,
    retries_emitted: Counter,
    conn_read_syscalls: Counter,
    conn_write_syscalls: Counter,
    /// Reactor counters, shared by every worker's front-end.
    pub frontend: Arc<FrontendStats>,
    /// Windowed request latency (enqueue → in-order reply), the signal
    /// source for the migration pacer's latency-feedback mode.  Stats
    /// scrapes read it with `peek` so they never steal the pacer's samples.
    pub latency: Arc<SharedLatencyWindow>,
    /// Live re-partitioning progress.
    pub migration: Arc<MigrationProgress>,
    /// The table's per-server batch-pipeline counters, attached at server
    /// start so callers can read hot-loop batching/prefetch statistics
    /// through the same metrics handle as everything else.
    batch_sources: Arc<Mutex<Vec<Arc<cphash::ServerStats>>>>,
    /// Samplers for the table's merged partition statistics (bucket-layout
    /// counters), attached at server start.
    partition_sources: Arc<Mutex<Vec<PartitionStatsFn>>>,
}

/// A non-destructive sampler of a table's merged partition statistics.
type PartitionStatsFn = Box<dyn Fn() -> cphash::PartitionStats + Send + Sync>;

/// Merge every attached table's partition statistics.
fn merged_partitions(sources: &Mutex<Vec<PartitionStatsFn>>) -> cphash::PartitionStats {
    let mut total = cphash::PartitionStats::default();
    for source in sources.lock().iter() {
        total.merge(&source());
    }
    total
}

/// Merge every attached server's batch counters.
fn merged_batch(sources: &Mutex<Vec<Arc<cphash::ServerStats>>>) -> BatchStats {
    let mut total = BatchStats::default();
    for source in sources.lock().iter() {
        total.merge(&source.batch_stats());
    }
    total
}

/// Sum one gauge or counter over every attached server.
fn summed(
    sources: &Mutex<Vec<Arc<cphash::ServerStats>>>,
    read: fn(&cphash::ServerStats) -> u64,
) -> u64 {
    sources.lock().iter().map(|s| read(s)).sum()
}

impl ServerMetrics {
    /// New zeroed metrics block with every metric registered.
    pub fn new() -> Self {
        let registry = MetricsRegistry::new();
        let frontend = Arc::new(FrontendStats::default());
        let latency = Arc::new(SharedLatencyWindow::new());
        let migration = Arc::new(MigrationProgress::default());
        let batch_sources: Arc<Mutex<Vec<Arc<cphash::ServerStats>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let partition_sources: Arc<Mutex<Vec<PartitionStatsFn>>> = Arc::new(Mutex::new(Vec::new()));

        let requests = registry.counter(
            "cphash_requests_total",
            "Requests decoded from TCP connections",
        );
        let lookups = registry.counter("cphash_lookups_total", "LOOKUP requests");
        let hits = registry.counter("cphash_lookup_hits_total", "LOOKUPs that found a value");
        let inserts = registry.counter("cphash_inserts_total", "INSERT requests");
        let deletes = registry.counter("cphash_deletes_total", "DELETE requests (kvproto v2)");
        let bytes_in = registry.counter("cphash_bytes_in_total", "Bytes read from sockets");
        let bytes_out = registry.counter("cphash_bytes_out_total", "Bytes written to sockets");
        let connections = registry.counter("cphash_connections_total", "Connections accepted");
        let admin_commands =
            registry.counter("cphash_admin_commands_total", "Admin (resize) commands");
        let retries_emitted = registry.counter(
            "cphash_retries_emitted_total",
            "Wire-level Retry replies emitted to shed overload",
        );

        let conn_read_syscalls = registry.counter(
            "cphash_conn_read_syscalls_total",
            "read(2) calls issued on client connections",
        );
        let conn_write_syscalls = registry.counter(
            "cphash_conn_write_syscalls_total",
            "write(2) calls issued on client connections",
        );

        let f = Arc::clone(&frontend);
        registry.counter_fn(
            "cphash_frontend_wakeups_total",
            "Reactor waits that delivered at least one readiness event",
            &[],
            move || f.wakeups(),
        );
        let f = Arc::clone(&frontend);
        registry.counter_fn(
            "cphash_frontend_events_total",
            "Readiness events delivered by the reactor",
            &[],
            move || f.events(),
        );
        let f = Arc::clone(&frontend);
        registry.counter_fn(
            "cphash_frontend_idle_sleeps_total",
            "Reactor waits that timed out with nothing to do",
            &[],
            move || f.idle_sleeps(),
        );
        let f = Arc::clone(&frontend);
        registry.counter_fn(
            "cphash_frontend_syscalls_total",
            "Syscalls issued by the reactor backends (mutations + waits)",
            &[],
            move || f.syscalls(),
        );

        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_batch_rounds_total",
            "Batched execution rounds in the server hot loop",
            &[],
            move || merged_batch(&s).batches,
        );
        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_batch_ops_total",
            "Operations executed inside batched rounds",
            &[],
            move || merged_batch(&s).ops,
        );
        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_batch_prefetches_total",
            "Software prefetches issued during staging passes",
            &[],
            move || merged_batch(&s).prefetches,
        );
        let s = Arc::clone(&batch_sources);
        registry.gauge_fn(
            "cphash_batch_occupancy",
            "Mean operations per batched round",
            &[],
            move || merged_batch(&s).avg_occupancy(),
        );
        let s = Arc::clone(&batch_sources);
        registry.gauge_fn(
            "cphash_queue_depth",
            "Request words drained in the most recent loop iteration, summed over server threads",
            &[],
            move || summed(&s, cphash::ServerStats::queue_depth) as f64,
        );
        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_server_parks_total",
            "Times a partition server went to sleep after its lanes stayed empty",
            &[],
            move || summed(&s, cphash::ServerStats::parks),
        );
        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_server_parked_cycles_total",
            "Timestamp-counter cycles partition servers spent asleep, summed over server threads",
            &[],
            move || summed(&s, cphash::ServerStats::parked_cycles),
        );
        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_server_idle_spin_cycles_total",
            "Timestamp-counter cycles partition servers spun on empty lanes before going to sleep, summed over server threads",
            &[],
            move || summed(&s, cphash::ServerStats::idle_spin_cycles),
        );
        let s = Arc::clone(&batch_sources);
        registry.counter_fn(
            "cphash_server_run_cuts_total",
            "Staged runs ended short of the pipeline depth by a control message (Ready, Decref, migration); values of at most 8 bytes send none",
            &[],
            move || summed(&s, cphash::ServerStats::run_cuts),
        );

        let p = Arc::clone(&partition_sources);
        registry.counter_fn(
            "cphash_bucket_inline_hits_total",
            "Probes resolved from a bucket line's tagged inline slots (inline layout)",
            &[],
            move || merged_partitions(&p).inline_hits,
        );
        let p = Arc::clone(&partition_sources);
        registry.counter_fn(
            "cphash_bucket_overflow_probes_total",
            "Elements walked on bucket overflow chains past the inline slots",
            &[],
            move || merged_partitions(&p).overflow_probes,
        );
        let p = Arc::clone(&partition_sources);
        registry.counter_fn(
            "cphash_bucket_tag_false_positives_total",
            "Inline tag matches whose full key comparison then failed",
            &[],
            move || merged_partitions(&p).tag_false_positives,
        );

        let m = Arc::clone(&migration);
        registry.counter_fn(
            "cphash_migration_chunks_total",
            "Migration chunks handed off during live re-partitioning",
            &[],
            move || m.chunks_moved(),
        );
        let m = Arc::clone(&migration);
        registry.counter_fn(
            "cphash_migration_keys_total",
            "Keys moved during live re-partitioning",
            &[],
            move || m.keys_moved(),
        );
        let m = Arc::clone(&migration);
        registry.counter_fn(
            "cphash_migration_paced_waits_total",
            "Pacer-imposed waits during live re-partitioning",
            &[],
            move || m.paced_waits(),
        );
        let m = Arc::clone(&migration);
        registry.gauge_fn(
            "cphash_migration_pacer_rate",
            "Most recent migration pacer rate in chunks per second",
            &[],
            move || m.pacer_rate(),
        );

        let l = Arc::clone(&latency);
        registry.histogram_fn(
            "cphash_request_latency_ns",
            "Request latency window (enqueue to in-order reply), nanoseconds",
            &[],
            move || l.peek(),
        );

        // One family, one sample per hot-path stage; registered
        // consecutively so the renderer emits a single HELP/TYPE header.
        for stage in trace::ALL_STAGES {
            registry.histogram_fn(
                "cphash_stage_cycles",
                "Cycle-stamped hot-path stage latency (requires tracing enabled)",
                &[("stage", stage.name())],
                move || trace::stage_histogram(stage),
            );
        }

        ServerMetrics {
            registry,
            requests,
            lookups,
            hits,
            inserts,
            deletes,
            bytes_in,
            bytes_out,
            connections,
            admin_commands,
            retries_emitted,
            conn_read_syscalls,
            conn_write_syscalls,
            frontend,
            latency,
            migration,
            batch_sources,
            partition_sources,
        }
    }

    /// The registry behind this block — the source for typed
    /// [`MetricsSnapshot`]s and Prometheus rendering.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// A typed, non-destructive snapshot of every registered metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    /// Render every registered metric in Prometheus text exposition format
    /// — the payload of both the `Stats` wire op and the HTTP endpoint.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The unified typed snapshot shared by all three servers.
    pub fn snapshot(&self) -> StatsSnapshot {
        let partitions = self.partition_stats();
        StatsSnapshot {
            requests: self.requests.value(),
            lookups: self.lookups.value(),
            hits: self.hits.value(),
            inserts: self.inserts.value(),
            deletes: self.deletes.value(),
            bytes_in: self.bytes_in.value(),
            bytes_out: self.bytes_out.value(),
            connections: self.connections.value(),
            admin_commands: self.admin_commands.value(),
            retries_emitted: self.retries_emitted.value(),
            frontend_wakeups: self.frontend.wakeups(),
            frontend_events: self.frontend.events(),
            frontend_idle_sleeps: self.frontend.idle_sleeps(),
            frontend_syscalls: self.frontend.syscalls(),
            conn_read_syscalls: self.conn_read_syscalls.value(),
            conn_write_syscalls: self.conn_write_syscalls.value(),
            batch: self.batch_stats(),
            queue_depth: summed(&self.batch_sources, cphash::ServerStats::queue_depth),
            server_parks: summed(&self.batch_sources, cphash::ServerStats::parks),
            server_parked_cycles: summed(&self.batch_sources, cphash::ServerStats::parked_cycles),
            server_idle_spin_cycles: summed(
                &self.batch_sources,
                cphash::ServerStats::idle_spin_cycles,
            ),
            server_run_cuts: summed(&self.batch_sources, cphash::ServerStats::run_cuts),
            migration_chunks: self.migration.chunks_moved(),
            migration_keys: self.migration.keys_moved(),
            migration_paced_waits: self.migration.paced_waits(),
            migration_pacer_rate: self.migration.pacer_rate(),
            bucket_inline_hits: partitions.inline_hits,
            bucket_overflow_probes: partitions.overflow_probes,
            bucket_tag_false_positives: partitions.tag_false_positives,
        }
    }

    /// Total requests observed.
    pub fn requests(&self) -> u64 {
        self.requests.value()
    }

    /// LOOKUP requests observed.
    pub fn lookups(&self) -> u64 {
        self.lookups.value()
    }

    /// INSERT requests observed.
    pub fn inserts(&self) -> u64 {
        self.inserts.value()
    }

    /// DELETE requests observed.
    pub fn deletes(&self) -> u64 {
        self.deletes.value()
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.value()
    }

    /// Bytes read from sockets so far.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.value()
    }

    /// Bytes written to sockets so far.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.value()
    }

    /// Lookup hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups.value();
        if lookups == 0 {
            0.0
        } else {
            self.hits.value() as f64 / lookups as f64
        }
    }

    /// Publish a worker's tally of answered data requests and reset it.
    pub(crate) fn note_requests(&self, tally: &mut RequestTally) {
        let RequestTally {
            lookups,
            hits,
            inserts,
            deletes,
        } = std::mem::take(tally);
        for (counter, n) in [
            (&self.requests, lookups + inserts + deletes),
            (&self.lookups, lookups),
            (&self.hits, hits),
            (&self.inserts, inserts),
            (&self.deletes, deletes),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    pub(crate) fn note_stats(&self) {
        self.requests.inc();
        self.admin_commands.inc();
    }

    pub(crate) fn note_io(&self, read: usize, written: usize) {
        if read > 0 {
            self.bytes_in.add(read as u64);
        }
        if written > 0 {
            self.bytes_out.add(written as u64);
        }
    }

    /// Data-movement syscalls a connection issued: with the reactor's own
    /// (`cphash_frontend_syscalls_total`) they make up the server's
    /// syscalls per request.
    pub(crate) fn note_conn_syscalls(&self, reads: u64, writes: u64) {
        if reads > 0 {
            self.conn_read_syscalls.add(reads);
        }
        if writes > 0 {
            self.conn_write_syscalls.add(writes);
        }
    }

    pub(crate) fn note_connection(&self) {
        self.connections.inc();
    }

    pub(crate) fn note_admin(&self) {
        self.requests.inc();
        self.admin_commands.inc();
    }

    pub(crate) fn note_retry_emitted(&self) {
        self.requests.inc();
        self.retries_emitted.inc();
    }

    /// Wire-level `Retry` replies emitted so far.
    pub fn retries_emitted(&self) -> u64 {
        self.retries_emitted.value()
    }

    /// Attach the hash-table servers whose batch-pipeline counters
    /// [`ServerMetrics::batch_stats`] should aggregate.
    pub(crate) fn attach_batch_sources(&self, sources: &[Arc<cphash::ServerStats>]) {
        self.batch_sources.lock().extend(sources.iter().cloned());
    }

    /// Merged batch-pipeline statistics (staged rounds, occupancy,
    /// prefetches) across the table's server threads.
    pub fn batch_stats(&self) -> BatchStats {
        merged_batch(&self.batch_sources)
    }

    /// Attach a sampler of a table's merged partition statistics, the
    /// source behind the `cphash_bucket_*` counter families.
    pub(crate) fn attach_partition_source(
        &self,
        source: impl Fn() -> cphash::PartitionStats + Send + Sync + 'static,
    ) {
        self.partition_sources.lock().push(Box::new(source));
    }

    /// Merged partition statistics (bucket-layout counters) across every
    /// attached table.
    pub fn partition_stats(&self) -> cphash::PartitionStats {
        merged_partitions(&self.partition_sources)
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl core::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The sampler closures are opaque; summarize through the snapshot.
        f.debug_struct("ServerMetrics")
            .field("snapshot", &self.snapshot())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_perfmon::MetricValue;

    #[test]
    fn counters_and_hit_rate() {
        let m = ServerMetrics::new();
        assert_eq!(m.hit_rate(), 0.0);
        let mut tally = RequestTally {
            lookups: 2,
            hits: 1,
            inserts: 1,
            deletes: 0,
        };
        m.note_requests(&mut tally);
        assert_eq!(
            tally.lookups + tally.hits + tally.inserts,
            0,
            "published and reset"
        );
        m.note_io(100, 50);
        m.note_connection();
        assert_eq!(m.requests(), 3);
        assert!((m.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(m.bytes_in(), 100);
        assert_eq!(m.bytes_out(), 50);
        assert_eq!(m.connections(), 1);
    }

    #[test]
    fn frontend_stats_ratios() {
        let f = FrontendStats::default();
        assert_eq!(f.events_per_wakeup(), 0.0);
        f.note_wakeup(4);
        f.note_wakeup(2);
        f.note_idle_sleep();
        assert_eq!(f.wakeups(), 2);
        assert_eq!(f.events(), 6);
        assert_eq!(f.idle_sleeps(), 1);
        assert!((f.events_per_wakeup() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn migration_progress_accumulates() {
        let p = MigrationProgress::default();
        p.note_repartition(4, 400, 2);
        p.note_repartition(1, 50, 0);
        p.set_pacer_rate(12.5);
        assert_eq!(p.chunks_moved(), 5);
        assert_eq!(p.keys_moved(), 450);
        assert_eq!(p.paced_waits(), 2);
        assert_eq!(p.pacer_rate(), 12.5);
        assert_eq!(p.repartitions.load(Ordering::Relaxed), 2);
    }

    /// The parity contract behind the unified stats surface: every field of
    /// [`StatsSnapshot`] must be readable, with the same value, from the
    /// registry snapshot that the wire/HTTP surfaces render.
    #[test]
    fn snapshot_and_registry_agree_on_every_field() {
        let m = ServerMetrics::new();
        m.note_requests(&mut RequestTally {
            lookups: 2,
            hits: 1,
            inserts: 1,
            deletes: 1,
        });
        m.note_admin();
        m.note_retry_emitted();
        m.note_io(321, 123);
        m.note_conn_syscalls(5, 4);
        m.note_connection();
        m.frontend.note_wakeup(3);
        m.frontend.note_idle_sleep();
        m.frontend.note_syscalls(9);
        m.migration.note_repartition(7, 700, 1);
        m.migration.set_pacer_rate(3.25);
        let table_server = Arc::new(cphash::ServerStats::new());
        table_server.parks.store(6, Ordering::Relaxed);
        table_server
            .parked_cycles
            .store(6_000_000, Ordering::Relaxed);
        table_server
            .idle_spin_cycles
            .store(180_000, Ordering::Relaxed);
        table_server.run_cuts.store(17, Ordering::Relaxed);
        m.attach_batch_sources(&[table_server]);
        m.attach_partition_source(|| cphash::PartitionStats {
            inline_hits: 41,
            overflow_probes: 5,
            tag_false_positives: 2,
            ..Default::default()
        });

        let unified = m.snapshot();
        let registry = m.metrics_snapshot();
        let counter = |name: &str| match registry.get(name).expect(name).value {
            MetricValue::Counter(v) => v,
            ref other => panic!("{name} is not a counter: {other:?}"),
        };
        let gauge = |name: &str| match registry.get(name).expect(name).value {
            MetricValue::Gauge(v) => v,
            ref other => panic!("{name} is not a gauge: {other:?}"),
        };

        assert_eq!(unified.requests, counter("cphash_requests_total"));
        assert_eq!(unified.lookups, counter("cphash_lookups_total"));
        assert_eq!(unified.hits, counter("cphash_lookup_hits_total"));
        assert_eq!(unified.inserts, counter("cphash_inserts_total"));
        assert_eq!(unified.deletes, counter("cphash_deletes_total"));
        assert_eq!(unified.bytes_in, counter("cphash_bytes_in_total"));
        assert_eq!(unified.bytes_out, counter("cphash_bytes_out_total"));
        assert_eq!(unified.connections, counter("cphash_connections_total"));
        assert_eq!(
            unified.admin_commands,
            counter("cphash_admin_commands_total")
        );
        assert_eq!(
            unified.retries_emitted,
            counter("cphash_retries_emitted_total")
        );
        assert_eq!(
            unified.frontend_wakeups,
            counter("cphash_frontend_wakeups_total")
        );
        assert_eq!(
            unified.frontend_events,
            counter("cphash_frontend_events_total")
        );
        assert_eq!(
            unified.frontend_idle_sleeps,
            counter("cphash_frontend_idle_sleeps_total")
        );
        assert_eq!(
            unified.frontend_syscalls,
            counter("cphash_frontend_syscalls_total")
        );
        assert_eq!(unified.frontend_syscalls, 9);
        assert_eq!(
            unified.conn_read_syscalls,
            counter("cphash_conn_read_syscalls_total")
        );
        assert_eq!(unified.conn_read_syscalls, 5);
        assert_eq!(
            unified.conn_write_syscalls,
            counter("cphash_conn_write_syscalls_total")
        );
        assert_eq!(unified.conn_write_syscalls, 4);
        assert_eq!(unified.batch.batches, counter("cphash_batch_rounds_total"));
        assert_eq!(unified.batch.ops, counter("cphash_batch_ops_total"));
        assert_eq!(
            unified.batch.prefetches,
            counter("cphash_batch_prefetches_total")
        );
        assert_eq!(unified.queue_depth as f64, gauge("cphash_queue_depth"));
        assert_eq!(unified.server_parks, counter("cphash_server_parks_total"));
        assert_eq!(unified.server_parks, 6);
        assert_eq!(
            unified.server_parked_cycles,
            counter("cphash_server_parked_cycles_total")
        );
        assert_eq!(unified.server_parked_cycles, 6_000_000);
        assert_eq!(
            unified.server_idle_spin_cycles,
            counter("cphash_server_idle_spin_cycles_total")
        );
        assert_eq!(unified.server_idle_spin_cycles, 180_000);
        assert_eq!(
            unified.server_run_cuts,
            counter("cphash_server_run_cuts_total")
        );
        assert_eq!(unified.server_run_cuts, 17);
        assert_eq!(
            unified.migration_chunks,
            counter("cphash_migration_chunks_total")
        );
        assert_eq!(
            unified.migration_keys,
            counter("cphash_migration_keys_total")
        );
        assert_eq!(
            unified.migration_paced_waits,
            counter("cphash_migration_paced_waits_total")
        );
        assert_eq!(
            unified.migration_pacer_rate,
            gauge("cphash_migration_pacer_rate")
        );
        assert_eq!(
            unified.bucket_inline_hits,
            counter("cphash_bucket_inline_hits_total")
        );
        assert_eq!(unified.bucket_inline_hits, 41);
        assert_eq!(
            unified.bucket_overflow_probes,
            counter("cphash_bucket_overflow_probes_total")
        );
        assert_eq!(
            unified.bucket_tag_false_positives,
            counter("cphash_bucket_tag_false_positives_total")
        );

        // The rendered text carries the same families and round-trips
        // through the scrape-side parser.
        let text = m.render_prometheus();
        let parsed = cphash_perfmon::parse_prometheus_text(&text).expect("rendered text parses");
        assert!(parsed.iter().any(|s| s.name == "cphash_requests_total"));
        assert!(parsed.iter().any(|s| s.name == "cphash_server_parks_total"));
        assert!(parsed
            .iter()
            .any(|s| s.name == "cphash_server_parked_cycles_total"));
        assert!(parsed
            .iter()
            .any(|s| s.name == "cphash_server_idle_spin_cycles_total"));
        assert!(parsed
            .iter()
            .any(|s| s.name == "cphash_request_latency_ns_count"));
        for stage in trace::ALL_STAGES {
            assert!(
                text.contains(&format!("stage=\"{}\"", stage.name())),
                "missing stage {}",
                stage.name()
            );
        }
    }
}
