//! Shared request metrics for the key/value servers.
//!
//! All three servers (CPSERVER, LOCKSERVER, the memcache cluster) report
//! through one [`ServerMetrics`] block.  Every metric family is declared
//! once, as a row of the `ROWS` table below: its kind, name, source, the
//! [`StatsSnapshot`] field it fills and its help text.  The block registers
//! each row on a [`MetricsRegistry`] — what the `Stats` admin op and the
//! `--stats-addr` HTTP endpoint render — and [`ServerMetrics::snapshot`]
//! reads the same rows into the typed view the in-process benchmarks use,
//! so the two cannot disagree.  Sources that already keep their own
//! lock-free counters (`FrontendStats`, the table's `ServerStats`, the
//! trace rings) are sampled at scrape time, so exporting them costs the
//! hot path nothing.

use std::sync::Arc;

use cphash::{PartitionStats, ServerStats};
use cphash_perfmon::trace;
use cphash_perfmon::{BatchStats, MetricsRegistry};
use cphash_sync::atomic::plain::{AtomicU64, Ordering};
use parking_lot::Mutex;

use crate::reactor::FrontendStats;

use Field::{Unfilled, F64, U64};
use Kind::{Counter, Gauge, Histogram};
use Slot::*;
use Source::*;

/// The unified typed stats snapshot every server exposes — one struct for
/// CPSERVER, LOCKSERVER and the memcache cluster, so tooling never has to
/// know which server it is scraping.  Each field holds the unlabelled
/// value of the metric family whose row fills it.
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
    /// DELETE requests.
    pub deletes: u64,
    /// Bytes read from sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Admin commands (RESIZE and STATS) received.
    pub admin_commands: u64,
    /// Always 0: no server sends a wire-level `Retry`.  Kept because the
    /// benchmark reads it.
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
    /// Bucket lines allocated, summed over the partitions (spare
    /// partition servers' included).
    pub bucket_lines: u64,
    /// Keys resident in the table, summed over the partitions.
    pub resident_keys: u64,
}

impl StatsSnapshot {
    /// Lookup hit rate in `[0, 1]` (0 before the first lookup).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
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

/// The sharded counters a [`ServerMetrics`] block owns, in the order their
/// rows appear in `ROWS`; the `note_*` methods add to them.
#[derive(Clone, Copy)]
enum Slot {
    Requests,
    Lookups,
    Hits,
    Inserts,
    Deletes,
    BytesIn,
    BytesOut,
    Connections,
    AdminCommands,
    ConnReadSyscalls,
    ConnWriteSyscalls,
    MigrationChunks,
    MigrationKeys,
    MigrationPacedWaits,
}

const SLOTS: usize = MigrationPacedWaits as usize + 1;

/// Where a row's value comes from.  The source also fixes the row's
/// labels: `Server` rows add one sample per partition server, `Stages`
/// one per traced stage, and every other row renders one unlabelled
/// sample.
#[derive(Clone, Copy)]
enum Source {
    /// A counter this block owns.
    Owned(Slot),
    /// A `FrontendStats` field.
    Frontend(fn(&FrontendStats) -> u64),
    /// A `ServerStats` field.  The unlabelled sample sums it over the
    /// attached partition servers, and each server adds its own sample
    /// labelled `partition="N"` (N = its index in the table).
    Server(fn(&ServerStats) -> u64),
    /// A field of the `BatchStats` merged over the partition servers.
    Batch(fn(&BatchStats) -> u64),
    /// A field of the `PartitionStats` merged over the attached tables.
    Partitions(fn(&PartitionStats) -> u64),
    /// A ratio or rate.
    Ratio(fn(&Sources) -> f64),
    /// The trace rings' per-stage histograms, labelled `stage="…"`.
    Stages,
}

/// The [`StatsSnapshot`] field a row fills.
#[derive(Clone, Copy)]
enum Field {
    Unfilled,
    U64(fn(&mut StatsSnapshot) -> &mut u64),
    F64(fn(&mut StatsSnapshot) -> &mut f64),
}

/// How a family renders.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// One metric family.
struct Row {
    kind: Kind,
    name: &'static str,
    source: Source,
    field: Field,
    help: &'static str,
}

/// Every metric family the servers export, each declared once.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row { kind: Counter, name: "cphash_requests_total", source: Owned(Requests), field: U64(|s| &mut s.requests),
        help: "Requests decoded from TCP connections" },
    Row { kind: Counter, name: "cphash_lookups_total", source: Owned(Lookups), field: U64(|s| &mut s.lookups),
        help: "LOOKUP requests" },
    Row { kind: Counter, name: "cphash_lookup_hits_total", source: Owned(Hits), field: U64(|s| &mut s.hits),
        help: "LOOKUPs that found a value" },
    Row { kind: Counter, name: "cphash_inserts_total", source: Owned(Inserts), field: U64(|s| &mut s.inserts),
        help: "INSERT requests" },
    Row { kind: Counter, name: "cphash_deletes_total", source: Owned(Deletes), field: U64(|s| &mut s.deletes),
        help: "DELETE requests" },
    Row { kind: Counter, name: "cphash_bytes_in_total", source: Owned(BytesIn), field: U64(|s| &mut s.bytes_in),
        help: "Bytes read from sockets" },
    Row { kind: Counter, name: "cphash_bytes_out_total", source: Owned(BytesOut), field: U64(|s| &mut s.bytes_out),
        help: "Bytes written to sockets" },
    Row { kind: Counter, name: "cphash_connections_total", source: Owned(Connections), field: U64(|s| &mut s.connections),
        help: "Connections accepted" },
    Row { kind: Counter, name: "cphash_admin_commands_total", source: Owned(AdminCommands), field: U64(|s| &mut s.admin_commands),
        help: "Admin commands (RESIZE and STATS)" },
    Row { kind: Counter, name: "cphash_conn_read_syscalls_total", source: Owned(ConnReadSyscalls), field: U64(|s| &mut s.conn_read_syscalls),
        help: "read(2) calls issued on client connections" },
    Row { kind: Counter, name: "cphash_conn_write_syscalls_total", source: Owned(ConnWriteSyscalls), field: U64(|s| &mut s.conn_write_syscalls),
        help: "write(2) calls issued on client connections" },
    Row { kind: Counter, name: "cphash_frontend_wakeups_total", source: Frontend(|f| load(&f.wakeups)), field: U64(|s| &mut s.frontend_wakeups),
        help: "Reactor waits that delivered at least one readiness event" },
    Row { kind: Counter, name: "cphash_frontend_events_total", source: Frontend(|f| load(&f.events)), field: U64(|s| &mut s.frontend_events),
        help: "Readiness events delivered by the reactor" },
    Row { kind: Counter, name: "cphash_frontend_idle_sleeps_total", source: Frontend(|f| load(&f.idle_sleeps)), field: U64(|s| &mut s.frontend_idle_sleeps),
        help: "Reactor waits that timed out with nothing to do" },
    Row { kind: Counter, name: "cphash_frontend_syscalls_total", source: Frontend(|f| load(&f.syscalls)), field: U64(|s| &mut s.frontend_syscalls),
        help: "Syscalls issued by the reactor backends (mutations + waits)" },
    Row { kind: Counter, name: "cphash_batch_rounds_total", source: Batch(|b| b.batches), field: U64(|s| &mut s.batch.batches),
        help: "Batched execution rounds in the server hot loop" },
    Row { kind: Counter, name: "cphash_batch_ops_total", source: Batch(|b| b.ops), field: U64(|s| &mut s.batch.ops),
        help: "Operations executed inside batched rounds" },
    Row { kind: Counter, name: "cphash_batch_prefetches_total", source: Batch(|b| b.prefetches), field: U64(|s| &mut s.batch.prefetches),
        help: "Software prefetches issued during staging passes" },
    Row { kind: Gauge, name: "cphash_batch_occupancy", source: Ratio(|s| s.batch().avg_occupancy()), field: Unfilled,
        help: "Mean operations per batched round" },
    Row { kind: Gauge, name: "cphash_queue_depth", source: Server(ServerStats::queue_depth), field: U64(|s| &mut s.queue_depth),
        help: "Request words drained in the most recent loop iteration, summed over server threads" },
    Row { kind: Counter, name: "cphash_server_parks_total", source: Server(ServerStats::parks), field: U64(|s| &mut s.server_parks),
        help: "Times a partition server went to sleep after its lanes stayed empty" },
    Row { kind: Counter, name: "cphash_server_parked_cycles_total", source: Server(ServerStats::parked_cycles), field: U64(|s| &mut s.server_parked_cycles),
        help: "Timestamp-counter cycles partition servers spent asleep, summed over server threads" },
    Row { kind: Counter, name: "cphash_server_idle_spin_cycles_total", source: Server(ServerStats::idle_spin_cycles), field: U64(|s| &mut s.server_idle_spin_cycles),
        help: "Timestamp-counter cycles partition servers spun on empty lanes before going to sleep, summed over server threads" },
    Row { kind: Counter, name: "cphash_server_run_cuts_total", source: Server(ServerStats::run_cuts), field: U64(|s| &mut s.server_run_cuts),
        help: "Staged runs ended short of the pipeline depth by a control message (Ready, Decref, migration); values of at most 8 bytes send none" },
    Row { kind: Counter, name: "cphash_bucket_inline_hits_total", source: Partitions(|p| p.inline_hits), field: U64(|s| &mut s.bucket_inline_hits),
        help: "Probes resolved from a bucket line's tagged inline slots" },
    Row { kind: Counter, name: "cphash_bucket_overflow_probes_total", source: Partitions(|p| p.overflow_probes), field: U64(|s| &mut s.bucket_overflow_probes),
        help: "Elements walked on bucket overflow chains past the inline slots" },
    Row { kind: Counter, name: "cphash_bucket_tag_false_positives_total", source: Partitions(|p| p.tag_false_positives), field: U64(|s| &mut s.bucket_tag_false_positives),
        help: "Inline tag matches whose full key comparison then failed" },
    Row { kind: Gauge, name: "cphash_bucket_lines", source: Partitions(|p| p.bucket_lines), field: U64(|s| &mut s.bucket_lines),
        help: "Bucket lines allocated, summed over partitions" },
    Row { kind: Gauge, name: "cphash_resident_keys", source: Partitions(|p| p.resident_keys), field: U64(|s| &mut s.resident_keys),
        help: "Keys resident in the table, summed over partitions" },
    Row { kind: Counter, name: "cphash_migration_chunks_total", source: Owned(MigrationChunks), field: U64(|s| &mut s.migration_chunks),
        help: "Migration chunks handed off during live re-partitioning" },
    Row { kind: Counter, name: "cphash_migration_keys_total", source: Owned(MigrationKeys), field: U64(|s| &mut s.migration_keys),
        help: "Keys moved during live re-partitioning" },
    Row { kind: Counter, name: "cphash_migration_paced_waits_total", source: Owned(MigrationPacedWaits), field: U64(|s| &mut s.migration_paced_waits),
        help: "Pacer-imposed waits during live re-partitioning" },
    Row { kind: Gauge, name: "cphash_migration_pacer_rate", source: Ratio(|s| f64::from_bits(load(&s.pacer_rate))), field: F64(|s| &mut s.migration_pacer_rate),
        help: "Most recent migration pacer rate in chunks per second" },
    Row { kind: Histogram, name: "cphash_stage_cycles", source: Stages, field: Unfilled,
        help: "Cycle-stamped hot-path stage latency (requires tracing enabled)" },
];

/// A diagnostic read of one shared counter.
fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed) // relaxed: diagnostic snapshot; tearing across counters is fine
}

/// The shared sources rows read, besides the owned counters.
#[derive(Default)]
struct Sources {
    frontend: Arc<FrontendStats>,
    /// Most recent migration pacer rate in chunks/second (`f64` bits).
    pacer_rate: AtomicU64,
    /// The table's partition servers, attached at server start.
    servers: Mutex<Vec<Arc<ServerStats>>>,
    /// Non-destructive samplers of each attached table's merged partition
    /// statistics.
    partitions: Mutex<Vec<Box<dyn Fn() -> PartitionStats + Send + Sync>>>,
}

impl Sources {
    fn sum_servers(&self, read: fn(&ServerStats) -> u64) -> u64 {
        self.servers.lock().iter().map(|s| read(s)).sum()
    }

    fn batch(&self) -> BatchStats {
        let mut total = BatchStats::default();
        for server in self.servers.lock().iter() {
            total.merge(&server.batch_stats());
        }
        total
    }

    fn partitions(&self) -> PartitionStats {
        let mut total = PartitionStats::default();
        for sample in self.partitions.lock().iter() {
            total.merge(&sample());
        }
        total
    }
}

impl Row {
    /// Register one count-valued sample of this family.
    fn register(
        &self,
        registry: &MetricsRegistry,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        match self.kind {
            Counter => registry.counter_fn(self.name, self.help, labels, read),
            Gauge => registry.gauge_fn(self.name, self.help, labels, move || read() as f64),
            Histogram => unreachable!("{} is a histogram, not a count", self.name),
        }
    }
}

/// Request counters, updated by worker threads and read by benchmarks.
pub struct ServerMetrics {
    registry: MetricsRegistry,
    /// Per-thread sharded counters, one per [`Slot`].
    counters: [cphash_perfmon::Counter; SLOTS],
    sources: Arc<Sources>,
    /// Reactor counters, shared by every worker's front-end.
    pub frontend: Arc<FrontendStats>,
}

impl ServerMetrics {
    /// New zeroed metrics block with every family in `ROWS` registered.
    pub fn new() -> Self {
        let sources = Arc::new(Sources::default());
        let registry = MetricsRegistry::new();
        let mut counters = Vec::with_capacity(SLOTS);
        for row in ROWS {
            let s = Arc::clone(&sources);
            match row.source {
                Owned(slot) => {
                    debug_assert_eq!(slot as usize, counters.len(), "{}: slot order", row.name);
                    counters.push(registry.counter(row.name, row.help));
                }
                Frontend(read) => row.register(&registry, &[], move || read(&s.frontend)),
                Server(read) => row.register(&registry, &[], move || s.sum_servers(read)),
                Batch(read) => row.register(&registry, &[], move || read(&s.batch())),
                Partitions(read) => row.register(&registry, &[], move || read(&s.partitions())),
                Ratio(read) => registry.gauge_fn(row.name, row.help, &[], move || read(&s)),
                Stages => {
                    for stage in trace::ALL_STAGES {
                        let labels = [("stage", stage.name())];
                        registry.histogram_fn(row.name, row.help, &labels, move || {
                            trace::stage_histogram(stage)
                        });
                    }
                }
            }
        }
        ServerMetrics {
            registry,
            counters: counters.try_into().expect("one owned row per slot"),
            frontend: Arc::clone(&sources.frontend),
            sources,
        }
    }

    /// Render every registered metric in Prometheus text exposition format
    /// — the payload of both the `Stats` wire op and the HTTP endpoint.
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }

    /// The unified typed snapshot shared by all three servers.  It reads
    /// only the rows that fill a field, merges the batch and partition
    /// statistics once, and samples no histogram.
    pub fn snapshot(&self) -> StatsSnapshot {
        let (batch, partitions) = (self.sources.batch(), self.sources.partitions());
        let mut snap = StatsSnapshot::default();
        for row in ROWS {
            match (row.field, row.source) {
                (Unfilled, _) => {}
                (U64(field), Owned(slot)) => *field(&mut snap) = self.counter(slot).value(),
                (U64(field), Frontend(read)) => *field(&mut snap) = read(&self.frontend),
                (U64(field), Server(read)) => *field(&mut snap) = self.sources.sum_servers(read),
                (U64(field), Batch(read)) => *field(&mut snap) = read(&batch),
                (U64(field), Partitions(read)) => *field(&mut snap) = read(&partitions),
                (F64(field), Ratio(read)) => *field(&mut snap) = read(&self.sources),
                _ => unreachable!("{} fills a field its source cannot", row.name),
            }
        }
        snap
    }

    fn counter(&self, slot: Slot) -> &cphash_perfmon::Counter {
        &self.counters[slot as usize]
    }

    /// Publish a worker's tally of answered data requests and reset it.
    pub(crate) fn note_requests(&self, tally: &mut RequestTally) {
        let RequestTally {
            lookups,
            hits,
            inserts,
            deletes,
        } = std::mem::take(tally);
        for (slot, n) in [
            (Requests, lookups + inserts + deletes),
            (Lookups, lookups),
            (Hits, hits),
            (Inserts, inserts),
            (Deletes, deletes),
        ] {
            if n > 0 {
                self.counter(slot).add(n);
            }
        }
    }

    pub(crate) fn note_io(&self, read: usize, written: usize) {
        if read > 0 {
            self.counter(BytesIn).add(read as u64);
        }
        if written > 0 {
            self.counter(BytesOut).add(written as u64);
        }
    }

    /// Data-movement syscalls a connection issued: with the reactor's own
    /// (`cphash_frontend_syscalls_total`) they make up the server's
    /// syscalls per request.
    pub(crate) fn note_conn_syscalls(&self, reads: u64, writes: u64) {
        if reads > 0 {
            self.counter(ConnReadSyscalls).add(reads);
        }
        if writes > 0 {
            self.counter(ConnWriteSyscalls).add(writes);
        }
    }

    pub(crate) fn note_connection(&self) {
        self.counter(Connections).inc();
    }

    /// An admin command (RESIZE or STATS) received.
    pub(crate) fn note_admin(&self) {
        self.counter(Requests).inc();
        self.counter(AdminCommands).inc();
    }

    /// Record one completed repartition and the pacer rate it ran at.
    pub(crate) fn note_repartition(&self, chunks: u64, keys: u64, paced_waits: u64, rate: f64) {
        self.counter(MigrationChunks).add(chunks);
        self.counter(MigrationKeys).add(keys);
        self.counter(MigrationPacedWaits).add(paced_waits);
        self.sources
            .pacer_rate
            .store(rate.to_bits(), Ordering::Relaxed); // relaxed: diagnostic gauge; guards no data
    }

    /// Attach the table's partition servers: each `ServerStats` family sums
    /// them and exports one sample per server, labelled with its index.
    pub(crate) fn attach_servers(&self, servers: &[Arc<ServerStats>]) {
        let first = self.sources.servers.lock().len();
        for (index, server) in servers.iter().enumerate() {
            let partition = (first + index).to_string();
            for row in ROWS {
                if let Server(read) = row.source {
                    let server = Arc::clone(server);
                    row.register(&self.registry, &[("partition", &partition)], move || {
                        read(&server)
                    });
                }
            }
        }
        self.sources.servers.lock().extend(servers.iter().cloned());
    }

    /// Attach a sampler of a table's merged partition statistics, the
    /// source behind the `cphash_bucket_*` families and
    /// `cphash_resident_keys`.
    pub(crate) fn attach_partition_source(
        &self,
        source: impl Fn() -> PartitionStats + Send + Sync + 'static,
    ) {
        self.sources.partitions.lock().push(Box::new(source));
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash_perfmon::parse_prometheus_text;

    #[test]
    fn note_methods_accumulate_into_the_snapshot() {
        let m = ServerMetrics::new();
        assert_eq!(m.snapshot().hit_rate(), 0.0);
        let mut tally = RequestTally {
            lookups: 2,
            hits: 1,
            inserts: 1,
            deletes: 0,
        };
        m.note_requests(&mut tally);
        assert_eq!(tally.lookups + tally.hits + tally.inserts, 0, "reset");
        m.note_io(100, 50);
        m.note_connection();
        m.note_admin();
        m.frontend.note_wakeup(4);
        m.frontend.note_wakeup(2);
        m.note_repartition(4, 400, 2, 8.0);
        m.note_repartition(1, 50, 0, 12.5);
        let s = m.snapshot();
        assert_eq!((s.requests, s.lookups, s.inserts), (4, 2, 1));
        assert_eq!(s.admin_commands, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!((s.bytes_in, s.bytes_out, s.connections), (100, 50, 1));
        assert_eq!((s.frontend_wakeups, s.frontend_events), (2, 6));
        assert_eq!((s.migration_chunks, s.migration_keys), (5, 450));
        assert_eq!((s.migration_paced_waits, s.migration_pacer_rate), (2, 12.5));
    }

    /// The parity contract behind the unified stats surface, row by row:
    /// with every source seeded to a value no other source holds, each
    /// field a row fills is non-zero, equals the row's rendered sample
    /// (and the sum of its per-partition samples), and differs from every
    /// other field; no field is left unfilled.
    #[test]
    fn snapshot_and_registry_agree_on_every_field() {
        let m = ServerMetrics::new();
        // Powers of two from 4: no sums collide, nor match the 2 rounds.
        let mut bit = 1;
        let mut distinct = || {
            bit += 1;
            1u64 << bit
        };
        for counter in &m.counters {
            counter.add(distinct());
        }
        let f = &m.frontend;
        for atomic in [&f.wakeups, &f.events, &f.idle_sleeps, &f.syscalls] {
            atomic.store(distinct(), Ordering::Relaxed);
        }
        m.note_repartition(0, 0, 0, 3.25);
        let servers: Vec<Arc<ServerStats>> = (0..2)
            .map(|_| {
                let s = ServerStats::new();
                for atomic in [&s.queue_depth, &s.parks, &s.parked_cycles] {
                    atomic.store(distinct(), Ordering::Relaxed);
                }
                for atomic in [&s.idle_spin_cycles, &s.run_cuts] {
                    atomic.store(distinct(), Ordering::Relaxed);
                }
                s.batch.note_batch(distinct(), distinct());
                Arc::new(s)
            })
            .collect();
        m.attach_servers(&servers);
        let partitions = PartitionStats {
            inline_hits: distinct(),
            overflow_probes: distinct(),
            tag_false_positives: distinct(),
            bucket_lines: distinct(),
            resident_keys: distinct(),
            ..Default::default()
        };
        m.attach_partition_source(move || partitions);

        let mut snap = m.snapshot();
        let text = m.render_prometheus();
        let rendered = parse_prometheus_text(&text).expect("rendered text parses");
        let sample = |name: &str, labels: &str| {
            let found = rendered
                .iter()
                .find(|s| s.name == name && s.labels == labels);
            found.map(|s| s.value)
        };
        let mut seen = Vec::new();
        for row in ROWS {
            let rows_samples = rendered.iter().filter(|s| s.name.starts_with(row.name));
            assert!(rows_samples.count() > 0, "{} is not rendered", row.name);
            let value = match row.field {
                Unfilled => continue,
                U64(field) => *field(&mut snap) as f64,
                F64(field) => *field(&mut snap),
            };
            assert_ne!(value, 0.0, "{} was not seeded", row.name);
            assert_eq!(sample(row.name, ""), Some(value), "{}", row.name);
            assert!(!seen.contains(&value), "{} repeats a source", row.name);
            seen.push(value);
            if let Server(_) = row.source {
                let per_partition: f64 = (0..servers.len())
                    .map(|p| sample(row.name, &format!("{{partition=\"{p}\"}}")).expect(row.name))
                    .sum();
                assert_eq!(per_partition, value, "{} per partition", row.name);
            }
        }
        // `retries_emitted` is the one field no row fills: it stays 0.
        assert_eq!(snap.retries_emitted, 0);
        let debug = format!(
            "{:?}",
            StatsSnapshot {
                retries_emitted: 1,
                ..snap
            }
        );
        for zero in [": 0,", ": 0 }", ": 0.0"] {
            assert!(!debug.contains(zero), "a field no row fills: {debug}");
        }
    }

    /// README may name a metric family only if `ROWS` declares it.  Crate
    /// and cfg names (`cphash_perfmon`, `cphash_model`) share the prefix,
    /// so only names ending in a suffix some family uses are checked.
    #[test]
    fn readme_names_only_declared_families() {
        let readme = include_str!("../../../README.md");
        let suffix = |name: &'static str| &name[name.rfind('_').expect("names have a _")..];
        let suffixes: Vec<&str> = ROWS.iter().map(|r| suffix(r.name)).collect();
        let mut checked = 0;
        for (at, _) in readme.match_indices("cphash_") {
            let name: String = readme[at..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if suffixes.iter().any(|s| name.ends_with(s)) {
                assert!(
                    ROWS.iter().any(|r| r.name == name),
                    "README names {name}, which no row declares"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "README names no metric family");
    }
}
