//! The CPHash table handle: spawns server threads, wires up message lanes,
//! and hands out client handles.

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use cphash_channel::{duplex, Doorbell, RingConfig};
use cphash_hashcore::{Partition, PartitionConfig, PartitionStats};
use parking_lot::Mutex;

use crate::client::{ClientHandle, SleepFlag};
use crate::config::CpHashConfig;
use crate::control::ControlHandle;
use crate::router::EpochRouter;
use crate::server::ServerThread;
use crate::stats::{ServerStats, TableSnapshot};

/// A running CPHash table: one pinned server thread per partition, plus the
/// shared-memory message lanes connecting them to the client handles.
///
/// When `max_partitions` exceeds the initial partition count, the extra
/// server threads are spawned up front (asleep behind their doorbells until
/// the first control message arrives) so the table can be re-partitioned
/// live: the shared [`EpochRouter`] decides which servers own keys, and the
/// `cphash-migrate` coordinator moves keys between them through the
/// [`ControlHandle`].
///
/// Dropping the table (or calling [`CpHash::shutdown`]) stops the server
/// threads and releases the partitions.  Client handles created from this
/// table become inert once the servers stop (operations return
/// [`crate::TableError::ServerGone`]).
pub struct CpHash {
    config: CpHashConfig,
    stop: Arc<AtomicBool>,
    /// One per spawned server, shared with the client end of each of its
    /// lanes; shutdown rings them all so sleeping servers see `stop`.
    doorbells: Vec<Arc<Doorbell>>,
    servers: Vec<JoinHandle<()>>,
    server_stats: Vec<Arc<ServerStats>>,
    partition_stats: Vec<Arc<Mutex<PartitionStats>>>,
    router: Arc<EpochRouter>,
    control: Mutex<Option<ControlHandle>>,
}

impl CpHash {
    /// Build the table and its client handles.
    ///
    /// The number of client handles is fixed at construction time (as in the
    /// paper, where the client thread count is a benchmark parameter): every
    /// client/server pair gets its own pair of message rings, so servers
    /// need to know all their clients up front.  One extra, hidden lane per
    /// server belongs to the migration control plane.
    pub fn new(config: CpHashConfig) -> (CpHash, Vec<ClientHandle>) {
        config.validate();
        let ring = RingConfig::with_capacity(config.ring_capacity);
        let spawned = config.spawned_partitions();
        let router = Arc::new(EpochRouter::new(
            config.partitions,
            config.migration_chunks,
            spawned,
        ));

        // lane_matrix[s][c] = server s's endpoint for client c; the last
        // "client" slot is the control plane.
        let lane_owners = config.clients + 1;
        let doorbells: Vec<_> = (0..spawned).map(|_| Arc::new(Doorbell::new())).collect();
        let mut server_lanes: Vec<Vec<_>> = (0..spawned).map(|_| Vec::new()).collect();
        let mut client_lanes: Vec<Vec<_>> = (0..lane_owners).map(|_| Vec::new()).collect();
        for client_lane_list in client_lanes.iter_mut() {
            for (server_lane_list, doorbell) in server_lanes.iter_mut().zip(&doorbells) {
                let (client_end, server_end) = duplex(ring);
                client_lane_list.push(client_end.with_doorbell(Arc::clone(doorbell)));
                server_lane_list.push(server_end);
            }
        }

        // One "asleep" flag per client handle, read by every server; the
        // control plane has none (see `ServerThread::clients_asleep`).
        let asleep: Vec<SleepFlag> = (0..config.clients).map(|_| SleepFlag::default()).collect();
        let stop = Arc::new(AtomicBool::new(false));
        let mut servers = Vec::with_capacity(spawned);
        let mut server_stats = Vec::with_capacity(spawned);
        let mut partition_stats = Vec::with_capacity(spawned);

        for (index, lanes) in server_lanes.into_iter().enumerate() {
            let stats = Arc::new(ServerStats::new());
            let pstats = Arc::new(Mutex::new(PartitionStats::default()));
            let partition = Partition::new(PartitionConfig {
                buckets: config.buckets_per_partition,
                capacity_bytes: config.partition_capacity(),
                eviction: config.eviction,
                seed: config.seed ^ (index as u64).wrapping_mul(0x9E37_79B9),
                migration_chunks: config.migration_chunks,
            });
            let thread = ServerThread {
                index,
                partition,
                lanes,
                pin: config.server_pins.get(index).copied(),
                stop: Arc::clone(&stop),
                doorbell: Arc::clone(&doorbells[index]),
                clients_asleep: asleep.clone(),
                stats: Arc::clone(&stats),
                partition_stats: Arc::clone(&pstats),
                router: Arc::clone(&router),
                capacity_total: config.capacity_bytes,
                executor: crate::pipeline::StagedExecutor::new(),
                batch_size: config.batch_size,
            };
            let handle = std::thread::Builder::new()
                .name(format!("cphash-server-{index}"))
                .spawn(move || thread.run())
                .expect("spawning a server thread");
            servers.push(handle);
            server_stats.push(stats);
            partition_stats.push(pstats);
        }

        let mut client_lanes = client_lanes.into_iter();
        // `asleep` leads the zip, so the control lanes stay in the iterator.
        let clients = asleep
            .into_iter()
            .zip(&mut client_lanes)
            .map(|(asleep, lanes)| {
                ClientHandle::new(lanes, config.ring_capacity, Arc::clone(&router), asleep)
            })
            .collect();
        let control_lanes = client_lanes.next().expect("control lane set exists");

        (
            CpHash {
                config,
                stop,
                doorbells,
                servers,
                server_stats,
                partition_stats,
                control: Mutex::new(Some(ControlHandle::new(control_lanes, Arc::clone(&router)))),
                router,
            },
            clients,
        )
    }

    /// Convenience constructor for the common case.
    pub fn with_partitions(partitions: usize, clients: usize) -> (CpHash, Vec<ClientHandle>) {
        Self::new(CpHashConfig::new(partitions, clients))
    }

    /// The configuration the table was built with.
    pub fn config(&self) -> &CpHashConfig {
        &self.config
    }

    /// Number of *active* partitions (the target count while a migration is
    /// in flight).
    pub fn partitions(&self) -> usize {
        self.router.active_partitions()
    }

    /// Number of server threads actually spawned (`max_partitions`).
    pub fn spawned_partitions(&self) -> usize {
        self.server_stats.len()
    }

    /// The shared routing table.
    pub fn router(&self) -> &Arc<EpochRouter> {
        &self.router
    }

    /// Take the migration control handle. Returns `None` after the first
    /// call — there is exactly one control plane per table, typically owned
    /// by a `cphash-migrate::RepartitionCoordinator`.
    pub fn take_control(&self) -> Option<ControlHandle> {
        self.control.lock().take()
    }

    /// Per-server runtime statistics (live, lock-free), one entry per
    /// *spawned* server thread.
    pub fn server_stats(&self) -> &[Arc<ServerStats>] {
        &self.server_stats
    }

    /// Aggregate runtime snapshot across the currently active servers.
    pub fn snapshot(&self) -> TableSnapshot {
        let active = self.router.active_partitions().min(self.server_stats.len());
        TableSnapshot::aggregate(&self.server_stats[..active])
    }

    /// Aggregate partition statistics (hits, evictions, …).  Refreshed
    /// periodically by the server threads while they run, whenever one goes
    /// to sleep (so a table left alone for a moment reads exact), and
    /// finally at shutdown.
    pub fn partition_stats(&self) -> PartitionStats {
        let mut total = PartitionStats::default();
        for p in &self.partition_stats {
            total.merge(&p.lock());
        }
        total
    }

    /// An owning sampler of [`CpHash::partition_stats`] for metrics
    /// registries: it clones the shared per-server cells, so it stays
    /// valid (freezing at the final published values) even after the
    /// table shuts down.
    pub fn partition_stats_sampler(&self) -> impl Fn() -> PartitionStats + Send + Sync + 'static {
        let cells = self.partition_stats.clone();
        move || {
            let mut total = PartitionStats::default();
            for p in &cells {
                total.merge(&p.lock());
            }
            total
        }
    }

    /// Stop all server threads and wait for them to exit.  Safe to call
    /// more than once; dropping the table calls it implicitly.
    pub fn shutdown(&mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        for doorbell in &self.doorbells {
            doorbell.ring();
        }
        for handle in self.servers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CpHash {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl core::fmt::Debug for CpHash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CpHash")
            .field("partitions", &self.partitions())
            .field("spawned", &self.server_stats.len())
            .field("clients", &self.config.clients)
            .field("capacity_bytes", &self.config.capacity_bytes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{CompletionKind, TableError};
    use cphash_hashcore::EvictionPolicy;

    #[test]
    fn basic_insert_lookup_delete() {
        let (mut table, mut clients) = CpHash::with_partitions(2, 1);
        let client = &mut clients[0];
        assert!(client.insert(1, b"hello").unwrap());
        assert!(client.insert(2, b"world").unwrap());
        assert_eq!(client.get(1).unwrap().unwrap().as_slice(), b"hello");
        assert_eq!(client.get(2).unwrap().unwrap().as_slice(), b"world");
        assert!(client.get(3).unwrap().is_none());
        assert!(client.delete(1).unwrap());
        assert!(!client.delete(1).unwrap());
        assert!(client.get(1).unwrap().is_none());
        let snap = table.snapshot();
        assert!(snap.operations >= 7);
        table.shutdown();
    }

    #[test]
    fn values_larger_than_inline_threshold() {
        let (mut table, mut clients) = CpHash::with_partitions(2, 1);
        let client = &mut clients[0];
        let big = vec![0xABu8; 1000];
        assert!(client.insert(42, &big).unwrap());
        let got = client.get(42).unwrap().unwrap();
        assert_eq!(got.as_slice(), big.as_slice());
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn overwrite_replaces_value() {
        let (mut table, mut clients) = CpHash::with_partitions(4, 1);
        let client = &mut clients[0];
        client.insert(9, b"first").unwrap();
        client.insert(9, b"second").unwrap();
        assert_eq!(client.get(9).unwrap().unwrap().as_slice(), b"second");
        drop(clients);
        table.shutdown();
        // Partition statistics are published (at the latest) at shutdown.
        let stats = table.partition_stats();
        assert!(stats.inserts >= 2);
        assert_eq!(stats.replacements, 1);
    }

    #[test]
    fn pipelined_batch_of_operations() {
        let (mut table, mut clients) = CpHash::with_partitions(4, 1);
        let client = &mut clients[0];
        const N: u64 = 2_000;
        let mut insert_tokens = Vec::new();
        for key in 0..N {
            insert_tokens.push(client.submit_insert(key, &key.to_le_bytes()));
        }
        let mut completions = Vec::new();
        client.drain(&mut completions).unwrap();
        assert_eq!(completions.len(), N as usize);
        assert!(completions
            .iter()
            .all(|c| c.kind == CompletionKind::Inserted));

        let mut lookup_tokens = Vec::new();
        for key in 0..N {
            lookup_tokens.push((key, client.submit_lookup(key)));
        }
        completions.clear();
        client.drain(&mut completions).unwrap();
        assert_eq!(completions.len(), N as usize);
        // Every lookup must hit and return its own key as the value.
        for (key, token) in lookup_tokens {
            let c = completions
                .iter()
                .find(|c| c.token == token)
                .expect("completion for token");
            match &c.kind {
                CompletionKind::LookupHit(v) => {
                    assert_eq!(v.as_slice(), key.to_le_bytes());
                }
                other => panic!("key {key} completed as {other:?}"),
            }
        }
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn multiple_clients_share_the_table() {
        let (mut table, clients) = CpHash::with_partitions(2, 4);
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                std::thread::spawn(move || {
                    let base = (i as u64) * 10_000;
                    for key in base..base + 500 {
                        assert!(client.insert(key, &key.to_le_bytes()).unwrap());
                    }
                    for key in base..base + 500 {
                        let v = client.get(key).unwrap().expect("own key present");
                        assert_eq!(v.as_slice(), key.to_le_bytes());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Partition statistics are guaranteed up to date after shutdown.
        table.shutdown();
        let stats = table.partition_stats();
        assert!(stats.inserts >= 2_000);
    }

    #[test]
    fn capacity_bound_triggers_eviction() {
        let config = CpHashConfig::new(2, 1).with_capacity(1024, 8);
        let (mut table, mut clients) = CpHash::new(config);
        let client = &mut clients[0];
        for key in 0..1_000u64 {
            assert!(client.insert(key, &key.to_le_bytes()).unwrap());
        }
        // The table holds at most 1024 bytes of values; old keys are gone.
        let stats_hits_possible: usize = (0..1_000u64)
            .filter(|&k| client.get(k).unwrap().is_some())
            .count();
        assert!(
            stats_hits_possible <= 128,
            "at most capacity/value_size keys survive"
        );
        assert!(stats_hits_possible > 0, "the most recent keys survive");
        let pstats = table.partition_stats();
        assert!(pstats.evictions > 0);
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn random_eviction_policy_works_end_to_end() {
        let config = CpHashConfig::new(2, 1)
            .with_capacity(512, 8)
            .with_eviction(EvictionPolicy::Random);
        let (mut table, mut clients) = CpHash::new(config);
        let client = &mut clients[0];
        for key in 0..500u64 {
            assert!(client.insert(key, &key.to_le_bytes()).unwrap());
        }
        let survivors = (0..500u64)
            .filter(|&k| client.get(k).unwrap().is_some())
            .count();
        assert!(survivors <= 64);
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn operations_after_shutdown_report_server_gone() {
        let (mut table, mut clients) = CpHash::with_partitions(1, 1);
        table.shutdown();
        let client = &mut clients[0];
        assert_eq!(client.get(5).unwrap_err(), TableError::ServerGone);
    }

    #[test]
    fn snapshot_reports_utilization_and_pinning() {
        let (mut table, mut clients) = CpHash::with_partitions(2, 1);
        clients[0].insert(1, b"x").unwrap();
        // Give the servers a moment to accumulate idle iterations.
        std::thread::sleep(std::time::Duration::from_millis(5));
        let snap = table.snapshot();
        assert_eq!(snap.servers, 2);
        assert!(snap.mean_utilization >= 0.0 && snap.mean_utilization <= 1.0);
        drop(clients);
        table.shutdown();
    }

    /// Poll `done` once a millisecond, for at most ten seconds.  Servers
    /// park ~300 µs after their last request (2 ms after start-up if they
    /// never get one); the bound only matters on a host running many tests
    /// at once.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn partition_stats_are_exact_once_the_table_goes_quiet() {
        // A sleeping server makes no iterations, so the every-4096th
        // republish never comes: it publishes right before it sleeps
        // instead, and a quiet table's shared statistics count every
        // operation without a shutdown to flush them.
        let (mut table, mut clients) = CpHash::with_partitions(2, 1);
        let client = &mut clients[0];
        for key in 0..300u64 {
            assert!(client.insert(key, &key.to_le_bytes()).unwrap());
        }
        for key in 0..500u64 {
            assert_eq!(client.get(key).unwrap().is_some(), key < 300);
        }
        let exact = eventually(|| {
            let stats = table.partition_stats();
            (stats.inserts, stats.lookups, stats.hits) == (300, 500, 300)
        });
        assert!(exact, "quiet table reads {:?}", table.partition_stats());
        drop(clients);
        table.shutdown();
    }

    #[test]
    fn shutdown_wakes_servers_that_are_all_asleep() {
        // Two active servers that have served a request and two spares that
        // have never seen a message, all parked: shutdown has to ring every
        // doorbell, since nothing else will ever wake them.
        let config = CpHashConfig::new(2, 1).with_max_partitions(4);
        let (mut table, mut clients) = CpHash::new(config);
        clients[0].insert(1, b"x").unwrap();
        clients[0].insert(2, b"y").unwrap();
        assert!(eventually(|| table
            .server_stats()
            .iter()
            .all(|s| s.parks() >= 1)));
        let began = std::time::Instant::now();
        table.shutdown();
        let took = began.elapsed();
        assert!(
            took < std::time::Duration::from_millis(50),
            "shutdown of a sleeping table took {took:?}"
        );
        assert!(table.server_stats().iter().all(|s| s.is_stopped()));
    }

    #[test]
    fn elastic_table_spawns_extra_idle_servers() {
        let config = CpHashConfig::new(2, 1).with_max_partitions(4);
        let (mut table, mut clients) = CpHash::new(config);
        assert_eq!(table.partitions(), 2);
        assert_eq!(table.server_stats().len(), 4);
        assert_eq!(
            table.snapshot().servers,
            2,
            "snapshot covers active servers only"
        );
        // The control plane exists exactly once.
        let control = table.take_control().expect("control handle");
        assert!(table.take_control().is_none());
        assert_eq!(control.servers(), 4);
        // Ordinary operation is unaffected by the idle servers.
        let client = &mut clients[0];
        for key in 0..100u64 {
            assert!(client.insert(key, &key.to_le_bytes()).unwrap());
        }
        for key in 0..100u64 {
            assert_eq!(
                client.get(key).unwrap().unwrap().as_slice(),
                key.to_le_bytes()
            );
        }
        drop(control);
        drop(clients);
        table.shutdown();
    }
}
