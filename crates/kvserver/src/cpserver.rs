//! CPSERVER: the CPHash-backed key/value cache server (paper §4.1).
//!
//! Each client thread runs the worker loop all three servers share
//! (`serve::serve`) over its own [`cphash::ClientHandle`]; an admin thread
//! owns the table's repartition coordinator when the table may be resized.

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cphash::{CpHash, CpHashConfig, EvictionPolicy};
use cphash_affinity::HwThreadId;
use cphash_migrate::{MigrationPacer, MigrationPacing, RepartitionCoordinator};

use crate::acceptor::shard_listeners;
use crate::metrics::ServerMetrics;
use crate::serve::{AdminRequest, ServeCtx, Workers};
use crate::stats_http::spawn_stats_listener;

/// The admin thread: serializes resize requests onto the coordinator,
/// pacing each at the frame's chunks/sec budget, or at the server's
/// default pacing when the frame carries none.
fn admin_worker(
    mut coordinator: RepartitionCoordinator,
    default_pacing: MigrationPacing,
    requests: mpsc::Receiver<AdminRequest>,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
) {
    // relaxed: stop flag; shutdown needs no ordering
    while !stop.load(Ordering::Relaxed) {
        match requests.recv_timeout(Duration::from_millis(20)) {
            Ok(request) => {
                let pacing = match request.chunks_per_sec {
                    Some(rate) => MigrationPacing::Rate {
                        chunks_per_sec: rate as f64,
                    },
                    None => default_pacing,
                };
                let mut pacer = MigrationPacer::from_config(pacing);
                let status = match coordinator.resize_to_paced(request.new_partitions, &mut pacer) {
                    Ok(report) => {
                        // Publish live-repartitioning progress on the
                        // metrics plane before answering the client.
                        metrics.note_repartition(
                            report.chunks as u64,
                            report.keys_moved as u64,
                            report.paced_waits,
                            pacer.current_rate(),
                        );
                        format!(
                            "partitions={} moved={} chunks={} paced_waits={}",
                            report.to_partitions,
                            report.keys_moved,
                            report.chunks,
                            report.paced_waits
                        )
                    }
                    Err(e) => format!("ERR {e}"),
                };
                // The requesting worker may have dropped the receiver when
                // its connection closed; that is fine.
                let _ = request.reply.send(status);
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Configuration for [`CpServer`].
#[derive(Debug, Clone)]
pub struct CpServerConfig {
    /// Address to bind ("127.0.0.1:0" picks a free port).
    pub bind: SocketAddr,
    /// Client threads gathering requests from TCP connections.
    pub client_threads: usize,
    /// CPHash partitions / server threads.
    pub partitions: usize,
    /// Total hash-table byte budget.
    pub capacity_bytes: Option<usize>,
    /// Typical value size, used to size the bucket arrays.
    pub typical_value_bytes: usize,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Hardware threads to pin CPHash server threads to.
    pub server_pins: Vec<HwThreadId>,
    /// Upper bound for the runtime `resize` admin command. Resize is only
    /// enabled when this exceeds `partitions`; otherwise (0 or equal) the
    /// table is static and RESIZE frames are refused.
    pub max_partitions: usize,
    /// Default pacing for live resizes (RESIZE frames may override it per
    /// request with an explicit chunks-per-second budget).
    pub migration_pacing: MigrationPacing,
    /// Pipeline depth for the hash-table servers (operations staged per
    /// batch).
    pub batch_size: usize,
    /// Address for the Prometheus stats HTTP endpoint (`None` disables it;
    /// port 0 picks a free port, reported by [`CpServer::stats_addr`]).
    pub stats_addr: Option<SocketAddr>,
}

impl Default for CpServerConfig {
    fn default() -> Self {
        CpServerConfig {
            bind: "127.0.0.1:0".parse().expect("literal address"),
            client_threads: 2,
            partitions: 2,
            capacity_bytes: None,
            typical_value_bytes: 64,
            eviction: EvictionPolicy::Clock,
            server_pins: Vec::new(),
            max_partitions: 0,
            migration_pacing: MigrationPacing::Unpaced,
            batch_size: cphash::DEFAULT_BATCH_SIZE,
            stats_addr: None,
        }
    }
}

/// A running CPSERVER.
pub struct CpServer {
    addr: SocketAddr,
    stats_addr: Option<SocketAddr>,
    workers: Workers,
    table: Option<CpHash>,
    metrics: Arc<ServerMetrics>,
}

impl CpServer {
    /// Start the server: binds one listener per client thread, spawns the
    /// client threads and the CPHash server threads.
    pub fn start(config: CpServerConfig) -> std::io::Result<CpServer> {
        let mut table_config = CpHashConfig::new(config.partitions, config.client_threads);
        if let Some(capacity) = config.capacity_bytes {
            table_config = table_config.with_capacity(capacity, config.typical_value_bytes.max(1));
        }
        table_config.eviction = config.eviction;
        table_config.server_pins = config.server_pins.clone();
        table_config.max_partitions = config.max_partitions;
        table_config.batch_size = config.batch_size;
        // Refuse a bad default pacing at start, not at the first RESIZE.
        config.migration_pacing.validate();
        let (table, handles) = CpHash::new(table_config);

        let metrics = Arc::new(ServerMetrics::new());
        metrics.attach_servers(table.server_stats());
        metrics.attach_partition_source(table.partition_stats_sampler());
        // Every client thread accepts on its own listener (see `acceptor`).
        let (addr, listeners) = shard_listeners(config.bind, config.client_threads)?;
        let mut workers = Workers::new();

        let mut stats_addr = None;
        if let Some(requested) = config.stats_addr {
            let (bound, handle) =
                spawn_stats_listener(requested, Arc::clone(&metrics), workers.stop_flag())?;
            stats_addr = Some(bound);
            workers.keep(handle);
        }
        // The admin thread owns the table's repartition coordinator and
        // serializes `resize` requests from every client thread. A static
        // table (max_partitions == 0) gets no admin thread at all, so even
        // shrink requests are refused rather than re-shaping a topology the
        // operator declared fixed.
        let resize_enabled = config.max_partitions > config.partitions;
        let mut ctx = ServeCtx::new(Arc::clone(&metrics));
        if resize_enabled {
            let coordinator =
                RepartitionCoordinator::new(table.take_control().expect("fresh table has control"));
            let (admin, requests) = mpsc::channel();
            ctx.admin = Some(admin);
            let stop = workers.stop_flag();
            let metrics = Arc::clone(&metrics);
            let pacing = config.migration_pacing;
            workers.keep(
                std::thread::Builder::new()
                    .name("cpserver-admin".into())
                    .spawn(move || admin_worker(coordinator, pacing, requests, stop, metrics))
                    .expect("spawning the admin thread"),
            );
        }

        for (index, (handle, listener)) in handles.into_iter().zip(listeners).enumerate() {
            let name = format!("cpserver-client-{index}");
            workers.spawn(name, handle, listener, ctx.clone());
        }

        Ok(CpServer {
            addr,
            stats_addr,
            workers,
            table: Some(table),
            metrics,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the Prometheus stats endpoint, when enabled.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats_addr
    }

    /// Request metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Aggregate hash-table statistics.
    pub fn table_stats(&self) -> cphash::PartitionStats {
        self.table
            .as_ref()
            .map(|t| t.partition_stats())
            .unwrap_or_default()
    }

    /// Live counters of the table's server threads, one entry per spawned
    /// partition server (empty once the server has shut down).
    pub fn server_stats(&self) -> &[Arc<cphash::ServerStats>] {
        self.table.as_ref().map_or(&[], |t| t.server_stats())
    }

    /// Stop every thread and shut the table down.
    pub fn shutdown(&mut self) {
        self.workers.shutdown();
        if let Some(mut table) = self.table.take() {
            table.shutdown();
        }
    }
}

impl Drop for CpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash::{CompletionKind, KeyRef, KvClient, KvError, KvOp, OpError, RemoteClient};

    /// Pipeline an insert of `key -> key.to_le_bytes()` for every key and
    /// wait for all of them to be acknowledged.
    fn insert_keys(client: &mut RemoteClient, keys: std::ops::Range<u64>) {
        let expected = keys.end - keys.start;
        for key in keys {
            client.submit(KvOp::Insert(KeyRef::Hash(key), &key.to_le_bytes()));
        }
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        assert_eq!(completions.len() as u64, expected);
        assert!(completions
            .iter()
            .all(|c| c.kind == CompletionKind::Inserted));
    }

    /// Every key must read back the value [`insert_keys`] stored.
    fn assert_keys_hit(client: &mut RemoteClient, keys: std::ops::Range<u64>) {
        for key in keys {
            let got = client.get_blocking(KeyRef::Hash(key)).unwrap();
            assert_eq!(
                got.as_ref().map(|v| v.as_slice()),
                Some(&key.to_le_bytes()[..]),
                "key {key}"
            );
        }
    }

    #[test]
    fn stats_count_four_expected_keys_per_bucket_line() {
        // A budget of 2¹⁴ 32-byte values over two partitions: 2¹³ expected
        // keys each, so 2¹² lines in all, and room for every 8-byte value
        // however the keys split.  Two servers, same reading.
        const KEYS: u64 = 1 << 14;
        let gauges = || {
            let mut server = CpServer::start(CpServerConfig {
                client_threads: 1,
                partitions: 2,
                capacity_bytes: Some(KEYS as usize * 32),
                typical_value_bytes: 32,
                ..Default::default()
            })
            .unwrap();
            let before = server.metrics().snapshot();
            assert_eq!((before.bucket_lines, before.resident_keys), (KEYS / 4, 0));
            let mut client = RemoteClient::connect(server.addr()).unwrap();
            for start in (0..KEYS).step_by(1024) {
                insert_keys(&mut client, start..start + 1024);
            }
            // Servers publish their statistics before they go to sleep.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while server.metrics().snapshot().resident_keys < KEYS
                && std::time::Instant::now() < deadline
            {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let after = server.metrics().snapshot();
            server.shutdown();
            (after.bucket_lines, after.resident_keys)
        };
        let first = gauges();
        assert_eq!(first, (KEYS / 4, KEYS), "lines and resident keys");
        assert_eq!(gauges(), first, "a second run reads the same");
    }

    #[test]
    fn many_connections_and_interleaved_clients() {
        let mut server = CpServer::start(CpServerConfig {
            client_threads: 2,
            partitions: 2,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = RemoteClient::connect(addr).unwrap();
                    let keys = t * 1_000..t * 1_000 + 200;
                    insert_keys(&mut client, keys.clone());
                    assert_keys_hit(&mut client, keys);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.metrics().snapshot().hit_rate() > 0.99);
        server.shutdown();
    }

    #[test]
    fn pipelined_insert_get_pairs_read_their_own_writes() {
        // Interleaved dependent pairs: a lookup pipelined right behind its
        // own key's insert must never observe a miss.
        let mut server = CpServer::start(CpServerConfig::default()).unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        assert_eq!(client.protocol_version(), 2);
        let mut get_tokens = Vec::new();
        for key in 0..200u64 {
            client.submit(KvOp::Insert(KeyRef::Hash(key), &(key ^ 0xAB).to_le_bytes()));
            get_tokens.push((key, client.submit(KvOp::Get(KeyRef::Hash(key)))));
        }
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        for (key, token) in get_tokens {
            let completion = completions
                .iter()
                .find(|c| c.token == token)
                .expect("completion for the read");
            match &completion.kind {
                CompletionKind::LookupHit(v) => {
                    assert_eq!(v.as_slice(), (key ^ 0xAB).to_le_bytes(), "key {key}")
                }
                other => panic!("read-after-write of key {key} completed as {other:?}"),
            }
        }
        server.shutdown();
    }

    #[test]
    fn batch_pipeline_counters_are_visible_through_metrics() {
        let mut server = CpServer::start(CpServerConfig {
            batch_size: 16,
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        insert_keys(&mut client, 0..500);
        assert_keys_hit(&mut client, 0..500);
        let batch = server.metrics().snapshot().batch;
        assert!(batch.batches > 0, "staged rounds must have run: {batch:?}");
        assert!(batch.ops >= 1_000, "every data op runs batched: {batch:?}");
        assert!(batch.avg_occupancy() >= 1.0);
        server.shutdown();
    }

    /// The `paced_waits=K` field of a successful RESIZE status line.
    fn paced_waits(status: &str) -> u64 {
        assert!(
            status.starts_with("partitions=4"),
            "unexpected status {status:?}"
        );
        status
            .split_whitespace()
            .find_map(|f| f.strip_prefix("paced_waits="))
            .expect("status reports paced_waits")
            .parse()
            .unwrap()
    }

    #[test]
    fn default_rate_pacing_paces_a_resize_without_a_wire_budget() {
        let mut server = CpServer::start(CpServerConfig {
            partitions: 2,
            max_partitions: 4,
            migration_pacing: MigrationPacing::Rate {
                chunks_per_sec: 250.0,
            },
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        insert_keys(&mut client, 0..300);
        // No budget on the frame: the server's default rate paces it.
        let status = client.admin_resize(4, 0).unwrap();
        assert!(
            paced_waits(&status) > 0,
            "the default rate must delay some hand-offs: {status:?}"
        );
        // Every key survives the paced transition.
        assert_keys_hit(&mut client, 0..300);
        server.shutdown();
    }

    #[test]
    fn paced_resize_over_the_wire_reports_paced_waits() {
        let mut server = CpServer::start(CpServerConfig {
            partitions: 2,
            max_partitions: 4,
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        insert_keys(&mut client, 0..200);
        // Resize 2 -> 4 with an explicit budget of 250 chunk hand-offs/sec
        // (64 chunks ≈ 256 ms minimum — well above the unpaced hand-off
        // latency, so the bucket must actually delay), overriding the
        // server's default (unpaced) configuration.
        let status = client.admin_resize(4, 250).unwrap();
        assert!(
            paced_waits(&status) > 0,
            "a finite budget must delay some hand-offs: {status:?}"
        );
        // Data still intact after the paced transition.
        assert_keys_hit(&mut client, 0..200);
        server.shutdown();
    }

    #[test]
    fn resize_admin_command_repartitions_the_live_server() {
        let mut server = CpServer::start(CpServerConfig {
            partitions: 2,
            max_partitions: 4,
            ..Default::default()
        })
        .unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();

        // Populate, then resize 2 -> 4 over the wire.
        insert_keys(&mut client, 0..500);
        let status = client.admin_resize(4, 0).unwrap();
        assert!(
            status.starts_with("partitions=4"),
            "unexpected status {status:?}"
        );
        // Every key must still be served after the live repartition.
        assert_keys_hit(&mut client, 0..500);

        // Out-of-range resizes report errors over the wire.
        assert_eq!(client.admin_resize(64, 0), Err(KvError::Op(OpError::Admin)));
        assert_eq!(server.metrics().snapshot().admin_commands, 2);
        server.shutdown();
    }
}
