//! LOCKSERVER: the LockHash-backed key/value cache server (paper §4.2).

use cphash_sync::atomic::plain::{AtomicBool, Ordering};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

use cphash_lockhash::{EvictionPolicy, LockHash, LockHashConfig, LockKind};

use crate::acceptor::shard_listeners;
use crate::metrics::ServerMetrics;
use crate::serve::serve_sync;

/// Configuration for [`LockServer`].
#[derive(Debug, Clone)]
pub struct LockServerConfig {
    /// Address to bind ("127.0.0.1:0" picks a free port).
    pub bind: SocketAddr,
    /// Worker threads processing TCP connections (the paper uses one per
    /// hardware thread).
    pub worker_threads: usize,
    /// LockHash partitions (4,096 in the paper).
    pub partitions: usize,
    /// Total hash-table byte budget.
    pub capacity_bytes: Option<usize>,
    /// Typical value size, used to size the bucket arrays.
    pub typical_value_bytes: usize,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
    /// Lock algorithm.
    pub lock_kind: LockKind,
}

impl Default for LockServerConfig {
    fn default() -> Self {
        LockServerConfig {
            bind: "127.0.0.1:0".parse().expect("literal address"),
            worker_threads: 2,
            partitions: 256,
            capacity_bytes: None,
            typical_value_bytes: 64,
            eviction: EvictionPolicy::Clock,
            lock_kind: LockKind::Spin,
        }
    }
}

/// A running LOCKSERVER.
pub struct LockServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    table: Arc<LockHash>,
    metrics: Arc<ServerMetrics>,
}

impl LockServer {
    /// Start the server.
    pub fn start(config: LockServerConfig) -> std::io::Result<LockServer> {
        let mut table_config = LockHashConfig::new(config.partitions)
            .with_eviction(config.eviction)
            .with_lock_kind(config.lock_kind);
        if let Some(capacity) = config.capacity_bytes {
            table_config = table_config.with_capacity(capacity, config.typical_value_bytes.max(1));
        }
        let table = Arc::new(LockHash::new(table_config));

        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::new());
        {
            let table = Arc::clone(&table);
            metrics.attach_partition_source(move || table.stats());
        }
        // Every worker accepts on its own listener (see `acceptor`) and
        // executes requests directly against the lock-based table ("first
        // acquiring the lock for the appropriate partition, then performing
        // the query, updating the LRU list and, finally, releasing the
        // lock", §4.2).
        let (addr, listeners) = shard_listeners(config.bind, config.worker_threads)?;
        let mut threads = Vec::with_capacity(listeners.len());
        for (index, listener) in listeners.into_iter().enumerate() {
            let stop = Arc::clone(&stop);
            let metrics = Arc::clone(&metrics);
            let table = Arc::clone(&table);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("lockserver-worker-{index}"))
                    .spawn(move || serve_sync(listener, &*table, "LOCKSERVER", &stop, &metrics))
                    .expect("spawning a worker thread"),
            );
        }

        Ok(LockServer {
            addr,
            stop,
            threads,
            table,
            metrics,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Aggregate hash-table statistics.
    pub fn table_stats(&self) -> cphash_lockhash::PartitionStats {
        self.table.stats()
    }

    /// Stop every thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for LockServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash::{KeyRef, KvClient, RemoteClient};

    fn lookup(client: &mut RemoteClient, key: u64) -> Option<Vec<u8>> {
        let hit = client.get_blocking(KeyRef::Hash(key)).unwrap();
        hit.map(|value| value.as_slice().to_vec())
    }

    #[test]
    fn serves_the_same_protocol_as_cpserver() {
        let mut server = LockServer::start(LockServerConfig::default()).unwrap();
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        assert_eq!(lookup(&mut client, 7), None);
        assert!(client
            .insert_blocking(KeyRef::Hash(7), b"locked value")
            .unwrap());
        assert_eq!(
            lookup(&mut client, 7).as_deref(),
            Some(&b"locked value"[..])
        );
        assert_eq!(server.table_stats().inserts, 1);
        assert_eq!(server.metrics().requests(), 3);
        server.shutdown();
    }

    #[test]
    fn serves_over_the_cloned_listener_tier() {
        // An IPv6 bind cannot use the SO_REUSEPORT shard set, so both
        // workers accept on clones of one socket.
        let Ok(mut server) = LockServer::start(LockServerConfig {
            bind: "[::1]:0".parse().unwrap(),
            ..Default::default()
        }) else {
            eprintln!("skipping: no IPv6 loopback on this host");
            return;
        };
        assert!(server.addr().is_ipv6());
        let mut client = RemoteClient::connect(server.addr()).unwrap();
        assert!(client.insert_blocking(KeyRef::Hash(9), b"over v6").unwrap());
        assert_eq!(lookup(&mut client, 9).as_deref(), Some(&b"over v6"[..]));
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_with_disjoint_keys() {
        let mut server = LockServer::start(LockServerConfig {
            worker_threads: 2,
            partitions: 64,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = RemoteClient::connect(addr).unwrap();
                    for key in t * 500..t * 500 + 100 {
                        assert!(client
                            .insert_blocking(KeyRef::Hash(key), &key.to_le_bytes())
                            .unwrap());
                    }
                    for key in t * 500..t * 500 + 100 {
                        assert_eq!(
                            lookup(&mut client, key).as_deref(),
                            Some(&key.to_le_bytes()[..])
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(server.metrics().hit_rate() > 0.99);
        server.shutdown();
    }
}
