//! A memcached-style baseline cluster (paper §7, Figure 14).
//!
//! The paper compares CPSERVER/LOCKSERVER against stock MEMCACHED: "Since
//! MEMCACHED uses a single lock to protect its state, we ran a separate,
//! independent instance of MEMCACHED on every core, and configured the
//! client to partition the key space across these multiple MEMCACHED
//! instances."  Stock memcached is a C program outside this reproduction's
//! scope; what the comparison actually exercises is its *structure* — one
//! coarse lock per instance, a thread per connection, no batching of
//! hash-table work — so that is what [`MemcacheCluster`] reproduces.
//!
//! Each instance owns a single [`cphash_hashcore::Partition`] behind one
//! global mutex and serves every connection from one instance thread
//! running the worker loop all three servers share (`serve::serve`) on a
//! [`crate::reactor::Reactor`], each operation run to completion under the
//! lock by the synchronous adapter (`serve::SyncClient`).  That keeps the
//! structural property the comparison needs: one coarse lock, no batching
//! of hash-table work.  A cluster starts `instances` of them, each on its
//! own port; the Figure 14 harness partitions keys across instances on the
//! client side, exactly as the paper's clients did.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use cphash_hashcore::{EvictionPolicy, Partition, PartitionConfig};
use parking_lot::Mutex;

use crate::metrics::ServerMetrics;
use crate::serve::{ServeCtx, SyncClient, Workers};

/// Configuration for a [`MemcacheCluster`].
#[derive(Debug, Clone)]
pub struct MemcacheConfig {
    /// Independent instances (the paper runs one per core).
    pub instances: usize,
    /// Byte budget per instance.
    pub capacity_bytes_per_instance: Option<usize>,
    /// Expected elements per instance's table, from which it sizes its
    /// bucket lines.
    pub buckets: usize,
    /// Eviction policy (memcached evicts by recency, which CLOCK
    /// approximates).
    pub eviction: EvictionPolicy,
}

impl Default for MemcacheConfig {
    fn default() -> Self {
        MemcacheConfig {
            instances: 2,
            capacity_bytes_per_instance: None,
            buckets: 4096,
            eviction: EvictionPolicy::Clock,
        }
    }
}

struct Instance {
    addr: SocketAddr,
    store: Arc<Mutex<Partition>>,
}

/// A cluster of single-lock cache instances.
pub struct MemcacheCluster {
    instances: Vec<Instance>,
    workers: Workers,
    metrics: Arc<ServerMetrics>,
}

impl MemcacheCluster {
    /// Start `config.instances` instances, each listening on its own
    /// loopback port.
    pub fn start(config: MemcacheConfig) -> std::io::Result<MemcacheCluster> {
        assert!(config.instances > 0, "need at least one instance");
        let metrics = Arc::new(ServerMetrics::new());
        let ctx = ServeCtx::new(Arc::clone(&metrics));
        let mut instances = Vec::with_capacity(config.instances);
        let mut workers = Workers::new();

        for index in 0..config.instances {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            let addr = listener.local_addr()?;
            let store = Arc::new(Mutex::new(Partition::new(PartitionConfig {
                buckets: config.buckets,
                capacity_bytes: config.capacity_bytes_per_instance,
                eviction: config.eviction,
                seed: 0x4D45_4D43 ^ index as u64,
                // The memcached-style baseline never migrates.
                migration_chunks: 1,
            })));
            instances.push(Instance {
                addr,
                store: Arc::clone(&store),
            });
            {
                let store = Arc::clone(&store);
                metrics.attach_partition_source(move || store.lock().stats());
            }
            let name = format!("memcache-{index}");
            workers.spawn(name, SyncClient::new(store), listener, ctx.clone());
        }

        Ok(MemcacheCluster {
            instances,
            workers,
            metrics,
        })
    }

    /// The addresses of every instance, in index order.  Clients partition
    /// keys across these (e.g. by `hash(key) % instances`).
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.instances.iter().map(|i| i.addr).collect()
    }

    /// Number of instances.
    pub fn instances(&self) -> usize {
        self.instances.len()
    }

    /// Request metrics (aggregated across instances).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Total elements cached across all instances.
    pub fn total_elements(&self) -> usize {
        self.instances.iter().map(|i| i.store.lock().len()).sum()
    }

    /// Stop every thread.
    pub fn shutdown(&mut self) {
        self.workers.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cphash::{KeyRef, KvClient, RemoteClient};

    #[test]
    fn cluster_serves_each_instance_independently() {
        let mut cluster = MemcacheCluster::start(MemcacheConfig {
            instances: 2,
            ..Default::default()
        })
        .unwrap();
        let addrs = cluster.addrs();
        assert_eq!(addrs.len(), 2);
        assert_eq!(cluster.instances(), 2);

        // Client-side partitioning: even keys to instance 0, odd to 1.
        let mut clients: Vec<RemoteClient> = addrs
            .iter()
            .map(|a| RemoteClient::connect(*a).unwrap())
            .collect();
        for key in 0..50u64 {
            let client = &mut clients[(key % 2) as usize];
            assert!(client
                .insert_blocking(KeyRef::Hash(key), &key.to_le_bytes())
                .unwrap());
        }
        for key in 0..50u64 {
            let got = clients[(key % 2) as usize]
                .get_blocking(KeyRef::Hash(key))
                .unwrap();
            assert_eq!(got.unwrap().as_slice(), key.to_le_bytes(), "key {key}");
        }
        // A key stored on instance 0 is invisible to instance 1 — the
        // instances really are independent.
        assert_eq!(clients[1].get_blocking(KeyRef::Hash(0)).unwrap(), None);
        assert_eq!(cluster.total_elements(), 50);
        assert_eq!(cluster.metrics().snapshot().requests, 101);
        cluster.shutdown();
    }
}
