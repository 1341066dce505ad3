//! The acceptance test for the unified typed operations API: one shared
//! scenario — byte-string keys, get/insert/delete, pipelined window —
//! driven through the [`KvClient`] trait against
//!
//! 1. the in-process table,
//! 2. CPSERVER over TCP speaking kvproto v2, and
//! 3. the memcached-style baseline cluster behind a client-side
//!    partitioning client,
//!
//! with identical observable results.

use cphash_suite::kvserver::{CpServer, CpServerConfig, MemcacheCluster, MemcacheConfig};
use cphash_suite::loadgen::{run_anykey_mixed, AnyKeyMixOptions};
use cphash_suite::{
    CpHash, CpHashConfig, KeyRef, KvClient, LockHash, LockHashConfig, PartitionedClient,
    RemoteClient,
};

fn scenario() -> AnyKeyMixOptions {
    AnyKeyMixOptions {
        operations: 20_000,
        distinct_keys: 2_000,
        value_bytes: 24,
        set_ratio: 0.3,
        delete_ratio: 0.1,
        window: 64,
        ..Default::default()
    }
}

/// The short deterministic get/insert/delete script every backend must
/// agree on, exercised through the blocking trait helpers.
fn run_script(client: &mut dyn KvClient) -> Vec<String> {
    let mut log = Vec::new();
    let mut note = |s: String| log.push(s);
    note(format!(
        "miss:{:?}",
        client.get_blocking(KeyRef::Bytes(b"user:alpha")).unwrap()
    ));
    assert!(client
        .insert_blocking(KeyRef::Bytes(b"user:alpha"), b"A")
        .unwrap());
    assert!(client
        .insert_blocking(KeyRef::Hash(42), b"forty-two")
        .unwrap());
    note(format!(
        "hit:{:?}",
        client
            .get_blocking(KeyRef::Bytes(b"user:alpha"))
            .unwrap()
            .map(|v| v.as_slice().to_vec())
    ));
    note(format!(
        "hit42:{:?}",
        client
            .get_blocking(KeyRef::Hash(42))
            .unwrap()
            .map(|v| v.as_slice().to_vec())
    ));
    note(format!(
        "del:{}",
        client
            .delete_blocking(KeyRef::Bytes(b"user:alpha"))
            .unwrap()
    ));
    note(format!(
        "del-again:{}",
        client
            .delete_blocking(KeyRef::Bytes(b"user:alpha"))
            .unwrap()
    ));
    note(format!(
        "post-del:{:?}",
        client.get_blocking(KeyRef::Bytes(b"user:alpha")).unwrap()
    ));
    note(format!(
        "del42:{}",
        client.delete_blocking(KeyRef::Hash(42)).unwrap()
    ));
    log
}

#[test]
fn one_scenario_three_backends_identical_results() {
    // --- in-process -----------------------------------------------------
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let in_proc_script = run_script(&mut clients[0]);
    let in_proc = run_anykey_mixed(&mut clients[0], &scenario()).unwrap();
    drop(clients);
    table.shutdown();

    // --- CPSERVER over TCP (kvproto v2) ---------------------------------
    let mut server = CpServer::start(CpServerConfig {
        client_threads: 2,
        partitions: 2,
        ..Default::default()
    })
    .unwrap();
    let mut remote = RemoteClient::connect(server.addr()).unwrap();
    assert_eq!(remote.protocol_version(), 2, "fresh server negotiates v2");
    let remote_script = run_script(&mut remote);
    let cpserver = run_anykey_mixed(&mut remote, &scenario()).unwrap();
    assert!(server.metrics().deletes() > 0);
    drop(remote);
    server.shutdown();

    // --- memcached-style cluster, client-side partitioning --------------
    let mut cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 2,
        ..Default::default()
    })
    .unwrap();
    let mut partitioned = PartitionedClient::connect(&cluster.addrs()).unwrap();
    assert_eq!(partitioned.shards(), 2);
    let cluster_script = run_script(&mut partitioned);
    let memcache = run_anykey_mixed(&mut partitioned, &scenario()).unwrap();
    drop(partitioned);
    cluster.shutdown();

    // Identical observable results everywhere.
    assert_eq!(in_proc_script, remote_script);
    assert_eq!(in_proc_script, cluster_script);
    assert_eq!(in_proc.observation(), cpserver.observation());
    assert_eq!(in_proc.observation(), memcache.observation());
    assert!(in_proc.get_hits > 0 && in_proc.delete_hits > 0);
    assert_eq!(in_proc.failures, 0);
}

/// Hash-key get / insert / delete on a backend, with or without the trait
/// (LockHash is a plain shared table).
trait HashKeyStore {
    fn put(&mut self, key: u64, value: &[u8]) -> bool;
    fn fetch(&mut self, key: u64) -> Option<Vec<u8>>;
    fn remove(&mut self, key: u64) -> bool;
}

impl<C: KvClient> HashKeyStore for C {
    fn put(&mut self, key: u64, value: &[u8]) -> bool {
        self.insert_blocking(KeyRef::Hash(key), value).unwrap()
    }
    fn fetch(&mut self, key: u64) -> Option<Vec<u8>> {
        let value = self.get_blocking(KeyRef::Hash(key)).unwrap();
        value.map(|v| v.as_slice().to_vec())
    }
    fn remove(&mut self, key: u64) -> bool {
        self.delete_blocking(KeyRef::Hash(key)).unwrap()
    }
}

struct Locked(LockHash);

impl HashKeyStore for Locked {
    fn put(&mut self, key: u64, value: &[u8]) -> bool {
        self.0.insert(key, value)
    }
    fn fetch(&mut self, key: u64) -> Option<Vec<u8>> {
        self.0.get(key)
    }
    fn remove(&mut self, key: u64) -> bool {
        self.0.delete(key)
    }
}

/// Values on both sides of the 8-byte boundary — at or under it a value
/// lives in its element and travels in the CPHash request and reply words,
/// over it it takes a slab block and travels by pointer — and, among the
/// 8-byte ones, the words that mean MISS, FOUND and RETRY in a reply that
/// carries no value.
fn run_short_value_script(store: &mut dyn HashKeyStore) -> Vec<String> {
    let mut log = Vec::new();
    let values: Vec<Vec<u8>> = vec![
        0u64.to_le_bytes().to_vec(),
        1u64.to_le_bytes().to_vec(),
        u64::MAX.to_le_bytes().to_vec(),
        Vec::new(),
        vec![0xA7; 7],
        vec![0xA8; 8],
        vec![0xA9; 9],
    ];
    for (key, value) in values.iter().enumerate() {
        let key = 1_000 + key as u64;
        assert!(store.put(key, value));
        assert_eq!(store.fetch(key).as_ref(), Some(value), "key {key}");
        log.push(format!("{key}={:?}", store.fetch(key)));
    }
    // One key replaced across the boundary and back.
    for len in [8usize, 64, 8] {
        let value = vec![len as u8; len];
        assert!(store.put(1_000, &value));
        assert_eq!(store.fetch(1_000), Some(value), "replace with {len} bytes");
        log.push(format!("replace{len}={:?}", store.fetch(1_000)));
    }
    for key in 1_000..1_000 + values.len() as u64 {
        assert!(store.remove(key), "key {key}");
        log.push(format!("gone{key}={:?}", store.fetch(key)));
        assert!(!store.remove(key));
    }
    log
}

#[test]
fn short_values_round_trip_identically_on_every_backend() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let in_proc = run_short_value_script(&mut clients[0]);
    drop(clients);
    table.shutdown();
    // Nothing is left behind, pinned or charged.
    let stats = table.partition_stats();
    assert_eq!((stats.deletes, stats.deferred_frees), (7, 0));

    let mut locked = Locked(LockHash::new(LockHashConfig::new(4)));
    let lockhash = run_short_value_script(&mut locked);
    assert_eq!(locked.0.bytes_in_use(), 0);

    let mut server = CpServer::start(CpServerConfig {
        client_threads: 1,
        partitions: 2,
        ..Default::default()
    })
    .unwrap();
    let mut remote = RemoteClient::connect(server.addr()).unwrap();
    let cpserver = run_short_value_script(&mut remote);
    drop(remote);
    server.shutdown();

    assert_eq!(in_proc, lockhash);
    assert_eq!(in_proc, cpserver);
}
