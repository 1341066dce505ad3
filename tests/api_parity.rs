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
use cphash_suite::{CpHash, CpHashConfig, KeyRef, KvClient, PartitionedClient, RemoteClient};

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
