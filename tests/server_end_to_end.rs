//! End-to-end tests of the three key/value servers over real TCP
//! connections, driven by the bundled load generator — the §7 setup shrunk
//! to test size.

use cphash_suite::kvserver::{
    CpServer, CpServerConfig, LockServer, LockServerConfig, MemcacheCluster, MemcacheConfig,
};
use cphash_suite::loadgen::tcp::{run_tcp_load, TcpLoadOptions};
use cphash_suite::loadgen::WorkloadSpec;

fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        working_set_bytes: 64 * 1024,
        capacity_bytes: 64 * 1024,
        operations: 20_000,
        insert_ratio: 0.3,
        prefill: false,
        ..Default::default()
    }
}

/// Drive a CPSERVER whose hash-table servers stage `batch_size` operations
/// per round.
fn cpserver_load_at_depth(batch_size: usize) {
    let mut server = CpServer::start(CpServerConfig {
        client_threads: 2,
        partitions: 2,
        capacity_bytes: Some(64 * 1024),
        typical_value_bytes: 8,
        batch_size,
        ..Default::default()
    })
    .unwrap();
    let spec = small_spec();
    let result = run_tcp_load(
        &spec,
        &TcpLoadOptions {
            addr: server.addr(),
            threads: 2,
            connections_per_thread: 2,
            pipeline: 32,
        },
    )
    .unwrap();
    assert_eq!(result.operations, spec.operations);
    assert!(result.lookups > 0);
    // 30 % of requests were inserts into a table big enough to hold the
    // whole working set, so a healthy fraction of lookups must hit.
    assert!(
        result.lookup_hits as f64 / result.lookups as f64 > 0.2,
        "depth {batch_size}: hit rate {:.3}",
        result.lookup_hits as f64 / result.lookups as f64
    );
    assert!(server.metrics().requests() >= spec.operations);
    assert!(server.table_stats().inserts > 0);
    // The configured depth is the one the servers ran at.
    let batch = server.metrics().batch_stats();
    assert!(batch.batches > 0, "depth {batch_size}: {batch:?}");
    assert!(
        batch.avg_occupancy() <= batch_size as f64,
        "depth {batch_size}: {batch:?}"
    );
    server.shutdown();
}

#[test]
fn cpserver_under_tcp_load() {
    cpserver_load_at_depth(CpServerConfig::default().batch_size);
}

/// Depth 1 is per-operation processing inside the staged executor; depth 8
/// cuts every drained lane batch into several runs.
#[test]
fn cpserver_under_tcp_load_at_depth_1_and_8() {
    for batch_size in [1, 8] {
        cpserver_load_at_depth(batch_size);
    }
}

#[test]
fn lockserver_under_tcp_load() {
    let mut server = LockServer::start(LockServerConfig {
        worker_threads: 2,
        partitions: 64,
        capacity_bytes: Some(64 * 1024),
        typical_value_bytes: 8,
        ..Default::default()
    })
    .unwrap();
    let spec = small_spec();
    let result = run_tcp_load(
        &spec,
        &TcpLoadOptions {
            addr: server.addr(),
            threads: 2,
            connections_per_thread: 2,
            pipeline: 32,
        },
    )
    .unwrap();
    assert_eq!(result.operations, spec.operations);
    assert!(result.lookup_hits > 0);
    assert!(server.metrics().requests() >= spec.operations);
    server.shutdown();
}

#[test]
fn memcache_style_cluster_under_partitioned_load() {
    let mut cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 2,
        capacity_bytes_per_instance: Some(32 * 1024),
        ..Default::default()
    })
    .unwrap();
    // Client-side partitioning: give each instance half the working set and
    // half the request volume, concurrently.
    let per_instance_spec = WorkloadSpec {
        working_set_bytes: 32 * 1024,
        capacity_bytes: 32 * 1024,
        operations: 8_000,
        insert_ratio: 0.3,
        prefill: false,
        ..Default::default()
    };
    let addrs = cluster.addrs();
    let totals: Vec<_> = std::thread::scope(|scope| {
        addrs
            .iter()
            .map(|addr| {
                let addr = *addr;
                scope.spawn(move || {
                    run_tcp_load(
                        &per_instance_spec,
                        &TcpLoadOptions {
                            addr,
                            threads: 1,
                            connections_per_thread: 2,
                            pipeline: 32,
                        },
                    )
                    .unwrap()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    let total_ops: u64 = totals.iter().map(|r| r.operations).sum();
    assert_eq!(total_ops, 16_000);
    assert!(cluster.metrics().requests() >= total_ops);
    assert!(cluster.total_elements() > 0);
    cluster.shutdown();
}

#[test]
fn delete_over_tcp_against_every_server() {
    use cphash_suite::{KeyRef, KvClient, RemoteClient};

    // DELETE reached core's `submit_delete` but had no wire opcode before
    // kvproto v2; lock in the full TCP path on all three servers.
    fn delete_roundtrip(addr: std::net::SocketAddr) {
        let mut client = RemoteClient::connect(addr).unwrap();
        assert_eq!(client.protocol_version(), 2);
        // u64 keys.
        assert!(client
            .insert_blocking(KeyRef::Hash(1234), b"doomed")
            .unwrap());
        assert!(client.delete_blocking(KeyRef::Hash(1234)).unwrap());
        assert!(!client.delete_blocking(KeyRef::Hash(1234)).unwrap());
        assert_eq!(client.get_blocking(KeyRef::Hash(1234)).unwrap(), None);
        // Byte-string keys (the §8.2 envelope, now server-side).
        assert!(client
            .insert_blocking(KeyRef::Bytes(b"session:77"), b"token")
            .unwrap());
        assert!(client
            .delete_blocking(KeyRef::Bytes(b"session:77"))
            .unwrap());
        assert_eq!(
            client.get_blocking(KeyRef::Bytes(b"session:77")).unwrap(),
            None
        );
    }

    let mut cpserver = CpServer::start(CpServerConfig {
        ..Default::default()
    })
    .unwrap();
    delete_roundtrip(cpserver.addr());
    assert!(cpserver.metrics().deletes() >= 3);
    cpserver.shutdown();

    let mut lockserver = LockServer::start(LockServerConfig {
        ..Default::default()
    })
    .unwrap();
    delete_roundtrip(lockserver.addr());
    lockserver.shutdown();

    let mut cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 1,
        ..Default::default()
    })
    .unwrap();
    delete_roundtrip(cluster.addrs()[0]);
    cluster.shutdown();
}

#[test]
fn overload_retry_sheds_to_the_client_resubmission_path() {
    use cphash_suite::{KeyRef, KvClient, KvOp, RemoteClient};

    // A CPSERVER configured to shed past one in-flight table operation per
    // worker: a pipelined v2 client must observe nothing but correct
    // results (its RemoteClient resubmits wire-level Retries
    // transparently), while the server's metrics prove shedding happened.
    let mut server = CpServer::start(CpServerConfig {
        overload_retry: Some(1),
        ..Default::default()
    })
    .unwrap();
    let mut client = RemoteClient::connect(server.addr()).unwrap();
    assert_eq!(client.protocol_version(), 2);

    const N: u64 = 300;
    for key in 0..N {
        client.submit(KvOp::Insert(KeyRef::Hash(key), &(key * 3).to_le_bytes()));
    }
    let mut completions = Vec::new();
    client.drain_completions(&mut completions).unwrap();
    assert_eq!(completions.len(), N as usize);
    for key in 0..N {
        client.submit(KvOp::Get(KeyRef::Hash(key)));
    }
    completions.clear();
    client.drain_completions(&mut completions).unwrap();
    assert_eq!(completions.len(), N as usize);
    for completion in &completions {
        match &completion.kind {
            cphash_suite::CompletionKind::LookupHit(_) => {}
            other => panic!("pipelined lookup completed as {other:?}"),
        }
    }
    for key in (0..N).step_by(7) {
        let got = client.get_blocking(KeyRef::Hash(key)).unwrap();
        assert_eq!(got.unwrap().as_slice(), (key * 3).to_le_bytes());
    }
    assert!(
        server.metrics().retries_emitted() > 0,
        "the deep pipeline must have crossed the shed threshold"
    );
    assert!(client.retries() > 0, "the client resubmitted shed requests");
    server.shutdown();
}

#[test]
fn oversized_envelope_is_refused_not_stored() {
    use cphash_suite::kvproto::MAX_VALUE_BYTES;
    use cphash_suite::{KeyRef, KvClient, RemoteClient};

    // A byte-keyed value near the wire limit fits its own frame, but the
    // server-side §8.2 envelope (4 + key_len extra bytes) would exceed
    // MAX_VALUE_BYTES — and a stored oversized envelope would later produce
    // lookup replies no client decoder accepts, killing innocent readers'
    // connections.  The server must refuse the insert instead.
    let mut server = CpServer::start(CpServerConfig {
        ..Default::default()
    })
    .unwrap();
    let mut client = RemoteClient::connect(server.addr()).unwrap();
    let big = vec![0x5Au8; MAX_VALUE_BYTES - 2];
    assert!(
        !client.insert_blocking(KeyRef::Bytes(b"big"), &big).unwrap(),
        "enveloped value past the limit reads as a capacity refusal"
    );
    // The connection survives and the key was not stored.
    assert_eq!(client.get_blocking(KeyRef::Bytes(b"big")).unwrap(), None);
    // A maximal value that still fits with its envelope is accepted.
    let fits = vec![0xA5u8; MAX_VALUE_BYTES - 4 - 3];
    assert!(client
        .insert_blocking(KeyRef::Bytes(b"big"), &fits)
        .unwrap());
    assert_eq!(
        client
            .get_blocking(KeyRef::Bytes(b"big"))
            .unwrap()
            .unwrap()
            .len(),
        fits.len()
    );
    drop(client);
    server.shutdown();
}

#[test]
fn all_three_servers_agree_on_protocol_semantics() {
    // Insert a known key into each server and read it back through the same
    // client; a miss must come back as a typed miss, not an empty value.
    use cphash_suite::{KeyRef, KvClient, RemoteClient};

    fn roundtrip(addr: std::net::SocketAddr) {
        let mut client = RemoteClient::connect(addr).unwrap();
        assert!(client
            .insert_blocking(KeyRef::Hash(77), b"same value everywhere")
            .unwrap());
        let hit = client.get_blocking(KeyRef::Hash(77)).unwrap();
        assert_eq!(hit.unwrap().as_slice(), b"same value everywhere");
        assert_eq!(client.get_blocking(KeyRef::Hash(78)).unwrap(), None);
    }

    let mut cpserver = CpServer::start(CpServerConfig {
        ..Default::default()
    })
    .unwrap();
    roundtrip(cpserver.addr());
    cpserver.shutdown();

    let mut lockserver = LockServer::start(LockServerConfig {
        ..Default::default()
    })
    .unwrap();
    roundtrip(lockserver.addr());
    lockserver.shutdown();

    let mut cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 1,
        ..Default::default()
    })
    .unwrap();
    roundtrip(cluster.addrs()[0]);
    cluster.shutdown();
}

/// While table operations are in flight the CPSERVER worker polls its
/// completion rings between looks at the reactor.  That must never starve
/// the reactor: a connection arriving while another keeps the (single)
/// worker busy is accepted and answered promptly, every time.
#[test]
fn busy_worker_still_serves_new_connections_promptly() {
    use cphash_suite::{KeyRef, KvClient, KvOp, RemoteClient};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    let mut server = CpServer::start(CpServerConfig {
        client_threads: 1,
        partitions: 1,
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // A saturating pipelined reader: the worker always has operations
        // outstanding and never reaches its quiescent (sleeping) state.
        let load = scope.spawn(|| {
            let mut client = RemoteClient::connect(addr).unwrap();
            let mut completions = Vec::new();
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                while client.pending_ops() < 256 {
                    client.submit(KvOp::Get(KeyRef::Hash(served % 1024)));
                    served += 1;
                }
                completions.clear();
                client.poll_completions(&mut completions);
                assert!(client.is_alive());
            }
            served
        });

        let mut slowest = Duration::ZERO;
        for round in 0..50u64 {
            let started = Instant::now();
            let mut newcomer = RemoteClient::connect(addr).unwrap();
            assert!(newcomer
                .insert_blocking(KeyRef::Hash(5_000 + round), &round.to_le_bytes())
                .unwrap());
            assert_eq!(
                newcomer
                    .get_blocking(KeyRef::Hash(5_000 + round))
                    .unwrap()
                    .expect("read-your-write")
                    .as_slice(),
                round.to_le_bytes()
            );
            slowest = slowest.max(started.elapsed());
        }
        stop.store(true, Ordering::Relaxed);
        assert!(load.join().unwrap() > 0);
        // Connect + handshake + two round trips take well under a
        // millisecond of work; the bound only has to tell "served between
        // ring polls" from "served when the other connection goes quiet".
        assert!(
            slowest < Duration::from_secs(2),
            "a new connection waited {slowest:?} behind a busy one"
        );
    });
    server.shutdown();
}
