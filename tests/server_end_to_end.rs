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
    assert!(server.metrics().snapshot().requests >= spec.operations);
    assert!(server.table_stats().inserts > 0);
    // The configured depth is the one the servers ran at.
    let batch = server.metrics().snapshot().batch;
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
    assert!(server.metrics().snapshot().requests >= spec.operations);
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
    assert!(cluster.metrics().snapshot().requests >= total_ops);
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
    assert!(cpserver.metrics().snapshot().deletes >= 3);
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
fn a_pipeline_deeper_than_the_worker_window_completes_without_retries() {
    use cphash_suite::{CompletionKind, KeyRef, KvClient, KvOp, RemoteClient};

    // 300 inserts and 300 lookups of the same keys, all in flight at once:
    // past its in-flight window a worker stops reading the connection and
    // the rest waits in the socket.  Every lookup reads the insert of its
    // key sent before it, and no server answers anything with a `Retry`.
    fn deep_pipeline(addr: std::net::SocketAddr) {
        let mut client = RemoteClient::connect(addr).unwrap();
        const N: u64 = 300;
        for key in 0..N {
            client.submit(KvOp::Insert(KeyRef::Hash(key), &(key * 3).to_le_bytes()));
        }
        let lookups: Vec<(u64, u64)> = (0..N)
            .map(|key| (key, client.submit(KvOp::Get(KeyRef::Hash(key)))))
            .collect();
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        assert_eq!(completions.len(), 2 * N as usize);
        for (key, token) in lookups {
            let completion = completions.iter().find(|c| c.token == token).unwrap();
            match &completion.kind {
                CompletionKind::LookupHit(v) => {
                    assert_eq!(v.as_slice(), (key * 3).to_le_bytes(), "key {key}")
                }
                other => panic!("pipelined lookup of key {key} completed as {other:?}"),
            }
        }
        assert_eq!(client.retries(), 0);
    }

    against_every_server(deep_pipeline);
}

#[test]
fn all_three_servers_agree_on_protocol_semantics() {
    use cphash_suite::{
        CompletionKind, KeyRef, KvClient, KvError, KvOp, OpError, RemoteClient, ValueBytes,
    };

    // The three servers run one worker loop with a different table behind
    // it, so every exchange below must read the same on each of them.
    fn protocol(addr: std::net::SocketAddr) {
        let mut client = RemoteClient::connect(addr).unwrap();
        // A hit, and a miss that comes back typed rather than as an empty
        // value.
        assert!(client
            .insert_blocking(KeyRef::Hash(77), b"same value everywhere")
            .unwrap());
        let hit = client.get_blocking(KeyRef::Hash(77)).unwrap();
        assert_eq!(hit.unwrap().as_slice(), b"same value everywhere");
        assert_eq!(client.get_blocking(KeyRef::Hash(78)).unwrap(), None);

        // Same-key insert → lookup pairs pipelined on one connection, with
        // values too long to ride in a message (CPSERVER's insert is then
        // two-phase): every lookup reads the insert it followed, and not
        // the insert or delete of its key pipelined right behind it.
        let mut lookups = Vec::new();
        for key in 1_000..1_064u64 {
            let value = [key as u8; 64];
            client.submit(KvOp::Insert(KeyRef::Hash(key), &value));
            lookups.push((key, client.submit(KvOp::Get(KeyRef::Hash(key)))));
            match key % 3 {
                0 => client.submit(KvOp::Insert(KeyRef::Hash(key), &[!(key as u8); 64])),
                1 => client.submit(KvOp::Delete(KeyRef::Hash(key))),
                _ => continue,
            };
        }
        let mut completions = Vec::new();
        client.drain_completions(&mut completions).unwrap();
        for (key, token) in lookups {
            let completion = completions.iter().find(|c| c.token == token).unwrap();
            let expected = CompletionKind::LookupHit(ValueBytes::from_slice(&[key as u8; 64]));
            assert_eq!(completion.kind, expected, "read-after-write of key {key}");
        }

        // Byte-string keys round-trip through the §8.2 envelope.
        assert!(client
            .insert_blocking(KeyRef::Bytes(b"user:7"), b"Ada")
            .unwrap());
        let hit = client.get_blocking(KeyRef::Bytes(b"user:7")).unwrap();
        assert_eq!(hit.unwrap().as_slice(), b"Ada");
        assert_eq!(client.get_blocking(KeyRef::Bytes(b"user:8")).unwrap(), None);

        // None of these tables can be resized, not even shrunk.
        assert_eq!(
            client.admin_resize(1, 0),
            Err(KvError::Op(OpError::Unsupported))
        );
    }

    against_every_server(protocol);
}

#[test]
fn oversized_envelope_is_refused_not_stored() {
    use cphash_suite::kvproto::MAX_VALUE_BYTES;
    use cphash_suite::{KeyRef, KvClient, RemoteClient};

    // A byte-keyed value near the wire limit fits its own frame, but its
    // envelope (4 + key_len extra bytes) would not — and a stored oversized
    // envelope would later produce lookup replies no client decoder accepts,
    // killing innocent readers' connections.  Every server must refuse the
    // insert as out of capacity instead.
    fn refused(addr: std::net::SocketAddr) {
        let mut client = RemoteClient::connect(addr).unwrap();
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
        let hit = client.get_blocking(KeyRef::Bytes(b"big")).unwrap();
        assert_eq!(hit.unwrap().len(), fits.len());
    }

    against_every_server(refused);
}

/// Starts CPSERVER, LOCKSERVER and a one-instance memcached-style cluster in
/// turn, runs `exchange` against each, and shuts each down again.
fn against_every_server(exchange: fn(std::net::SocketAddr)) {
    let mut cpserver = CpServer::start(CpServerConfig {
        ..Default::default()
    })
    .unwrap();
    exchange(cpserver.addr());
    cpserver.shutdown();

    let mut lockserver = LockServer::start(LockServerConfig {
        ..Default::default()
    })
    .unwrap();
    exchange(lockserver.addr());
    lockserver.shutdown();

    let mut cluster = MemcacheCluster::start(MemcacheConfig {
        instances: 1,
        ..Default::default()
    })
    .unwrap();
    exchange(cluster.addrs()[0]);
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
