//! Concurrency stress tests spanning the whole stack: many client threads,
//! capacity pressure, reference-count safety under eviction, and clean
//! shutdown while traffic is in flight.

use std::collections::HashMap;
use std::sync::Arc;

use cphash_suite::loadgen::{run_cphash, run_lockhash, DriverOptions, WorkloadSpec};
use cphash_suite::{CompletionKind, CpHash, CpHashConfig, LockHash, LockHashConfig};

#[test]
fn many_clients_hammer_one_cphash_table() {
    let clients = 4;
    let (mut table, handles) =
        CpHash::new(CpHashConfig::new(4, clients).with_capacity(256 * 1024, 8));
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            std::thread::spawn(move || {
                let mut completions = Vec::new();
                let mut hits = 0u64;
                // Interleave pipelined inserts and lookups over a shared key
                // range so clients collide on partitions constantly.
                for round in 0..20u64 {
                    for key in 0..2_000u64 {
                        client.submit_insert(key, &(key + round).to_le_bytes());
                        client.submit_lookup((key + i as u64 * 17) % 2_000);
                    }
                    completions.clear();
                    client.drain(&mut completions).unwrap();
                    for c in &completions {
                        if let CompletionKind::LookupHit(v) = &c.kind {
                            // Any hit must be a value some thread wrote for
                            // some round: value - key must be < 20.
                            let value = u64::from_le_bytes(v.as_slice().try_into().unwrap());
                            assert!(value >= value.saturating_sub(20));
                            hits += 1;
                        }
                    }
                }
                hits
            })
        })
        .collect();
    let total_hits: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(total_hits > 0);
    table.shutdown();
    let stats = table.partition_stats();
    assert!(stats.inserts >= 4 * 20 * 2_000);
}

#[test]
fn values_held_across_eviction_remain_readable() {
    // The §3.2 dangling-pointer scenario: a client holds a looked-up value
    // while other traffic evicts it; the bytes must stay valid until the
    // reference is released.
    let (mut table, mut handles) = CpHash::new(CpHashConfig::new(2, 2).with_capacity(2 * 1024, 8));
    let mut writer = handles.pop().unwrap();
    let mut reader = handles.pop().unwrap();

    for key in 0..64u64 {
        assert!(reader.insert(key, &key.to_le_bytes()).unwrap());
    }
    // Look every seeded key up once and keep the value references.
    let keys_by_token: HashMap<u64, u64> = (0..64u64)
        .map(|key| (reader.submit_lookup(key), key))
        .collect();
    let mut completions = Vec::new();
    reader.drain(&mut completions).unwrap();
    let held: Vec<_> = completions
        .into_iter()
        .map(|c| match c.kind {
            CompletionKind::LookupHit(value) => (keys_by_token[&c.token], value),
            other => panic!(
                "seeded key {} not found: {other:?}",
                keys_by_token[&c.token]
            ),
        })
        .collect();
    assert_eq!(held.len(), 64);

    // The flood runs to completion while the references are held: 3 000
    // inserts into a 2 KiB table evict every seeded element.
    let writer_thread = std::thread::spawn(move || {
        for key in 1_000..4_000u64 {
            writer.insert(key, &key.to_le_bytes()).unwrap();
        }
        writer
    });
    let _writer = writer_thread.join().unwrap();

    for (key, value) in &held {
        let read = u64::from_le_bytes(value.as_slice().try_into().unwrap());
        assert!(read < 64, "value bytes were corrupted or reused: {read}");
        assert_eq!(read, *key);
    }
    drop(held);
    // Partition statistics are exact once the servers have stopped.
    table.shutdown();
    assert!(table.partition_stats().evictions > 0);
}

#[test]
fn lockhash_sustains_many_threads_on_few_partitions() {
    let table = Arc::new(LockHash::new(
        LockHashConfig::new(2).with_capacity(64 * 1024, 8),
    ));
    let workers: Vec<_> = (0..8u64)
        .map(|t| {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                let mut buf = Vec::new();
                for i in 0..20_000u64 {
                    let key = (t * 37 + i) % 4_096;
                    if i % 3 == 0 {
                        table.insert(key, &key.to_le_bytes());
                    } else if table.lookup(key, &mut buf) {
                        assert_eq!(buf, key.to_le_bytes());
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    assert!(
        table.lock_stats().contended() > 0,
        "two partitions and eight threads must contend"
    );
    assert!(table.bytes_in_use() <= 64 * 1024);
}

#[test]
fn drivers_complete_under_capacity_pressure() {
    // End-to-end run of both benchmark drivers with a capacity much smaller
    // than the working set (heavy eviction) — the Figure 9 regime.
    let spec = WorkloadSpec {
        working_set_bytes: 256 * 1024,
        capacity_bytes: 32 * 1024,
        operations: 60_000,
        batch: 256,
        ..Default::default()
    };
    let cp = run_cphash(&spec, &DriverOptions::new(2, 2));
    let lh = run_lockhash(&spec, &DriverOptions::new(2, 32));
    assert_eq!(cp.operations, spec.operations);
    assert_eq!(lh.operations, spec.operations);
    assert!(cp.table_stats.evictions > 0);
    assert!(lh.table_stats.evictions > 0);
    // With capacity = 1/8 of the working set, hit rates sit well below 1.
    assert!(cp.hit_rate() < 0.9);
    assert!(lh.hit_rate() < 0.9);
}

#[test]
fn shutdown_with_outstanding_requests_reports_server_gone() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let client = &mut clients[0];
    for key in 0..100u64 {
        client.submit_insert(key, &key.to_le_bytes());
    }
    // Shut the servers down while requests may still be queued client-side.
    table.shutdown();
    let mut completions = Vec::new();
    // Either everything already completed, or draining reports the dead
    // server — both are acceptable; what must not happen is a hang or panic.
    let _ = client.drain(&mut completions);
}
