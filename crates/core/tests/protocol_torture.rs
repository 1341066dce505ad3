//! Torture tests for the CPHash client/server protocol: heavily pipelined,
//! multi-client, mixed workloads with deletes and overwrites, checking that
//! every completion is accounted for and that lookup results are always
//! values that were actually written for that key.

use std::collections::HashSet;

use cphash::{CompletionKind, CpHash, CpHashConfig, EvictionPolicy};

/// Deterministic per-thread operation stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn pipelined_mixed_workload_accounts_for_every_submission() {
    let (mut table, clients) = CpHash::new(CpHashConfig::new(3, 3));
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            std::thread::spawn(move || {
                let mut rng = Rng(0x1000 + i as u64);
                let mut submitted = HashSet::new();
                let mut completed = HashSet::new();
                let mut completions = Vec::new();
                for _ in 0..30_000u32 {
                    let r = rng.next();
                    let key = r % 4_096;
                    let token = match r % 10 {
                        0..=3 => client.submit_insert(key, &(key ^ 0xABCD).to_le_bytes()),
                        4..=8 => client.submit_lookup(key),
                        _ => client.submit_delete(key),
                    };
                    assert!(submitted.insert(token), "token reused");
                    if client.outstanding() >= 512 {
                        completions.clear();
                        client.poll(&mut completions);
                        for c in &completions {
                            assert!(completed.insert(c.token), "duplicate completion");
                            if let CompletionKind::LookupHit(v) = &c.kind {
                                let value = u64::from_le_bytes(v.as_slice().try_into().unwrap());
                                let original = value ^ 0xABCD;
                                assert!(
                                    original < 4_096,
                                    "value was never written by any thread: {value:#x}"
                                );
                            }
                        }
                    }
                }
                completions.clear();
                client.drain(&mut completions).unwrap();
                for c in &completions {
                    assert!(completed.insert(c.token), "duplicate completion");
                }
                assert_eq!(
                    submitted, completed,
                    "every submission completes exactly once"
                );
                submitted.len()
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, 3 * 30_000);
    table.shutdown();
    let stats = table.partition_stats();
    assert!(stats.lookups > 0 && stats.inserts > 0 && stats.deletes > 0);
}

#[test]
fn overwrites_are_atomic_from_the_readers_point_of_view() {
    // One writer continuously overwrites a small set of keys with
    // self-describing values; several readers must never observe a torn or
    // stale-beyond-overwrite value (each value embeds its key).
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 3));
    let mut writer = clients.pop().unwrap();
    let readers: Vec<_> = clients
        .into_iter()
        .map(|mut client| {
            std::thread::spawn(move || {
                let mut rng = Rng(0xFACE);
                let mut hits = 0u64;
                for _ in 0..40_000u32 {
                    let key = rng.next() % 64;
                    if let Some(value) = client.get(key).unwrap() {
                        let bytes = value.as_slice();
                        assert_eq!(bytes.len(), 16, "value length is stable");
                        let embedded_key = u64::from_le_bytes(bytes[..8].try_into().unwrap());
                        let generation = u64::from_le_bytes(bytes[8..].try_into().unwrap());
                        assert_eq!(embedded_key, key, "value belongs to a different key");
                        assert!(generation < 1_000_000);
                        hits += 1;
                    }
                }
                hits
            })
        })
        .collect();

    for generation in 0..30_000u64 {
        let key = generation % 64;
        let mut value = [0u8; 16];
        value[..8].copy_from_slice(&key.to_le_bytes());
        value[8..].copy_from_slice(&generation.to_le_bytes());
        assert!(writer.insert(key, &value).unwrap());
    }
    let total_hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(
        total_hits > 0,
        "readers should observe some of the writer's values"
    );
    table.shutdown();
}

#[test]
fn eviction_churn_with_random_policy_and_tiny_partitions() {
    let (mut table, mut clients) = CpHash::new(
        CpHashConfig::new(4, 1)
            .with_capacity(2_048, 8)
            .with_eviction(EvictionPolicy::Random),
    );
    let client = &mut clients[0];
    let mut completions = Vec::new();
    for key in 0..50_000u64 {
        client.submit_insert(key, &key.to_le_bytes());
        client.submit_lookup(key.saturating_sub(100));
        // Bound the outstanding window *blockingly*: an unacknowledged burst
        // larger than the (tiny) table pins every slot in NOT-READY state —
        // on a single-CPU host the client can queue tens of thousands of
        // inserts before the servers ever run, and the churn turns into
        // mass insert failure instead of mass eviction.
        while client.outstanding() >= 128 {
            completions.clear();
            if client.poll(&mut completions) == 0 {
                std::thread::yield_now();
            }
        }
    }
    completions.clear();
    client.drain(&mut completions).unwrap();
    drop(clients);
    table.shutdown();
    let stats = table.partition_stats();
    assert!(
        stats.evictions > 40_000,
        "tiny capacity must force constant eviction"
    );
    // Under this extreme configuration (64 slots per partition, hundreds of
    // outstanding lookups pinning elements) some inserts may legitimately
    // fail with OutOfMemory while everything evictable is pinned; what must
    // hold is that they are the exception, not the rule.
    assert!(
        stats.failed_inserts < stats.inserts / 10,
        "failed inserts {} out of {}",
        stats.failed_inserts,
        stats.inserts
    );
}

#[test]
fn tables_with_one_partition_and_many_clients_still_serialize_correctly() {
    // Degenerate shape: a single server thread serving four pipelined
    // clients — every operation funnels through one partition.
    let (mut table, clients) = CpHash::new(CpHashConfig::new(1, 4));
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            std::thread::spawn(move || {
                let base = i as u64 * 100_000;
                for key in base..base + 3_000 {
                    assert!(client.insert(key, &key.to_le_bytes()).unwrap());
                }
                for key in base..base + 3_000 {
                    assert_eq!(
                        client
                            .get(key)
                            .unwrap()
                            .expect("own key present")
                            .as_slice(),
                        key.to_le_bytes()
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let snapshot = table.snapshot();
    assert_eq!(snapshot.servers, 1);
    assert!(snapshot.operations >= 4 * 6_000);
    table.shutdown();
}

/// The value every write of `key` stores: its length is picked by the key,
/// on both sides of the 8-byte boundary between a value that rides in the
/// request / reply words (`InsertInline`, no `Ready`, no `Decref`) and one
/// that is reserved, copied through a pointer and unpinned (§3.2).
fn boundary_value(key: u64) -> Vec<u8> {
    let len = [0usize, 7, 8, 9, 64][key as usize % 5];
    (0..len)
        .map(|i| (key as u8).wrapping_add(i as u8))
        .collect()
}

#[test]
fn both_value_forms_survive_heavy_pipelining_on_tiny_rings() {
    // 64-slot rings wrap constantly, and a lane batch or a published cache
    // line (8 words) often ends between an insert's two words, so the
    // server's wait for a message's second word is on the common path.
    let config = CpHashConfig {
        ring_capacity: 64,
        ..CpHashConfig::new(3, 2)
    };
    let (mut table, clients) = CpHash::new(config);
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(i, mut client)| {
            std::thread::spawn(move || {
                let mut rng = Rng(0x5EED + i as u64);
                let mut key_of = std::collections::HashMap::new();
                let mut completions = Vec::new();
                let mut hits = 0u64;
                let mut check =
                    |completions: &mut Vec<cphash::Completion>,
                     key_of: &mut std::collections::HashMap<u64, u64>| {
                        for c in completions.drain(..) {
                            let key = key_of.remove(&c.token).expect("known token");
                            match c.kind {
                                CompletionKind::LookupHit(v) => {
                                    assert_eq!(v.as_slice(), boundary_value(key), "key {key}");
                                    hits += 1;
                                }
                                CompletionKind::LookupMiss
                                | CompletionKind::Inserted
                                | CompletionKind::Deleted(_) => {}
                                other => panic!("key {key}: {other:?}"),
                            }
                        }
                    };
                for _ in 0..40_000u32 {
                    let r = rng.next();
                    let key = r % 1_000;
                    let token = match (r >> 32) % 10 {
                        0..=2 => client.submit_insert(key, &boundary_value(key)),
                        3..=8 => client.submit_lookup(key),
                        _ => client.submit_delete(key),
                    };
                    key_of.insert(token, key);
                    if client.outstanding() >= 48 {
                        client.poll(&mut completions);
                        check(&mut completions, &mut key_of);
                    }
                }
                client.drain(&mut completions).unwrap();
                check(&mut completions, &mut key_of);
                assert!(key_of.is_empty(), "every submission completed");
                hits
            })
        })
        .collect();
    let hits: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(hits > 10_000, "only {hits} lookups hit");
    table.shutdown();
    let cuts: u64 = table.server_stats().iter().map(|s| s.run_cuts()).sum();
    assert!(
        cuts > 0,
        "no Ready or Decref of a 9- or 64-byte value cut a run"
    );
}

#[test]
fn a_stream_of_short_values_sends_no_control_message() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 1));
    let client = &mut clients[0];
    let mut completions = Vec::new();
    let mut hits = 0usize;
    for round in 0..20_000u64 {
        let key = round % 512;
        client.submit_insert(key, &key.to_le_bytes()[..(key % 9) as usize]);
        client.submit_lookup(key);
        if client.outstanding() >= 256 {
            client.poll(&mut completions);
        }
    }
    client.drain(&mut completions).unwrap();
    for c in &completions {
        match &c.kind {
            CompletionKind::LookupHit(_) => hits += 1,
            CompletionKind::Inserted => {}
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(
        hits, 20_000,
        "each lookup follows its key's insert on one lane"
    );
    drop(clients);
    table.shutdown();
    // Every reply carried its value and every insert its bytes: nothing was
    // ever pinned across a message, and no run of operations was cut.
    assert!(table.server_stats().iter().all(|s| s.run_cuts() == 0));
    let stats = table.partition_stats();
    assert_eq!((stats.hits, stats.deferred_frees), (20_000, 0));
    assert_eq!(table.snapshot().operations, 40_000);
}

#[test]
fn a_client_dropped_mid_pipeline_does_not_wedge_the_servers() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(2, 2));
    let mut survivor = clients.pop().unwrap();
    let mut doomed = clients.pop().unwrap();
    // Queue far more two-word inserts than the rings hold and walk away
    // without ever polling: whatever part of the last message made it onto a
    // ring, the server must finish or abandon it on its own.
    for key in 0..5_000u64 {
        doomed.submit_insert(key, &key.to_le_bytes());
    }
    drop(doomed);
    for key in 10_000..12_000u64 {
        assert!(survivor.insert(key, &key.to_le_bytes()).unwrap());
        assert_eq!(
            survivor.get(key).unwrap().unwrap().as_slice(),
            key.to_le_bytes()
        );
    }
    drop(survivor);
    table.shutdown();
}
