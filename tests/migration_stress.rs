//! Migration invariants under concurrent load: while a table grows 2→4 and
//! shrinks 4→2 partitions, client threads keep issuing get/insert/remove,
//! and **no key may ever be lost, duplicated, or stale**.
//!
//! Each worker owns a disjoint key slice and tracks a local model of what it
//! wrote; any divergence between the table and the model — a miss for a
//! present key, a stale value, a delete disagreeing about presence, or a hit
//! after a delete (a resurrected duplicate) — fails the test immediately.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cphash_suite::migrate::{MigrationPacer, RepartitionCoordinator};
use cphash_suite::perfmon::LatencyHistogram;
use cphash_suite::{CpHash, CpHashConfig, MigrationPacing};

const WORKERS: usize = 3;

/// Keys per worker; `MIGRATION_STRESS_KEYS` overrides for the CI
/// sanitizer-friendly profile (smaller table, same fixed per-worker seeds).
fn keys_per_worker() -> u64 {
    std::env::var("MIGRATION_STRESS_KEYS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// The bytes stored for `value` under `key`: 8 of them for even keys — a
/// value that lives in its element, arrives in its request and never has a
/// NOT-READY window for an export to wait out — and 64 for odd keys, which
/// take a slab block and the two-phase hand-off.  Export → absorb has to
/// carry both.
fn stored(key: u64, value: u64) -> Vec<u8> {
    value
        .to_le_bytes()
        .repeat(if key.is_multiple_of(2) { 1 } else { 8 })
}

/// Deterministic per-worker operation stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn grow_and_shrink_lose_no_keys_under_concurrent_load() {
    let mut config = CpHashConfig::new(2, WORKERS).with_max_partitions(4);
    config.migration_chunks = 32;
    let (mut table, clients) = CpHash::new(config);
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));

    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(worker, mut client)| {
            let stop = Arc::clone(&stop);
            let total_ops = Arc::clone(&total_ops);
            let keys_per_worker = keys_per_worker();
            std::thread::spawn(move || {
                // This worker exclusively owns keys ≡ worker (mod WORKERS).
                let mut model: HashMap<u64, u64> = HashMap::new();
                let mut rng = 0x9E37_79B9u64 ^ (worker as u64) << 32 | 1;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift(&mut rng);
                    let key = (r >> 8) % keys_per_worker * WORKERS as u64 + worker as u64;
                    match r % 10 {
                        0..=4 => {
                            let value = r >> 16;
                            assert!(
                                client.insert(key, &stored(key, value)).unwrap(),
                                "insert of key {key} failed (unbounded table)"
                            );
                            model.insert(key, value);
                        }
                        5..=8 => match (client.get(key).unwrap(), model.get(&key)) {
                            (Some(got), Some(&expected)) => assert_eq!(
                                got.as_slice(),
                                stored(key, expected),
                                "stale value for key {key}"
                            ),
                            (None, Some(_)) => panic!("key {key} lost"),
                            (Some(_), None) => panic!("key {key} resurrected after delete"),
                            (None, None) => {}
                        },
                        _ => {
                            let was_present = client.delete(key).unwrap();
                            assert_eq!(
                                was_present,
                                model.remove(&key).is_some(),
                                "delete of key {key} disagrees about presence"
                            );
                        }
                    }
                    ops += 1;
                }
                // Final sweep: every key the model holds must be present and
                // current; every key it does not hold must miss.
                for key in (worker as u64..)
                    .step_by(WORKERS)
                    .take(keys_per_worker as usize)
                {
                    match (client.get(key).unwrap(), model.get(&key)) {
                        (Some(got), Some(&expected)) => assert_eq!(
                            got.as_slice(),
                            stored(key, expected),
                            "stale value for key {key} after migrations"
                        ),
                        (None, Some(_)) => panic!("key {key} lost after migrations"),
                        (Some(_), None) => panic!("key {key} duplicated after migrations"),
                        (None, None) => {}
                    }
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
                (ops, client.migration_retries())
            })
        })
        .collect();

    // Let the workers build up state, then run a full grow/shrink cycle
    // (and a second one, to exercise repeated transitions) while they keep
    // hammering the table.
    std::thread::sleep(Duration::from_millis(100));
    let mut moved = 0usize;
    for &target in &[4usize, 2, 3, 2] {
        let report = coordinator.resize_to(target).unwrap();
        assert_eq!(report.to_partitions, target);
        assert_eq!(table.partitions(), target);
        moved += report.keys_moved;
        std::thread::sleep(Duration::from_millis(50));
    }

    stop.store(true, Ordering::Relaxed);
    let mut retries = 0u64;
    for worker in workers {
        let (_, worker_retries) = worker.join().unwrap();
        retries += worker_retries;
    }
    let ops = total_ops.load(Ordering::Relaxed);
    assert!(ops > 1_000, "workers made progress ({ops} ops)");
    assert!(moved > 0, "the transitions physically moved keys");

    table.shutdown();
    let stats = table.partition_stats();
    assert_eq!(
        stats.exported, stats.absorbed,
        "every exported key was absorbed exactly once"
    );
    assert!(stats.exported as usize >= moved);
    // Retries are timing-dependent (they only occur when an operation races
    // a chunk hand-off), so they are reported but not asserted.
    eprintln!(
        "migration stress: {ops} ops, {moved} keys moved, {retries} redirected operations, \
         {} exported / {} absorbed",
        stats.exported, stats.absorbed
    );
}

/// Live migration under the staged batch pipeline at a deliberately odd,
/// non-default depth: migration control messages interleave with batched
/// data runs (runs are cut at every control message), so no key may be
/// lost, duplicated or served stale across a grow/shrink cycle.
#[test]
fn migration_under_non_default_batch_size_loses_no_keys() {
    const BATCH_WORKERS: usize = 2;
    let mut config = CpHashConfig::new(2, BATCH_WORKERS).with_max_partitions(4);
    config.migration_chunks = 32;
    config.batch_size = 5; // odd and tiny: every lane drain spans many runs
    let (mut table, clients) = CpHash::new(config);
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(worker, mut client)| {
            let stop = Arc::clone(&stop);
            let keys_per_worker = keys_per_worker();
            std::thread::spawn(move || {
                let mut model: HashMap<u64, u64> = HashMap::new();
                let mut rng = 0xABCD_EF01u64 ^ ((worker as u64) << 32) | 1;
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift(&mut rng);
                    let key = (r >> 8) % keys_per_worker * BATCH_WORKERS as u64 + worker as u64;
                    match r % 8 {
                        0..=3 => {
                            let value = r >> 16;
                            assert!(client.insert(key, &stored(key, value)).unwrap());
                            model.insert(key, value);
                        }
                        4..=6 => match (client.get(key).unwrap(), model.get(&key)) {
                            (Some(got), Some(&expected)) => {
                                assert_eq!(got.as_slice(), stored(key, expected))
                            }
                            (None, Some(_)) => panic!("key {key} lost"),
                            (Some(_), None) => panic!("key {key} resurrected"),
                            (None, None) => {}
                        },
                        _ => {
                            assert_eq!(client.delete(key).unwrap(), model.remove(&key).is_some());
                        }
                    }
                }
                for (key, expected) in &model {
                    let got = client.get(*key).unwrap().unwrap_or_else(|| {
                        panic!("key {key} lost after batched-pipeline migration")
                    });
                    assert_eq!(got.as_slice(), stored(*key, *expected));
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    for &target in &[4usize, 2] {
        let report = coordinator.resize_to(target).unwrap();
        assert_eq!(report.to_partitions, target);
        std::thread::sleep(Duration::from_millis(50));
    }
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        worker.join().unwrap();
    }
    table.shutdown();
    let stats = table.partition_stats();
    assert_eq!(stats.exported, stats.absorbed);
}

/// Exporting a key unlinks it from one partition's bucket lines (or
/// overflow chains) and re-links it into another's, so a grow/shrink cycle
/// under load exercises every link, unlink and inline-slot promotion path
/// the bucket layout has.
#[test]
fn migration_preserves_keys_across_bucket_lines() {
    let mut config = CpHashConfig::new(2, 1).with_max_partitions(4);
    config.migration_chunks = 32;
    let (mut table, mut clients) = CpHash::new(config);
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    let client = &mut clients[0];

    let keys = keys_per_worker() * WORKERS as u64;
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = 0x1712_4C1Eu64 | 1;
    for key in 0..keys {
        assert!(client.insert(key, &key.to_le_bytes()).unwrap());
        model.insert(key, key);
    }

    let mut moved = 0usize;
    for &target in &[4usize, 2, 4] {
        let report = coordinator.resize_to(target).unwrap();
        assert_eq!(report.to_partitions, target);
        moved += report.keys_moved;
        // Churn between transitions so migrated buckets see fresh
        // inserts, overwrites and deletes in their new homes.
        for _ in 0..2_000 {
            let r = xorshift(&mut rng);
            let key = (r >> 8) % keys;
            match r % 10 {
                0..=4 => {
                    let value = r >> 16;
                    assert!(client.insert(key, &value.to_le_bytes()).unwrap());
                    model.insert(key, value);
                }
                5..=8 => match (client.get(key).unwrap(), model.get(&key)) {
                    (Some(got), Some(expected)) => {
                        assert_eq!(got.as_slice(), expected.to_le_bytes())
                    }
                    (None, Some(_)) => panic!("key {key} lost"),
                    (Some(_), None) => panic!("key {key} resurrected"),
                    (None, None) => {}
                },
                _ => {
                    assert_eq!(client.delete(key).unwrap(), model.remove(&key).is_some());
                }
            }
        }
    }
    assert!(moved > 0, "transitions moved keys");

    for (key, expected) in &model {
        let got = client
            .get(*key)
            .unwrap()
            .unwrap_or_else(|| panic!("key {key} lost after migrations"));
        assert_eq!(got.as_slice(), expected.to_le_bytes());
    }
    drop(clients);
    table.shutdown();
    let stats = table.partition_stats();
    assert_eq!(stats.exported, stats.absorbed);
    assert!(stats.inline_hits > 0, "no probe ever hit a tagged slot");
}

/// While a *paced* resize runs, foreground operation latency must stay
/// bounded: the pacer spreads the chunk hand-offs out, so no synchronous
/// operation should ever stall for anything near the full transition time.
#[test]
fn paced_resize_keeps_foreground_p99_bounded() {
    let mut config = CpHashConfig::new(2, WORKERS).with_max_partitions(4);
    config.migration_chunks = 64;
    let (mut table, clients) = CpHash::new(config);
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    // 100 chunks/sec: a 10 ms hand-off interval, comfortably above the
    // natural per-chunk latency even on a loaded single-CPU host, so the
    // bucket genuinely paces (64 chunks ≈ 640 ms transition).
    let mut pacer = MigrationPacer::for_table(
        &table,
        MigrationPacing::Rate {
            chunks_per_sec: 100.0,
        },
    );
    let stop = Arc::new(AtomicBool::new(false));

    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(worker, mut client)| {
            let stop = Arc::clone(&stop);
            let keys_per_worker = keys_per_worker();
            std::thread::spawn(move || {
                let mut latencies = LatencyHistogram::new();
                let mut rng = 0xDEAD_BEEF ^ ((worker as u64) << 32) | 1;
                while !stop.load(Ordering::Relaxed) {
                    let r = xorshift(&mut rng);
                    let key = (r >> 8) % keys_per_worker * WORKERS as u64 + worker as u64;
                    let started = Instant::now();
                    if r.is_multiple_of(4) {
                        client.insert(key, &r.to_le_bytes()).unwrap();
                    } else {
                        let _ = client.get(key).unwrap();
                    }
                    latencies.record(started.elapsed().as_micros() as u64);
                }
                latencies
            })
        })
        .collect();

    // Let the load settle, then run a paced 2→4 grow under it.
    std::thread::sleep(Duration::from_millis(50));
    let report = coordinator
        .resize_to_paced(4, &mut pacer)
        .expect("paced grow");
    assert_eq!(report.to_partitions, 4);
    assert!(
        report.paced_waits > 0,
        "the finite budget never delayed a hand-off: {report:?}"
    );
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::Relaxed);

    let mut latencies = LatencyHistogram::new();
    for worker in workers {
        latencies.merge(&worker.join().expect("worker"));
    }
    assert!(
        latencies.count() > 500,
        "workers made progress ({} ops)",
        latencies.count()
    );
    let p99_us = latencies.percentile(99.0);
    // Generous for an oversubscribed CI host, but far below the paced
    // transition time (64 chunks at 100/s ≈ 640 ms): a foreground op that
    // blocked on the whole migration would blow straight through it.
    assert!(
        p99_us < 100_000,
        "foreground p99 {p99_us} µs during a paced resize (max {} µs)",
        latencies.max()
    );
    eprintln!(
        "paced resize p99: {} ops, p50 {} µs, p99 {p99_us} µs, max {} µs, {}",
        latencies.count(),
        latencies.percentile(50.0),
        latencies.max(),
        report
    );
    table.shutdown();
}

/// Growing the table re-splits the *global* byte budget over the new
/// partition count.  Before this fix every new partition inherited the old
/// per-partition share, so a 2→4 grow silently doubled the table's memory
/// budget.
#[test]
fn grow_resplits_the_global_capacity_budget() {
    const BUDGET: usize = 16 * 1024; // 2048 8-byte values
    let mut config = CpHashConfig::new(2, 1).with_max_partitions(4);
    config.capacity_bytes = Some(BUDGET);
    let (mut table, mut clients) = CpHash::new(config);
    let mut coordinator = RepartitionCoordinator::new(table.take_control().expect("control"));
    let client = &mut clients[0];

    // Overfill at 2 partitions, grow live, then overfill again at 4.
    for key in 0..4_000u64 {
        assert!(client.insert(key, &key.to_le_bytes()).unwrap());
    }
    let report = coordinator.resize_to(4).expect("grow");
    assert_eq!(report.to_partitions, 4);
    for key in 4_000..8_000u64 {
        assert!(client.insert(key, &key.to_le_bytes()).unwrap());
    }

    let survivors = (0..8_000u64)
        .filter(|&k| client.get(k).unwrap().is_some())
        .count();
    let max_elements = BUDGET / 8;
    // With the old per-partition share, 4 partitions retained ~2x the
    // budget (~4096 elements).  Re-splitting keeps the global budget: at
    // most ~2048, give or take hash skew.
    assert!(
        survivors <= max_elements * 5 / 4,
        "{survivors} survivors exceed the re-split global budget of {max_elements} elements"
    );
    assert!(
        survivors >= max_elements / 2,
        "{survivors} survivors — the table dropped far below its budget"
    );
    drop(clients);
    table.shutdown();
}
