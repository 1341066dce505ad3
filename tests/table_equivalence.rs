//! Cross-crate integration tests: both hash tables, driven with identical
//! operation sequences, must agree with a reference model and with each
//! other.  This is the §5 claim ("both of the hash tables implement the same
//! API") turned into an executable check.

use std::collections::HashMap;

use cphash_suite::{CpHash, CpHashConfig, EvictionPolicy, LockHash, LockHashConfig};

/// A deterministic mixed operation sequence over a small key space.
fn operation_sequence(n: u64, seed: u64) -> Vec<(u8, u64, u64)> {
    let mut state = seed | 1;
    let mut ops = Vec::with_capacity(n as usize);
    for _ in 0..n {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let op = (state % 10) as u8;
        let key = (state >> 8) % 256;
        let value = state >> 16;
        ops.push((op, key, value));
    }
    ops
}

#[test]
fn cphash_matches_a_reference_map_without_eviction() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(4, 1));
    let client = &mut clients[0];
    let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();

    for (op, key, value) in operation_sequence(30_000, 0xAAAA) {
        match op {
            0..=4 => {
                let bytes = value.to_le_bytes().to_vec();
                assert!(client.insert(key, &bytes).unwrap());
                reference.insert(key, bytes);
            }
            5..=8 => {
                let got = client.get(key).unwrap().map(|v| v.as_slice().to_vec());
                assert_eq!(
                    got,
                    reference.get(&key).cloned(),
                    "lookup mismatch for key {key}"
                );
            }
            _ => {
                let was_present = client.delete(key).unwrap();
                assert_eq!(
                    was_present,
                    reference.remove(&key).is_some(),
                    "delete mismatch for key {key}"
                );
            }
        }
    }
    drop(clients);
    table.shutdown();
    let stats = table.partition_stats();
    assert_eq!(stats.evictions, 0, "unbounded table must never evict");
    assert!(
        stats.inline_hits > 0,
        "bucket-line counters must reach the table's statistics"
    );
}

#[test]
fn lockhash_matches_a_reference_map_without_eviction() {
    let table = LockHash::new(LockHashConfig::new(64));
    let mut reference: HashMap<u64, Vec<u8>> = HashMap::new();

    for (op, key, value) in operation_sequence(30_000, 0xBBBB) {
        match op {
            0..=4 => {
                let bytes = value.to_le_bytes().to_vec();
                assert!(table.insert(key, &bytes));
                reference.insert(key, bytes);
            }
            5..=8 => {
                assert_eq!(
                    table.get(key),
                    reference.get(&key).cloned(),
                    "lookup mismatch for key {key}"
                );
            }
            _ => {
                assert_eq!(table.delete(key), reference.remove(&key).is_some());
            }
        }
    }
    assert_eq!(table.len(), reference.len());
    assert!(table.stats().inline_hits > 0);
}

#[test]
fn both_tables_agree_under_identical_bounded_workloads() {
    // With a capacity bound the two tables may evict *different* victims
    // (CPHash has per-partition CLOCK over a different partition count), but
    // global invariants must match: every key that is present maps to the
    // value last written for it, and neither table exceeds its byte budget.
    // 256 distinct 8-byte values = 2 KiB of data squeezed into a 512-byte
    // budget, so both tables must evict continuously.
    let capacity = 512;
    let (mut cp_table, mut clients) =
        CpHash::new(CpHashConfig::new(4, 1).with_capacity(capacity, 8));
    let client = &mut clients[0];
    let lock_table = LockHash::new(LockHashConfig::new(4).with_capacity(capacity, 8));
    let mut last_written: HashMap<u64, u64> = HashMap::new();

    for (op, key, value) in operation_sequence(50_000, 0xCCCC) {
        match op {
            0..=5 => {
                let bytes = value.to_le_bytes();
                assert!(client.insert(key, &bytes).unwrap());
                assert!(lock_table.insert(key, &bytes));
                last_written.insert(key, value);
            }
            _ => {
                if let Some(v) = client.get(key).unwrap() {
                    let expected = last_written
                        .get(&key)
                        .copied()
                        .expect("present key was written");
                    assert_eq!(v.as_slice(), expected.to_le_bytes());
                }
                if let Some(v) = lock_table.get(key) {
                    let expected = last_written
                        .get(&key)
                        .copied()
                        .expect("present key was written");
                    assert_eq!(v, expected.to_le_bytes());
                }
            }
        }
    }
    assert!(lock_table.bytes_in_use() <= capacity);
    drop(clients);
    cp_table.shutdown();
    let stats = cp_table.partition_stats();
    assert!(
        stats.evictions > 0,
        "the bounded CPHash table must have evicted"
    );
    assert!(lock_table.stats().evictions > 0);
}

#[test]
fn random_eviction_tables_also_respect_their_budget() {
    let capacity = 4 * 1024;
    let (mut cp_table, mut clients) = CpHash::new(
        CpHashConfig::new(2, 1)
            .with_capacity(capacity, 8)
            .with_eviction(EvictionPolicy::Random),
    );
    let client = &mut clients[0];
    let lock_table = LockHash::new(
        LockHashConfig::new(8)
            .with_capacity(capacity, 8)
            .with_eviction(EvictionPolicy::Random),
    );
    for key in 0..5_000u64 {
        assert!(client.insert(key, &key.to_le_bytes()).unwrap());
        assert!(lock_table.insert(key, &key.to_le_bytes()));
    }
    assert!(lock_table.bytes_in_use() <= capacity);
    let survivors = (0..5_000u64).filter(|&k| lock_table.contains(k)).count();
    assert!(survivors <= capacity / 8);
    drop(clients);
    cp_table.shutdown();
}
