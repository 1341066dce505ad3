//! End-to-end transitions on a real table: every key must survive grows and
//! shrinks, and the routing/metadata must agree afterwards.

use cphash::protocol::MAX_BATCH_BYTES;
use cphash::{CpHash, CpHashConfig};
use cphash_migrate::{MigrateError, RepartitionCoordinator};

/// Every other key an 8-byte value — kept in its element, moved by export →
/// absorb like any other, re-inlined on arrival — and the rest 64 bytes in a
/// slab block.
fn mixed_value(key: u64) -> Vec<u8> {
    let word = (key * 3).to_le_bytes();
    if key.is_multiple_of(2) {
        word.to_vec()
    } else {
        word.repeat(8)
    }
}

fn elastic_table(
    partitions: usize,
    max: usize,
    clients: usize,
) -> (CpHash, Vec<cphash::ClientHandle>, RepartitionCoordinator) {
    let (table, clients) =
        CpHash::new(CpHashConfig::new(partitions, clients).with_max_partitions(max));
    let coordinator = RepartitionCoordinator::new(table.take_control().expect("control handle"));
    (table, clients, coordinator)
}

#[test]
fn grow_then_shrink_preserves_every_key() {
    const KEYS: u64 = 2_000;
    let (mut table, mut clients, mut coordinator) = elastic_table(2, 4, 1);
    let client = &mut clients[0];
    for key in 0..KEYS {
        assert!(client.insert(key, &mixed_value(key)).unwrap());
    }

    let report = coordinator.resize_to(4).unwrap();
    assert_eq!(report.from_partitions, 2);
    assert_eq!(report.to_partitions, 4);
    assert!(report.keys_moved > 0, "a 2->4 grow must move keys");
    assert_eq!(table.partitions(), 4);
    assert_eq!(client.partitions(), 4);
    for key in 0..KEYS {
        let v = client
            .get(key)
            .unwrap()
            .unwrap_or_else(|| panic!("key {key} lost in grow"));
        assert_eq!(v.as_slice(), mixed_value(key));
    }

    let report = coordinator.resize_to(2).unwrap();
    assert_eq!(report.from_partitions, 4);
    assert_eq!(report.to_partitions, 2);
    assert!(report.keys_moved > 0, "a 4->2 shrink must move keys back");
    assert_eq!(table.partitions(), 2);
    for key in 0..KEYS {
        let v = client
            .get(key)
            .unwrap()
            .unwrap_or_else(|| panic!("key {key} lost in shrink"));
        assert_eq!(v.as_slice(), mixed_value(key));
    }

    // After the shrink, the idle servers must hold nothing: the sum of keys
    // the active partitions hold equals the key count.
    drop(clients);
    table.shutdown();
    let stats = table.partition_stats();
    assert!(stats.exported >= report.keys_moved as u64);
    assert!(stats.absorbed >= report.keys_moved as u64);
    assert_eq!(
        stats.exported, stats.absorbed,
        "every exported key was absorbed"
    );
}

#[test]
fn values_of_every_size_survive_migration() {
    let (mut table, mut clients, mut coordinator) = elastic_table(1, 3, 1);
    let client = &mut clients[0];
    let sizes = [0usize, 1, 8, 16, 17, 100, 1000, 70_000];
    for (key, size) in sizes.iter().enumerate() {
        let value = vec![key as u8 ^ 0x5A; *size];
        assert!(client.insert(key as u64, &value).unwrap());
    }
    coordinator.resize_to(3).unwrap();
    for (key, size) in sizes.iter().enumerate() {
        let v = client.get(key as u64).unwrap().expect("key survives");
        assert_eq!(v.len(), *size);
        assert!(v.as_slice().iter().all(|b| *b == key as u8 ^ 0x5A));
    }
    drop(clients);
    table.shutdown();
}

#[test]
fn resize_rejects_out_of_range_and_reports_no_ops() {
    let (mut table, clients, mut coordinator) = elastic_table(2, 4, 1);
    assert_eq!(coordinator.active_partitions(), 2);
    assert_eq!(coordinator.max_partitions(), 4);
    assert!(matches!(
        coordinator.resize_to(5),
        Err(MigrateError::Transition(_))
    ));
    assert!(matches!(
        coordinator.resize_to(0),
        Err(MigrateError::Transition(_))
    ));
    let report = coordinator.resize_to(2).unwrap();
    assert_eq!(report.keys_moved, 0);
    assert_eq!(report.chunks, 0, "same-size resize is a no-op");
    drop(clients);
    table.shutdown();
}

#[test]
fn resize_after_shutdown_reports_server_gone() {
    let (mut table, clients, mut coordinator) = elastic_table(2, 4, 1);
    drop(clients);
    table.shutdown();
    assert_eq!(coordinator.resize_to(4), Err(MigrateError::ServerGone));
}

#[test]
fn oversized_chunk_deliveries_are_split_and_lose_nothing() {
    // One chunk holding the whole table: each receiver's share of a 1 -> 4
    // grow, about 512 KiB of records, passes the per-delivery ceiling.
    const KEYS: u64 = 2_048;
    const VALUE_LEN: usize = 1_024;
    let config = CpHashConfig {
        migration_chunks: 1,
        ..CpHashConfig::new(1, 1).with_max_partitions(4)
    };
    let (mut table, mut clients) = CpHash::new(config);
    let mut coordinator =
        RepartitionCoordinator::new(table.take_control().expect("control handle"));
    let client = &mut clients[0];
    let value = vec![0xA5u8; VALUE_LEN];
    for key in 0..KEYS {
        assert!(client.insert(key, &value).unwrap());
    }

    let report = coordinator.resize_to(4).unwrap();
    assert_eq!((report.to_partitions, report.chunks), (4, 1));
    // Roughly 3 in 4 keys leave partition 0 (hash-distributed).
    assert!(report.keys_moved as u64 > KEYS / 2);
    // Unsplit, one chunk from one source is at most one batch per receiver.
    assert!(
        report.batches > 3,
        "expected split deliveries, got {} batches",
        report.batches
    );
    // Records are a 12-byte header (key, length) and the value.
    let min_batches = (report.keys_moved * (12 + VALUE_LEN)).div_ceil(MAX_BATCH_BYTES);
    assert!(
        report.batches >= min_batches,
        "{} batches cannot carry {} keys under the ceiling (need >= {})",
        report.batches,
        report.keys_moved,
        min_batches
    );

    // Nothing lost or corrupted by the split deliveries.
    for key in 0..KEYS {
        let v = client
            .get(key)
            .unwrap()
            .unwrap_or_else(|| panic!("key {key} lost in split-batch grow"));
        assert_eq!(v.as_slice(), value.as_slice());
    }
    drop(clients);
    table.shutdown();
}
