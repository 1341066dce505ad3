//! End-to-end transitions on a real table: every key must survive grows and
//! shrinks, and the routing/metadata must agree afterwards.

use cphash::{CpHash, CpHashConfig};
use cphash_migrate::{MigrateError, RepartitionCoordinator};

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
        assert!(client.insert(key, &(key * 3).to_le_bytes()).unwrap());
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
        assert_eq!(v.as_slice(), (key * 3).to_le_bytes());
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
        assert_eq!(v.as_slice(), (key * 3).to_le_bytes());
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
    const KEYS: u64 = 300;
    const VALUE_LEN: usize = 512;
    let (table, mut clients) = CpHash::new(CpHashConfig::new(1, 1).with_max_partitions(4));
    // A tiny per-delivery ceiling: with 512-byte values, at most ~3 entries
    // fit per batch, so every populated chunk delivery must split.
    let mut coordinator =
        RepartitionCoordinator::new(table.take_control().expect("control handle"))
            .with_max_batch_bytes(2 * 1024);
    assert_eq!(coordinator.max_batch_bytes(), 2 * 1024);
    let mut table = table;
    let client = &mut clients[0];
    let value = vec![0xA5u8; VALUE_LEN];
    for key in 0..KEYS {
        assert!(client.insert(key, &value).unwrap());
    }

    let report = coordinator.resize_to(4).unwrap();
    assert_eq!(report.to_partitions, 4);
    // Roughly 3 in 4 keys leave partition 0 (hash-distributed).
    assert!(report.keys_moved as u64 > KEYS / 2);
    // The ceiling forces strictly more deliveries than the unsplit path's
    // upper bound of one batch per (chunk, receiver) pair.
    let unsplit_upper_bound = report.chunks * 4;
    assert!(
        report.batches > unsplit_upper_bound / 2,
        "expected heavy splitting, got {} batches over {} chunks",
        report.batches,
        report.chunks
    );
    let min_batches = (report.keys_moved * (VALUE_LEN + 8)).div_ceil(2 * 1024);
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
