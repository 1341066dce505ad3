//! End-to-end transitions on a real table: every key must survive grows and
//! shrinks, and the routing/metadata must agree afterwards.

use cphash::{CpHash, CpHashConfig, MigrationBatch, MigrationStep, Request};
use cphash_hashcore::{migration_chunk, partition_for_key};
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
fn a_value_that_rides_in_its_request_never_holds_up_a_chunk_export() {
    let (mut table, mut clients) = CpHash::new(CpHashConfig::new(1, 1).with_max_partitions(2));
    let chunks = table.config().migration_chunks;
    let mut control = table.take_control().expect("control handle");
    let client = &mut clients[0];
    // Two keys of one chunk that a 1 -> 2 grow takes away from partition 0.
    let chunk = 0;
    let mut leaving =
        (0u64..).filter(|&k| migration_chunk(k, chunks) == chunk && partition_for_key(k, 2) == 1);
    let (short, long) = (leaving.next().unwrap(), leaving.next().unwrap());
    let step = MigrationStep {
        chunk,
        old_partitions: 1,
        new_partitions: 2,
    };
    let export = |control: &mut cphash::ControlHandle| {
        let reply = control
            .round_trip(0, &Request::MigrateOut { step })
            .unwrap();
        assert!(reply.has_value(), "the chunk is not empty: {reply:?}");
        // SAFETY: the reply to a `MigrateOut` hands over exactly one batch.
        unsafe { MigrationBatch::from_addr(reply.addr) }.entries
    };

    let executed = |n: u64| {
        while table.server_stats()[0].operations() < n {
            std::thread::yield_now();
        }
    };

    // Executed by the server, never polled by the client.  Eight bytes
    // arrive inside the request, so the element is READY the moment the
    // insert has run and the export that follows takes it along.  Sent the
    // two-phase way it would sit NOT-READY until this client copied the
    // bytes and said `Ready` — and `round_trip` would wait for that for good.
    client.submit_insert(short, &[7; 8]);
    client.flush();
    executed(1);
    assert_eq!(export(&mut control), vec![(short, vec![7; 8])]);

    // The contrast, on a value that does travel by pointer: the export
    // finds its reservation NOT-READY and answers only once the client has
    // copied the bytes in and said so.
    client.submit_insert(long, &[9; 64]);
    client.flush();
    executed(2);
    control.send(0, &Request::MigrateOut { step }).unwrap();
    let mut done = Vec::new();
    client.drain(&mut done).unwrap();
    let reply = control.recv_blocking(0).unwrap();
    // SAFETY: as above.
    let entries = unsafe { MigrationBatch::from_addr(reply.addr) }.entries;
    assert_eq!(entries, vec![(long, vec![9; 64])]);
    assert_eq!(done.len(), 2);
    drop(clients);
    table.shutdown();
    let stats = table.partition_stats();
    assert_eq!((stats.inserts, stats.exported), (2, 2));
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
