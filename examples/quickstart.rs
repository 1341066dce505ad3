//! Quickstart: create a CPHash table, insert and look up values, watch
//! eviction work, and shut down cleanly.
//!
//! Run with `cargo run --release --example quickstart`.

use cphash_suite::{CpHash, CpHashConfig, EvictionPolicy};

fn main() {
    // A table with 4 partitions (one server thread each) and 2 client
    // handles, limited to 64 KiB of values with CLOCK eviction — a miniature
    // version of the key/value cache the paper targets.
    let config = CpHashConfig::new(4, 2)
        .with_capacity(64 * 1024, 8)
        .with_eviction(EvictionPolicy::Clock);
    let (mut table, mut clients) = CpHash::new(config);
    println!(
        "started a CPHash table with {} partitions",
        table.partitions()
    );

    // --- Basic operations through the synchronous API -------------------
    let client = &mut clients[0];
    client.insert(1, b"first value").unwrap();
    client.insert(2, b"second value").unwrap();
    assert_eq!(client.get(1).unwrap().unwrap().as_slice(), b"first value");
    assert!(client.get(999).unwrap().is_none());
    assert!(client.delete(2).unwrap());
    println!("synchronous insert / get / delete all work");

    // --- The pipelined API: what the benchmarks and CPSERVER use --------
    // Queue a few thousand operations without waiting for each one; the
    // client packs requests eight-per-cache-line and keeps every server
    // thread busy at once.
    let mut tokens = Vec::new();
    for key in 0..10_000u64 {
        tokens.push(client.submit_insert(key, &key.to_le_bytes()));
    }
    let mut completions = Vec::new();
    client.drain(&mut completions).unwrap();
    println!("pipelined {} inserts", completions.len());

    // Because the table only holds 64 KiB (8,192 values of 8 bytes), the
    // oldest keys were evicted along the way.
    let mut hits = 0;
    for key in 0..10_000u64 {
        if client.get(key).unwrap().is_some() {
            hits += 1;
        }
    }
    println!("{hits} of 10000 keys survived under the 64 KiB budget (CLOCK keeps the newest)");

    // The second client handle can be used from another thread.
    let mut other = clients.pop().unwrap();
    let worker = std::thread::spawn(move || {
        other.insert(424242, b"from the other client").unwrap();
        other.get(424242).unwrap().is_some()
    });
    assert!(worker.join().unwrap());
    println!("a second client handle worked from its own thread");

    // Table statistics come from the server threads.
    let stats = table.partition_stats();
    println!(
        "table stats: {} inserts, {} lookups, {} evictions, hit rate {:.1}%",
        stats.inserts,
        stats.lookups,
        stats.evictions,
        stats.hit_rate() * 100.0
    );

    drop(clients);
    table.shutdown();
    println!("table shut down cleanly");
}
